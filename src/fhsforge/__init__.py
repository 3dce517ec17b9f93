"""fhsforge: optimal frequency-hopping sequence sets from MDS cyclic codes,
verified against the Peng-Fan and Singleton bounds."""

__version__ = "0.1.0"

from .bounds import (
    BoundReport,
    optimality_report,
    peng_fan_1,
    peng_fan_2,
    pf_identity_sweep,
    singleton_max_size,
)
from .constructions import (
    FamilyBuild,
    family_a,
    family_b,
    family_c,
    family_ding,
    largest_bad_m,
)
from .cyclic import (
    CyclicCode,
    build_code,
    class_partition,
    cyclotomic_cosets,
    factor_x_pow_n_minus_one,
    min_distance_exhaustive,
    unit_coset_code,
)
from .fhs import (
    CorrelationSurvey,
    FhsSet,
    classes_to_fhs,
    correlation,
    max_nontrivial,
)
from .galois import (
    FiniteField,
    Polynomial,
    field_from_order,
    make_field,
    poly_gcd,
)
from .intmath import smallest_prime_factor

__all__ = [
    "BoundReport",
    "CorrelationSurvey",
    "CyclicCode",
    "FamilyBuild",
    "FhsSet",
    "FiniteField",
    "Polynomial",
    "build_code",
    "class_partition",
    "classes_to_fhs",
    "correlation",
    "cyclotomic_cosets",
    "factor_x_pow_n_minus_one",
    "family_a",
    "family_b",
    "family_c",
    "family_ding",
    "field_from_order",
    "largest_bad_m",
    "make_field",
    "max_nontrivial",
    "min_distance_exhaustive",
    "optimality_report",
    "peng_fan_1",
    "peng_fan_2",
    "pf_identity_sweep",
    "poly_gcd",
    "singleton_max_size",
    "smallest_prime_factor",
    "unit_coset_code",
    "__version__",
]
