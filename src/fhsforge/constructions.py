"""The three MDS-code families of optimal FHS sets, with claimed-parameter checks.

Family A: length q+1 over GF(q), q = 2^m.  The parity check is (x-1) times
the first k coset polynomials, giving a [q+1, 2k+1, q-2k+1] MDS code whose
orbits outside the constants are full; one representative per orbit yields a
(q+1, (q^(2k+1)-q)/(q+1), 2k; q) set meeting the Singleton bound.

Family B: the odd-q analogue with k fixed to 1: a [q+1, 3, q-1] code giving
a (q+1, q(q-1), 2; q) set meeting both the Peng-Fan and Singleton bounds.

Family C: length n an odd divisor of q+1.  The parity check is the product
of the k+1 coset polynomials nearest (n-1)/2, giving an [n, 2k+2, n-2k-1]
MDS code all of whose nonzero orbits are full, hence an
(n, (q^(2k+2)-1)/n, 2k+1; q) set meeting the Singleton bound (both bounds
when k = 0).

Builders verify whatever fits the enumeration cap and correlation budget:
orbit counts and sizes exactly, then the exact correlation certificate.
Every builder refuses a field order above the table cap before any
factoring, so a huge q fails at once instead of trial-dividing for ever.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from math import gcd

from .bounds import BoundReport, optimality_report
from .cyclic import (
    CyclicCode,
    build_code,
    class_partition,
    has_full_orbits_nonzero,
    has_full_orbits_outside_constants,
    unit_coset_code,
    ENUMERATION_CAP,
)
from .errors import (
    BudgetExceeded,
    KOutOfRange,
    NotOddDivisor,
    NotOddPrimePower,
)
from .fhs import (
    DEFAULT_CORRELATION_BUDGET,
    CorrelationSurvey,
    FhsSet,
    classes_to_fhs,
    max_nontrivial,
)
from .galois import check_field_order, field_from_order, make_field
from .intmath import is_prime, is_prime_power, smallest_prime_factor


def largest_bad_m(n: int) -> int:
    """Largest M <= (n-3)/2 with gcd(M, n) > 1, or 0 when none exists.

    (n-1)/2 itself is always coprime to odd n, so the scan can start at
    (n-3)/2.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError(f"need odd n >= 3, got {n}")
    for m in range((n - 3) // 2, 1, -1):
        if gcd(m, n) > 1:
            return m
    return 0


@dataclass
class FamilyParams:
    family: str
    q: int
    n: int
    k: int | None = None
    m: int | None = None
    p: int | None = None  # smallest prime divisor of q+1 (family A)
    bad_m: int | None = None  # family C's M

    def export_dict(self) -> dict:
        out = {"family": self.family, "q": self.q, "n": self.n}
        if self.m is not None:
            out["m"] = self.m
        if self.k is not None:
            out["k"] = self.k
        if self.p is not None:
            out["p"] = self.p
        if self.bad_m is not None:
            out["M"] = self.bad_m
        return out


@dataclass
class FamilyBuild:
    """A constructed family instance plus everything that was verified."""

    params: FamilyParams
    code: CyclicCode
    claimed_N: int | None
    claimed_lambda: int | None
    fhs: FhsSet | None = None
    survey: CorrelationSurvey | None = None
    report: BoundReport | None = None
    checks: dict = dc_field(default_factory=dict)
    observations: dict = dc_field(default_factory=dict)

    @property
    def verified_level(self) -> str:
        if self.survey is None:
            return "none"
        return self.survey.method

    def export_dict(self) -> dict:
        out = self.params.export_dict()
        out["claimed"] = {
            "N": str(self.claimed_N) if self.claimed_N is not None else None,
            "lambda": self.claimed_lambda,
        }
        out["verified"] = {
            "class_count": self.checks.get("class_count"),
            "correlation": self.verified_level,
        }
        return out

    def all_claims_hold(self) -> bool:
        """True when every check that actually ran came out clean."""
        return all(v for v in self.checks.values() if v is not None)


def _materialize(
    build: FamilyBuild,
    mode: str,
    params_only: bool,
    enum_cap: int,
    budget: int | None,
) -> FamilyBuild:
    code = build.code
    n, q = code.n, code.field.order
    predicate = (
        has_full_orbits_outside_constants(code)
        if mode == "nonconstant"
        else has_full_orbits_nonzero(code)
    )
    build.checks["orbit_predicate"] = predicate
    lambda_source = "claimed"
    if not params_only and code.size <= enum_cap:
        exclude = "constants" if mode == "nonconstant" else "zero"
        reps, sizes = class_partition(code, exclude=exclude, cap=enum_cap)
        build.checks["class_count"] = len(sizes) == build.claimed_N
        build.checks["class_sizes"] = bool((sizes == n).all())
        build.fhs = classes_to_fhs(
            reps, sizes, code, mode, provenance=build.params.export_dict()
        )
        try:
            build.survey = max_nontrivial(build.fhs, budget=budget)
            build.checks["lambda_match"] = build.survey.value == build.claimed_lambda
            lambda_source = "exhaustive"
            build.fhs.max_correlation = build.survey.value
        except BudgetExceeded:
            build.fhs.max_correlation = build.claimed_lambda
    else:
        build.checks["class_count"] = None
    build.report = optimality_report(
        n, build.claimed_N, q, build.claimed_lambda, lambda_source=lambda_source
    )
    build.checks["meets_singleton"] = build.report.meets_singleton
    return build


def family_a(
    m: int,
    k: int,
    params_only: bool = False,
    enum_cap: int = ENUMERATION_CAP,
    budget: int | None = DEFAULT_CORRELATION_BUDGET,
) -> FamilyBuild:
    """(q+1, (q^(2k+1)-q)/(q+1), 2k; q) for q = 2^m, m > 1."""
    if m < 2:
        raise KOutOfRange(f"need m > 1, got {m}")
    q = 1 << m
    check_field_order(q)
    n = q + 1
    p = smallest_prime_factor(n)
    k_cap = min(p - 1, 1 << (m - 1))
    if not 1 <= k <= k_cap:
        raise KOutOfRange(f"k must satisfy 1 <= k <= {k_cap}, got {k}")
    code = build_code(n, make_field(2, m), range(k + 1, q - k + 1))
    params = FamilyParams("A", q=q, n=n, k=k, m=m, p=p)
    build = FamilyBuild(
        params, code, claimed_N=(q ** (2 * k + 1) - q) // n, claimed_lambda=2 * k
    )
    return _materialize(build, "nonconstant", params_only, enum_cap, budget)


def family_b(
    q: int,
    params_only: bool = False,
    enum_cap: int = ENUMERATION_CAP,
    budget: int | None = DEFAULT_CORRELATION_BUDGET,
) -> FamilyBuild:
    """(q+1, q(q-1), 2; q) for an odd prime power q."""
    check_field_order(q)
    pe = is_prime_power(q)
    if pe is None or pe[0] == 2:
        raise NotOddPrimePower(f"{q} is not an odd prime power")
    n = q + 1
    code = build_code(n, field_from_order(q), range(2, q))
    params = FamilyParams("B", q=q, n=n)
    build = FamilyBuild(params, code, claimed_N=q * (q - 1), claimed_lambda=2)
    return _materialize(build, "nonconstant", params_only, enum_cap, budget)


def family_c(
    q: int,
    n: int,
    k: int,
    params_only: bool = False,
    enum_cap: int = ENUMERATION_CAP,
    budget: int | None = DEFAULT_CORRELATION_BUDGET,
) -> FamilyBuild:
    """(n, (q^(2k+2)-1)/n, 2k+1; q) for an odd divisor n > 1 of q+1."""
    check_field_order(q)
    if is_prime_power(q) is None:
        raise NotOddPrimePower(f"{q} is not a prime power")
    if n <= 1 or n % 2 == 0 or (q + 1) % n != 0:
        raise NotOddDivisor(f"{n} is not an odd divisor > 1 of {q + 1}")
    bad_m = largest_bad_m(n)
    k_cap = (n - 3) // 2 - bad_m
    if not 0 <= k <= k_cap:
        raise KOutOfRange(f"k must satisfy 0 <= k <= {k_cap}, got {k}")
    half = (n - 1) // 2
    lo = half - k
    defining = set(range(0, lo)) | {n - j for j in range(1, lo)}
    code = build_code(n, field_from_order(q), defining)
    params = FamilyParams("C", q=q, n=n, k=k, bad_m=bad_m)
    build = FamilyBuild(
        params, code, claimed_N=(q ** (2 * k + 2) - 1) // n, claimed_lambda=2 * k + 1
    )
    return _materialize(build, "nonzero", params_only, enum_cap, budget)


def family_ding(q: int, m: int) -> FamilyBuild:
    """The [n, n-m, 3] unit-coset code demo: its nonconstant orbits are all
    full exactly when n = (q^m - 1)/(q - 1) is prime.  No sequence set is
    materialized (the code is not MDS in general)."""
    code = unit_coset_code(q, m)
    n = code.n
    params = FamilyParams("Ding", q=q, n=n, m=m)
    build = FamilyBuild(params, code, claimed_N=None, claimed_lambda=None)
    predicate = has_full_orbits_outside_constants(code)
    build.observations["orbit_predicate"] = predicate
    build.observations["length_is_prime"] = is_prime(n)
    build.checks["predicate_matches_primality"] = predicate == is_prime(n)
    return build
