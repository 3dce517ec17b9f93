"""The three MDS-code families of optimal FHS sets, with claimed-parameter checks.

Family A: length q+1 over GF(q), q = 2^m.  The parity check is (x-1) times
the first k coset polynomials, giving a [q+1, 2k+1, q-2k+1] MDS code whose
orbits outside the constants are full; one representative per orbit yields a
(q+1, (q^(2k+1)-q)/(q+1), 2k; q) set meeting the Singleton bound.  At k = 1
this is (q+1, q(q-1), 2; q), family B's parameters at even q, which meets
the Peng-Fan bound too.

Family B: the odd-q analogue with k fixed to 1: a [q+1, 3, q-1] code giving
a (q+1, q(q-1), 2; q) set meeting both the Peng-Fan and Singleton bounds.

Family C: length n an odd divisor of q+1.  The parity check is the product
of the k+1 coset polynomials nearest (n-1)/2, giving an [n, 2k+2, n-2k-1]
MDS code all of whose nonzero orbits are full, hence an
(n, (q^(2k+2)-1)/n, 2k+1; q) set meeting the Singleton bound (both bounds
when k = 0).

Builders prove what fits the enumeration cap and correlation budget, orbit
counts and sizes exactly, then the exact correlation certificate, and record
each claim beside its proof in `FamilyBuild.claims`.  Every builder refuses
a field order above the table cap before any factoring, so a huge q fails at
once instead of trial-dividing for ever.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .bounds import BoundReport, optimality_report
from .cyclic import (
    CyclicCode,
    _full_orbits,
    build_code,
    class_partition,
    unit_coset_code,
    ENUMERATION_CAP,
)
from .errors import (
    BudgetExceeded,
    FieldTooLarge,
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
from .galois import FIELD_ORDER_CAP, check_field_order, make_field
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
class FamilyBuild:
    """A constructed family instance and its claims.  `params` is the
    instance's exported parameters, `family`, `q` and `n` first: A adds
    `m`, `k` and `p` (the smallest prime divisor of q+1), C adds `k` and
    `M`, Ding adds `m`.  `claims` maps each claim's name to (claimed,
    proved), proved None where the caps stopped the proof."""

    params: dict
    code: CyclicCode
    claims: dict
    fhs: FhsSet | None = None
    survey: CorrelationSurvey | None = None
    report: BoundReport | None = None

    def verdicts(self) -> dict:
        """Each claim's name, sorted, to whether it was proved as claimed,
        or to None where it was not proved."""
        return {name: None if proved is None else proved == claimed
                for name, (claimed, proved) in sorted(self.claims.items())}

    def export_dict(self) -> dict:
        """`params` and the claims, each integer a decimal string, so that
        any JSON reader reads an N past 2^53 exactly."""
        return {**self.params, "claims": {
            name: {key: str(v) if type(v) is int else v
                   for key, v in zip(("claimed", "proved"), claim)}
            for name, claim in self.claims.items()}}


def _materialize(params: dict, code: CyclicCode, N: int, lam: int,
                 enum_cap: int, budget: int | None) -> FamilyBuild:
    """Check and, within the caps, build and certify the family's set: one
    sequence per orbit outside the code's constant words, which are the
    zero word alone when 0 is in Z.  The paper claims N sequences, all of
    length n, with maximum correlation lam."""
    n, q = code.n, code.field.order
    predicate = _full_orbits(n, code.nonzeros)
    build = FamilyBuild(params, code, {"orbit_predicate": (True, predicate)})
    count = all_full = measured = None
    if code.size <= enum_cap:
        reps, sizes = class_partition(code, cap=enum_cap)
        count, all_full = len(sizes), bool((sizes == n).all())
        build.fhs = classes_to_fhs(reps, sizes, code, provenance=params)
        del reps, sizes  # the set holds its own copy through the certificate
        try:
            build.survey = max_nontrivial(build.fhs, budget=budget)
            measured = build.survey.value
        except BudgetExceeded:
            pass
        build.fhs.max_correlation = lam if measured is None else measured
    build.report = optimality_report(n, N, q, lam)
    build.claims.update(class_count=(N, count), class_sizes=(True, all_full),
                        lambda_match=(lam, measured),
                        meets_singleton=(True, build.report.meets_singleton))
    return build


def family_a(
    m: int,
    k: int,
    enum_cap: int = ENUMERATION_CAP,
    budget: int | None = DEFAULT_CORRELATION_BUDGET,
) -> FamilyBuild:
    """(q+1, (q^(2k+1)-q)/(q+1), 2k; q) for q = 2^m, m > 1."""
    if m < 2:
        raise KOutOfRange(f"need m > 1, got {m}")
    if m >= FIELD_ORDER_CAP.bit_length():  # before 1 << m, which m = 10^14 exhausts
        raise FieldTooLarge(f"GF(2^{m}) exceeds the table cap {FIELD_ORDER_CAP}")
    q = 1 << m
    n = q + 1
    p = smallest_prime_factor(n)
    k_cap = min(p - 1, 1 << (m - 1))
    if not 1 <= k <= k_cap:
        raise KOutOfRange(f"k must satisfy 1 <= k <= {k_cap}, got {k}")
    code = build_code(n, make_field(2, m), range(k + 1, q - k + 1))
    params = {"family": "A", "q": q, "n": n, "m": m, "k": k, "p": p}
    N = (q ** (2 * k + 1) - q) // n
    return _materialize(params, code, N, 2 * k, enum_cap, budget)


def family_b(
    q: int,
    enum_cap: int = ENUMERATION_CAP,
    budget: int | None = DEFAULT_CORRELATION_BUDGET,
) -> FamilyBuild:
    """(q+1, q(q-1), 2; q) for an odd prime power q."""
    check_field_order(q)
    pe = is_prime_power(q)
    if pe is None or pe[0] == 2:
        raise NotOddPrimePower(f"{q} is not an odd prime power")
    n = q + 1
    code = build_code(n, make_field(*pe), range(2, q))
    params = {"family": "B", "q": q, "n": n}
    return _materialize(params, code, q * (q - 1), 2, enum_cap, budget)


def family_c(
    q: int,
    n: int,
    k: int,
    enum_cap: int = ENUMERATION_CAP,
    budget: int | None = DEFAULT_CORRELATION_BUDGET,
) -> FamilyBuild:
    """(n, (q^(2k+2)-1)/n, 2k+1; q) for an odd divisor n > 1 of q+1."""
    check_field_order(q)
    pe = is_prime_power(q)
    if pe is None:
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
    code = build_code(n, make_field(*pe), defining)
    params = {"family": "C", "q": q, "n": n, "k": k, "M": bad_m}
    N = (q ** (2 * k + 2) - 1) // n
    return _materialize(params, code, N, 2 * k + 1, enum_cap, budget)


def family_ding(q: int, m: int) -> FamilyBuild:
    """The [n, n-m, 3] unit-coset code demo: its nonconstant orbits are all
    full exactly when n = (q^m - 1)/(q - 1) is prime.  No sequence set is
    materialized (the code is not MDS in general).  m = 1, n = 1, is refused."""
    if m < 2:
        raise KOutOfRange(f"need m > 1, got {m}")
    code = unit_coset_code(q, m)
    n = code.n
    params = {"family": "Ding", "q": q, "n": n, "m": m}
    return FamilyBuild(params, code, {"predicate_matches_primality": (
        is_prime(n), _full_orbits(n, code.nonzeros))})
