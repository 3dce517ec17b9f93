"""The three MDS-code families of optimal FHS sets, with claimed-parameter checks.

Each family is the cyclic code whose nonzeros, the j outside its defining
set Z, are one cyclic interval: {-k..k} for A, {-1, 0, 1} for B and
{lo..n - lo}, lo = (n-1)/2 - k, for C.  Its claims follow from the K
nonzeros alone (`_claimed`): N = (q^K - q)/n full orbits outside the
constant words when 0 is a nonzero, (q^K - 1)/n otherwise, and
lambda = K - 1, meeting the Singleton bound.

A: length q+1 over GF(q), q = 2^m, K = 2k+1: (q+1, (q^(2k+1)-q)/(q+1), 2k; q).
B: length q+1 over GF(q), q odd, K = 3: (q+1, q(q-1), 2; q), as is A at
k = 1; both meet the Peng-Fan bound too.
C: length n an odd divisor of q+1, K = 2k+2: (n, (q^(2k+2)-1)/n, 2k+1; q),
meeting Peng-Fan too when k = 0.

Builders report the bounds first, then prove what fits the enumeration cap
and correlation budget, orbit counts and sizes exactly, then the exact
correlation certificate, and record each claim beside its proof in
`FamilyBuild.claims`.  Every builder refuses a field order above the table
cap before any factoring, and a report past its printable digits or a
length past the factor table's cap before any field or code is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .bounds import BoundReport, check_printable, optimality_report
from .cyclic import (
    CyclicCode,
    _full_orbits,
    build_code,
    check_factor_length,
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


def _claimed(q: int, n: int, nonzeros) -> tuple[int, int]:
    """The claimed (N, lambda) of the length-n MDS code over GF(q) with
    these K nonzeros: one sequence per full orbit outside the constant
    words, N = (q^K - q)/n when 0 is a nonzero and (q^K - 1)/n otherwise,
    and lambda = K - 1, the Singleton-optimal shape."""
    K = len(nonzeros)
    return (q**K - (q if 0 in nonzeros else 1)) // n, K - 1


def _materialize(params: dict, pm: tuple[int, int], n: int, nonzeros: set,
                 enum_cap: int, budget: int | None) -> FamilyBuild:
    """Check and, within the caps, build and certify the family's set from
    the code of length n over GF(p^m), (p, m) = pm, with these nonzeros,
    Z = Z_n less them: one sequence per orbit outside the code's constant
    words, which are the zero word alone when 0 is in Z.  Singleton's
    printable-digits rule comes first, before the claimed N's q^K, then the
    bound report, then the length cap of the factor table, so an instance
    refused by any of them builds no field and no code."""
    q = params["q"]
    check_printable(n, q, len(nonzeros) - 1)
    N, lam = _claimed(q, n, nonzeros)
    report = optimality_report(n, N, q, lam)
    check_factor_length(n)
    code = build_code(n, make_field(*pm), set(range(n)) - nonzeros)
    fhs = survey = count = all_full = measured = None
    if code.size <= enum_cap:
        reps, sizes = class_partition(code, cap=enum_cap)
        count, all_full = len(sizes), bool((sizes == n).all())
    if all_full:  # a short orbit refutes class_sizes, and makes no set
        fhs = classes_to_fhs(reps, sizes, code, provenance=params)
        del reps, sizes  # the set holds its own copy through the certificate
        try:
            survey = max_nontrivial(fhs, budget=budget)
            measured = survey.value
        except BudgetExceeded:
            pass
        fhs.max_correlation = lam if measured is None else measured
    claims = {"orbit_predicate": (True, _full_orbits(n, nonzeros)),
              "class_count": (N, count), "class_sizes": (True, all_full),
              "lambda_match": (lam, measured),
              "meets_singleton": (True, report.meets_singleton)}
    return FamilyBuild(params, code, claims, fhs, survey, report)


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
    params = {"family": "A", "q": q, "n": n, "m": m, "k": k, "p": p}
    return _materialize(params, (2, m), n,
                        {j % n for j in range(-k, k + 1)}, enum_cap, budget)


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
    params = {"family": "B", "q": q, "n": n}
    return _materialize(params, pe, n, {q, 0, 1}, enum_cap, budget)


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
    lo = (n - 1) // 2 - k
    params = {"family": "C", "q": q, "n": n, "k": k, "M": bad_m}
    return _materialize(params, pe, n, set(range(lo, n - lo + 1)),
                        enum_cap, budget)


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
