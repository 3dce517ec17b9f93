import tracemalloc

import pytest

from fhsforge import constructions
from fhsforge.constructions import (
    family_a,
    family_b,
    family_c,
    family_ding,
    largest_bad_m,
)
from fhsforge.cyclic import (
    build_code,
    factor_x_pow_n_minus_one,
    has_full_orbits_outside_constants,
    min_distance_exhaustive,
)
from fhsforge.errors import (
    BoundTooLarge,
    FactorTableTooLarge,
    KOutOfRange,
    NotOddDivisor,
    NotOddPrimePower,
)
from fhsforge.galois import (
    Polynomial,
    _ben_or,
    field_from_order,
    make_field,
)
from fhsforge.intmath import multiplicative_order, smallest_prime_factor
from test_galois import pow_mod, reference_gcd


# -- parameter helpers ---------------------------------------------------------


def parameter_tuple(fset):
    """(n, N, lambda, ell) of an FHS set."""
    return (fset.n, fset.size, fset.max_correlation, fset.alphabet_size)


def all_proved(build):
    """Every claim of the build proved as claimed."""
    return all(verdict is True for verdict in build.verdicts().values())


def test_smallest_prime_factor():
    assert smallest_prime_factor(9) == 3
    assert smallest_prime_factor(17) == 17
    # 3 divides 2^m + 1 for every odd m
    for m in (3, 5, 7, 9):
        assert smallest_prime_factor(2**m + 1) == 3


def test_largest_bad_m():
    assert largest_bad_m(27) == 12
    assert largest_bad_m(11) == 0
    assert largest_bad_m(9) == 3
    assert largest_bad_m(3) == 0
    assert largest_bad_m(33) == 15
    with pytest.raises(ValueError):
        largest_bad_m(10)


# -- family A -------------------------------------------------------------------


def test_family_a_q8_k1():
    build = family_a(3, 1)
    assert parameter_tuple(build.fhs) == (9, 56, 2, 8)
    assert build.claims["class_count"] == (56, 56)
    assert build.claims["lambda_match"] == (2, 2)
    assert all_proved(build)
    assert build.report.meets_singleton
    assert build.params == {"family": "A", "q": 8, "n": 9, "m": 3, "k": 1, "p": 3}


def test_family_a_q4_k1():
    build = family_a(2, 1)
    assert parameter_tuple(build.fhs) == (5, 12, 2, 4)
    assert all_proved(build)
    assert min_distance_exhaustive(build.code) == 5 - 3 + 1  # MDS [5, 3, 3]


def test_family_a_q16_k1():
    build = family_a(4, 1)
    assert parameter_tuple(build.fhs) == (17, 240, 2, 16)
    assert all_proved(build)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_family_a_k1_meets_peng_fan(m):
    # (q+1, q(q-1), 2; q): family B's parameters at even q, with pf2 = 2
    build = family_a(m, 1)
    q = 1 << m
    assert parameter_tuple(build.fhs) == (q + 1, q * (q - 1), 2, q)
    assert all_proved(build)
    assert build.report.pf2 == 2 and build.report.meets_peng_fan


def test_family_a_class_count_without_correlation():
    # correlation budget one short of the walk's count, (1 + 14 + 14) rotation
    # classes at L = 1, 4, 5 of N * n = 32,760 rotations: classes still
    # verified, no survey
    build = family_a(3, 2, budget=950_039)
    assert build.fhs.size == 3640
    assert build.claims["class_count"] == (3640, 3640)
    assert build.survey is None
    assert build.claims["lambda_match"] == (4, None)
    assert build.verdicts()["lambda_match"] is None


def test_family_a_k_window():
    with pytest.raises(KOutOfRange):
        family_a(3, 3)  # p = 3 caps k at 2
    with pytest.raises(KOutOfRange):
        family_a(3, 0)
    with pytest.raises(KOutOfRange):
        family_a(1, 1)  # m must exceed 1
    # the rejected k really does break the orbit predicate
    F8 = make_field(2, 3)
    too_far = build_code(9, F8, [4, 5])  # would-be k = 3
    assert not has_full_orbits_outside_constants(too_far)


def test_family_a_params_only():
    build = family_a(4, 8, enum_cap=1)
    assert build.fhs is None
    assert build.claims["class_count"] == ((16**17 - 16) // 17, None)
    assert build.claims["class_count"][0] == 17361641481138401520
    assert build.claims["lambda_match"] == (16, None)
    assert build.verdicts()["class_count"] is None
    assert build.report.meets_singleton
    assert build.survey is None


def test_over_long_family_is_refused_before_its_field(monkeypatch):
    # n = 2^20 + 1 is past the factor table's length cap: the refusal comes
    # after the bound report and before GF(2^20), 131 MiB of tables, or any
    # set of 2^20 residues exists
    monkeypatch.setattr(constructions, "make_field",
                        lambda *_: pytest.fail("the field was built"))
    tracemalloc.start()
    try:
        with pytest.raises(FactorTableTooLarge, match="length cap 131072"):
            family_a(20, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# -- family B -------------------------------------------------------------------


def test_family_b_q5():
    build = family_b(5)
    assert parameter_tuple(build.fhs) == (6, 20, 2, 5)
    assert all_proved(build)
    assert build.report.meets_peng_fan and build.report.meets_singleton
    assert min_distance_exhaustive(build.code) == 4  # [6, 3, 4] MDS


def test_family_b_q9():
    build = family_b(9)
    assert parameter_tuple(build.fhs) == (10, 72, 2, 9)
    assert all_proved(build)
    assert build.report.meets_peng_fan and build.report.meets_singleton


def test_family_b_rejects_bad_q():
    for q in (4, 6, 2, 12):
        with pytest.raises(NotOddPrimePower):
            family_b(q)


# -- family C -------------------------------------------------------------------


def test_family_c_q32_n11_k0():
    build = family_c(32, 11, 0)
    assert parameter_tuple(build.fhs) == (11, 93, 1, 32)
    assert all_proved(build)
    assert build.report.meets_peng_fan and build.report.meets_singleton
    assert min_distance_exhaustive(build.code) == 11 - 2 + 1


def test_family_c_q8_n9_k0():
    build = family_c(8, 9, 0)
    assert parameter_tuple(build.fhs) == (9, 7, 1, 8)
    assert all_proved(build)
    assert build.report.meets_peng_fan and build.report.meets_singleton
    assert build.params == {"family": "C", "q": 8, "n": 9, "k": 0, "M": 3}


def test_family_c_over_budget():
    # the test at L = 1 keys N * n = 1,048,575 rotations, over this budget:
    # the orbits are still counted, and lambda is the claimed one
    build = family_c(32, 11, 1, budget=10**6)
    assert build.claims["class_count"] == ((32**4 - 1) // 11, 95325)
    assert build.claims["class_count"][0] == 95325
    assert build.verdicts()["class_count"] is True
    assert build.survey is None
    assert build.claims["lambda_match"] == (3, None)
    assert build.fhs.max_correlation == 3
    assert build.export_dict()["claims"]["lambda_match"] == {"claimed": "3", "proved": None}
    assert build.report.meets_singleton


def test_family_c_parameter_validation():
    with pytest.raises(NotOddDivisor):
        family_c(32, 15, 0)  # 15 does not divide 33
    with pytest.raises(NotOddDivisor):
        family_c(31, 16, 0)  # even length
    with pytest.raises(KOutOfRange):
        family_c(8, 9, 1)  # M = 3 forces k = 0
    with pytest.raises(NotOddPrimePower):
        family_c(12, 13, 0)


def test_family_c_k_cap_via_bad_m():
    # n = 33: M = 15, so (n-3)/2 - M = 0
    build = family_c(32, 33, 0)
    assert parameter_tuple(build.fhs) == (33, 31, 1, 32)
    assert all_proved(build)
    with pytest.raises(KOutOfRange):
        family_c(32, 33, 1)


def test_unprintable_report_is_refused_before_the_code(monkeypatch):
    # nN = 2557^1262 - 1 has over 4,300 digits: the bound report is
    # refused before any factor table or code is built
    def no_code(*args):
        raise AssertionError("build_code ran before the bound report")

    monkeypatch.setattr(constructions, "build_code", no_code)
    with pytest.raises(BoundTooLarge):
        family_c(2557, 1279, 630, enum_cap=1)


# -- the unit-coset demo ----------------------------------------------------------


def test_family_ding_matches_primality():
    for q, m, n_prime in [(2, 4, False), (3, 3, True), (2, 5, True)]:
        build = family_ding(q, m)
        assert build.verdicts() == {"predicate_matches_primality": True}
        assert build.claims["predicate_matches_primality"] == (n_prime, n_prime)
        assert all_proved(build)
        assert build.fhs is None


def test_family_ding_9_5_passes_the_table_checks():
    # n = 7,381: the table of 1,477 cosets checks itself in near-linear time
    build = family_ding(9, 5)
    assert all_proved(build)
    factors = factor_x_pow_n_minus_one(build.code.field, 7381)
    assert sum(mj.degree for _, mj in factors) == 7381
    assert all(mj.degree == len(c) and mj.leading() == 1 for c, mj in factors)


def test_export_shapes():
    build = family_b(5)
    data = build.export_dict()
    assert data["family"] == "B" and data["q"] == 5 and data["n"] == 6
    # integers are decimal strings, booleans stay booleans
    assert data["claims"] == {
        "class_count": {"claimed": "20", "proved": "20"},
        "class_sizes": {"claimed": True, "proved": True},
        "lambda_match": {"claimed": "2", "proved": "2"},
        "meets_singleton": {"claimed": True, "proved": True},
        "orbit_predicate": {"claimed": True, "proved": True},
    }
    assert "claimed" not in data and "verified" not in data
    ding = family_ding(2, 4).export_dict()
    assert ding["claims"] == {
        "predicate_matches_primality": {"claimed": False, "proved": False}}


# -- the root-of-unity convention ------------------------------------------------

# Generator g and m_1, the minimal polynomial of alpha, of the paper's codes,
# low degree first.  B5's and C512's generators are those of the earlier
# convention, which drew alpha from a log-table field GF(p^(md)); A8k1, A8k2,
# B25 and C32 moved when alpha became a root of the least-packed factor of
# Phi_n.
FROZEN_CODES = {
    "A8k2": (lambda: family_a(3, 2, enum_cap=1), [1, 7, 6, 7, 1], [1, 2, 1]),
    "B5": (lambda: family_b(5, enum_cap=1), [1, 2, 2, 1], [1, 4, 1]),
    "B25": (
        lambda: family_b(25, enum_cap=1),
        [1, 21, 18, 6, 10, 9, 3, 7, 20, 17, 12, 13,
         13, 12, 17, 20, 7, 3, 9, 10, 6, 18, 21, 1],
        [1, 5, 1],
    ),
    "C32": (
        lambda: family_c(32, 11, 0, enum_cap=1),
        [1, 26, 2, 11, 7, 7, 11, 2, 26, 1],
        [1, 3, 1],
    ),
    "C512": (
        lambda: family_c(512, 27, 0, enum_cap=1),
        [1, 491, 27, 167, 351, 410, 323, 88, 287, 89, 168, 385, 504,
         504, 385, 168, 89, 287, 88, 323, 410, 351, 167, 27, 491, 1],
        [1, 26, 1],
    ),
}


def least_packed_phi_factor(field, n, degree):
    """The monic degree-`degree` divisor of Phi_n over `field` with the least
    packed value, by trying every monic polynomial in packed order: it must
    divide x^n - 1 and share no root with x^e - 1 for any e | n below n."""
    q = field.order
    xn1 = Polynomial.x_pow_n_minus_one(field, n)
    lower = [Polynomial.x_pow_n_minus_one(field, e) for e in range(1, n) if n % e == 0]
    for packed in range(q**degree):
        coeffs = [packed // q**i % q for i in range(degree)] + [1]
        f = Polynomial(field, coeffs)
        if (xn1 % f).is_zero() and all(reference_gcd(field, f.coeffs, g.coeffs) == [1]
                                       for g in lower):
            return coeffs
    raise AssertionError("no divisor of Phi_n found")


@pytest.mark.parametrize("name", sorted(FROZEN_CODES))
def test_frozen_root_convention(name):
    build, generator, m1 = FROZEN_CODES[name]
    code = build().code
    assert list(code.generator.coeffs) == generator
    assert code.export_dict()["alpha_minimal_polynomial"] == m1
    assert least_packed_phi_factor(code.field, code.n, len(m1) - 1) == m1


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27, 32])
def test_factor_table_over_extension_fields(q):
    # An oracle for the non-prime fields that sympy cannot factor over: every
    # factor is a monic irreducible of its coset's size, m_1 is the brute-force
    # least-packed factor of Phi_n, and alpha^j is a root of m_j, i.e. m_1(x)
    # divides m_j(x^j).  q^d <= 2^12 bounds the brute-force search.
    F = field_from_order(q)
    x = Polynomial(F, (0, 1))
    lengths = [n for n in range(1, 40)
               if n % F.p and q ** multiplicative_order(q, n) <= 1 << 12]
    for n in lengths:
        factor_of = [None] * n
        for coset, mj in factor_x_pow_n_minus_one(F, n):
            assert mj.leading() == 1 and _ben_or(mj) is not None, (n, coset)
            assert mj.degree == len(coset), (n, coset)
            for j in coset:
                factor_of[j] = mj
        m1 = factor_of[1 % n]
        assert list(m1.coeffs) == least_packed_phi_factor(F, n, m1.degree), n
        x_pows = [pow_mod(x, e, m1) for e in range(n + 1)]
        assert x_pows[n] == x_pows[0], n
        for j, mj in enumerate(factor_of):
            value = Polynomial(F)
            for i, c in enumerate(mj.coeffs):
                value = value + x_pows[i * j % n].scale(c)
            assert value.is_zero(), (n, j)
