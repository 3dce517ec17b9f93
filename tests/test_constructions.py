import pytest

from fhsforge.constructions import (
    family_a,
    family_b,
    family_c,
    family_ding,
    largest_bad_m,
)
from fhsforge.cyclic import (
    build_code,
    has_full_orbits_outside_constants,
    min_distance_exhaustive,
)
from fhsforge.errors import KOutOfRange, NotOddDivisor, NotOddPrimePower
from fhsforge.galois import Polynomial, make_field, poly_gcd
from fhsforge.intmath import smallest_prime_factor


# -- parameter helpers ---------------------------------------------------------


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
    assert build.fhs.parameter_tuple() == (9, 56, 2, 8)
    assert build.claimed_N == 56 and build.claimed_lambda == 2
    assert build.all_claims_hold()
    assert build.survey.method == "exhaustive"
    assert build.report.meets_singleton
    assert build.params.p == 3


def test_family_a_q4_k1():
    build = family_a(2, 1)
    assert build.fhs.parameter_tuple() == (5, 12, 2, 4)
    assert build.all_claims_hold()
    assert min_distance_exhaustive(build.code) == 5 - 3 + 1  # MDS [5, 3, 3]


def test_family_a_q16_k1():
    build = family_a(4, 1)
    assert build.fhs.parameter_tuple() == (17, 240, 2, 16)
    assert build.all_claims_hold()


def test_family_a_class_count_without_correlation():
    # correlation budget too small: classes still verified, no survey
    build = family_a(3, 2, budget=10**6)
    assert build.fhs.size == 3640
    assert build.checks["class_count"] is True
    assert build.survey is None
    assert "lambda_match" not in build.checks


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
    build = family_a(4, 8, params_only=True)
    assert build.fhs is None
    assert build.claimed_N == (16**17 - 16) // 17 == 17361641481138401520
    assert build.claimed_lambda == 16
    assert build.checks["class_count"] is None
    assert build.report.meets_singleton
    assert build.verified_level == "none"


# -- family B -------------------------------------------------------------------


def test_family_b_q5():
    build = family_b(5)
    assert build.fhs.parameter_tuple() == (6, 20, 2, 5)
    assert build.all_claims_hold()
    assert build.report.meets_peng_fan and build.report.meets_singleton
    assert min_distance_exhaustive(build.code) == 4  # [6, 3, 4] MDS


def test_family_b_q9():
    build = family_b(9)
    assert build.fhs.parameter_tuple() == (10, 72, 2, 9)
    assert build.all_claims_hold()
    assert build.report.meets_peng_fan and build.report.meets_singleton


def test_family_b_rejects_bad_q():
    for q in (4, 6, 2, 12):
        with pytest.raises(NotOddPrimePower):
            family_b(q)


# -- family C -------------------------------------------------------------------


def test_family_c_q32_n11_k0():
    build = family_c(32, 11, 0)
    assert build.fhs.parameter_tuple() == (11, 93, 1, 32)
    assert build.all_claims_hold()
    assert build.report.meets_peng_fan and build.report.meets_singleton
    assert min_distance_exhaustive(build.code) == 11 - 2 + 1


def test_family_c_q8_n9_k0():
    build = family_c(8, 9, 0)
    assert build.fhs.parameter_tuple() == (9, 7, 1, 8)
    assert build.all_claims_hold()
    assert build.report.meets_peng_fan and build.report.meets_singleton
    assert build.params.bad_m == 3


def test_family_c_over_budget():
    # the test at L = 1 keys N * n = 1,048,575 rotations, over this budget:
    # the orbits are still counted, and lambda is the claimed one
    build = family_c(32, 11, 1, budget=10**6)
    assert build.claimed_N == (32**4 - 1) // 11 == 95325
    assert build.claimed_lambda == 3
    assert build.checks["class_count"] is True
    assert build.survey is None
    assert "lambda_match" not in build.checks
    assert build.fhs.max_correlation == 3
    assert build.report.lambda_source == "claimed"
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
    assert build.fhs.parameter_tuple() == (33, 31, 1, 32)
    assert build.all_claims_hold()
    with pytest.raises(KOutOfRange):
        family_c(32, 33, 1)


# -- the unit-coset demo ----------------------------------------------------------


def test_family_ding_matches_primality():
    for q, m, n_prime in [(2, 4, False), (3, 3, True), (2, 5, True)]:
        build = family_ding(q, m)
        assert build.checks["predicate_matches_primality"] is True
        assert build.observations["orbit_predicate"] == n_prime
        assert build.all_claims_hold()
        assert build.fhs is None


def test_export_shapes():
    build = family_b(5)
    data = build.export_dict()
    assert data["family"] == "B" and data["q"] == 5 and data["n"] == 6
    assert data["claimed"] == {"N": "20", "lambda": 2}
    assert data["verified"] == {"class_count": True, "correlation": "exhaustive"}
    ding = family_ding(2, 4).export_dict()
    assert ding["claimed"]["N"] is None
    assert ding["verified"]["correlation"] == "none"


# -- the root-of-unity convention ------------------------------------------------

# Generator g and m_1, the minimal polynomial of alpha, of the paper's codes,
# low degree first.  B5's and C512's generators are those of the earlier
# convention, which drew alpha from a log-table field GF(p^(md)); A8k1, A8k2,
# B25 and C32 moved when alpha became a root of the least-packed factor of
# Phi_n.
FROZEN_CODES = {
    "A8k2": (lambda: family_a(3, 2, params_only=True), [1, 7, 6, 7, 1], [1, 2, 1]),
    "B5": (lambda: family_b(5, params_only=True), [1, 2, 2, 1], [1, 4, 1]),
    "B25": (
        lambda: family_b(25, params_only=True),
        [1, 21, 18, 6, 10, 9, 3, 7, 20, 17, 12, 13,
         13, 12, 17, 20, 7, 3, 9, 10, 6, 18, 21, 1],
        [1, 5, 1],
    ),
    "C32": (
        lambda: family_c(32, 11, 0, params_only=True),
        [1, 26, 2, 11, 7, 7, 11, 2, 26, 1],
        [1, 3, 1],
    ),
    "C512": (
        lambda: family_c(512, 27, 0, params_only=True),
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
        if (xn1 % f).is_zero() and all(poly_gcd(f, g).degree == 0 for g in lower):
            return coeffs
    raise AssertionError("no divisor of Phi_n found")


@pytest.mark.parametrize("name", sorted(FROZEN_CODES))
def test_frozen_root_convention(name):
    build, generator, m1 = FROZEN_CODES[name]
    code = build().code
    assert list(code.generator.coeffs) == generator
    assert code.export_dict()["alpha_minimal_polynomial"] == m1
    assert least_packed_phi_factor(code.field, code.n, len(m1) - 1) == m1
