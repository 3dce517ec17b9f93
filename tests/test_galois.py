import itertools
import random

import pytest

from fhsforge.errors import (
    DivisionByZeroPolynomial,
    FieldMismatch,
    FieldTooLarge,
    NonPrimeCharacteristic,
    OrderDoesNotDivide,
    ZeroElement,
)
from fhsforge.galois import (
    FiniteField,
    PolyExtField,
    Polynomial,
    is_irreducible,
    make_field,
    poly_gcd,
    pow_mod,
)

SMALL_ORDERS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                (2, 4), (5, 2), (3, 3), (7, 2), (2, 6)]


def brute_force_order(F: FiniteField, e: int) -> int:
    """Oracle: multiply out powers until the identity appears."""
    acc, r = e, 1
    while acc != 1:
        acc = F.mul(acc, e)
        r += 1
    return r


# -- field construction -------------------------------------------------------


def test_field_orders():
    assert make_field(2, 3).order == 8
    assert make_field(2, 1).order == 2
    assert make_field(5, 2).order == 25


def test_canonical_moduli_are_frozen():
    # Smallest packed monic primitive polynomials; stable across runs.
    assert make_field(2, 3).modulus == (1, 1, 0, 1)       # x^3 + x + 1
    assert make_field(2, 4).modulus == (1, 1, 0, 0, 1)    # x^4 + x + 1
    assert make_field(2, 6).modulus == (1, 1, 0, 0, 0, 0, 1)
    assert make_field(3, 2).modulus == (2, 1, 1)          # x^2 + x + 2
    assert make_field(5, 2).modulus == (2, 1, 1)
    assert make_field(5, 1).modulus == (2, 1)             # x + 2, i.e. x = 3


def test_gf25_primitive_element_order():
    # exhaustive order check over all 24 exponents
    F = make_field(5, 2)
    x = F.exp[1]  # the designated primitive element x
    powers = [F.pow(x, k) for k in range(1, 25)]
    assert powers[-1] == 1
    assert all(p != 1 for p in powers[:-1])


def test_make_field_errors():
    with pytest.raises(NonPrimeCharacteristic):
        make_field(4, 1)
    with pytest.raises(NonPrimeCharacteristic):
        make_field(6, 2)
    with pytest.raises(FieldTooLarge):
        make_field(2, 25)


@pytest.mark.parametrize("p,m", SMALL_ORDERS)
def test_field_axioms_exhaustive(p, m):
    F = make_field(p, m)
    q = F.order
    elems = range(q)
    for a, b in itertools.product(elems, repeat=2):
        assert F.add(a, b) == F.add(b, a)
        assert F.mul(a, b) == F.mul(b, a)
        assert F.add(a, F.neg(a)) == 0
        if b != 0:
            assert F.mul(F.div(a, b), b) == a
    for a, b, c in itertools.product(elems, repeat=3):
        assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


@pytest.mark.parametrize("p,m", SMALL_ORDERS)
def test_log_antilog_bijection(p, m):
    F = make_field(p, m)
    for e in range(1, F.order):
        assert F.exp[F.log[e]] == e
    for i in range(F.order - 1):
        assert F.log[F.exp[i]] == i


def test_element_order_against_brute_force():
    # the n-th root of unity drawn for each n | q - 1 has order exactly n
    for p, m in [(2, 3), (3, 2), (5, 2), (2, 6)]:
        F = make_field(p, m)
        for n in range(1, F.order):
            if (F.order - 1) % n == 0:
                assert brute_force_order(F, F.nth_root_of_unity(n)) == n


def test_nth_root_of_unity():
    F64 = make_field(2, 6)
    beta = F64.nth_root_of_unity(9)
    assert brute_force_order(F64, beta) == 9
    assert F64.pow(beta, 9) == 1
    assert make_field(2, 3).nth_root_of_unity(1) == 1
    with pytest.raises(OrderDoesNotDivide):
        make_field(2, 3).nth_root_of_unity(5)


def test_zero_division_and_inverse():
    F = make_field(3, 2)
    with pytest.raises(ZeroElement):
        F.inv(0)
    assert F.pow(0, 0) == 1
    assert F.pow(0, 5) == 0
    with pytest.raises(ZeroElement):
        F.pow(0, -1)


# -- polynomials --------------------------------------------------------------


def test_divmod_geometric_sum():
    F8 = make_field(2, 3)
    xn1 = Polynomial.x_pow_n_minus_one(F8, 9)
    x_minus_1 = Polynomial(F8, (1, 1))
    quot, rem = divmod(xn1, x_minus_1)
    assert rem.is_zero()
    assert quot == Polynomial(F8, (1,) * 9)


def test_divmod_identity_random():
    rng = random.Random(7)
    for p, m in [(2, 3), (5, 1), (3, 2)]:
        F = make_field(p, m)
        for _ in range(200):
            a = Polynomial(F, [rng.randrange(F.order) for _ in range(rng.randrange(9))])
            b = Polynomial(F, [rng.randrange(F.order) for _ in range(rng.randrange(1, 6))])
            if b.is_zero():
                continue
            s, r = divmod(a, b)
            assert s * b + r == a
            assert r.is_zero() or r.degree < b.degree


def test_xn_minus_one_squarefree():
    # gcd with the derivative is 1 whenever gcd(n, q) = 1
    for p, m, n in [(2, 3, 9), (5, 1, 6), (3, 2, 8)]:
        F = make_field(p, m)
        f = Polynomial.x_pow_n_minus_one(F, n)
        derivative = Polynomial(
            F, [F.mul(c, i % F.p) for i, c in enumerate(f.coeffs)][1:]
        )
        assert poly_gcd(f, derivative).coeffs == (1,)


def test_poly_mul_degree_and_eval():
    F = make_field(5, 1)
    a = Polynomial(F, (1, 2, 3))
    b = Polynomial(F, (4, 1))
    assert (a * b).degree == a.degree + b.degree

    def evaluate(poly, e):
        acc = 0
        for c in reversed(poly.coeffs):
            acc = F.add(F.mul(acc, e), c)
        return acc

    for e in range(5):
        assert evaluate(a * b, e) == F.mul(evaluate(a, e), evaluate(b, e))


def test_poly_field_mismatch_and_zero_division():
    a = Polynomial(make_field(2, 3), (1, 1))
    b = Polynomial(make_field(2, 2), (1, 1))
    with pytest.raises(FieldMismatch):
        _ = a + b
    with pytest.raises(DivisionByZeroPolynomial):
        divmod(a, Polynomial.zero(a.field))


def test_pow_mod_matches_repeated_multiplication():
    F = make_field(3, 1)
    x = Polynomial(F, (0, 1))
    mod = Polynomial(F, (1, 0, 2, 1))
    acc = Polynomial.one(F)
    for e in range(12):
        assert pow_mod(x, e, mod) == acc % mod
        acc = acc * x


def test_is_irreducible_small():
    F2 = make_field(2, 1)
    assert is_irreducible(Polynomial(F2, (1, 1, 1)))        # x^2 + x + 1
    assert not is_irreducible(Polynomial(F2, (1, 0, 1)))    # (x+1)^2
    assert is_irreducible(Polynomial(F2, (1, 1, 0, 1)))
    F5 = make_field(5, 1)
    assert not is_irreducible(Polynomial(F5, (1, 0, 1)))    # roots +-2
    assert is_irreducible(Polynomial(F5, (2, 0, 1)))


# -- extensions ---------------------------------------------------------------


@pytest.mark.parametrize("p,m,d", [(2, 3, 2), (5, 1, 2), (3, 2, 2), (2, 2, 3)])
def test_poly_ext_embed_is_homomorphism(p, m, d):
    base = make_field(p, m)
    ext = PolyExtField(base, d)
    emb = [ext.embed(c) for c in range(base.order)]
    assert emb[0] == ext.zero and emb[1] == ext.one
    assert len(set(emb)) == base.order
    for a, b in itertools.product(range(base.order), repeat=2):
        assert emb[base.add(a, b)] == ext.add(emb[a], emb[b])
        assert emb[base.mul(a, b)] == ext.mul(emb[a], emb[b])


def test_poly_ext_field_axioms_random():
    rng = random.Random(11)
    for base_pm, d in [((2, 1), 28), ((3, 1), 4), ((2, 2), 5)]:
        base = make_field(*base_pm)
        E = PolyExtField(base, d)
        rand = lambda: tuple(rng.randrange(base.order) for _ in range(d))
        for _ in range(40):
            a, b, c = rand(), rand(), rand()
            assert E.add(a, b) == E.add(b, a)
            assert E.mul(a, b) == E.mul(b, a)
            assert E.mul(E.mul(a, b), c) == E.mul(a, E.mul(b, c))
            assert E.mul(a, E.add(b, c)) == E.add(E.mul(a, b), E.mul(a, c))
            assert E.add(a, E.neg(a)) == E.zero
        assert E.mul(E.one, rand()) != E.zero or True  # smoke only


def test_poly_ext_root_of_unity():
    E = PolyExtField(make_field(2, 1), 28)
    alpha = E.element_of_order(29)
    acc = alpha
    seen = {alpha}
    for _ in range(27):
        acc = E.mul(acc, alpha)
        seen.add(acc)
    assert E.mul(acc, alpha) == E.one
    assert len(seen) == 28
    with pytest.raises(OrderDoesNotDivide):
        E.element_of_order(30)


def test_poly_ext_embed_round_trip():
    base = make_field(3, 1)
    E = PolyExtField(base, 4)
    for c in range(base.order):
        assert E.to_base(E.embed(c)) == c
    assert E.to_base((1, 2, 0, 0)) is None
