"""sympy as an independent oracle for the factor table over prime fields
and over GF(p^m), m >= 2, for the fields GF(p^m) themselves, and for
`is_prime`.

sympy factors x^n - 1 and Phi_n(x) mod p with its own algorithms, so it
shares no code with `factor_x_pow_n_minus_one`, which finds each factor by
Berlekamp-Massey over the powers of a root of unity, nor with the Phi_n
that `root_field` builds when it is irreducible.  Over GF(p^m) every
element is a polynomial in t over GF(p), reduced by sympy's galoistools
modulo the field's modulus, so no arithmetic of fhsforge's tables is used.
"""

import math
from collections import Counter
from functools import lru_cache

import numpy as np
import pytest

from fhsforge.cyclic import factor_x_pow_n_minus_one
from fhsforge.galois import Polynomial, field_from_order, make_field, root_field
from fhsforge.intmath import is_prime, multiplicative_order

sympy = pytest.importorskip("sympy")
gt = pytest.importorskip("sympy.polys.galoistools")
ZZ = sympy.polys.domains.ZZ
# sympy 1.13+ warns from inside factor_list(..., modulus=p), where it sorts
# factors by comparing modular integers
pytestmark = pytest.mark.filterwarnings(
    r"ignore:\s*Ordered comparisons with modular integers:DeprecationWarning"
)

PRIMES = (2, 3, 5, 7, 11, 13)
MAX_N = 60
X = sympy.Symbol("x")


def _lengths(p):
    return [n for n in range(1, MAX_N) if n % p]


def _sympy_factors(expr, p):
    """The monic irreducible factors of `expr` mod p as coefficient tuples,
    low degree first, each repeated by its multiplicity."""
    _, factors = sympy.factor_list(expr, X, modulus=p)
    out = []
    for f, mult in factors:
        coeffs = [int(c) % p for c in reversed(sympy.Poly(f, X).all_coeffs())]
        inv = pow(coeffs[-1], -1, p)
        out += [tuple(c * inv % p for c in coeffs)] * mult
    return out


def _packed(coeffs, p):
    return sum(c * p**i for i, c in enumerate(coeffs))


def _vanishes_at_powers(m1, factor_of, n, p):
    """Whether m1(x) divides factor_of[j](x^j) over GF(p), for each j < n.

    Works in GF(p)[x]/(m1): the powers x^0..x^n are built once by shifting
    and reducing, x^n = 1 there is checked, and then m_j(x^j) is the sum of
    c_i * x^(i*j mod n), a combination of stored vectors."""
    d = len(m1) - 1
    pows = [[1] + [0] * (d - 1)]
    for _ in range(n):
        prev = pows[-1]
        shifted = [0] + prev[:-1]
        pows.append([(a - prev[-1] * b) % p for a, b in zip(shifted, m1)])
    assert pows[n] == pows[0], "m1 does not divide x^n - 1"
    out = []
    for j in range(n):
        acc = [0] * d
        for i, c in enumerate(factor_of[j]):
            acc = [(a + c * b) % p for a, b in zip(acc, pows[i * j % n])]
        out.append(not any(acc))
    return out


@pytest.mark.parametrize("p", PRIMES)
def test_factor_multiset_matches_sympy(p):
    F = make_field(p, 1)
    for n in _lengths(p):
        ours = Counter(mj.coeffs for _, mj in factor_x_pow_n_minus_one(F, n))
        theirs = Counter(_sympy_factors(X**n - 1, p))
        assert ours == theirs, (p, n)


@pytest.mark.parametrize("p", PRIMES)
def test_alpha_labelling_matches_sympy(p):
    # alpha is a root of m_1, the smallest-packed factor of Phi_n mod p, and
    # alpha^j is a root of m_j, the factor of the coset of j, so m_1(x)
    # divides m_j(x^j) for every j
    F = make_field(p, 1)
    for n in _lengths(p):
        table = factor_x_pow_n_minus_one(F, n)
        factor_of = {j: mj.coeffs for coset, mj in table for j in coset}
        m1 = min(_sympy_factors(sympy.cyclotomic_poly(n, X), p),
                 key=lambda f: _packed(f, p))
        assert factor_of[1 % n] == m1, (p, n)
        assert all(_vanishes_at_powers(m1, factor_of, n, p)), (p, n)


# -- factor tables over GF(p^m), m >= 2 ------------------------------------------


@lru_cache(maxsize=None)
def _prime_factors_of_xn1(n, p):
    return tuple(_sympy_factors(X**n - 1, p))


class _SympyField:
    """GF(p^m) as GF(p)[t]/(the field's modulus), each element a galoistools
    list, high degree first: the base-p digits of an element index are its
    coefficients in t, digit i that of t^i."""

    def __init__(self, field):
        self.p, self.m = field.p, field.m
        self.mod = list(field.modulus)[::-1]

    def element(self, index):
        digits = [index // self.p**i % self.p for i in range(self.m)]
        return gt.gf_strip(digits[::-1])

    def mul(self, a, b):
        return gt.gf_rem(gt.gf_mul(a, b, self.p, ZZ), self.mod, self.p, ZZ)

    def sub(self, a, b):
        return gt.gf_sub(a, b, self.p, ZZ)

    def frobenius(self, a):
        return gt.gf_pow_mod(a, self.p, self.mod, self.p, ZZ)

    def poly_mul(self, a, b):
        """The product of two polynomials over GF(q), low degree first."""
        out = [[] for _ in range(len(a) + len(b) - 1)]
        for i, x in enumerate(a):
            for j, y in enumerate(b, i):
                out[j] = gt.gf_add(out[j], self.mul(x, y), self.p, ZZ)
        return out


def _norm_is_one_prime_factor(K, factor, size, n):
    """(1): the norm prod_(i<m) sigma^i(factor) has GF(p) coefficients and
    is M^(m * size / deg M) for exactly one irreducible factor M of x^n - 1
    mod p, by sympy, so the factor is irreducible over GF(q) of degree
    `size`."""
    conj = [K.element(c) for c in factor]
    norm = conj
    for _ in range(K.m - 1):
        conj = [K.frobenius(c) for c in conj]
        norm = K.poly_mul(norm, conj)
    if any(len(c) > 1 for c in norm):
        return False
    norm = [c[0] if c else 0 for c in norm][::-1]
    return sum(
        (K.m * size) % (len(M) - 1) == 0
        and gt.gf_pow(list(M)[::-1], K.m * size // (len(M) - 1), K.p, ZZ) == norm
        for M in _prime_factors_of_xn1(n, K.p)
    ) == 1


def _divides_at_powers(K, m1, factor_of, n):
    """(2): whether m1(x) divides factor_of[j](x^j) over GF(q) for every
    j < n, in GF(q)[x]/(m1): the powers x^0..x^n are built once by a shift
    and a reduction, x^n = 1 there is checked, and m_j(x^j) is then the
    sum of c_i x^(i*j mod n)."""
    d, low = len(m1) - 1, [K.element(c) for c in m1[:-1]]
    pows = [[[1]] + [[]] * (d - 1)]
    for _ in range(n):
        prev = pows[-1]
        shifted = [[]] + prev[:-1]
        pows.append([K.sub(a, K.mul(prev[-1], b)) for a, b in zip(shifted, low)])
    if pows[n] != pows[0]:
        return False
    for j in range(n):
        acc = [[]] * d
        for i, c in enumerate(factor_of[j]):
            c = K.element(c)
            acc = [gt.gf_add(a, K.mul(c, b), K.p, ZZ) for a, b in zip(acc, pows[i * j % n])]
        if any(acc):
            return False
    return True


def check_extension_table(field, n, table):
    """Checks (1)-(3) of the factor table `table` of x^n - 1 over
    `field`, GF(p^m) with m >= 2, by sympy's GF(p) arithmetic alone."""
    K, q = _SympyField(field), field.order
    factor_of = {j: mj.coeffs for coset, mj in table for j in coset}
    for coset, mj in table:
        assert _norm_is_one_prime_factor(K, mj.coeffs, len(coset), n), \
            f"(1) GF({q})/{n}: the norm of the factor of C_{coset[0]}"
    m1 = factor_of[1 % n]
    assert _divides_at_powers(K, m1, factor_of, n), f"(2) GF({q})/{n}: m_1(x) | m_j(x^j)"
    units = [j for j in range(n) if math.gcd(j, n) == 1]
    packed = {j: _packed(factor_of[j], q) for j in units}
    assert min(packed.values()) == packed[1 % n], \
        f"(3) GF({q})/{n}: m_1 is not the least-packed unit factor"


EXTENSION_ORDERS = [4, 8, 9, 16, 25, 27, 32, 49, 64, 81, 121, 125, 128]
EXTENSION_TABLES = [(q, n) for q in EXTENSION_ORDERS for n in range(1, q + 2)
                    if (q + 1) % n == 0] + [(4, 23), (8, 23), (9, 29)]


def test_extension_factor_tables_match_sympy():
    # every prime power q <= 128 with m >= 2 at every n | q + 1, the
    # lengths of families A, B and C (GF(32)/11 among them), and three
    # tables with d > 2: d = 11, 11 and 14
    assert len(EXTENSION_TABLES) == 62 and (32, 11) in EXTENSION_TABLES
    for q, n in EXTENSION_TABLES:
        field = field_from_order(q)
        check_extension_table(field, n, factor_x_pow_n_minus_one(field, n))


# -- the fields GF(p^m), m >= 2, themselves ---------------------------------------


def _primitive(f, p, radicals):
    """Whether the monic f, a galoistools list of degree m over GF(p), is
    irreducible with t of order p^m - 1 modulo it; `radicals` are the
    primes dividing p^m - 1."""
    order = p ** (len(f) - 1) - 1
    return gt.gf_irreducible_p(f, p, ZZ) and all(
        gt.gf_pow_mod([1, 0], order // r, f, p, ZZ) != [1] for r in radicals)


def test_fields_match_sympy():
    # every prime power q <= 2^12 with m >= 2: the modulus is irreducible
    # and primitive, no monic primitive polynomial of degree m packs
    # smaller, and F.exp[k] is t^k modulo it, each by sympy's galoistools
    fields = [next(iter(f.items())) for q in range(4, (1 << 12) + 1)
              if len(f := sympy.factorint(q)) == 1 and max(f.values()) >= 2]
    assert len(fields) == 40
    for p, m in fields:
        F, q = make_field(p, m), p**m
        mod, radicals = list(F.modulus)[::-1], sympy.primefactors(q - 1)
        assert _primitive(mod, p, radicals), q
        for packed in range(q, _packed(F.modulus, p)):
            smaller = [packed // p**i % p for i in range(m, -1, -1)]
            assert not _primitive(smaller, p, radicals), (q, smaller)
        power, want = [1], []
        for _ in range(q - 1):
            want.append(_packed(power[::-1], p))
            power = gt.gf_rem(gt.gf_lshift(power, 1, ZZ), mod, p, ZZ)
        assert F.exp == want, q


def test_root_field_is_phi_n_when_ord_is_phi():
    # when ord_n(q) = phi(n), Phi_n is irreducible over GF(q) and root_field
    # takes it, with beta = y (reduced mod f when d = 1); its integer
    # coefficients mod p lie in the prime subfield, whose element indices
    # are the residues themselves
    pairs = [(q, n) for q in (2, 3, 4, 5, 7, 8, 9) for n in range(1, 31)
             if math.gcd(q, n) == 1 and multiplicative_order(q, n) == sympy.totient(n)]
    assert (5, 6) in pairs and len(pairs) == 52
    for q, n in pairs:
        F = field_from_order(q)
        ext, beta = root_field(F, n)
        phi_n = sympy.Poly(sympy.cyclotomic_poly(n, X), X).all_coeffs()[::-1]
        assert list(ext.modulus.coeffs) == [int(c) % F.p for c in phi_n], (q, n)
        assert np.array_equal(beta, ext.element(Polynomial(F, (0, 1)))), (q, n)


def test_is_prime_matches_sympy():
    # and Ding's n = (8^9 - 1)/7 = 73 * 262657
    for x in [*range(10**4), 19_173_961]:
        assert is_prime(x) == sympy.isprime(x), x
