"""sympy as an independent oracle for the factor table over prime fields,
and for `is_prime`.

sympy factors x^n - 1 and Phi_n(x) mod p with its own algorithms, so it
shares no code with `factor_x_pow_n_minus_one`, which builds each factor as
a product of (x - alpha^j) over a cyclotomic coset, nor with the Phi_n that
`root_field` builds when it is irreducible.
"""

import math
from collections import Counter

import numpy as np
import pytest

from fhsforge.cyclic import factor_x_pow_n_minus_one
from fhsforge.galois import Polynomial, field_from_order, make_field, root_field
from fhsforge.intmath import is_prime, multiplicative_order

sympy = pytest.importorskip("sympy")
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
