"""sympy as an independent oracle for the factor table over prime fields.

sympy factors x^n - 1 and Phi_n(x) mod p with its own algorithms, so it
shares no code with `factor_x_pow_n_minus_one`, which builds each factor as
a product of (x - alpha^j) over a cyclotomic coset.
"""

from collections import Counter

import pytest

from fhsforge.cyclic import factor_x_pow_n_minus_one
from fhsforge.galois import make_field

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
        factor_of = {j: mj.coeffs for coset, mj in table for j in coset.members}
        m1 = min(_sympy_factors(sympy.cyclotomic_poly(n, X), p),
                 key=lambda f: _packed(f, p))
        assert factor_of[1 % n] == m1, (p, n)
        assert all(_vanishes_at_powers(m1, factor_of, n, p)), (p, n)
