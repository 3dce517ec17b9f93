import itertools
import math
import operator
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fhsforge import cyclic, galois
from fhsforge.errors import (
    DivisionByZeroPolynomial,
    FieldMismatch,
    FieldTooLarge,
    NonPrimeCharacteristic,
    ZeroElement,
)
from fhsforge.galois import (
    ExtensionField,
    FiniteField,
    Polynomial,
    _ben_or,
    _canonical_modulus,
    _coprime_minus_x,
    _euclid,
    _product,
    _reduce,
    berlekamp_massey,
    field_from_order,
    make_field,
    root_field,
)
from fhsforge.intmath import is_prime, multiplicative_order, prime_factors, totient

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


def test_prime_field_root_matches_the_order_rule(monkeypatch):
    # the radical test picks the least c with p - c primitive, as the O(p)
    # multiplicative-order rule does, for every prime below 2^13; the cache
    # is emptied per prime, so the fields are not all held at once
    monkeypatch.setattr(galois, "_FIELD_CACHE", {})
    primes = [p for p in range(2, 1 << 13) if is_prime(p)]
    assert len(primes) == 1028
    for p in primes:
        c0 = next(c for c in range(1, p) if multiplicative_order(p - c, p) == p - 1)
        assert make_field(p, 1).modulus == (c0, 1), p
        galois._FIELD_CACHE.clear()


def test_gf25_primitive_element_order():
    # exhaustive order check over all 24 exponents
    F = make_field(5, 2)
    x = F.exp[1]  # the designated primitive element x
    powers = list(itertools.accumulate([x] * 24, F.mul))  # x^1, ..., x^24
    assert powers[-1] == 1
    assert all(p != 1 for p in powers[:-1])


def test_make_field_errors():
    with pytest.raises(NonPrimeCharacteristic):
        make_field(4, 1)
    with pytest.raises(NonPrimeCharacteristic):
        make_field(6, 2)
    with pytest.raises(FieldTooLarge):
        make_field(2, 25)
    with pytest.raises(FieldTooLarge):  # refused before 2^(10^14) is formed
        make_field(2, 10**14)


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
            assert F.mul(F.mul(a, F.inv(b)), b) == a
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
    # for each n | q - 1, root_field's f has degree 1 and beta is a constant of
    # GF(q)[y]/(f) of order exactly n
    for p, m in [(2, 3), (3, 2), (5, 2), (2, 6), (13, 1)]:
        F = make_field(p, m)
        for n in range(1, F.order):
            if (F.order - 1) % n == 0:
                ext, beta = root_field(F, n)
                assert ext.d == 1
                (b,) = ext.coefficients(beta)
                assert b != 0 and brute_force_order(F, b) == n


def test_nth_root_of_unity():
    # beta of every n < 30 coprime to q over small fields, against its order
    # counted by multiplying out its powers modulo f
    for p, m in [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2)]:
        F = make_field(p, m)
        one = Polynomial.one(F)
        for n in range(1, 30):
            if math.gcd(n, F.order) != 1:
                continue
            ext, beta = root_field(F, n)
            f, b = ext.modulus, Polynomial(F, ext.coefficients(beta))
            assert f.degree == multiplicative_order(F.order, n) and f.leading() == 1
            assert _ben_or(f) is not None
            acc, order = b, 1
            while acc != one:
                acc, order = acc * b % f, order + 1
            assert order == n, (p, m, n)


def test_zero_division_and_inverse():
    F = make_field(3, 2)
    with pytest.raises(ZeroElement):
        F.inv(0)


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
        assert reference_gcd(F, f.coeffs, derivative.coeffs) == [1]


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
        divmod(a, Polynomial(a.field))


# -- the row kernel against one F.add and F.mul per coefficient ---------------


def reference_product(F, a, b) -> list:
    """Oracle: the scalar loop `_product` ran before the row kernel, one
    `F.add(., F.mul(., .))` per pair of nonzero coefficients."""
    if not a or not b:
        return []
    add, mul = F.add, F.mul
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b, i):
            if y:
                out[j] = add(out[j], mul(x, y))
    return out


def reference_reduce(F, rem: list, divisor) -> list:
    """Oracle: the scalar loop `_reduce` ran before the row kernel, long
    division of `rem` by `divisor` in place with one `F.add(., F.mul(., .))`
    per coefficient of each row."""
    db = len(divisor) - 1
    inv_lead = F.inv(divisor[-1])
    quot = [0] * max(len(rem) - db, 0)
    add, mul, lower = F.add, F.mul, divisor[:-1]
    for i in range(len(rem) - db - 1, -1, -1):
        c = mul(rem[i + db], inv_lead)
        if c == 0:
            continue
        quot[i] = c
        c = F.neg(c)
        for j, b in enumerate(lower, i):
            rem[j] = add(rem[j], mul(c, b))
    del rem[db:]
    while rem and rem[-1] == 0:
        rem.pop()
    return quot


def reference_berlekamp_massey(F, seq) -> list:
    """Oracle: the scalar `berlekamp_massey` of before the row kernel, each
    discrepancy a dot product and each update a loop of
    `F.sub(., F.mul(., .))`: the minimal polynomial's coefficients, low
    degree first."""
    c, b = [1], [1]
    length, shift, last = 0, 1, 1
    for k, s in enumerate(seq):
        disc = s
        for i in range(1, length + 1):
            disc = F.add(disc, F.mul(c[i], seq[k - i]))
        if disc == 0:
            shift += 1
            continue
        coef, prev = F.mul(disc, F.inv(last)), list(c)
        c += [0] * (len(b) + shift - len(c))
        for i, bi in enumerate(b):
            c[i + shift] = F.sub(c[i + shift], F.mul(coef, bi))
        if 2 * length <= k:
            length, b, last, shift = k + 1 - length, prev, disc, 1
            c += [0] * (length + 1 - len(c))
        else:
            shift += 1
    return c[: length + 1][::-1]


def reference_gcd(F, a, b) -> list:
    """Oracle: the monic gcd of two coefficient sequences with no trailing
    zeros, by Euclid on `reference_reduce`, so sharing no code with
    `_euclid` or `_row`: empty when both are zero."""
    a, b = list(a), list(b)
    while b:
        reference_reduce(F, a, b)
        a, b = b, a
    return [F.mul(c, F.inv(a[-1])) for c in a]


# every branch of the row kernel: XOR for p = 2, mod p for m = 1, Zech's
# logarithm for odd p^m; GF(2) has a log table of one entry
ROW_FIELDS = [(2, 1), (2, 3), (2, 4), (3, 1), (5, 1), (13, 1), (3, 2), (5, 2), (3, 3)]
row_fields = st.sampled_from(ROW_FIELDS).map(lambda pm: make_field(*pm))
ROW_SETTINGS = settings(max_examples=150, deadline=None)


def coefficients(F, min_size=0, max_size=12, leading=False):
    """Coefficient lists over F, zero in about half the places; with
    `leading`, the last coefficient is nonzero and need not be 1."""
    element = st.one_of(st.just(0), st.integers(0, F.order - 1))
    body = st.lists(element, min_size=min_size, max_size=max_size)
    if not leading:
        return body
    return st.tuples(body, st.integers(1, F.order - 1)).map(lambda t: t[0] + [t[1]])


@ROW_SETTINGS
@given(st.data())
def test_row_product_matches_the_reference(data):
    F = data.draw(row_fields)
    a, b = data.draw(coefficients(F)), data.draw(coefficients(F))
    assert _product(F, a, b) == reference_product(F, a, b)


@ROW_SETTINGS
@given(st.data())
def test_row_division_matches_the_reference(data):
    F = data.draw(row_fields)
    rem = data.draw(coefficients(F, max_size=20))
    divisor = data.draw(coefficients(F, max_size=9, leading=True))
    want = list(rem)
    assert _reduce(F, rem, divisor) == reference_reduce(F, want, divisor)
    assert rem == want


@ROW_SETTINGS
@given(st.data())
def test_euclid_chain_of_degree_one_quotients(data):
    # r_(i-1) = q_i r_i + r_(i+1) with every q_i linear, from a unit r_k:
    # Euclid on (r_0, r_1) takes k steps, each a quotient of degree 1 whose
    # remainder is the next r, and ends at r_k
    F = data.draw(row_fields)
    unit, steps = data.draw(st.integers(1, F.order - 1)), data.draw(st.integers(1, 12))
    chain = [[], [unit]]
    for _ in range(steps):
        q = data.draw(coefficients(F, min_size=1, max_size=1, leading=True))
        high = reference_product(F, q, chain[-1])
        for j, c in enumerate(chain[-2]):
            high[j] = F.add(high[j], c)
        chain.append(high)
    for high, low, nxt in zip(chain[:1:-1], chain[-2:0:-1], chain[-3::-1]):
        rem, want = list(high), list(high)
        quot = _reduce(F, rem, low)
        assert quot == reference_reduce(F, want, low) and len(quot) == 2
        assert rem == want == nxt
    assert _euclid(F, list(chain[-1]), chain[-2]) == [unit]


@ROW_SETTINGS
@given(st.data())
def test_list_coprimality_matches_the_reference_gcd(data):
    # gcd(s - x, f) = 1 on coefficient lists, as Ben-Or and Rabin ask it,
    # against `reference_gcd`; half the f share the factor s - x by
    # construction
    F = data.draw(row_fields)
    s = data.draw(coefficients(F, max_size=8))
    if data.draw(st.booleans()):
        f = data.draw(coefficients(F, min_size=2, max_size=9, leading=True))
    else:
        cofactor = data.draw(coefficients(F, min_size=1, max_size=4, leading=True))
        f = _product(F, (Polynomial(F, s) - Polynomial(F, (0, 1))).coeffs, cofactor)
    f = Polynomial(F, f)
    if f.degree < max(2, len(Polynomial(F, s).coeffs)):
        return
    want = reference_gcd(F, (Polynomial(F, s) - Polynomial(F, (0, 1))).coeffs,
                         f.coeffs) == [1]
    assert _coprime_minus_x(F, list(Polynomial(F, s).coeffs), f.coeffs) == want


@ROW_SETTINGS
@given(st.data())
def test_berlekamp_massey_matches_the_reference(data):
    F = data.draw(row_fields)
    seq = data.draw(coefficients(F, max_size=16))
    want = Polynomial(F, reference_berlekamp_massey(F, seq))
    assert berlekamp_massey(F, seq) == want


def test_row_kernel_calls_no_scalar_arithmetic(monkeypatch):
    # no loop of the division, the product or Berlekamp-Massey calls the
    # field's scalar add, sub or mul
    F = make_field(3, 2)
    a, b = [1, 0, 5, 7, 2, 8], [3, 0, 4, 1]
    want_rem = list(a)
    want = (reference_product(F, a, b), reference_reduce(F, want_rem, b),
            tuple(reference_berlekamp_massey(F, a)))
    for name in ("add", "sub", "mul"):
        monkeypatch.setattr(FiniteField, name, lambda *_, _n=name: pytest.fail(_n))
    rem = list(a)
    got = (_product(F, a, b), _reduce(F, rem, b), berlekamp_massey(F, a).coeffs)
    assert got == want and rem == want_rem


def pow_mod(base: Polynomial, e: int, mod: Polynomial) -> Polynomial:
    """Oracle: base**e mod `mod`, e >= 0, by square and multiply on
    `Polynomial`s alone, with no kernel."""
    result, square = Polynomial.one(base.field) % mod, base % mod
    while e:
        if e & 1:
            result = result * square % mod
        e >>= 1
        if e:
            square = square * square % mod
    return result


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
    assert _ben_or(Polynomial(F2, (1, 1, 1))) is not None  # x^2 + x + 1
    assert _ben_or(Polynomial(F2, (1, 0, 1))) is None  # (x+1)^2
    assert _ben_or(Polynomial(F2, (1, 1, 0, 1))) is not None
    F5 = make_field(5, 1)
    assert _ben_or(Polynomial(F5, (1, 0, 1))) is None  # roots +-2
    assert _ben_or(Polynomial(F5, (2, 0, 1))) is not None


def test_linear_f_is_accepted_with_no_power(monkeypatch):
    # every monic f of degree 1, x among them, is irreducible: the kernel
    # comes with no power and no gcd, where gcd(x^q - x, f) would be f.
    # `_euclid` is the library's one gcd loop
    fields = [field_from_order(q) for q in (2, 5, 9)]
    monkeypatch.setattr(galois, "_euclid", lambda *_: pytest.fail("a gcd ran"))
    monkeypatch.setattr(ExtensionField, "pow", lambda *_: pytest.fail("pow ran"))
    for F in fields:
        for c in range(F.order):
            ext = _ben_or(Polynomial(F, (c, 1)))
            assert ext is not None and ext.modulus.coeffs == (c, 1)


def gauss_count(q: int, d: int) -> int:
    """The number of monic irreducibles of degree d over GF(q):
    (1/d) sum_(e | d) mu(e) q^(d/e), over the squarefree e."""
    radicals = prime_factors(d)
    total = sum((-1) ** k * q ** (d // math.prod(rs))
                for k in range(len(radicals) + 1)
                for rs in itertools.combinations(radicals, k))
    return total // d


def nonzero_at_zero(F: FiniteField, d: int) -> list[Polynomial]:
    """Every monic f of degree d over F with f(0) != 0, in packed order."""
    q = F.order
    return [Polynomial.from_packed(F, q**d + low) for low in range(q**d) if low % q]


def ben_or_counts(max_size: int, orders=(2, 3, 4, 5), on_kernel=False):
    """{(q, d): how many f of `nonzero_at_zero` Ben-Or accepts}, for each q
    in `orders` and every d with q^d <= max_size: d > q, where Ben-Or's
    first step is the root test, or 2 <= d <= q when `on_kernel`, where it
    takes x^q on the kernel.  Each count should be Gauss's."""
    def degrees(q):
        return range(2, q + 1) if on_kernel else range(q + 1, max_size.bit_length())

    return {(q, d): sum(_ben_or(f) is not None for f in nonzero_at_zero(F, d))
            for q in orders for F in [field_from_order(q)]
            for d in degrees(q) if q**d <= max_size}


def ben_or_on(monkeypatch, candidates):
    """[(accepted, root_rejected)] of `_ben_or` on each candidate, where
    root_rejected means it refused before building any kernel; fails if a
    candidate so refused runs a gcd, that is, calls `_euclid`."""
    calls, out = [], []
    with monkeypatch.context() as patch:
        for name in ("_euclid", "ExtensionField"):
            real = getattr(galois, name)
            patch.setattr(galois, name,
                          lambda *a, _name=name, _real=real: calls.append(_name) or _real(*a))
        for f in candidates:
            calls.clear()
            accepted = _ben_or(f) is not None
            root_rejected = "ExtensionField" not in calls
            assert not (root_rejected and calls), (f, calls)
            out.append((accepted, root_rejected))
    return out


def has_root_by_gcd(f: Polynomial) -> bool:
    x = Polynomial(f.field, (0, 1))
    return reference_gcd(f.field, (pow_mod(x, f.field.order, f) - x).coeffs,
                         f.coeffs) != [1]


def test_root_test_is_the_first_gcd_when_q_below_d(monkeypatch):
    # every monic f with f(0) != 0 of degree d > q on a small grid: 1,978
    # polynomials.  When q < d, Ben-Or's first step evaluates f on GF(q)*;
    # it refuses f, with no kernel and no gcd, exactly when
    # gcd(x^q - x, f) != 1, and Ben-Or accepts exactly Gauss's count
    polys = 0
    for q, degrees in [(2, range(3, 10)), (3, range(4, 7)), (4, [5])]:
        F = field_from_order(q)
        for d in degrees:
            candidates = nonzero_at_zero(F, d)
            verdicts = ben_or_on(monkeypatch, candidates)
            assert [rejected for _, rejected in verdicts] == [
                has_root_by_gcd(f) for f in candidates], (q, d)
            assert sum(accepted for accepted, _ in verdicts) == gauss_count(q, d), (q, d)
            polys += len(candidates)
    assert polys == 1978


def test_ben_or_counts_every_irreducible_below_2_to_the_10():
    # CI runs the same count up to q^d <= 2^16: 26 (q, d), 2.0 * 10^5 polynomials
    got = ben_or_counts(2**10)
    assert got == {key: gauss_count(*key) for key in got}
    assert sorted(got) == [(2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (2, 8), (2, 9),
                           (2, 10), (3, 4), (3, 5), (3, 6), (4, 5)]


def test_ben_or_counts_every_irreducible_of_degree_at_most_q():
    # the first step takes x^q on the kernel when q >= d: every monic f
    # with f(0) != 0 of degree 2 <= d <= q and q^d <= 2^10, 2,458
    # polynomials in 15 (q, d).  CI runs q in {4, 5, 7, 8, 9, 11, 13, 16}
    # up to q^d <= 2^16: 28 (q, d), 220,670 polynomials
    got = ben_or_counts(2**10, (2, 3, 4, 5, 7, 8, 9), on_kernel=True)
    assert got == {key: gauss_count(*key) for key in got}
    assert len(got) == 15
    assert sum((q - 1) * q ** (d - 1) for q, d in got) == 2458


def test_root_test_on_the_stream_of_degree_14_over_gf9(monkeypatch):
    # the first 40 candidates of the (9, 29) table's stream search: the
    # 27th is the stream field, and 18 of the 26 before it have a root
    candidates = list(itertools.islice(galois._stream(make_field(3, 2), 14), 40))
    verdicts = ben_or_on(monkeypatch, candidates)
    rejected = [root_rejected for _, root_rejected in verdicts]
    assert rejected == [has_root_by_gcd(f) for f in candidates]
    assert [accepted for accepted, _ in verdicts].index(True) == 26
    assert sum(rejected[:26]) == 18


def test_stream_field_below_its_degree_needs_no_pow_mod(monkeypatch):
    # the table of x^29 - 1 over GF(9), d = 14, runs Ben-Or's first step as
    # the root test, with its x^9 free; a first step with q >= d takes x^q
    # on the kernel, so the library has no square and multiply on
    # `Polynomial`s at all
    assert not hasattr(galois, "pow_mod")
    F = make_field(3, 2)
    monkeypatch.setattr(galois, "_STREAM_FIELDS", {})
    cyclic._factor_table.cache_clear()
    factors = cyclic.factor_x_pow_n_minus_one(F, 29)
    assert {c[0]: list(mj.coeffs) for c, mj in factors} == {
        0: [2, 1],
        1: [1, 4, 1, 5, 6, 2, 5, 5, 5, 2, 6, 5, 1, 4, 1],
        2: [1, 6, 1, 7, 4, 2, 7, 7, 7, 2, 4, 7, 1, 6, 1],
    }


# -- extensions GF(q)[y]/(f) ----------------------------------------------------


def test_poly_ext_field_axioms_random():
    # GF(q^d) as polynomials over GF(q) reduced mod root_field's f, d = ord_n(q)
    rng = random.Random(11)
    for base_pm, n, d in [((2, 1), 29, 28), ((3, 1), 5, 4), ((2, 2), 11, 5)]:
        base = make_field(*base_pm)
        f = root_field(base, n)[0].modulus
        assert f.degree == d and f.leading() == 1 and _ben_or(f) is not None
        one = Polynomial.one(base)
        rand = lambda: Polynomial(base, [rng.randrange(base.order) for _ in range(d)])
        for _ in range(40):
            a, b, c = rand(), rand(), rand()
            assert a + b == b + a
            assert a * b % f == b * a % f
            assert (a * b % f) * c % f == a * (b * c % f) % f
            assert a * (b + c) % f == (a * b + a * c) % f
            assert (a + -a).is_zero()
            if not a.is_zero():  # a^(q^d - 2) is the inverse in a field
                assert a * pow_mod(a, base.order**d - 2, f) % f == one


def test_poly_ext_root_of_unity():
    F2 = make_field(2, 1)
    ext, beta = root_field(F2, 29)
    f, alpha = ext.modulus, Polynomial(F2, ext.coefficients(beta))
    assert f.degree == 28
    acc = alpha
    seen = {alpha}
    for _ in range(27):
        acc = acc * alpha % f
        seen.add(acc)
    assert acc * alpha % f == Polynomial.one(F2)
    assert len(seen) == 28


# (p, m, n): the low coefficients of root_field's f, below y^d
FROZEN_ROOT_FIELDS = {
    (2, 1, 29): [1] * 28,  # Phi_29, since ord_29(2) = 28 = phi(29)
    (2, 3, 9): [7, 5],
    (3, 1, 13): [2, 2, 0],
    (5, 2, 26): [4, 14],
    (2, 10, 13): [227, 764, 1009, 343, 909, 603],
    (2, 20, 17): [19127, 909129],
}


@pytest.mark.parametrize("p,m,n", sorted(FROZEN_ROOT_FIELDS))
def test_root_field_is_frozen(p, m, n):
    # the stream is keyed by (p, m, d) through SHAKE-256 alone, and f is its
    # first irreducible candidate, so f is the same for every n of the same
    # degree and on every run, Python version and hash seed
    f = root_field(make_field(p, m), n)[0].modulus
    assert list(f.coeffs[:-1]) == FROZEN_ROOT_FIELDS[p, m, n]
    assert f.leading() == 1


@pytest.mark.parametrize("p,m,n", [(2, 1, 29), (3, 1, 5), (5, 1, 6), (2, 1, 5),
                                   (2, 3, 5)])
def test_root_field_checks_phi_n(monkeypatch, p, m, n):
    # Phi_n is not taken on the theorem alone: a reducible stand-in of
    # degree d, or an irreducible one whose root y has order 15 (x^4 + x + 1
    # over GF(2) or GF(8)), fails the field or the order test and raises
    # rather than falling through to the stream
    base = make_field(p, m)
    d = multiplicative_order(base.order, n)
    reducible = Polynomial.x_pow_n_minus_one(base, d)
    monkeypatch.setattr(galois, "_cyclotomic", lambda *_: reducible)
    with pytest.raises(AssertionError, match=f"Phi_{n}"):
        root_field(base, n)
    if d == 4 and p == 2:
        order_15 = Polynomial(base, (1, 1, 0, 0, 1))
        monkeypatch.setattr(galois, "_cyclotomic", lambda *_: order_15)
        with pytest.raises(AssertionError, match=f"Phi_{n}"):
            root_field(base, n)


def test_monomial_rabin_decides_phi_n():
    # Rabin's test on monomials calls Phi_n irreducible exactly when
    # ord_n(q) = phi(n), and exactly when Ben-Or does, for every n <= 60
    # coprime to q
    pairs = 0
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13):
        F = field_from_order(q)
        for n in range(1, 61):
            if math.gcd(n, q) != 1:
                continue
            phi = galois._cyclotomic(F, n, prime_factors(n))
            proved = galois._monomial_rabin(phi, n)
            assert proved == (multiplicative_order(q, n) == totient(n)), (q, n)
            assert proved == (_ben_or(phi) is not None), (q, n)
            pairs += 1
    assert pairs == 381
    # Phi_5 over GF(3) is irreducible of degree 4 = ord_10(3) and divides
    # x^10 - 1, but its root has order 5, not 10
    assert not galois._monomial_rabin(galois._cyclotomic(make_field(3, 1), 5, [5]), 10)


def test_second_length_of_a_degree_runs_no_ben_or(monkeypatch):
    # the stream field of degree d is kept per (p, m, d): n = 21 and n = 63
    # both have d = ord_n(2) = 6 < phi(n), and the second takes the kept
    # kernel, with no Ben-Or and no kernel built
    monkeypatch.setattr(galois, "_STREAM_FIELDS", {})
    F = make_field(2, 1)
    kept = root_field(F, 21)[0]

    def refuse(*_):
        raise AssertionError("Ben-Or ran or a kernel was built for a kept degree")

    monkeypatch.setattr(galois, "_ben_or", refuse)
    monkeypatch.setattr(galois, "ExtensionField", refuse)
    ext, beta = root_field(F, 63)
    assert ext is kept and galois._has_order(ext, beta, 63)


def test_element_search_moves_past_y():
    # in these stream fields y^((q^d - 1)/n) has order below n, so beta is a
    # power of a later element, of order n by brute force
    for p, m, n in [(2, 3, 9), (5, 2, 26)]:
        F = make_field(p, m)
        ext, beta = root_field(F, n)
        f, b = ext.modulus, Polynomial(F, ext.coefficients(beta))
        y_power = pow_mod(Polynomial(F, (0, 1)), (F.order**ext.d - 1) // n, f)
        assert b != y_power
        acc, order = b, 1
        while acc != Polynomial.one(F):
            acc, order = acc * b % f, order + 1
        assert order == n


def test_canonical_modulus_generalises_the_field_search():
    # the primitive modulus of every table field with m > 1
    for p, m in [(2, 4), (3, 2), (5, 2), (2, 6)]:
        base = make_field(p, 1)
        assert _canonical_modulus(base, m).coeffs == make_field(p, m).modulus


def _lfsr(f, terms):
    """`terms` outputs of the LFSR with characteristic polynomial f from the
    state (1, 0, ..., 0): s_(k+d) = -(c_0 s_k + ... + c_(d-1) s_(k+d-1))."""
    F, d = f.field, f.degree
    seq = [1] + [0] * (d - 1)
    while len(seq) < terms:
        acc = 0
        for c, s in zip(f.coeffs, seq[-d:]):
            acc = F.add(acc, F.mul(c, s))
        seq.append(F.neg(acc))
    return seq[:terms]


@pytest.mark.parametrize("p,m,max_degree", [(2, 1, 4), (3, 1, 4), (2, 2, 3), (3, 2, 3)])
def test_berlekamp_massey_recovers_irreducibles(p, m, max_degree):
    F = make_field(p, m)
    q = F.order
    count = 0
    for d in range(1, max_degree + 1):
        for packed in range(q**d):
            f = Polynomial.from_packed(F, packed + q**d)
            if _ben_or(f) is not None:
                assert berlekamp_massey(F, _lfsr(f, 2 * d)) == f, f
                count += 1
    assert count >= max_degree  # at least one irreducible of every degree


def _generates(f, seq):
    """Whether the recurrence with characteristic polynomial f yields seq."""
    F, d = f.field, f.degree
    for k in range(d, len(seq)):
        acc = 0
        for c, s in zip(f.coeffs, seq[k - d:k + 1]):
            acc = F.add(acc, F.mul(c, s))
        if acc:
            return False
    return True


@pytest.mark.parametrize("p,m,terms", [(2, 1, 8), (3, 1, 5), (2, 2, 4)])
def test_berlekamp_massey_is_the_shortest_recurrence(p, m, terms):
    # every sequence of `terms` symbols, against all shorter recurrences
    F = make_field(p, m)
    q = F.order
    for seq in itertools.product(range(q), repeat=terms):
        f = berlekamp_massey(F, list(seq))
        assert f.leading() == 1 and _generates(f, seq), seq
        assert not any(
            _generates(Polynomial.from_packed(F, packed + q**d), seq)
            for d in range(f.degree) for packed in range(q**d)
        ), seq


# -- table construction and constant-time addition -----------------------------


def _scalar_antilog(p, m, modulus):
    """Reference: step x^k by one multiplication by x per element."""
    tail = modulus[:m]
    weights = [p**i for i in range(m)]
    coeffs = [1] + [0] * (m - 1)
    out = []
    for _ in range(p**m - 1):
        out.append(sum(map(operator.mul, coeffs, weights)))
        top = coeffs[-1]
        coeffs = [0] + coeffs[:-1]
        if top:
            coeffs = [(c - top * t) % p for c, t in zip(coeffs, tail)]
    return out


def _small_fields():
    """Every field of order <= 2^16 with m >= 2, and the prime fields of
    order below 2^10 together with the largest prime below 2^16."""
    primes = [p for p in range(2, 1 << 8) if all(p % r for r in range(2, p))]
    out = [(p, m) for p in primes for m in range(2, 17) if p**m <= 1 << 16]
    out += [(p, 1) for p in range(2, 1 << 10) if all(p % r for r in range(2, p))]
    return out + [(65521, 1)]


def test_tables_match_the_scalar_loop():
    # the doubling build against one multiplication by x per element; the
    # fields are built outside make_field's cache
    for p, m in _small_fields():
        modulus = (
            make_field(p, 1).modulus if m == 1
            else _canonical_modulus(make_field(p, 1), m).coeffs
        )
        F = FiniteField(p, m, modulus)
        assert F.exp == _scalar_antilog(p, m, modulus), (p, m)
        assert F.log[0] == -1
        assert (np.array(F.log)[F.exp] == np.arange(p**m - 1)).all(), (p, m)


def test_non_primitive_modulus_is_refused():
    # x^2 + 1 is irreducible over GF(3) but x has order 4, not 8
    with pytest.raises(AssertionError, match="not primitive"):
        FiniteField(3, 2, (1, 0, 1))


def _digitwise(p, m, a, b, sign):
    out, w = 0, 1
    for _ in range(m):
        out += (a // w % p + sign * (b // w % p)) % p * w
        w *= p
    return out


@pytest.mark.parametrize("p,m", [(3, 2), (5, 2), (3, 3), (7, 2), (3, 5)])
def test_zech_addition_matches_digits(p, m):
    # addition, negation and subtraction against the base-p digit definition
    F = make_field(p, m)
    q = F.order
    for a in range(q):
        assert F.neg(a) == _digitwise(p, m, 0, a, -1)
        for b in range(q):
            assert F.add(a, b) == _digitwise(p, m, a, b, 1)
            assert F.sub(a, b) == _digitwise(p, m, a, b, -1)


@pytest.mark.parametrize("p,m", [(2, 4), (3, 1), (7, 1), (3, 2), (5, 2), (3, 3),
                                 (7, 2), (3, 5)])
def test_array_sums_match_scalar_addition(p, m):
    # every pair, broadcast, against the scalar rule: XOR, mod p, or Zech
    F = make_field(p, m)
    a = np.arange(F.order, dtype=np.uint32)
    sums = F.sums(a[:, None], a[None, :])
    assert sums.dtype == np.uint32
    assert sums.tolist() == [[F.add(i, j) for j in range(F.order)] for i in range(F.order)]


# -- the GF(q^d) kernel ----------------------------------------------------------

KERNEL_FIELDS = [
    (2, 1), (3, 1), (13, 1), (2, 2), (2, 3), (3, 2), (5, 2), (2, 9), (2, 20),
]
KERNEL_DEGREES = [1, 2, 3, 4, 5, 6, 7, 8, 28, 58]


@pytest.mark.parametrize("p,m", KERNEL_FIELDS)
def test_kernel_matches_polynomial_arithmetic(p, m):
    # products and powers on digit planes against Polynomial *, % and
    # pow_mod, modulo a random monic f (irreducible or not)
    F = make_field(p, m)
    rng = random.Random(p * 100 + m)
    rand = lambda k: Polynomial(F, [rng.randrange(F.order) for _ in range(k)])
    for d in KERNEL_DEGREES:
        f = Polynomial(F, [rng.randrange(F.order) for _ in range(d)] + [1])
        ext = ExtensionField(f)
        poly = lambda plane: Polynomial(F, ext.coefficients(plane))
        for _ in range(3 if d < 28 else 1):
            a, b = rand(d), rand(d)
            assert poly(ext.element(a)) == a
            assert poly(ext.mul(ext.element(a), ext.element(b))) == a * b % f
            e = rng.randrange(1 << (40 if d < 28 else 12))
            assert poly(ext.pow(ext.element(a), e)) == pow_mod(a, e, f)
        assert poly(ext.pow(ext.element(rand(d)), 0)) == Polynomial.one(F)


def horner(ext, poly, a):
    """Oracle: poly(a) on the kernel, by Horner's rule."""
    coeffs = ext._digits(poly.coeffs)[::-1]
    out = np.zeros_like(ext.one)
    out[0] = coeffs[0]
    for c in coeffs[1:]:
        out = ext.mul(out, a)
        out[0] = (out[0] + c) % ext.base.p
    return out


def test_kernel_evaluates_polynomials():
    # g(a) by Horner's rule on the kernel against the sum of c_i a^i
    F = make_field(3, 2)
    ext = root_field(F, 11)[0]  # d = ord_11(9) = 5
    f = ext.modulus
    rng = random.Random(5)
    for _ in range(20):
        g = Polynomial(F, [rng.randrange(9) for _ in range(7)] + [1])
        a = Polynomial(F, [rng.randrange(9) for _ in range(5)])
        direct = Polynomial(F)
        for i, c in enumerate(g.coeffs):
            direct = direct + pow_mod(a, i, f).scale(c)
        got = horner(ext, g, ext.element(a))
        assert Polynomial(F, ext.coefficients(got)) == direct % f


def _unfiltered_modulus(base, d):
    """Reference: the packed search of `_canonical_modulus` without its
    skips of the f with f' = 0 and of the even f = g(x^2)."""
    q = base.order
    order = q**d - 1
    x = Polynomial(base, (0, 1))
    radicals = [r for r in range(2, order + 1) if order % r == 0
                and all(r % s for s in range(2, r))]
    for packed in range(1, q**d):
        if packed % q == 0:
            continue
        f = Polynomial.from_packed(base, packed + q**d)
        if _ben_or(f) is not None and all(
            pow_mod(x, order // r, f).coeffs != (1,) for r in radicals
        ):
            return f
    raise AssertionError("no modulus")


def test_skipping_pth_powers_keeps_the_canonical_modulus():
    # the primitive moduli of the table fields, and odd-p fields of even
    # degree, where the even candidates g(x^2) come first
    for p, m in [(2, 2), (2, 4), (2, 8), (2, 10), (3, 2), (3, 4), (3, 6), (5, 3),
                 (5, 2), (5, 4), (7, 2), (7, 4), (11, 2), (13, 2), (31, 2)]:
        base = make_field(p, 1)
        assert _canonical_modulus(base, m) == _unfiltered_modulus(base, m), (p, m)
