import hashlib
import itertools
import json
import math
import random
import time
import tracemalloc

import numpy as np
import pytest

from fhsforge import cyclic, galois
from fhsforge.cyclic import (
    CyclicCode,
    build_code,
    class_partition,
    codeword_matrix,
    cyclotomic_cosets,
    enumerate_classes,
    factor_x_pow_n_minus_one,
    has_full_orbits_outside_constants,
    min_distance_exhaustive,
    unit_coset_code,
)
from fhsforge.errors import (
    EmptySet,
    EnumerationTooLarge,
    FactorTableTooLarge,
    GcdConditionViolated,
    NonPositiveLength,
    NotCoprime,
    NotCosetClosed,
    ZeroCode,
)
from fhsforge.fhs import classes_to_fhs
from fhsforge.galois import (
    ExtensionField,
    Polynomial,
    _ben_or,
    field_from_order,
    make_field,
    root_field,
)
from fhsforge.intmath import is_prime, multiplicative_order, prime_factors, totient
from test_galois import horner, pow_mod


def rotations(word):
    return {tuple(word[t:]) + tuple(word[:t]) for t in range(len(word))}


def census(code):
    return cyclic._orbit_census(code.n, code.field.order, code.nonzeros)


def every_orbit(code):
    """Every shift orbit of the code, constants included, as (least
    rotations, sizes), with the orbit sizes checked against the census."""
    walk, sizes = cyclic._orbits(code, census(code))
    return walk.T, sizes


def full_orbits_nonzero(code):
    """Whether every nonzero codeword has a full shift orbit."""
    n, nonzeros = code.n, code.nonzeros
    return cyclic._full_orbits(n, nonzeros) and not cyclic._short_constants(n, nonzeros)


# -- cosets -------------------------------------------------------------------


def test_cosets_mod9_over_8():
    cosets = cyclotomic_cosets(9, 8)
    assert cosets == [(0,), (1, 8), (2, 7), (3, 6), (4, 5)]


def test_cosets_singletons_when_q_is_1_mod_n():
    cosets = cyclotomic_cosets(5, 11)
    assert cosets == [(0,), (1,), (2,), (3,), (4,)]


def test_cosets_mod17_over_16():
    cosets = cyclotomic_cosets(17, 16)
    assert cosets[0] == (0,)
    assert all(c == (i, 17 - i) for i, c in enumerate(cosets[1:], start=1))


def test_cosets_partition_property():
    for n, q in [(9, 8), (15, 2), (21, 4), (26, 3), (30, 7), (13, 3)]:
        cosets = cyclotomic_cosets(n, q)
        flat = [j for c in cosets for j in c]
        assert sorted(flat) == list(range(n))
        for c in cosets:
            t = c[0]
            # |C_t| is the least j with t*q^j = t (mod n)
            size = next(j for j in range(1, n + 1) if t * pow(q, j, n) % n == t)
            assert len(c) == size
            assert {j * q % n for j in c} == set(c)


def test_cosets_nonpositive_length():
    with pytest.raises(NonPositiveLength):
        cyclotomic_cosets(0, 2)
    for n in (-1, -3):
        with pytest.raises(NonPositiveLength):
            factor_x_pow_n_minus_one(make_field(2, 1), n)


def test_cosets_not_coprime():
    with pytest.raises(NotCoprime):
        cyclotomic_cosets(5, 5)
    with pytest.raises(NotCoprime):
        cyclotomic_cosets(9, 3)


# -- factorization and code construction --------------------------------------


def test_factor_product_reconstructs():
    # with root fields of degree 6, 2 and 8 over GF(1024) and 2 over GF(2^20)
    for p, m, n in [(2, 3, 9), (2, 1, 23), (5, 1, 6), (3, 1, 13),
                    (2, 10, 13), (2, 10, 17), (2, 10, 257), (2, 20, 17)]:
        F = make_field(p, m)
        factors = factor_x_pow_n_minus_one(F, n)
        prod = Polynomial.one(F)
        for _, mj in factors:
            prod = prod * mj
        assert prod == Polynomial.x_pow_n_minus_one(F, n)


# (q, n): the factor of each coset, keyed by representative
FROZEN_TABLES = {
    (3, 29): {0: [2, 1], 1: [1] * 29},
    (7, 23): {0: [6, 1], 1: [1] * 23},
    (9, 23): {
        0: [2, 1],
        1: [2, 2, 2, 1, 1, 0, 2, 0, 2, 0, 0, 1],
        5: [2, 0, 0, 1, 0, 1, 0, 2, 2, 1, 1, 1],
    },
    (8, 25): {
        0: [1, 1],
        1: [1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1],
        5: [1, 1, 1, 1, 1],
    },
    (11, 59): {0: [10, 1], 1: [1] * 59},
}


@pytest.mark.parametrize("q,n", sorted(FROZEN_TABLES))
def test_frozen_factor_tables(q, n):
    factors = factor_x_pow_n_minus_one(field_from_order(q), n)
    got = {c[0]: list(mj.coeffs) for c, mj in factors}
    assert got == FROZEN_TABLES[q, n]


PAPER_PAIRS = ((8, 9), (5, 6), (25, 26), (32, 11), (512, 27))
# SHA-256 of the compact JSON [[q, n, [[coset, factor], ...]], ...] below
TABLES_DIGEST = "f6e6c811fa93697f5c2e2d604abd3dd4de0bb3407f0e1a5cadd89c4c0d2207bf"


def test_factor_tables_are_frozen():
    # 403 tables: every q of the list with n <= 30, every prime q <= 13
    # with n < 60, and the paper's pairs; the digest pins every coset and
    # factor whichever root field each table was computed under
    pairs = sorted(
        {(q, n) for q in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32) for n in range(1, 31)
         if math.gcd(q, n) == 1}
        | {(p, n) for p in (2, 3, 5, 7, 11, 13) for n in range(1, 60) if n % p}
        | set(PAPER_PAIRS)
    )
    tables = [[q, n, [[list(c), list(mj.coeffs)]
                      for c, mj in factor_x_pow_n_minus_one(field_from_order(q), n)]]
              for q, n in pairs]
    text = json.dumps(tables, separators=(",", ":"))
    assert len(pairs) == 403
    assert hashlib.sha256(text.encode()).hexdigest() == TABLES_DIGEST


def uncached(p, m, n):
    """Every (coset, factor) of a table built afresh, past the cache."""
    table = cyclic._factor_table.__wrapped__(p, m, n)
    return [(coset, table.factor(coset)) for coset in table.cosets]


def packed_root_field(F, n):
    """Reference: (GF(q)[y]/(f), beta) for the least-packed monic irreducible
    f of degree ord_n(q) under which beta = y^((q^d - 1)/n) has order n."""
    q = F.order
    d = multiplicative_order(q, n)
    y = Polynomial(F, (0, 1))
    for packed in itertools.count(q**d + 1):
        f = Polynomial.from_packed(F, packed)
        if f.coeffs[0] == 0 or _ben_or(f) is None:
            continue
        ext = ExtensionField(f)
        beta = ext.pow(ext.element(y), (q**d - 1) // n)
        if all(not ext.is_one(ext.pow(beta, n // r)) for r in prime_factors(n)):
            return ext, beta


def test_tables_do_not_depend_on_the_root_field(monkeypatch):
    # every (q, n) of the orbit-oracle codes and the paper's pairs, built
    # again under the least-packed root field instead of root_field's
    pairs = [(q, n) for q in (2, 3, 4, 5, 7, 8, 9) for n in range(1, 31)
             if math.gcd(q, n) == 1]
    pairs += PAPER_PAIRS
    streamed = {pair: factor_x_pow_n_minus_one(field_from_order(pair[0]), pair[1])
                for pair in pairs}
    monkeypatch.setattr(cyclic, "root_field", packed_root_field)
    moved = 0
    for (q, n), table in streamed.items():
        F = field_from_order(q)
        assert uncached(F.p, F.m, n) == table, (q, n)
        moved += root_field(F, n)[0].modulus != packed_root_field(F, n)[0].modulus
    assert moved > len(pairs) // 2  # the two searches mostly pick different f


def test_factor_table_self_check_catches_a_wrong_factor(monkeypatch):
    # a factor of the right degree that does not vanish at beta^j is caught
    # by the near-linear check, which no longer multiplies the table out
    real = cyclic.berlekamp_massey

    def off_by_one(field, seq):
        mj = real(field, seq)
        return Polynomial(field, (field.add(mj.coeffs[0], 1),) + mj.coeffs[1:])

    monkeypatch.setattr(cyclic, "berlekamp_massey", off_by_one)
    with pytest.raises(AssertionError, match="does not vanish"):
        uncached(3, 1, 13)


@pytest.mark.parametrize("block", [1, cyclic._CHECK_BLOCK])
def test_values_at_powers_match_horner(monkeypatch, block):
    # sum_i c_i beta^(j*i mod n), gathered from the power table and summed
    # in blocks, against Horner's rule on the kernel at beta^j, for random
    # nonzero polynomials over each kind of field
    monkeypatch.setattr(cyclic, "_CHECK_BLOCK", block)
    rng = random.Random(3)
    for (p, m), n in [((2, 1), 21), ((3, 1), 13), ((2, 3), 9), ((3, 2), 11),
                      ((5, 2), 26), ((2, 4), 17)]:
        F = make_field(p, m)
        ext, beta = root_field(F, n)
        weights = p ** np.arange(m)
        powers, power = np.empty((n, ext.d), dtype=np.uint32), ext.one
        for k in range(n):
            powers[k] = power @ weights
            power = ext.mul(power, beta)
        exponents = [rng.randrange(n) for _ in range(12)]
        polys = [Polynomial(F, [rng.randrange(F.order) for _ in range(rng.randrange(9))]
                            + [rng.randrange(1, F.order)]) for _ in exponents]
        got = cyclic._values_at_powers(F, powers, exponents, polys)
        for row, j, g in zip(got, exponents, polys):
            want = horner(ext, g, ext.pow(beta, j)) @ weights
            assert row.tolist() == want.tolist(), (p, m, n, j, g)


def test_one_coset_blocks_give_the_same_table(monkeypatch):
    # family_ding(9, 5)'s table, n = 7,381 over GF(9), with the vanishing
    # check forced to one coset per block
    table = factor_x_pow_n_minus_one(make_field(3, 2), 7381)
    monkeypatch.setattr(cyclic, "_CHECK_BLOCK", 1)
    assert uncached(3, 2, 7381) == table


def test_factor_table_memory_bound():
    # family_ding(5, 7)'s cold table, n = 19,531 over GF(5), d = 7: the
    # power table is n * d * 4 = 547 KB, and the check's blocks are bounded
    cyclic._factor_table.cache_clear()
    tracemalloc.start()
    try:
        table = factor_x_pow_n_minus_one(make_field(5, 1), 19531)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table) == 1 + 19530 // 7
    assert peak <= 4 << 20


def test_factor_table_size_caps():
    # refused at once: n past the length cap before the cosets are listed,
    # ord_n(q) past the degree cap before any field work; so too a code
    # whose smaller side, h or g = x - 1, needs only Phi_1
    start = time.monotonic()
    with pytest.raises(FactorTableTooLarge, match="length cap"):
        factor_x_pow_n_minus_one(make_field(2, 3), 19_173_961)
    with pytest.raises(FactorTableTooLarge, match="length cap"):
        cyclotomic_cosets(10**12 + 1, 2)
    with pytest.raises(FactorTableTooLarge, match="length cap"):
        build_code(cyclic.FACTOR_LENGTH_CAP + 3, make_field(2, 1), [0])
    with pytest.raises(FactorTableTooLarge, match="degree cap"):
        factor_x_pow_n_minus_one(make_field(2, 1), 131)
    for z in (range(1, 131), [0]):
        with pytest.raises(FactorTableTooLarge, match="degree cap"):
            build_code(131, make_field(2, 1), z)
    assert time.monotonic() - start < 1.0
    assert cyclic.FACTOR_LENGTH_CAP >= 19_531  # family_ding(5, 7) is accepted
    assert cyclic.FACTOR_DEGREE_CAP >= 58  # so is the sympy oracle's d = 58


def test_one_cached_table_per_field_and_length(monkeypatch):
    # the per-(p, m, n) table is the only cache: the factors, a code built
    # from them and the code's export share one root-field search, and a
    # code whose smaller side is Phi_1 and Phi_3 asks for none
    cyclic._factor_table.cache_clear()
    searches = []

    def counted(field, n):
        searches.append((field.order, n))
        return root_field(field, n)

    monkeypatch.setattr(cyclic, "root_field", counted)
    F = make_field(2, 3)
    build_code(9, F, [0, 3, 6])
    assert searches == []
    factor_x_pow_n_minus_one(F, 9)
    build_code(9, F, [3, 4, 5, 6]).export_dict()
    assert searches == [(8, 9)]


PHI_PAIRS = [(q, n) for q in (2, 3, 4, 5, 7, 8, 9) for n in range(1, 31)
             if math.gcd(q, n) == 1 and multiplicative_order(q, n) == totient(n)]
# SHA-256 of the compact JSON of the PHI_PAIRS tables, as TABLES_DIGEST
PHI_TABLES_DIGEST = "ed573d7754d0cef54d76c209158eaa70e74bf27fb74b60a4f49d7d140ab22956"


def forbid_root_fields(monkeypatch):
    """Every table cold, no stream field kept, and any `ExtensionField`
    construction refused, once the fields GF(q), q <= 9, exist."""
    for q in (2, 3, 4, 5, 7, 8, 9):
        field_from_order(q)
    cyclic._factor_table.cache_clear()
    monkeypatch.setattr(galois, "_STREAM_FIELDS", {})

    def refuse(*_):
        raise AssertionError("an ExtensionField was built")

    monkeypatch.setattr(galois, "ExtensionField", refuse)


def test_phi_tables_build_no_root_field(monkeypatch):
    # when ord_n(q) = phi(n), every factor is a Phi_d, proved by Rabin's
    # test on coefficient lists, and the tables are the pinned ones
    forbid_root_fields(monkeypatch)
    assert len(PHI_PAIRS) == 52 and (5, 6) in PHI_PAIRS
    tables = [[q, n, [[list(c), list(mj.coeffs)]
                      for c, mj in factor_x_pow_n_minus_one(field_from_order(q), n)]]
              for q, n in PHI_PAIRS]
    text = json.dumps(tables, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == PHI_TABLES_DIGEST


def phi_sided(code):
    """Whether every coset of the code's smaller side, g's or h's, holds all
    the residues of its order d: |C| = phi(d)."""
    n, small_is_g = code.n, 2 * len(code.defining_set) <= code.n
    side = code.defining_set if small_is_g else code.nonzeros
    return all(len(c) == totient(n // math.gcd(c[0], n))
               for c in cyclotomic_cosets(n, code.field.order) if c[0] in side)


def test_phi_sided_codes_build_no_root_field(monkeypatch):
    # every orbit-oracle code whose smaller side is all Phi_d factors, the
    # [29, 1] repetition code over GF(9) among them (h = x - 1, its table
    # split over GF(9^14)), gets the same g and h with no root field
    universe = list(_universe(1 << 14))
    codes = [code for code in universe if phi_sided(code)]
    assert len(universe) == 1668 and len(codes) == 284
    assert any((c.field.order, c.n, c.dimension) == (9, 29, 1) for c in codes)
    forbid_root_fields(monkeypatch)
    for code in codes:
        built = build_code(code.n, code.field, code.defining_set)
        assert (built.generator, built.check) == (code.generator, code.check), code


@pytest.mark.parametrize("p,m,n", [(2, 1, 29), (3, 1, 5), (5, 1, 6), (2, 1, 5),
                                   (2, 3, 5)])
def test_factor_table_checks_phi_d(monkeypatch, p, m, n):
    # Phi_n is not taken on the theorem alone: a reducible stand-in of
    # degree phi(n), or an irreducible one whose root y has order 15
    # (x^4 + x + 1 over GF(2) or GF(8)), fails the field or the order test,
    # and the table raises rather than returning it
    base = make_field(p, m)
    d = multiplicative_order(base.order, n)
    assert d == totient(n)
    real = cyclic._cyclotomic
    stand_ins = [Polynomial.x_pow_n_minus_one(base, d)]
    if d == 4 and p == 2:
        stand_ins.append(Polynomial(base, (1, 1, 0, 0, 1)))
    for f in stand_ins:
        monkeypatch.setattr(cyclic, "_cyclotomic",
                            lambda F, e, radicals: f if e == n else real(F, e, radicals))
        with pytest.raises(AssertionError, match=f"Phi_{n} "):
            uncached(p, m, n)


def test_build_mds_code_9_5_5():
    F8 = make_field(2, 3)
    code = build_code(9, F8, [3, 4, 5, 6])
    assert code.dimension == 5
    assert code.generator * code.check == Polynomial.x_pow_n_minus_one(F8, 9)
    assert min_distance_exhaustive(code) == 5  # [9, 5, 5]: MDS


def canonical_root(F, n):
    """(alpha, f): alpha in GF(q)[y]/(f), f of degree ord_n(q).

    alpha is found here, not read from the table: it is any root of m_1,
    the table's factor of the coset of 1, among the powers of root_field's
    n-th root of unity modulo f."""
    ext, beta = root_field(F, n)
    f, beta = ext.modulus, Polynomial(F, ext.coefficients(beta))
    m1 = next(mj for coset, mj in factor_x_pow_n_minus_one(F, n) if 1 % n in coset)
    alpha = next(a for a in (pow_mod(beta, s, f) for s in range(n))
                 if evaluate(m1, a, f).is_zero())
    return alpha, f


def evaluate(poly, a, f):
    """poly(a) modulo f, by Horner's rule."""
    acc = Polynomial(poly.field)
    for c in reversed(poly.coeffs):
        acc = (acc * a + Polynomial(poly.field, (c,))) % f
    return acc


def test_generator_vanishes_on_defining_set():
    # root fields of degree d = 2 over GF(8) and GF(512), and d = 1 over GF(7)
    for (p, m), n, z in [
        ((2, 3), 9, [3, 4, 5, 6]),
        ((7, 1), 6, [1, 2]),
        ((2, 9), 27, [j for j in range(27) if j not in (13, 14)]),
    ]:
        F = make_field(p, m)
        code = build_code(n, F, z)
        alpha, f = canonical_root(F, n)
        for j in range(n):
            value = evaluate(code.generator, pow_mod(alpha, j, f), f)
            assert value.is_zero() == (j in code.defining_set)


def test_all_ones_quotient_vanishes_at_primitive_roots():
    # (x^n - 1)/(x - 1) is zero at every primitive n-th root when n > 1
    for p, m, n in [(2, 3, 9), (5, 1, 6), (3, 1, 13), (2, 9, 27)]:
        F = make_field(p, m)
        alpha, f = canonical_root(F, n)
        ones = Polynomial(F, (1,) * n)
        for j in range(1, n):
            if math.gcd(j, n) == 1:
                assert evaluate(ones, pow_mod(alpha, j, f), f).is_zero()


def test_empty_defining_set_gives_full_space():
    F = make_field(2, 2)
    code = build_code(5, F, [])
    assert code.dimension == 5
    assert code.generator == Polynomial.one(F)
    assert min_distance_exhaustive(code) == 1


def test_complement_of_one_coset():
    F8 = make_field(2, 3)
    z = [j for j in range(9) if j not in (1, 8)]
    code = build_code(9, F8, z)
    assert code.dimension == 2
    assert code.generator * code.check == Polynomial.x_pow_n_minus_one(F8, 9)


def test_build_code_errors():
    F8 = make_field(2, 3)
    with pytest.raises(NotCosetClosed):
        build_code(9, F8, [3])  # C_3 = {3, 6}
    with pytest.raises(NotCoprime):
        build_code(9, make_field(3, 1), [0])


# -- orbit predicates ----------------------------------------------------------


def test_predicate_on_example_codes():
    F8 = make_field(2, 3)
    c1 = build_code(9, F8, [3, 6])
    c2 = build_code(9, F8, [3, 4, 5, 6])
    assert has_full_orbits_outside_constants(c1)
    assert has_full_orbits_outside_constants(c2)


def test_predicate_true_for_prime_length():
    F = make_field(3, 1)
    for coset in cyclotomic_cosets(13, 3)[1:]:
        code = build_code(13, F, coset)
        assert has_full_orbits_outside_constants(code)


def small_period_witness(code: CyclicCode) -> tuple[int, ...] | None:
    """A codeword outside the constants whose orbit is provably short.

    When some residue j outside Z has gcd(j, n) > 1, dividing x^n - 1 by
    (x - 1) and the minimal polynomial of alpha^j leaves a codeword killed
    by x^r - 1 for r = n / gcd(j, n) < n.  Returns None when no such
    residue exists.  Requires 0 not in Z.
    """
    zset = set(code.defining_set)
    if 0 in zset:
        raise ValueError("defining set contains 0")
    bad = [j for j in range(1, code.n) if j not in zset and math.gcd(j, code.n) > 1]
    if not bad:
        return None
    factors = {j: mj for coset, mj in factor_x_pow_n_minus_one(code.field, code.n)
               for j in coset}
    xn1 = Polynomial.x_pow_n_minus_one(code.field, code.n)
    w = xn1 // (factors[0] * factors[bad[0]])
    coeffs = list(w.coeffs) + [0] * (code.n - len(w.coeffs))
    return tuple(coeffs)


def test_predicate_false_with_witness():
    F8 = make_field(2, 3)
    code = build_code(9, F8, [4, 5])
    assert not has_full_orbits_outside_constants(code)
    w = small_period_witness(code)
    assert w is not None
    assert len(rotations(w)) < 9
    assert len(set(w)) > 1  # not a constant word
    # the witness is a codeword: divisible by the generator
    poly = Polynomial(F8, w)
    assert (poly % code.generator).is_zero()


def test_witness_none_when_predicate_holds():
    F8 = make_field(2, 3)
    assert small_period_witness(build_code(9, F8, [3, 4, 5, 6])) is None


def test_predicate_with_zero_in_z_matches_the_partition():
    # with 0 in Z the only constant word is zero, and the predicate answers
    # for every other word as the partition's orbit sizes do
    seen = set()
    for n, p, m in [(9, 2, 3), (15, 2, 1), (13, 3, 1)]:
        F = make_field(p, m)
        others = cyclotomic_cosets(n, p**m)[1:]
        for r in range(len(others)):  # some nonzero j != 0 is always left
            for combo in itertools.combinations(others, r):
                code = build_code(n, F, [0, *(j for c in combo for j in c)])
                if code.size > 2**14:
                    continue
                full = bool((class_partition(code)[1] == n).all())
                assert has_full_orbits_outside_constants(code) == full
                seen.add(full)
    assert seen == {False, True}


def test_nonzero_orbit_predicate():
    F32 = make_field(2, 5)
    # family-C style code: h = M_5, defining set everything but {5, 6}
    z = [j for j in range(11) if j not in (5, 6)]
    code = build_code(11, F32, z)
    assert full_orbits_nonzero(code)
    # a code containing the all-ones word fails: that word has period 1
    code2 = build_code(9, make_field(2, 3), [3, 4, 5, 6])
    assert not full_orbits_nonzero(code2)
    # the zero code has no nonzero codewords, so no orbits to convert
    zero = build_code(3, make_field(2, 1), [0, 1, 2])
    with pytest.raises(EmptySet):
        classes_to_fhs(*class_partition(zero), zero)


def test_nonzero_predicate_against_enumeration():
    rng = random.Random(23)
    checked = 0
    for n, q in [(9, 8), (13, 3), (11, 32), (15, 2), (7, 2), (21, 2)]:
        F = make_field(*{8: (2, 3), 3: (3, 1), 32: (2, 5), 2: (2, 1)}[q])
        cosets = cyclotomic_cosets(n, q)
        for r in range(1, len(cosets) + 1):
            for combo in itertools.combinations(cosets, r):
                members = [j for c in combo for j in c]
                k = n - len(members)
                if k == 0 or q**k > 2**14:
                    continue
                code = build_code(n, F, members)
                pred = full_orbits_nonzero(code)
                all_reps, all_sizes = every_orbit(code)
                nonzero = all_reps.any(axis=1)
                assert pred == bool((all_sizes[nonzero] == n).all())
                # the shared residue test, on either side of 0 in Z; with 0 in
                # Z the only constant word is zero
                reps, sizes = class_partition(code)
                assert cyclic._full_orbits(n, code.nonzeros) == bool((sizes == n).all())
                if 0 in code.defining_set:
                    kept = nonzero
                else:  # the constant words: every digit equal
                    kept = (all_reps != all_reps[:, :1]).any(axis=1)
                assert np.array_equal(reps, all_reps[kept])
                assert np.array_equal(sizes, all_sizes[kept])
                checked += 1
    assert checked > 20


# -- enumeration ----------------------------------------------------------------


def test_enumerate_classes_example():
    F8 = make_field(2, 3)
    code = build_code(9, F8, [3, 4, 5, 6])
    reps, sizes = class_partition(code)
    assert len(reps) == len(sizes) == (8**5 - 8) // 9 == 3640
    assert (sizes == 9).all()


def test_enumerate_full_space_n2():
    code = build_code(2, make_field(3, 1), [])  # n=2 over GF(3), q=1 mod 2? gcd(2,3)=1
    reps, sizes = every_orbit(code)
    orbits = dict(zip(map(tuple, reps.tolist()), sizes.tolist()))
    assert orbits == {(0, 0): 1, (1, 1): 1, (2, 2): 1, (0, 1): 2, (0, 2): 2, (1, 2): 2}
    reps, sizes = class_partition(code)
    assert dict(zip(map(tuple, reps.tolist()), sizes.tolist())) == {
        (0, 1): 2, (0, 2): 2, (1, 2): 2}


def test_enumerate_family_c_code():
    F32 = make_field(2, 5)
    z = [j for j in range(11) if j not in (5, 6)]
    code = build_code(11, F32, z)
    reps, sizes = class_partition(code)  # 0 is in Z: only the zero word is constant
    assert len(reps) == len(sizes) == (32**2 - 1) // 11 == 93
    assert (sizes == 11).all()


def test_class_sizes_divide_n_and_sum():
    rng = random.Random(5)
    for _ in range(20):
        n, (p, m) = rng.choice([(9, (2, 3)), (15, (2, 2)), (8, (3, 1)), (10, (3, 1))])
        F = make_field(p, m)
        cosets = cyclotomic_cosets(n, F.order)
        chosen = [c for c in cosets if rng.random() < 0.5]
        members = [j for c in chosen for j in c]
        if F.order ** (n - len(members)) > 2**14:
            continue
        code = build_code(n, F, members)
        _, sizes = every_orbit(code)
        assert sizes.sum() == code.size
        assert all(n % size == 0 for size in sizes.tolist())
        constants = 1 if 0 in code.defining_set else F.order
        _, sub = class_partition(code)
        assert sub.sum() == code.size - constants


def test_representatives_are_least_rotations():
    F8 = make_field(2, 3)
    code = build_code(9, F8, [1, 2, 7, 8, 3, 6])
    reps, sizes = class_partition(code)
    for rep, size in zip(map(tuple, reps.tolist()), sizes.tolist()):
        orbit = rotations(rep)
        assert rep == min(orbit)
        assert size == len(orbit)


def least_rotation_partition(mat: np.ndarray, q: int, k: int):
    """Reference: unique least rotations of the rows with multiplicities,
    from the full codeword matrix.

    The rows must be all the codewords of a cyclic [n, k] code over GF(q).
    The width-k window key sum_{i<k} c[t+i] q^(k-1-i) of every row is
    rolled through all n shifts, and a least rotation is the row whose
    shift-0 key is the least key of its orbit.  It costs n q^k words of
    memory, which `class_partition` does not.
    """
    rows, n = mat.shape
    total = q**k
    w = max(k, 1)
    qq = np.uint64(q)
    lead = np.uint64(q ** (w - 1))
    key = np.zeros(rows, dtype=np.uint64)
    for i in range(w):
        key = key * qq + mat[:, i]
    pos = np.full(total, -1, dtype=np.intp)
    if rows == total and (key < total).all():
        pos[key] = np.arange(rows)
    if pos.min() < 0:
        raise AssertionError(f"width-{w} window keys are not a permutation")
    best = key.copy()
    for t in range(1, n):
        key -= mat[:, t - 1] * lead
        key *= qq
        key += mat[:, (t + w - 1) % n]
        np.minimum(best, key, out=best)
    sizes = np.bincount(best.view(np.int64), minlength=total)
    keys = np.flatnonzero(sizes)
    return mat[pos[keys]], sizes[keys]


def test_least_rotation_partition_matches_brute_force():
    # full words that fit in 62 bits (GF(8) n=9, GF(4) n=5), full words that
    # do not (GF(64) n=13, GF(512) n=27), length 1, GF(5) n=6 k=3 and
    # GF(9) n=10 k=3, and GF(3^12) n=2 k=1, whose shift map is built from
    # the multiples alone
    cases = [
        ((2, 3), 9, [1, 2, 7, 8, 4, 5]),
        ((2, 2), 5, [0, 1, 4]),
        ((2, 6), 13, [j for j in range(13) if j not in (1, 12)]),
        ((2, 9), 27, list(range(1, 27))),
        ((3, 1), 1, []),
        # odd characteristic with k >= 2, which adds digit by digit mod p
        ((5, 1), 6, [2, 3, 4]),
        ((3, 2), 10, [j for j in range(10) if j not in (0, 1, 9)]),
        ((3, 12), 2, [0]),
    ]
    for (p, m), n, members in cases:
        code = build_code(n, make_field(p, m), members)
        mat = codeword_matrix(code)
        reps, sizes = every_orbit(code)
        expected = {}
        for row in map(tuple, mat.tolist()):
            orbit = rotations(row)
            expected[min(orbit)] = len(orbit)
        assert [tuple(r) for r in reps.tolist()] == sorted(expected)
        assert sizes.tolist() == [expected[r] for r in sorted(expected)]
        assert reps.dtype == mat.dtype


def test_least_rotation_partition_checks_information_sets():
    # [7, 4] binary Hamming code, h = (x + 1)(x^3 + x^2 + 1) or its mirror:
    # the reversed recurrence walks the words of the mirror code, every
    # one n-periodic, so only the walk from g's key catches it.  The
    # minimum distance is the partition's, so it stops where that stops.
    def refused(code, message):
        for caller in (class_partition, min_distance_exhaustive):
            with pytest.raises(AssertionError, match=message):
                caller(code)

    def miscounted(code, found):
        # pointer jumping over a map that is not the shift finds orbit sizes
        # the census does not count, and the partition, the distance's too,
        # stops there; given those sizes, its walk is refused
        orbits = sum(found.values())
        for caller in (class_partition, min_distance_exhaustive):
            with pytest.raises(AssertionError, match=f"{orbits} orbits of sizes"):
                caller(code)
        with pytest.raises(AssertionError, match="is not the identity"):
            cyclic._orbits(code, found)

    code = build_code(7, make_field(2, 1), [1, 2, 4])
    h = code.check
    assert h.coeffs != h.coeffs[::-1]
    mirror = CyclicCode(code.field, 7, code.defining_set, code.generator,
                        Polynomial(code.field, h.coeffs[::-1]))
    refused(mirror, "does not regenerate g")
    # h + x^2 does not divide x^7 - 1: the shift map's 7th power moves keys
    wrong = CyclicCode(code.field, 7, code.defining_set, code.generator,
                       h + Polynomial(code.field, (0, 0, 1)))
    assert not (Polynomial.x_pow_n_minus_one(code.field, 7) % wrong.check).is_zero()
    miscounted(wrong, {1: 2, 3: 2, 8: 1})
    # the same two over GF(7), n = 6, k = 3, Z = {1, 2, 3}, where the
    # feedback adds mod 7
    code = build_code(6, make_field(7, 1), [1, 2, 3])
    h = code.check
    mirror = CyclicCode(code.field, 6, code.defining_set, code.generator,
                        Polynomial(code.field, h.coeffs[::-1]).monic())
    refused(mirror, "does not regenerate g")
    wrong = CyclicCode(code.field, 6, code.defining_set, code.generator,
                       h + Polynomial(code.field, (0, 1)))
    assert wrong.check.coeffs[0] != 0
    assert not (Polynomial.x_pow_n_minus_one(code.field, 6) % wrong.check).is_zero()
    miscounted(wrong, {1: 18, 2: 12, 3: 8, 4: 5, 5: 6, 6: 6, 7: 1, 8: 23})


def test_orbit_sizes_are_checked_not_only_counted():
    # [9, 5] over GF(8): 8 constants, 8^5 - 8 words in 3640 orbits of size 9.
    # A census with the same 3648 orbits, one of them moved to size 3,
    # still stops the partition.
    code = build_code(9, make_field(2, 3), [3, 4, 5, 6])
    sizes = census(code)
    assert sizes == {1: 8, 9: 3640}
    moved = {1: 8, 3: 1, 9: 3639}
    assert sum(moved.values()) == sum(sizes.values())
    with pytest.raises(AssertionError, match="3648 orbits of sizes .* not the census's"):
        cyclic._orbits(code, moved)
    assert len(cyclic._orbits(code, sizes)[1]) == 3648


def _universe(max_words):
    """Every cyclic code over GF(q), q <= 9, of length n <= 30 whose
    defining set is a union of nonzero cosets, with at most `max_words`
    codewords."""
    for q in (2, 3, 4, 5, 7, 8, 9):
        F = field_from_order(q)
        for n in range(1, 31):
            if math.gcd(n, q) != 1:
                continue
            nonzero = cyclotomic_cosets(n, q)[1:]
            for r in range(len(nonzero) + 1):
                for combo in itertools.combinations(nonzero, r):
                    members = [j for c in combo for j in c]
                    if q ** (n - len(members)) <= max_words:
                        yield build_code(n, F, members)


def test_class_partition_matches_the_matrix_kernel():
    # the reference kernel rolls the window key through the codeword matrix
    checked = 0
    for code in _universe(1 << 12):
        mat = codeword_matrix(code)
        ref = least_rotation_partition(mat, code.field.order, code.dimension)
        keep = (ref[0] != ref[0][:, :1]).any(axis=1)
        for (reps, sizes), kept in ((every_orbit(code), slice(None)),
                                    (class_partition(code), keep)):
            assert reps.dtype == np.uint32 and sizes.dtype == np.int64
            assert np.array_equal(reps, ref[0][kept]), code
            assert np.array_equal(sizes, ref[1][kept]), code
        checked += 1
    assert checked > 1000


def orbit_census_by_periods(mat):
    """The number of orbits of each size among the rows of a rotation-closed
    matrix: each row's orbit has its least period d as size, and holds d
    rows of that period."""
    n = mat.shape[1]
    period = np.zeros(len(mat), dtype=np.int64)
    for t in (t for t in range(1, n + 1) if n % t == 0):
        fixed = (mat == np.roll(mat, t, axis=1)).all(axis=1)
        period[(period == 0) & fixed] = t
    rows = np.bincount(period)
    assert all(rows[d] % d == 0 for d in np.flatnonzero(rows))
    return {int(d): int(rows[d]) // int(d) for d in np.flatnonzero(rows)}


def test_orbit_count_matches_pointer_jumping_and_periods():
    # each code of the universe and the same code with 0 added to Z, which
    # gives a zero code where Z held every nonzero coset; n = 1 gives the
    # full space and the zero code of length 1
    codes = [build_code(5, make_field(2, 2), range(5))]  # a zero code
    for code in _universe(1 << 12):
        codes += [code, build_code(code.n, code.field, (0, *code.defining_set))]
    for code in codes:
        sizes = census(code)
        assert sizes == orbit_census_by_periods(codeword_matrix(code)), code
        assert sum(sizes.values()) == len(cyclic._orbits(code, sizes)[1]), code
    assert sum(code.n == 1 for code in codes) == 14
    assert sum(code.dimension == 0 for code in codes) == 136
    assert len(codes) > 2000


def test_partition_memory_does_not_scale_with_n():
    # the binary [1023, 11] code with h = (x - 1) m_1: 2^11 words, two
    # constants and two full orbits; the codeword matrix would hold 2^11
    # words of 1023 symbols, 8 MiB as uint32
    F = make_field(2, 1)
    keep = {0} | {pow(2, i, 1023) for i in range(10)}
    code = build_code(1023, F, [j for j in range(1023) if j not in keep])
    assert code.dimension == 11
    tracemalloc.start()
    try:
        reps, sizes = class_partition(code, "constants")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sizes.tolist() == [1023, 1023]
    assert reps.shape == (2, 1023)
    assert peak < 1 << 20


def _small_codes():
    # k = 1, 2 and 3 in each field kind: GF(2^m), odd GF(p) and odd GF(p^m)
    for (p, m), n, keep in [
        ((2, 3), 9, [(0,), (1, 8), (0, 1, 8)]),
        ((5, 1), 6, [(0,), (1, 5), (0, 1, 5)]),
        ((3, 2), 10, [(0,), (1, 9), (0, 1, 9)]),
    ]:
        for roots in keep:
            members = [j for j in range(n) if j not in roots]
            yield build_code(n, make_field(p, m), members)


def test_codeword_matrix_message_order():
    # row sum_i m_i q^(k-1-i) is the codeword sum_i m_i x^i g(x)
    for code in _small_codes():
        F, n, k = code.field, code.n, code.dimension
        mat = codeword_matrix(code)
        assert mat.shape == (F.order**k, n) and mat.dtype == np.uint32
        for r, row in enumerate(mat.tolist()):
            word = Polynomial(F)
            for i in range(k):
                m_i = r // F.order ** (k - 1 - i) % F.order
                word = word + Polynomial(F, (0,) * i + (m_i,)) * code.generator
            assert row == list(word.coeffs) + [0] * (n - len(word.coeffs))


@pytest.mark.parametrize("q, n, nonzeros", [
    (49, 50, (0, 1)), (25, 26, (1, 2)), (2, 31, (0, 1, 3, 5)), (4, 15, (0, 1, 2, 3, 6)),
], ids=["50-3-GF49", "26-4-GF25", "31-16-GF2", "15-9-GF4"])
def test_codeword_matrix_memory_rule(monkeypatch, q, n, nonzeros):
    # the message-order fold peaks at 5.0 to 8.4 bytes per entry, under the
    # rule's 9, and a machine one byte short of the rule refuses it before
    # any work; the nonzeros are the union of the cosets of these members
    keep = {j for c in cyclotomic_cosets(n, q) if c[0] in nonzeros for j in c}
    code = build_code(n, field_from_order(q), [j for j in range(n) if j not in keep])
    need = 9 * n * code.size
    tracemalloc.start()
    try:
        codeword_matrix(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 4 * n * code.size < peak <= need  # the uint32 matrix itself takes 4
    monkeypatch.setattr(cyclic, "_physical_memory", lambda: need - 1)
    with pytest.raises(EnumerationTooLarge, match=f"{need} bytes, .* physical memory"):
        codeword_matrix(code)


def test_min_distance_matches_full_enumeration():
    dims = []
    for code in _small_codes():
        weights = np.count_nonzero(codeword_matrix(code), axis=1)
        assert min_distance_exhaustive(code) == weights[weights > 0].min()
        dims.append(code.dimension)
    assert dims == [1, 2, 3] * 3


def test_min_distance_sweep_against_the_codeword_matrix():
    # every code of dimension >= 1 over GF(2), GF(3), GF(4) and GF(5) with
    # n <= 15 and at most 2^12 words, k up to 12: the partition weighs one
    # word per orbit, the message-order matrix every word.  The distance
    # stored by a partition, or by a walk of every orbit, is read on fresh
    # code objects beside the one that the distance partitions itself.
    dims = set()
    for q in (2, 3, 4, 5):
        F = field_from_order(q)
        for n in range(1, 16):
            if math.gcd(n, q) != 1:
                continue
            cosets = cyclotomic_cosets(n, q)
            for r in range(len(cosets)):
                for combo in itertools.combinations(cosets, r):
                    members = [j for c in combo for j in c]
                    if q ** (n - len(members)) > 1 << 12:
                        continue
                    code = build_code(n, F, members)
                    weights = np.count_nonzero(codeword_matrix(code), axis=1)
                    d = weights[weights > 0].min()
                    assert min_distance_exhaustive(code) == d, code
                    for partition in (class_partition, every_orbit):
                        code = build_code(n, F, members)
                        partition(code)
                        assert min_distance_exhaustive(code) == d, (code, partition)
                    dims.add(code.dimension)
    assert dims == set(range(1, 13))


def test_large_field_k1_partition():
    # GF(3^12), n = 2, k = 1: 531,441 words from one generator shift
    F = make_field(3, 12)
    code = build_code(2, F, [0])  # g = x - 1: the words (-c, c)
    assert code.dimension == 1
    reps, sizes = every_orbit(code)
    assert sizes.tolist() == [1] + [2] * ((F.order - 1) // 2)
    assert reps[0].tolist() == [0, 0]
    assert class_partition(code)[1].tolist() == sizes[1:].tolist()
    assert min_distance_exhaustive(code) == 2


def test_zero_code_is_one_orbit_of_size_one():
    code = build_code(5, make_field(2, 2), range(5))
    assert code.dimension == 0
    reps, sizes = every_orbit(code)
    assert reps.tolist() == [[0] * 5] and sizes.tolist() == [1]
    # its one word is constant
    reps, sizes = class_partition(code)
    assert reps.shape == (0, 5) and sizes.tolist() == []


def test_enumeration_cap():
    F8 = make_field(2, 3)
    code = build_code(9, F8, [3, 6])
    with pytest.raises(EnumerationTooLarge):
        codeword_matrix(code, cap=100)
    with pytest.raises(EnumerationTooLarge):
        enumerate_classes(code, cap=100)


def test_enumeration_past_physical_memory(monkeypatch):
    # [7, 4] Hamming code: the partition needs 32 bytes per window key (its
    # walk of 4 orbits, 16 * 16 + 9 * 7 * 4 = 508 bytes, fits), and so does
    # the minimum distance of a fresh code, which partitions it
    code = build_code(7, make_field(2, 1), [1, 2, 4])
    need = 32 * 16
    monkeypatch.setattr(cyclic, "_physical_memory", lambda: need - 1)
    for caller in (class_partition, min_distance_exhaustive):
        with pytest.raises(EnumerationTooLarge, match="physical memory"):
            caller(code)
    monkeypatch.setattr(cyclic, "_physical_memory", lambda: need)
    assert min_distance_exhaustive(code) == 3
    assert class_partition(code)[1].tolist() == [7, 7]


def test_short_orbit_walk_past_physical_memory(monkeypatch):
    # binary [45, 15] code whose check polynomial's roots are the multiples
    # of 3: every word has period 15 or less, so the walk of its 2,192
    # orbits outgrows 32 bytes per key.  The census sizes it before the
    # shift map is built.
    code = build_code(45, make_field(2, 1), [j for j in range(45) if j % 3])
    keys, orbits, kept = 2**15, 2192, 2190  # all but the two constant words
    assert sum(census(code).values()) == orbits
    tracemalloc.start()
    assert len(class_partition(code)[1]) == kept
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    need = 16 * keys + 9 * 45 * orbits
    assert need == 1_412_048 and 32 * keys < peak <= need

    def no_shift_map(code):
        raise AssertionError("the shift map was built")

    monkeypatch.setattr(cyclic, "_physical_memory", lambda: need - 1)
    monkeypatch.setattr(cyclic, "_shift_map", no_shift_map)
    with pytest.raises(EnumerationTooLarge, match=f"{need} bytes, .* physical memory"):
        class_partition(code)
    monkeypatch.undo()
    monkeypatch.setattr(cyclic, "_physical_memory", lambda: need)
    assert len(class_partition(code)[1]) == kept


def check_partition_memory_rule(q: int) -> int:
    """[q + 1, 2] over GF(q), Z = all but {1, n - 1}: the feedback adds
    digit by digit, so no allocation outlives the rule's 32 bytes per key
    by more than numpy's bookkeeping, and a machine 4 KiB short of the
    traced peak refuses the partition before any work.  Patches
    `cyclic._physical_memory` and restores it; returns the peak."""
    n = q + 1
    code = build_code(n, field_from_order(q), [j for j in range(n) if j not in (1, n - 1)])
    tracemalloc.start()
    try:
        class_partition(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    physical_memory = cyclic._physical_memory
    cyclic._physical_memory = lambda: peak - 4096
    try:
        with pytest.raises(EnumerationTooLarge, match="physical memory"):
            class_partition(code)
    finally:
        cyclic._physical_memory = physical_memory
    return peak


@pytest.mark.parametrize("q", [401, 101, 25])
def test_partition_memory_rule_holds_for_odd_q(q):
    check_partition_memory_rule(q)


def test_stored_distance_is_read_after_the_cap_check():
    code = build_code(9, make_field(2, 3), [3, 4, 5, 6])
    class_partition(code)
    with pytest.raises(EnumerationTooLarge):
        min_distance_exhaustive(code, cap=1)
    assert min_distance_exhaustive(code) == 5


def test_min_distance_partitions_a_fresh_code_once(monkeypatch):
    # the distance is the partition's by-product: a fresh code is
    # partitioned once, and the stored distance is read without another
    calls = []

    def spy(code, *args, **kwargs):
        calls.append(code)
        return class_partition(code, *args, **kwargs)

    monkeypatch.setattr(cyclic, "class_partition", spy)
    code = build_code(9, make_field(2, 3), [3, 4, 5, 6])
    assert code._min_distance is None
    assert min_distance_exhaustive(code) == 5
    assert calls == [code] and code._min_distance == 5
    assert min_distance_exhaustive(code) == 5
    assert len(calls) == 1


def test_stored_distance_is_not_part_of_the_code():
    F8 = make_field(2, 3)
    walked, fresh = build_code(9, F8, [3, 4, 5, 6]), build_code(9, F8, [3, 4, 5, 6])
    class_partition(walked)
    assert walked._min_distance == 5 and fresh._min_distance is None
    assert walked == fresh and hash(walked) == hash(fresh)
    assert repr(walked) == repr(fresh) == "CyclicCode([9, 5] over GF(8))"
    assert walked.export_dict() == fresh.export_dict()
    with pytest.raises(AttributeError):
        walked.n = 7


def test_class_partition_exclusions():
    # the constant words are the only exclusion; the other modes are gone
    F8 = make_field(2, 3)
    code = build_code(9, F8, [3, 4, 5, 6])
    reps, sizes = class_partition(code, "constants")
    assert len(reps) == len(every_orbit(code)[1]) - 8
    assert int(sizes.sum()) == 8**5 - 8
    for exclude in ("none", "zero", "nonzero", None):
        with pytest.raises(ValueError, match="exclude must be 'constants'"):
            class_partition(code, exclude)


# -- minimum distance -----------------------------------------------------------


def test_min_distance_cases():
    F8 = make_field(2, 3)
    assert min_distance_exhaustive(build_code(9, F8, [3, 4, 5, 6])) == 5
    assert min_distance_exhaustive(build_code(7, make_field(2, 1), [])) == 1
    F5 = make_field(5, 1)
    family_b_code = build_code(6, F5, [2, 3, 4])
    assert family_b_code.dimension == 3
    assert min_distance_exhaustive(family_b_code) == 4  # n - k + 1
    with pytest.raises(ZeroCode):
        min_distance_exhaustive(build_code(3, make_field(2, 1), [0, 1, 2]))


def test_mds_when_defining_set_is_a_run():
    # a defining set that is exactly a consecutive run of length d-1 gives
    # minimum distance exactly n - k + 1
    for n, (p, m), run in [(9, (2, 3), [3, 4, 5, 6]), (6, (5, 1), [2, 3, 4]),
                           (10, (3, 1), [1, 2]), (13, (3, 1), [1, 3, 9])]:
        F = make_field(p, m)
        zset = set()
        for j in run:
            zset |= {j * F.order**i % n for i in range(n)}
        code = build_code(n, F, zset)
        consecutive = sorted(zset) == list(range(min(zset), max(zset) + 1))
        if consecutive:
            assert min_distance_exhaustive(code) == n - code.dimension + 1


def test_bch_consistency():
    # a run of d-1 consecutive roots forces distance >= d; exact run -> MDS
    F8 = make_field(2, 3)
    for z, d in [([3, 4, 5, 6], 5), ([1, 2, 3, 6, 7, 8], 4)]:
        code = build_code(9, F8, z)
        run = 1
        best = 1
        zs = set(z)
        for j in range(1, 2 * 9):
            run = run + 1 if j % 9 in zs else 0
            best = max(best, run)
        assert min_distance_exhaustive(code) >= best + 1


# -- the unit-coset code ---------------------------------------------------------


def test_unit_coset_code_parameters():
    c24 = unit_coset_code(2, 4)
    assert (c24.n, c24.dimension) == (15, 11)
    c33 = unit_coset_code(3, 3)
    assert (c33.n, c33.dimension) == (13, 10)
    assert min_distance_exhaustive(c24) == 3
    assert min_distance_exhaustive(c33) == 3


def test_unit_coset_code_nonpositive_m():
    # m = -1 used to reach build_code with the float length 0.5 // 1
    for q, m in [(2, -1), (2, 0), (3, 0)]:
        with pytest.raises(NonPositiveLength):
            unit_coset_code(q, m)


def test_unit_coset_code_gcd_condition():
    with pytest.raises(GcdConditionViolated):
        unit_coset_code(3, 2)  # gcd(2, 2) = 2
    with pytest.raises(GcdConditionViolated):
        unit_coset_code(4, 3)  # gcd(3, 3) = 3


def test_unit_coset_orbit_predicate_iff_prime_length():
    for q, m in [(2, 4), (3, 3), (2, 5), (2, 6), (5, 3)]:
        code = unit_coset_code(q, m)
        assert has_full_orbits_outside_constants(code) == is_prime(code.n)
