import itertools
import math
import random

import numpy as np
import pytest

from fhsforge.cyclic import (
    _least_rotation_partition,
    build_code,
    class_partition,
    codeword_matrix,
    cyclotomic_cosets,
    enumerate_classes,
    factor_x_pow_n_minus_one,
    has_full_orbits_nonzero,
    has_full_orbits_outside_constants,
    min_distance_exhaustive,
    root_context,
    small_period_witness,
    unit_coset_code,
)
from fhsforge.errors import (
    DoesNotContainAllOnes,
    EnumerationTooLarge,
    GcdConditionViolated,
    NonPositiveLength,
    NotCoprime,
    NotCosetClosed,
    ZeroCode,
)
from fhsforge.galois import FiniteField, Polynomial, make_field
from fhsforge.intmath import is_prime


def rotations(word):
    return {tuple(word[t:]) + tuple(word[:t]) for t in range(len(word))}


# -- cosets -------------------------------------------------------------------


def test_cosets_mod9_over_8():
    cosets = cyclotomic_cosets(9, 8)
    assert [c.members for c in cosets] == [(0,), (1, 8), (2, 7), (3, 6), (4, 5)]


def test_cosets_singletons_when_q_is_1_mod_n():
    cosets = cyclotomic_cosets(5, 11)
    assert [c.members for c in cosets] == [(0,), (1,), (2,), (3,), (4,)]


def test_cosets_mod17_over_16():
    cosets = cyclotomic_cosets(17, 16)
    assert cosets[0].members == (0,)
    assert all(c.members == (i, 17 - i) for i, c in enumerate(cosets[1:], start=1))


def test_cosets_partition_property():
    for n, q in [(9, 8), (15, 2), (21, 4), (26, 3), (30, 7), (13, 3)]:
        cosets = cyclotomic_cosets(n, q)
        flat = [j for c in cosets for j in c.members]
        assert sorted(flat) == list(range(n))
        for c in cosets:
            t = c.representative
            # |C_t| is the least j with t*q^j = t (mod n)
            size = next(j for j in range(1, n + 1) if t * pow(q, j, n) % n == t)
            assert len(c.members) == size
            assert {j * q % n for j in c.members} == set(c.members)


def test_cosets_nonpositive_length():
    with pytest.raises(NonPositiveLength):
        cyclotomic_cosets(0, 2)


def test_cosets_not_coprime():
    with pytest.raises(NotCoprime):
        cyclotomic_cosets(5, 5)
    with pytest.raises(NotCoprime):
        cyclotomic_cosets(9, 3)


# -- factorization and code construction --------------------------------------


def test_factor_product_reconstructs():
    for p, m, n in [(2, 3, 9), (2, 1, 23), (5, 1, 6), (3, 1, 13)]:
        F = make_field(p, m)
        factors = factor_x_pow_n_minus_one(F, n)
        prod = Polynomial.one(F)
        for _, mj in factors:
            prod = prod * mj
        assert prod == Polynomial.x_pow_n_minus_one(F, n)


def test_build_mds_code_9_5_5():
    F8 = make_field(2, 3)
    code = build_code(9, F8, [3, 4, 5, 6])
    assert code.dimension == 5
    assert code.generator * code.check == Polynomial.x_pow_n_minus_one(F8, 9)
    assert min_distance_exhaustive(code) == 5  # [9, 5, 5]: MDS


def evaluate_at_root(ctx, poly, j):
    """poly(alpha^j) in the root field of `ctx`, by Horner's rule."""
    E = ctx.ext
    embed = E.embed if E is not ctx.base else int
    acc, a = E.zero, ctx.alpha_pows[j]
    for c in reversed(poly.coeffs):
        acc = E.add(E.mul(acc, a), embed(c))
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
        ctx = root_context(F, n)
        for j in range(n):
            value = evaluate_at_root(ctx, code.generator, j)
            assert (value == ctx.ext.zero) == (j in code.defining_set)


def test_all_ones_quotient_vanishes_at_primitive_roots():
    # (x^n - 1)/(x - 1) is zero at every primitive n-th root when n > 1
    for p, m, n in [(2, 3, 9), (5, 1, 6), (3, 1, 13), (2, 9, 27)]:
        F = make_field(p, m)
        ctx = root_context(F, n)
        ones = Polynomial(F, (1,) * n)
        for j in range(1, n):
            if math.gcd(j, n) == 1:
                assert evaluate_at_root(ctx, ones, j) == ctx.ext.zero


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
        code = build_code(13, F, coset.members)
        assert has_full_orbits_outside_constants(code)


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


def test_predicate_requires_all_ones():
    F8 = make_field(2, 3)
    code = build_code(9, F8, [0, 3, 6])
    with pytest.raises(DoesNotContainAllOnes):
        has_full_orbits_outside_constants(code)


def test_nonzero_orbit_predicate():
    F32 = make_field(2, 5)
    # family-C style code: h = M_5, defining set everything but {5, 6}
    z = [j for j in range(11) if j not in (5, 6)]
    code = build_code(11, F32, z)
    assert has_full_orbits_nonzero(code)
    # a code containing the all-ones word fails: that word has period 1
    code2 = build_code(9, make_field(2, 3), [3, 4, 5, 6])
    assert not has_full_orbits_nonzero(code2)
    with pytest.raises(ZeroCode):
        has_full_orbits_nonzero(build_code(3, make_field(2, 1), [0, 1, 2]))


def test_nonzero_predicate_against_enumeration():
    rng = random.Random(23)
    checked = 0
    for n, q in [(9, 8), (13, 3), (11, 32), (15, 2), (7, 2), (21, 2)]:
        F = make_field(*{8: (2, 3), 3: (3, 1), 32: (2, 5), 2: (2, 1)}[q])
        cosets = cyclotomic_cosets(n, q)
        for r in range(1, len(cosets) + 1):
            for combo in itertools.combinations(cosets, r):
                members = [j for c in combo for j in c.members]
                k = n - len(members)
                if k == 0 or q**k > 2**14:
                    continue
                code = build_code(n, F, members)
                pred = has_full_orbits_nonzero(code)
                classes = enumerate_classes(code, exclude="zero")
                assert pred == all(c.size == n for c in classes)
                checked += 1
    assert checked > 20


# -- enumeration ----------------------------------------------------------------


def test_enumerate_classes_example():
    F8 = make_field(2, 3)
    code = build_code(9, F8, [3, 4, 5, 6])
    classes = enumerate_classes(code, exclude="constants")
    assert len(classes) == (8**5 - 8) // 9 == 3640
    assert all(c.size == 9 for c in classes)


def test_enumerate_full_space_n2():
    code = build_code(2, make_field(3, 1), [])  # n=2 over GF(3), q=1 mod 2? gcd(2,3)=1
    classes = enumerate_classes(code, exclude="none")
    reps = {c.representative: c.size for c in classes}
    assert reps == {(0, 0): 1, (1, 1): 1, (2, 2): 1, (0, 1): 2, (0, 2): 2, (1, 2): 2}


def test_enumerate_family_c_code():
    F32 = make_field(2, 5)
    z = [j for j in range(11) if j not in (5, 6)]
    code = build_code(11, F32, z)
    classes = enumerate_classes(code, exclude="zero")
    assert len(classes) == (32**2 - 1) // 11 == 93
    assert all(c.size == 11 for c in classes)


def test_class_sizes_divide_n_and_sum():
    rng = random.Random(5)
    for _ in range(20):
        n, (p, m) = rng.choice([(9, (2, 3)), (15, (2, 2)), (8, (3, 1)), (10, (3, 1))])
        F = make_field(p, m)
        cosets = cyclotomic_cosets(n, F.order)
        chosen = [c for c in cosets if rng.random() < 0.5]
        members = [j for c in chosen for j in c.members]
        if F.order ** (n - len(members)) > 2**14:
            continue
        code = build_code(n, F, members)
        classes = enumerate_classes(code)
        assert sum(c.size for c in classes) == code.size
        assert all(n % c.size == 0 for c in classes)
        sub = enumerate_classes(code, exclude="zero")
        assert sum(c.size for c in sub) == code.size - 1


def test_representatives_are_least_rotations():
    F8 = make_field(2, 3)
    code = build_code(9, F8, [1, 2, 7, 8, 3, 6])
    for cls in enumerate_classes(code):
        orbit = rotations(cls.representative)
        assert cls.representative == min(orbit)
        assert cls.size == len(orbit)


def test_least_rotation_partition_matches_brute_force():
    # full words that fit in 62 bits (GF(8) n=9, GF(4) n=5), full words that
    # do not (GF(64) n=13, GF(512) n=27), length 1, and GF(5) n=6 k=3 and
    # GF(9) n=10 k=3
    cases = [
        ((2, 3), 9, [1, 2, 7, 8, 4, 5]),
        ((2, 2), 5, [0, 1, 4]),
        ((2, 6), 13, [j for j in range(13) if j not in (1, 12)]),
        ((2, 9), 27, list(range(1, 27))),
        ((3, 1), 1, []),
        # odd characteristic with k >= 2, which adds through the q x q table
        ((5, 1), 6, [2, 3, 4]),
        ((3, 2), 10, [j for j in range(10) if j not in (0, 1, 9)]),
    ]
    for (p, m), n, members in cases:
        code = build_code(n, make_field(p, m), members)
        mat = codeword_matrix(code)
        reps, sizes = _least_rotation_partition(mat, code.field.order, code.dimension)
        expected = {}
        for row in map(tuple, mat.tolist()):
            expected[min(rotations(row))] = len(rotations(row))
        assert [tuple(r) for r in reps.tolist()] == sorted(expected)
        assert sizes.tolist() == [expected[r] for r in sorted(expected)]
        assert reps.dtype == mat.dtype


def test_least_rotation_partition_checks_information_sets():
    # rotation-closed but not linear: the first position does not tell
    # 000 from 001 and 010, so the width-1 window keys collide
    words = sorted({(0, 0, 0)} | rotations((0, 0, 1)))
    mat = np.array(words, dtype=np.uint32)
    with pytest.raises(AssertionError):
        _least_rotation_partition(mat, 2, 1)
    # the same four words as a claimed k = 2 code: the row count is right,
    # but the width-2 keys of 000 and 001 collide and no row has key 3
    with pytest.raises(AssertionError):
        _least_rotation_partition(mat, 2, 2)
    # two rows, both keys distinct, but the symbol 2 is not in GF(2)
    with pytest.raises(AssertionError):
        _least_rotation_partition(np.array([[0, 0], [2, 2]], dtype=np.uint32), 2, 1)


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
            word = Polynomial.zero(F)
            for i in range(k):
                m_i = r // F.order ** (k - 1 - i) % F.order
                word = word + Polynomial.x_pow(F, i, m_i) * code.generator
            assert row == list(word.coeffs) + [0] * (n - len(word.coeffs))


def test_min_distance_matches_full_enumeration():
    dims = []
    for code in _small_codes():
        weights = np.count_nonzero(codeword_matrix(code), axis=1)
        assert min_distance_exhaustive(code) == weights[weights > 0].min()
        dims.append(code.dimension)
    assert dims == [1, 2, 3] * 3


def test_large_field_k1_builds_no_add_table(monkeypatch):
    # GF(3^12), n = 2, k = 1: the q^2-entry add table would hold 2.8 * 10^11
    # entries; one generator shift adds nothing, so no table is built
    def refuse(self):
        raise AssertionError("add table built")

    monkeypatch.setattr(FiniteField, "add_table", refuse)
    F = make_field(3, 12)
    code = build_code(2, F, [0])  # g = x - 1: the words (-c, c)
    assert code.dimension == 1
    reps, sizes = class_partition(code)
    assert sizes.tolist() == [1] + [2] * ((F.order - 1) // 2)
    assert reps[0].tolist() == [0, 0]
    assert min_distance_exhaustive(code) == 2


def test_zero_code_is_one_orbit_of_size_one():
    code = build_code(5, make_field(2, 2), range(5))
    assert code.dimension == 0
    reps, sizes = class_partition(code)
    assert reps.tolist() == [[0] * 5] and sizes.tolist() == [1]


def test_enumeration_cap():
    F8 = make_field(2, 3)
    code = build_code(9, F8, [3, 6])
    with pytest.raises(EnumerationTooLarge):
        codeword_matrix(code, cap=100)
    with pytest.raises(EnumerationTooLarge):
        enumerate_classes(code, cap=100)


def test_class_partition_exclusions():
    F8 = make_field(2, 3)
    code = build_code(9, F8, [3, 4, 5, 6])
    reps_all, sizes_all = class_partition(code, "none")
    reps_nz, _ = class_partition(code, "zero")
    reps_nc, _ = class_partition(code, "constants")
    assert len(reps_all) == len(reps_nz) + 1 == len(reps_nc) + 8
    assert int(sizes_all.sum()) == 8**5


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
