import random

import numpy as np
import pytest

from fhsforge import fhs
from fhsforge.cyclic import build_code, class_partition
from fhsforge.errors import (
    BudgetExceeded,
    ClassSizeNotFull,
    EmptySet,
    LengthAlphabetViolation,
    LengthMismatch,
    ParseError,
    PredicateFailed,
)
from fhsforge.fhs import (
    FhsSet,
    _collision,
    auto_peak,
    classes_to_fhs,
    correlation,
    cross_peak,
    max_nontrivial,
    nominal_comparisons,
)
from fhsforge.galois import make_field


def scalar_max_nontrivial(seqs):
    """Oracle: the plain double loop over pairs and shifts."""
    best = 0
    for i, x in enumerate(seqs):
        if len(x) >= 2:
            best = max(best, auto_peak(x))
        for y in seqs[i + 1:]:
            best = max(best, cross_peak(x, y))
    return best


def random_set(rng, count, n, ell):
    seen = set()
    while len(seen) < count:
        seen.add(tuple(rng.randrange(ell) for _ in range(n)))
    return FhsSet(sorted(seen), ell)


# -- correlation ----------------------------------------------------------------


def test_correlation_in_phase_self():
    x = [3, 1, 4, 1, 5]
    assert correlation(x, x, 0) == 5


def test_correlation_of_rotation():
    assert all(correlation([0, 1, 2], [2, 0, 1], t) == v
               for t, v in [(0, 0), (1, 3), (2, 0)])


def test_correlation_errors():
    with pytest.raises(LengthMismatch):
        correlation([1, 2], [1, 2, 3], 0)
    with pytest.raises(ValueError):
        correlation([1, 2], [1, 2], 2)


def test_convolution_identity_random():
    rng = random.Random(31)
    for _ in range(300):
        n = rng.randrange(2, 12)
        ell = rng.randrange(2, 6)
        x = [rng.randrange(ell) for _ in range(n)]
        y = [rng.randrange(ell) for _ in range(n)]
        total = sum(correlation(x, y, t) for t in range(n))
        freq = sum(x.count(f) * y.count(f) for f in range(ell))
        assert total == freq


def test_symmetry_random():
    rng = random.Random(32)
    for _ in range(300):
        n = rng.randrange(2, 12)
        x = [rng.randrange(4) for _ in range(n)]
        y = [rng.randrange(4) for _ in range(n)]
        t = rng.randrange(n)
        assert correlation(x, y, t) == correlation(y, x, (n - t) % n)


def test_peaks():
    assert auto_peak([7, 7, 7, 7]) == 4
    assert cross_peak([0, 1], [1, 0]) == 2
    with pytest.raises(LengthMismatch):
        auto_peak([1])


# -- FhsSet ----------------------------------------------------------------------


def test_fhs_set_validation():
    with pytest.raises(ValueError):
        FhsSet([[0, 1], [0, 1]], 2)  # duplicates
    with pytest.raises(LengthAlphabetViolation):
        FhsSet([[0, 3]], 3)
    with pytest.raises(EmptySet):
        FhsSet(np.empty((0, 4), dtype=np.uint32), 4)


def test_duplicate_rows_are_refused():
    # rows equal only as byte strings of the whole row count as duplicates;
    # the symbols near 2^32 fill every byte of a uint32
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randrange(1, 5)
        alphabet = rng.choice([[0, 1], [0, 255, 256, 2**32 - 1]])
        rows = [[rng.choice(alphabet) for _ in range(n)]
                for _ in range(rng.randrange(1, 6))]
        distinct = len(set(map(tuple, rows))) == len(rows)
        record = {"n": n, "ell": 2**32, "N": len(rows), "lambda": 0, "sequences": rows}
        if distinct:
            assert FhsSet(rows, 2**32).size == len(rows)
            assert FhsSet.from_json_dict(record).size == len(rows)
        else:
            with pytest.raises(ValueError):
                FhsSet(rows, 2**32)
            with pytest.raises(ParseError):
                FhsSet.from_json_dict(record)


def test_fhs_set_json_round_trip():
    fset = FhsSet([[2, 0, 1], [0, 0, 0]], 3, {"family": "B", "q": 5}, 2)
    data = fset.to_json_dict()
    # export sorts sequences lexicographically
    assert data["sequences"] == [[0, 0, 0], [2, 0, 1]]
    back = FhsSet.from_json_dict(data)
    assert back.parameter_tuple() == fset.parameter_tuple()
    assert back.provenance["family"] == "B"


def test_fhs_set_parse_errors():
    good = FhsSet([[0, 1]], 2, None, 1).to_json_dict()
    for mutate in (
        lambda d: d.pop("ell"),
        lambda d: d.update(N=5),
        lambda d: d.update(sequences=[[0, 1, 1]]),
        lambda d: d.update(sequences=[[0, 9]]),
        lambda d: d.update(sequences=[[0, 1.0]]),
        lambda d: d.update(sequences=[[0, -1]]),
        lambda d: d.update(sequences=[[0, True]]),
        lambda d: d.update(sequences=[[0, "1"]]),
        lambda d: d.update(sequences=[[0, 2**70]]),
        lambda d: d.update(sequences=[0, 1]),
        lambda d: d.update(ell=2.9),
        lambda d: d.update({"lambda": 1.5}),
    ):
        data = {k: (v.copy() if isinstance(v, (dict, list)) else v) for k, v in good.items()}
        mutate(data)
        with pytest.raises(ParseError):
            FhsSet.from_json_dict(data)


# -- exhaustive sweep --------------------------------------------------------------


def test_max_nontrivial_matches_scalar_oracle():
    rng = random.Random(41)
    for _ in range(25):
        count = rng.randrange(2, 9)
        n = rng.randrange(2, 9)
        ell = rng.randrange(2, 7)
        fset = random_set(rng, count, n, ell)
        survey = max_nontrivial(fset)
        assert survey.method == "exhaustive"
        assert survey.value == scalar_max_nontrivial(fset.sequences())


def test_max_nontrivial_single_sequence():
    fset = FhsSet([[0, 1, 0, 2]], 3)
    assert max_nontrivial(fset).value == auto_peak([0, 1, 0, 2])


def test_rotation_invariance_of_sweep():
    rng = random.Random(42)
    for _ in range(20):
        fset = random_set(rng, 5, 7, 3)
        base = max_nontrivial(fset).value
        rows = fset.sequences()
        i = rng.randrange(len(rows))
        t = rng.randrange(1, 7)
        rotated = rows[i][t:] + rows[i][:t]
        if rotated in rows:
            continue  # rotation collides with another member; set changes
        rows[i] = rotated
        assert max_nontrivial(FhsSet(rows, 3)).value == base


def test_budget_refusal():
    fset = FhsSet([[0, 1, 2, 3], [1, 2, 3, 0], [2, 0, 1, 3]], 4)
    assert nominal_comparisons(fset) == 9 * 16
    # the test at L = 1 keys N * n = 12 rotations
    with pytest.raises(BudgetExceeded):
        max_nontrivial(fset, budget=11)
    assert max_nontrivial(fset, budget=None).value == scalar_max_nontrivial(fset.sequences())


# -- collision certificate ------------------------------------------------------


def oracle_sets(rng):
    """Random sets; sets holding two rotations of one row (M = n); length-1
    sets (M = 0); and sets whose symbols come near 2^32, so that keys would
    pass 2^62 and the re-rank and sort path runs."""
    for _ in range(120):
        yield random_set(rng, rng.randrange(1, 7), rng.randrange(3, 8), rng.randrange(2, 5))
    for _ in range(40):
        n = rng.randrange(2, 8)
        row = [rng.randrange(3) for _ in range(n)]
        t = rng.randrange(1, n)
        rows = {tuple(row), tuple(row[t:] + row[:t])}
        rows |= set(random_set(rng, rng.randrange(1, 4), n, 3).sequences())
        yield FhsSet(sorted(rows), 3)
    for _ in range(20):
        count = rng.randrange(2, 6)
        yield random_set(rng, count, 1, count + rng.randrange(3))
    ell = 2**32 - 5
    for _ in range(40):
        palette = [ell - 1] + [rng.randrange(ell) for _ in range(2)]
        count, n = rng.randrange(1, 6), rng.randrange(2, 8)
        rows = {tuple(rng.choice(palette) for _ in range(n)) for _ in range(count)}
        yield FhsSet(sorted(rows), ell)


def test_collision_test_decides_m_at_least_l():
    rng = random.Random(44)
    for fset in oracle_sets(rng):
        rows = fset.sequences()
        m = scalar_max_nontrivial(rows)
        for size in range(1, fset.n + 2):
            hit = _collision(fset.seqs, size)
            assert (hit is not None) == (m >= size)
            if hit is not None:
                i, j, t = hit
                assert (i, t) != (j, 0)
                assert correlation(rows[i], rows[j], t) >= size
        exact = max_nontrivial(fset, budget=None)
        assert exact.value == m and exact.method == "exhaustive"
        i, j, t = exact.witness
        assert (i, t) != (j, 0)
        assert correlation(rows[i], rows[j], t) == exact.value


def test_walk_budget_refuses_large_m():
    # two sequences that agree on 20 of 40 positions: the nominal count is
    # small, but the test at L = 21 would key C(39, 20) * 80 rotations
    fset = FhsSet([list(range(40)), list(range(40, 60)) + list(range(20, 40))], 60)
    assert nominal_comparisons(fset) == 6400
    with pytest.raises(BudgetExceeded, match="L = 21"):
        max_nontrivial(fset)


def test_memory_refusal_under_any_budget(monkeypatch):
    # M = 1, so the walk tests L = 1 and L = 2; the test at L needs an
    # estimated 16 * (L + 1) bytes per rotation plus the bincount floor
    fset = FhsSet([[0, 1, 2, 3, 4], [0, 2, 4, 1, 3]], 5)
    assert max_nontrivial(fset).value == scalar_max_nontrivial(fset.sequences()) == 1
    need = 16 * 3 * 10 + (8 << 20)
    monkeypatch.setattr(fhs, "_physical_memory", lambda: need - 1)
    for budget in (None, 10**10):
        with pytest.raises(BudgetExceeded, match="L = 2 needs about"):
            max_nontrivial(fset, budget=budget)
    monkeypatch.setattr(fhs, "_physical_memory", lambda: need)
    assert max_nontrivial(fset, budget=None).value == 1


def test_rotation_count_refusal_under_any_budget(monkeypatch):
    # keys could overflow past 2^30 rotations; a smaller limit stands in
    fset = FhsSet([[0, 1, 2], [1, 1, 0]], 3)
    monkeypatch.setattr(fhs, "_MAX_ROTATIONS", 5)
    with pytest.raises(BudgetExceeded, match="6 rotations"):
        max_nontrivial(fset, budget=None)
    monkeypatch.setattr(fhs, "_MAX_ROTATIONS", 6)
    assert max_nontrivial(fset, budget=None).value == scalar_max_nontrivial(fset.sequences())


# -- orbit conversion ---------------------------------------------------------------


def test_classes_to_fhs_example():
    F8 = make_field(2, 3)
    code = build_code(9, F8, [3, 4, 5, 6])
    reps, sizes = class_partition(code, exclude="constants")
    fset = classes_to_fhs(reps, sizes, code, "nonconstant")
    assert (fset.n, fset.size, fset.alphabet_size) == (9, 3640, 8)
    assert np.array_equal(fset.seqs, reps)  # one sequence per orbit, in order
    assert len(np.unique(fset.seqs, axis=0)) == 3640


def test_classes_to_fhs_nonzero_mode():
    F32 = make_field(2, 5)
    code = build_code(11, F32, [j for j in range(11) if j not in (5, 6)])
    reps, sizes = class_partition(code, exclude="zero")
    fset = classes_to_fhs(reps, sizes, code, "nonzero")
    assert (fset.n, fset.size, fset.alphabet_size) == (11, 93, 32)
    assert max_nontrivial(fset).value == 1


def test_classes_to_fhs_requires_long_code():
    # n <= q: the nonconstant mode is undefined
    F8 = make_field(2, 3)
    code = build_code(7, F8, [1, 2, 4])
    reps, sizes = class_partition(code, exclude="constants")
    with pytest.raises(LengthAlphabetViolation):
        classes_to_fhs(reps, sizes, code, "nonconstant")


def test_classes_to_fhs_predicate_failure():
    F8 = make_field(2, 3)
    code = build_code(9, F8, [4, 5])
    with pytest.raises(PredicateFailed):
        classes_to_fhs(np.zeros((0, 9)), np.zeros(0), code, "nonconstant")


def test_classes_to_fhs_rejects_short_orbits():
    F8 = make_field(2, 3)
    code = build_code(9, F8, [3, 4, 5, 6])
    reps, sizes = class_partition(code, exclude="none")  # includes size-1 constants
    with pytest.raises(ClassSizeNotFull):
        classes_to_fhs(reps, sizes, code, "nonconstant")
    with pytest.raises(EmptySet):
        classes_to_fhs(reps[:0], sizes[:0], code, "nonconstant")
