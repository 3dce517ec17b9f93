import functools
import gc
import io
import itertools
import json
import random
import tracemalloc

import numpy as np
import pytest

from fhsforge import cyclic, fhs
from fhsforge.constructions import family_a, family_b, family_c
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
    _repeat,
    _rotation_classes,
    _rotation_table,
    classes_to_fhs,
    correlation,
    max_nontrivial,
    nominal_comparisons,
)
from fhsforge.galois import make_field
from test_cyclic import census


def auto_peak(x) -> int:
    """H(X): the largest out-of-phase auto-correlation, over 1 <= t < n."""
    if len(x) < 2:
        raise LengthMismatch("auto-correlation needs length >= 2")
    return max(correlation(x, x, t) for t in range(1, len(x)))


def cross_peak(x, y) -> int:
    """H(X, Y): the largest cross-correlation over all shifts."""
    return max(correlation(x, y, t) for t in range(len(x)))


def scalar_max_nontrivial(seqs):
    """Oracle: the plain double loop over pairs and shifts."""
    best = 0
    for i, x in enumerate(seqs):
        if len(x) >= 2:
            best = max(best, auto_peak(x))
        for y in seqs[i + 1:]:
            best = max(best, cross_peak(x, y))
    return best


def full_collision_walk(seqs, size):
    """Reference: the collision test over every position set that contains
    0, all C(n-1, size-1) of them, walked depth first in lexicographic
    order."""
    n = seqs.shape[1]
    table = np.concatenate([seqs, seqs], axis=1).astype(np.int64)
    base = int(table.max()) + 1

    def search(key, span, start, depth):
        if depth == size:
            return _repeat(key, span)
        if span * base > fhs._KEY_LIMIT:
            values, inverse = np.unique(key.ravel(), return_inverse=True)
            key, span = inverse.reshape(key.shape), len(values)
        for p in range(start, n - size + depth + 1):
            hit = search(key * base + table[:, p:p + n], span * base, p + 1, depth + 1)
            if hit is not None:
                return hit
        return None

    hit = search(table[:, :n], base, 1, 1)
    if hit is None:
        return None
    (i, s), (j, s2) = divmod(hit[0], n), divmod(hit[1], n)
    return i, j, (s2 - s) % n


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


@pytest.mark.parametrize("sequences, ell", [
    (np.array([[-1, 0]], dtype=np.int64), 2**40),
    (np.array([[2**32, 1]], dtype=np.int64), 2**40),
    (np.array([[0.0, 1.7]]), 3),
    (np.array([[True, False]]), 2),
    ([[2**32, 0]], 2**40),
    ([[2**70, 1]], 2**80),
], ids=["negative", "past-uint32", "float", "bool", "list-past-uint32", "list-object"])
def test_symbols_are_checked_before_the_cast(sequences, ell):
    # a cast to uint32 would wrap, truncate or overflow each of these
    with pytest.raises(LengthAlphabetViolation, match=rf"symbols must lie in 0\.\.{ell - 1}$"):
        FhsSet(sequences, ell)


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


def test_fhs_set_freezes_a_private_copy():
    a = np.array([[0, 1], [1, 0]], np.uint32)
    fset = FhsSet(a, 2)
    a[0, 0] = 1
    assert fset.seqs.tolist() == [[0, 1], [1, 0]]
    assert not fset.seqs.flags.writeable
    code = build_code(9, make_field(2, 3), [3, 4, 5, 6])
    reps, sizes = class_partition(code, exclude="constants")
    fset = classes_to_fhs(reps, sizes, code)
    first = fset.seqs[0].copy()
    reps[0] = reps[1]
    assert np.array_equal(fset.seqs[0], first)
    assert not fset.seqs.flags.writeable


def test_fhs_set_json_round_trip():
    fset = FhsSet([[2, 0, 1], [0, 0, 0]], 3, {"family": "B", "q": 5}, 2)
    data = fset.to_json_dict()
    # export sorts sequences lexicographically
    assert data["sequences"] == [[0, 0, 0], [2, 0, 1]]
    back = FhsSet.from_json_dict(data)
    assert (back.n, back.size, back.max_correlation, back.alphabet_size) == \
        (fset.n, fset.size, fset.max_correlation, fset.alphabet_size)
    assert back.provenance["family"] == "B"


def test_export_follows_lexsort_order():
    # symbols on both sides of each byte boundary of a uint32, so that the
    # rows' byte strings differ in every byte position
    rng = np.random.default_rng(23)
    alphabet = np.array([0, 1, 255, 256, 65535, 65536, 2**24, 2**32 - 1],
                        dtype=np.uint32)
    shapes = [(1, 1), (1, 4), (5, 1)]
    shapes += [(int(rng.integers(2, 40)), int(rng.integers(1, 6))) for _ in range(200)]
    for count, n in shapes:
        rows = np.unique(alphabet[rng.integers(0, len(alphabet), (count, n))], axis=0)
        rng.shuffle(rows)
        expected = rows[np.lexsort(rows.T[::-1])].tolist()
        assert expected == sorted(rows.tolist())
        fset = FhsSet(rows, 2**32)
        assert np.array_equal(fset.seqs, rows)  # the input order is kept
        assert fset.to_json_dict()["sequences"] == expected
        shuffled = rng.permutation(rows)
        again = FhsSet(shuffled, 2**32)
        assert np.array_equal(again.seqs, shuffled)
        assert again.to_json_dict()["sequences"] == expected


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
        lambda d: d.update(provenance=5),
        lambda d: d.update(provenance=["family", "B"]),
    ):
        data = {k: (v.copy() if isinstance(v, (dict, list)) else v) for k, v in good.items()}
        mutate(data)
        with pytest.raises(ParseError):
            FhsSet.from_json_dict(data)


def parsed(data):
    """What `FhsSet.from_json_dict` makes of `data`: the set's every field,
    or the error it raises."""
    try:
        fset = FhsSet.from_json_dict(data)
    except (ParseError, ValueError, RecursionError) as exc:
        return type(exc).__name__, str(exc)
    return (fset.seqs.tolist(), fset.order.tolist(), fset.alphabet_size,
            fset.max_correlation, fset.provenance)


def parsed_as_list(raw: bytes):
    """The oracle: the file read as text, as `open` reads it, then
    `json.loads` and the record's parsed lists."""
    try:
        data = json.loads(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8").read())
    except (ValueError, RecursionError) as exc:
        return type(exc).__name__, str(exc)
    return parsed(data)


def layouts(fset):
    """A set's record in the stored compact layout, the indented one of
    `json.dumps(indent=2)`, and build's one row per line."""
    record = fset.to_json_dict()
    return {
        "compact": json.dumps(record, separators=(",", ":"), sort_keys=True).encode(),
        "indented": (json.dumps(record, indent=2, sort_keys=True) + "\n").encode(),
        "build": fset.to_json_bytes(),
    }


def test_record_bytes_read_as_their_parsed_json():
    # every one-byte substitution, insertion and deletion of a small record
    # in each layout, and a digit inserted beside a space: the bytes give
    # the set or the error of the list path
    fset = FhsSet([[0, 1, 10], [2, 10, 1]], 11, {"family": "B", "q": 5}, 1)
    decoded = 0
    for layout, raw in layouts(fset).items():
        assert fhs._decode_record(raw) is not None, layout
        mutants = {raw[:i] + raw[i + 1:] for i in range(len(raw))}
        for i in range(len(raw) + 1):
            for byte in b'0123456789[], \n"-.eN\x0c':
                mutants.add(raw[:i] + bytes([byte]) + raw[i + 1:])
                mutants.add(raw[:i] + bytes([byte]) + raw[i:])
            for insert in (b" 7", b"7 "):  # a stray digit is one digit run too many
                mutants.add(raw[:i] + insert + raw[i:])
        for mutant in mutants:
            decoded += fhs._decode_record(mutant) is not None
            assert parsed(mutant) == parsed_as_list(mutant), mutant
    assert decoded > 1000  # the decoder itself is under test, not only its fallback


@pytest.mark.parametrize("symbol, decoded, kept", [
    (b"0", True, True), (b"9", True, True), (b"10", True, True),
    (b"99", True, True), (b"100", True, True), (b"4294967295", True, True),
    (b"4294967296", True, False), (b"9999999999", True, False),
    (b"12345678901", False, False), (b"-0", False, True),
])
def test_record_bytes_edge_symbols(symbol, decoded, kept):
    # ten digits are decoded and range-checked; eleven, or a sign, are left
    # to the list path
    raw = b'{"N":2,"ell":4294967296,"lambda":0,"n":2,"sequences":[[1,%s],[1,1]]}' % symbol
    assert (fhs._decode_record(raw) is not None) == decoded
    assert parsed(raw) == parsed_as_list(raw)
    if kept:
        assert FhsSet.from_json_dict(raw).seqs[0, 1] == int(symbol)
    else:
        with pytest.raises(ParseError, match=r"symbols must lie in 0\.\.4294967295"):
            FhsSet.from_json_dict(raw)


RECORD = b'{"N":1,"ell":4,"lambda":0,"n":2,%s}'


@pytest.mark.parametrize("fields, decoded", [
    ('"provenance":{"family":"caf\u00e9"},"sequences":[[0,1]]'.encode(), False),
    (b'"provenance":{"x":NaN},"sequences":[[0,1]]', False),
    (b'"sequences":[[1,2]],"sequences":[[0,1]]', True),  # the last key wins
    (b'"sequences":[[0,1]],"provenance":{"sequences":[[1,2]]}', False),
    (b'"sequences":[[0,1]],"p":"sequences"', False),
    (b'"sequences":[[0,1 2]]', False),
    (b'"sequences":[[0,01]]', False),
    (b'"sequences":[[,1]3]', False),
    (b'"sequences":[[0,1],[1,0]]', False),
    (b'"sequences":[[0,1]],"N":0', False),
    (b'"sequences":[[]],"n":0', False),
    (b'"sequences":[]', False),
], ids=["not-ascii", "nan", "duplicate-key", "nested-key", "key-in-string", "split",
        "leading-zero", "digit-outside", "wrong-N", "no-rows", "empty-row", "empty"])
def test_record_bytes_decline_rules(fields, decoded):
    # each but the duplicate key is left to the list path; either way the
    # bytes give the set or the error that the list path gives
    raw = RECORD % fields
    assert (fhs._decode_record(raw) is not None) == decoded
    assert parsed(raw) == parsed_as_list(raw)


# -- exhaustive sweep --------------------------------------------------------------


def test_max_nontrivial_matches_scalar_oracle():
    rng = random.Random(41)
    for _ in range(25):
        count = rng.randrange(2, 9)
        n = rng.randrange(2, 9)
        ell = rng.randrange(2, 7)
        fset = random_set(rng, count, n, ell)
        survey = max_nontrivial(fset)
        assert survey.value == scalar_max_nontrivial(fset.seqs.tolist())


def test_max_nontrivial_single_sequence():
    fset = FhsSet([[0, 1, 0, 2]], 3)
    assert max_nontrivial(fset).value == auto_peak([0, 1, 0, 2])


def test_rotation_invariance_of_sweep():
    rng = random.Random(42)
    for _ in range(20):
        fset = random_set(rng, 5, 7, 3)
        base = max_nontrivial(fset).value
        rows = fset.seqs.tolist()
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
    assert max_nontrivial(fset, budget=None).value == scalar_max_nontrivial(fset.seqs.tolist())


# -- collision certificate ------------------------------------------------------


def oracle_sets(rng):
    """Random sets; sets holding two rotations of one row (M = n); length-1
    sets (M = 0); sets whose symbols come near 2^32, so that keys would
    pass 2^62 and the re-rank and sort path runs; and longer sets over few
    symbols, M >= 2, whose walk tests L >= 3 and so scales the key of a
    last prefix at depth >= 2, some of them re-ranked at the root."""
    for _ in range(120):
        yield random_set(rng, rng.randrange(1, 7), rng.randrange(3, 8), rng.randrange(2, 5))
    for _ in range(40):
        n = rng.randrange(2, 8)
        row = [rng.randrange(3) for _ in range(n)]
        t = rng.randrange(1, n)
        rows = {tuple(row), tuple(row[t:] + row[:t])}
        rows |= set(map(tuple, random_set(rng, rng.randrange(1, 4), n, 3).seqs.tolist()))
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
    for _ in range(30):
        yield random_set(rng, rng.randrange(2, 6), rng.randrange(7, 11), rng.randrange(2, 9))
    for _ in range(30):
        palette = [ell - 1, ell - 2] + [rng.randrange(ell) for _ in range(rng.randrange(1, 5))]
        count, n = rng.randrange(2, 5), rng.randrange(7, 11)
        rows = {tuple(rng.choice(palette) for _ in range(n)) for _ in range(count)}
        yield FhsSet(sorted(rows), ell)


def test_collision_test_decides_m_at_least_l():
    rng = random.Random(44)
    for fset in oracle_sets(rng):
        rows = fset.seqs.tolist()
        m = scalar_max_nontrivial(rows)
        for size in range(1, fset.n + 2):
            hit = _collision(fset.seqs, _rotation_table(fset.seqs), size)
            assert hit == full_collision_walk(fset.seqs, size)
            assert (hit is not None) == (m >= size)
            if hit is not None:
                i, j, t = hit
                assert (i, t) != (j, 0)
                assert correlation(rows[i], rows[j], t) >= size
        exact = max_nontrivial(fset, budget=None)
        assert exact.value == m
        i, j, t = exact.witness
        assert (i, t) != (j, 0)
        assert correlation(rows[i], rows[j], t) == exact.value


def test_necklace_walk_matches_full_walk(monkeypatch):
    # value and witness equal the walk over every position set, the value
    # the scalar oracle's, on random sets with N = 1 and n = 1 included
    rng = random.Random(45)
    sets = []
    while len(sets) < 3000:
        n, count, ell = rng.randrange(1, 13), rng.randrange(1, 9), rng.randrange(1, 5)
        if ell**n >= count and (count, n) != (1, 1):
            sets.append(random_set(rng, count, n, ell))
    fast = [max_nontrivial(fset, budget=None) for fset in sets]
    monkeypatch.setattr(
        fhs, "_collision",
        lambda seqs, table, size: full_collision_walk(seqs, size),
    )
    for fset, survey in zip(sets, fast):
        full = max_nontrivial(fset, budget=None)
        assert (survey.value, survey.witness) == (full.value, full.witness)
        assert survey.value == scalar_max_nontrivial(fset.seqs.tolist())


@pytest.mark.parametrize("agree", [(0, 3), (0, 2, 4)])
def test_periodic_position_class(agree):
    # two rows over distinct symbols that agree only at shift 0, on a set
    # of positions that its rotation by 6/len(agree) maps onto itself
    x = list(range(6))
    y = [x[p] if p in agree else 6 + p for p in range(6)]
    fset = FhsSet([x, y], 12)
    table = _rotation_table(fset.seqs)
    size = len(agree)
    assert _collision(fset.seqs, table, size) == full_collision_walk(fset.seqs, size) == (0, 1, 0)
    assert _collision(fset.seqs, table, size + 1) is None
    survey = max_nontrivial(fset)
    assert (survey.value, survey.witness) == (size, (0, 1, 0))
    assert scalar_max_nontrivial(fset.seqs.tolist()) == size


def test_each_rotation_class_keyed_once(monkeypatch):
    # one row of distinct symbols never collides, so every position set
    # the walk reaches is keyed: one per rotation class of size-subsets
    keyed = []
    monkeypatch.setattr(fhs, "_repeat", lambda key, span: keyed.append(1))
    for n in range(1, 13):
        seqs = np.arange(n, dtype=np.uint32)[None, :]
        table = _rotation_table(seqs)
        for size in range(1, n + 1):
            classes = {
                min(tuple(sorted((p - s) % n for p in subset)) for s in range(n))
                for subset in itertools.combinations(range(n), size)
            }
            keyed.clear()
            assert _collision(seqs, table, size) is None
            assert len(keyed) == len(classes) == _rotation_classes(n, size)


def test_budget_counts_the_rotations_a_test_keys(monkeypatch):
    # the budget adds rotation classes * N * n per test at L: exactly what
    # a test without a collision keys, and so exactly the walk's last test
    rng = random.Random(3)
    collision = fhs._collision
    for _ in range(60):
        n, ell = rng.randint(2, 9), rng.randint(2, 4)
        rows = {tuple(rng.randrange(ell) for _ in range(n))
                for _ in range(rng.randint(1, 4))}
        fset = FhsSet(sorted(rows), ell)
        tests, keyed = [], []

        def counting_collision(seqs, table, size):
            tests.append(size)
            keyed.clear()
            return collision(seqs, table, size)

        def counting_repeat(key, span):
            keyed.append(1)
            return _repeat(key, span)

        with monkeypatch.context() as patch:
            patch.setattr(fhs, "_collision", counting_collision)
            patch.setattr(fhs, "_repeat", counting_repeat)
            survey = max_nontrivial(fset, budget=None)
        if survey.value == n:  # a full agreement: no last test
            continue
        assert tests[-1] == survey.value + 1
        assert len(keyed) == _rotation_classes(n, tests[-1])
        need = sum(_rotation_classes(n, size) for size in tests) * fset.size * n
        assert max_nontrivial(fset, budget=need).value == survey.value
        with pytest.raises(BudgetExceeded, match=f"key {need} rotations"):
            max_nontrivial(fset, budget=need - 1)


@pytest.mark.parametrize("build, last, leaves", [
    (lambda: family_c(512, 27, 0, budget=1), 2, 13),  # C(26, 1) = 26 sets
    (lambda: family_a(3, 2, budget=1), 5, 14),  # C(8, 4) = 70
    (lambda: family_b(25, budget=1), 3, 100),  # C(25, 2) = 300
    (lambda: family_c(32, 11, 1, budget=1), 4, 30),  # C(10, 3) = 120
], ids=["C512", "A8k2", "B25", "C32k1"])
def test_last_test_keys_one_set_per_rotation_class(monkeypatch, build, last, leaves):
    # the walk keys one position set per rotation class: about C(n, L)/n
    # sets at L = lambda + 1, where it finds no collision
    fset = build().fhs
    keyed = {}
    collision = fhs._collision

    def counting_collision(seqs, table, size):
        keyed[size] = 0
        return collision(seqs, table, size)

    def counting_repeat(key, span):
        keyed[max(keyed)] += 1
        return _repeat(key, span)

    monkeypatch.setattr(fhs, "_collision", counting_collision)
    monkeypatch.setattr(fhs, "_repeat", counting_repeat)
    survey = max_nontrivial(fset)
    assert survey.value == last - 1
    assert max(keyed) == last and keyed[last] == leaves


def test_walk_budget_refuses_large_m():
    # two sequences that agree on 20 of 40 positions: the nominal count is
    # small, but the test at L = 21 would key C(39, 20) * 80 rotations
    fset = FhsSet([list(range(40)), list(range(40, 60)) + list(range(20, 40))], 60)
    assert nominal_comparisons(fset) == 6400
    with pytest.raises(BudgetExceeded, match="L = 21"):
        max_nontrivial(fset)


def test_memory_refusal_under_any_budget(monkeypatch):
    # M = 1, so the walk tests L = 1 and L = 2; the test at L needs at most
    # 8 * (L + 3) bytes per rotation plus 8 per bin of the bincount floor
    fset = FhsSet([[0, 1, 2, 3, 4], [0, 2, 4, 1, 3]], 5)
    assert max_nontrivial(fset).value == scalar_max_nontrivial(fset.seqs.tolist()) == 1
    need = 8 * 5 * 10 + (8 << 20)
    monkeypatch.setattr(fhs, "_physical_memory", lambda: need - 1)
    for budget in (None, 10**10):
        with pytest.raises(BudgetExceeded, match="L = 2 needs about"):
            max_nontrivial(fset, budget=budget)
    monkeypatch.setattr(fhs, "_physical_memory", lambda: need)
    assert max_nontrivial(fset, budget=None).value == 1


def repeat_reference(flat):
    """The first two indices of the most frequent value, or None when all
    values are distinct."""
    counts = np.bincount(flat)
    if counts.max() < 2:
        return None
    return tuple(int(i) for i in np.flatnonzero(flat == counts.argmax())[:2])


@pytest.mark.parametrize("wide", [False, True])
def test_repeat_matches_flatnonzero_reference(monkeypatch, wide):
    # the first two indices of the most frequent value, or None, whether the
    # keys are counted as they are or, past the span bound, re-ranked first
    if wide:
        monkeypatch.setattr(fhs, "_BINCOUNT_FLOOR", 0)
    rng = np.random.default_rng(17)
    found = []
    for _ in range(300):
        rows, cols = int(rng.integers(1, 5)), int(rng.integers(1, 40))
        size = rows * cols
        span = 9 * size if wide else int(rng.integers(1, 4 * size + 1))
        if span >= size and rng.random() < 0.3:  # distinct keys
            flat = rng.choice(span, size=size, replace=False)
        else:
            pool = rng.choice(span, size=min(span, int(rng.integers(1, size + 1))),
                              replace=False)
            flat = rng.choice(pool, size=size)
        want = repeat_reference(flat)
        assert _repeat(flat.reshape(rows, cols).astype(np.int64), span) == want
        found.append(want is not None)
    assert 30 < sum(found) < 270

    cases = []  # (keys, span)
    for size in (1, 2, 3, 8, 60, 1000, 4096):
        # a Singleton-optimal set's keys at L = lambda + 1: every value
        # once, size == span; then one repeat planted at the first flat
        # index and one at the last, which the bitmap alone must catch
        perm = rng.permutation(size)
        cases.append((perm, size))
        for end in (0, size - 1):
            if size > 1:
                planted = perm.copy()
                planted[end] = perm[(end + int(rng.integers(1, size))) % size]
                cases.append((planted, size))
        # more keys than values: a repeat is certain, no bitmap is made
        if size > 1:
            span = int(rng.integers(1, size))
            cases.append((rng.integers(0, span, size=size), span))
        # distinct keys over a wider span
        span = 9 * size if wide else int(rng.integers(size, 4 * size + 1))
        cases.append((rng.choice(span, size=size, replace=False), span))
    for flat, span in cases:
        rows = 2 if flat.size % 2 == 0 else 1
        key = flat.reshape(rows, -1).astype(np.int64)
        assert _repeat(key, span) == repeat_reference(flat), (flat, span)


def test_repeat_of_distinct_keys_holds_only_a_bitmap():
    # the usual test at L = lambda + 1 has no repeat: the bincount branch
    # decides it with a span-byte bitmap, not 8 bytes per bin
    span = 1 << 20
    key = np.random.default_rng(5).choice(span, size=1 << 18, replace=False)
    key = key.reshape(512, 512).astype(np.int64)
    assert _repeat(key, span) is None  # numpy's first-call caches
    tracemalloc.start()
    try:
        assert _repeat(key, span) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= span + (64 << 10)


def test_root_key_multiplies_in_int64():
    # the table holds uint32 symbols, and numpy picks the multiply's loop
    # from its inputs, not from `out`: 65536 * 65537 must not wrap at 2^32
    fset = FhsSet([[65536, 0, 1], [0, 65536, 2]], 65537)
    survey = max_nontrivial(fset)
    assert (survey.value, survey.witness) == (1, (0, 1, 2))
    assert scalar_max_nontrivial(fset.seqs.tolist()) == 1


def test_wide_alphabets_match_scalar_oracle():
    # 2^16 < ell < 2^31: depth 1 keeps the table's uint32 key, which no
    # re-rank widens, so its products pass 2^32.  Wrapped at 2^32, the keys
    # of (m, 0) and (0, m * ell - 2^32) would be equal, m = ceil(2^32 / ell)
    rng = random.Random(47)
    for _ in range(60):
        ell = rng.randrange(2**16 + 1, 2**31)
        m = -(-2**32 // ell)
        palette = [0, ell - 1, m, m * ell - 2**32, rng.randrange(ell)]
        count, n = rng.randrange(1, 6), rng.randrange(2, 9)
        rows = {tuple(rng.choice(palette) for _ in range(n)) for _ in range(count)}
        fset = FhsSet(sorted(rows), ell)
        survey = max_nontrivial(fset, budget=None)
        assert survey.value == scalar_max_nontrivial(fset.seqs.tolist())
        i, j, t = survey.witness
        assert correlation(fset.seqs[i].tolist(), fset.seqs[j].tolist(), t) == survey.value


def test_nothing_outlives_the_certificate():
    # with the cyclic collector off, only reference counts free memory: the
    # table and key buffers must not sit in a cycle after the call
    fset = family_b(25, budget=1).fhs
    max_nontrivial(fset)  # numpy's first-call caches
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        survey = max_nontrivial(fset)
        left = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        if enabled:
            gc.enable()
    assert survey.value == 2
    assert left < 4096


@functools.lru_cache(maxsize=None)
def c512_rows():
    """The (27, 9709, 1; 512) set's rows, 262,143 rotations, as int64."""
    return family_c(512, 27, 0, budget=1).fhs.seqs.astype(np.int64)


def test_collision_at_l_one_keys_the_set_in_place():
    # At L = 1 each rotation is keyed by its first symbol, and C512's set
    # has N * n = 262,143 rotations over 512 symbols, so a repeat is certain
    # and one bincount locates it.  The set is C-ordered and keyed as it
    # is: the peak is bincount's intp copy of the keys, 8 bytes per
    # rotation, beside its bins, 8 bytes each.
    fset = FhsSet(c512_rows(), 512)
    assert fset.seqs.flags.c_contiguous
    rotations = fset.size * fset.n
    table = _rotation_table(fset.seqs)
    tracemalloc.start()
    try:
        hit = _collision(fset.seqs, table, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hit == full_collision_walk(fset.seqs, 1)
    assert peak <= 8 * rotations + 8 * 512 + 4096


@pytest.mark.parametrize("scale, shift, ell, branch", [
    (2, 0, 1024, "bincount"),  # 1023^2 bins, just under 4 * N * n
    (4096, 7, 2**21, "sort"),  # each leaf key past the bound: re-ranked
    (2**23, 5, 2**32, "rerank"),  # (2^32 - 2^23 + 6)^2 > 2^62 at depth 1
], ids=["bincount", "sort", "rerank"])
def test_memory_estimate_bounds_the_peak(monkeypatch, scale, shift, ell, branch):
    # M = 1, so the last test is at L = 2, whose estimate is the walk's
    # largest; tracemalloc sees every numpy buffer
    fset = FhsSet(c512_rows() * scale + shift, ell)
    rotations = fset.size * fset.n
    need = 8 * 5 * rotations + 8 * max(4 * rotations, 1 << 20)
    spans, reranked, tests = [], [], []
    repeat, rerank, collision = fhs._repeat, fhs._rerank, fhs._collision

    def spying_repeat(key, span):
        spans.append(span)
        return repeat(key, span)

    def spying_rerank(key, out):
        reranked.append(key.dtype)
        return rerank(key, out)

    def spying_collision(seqs, table, size):
        tests.append(size)
        return collision(seqs, table, size)

    monkeypatch.setattr(fhs, "_repeat", spying_repeat)
    monkeypatch.setattr(fhs, "_rerank", spying_rerank)
    tracemalloc.start()
    try:
        survey = max_nontrivial(fset, budget=None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    i, j, t = survey.witness
    assert survey.value == correlation(fset.seqs[i].tolist(), fset.seqs[j].tolist(), t) == 1
    bincount = [span <= max(4 * rotations, 1 << 20) for span in spans]
    if branch == "bincount":
        assert 2 * rotations < spans[-1] <= 4 * rotations
        assert reranked == []
    else:
        # every leaf key is re-ranked: the set's uint32 key at L = 1, then
        # the int64 buffers at L = 2, after the root's in "rerank"
        assert not any(bincount)
        root = [np.uint32] if branch == "rerank" else []
        assert reranked == [np.uint32, *root] + [np.int64] * (len(spans) - 1)
    assert peak <= need

    monkeypatch.setattr(fhs, "_collision", spying_collision)
    monkeypatch.setattr(fhs, "_physical_memory", lambda: need - 1)
    with pytest.raises(BudgetExceeded, match="L = 2 needs about"):
        max_nontrivial(fset, budget=None)
    assert tests == [1]  # refused before the test at L = 2 allocates
    monkeypatch.setattr(fhs, "_physical_memory", lambda: need)
    assert max_nontrivial(fset, budget=None).value == 1


def test_rotation_count_refusal_under_any_budget(monkeypatch):
    # keys could overflow past 2^30 rotations; a smaller limit stands in
    fset = FhsSet([[0, 1, 2], [1, 1, 0]], 3)
    monkeypatch.setattr(fhs, "_MAX_ROTATIONS", 5)
    with pytest.raises(BudgetExceeded, match="6 rotations"):
        max_nontrivial(fset, budget=None)
    monkeypatch.setattr(fhs, "_MAX_ROTATIONS", 6)
    assert max_nontrivial(fset, budget=None).value == scalar_max_nontrivial(fset.seqs.tolist())


# -- orbit conversion ---------------------------------------------------------------


def test_classes_to_fhs_example():
    F8 = make_field(2, 3)
    code = build_code(9, F8, [3, 4, 5, 6])
    reps, sizes = class_partition(code, exclude="constants")
    fset = classes_to_fhs(reps, sizes, code)
    assert (fset.n, fset.size, fset.alphabet_size) == (9, 3640, 8)
    assert fset.provenance == {"family": "imported", "mode": "nonconstant"}
    assert np.array_equal(fset.seqs, reps)  # one sequence per orbit, in order
    assert len(np.unique(fset.seqs, axis=0)) == 3640


def test_classes_to_fhs_nonzero_mode():
    F32 = make_field(2, 5)
    code = build_code(11, F32, [j for j in range(11) if j not in (5, 6)])
    reps, sizes = class_partition(code)  # 0 is in Z: only zero is constant
    fset = classes_to_fhs(reps, sizes, code)
    assert (fset.n, fset.size, fset.alphabet_size) == (11, 93, 32)
    assert fset.provenance["mode"] == "nonzero"
    assert max_nontrivial(fset).value == 1
    # n = 1: 0 is not in Z, but every word is constant, so the orbits are the
    # nonzero ones, which the partition excludes; every orbit, zero dropped
    full = build_code(1, make_field(2, 2), [])
    walk, sizes = cyclic._orbits(full, census(full))
    nonzero = walk.any(axis=0)
    fset = classes_to_fhs(walk.T[nonzero], sizes[nonzero], full)
    assert fset.seqs.tolist() == [[1], [2], [3]]
    assert fset.provenance["mode"] == "nonzero"


def test_classes_to_fhs_requires_long_code():
    # n <= q: the nonconstant mode is undefined
    F8 = make_field(2, 3)
    code = build_code(7, F8, [1, 2, 4])
    reps, sizes = class_partition(code, exclude="constants")
    with pytest.raises(LengthAlphabetViolation):
        classes_to_fhs(reps, sizes, code)


def test_classes_to_fhs_predicate_failure():
    F8 = make_field(2, 3)
    code = build_code(9, F8, [4, 5])
    with pytest.raises(PredicateFailed):
        classes_to_fhs(np.zeros((0, 9)), np.zeros(0), code)


def test_classes_to_fhs_rejects_short_orbits():
    F8 = make_field(2, 3)
    code = build_code(9, F8, [3, 4, 5, 6])
    walk, sizes = cyclic._orbits(code, census(code))
    reps = walk.T  # every orbit, the size-1 constants included
    with pytest.raises(ClassSizeNotFull):
        classes_to_fhs(reps, sizes, code)
    with pytest.raises(EmptySet):
        classes_to_fhs(reps[:0], sizes[:0], code)
