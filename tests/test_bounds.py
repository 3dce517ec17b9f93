import itertools
import random
import time
import tracemalloc
from fractions import Fraction
from math import ceil

import numpy as np
import pytest

from fhsforge import bounds
from fhsforge.bounds import (
    optimality_report,
    peng_fan_1,
    peng_fan_2,
    pf_identity_sweep,
    singleton_max_size,
)
from fhsforge.errors import (
    BoundTooLarge,
    DegenerateParameters,
    InconsistentParameters,
    PreconditionViolated,
)


def pf_reference(n, count, ell):
    """Oracle: arbitrary-precision rational ceilings."""
    nn = n * count
    big_i = nn // ell
    pf1 = ceil(Fraction((nn - ell) * n, (nn - 1) * ell))
    pf2 = ceil(Fraction(2 * big_i * nn - (big_i + 1) * big_i * ell, (nn - 1) * count))
    return pf1, pf2


# -- Peng-Fan lower bounds ---------------------------------------------------------


def test_peng_fan_example_values():
    assert peng_fan_1(26, 600, 25) == 2
    assert peng_fan_2(26, 600, 25) == 2
    assert peng_fan_1(6, 20, 5) == 2  # ceil(690/595)
    assert peng_fan_2(6, 20, 5) == 2


def test_peng_fan_zero_when_alphabet_covers_everything():
    # ell = nN gives I = 1 and both ceilings 0
    for n, count in [(4, 3), (5, 5), (7, 2)]:
        ell = n * count
        assert peng_fan_1(n, count, ell) == 0
        assert peng_fan_2(n, count, ell) == 0


def test_peng_fan_against_rational_reference():
    rng = random.Random(61)
    for _ in range(10_000):
        n = rng.randrange(1, 50)
        count = rng.randrange(1, 250)
        ell = rng.randrange(1, 80)
        if n * count < 2:
            continue
        assert (peng_fan_1(n, count, ell), peng_fan_2(n, count, ell)) == \
            pf_reference(n, count, ell)


def test_peng_fan_degenerate():
    with pytest.raises(DegenerateParameters):
        peng_fan_1(1, 1, 1)
    with pytest.raises(DegenerateParameters):
        peng_fan_2(0, 5, 5)


# -- Singleton upper bound -----------------------------------------------------------


def test_singleton_values():
    assert singleton_max_size(26, 2, 25) == 600
    assert singleton_max_size(9, 2, 8) == 56
    assert singleton_max_size(7, 0, 15) == 2  # floor(ell / n)
    assert singleton_max_size(17, 16, 16) == 17361641481138401520


def test_singleton_monotonicity():
    rng = random.Random(62)
    for _ in range(500):
        n = rng.randrange(2, 40)
        lam = rng.randrange(1, n)
        ell = rng.randrange(2, 40)
        v = singleton_max_size(n, lam, ell)
        assert singleton_max_size(n, lam - 1, ell) <= v
        assert singleton_max_size(n, lam, ell + 1) >= v
        if n > 2 and lam < n - 1:
            assert singleton_max_size(n - 1, lam, ell) >= v


def test_bound_preconditions():
    with pytest.raises(PreconditionViolated):
        singleton_max_size(5, 5, 4)
    with pytest.raises(PreconditionViolated):
        singleton_max_size(5, 2, 1)


# -- the two-bound identity -----------------------------------------------------------


def test_pf_identity_sweep_small_grid():
    report = pf_identity_sweep(12, 40, 20)
    assert report.ok
    assert report.counterexamples == ()
    assert report.triples_checked > 5000


def test_pf_identity_trivial_grid():
    report = pf_identity_sweep(1, 1, 1)
    assert report.ok
    assert report.triples_checked == 0  # nN = 1 < 2 everywhere


def scalar_pf_cell(n, count, ell, mutate=None):
    """Oracle: the triple check of one cell (n, N, ell), 2 <= nN, ell <= nN,
    in plain Python integers: the reported tuple, or None when the cell
    holds.  `mutate`, if given, maps (a1, b1, a2, b2) to the values checked."""
    nn = n * count
    big_i, j = divmod(nn, ell)
    a1 = (nn - ell) * n
    b1 = (nn - 1) * ell
    a2 = 2 * big_i * nn - (big_i + 1) * big_i * ell
    b2 = (nn - 1) * count
    if mutate is not None:
        a1, b1, a2, b2 = mutate(a1, b1, a2, b2)
    if (
        -(-a1 // b1) != -(-a2 // b2)
        or a2 * ell - a1 * count != (ell - j) * j
        or a2 * ell < a1 * count
    ):
        return (n, count, ell, -(-a1 // b1), -(-a2 // b2))
    return None


def scalar_pf_sweep(n_max, count_max, ell_max, mutate=None):
    """Oracle: `scalar_pf_cell` on every grid triple with nN >= max(ell, 2)."""
    checked = 0
    bad = []
    for n in range(1, n_max + 1):
        for count in range(1, count_max + 1):
            nn = n * count
            if nn < 2:
                continue
            for ell in range(1, min(ell_max, nn) + 1):
                checked += 1
                cell = scalar_pf_cell(n, count, ell, mutate)
                if cell is not None:
                    bad.append(cell)
    return checked, tuple(sorted(bad))


# The int32 bound as the sweep has it, and 0, under which every grid runs in int64.
INT32_BOUNDS = (bounds._SWEEP_INT32_MAX_NN, 0)


def test_pf_sweep_matches_scalar_oracle(monkeypatch):
    # (3, 5, 100) has ell_max > n * N_max; (7, 3, 25) and (4, 9, 50) have
    # ell_max above some chunk's largest nN, and chunks of 7 pairs that
    # straddle an n boundary; every tile is a non-empty suffix with
    # nN >= ell, ell a scalar of the tile's dtype, and its pair terms are
    # the suffix's own
    tile_fn = bounds._sweep_tile

    def spy(n, count, ell, terms, scratch):
        assert n.dtype == count.dtype == np.asarray(ell).dtype and np.ndim(ell) == 0
        assert count.size and (n * count >= ell).all()
        assert all(t.dtype == n.dtype for t in terms)
        assert all((t == want).all() for t, want in zip(terms, bounds._pair_terms(n, count)))
        return tile_fn(n, count, ell, terms, scratch)

    monkeypatch.setattr(bounds, "_sweep_tile", spy)
    for int32_max_nn, tile in itertools.product(INT32_BOUNDS, (bounds._SWEEP_TILE, 7, 1)):
        monkeypatch.setattr(bounds, "_SWEEP_INT32_MAX_NN", int32_max_nn)
        monkeypatch.setattr(bounds, "_SWEEP_TILE", tile)
        for grid in [(1, 1, 1), (1, 7, 3), (3, 5, 100), (10, 30, 15), (12, 40, 20),
                     (7, 3, 25), (4, 9, 50)]:
            report = pf_identity_sweep(*grid)
            want = scalar_pf_sweep(*grid)
            assert (report.triples_checked, report.counterexamples) == want


def test_pf_sweep_over_many_n():
    # n = 2..2^19 + 1 at N = 1, ell = 1: 2^19 triples, past the old n cap
    report = pf_identity_sweep(2**19 + 1, 1, 1)
    assert report.ok and report.triples_checked == 2**19


def test_int32_bound_is_the_largest_that_fits():
    # every value a tile computes is at most M^2, M = n_max * N_max
    m = bounds._SWEEP_INT32_MAX_NN
    assert m**2 <= np.iinfo(np.int32).max < (m + 1) ** 2


@pytest.mark.parametrize("grid,dtype", [
    ((1, 46340, 1), "int32"),  # ell = 1 at the largest nN: a2 = nN(nN - 1) < M^2
    ((1, 46341, 1), "int64"),
    ((2, 23170, 3), "int32"),
    ((2, 23171, 3), "int64"),
    ((181, 181, 2), "int32"),
    ((3, 15447, 2), "int64"),
], ids=lambda value: value if isinstance(value, str) else "-".join(map(str, value)))
def test_pf_sweep_on_each_side_of_the_int32_bound(monkeypatch, grid, dtype):
    dtypes = set()
    tile = bounds._sweep_tile

    def spy(n, count, ell, terms, scratch):
        dtypes.add(count.dtype)
        return tile(n, count, ell, terms, scratch)

    monkeypatch.setattr(bounds, "_sweep_tile", spy)
    report = pf_identity_sweep(*grid)
    assert dtypes == {np.dtype(dtype)}
    assert (report.triples_checked, report.counterexamples) == scalar_pf_sweep(*grid)


@pytest.mark.parametrize("int32_max_nn", INT32_BOUNDS, ids=["int32", "int64"])
@pytest.mark.parametrize("extra", [0, 1], ids=["one-chunk", "one-chunk-and-a-pair"])
def test_pf_sweep_on_each_side_of_a_full_chunk(monkeypatch, int32_max_nn, extra):
    # N = 2..N_max at n = 1: exactly one chunk's pairs, or one pair more,
    # which the next chunk checks alone; the tiles fill the scratch buffers
    # and every value they hold is right
    monkeypatch.setattr(bounds, "_SWEEP_INT32_MAX_NN", int32_max_nn)
    dtype, step = (np.int32, bounds._SWEEP_TILE) if int32_max_nn else \
        (np.int64, bounds._SWEEP_TILE // 2)
    sizes = []
    tile = bounds._sweep_tile

    def spy(n, count, ell, terms, scratch):
        assert count.dtype == dtype and all(s.size == step for s in scratch)
        sizes.append(count.size)
        return tile(n, count, ell, terms, scratch)

    monkeypatch.setattr(bounds, "_sweep_tile", spy)
    grid = (1, step + 1 + extra, 3)
    report = pf_identity_sweep(*grid)
    assert sizes == [step, step, step - 1] + [1, 1, 1] * extra
    assert (report.triples_checked, report.counterexamples) == scalar_pf_sweep(*grid)


def test_pf_tile_extreme_cells_agree_in_both_dtypes():
    # Cells (n, N, ell) with 2 <= nN <= M and ell <= nN, M the int32 bound,
    # where the bound's terms peak: a2 = nN(nN - 1) at nN = M, ell = 1, and
    # a1 = (M - 1)*M at n = nN = M, ell = 1, b1 = (M - 1)*M at ell = nN = M.
    # With them, the ends of the lemma behind c1 = ceil(a1/b1) in {k - 1, k},
    # k = ceil(n/ell): N = 1 with ell = n, where a1 = 0; ell = 1, where
    # a1/b1 = n exactly; ell | n with N >= 2; and ell = nN.
    m = bounds._SWEEP_INT32_MAX_NN
    ns = (1, 2, 181, m // 3, m // 2, m)
    pairs = [
        (n, c) for n in ns
        for c in sorted({1, 2, 3, m // (2 * n), m // n - 1, m // n} & set(range(1, m // n + 1)))
        if n * c >= 2
    ]
    cells = {(n, c, ell) for n, c in pairs for ell in {1, 2, 3, *ns, m - 1, n * c}
             if ell <= n * c}
    cells |= {(n, 1, n) for n in ns if n >= 2}
    cells |= {(n, c, d) for n, c in pairs if c >= 2
              for d in range(1, n + 1) if n % d == 0}
    for ell in sorted({cell[2] for cell in cells}):
        inside = sorted((n, c) for n, c, e in cells if e == ell)
        want = [scalar_pf_cell(n, c, ell) for n, c in inside]
        assert want == [None] * len(inside)
        results = []
        for dtype in (np.int32, np.int64):
            n, count = np.array(inside, dtype=dtype).T
            results.append(bounds._sweep_tile(
                n, count, dtype(ell), bounds._pair_terms(n, count),
                bounds._sweep_scratch(dtype, n.size)))
        assert results[0] == results[1] == (len(inside), []), ell


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_pf_tile_terms_keep_the_tile_dtype(dtype):
    # an int32 tile silently widened to int64 would pass every oracle test
    # and only run slower.  The terms and every buffer keep the tile's
    # dtype, the fractions are written into their buffers, and a tile
    # allocates less than a byte per cell: a ufunc whose operands differ
    # in dtype, an int64 scalar among int32 arrays say, fills a cast buffer
    # of its own of 8,192 values.
    n = np.arange(1, 8193, dtype=dtype) % 7 + 1
    count = np.arange(8192, dtype=dtype) % 5 + 2
    ell = dtype(2)
    terms = bounds._pair_terms(n, count)
    scratch = bounds._sweep_scratch(dtype, n.size)
    fractions = bounds._pf_fractions(n, count, ell, terms, scratch[:4])
    assert all(f is s for f, s in zip(fractions, scratch[:4])) and fractions[4] is terms[3]
    assert [t.dtype for t in (*terms, *fractions, *scratch[:7])] == [np.dtype(dtype)] * 16
    assert [s.dtype for s in scratch[7:]] == [np.dtype(bool)] * 2
    tracemalloc.start()
    try:
        assert bounds._sweep_tile(n, count, ell, terms, scratch) == (n.size, [])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n.size


@pytest.mark.parametrize("int32_max_nn", INT32_BOUNDS, ids=["int32", "int64"])
@pytest.mark.parametrize("mutate", [
    lambda a1, b1, a2, b2: (a1, b1, a2 + 1, b2),
    lambda a1, b1, a2, b2: (a1, b1, a2, b2 + 1),
    lambda a1, b1, a2, b2: (a1 + 1, b1, a2, b2),
    lambda a1, b1, a2, b2: (a1 - 1, b1, a2, b2),
    lambda a1, b1, a2, b2: (a1, b1 + 1, a2, b2),
], ids=["a2+1", "b2+1", "a1+1", "a1-1", "b1+1"])
def test_pf_sweep_reports_the_oracles_counterexamples(monkeypatch, int32_max_nn, mutate):
    # a wrong formula must show: a2 + 1 and a1 +- 1 break the identity in
    # every cell, b2 + 1 and b1 + 1 only the ceilings, in some cells; the
    # a1 and b1 mutations feed the tile's ceiling c1, which the lemma takes
    # from ceil(n/ell).  (b1 - 1 is left out: at nN = 2, ell = 1 it is 0.)
    monkeypatch.setattr(bounds, "_SWEEP_INT32_MAX_NN", int32_max_nn)
    fractions = bounds._pf_fractions

    def mutated(n, count, ell, terms, out=None):
        big_i, *rest = fractions(n, count, ell, terms, out)
        return (big_i, *mutate(*rest))

    monkeypatch.setattr(bounds, "_pf_fractions", mutated)
    for tile in (bounds._SWEEP_TILE, 7):
        monkeypatch.setattr(bounds, "_SWEEP_TILE", tile)
        for grid in [(3, 5, 100), (10, 30, 15)]:
            report = pf_identity_sweep(*grid)
            want = scalar_pf_sweep(*grid, mutate=mutate)
            assert want[1] and not report.ok
            assert (report.triples_checked, report.counterexamples) == want


@pytest.mark.parametrize("int32_max_nn", INT32_BOUNDS, ids=["int32", "int64"])
def test_pf_sweep_makes_no_per_tile_temporaries(monkeypatch, int32_max_nn):
    # M = 40,000: three chunks of 2^14 pairs in int32, five of 2^13 in
    # int64, and 60 tiles in each.  The peak is one chunk's arrays (the
    # pair index, n, N, nN, the four pair terms and the int64 sort order)
    # with the last chunk's pair terms, which the new ones replace, beside
    # the sweep's nine scratch buffers, and a slack of half of one more
    # array of a chunk's pairs
    monkeypatch.setattr(bounds, "_SWEEP_INT32_MAX_NN", int32_max_nn)
    monkeypatch.setattr(bounds, "_SWEEP_TILE", 1 << 14)
    itemsize, step = (4, 1 << 14) if int32_max_nn else (8, 1 << 13)
    grid = (5, 8000, 60)
    assert (40_000 <= bounds._SWEEP_INT32_MAX_NN) == (itemsize == 4)
    tracemalloc.start()
    try:
        report = pf_identity_sweep(*grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok
    chunk = (12 * itemsize + 8) * step
    scratch = (7 * itemsize + 2) * step
    assert peak <= chunk + scratch + itemsize * step // 2


def test_pf_sweep_benchmark_grid_count():
    # the grid and count that perfbench's paper-build checks: a kernel change
    # that alters the count fails here first
    report = pf_identity_sweep(80, 400, 120)
    assert report.ok and report.triples_checked == 3_808_774


def test_pf_sweep_refuses_overflowing_grid():
    with pytest.raises(DegenerateParameters):
        pf_identity_sweep(1 << 15, (1 << 15) + 1, 1)


def test_pf_sweep_caps_are_inclusive(monkeypatch):
    monkeypatch.setattr(bounds, "_SWEEP_MAX_CELLS", 12)
    assert pf_identity_sweep(12, 1, 1).ok  # 12 * 1 cells
    assert pf_identity_sweep(2, 3, 2).ok  # 6 * 2 = 12 cells
    for grid in [(13, 1, 1), (2, 3, 3), (1, 4, 4)]:  # 13 * 1; 6 * 3 = 18; 4 * 4
        with pytest.raises(BoundTooLarge):
            pf_identity_sweep(*grid)


def test_exact_equality_when_ell_divides():
    # J = 0 makes the two bounds equal as rationals, not just as ceilings
    for n, count, ell in [(4, 6, 8), (9, 56, 8), (26, 600, 25), (5, 4, 10)]:
        nn = n * count
        assert nn % ell == 0
        big_i = nn // ell
        pf1 = Fraction((nn - ell) * n, (nn - 1) * ell)
        pf2 = Fraction(2 * big_i * nn - (big_i + 1) * big_i * ell, (nn - 1) * count)
        assert pf1 == pf2


def test_both_ceilings_one_when_n_at_most_ell():
    rng = random.Random(63)
    found = 0
    for _ in range(2000):
        n = rng.randrange(2, 30)
        ell = rng.randrange(n, 60)
        count = rng.randrange(1, 100)
        if not (n * count > ell and ell % 1 == 0 and n * count % ell != 0):
            continue
        assert peng_fan_1(n, count, ell) == 1
        assert peng_fan_2(n, count, ell) == 1
        found += 1
    assert found > 100


# -- reports ---------------------------------------------------------------------------


def test_report_family_b_q25():
    report = optimality_report(26, 600, 25, 2)
    assert report.meets_peng_fan
    assert report.meets_singleton
    assert (report.I, report.J) == (624, 0)


def test_report_family_a_q8_k1():
    # pf2(9, 56, 8) evaluates to 2 = lambda, so this instance meets both
    # the Singleton and the Peng-Fan bound
    report = optimality_report(9, 56, 8, 2)
    assert report.pf1 == report.pf2 == 2
    assert report.meets_singleton
    assert report.meets_peng_fan


def test_report_family_a_q8_k2_misses_peng_fan():
    report = optimality_report(9, 3640, 8, 4)
    assert report.meets_singleton
    assert report.pf2 == 2
    assert not report.meets_peng_fan


def test_report_dropped_sequence_loses_optimality():
    report = optimality_report(26, 599, 25, 2)
    assert not report.meets_singleton


def test_report_json_shape():
    data = optimality_report(11, 93, 32, 1).to_json_dict()
    # the report is a function of (n, N, ell, lambda) alone: two bounds and
    # what meets them, no record of how lambda was found
    assert set(data) == {"n", "N", "ell", "lambda", "I", "J", "pf1", "pf2",
                         "singleton_max_N", "meets"}
    assert data["meets"] == {"peng_fan": True, "singleton": True}
    assert data["singleton_max_N"] == "93"
    assert data["lambda"] == 1


def test_report_inconsistent_parameters():
    with pytest.raises(InconsistentParameters):
        optimality_report(9, 56, 8, 9)
    with pytest.raises(InconsistentParameters):
        optimality_report(9, 56, 1, 2)


def test_report_values_past_the_printable_digits():
    # A q=2^11 to 2^14 k=1, and n = 3,000,000 over two symbols, report at
    # once: no value of theirs comes near the printable digits
    start = time.monotonic()
    for args in [(2049, 4192256, 2048, 2), (4097, 16773120, 4096, 2),
                 (16385, 268402688, 16384, 2), (3_000_000, 1, 2, 1)]:
        report = optimality_report(*args)
        assert report.singleton_max_N == singleton_max_size(args[0], args[3], args[2])
        assert report.to_json_dict()["singleton_max_N"] == str(report.singleton_max_N)
    # a Singleton value or an nN past the printable digits is refused
    # before any work
    with pytest.raises(BoundTooLarge, match="Singleton"):
        optimality_report(100_000, 1, 2, 99_999)
    with pytest.raises(BoundTooLarge, match="nN"):
        optimality_report(10, 10**4300, 2, 1)
    assert time.monotonic() - start < 2.0


def test_printable_test_is_exact_at_the_boundary():
    # the bit-length shortcut never decides against the exact comparison
    limit = 10**bounds.PRINTABLE_DIGITS
    for a, n in [(2, 1), (2, 3_000_000), (3, 5), (1024, 4097), (2048, 2049),
                 (7, 100), (16384, 16385)]:
        below = lambda x: a**x < limit * n
        x0 = next(x for x in itertools.count(1, 16) if not below(x))
        xs = range(x0 - 40, x0 + 40)
        assert below(xs[0]) and not below(xs[-1])
        for x in xs:
            assert bounds._below_printable(a, x, n) == below(x), (a, x, n)
