"""Exact lower/upper bounds on FHS set parameters, all in integer arithmetic.

For a set of N length-n sequences over ell symbols, two classical lower
bounds on the maximum nontrivial Hamming correlation are

    PF1 = (nN - ell) * n / ((nN - 1) * ell)
    PF2 = (2*I*nN - (I+1)*I*ell) / ((nN - 1) * N),   I = floor(nN / ell),

and their ceilings coincide whenever nN >= ell.  Writing nN = I*ell + J,
the exact difference is PF2 - PF1 = (ell - J)*J / ((nN - 1) * ell * N);
cross-multiplied by the common denominator this is a pure integer identity,
which is what the sweep checks, one ell at a time over chunks of (n, N)
pairs, in int32 when its grid provably fits and in int64 otherwise, every
tile in the same scratch buffers.  As PF1 lies within 1 below n/ell, its
ceiling is ceil(n/ell) or one less, so the sweep divides only by the
scalar ell.  The Singleton bound caps the set size N from above.  No
floating point anywhere in this module.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    BoundTooLarge,
    DegenerateParameters,
    InconsistentParameters,
    PreconditionViolated,
)

# A report prints its values in full, and Python's default int-to-str limit
# is 4300 digits.
PRINTABLE_DIGITS = 4300


def _ceil_ratio(a: int, b: int) -> int:
    # exact ceiling of a/b for b > 0, any sign of a; for a >= 0 the
    # dividend stays non-negative, where numpy divides fastest
    return (a + b - 1) // b


def _pair_terms(n, count):
    """(nN, nN - 1, 2nN, (nN - 1)*N): the terms of `_pf_fractions` that do
    not depend on ell, for Python ints and integer numpy arrays alike."""
    nn = n * count
    nn1 = nn - 1
    return nn, nn1, 2 * nn, nn1 * count


def _pf_fractions(n, count, ell, terms, out=None):
    """(I, a1, b1, a2, b2) with I = floor(nN / ell), PF1 = a1/b1 and
    PF2 = a2/b2; `terms` is `_pair_terms(n, count)`.  PF2's numerator
    2*I*nN - (I+1)*I*ell is taken as I*(2nN - (I+1)*ell).

    Without `out`, for Python ints of any size.  With `out`, four arrays of
    the terms' shape and dtype, for integer numpy arrays: I, a1, b1 and a2
    are written into them, in the same steps, and no array is allocated
    (numpy's // floors like Python's)."""
    nn, nn1, nn2, b2 = terms
    if out is None:
        big_i = nn // ell
        return big_i, (nn - ell) * n, nn1 * ell, big_i * (nn2 - (big_i + 1) * ell), b2
    big_i, a1, b1, a2 = out
    np.floor_divide(nn, ell, out=big_i)
    np.subtract(nn, ell, out=a1)
    a1 *= n
    np.multiply(nn1, ell, out=b1)
    np.add(big_i, 1, out=a2)
    a2 *= ell
    np.subtract(nn2, a2, out=a2)
    a2 *= big_i
    return big_i, a1, b1, a2, b2


def peng_fan_1(n: int, count: int, ell: int) -> int:
    """Ceiling of the first Peng-Fan lower bound on M(F)."""
    _check_pf(n, count, ell)
    _, a1, b1, _, _ = _pf_fractions(n, count, ell, _pair_terms(n, count))
    return _ceil_ratio(a1, b1)


def peng_fan_2(n: int, count: int, ell: int) -> int:
    """Ceiling of the second Peng-Fan lower bound on M(F)."""
    _check_pf(n, count, ell)
    _, _, _, a2, b2 = _pf_fractions(n, count, ell, _pair_terms(n, count))
    return _ceil_ratio(a2, b2)


def _check_pf(n, count, ell):
    if n < 1 or count < 1 or ell < 1 or n * count < 2:
        raise DegenerateParameters(
            f"need n, N, ell >= 1 and nN >= 2, got ({n}, {count}, {ell})"
        )


def singleton_max_size(n: int, lam: int, ell: int) -> int:
    """Upper bound on N from the Singleton bound: floor(ell^(lam+1) / n)."""
    if not (0 <= lam < n and ell > 1):
        raise PreconditionViolated(
            f"need 0 <= lambda < n and ell > 1, got ({n}, {lam}, {ell})"
        )
    return ell ** (lam + 1) // n


def _printable_digits() -> int:
    """The digits a report may print: PRINTABLE_DIGITS, or the interpreter's
    int-to-str limit when that is lower (0 means no limit), read at report
    time because PYTHONINTMAXSTRDIGITS can lower it."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # from 3.10.7
    return min(PRINTABLE_DIGITS, limit) if limit else PRINTABLE_DIGITS


def _below_printable(a: int, x: int, n: int) -> bool:
    """Whether a^x < 10^D * n, D = `_printable_digits()`, for a >= 2 and
    n >= 1.  As 64 log2(a) >= bl(a^64) - 1, bl the bit length, a wide gap
    answers no before the power is taken."""
    printable = 10 ** _printable_digits()
    gap = x * ((a**64).bit_length() - 1)
    if gap >= 64 * (n.bit_length() + printable.bit_length()):
        return False
    return a**x < printable * n


def check_printable(n: int, ell: int, lam: int, count: int = 1) -> None:
    """Refuse (`BoundTooLarge`) an nN or Singleton's N of over D digits,
    D = `_printable_digits()`.  The families call it at N = 1, before
    their claimed N's power is taken."""
    digits = _printable_digits()
    if n * count >= 10**digits or not _below_printable(ell, lam + 1, n):
        raise BoundTooLarge(f"nN or Singleton's N has over {digits} digits")


@dataclass(frozen=True)
class BoundReport:
    n: int
    N: int
    ell: int
    lam: int
    I: int
    J: int
    pf1: int
    pf2: int
    singleton_max_N: int
    meets_peng_fan: bool
    meets_singleton: bool

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "N": self.N,
            "ell": self.ell,
            "lambda": self.lam,
            "I": self.I,
            "J": self.J,
            "pf1": self.pf1,
            "pf2": self.pf2,
            "singleton_max_N": str(self.singleton_max_N),
            "meets": {
                "peng_fan": self.meets_peng_fan,
                "singleton": self.meets_singleton,
            },
        }


def optimality_report(n: int, count: int, ell: int, lam: int) -> BoundReport:
    """Evaluate the Peng-Fan and Singleton bounds at (n, N, ell, lambda) and
    record which are met.

    Refused (`BoundTooLarge`) before any work when nN or the Singleton value
    has more than D digits, D = PRINTABLE_DIGITS or the interpreter's lower
    int-to-str limit."""
    if n < 1 or count < 1 or ell <= 1 or not 0 <= lam < n or n * count < 2:
        raise InconsistentParameters(
            f"parameters ({n}, {count}, {lam}; {ell}) are out of range"
        )
    check_printable(n, ell, lam, count)
    big_i, j = divmod(n * count, ell)
    pf1 = peng_fan_1(n, count, ell)
    pf2 = peng_fan_2(n, count, ell)
    singleton = singleton_max_size(n, lam, ell)
    return BoundReport(
        n=n,
        N=count,
        ell=ell,
        lam=lam,
        I=big_i,
        J=j,
        pf1=pf1,
        pf2=pf2,
        singleton_max_N=singleton,
        meets_peng_fan=(lam == pf2),
        meets_singleton=(count == singleton),
    )


@dataclass(frozen=True)
class PfSweepReport:
    n_max: int
    N_max: int
    ell_max: int
    triples_checked: int
    counterexamples: tuple[tuple, ...]

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def to_json_dict(self) -> dict:
        return {
            "grid": {"n_max": self.n_max, "N_max": self.N_max, "ell_max": self.ell_max},
            "triples_checked": self.triples_checked,
            "counterexamples": [list(c) for c in self.counterexamples],
            "ok": self.ok,
        }


# Pairs (n, N) per int32 chunk of the sweep, and so at most as many cells
# per numpy tile; an int64 chunk holds half as many, so that each scratch
# buffer takes 128 KiB in either dtype.  A tile allocates nothing, so a
# larger one saves calls and costs no heap traffic.  In process on a
# 2-core guest, (80, 400, 120) took about 20 ms in tiles of 2^14 to 2^16
# pairs and 28-37 ms in tiles of 2^13, and (2, 23170, 2048) and
# (2, 32768, 1024) were fastest at 2^15.
_SWEEP_TILE = 1 << 15
# The largest M = n_max * N_max swept: no value a tile computes passes
# M^2 = 2^60 (see `pf_identity_sweep`).
_SWEEP_MAX_NN = 1 << 30
# The largest M = n_max * N_max swept in int32: the largest M with M^2 < 2^31.
_SWEEP_INT32_MAX_NN = 46340
# The runaway cap, refused before any work.  On a 2-core guest the sweep
# costs at most about 20 ns per int64 cell, and the largest accepted grids
# take about 11 s.
_SWEEP_MAX_CELLS = 1 << 29


def _sweep_scratch(dtype, size: int) -> list[np.ndarray]:
    """The scratch buffers of `_sweep_tile`, `size` cells each: seven
    arrays of `dtype` and two bool masks."""
    return [*np.empty((7, size), dtype=dtype), *np.empty((2, size), dtype=bool)]


def _sweep_tile(n, count, ell, terms, scratch) -> tuple[int, list[tuple]]:
    """Check the triples (n[i], count[i], ell) of one tile, on the same
    formulas as `peng_fan_1` and `peng_fan_2`: `n` and `count` are flat
    arrays of one integer dtype, with n*count >= ell everywhere, `terms` is
    `_pair_terms(n, count)`, and `ell` is a scalar of that dtype, so that
    every division is by a scalar.  Every value is written into `scratch`
    (`_sweep_scratch`), so the tile allocates no array of its own.

    Two divisions per cell, both by ell: I = nN // ell and k - 1 =
    (n - 1) // ell, k = ceil(n/ell).  As n/ell - a1/b1 =
    n(ell - 1)/(ell(nN - 1)) lies in [0, 1] (see `pf_identity_sweep`),
    c1 = ceil(a1/b1) is k - 1 when (k - 1)*b1 - a1 >= 0 and k otherwise.
    The rest are products: J = nN - I*ell, and c2 == c1 iff
    0 <= c1*b2 - a2 < b2, exact as b2 = (nN - 1)*N >= 1, and one unsigned
    comparison.  Both ceilings of a reported cell are taken again in
    Python ints."""
    big_i, a1, b1, a2, c1, x, y, wrong, mask = (s[:count.size] for s in scratch)
    big_i, a1, b1, a2, b2 = _pf_fractions(n, count, ell, terms, (big_i, a1, b1, a2))
    np.subtract(n, 1, out=c1)
    c1 //= ell
    np.multiply(c1, b1, out=x)
    x -= a1
    # -1 where x < 0 and 0 elsewhere, by its sign bit: adding a bool mask
    # to c1 instead would allocate a cast buffer in every tile
    x >>= x.itemsize * 8 - 1
    c1 -= x
    np.multiply(c1, b2, out=x)
    x -= a2
    unsigned = f"u{x.itemsize}"  # a negative x is then past every b2
    np.greater_equal(x.view(unsigned), b2.view(unsigned), out=wrong)
    # exact difference and sign, cross-multiplied by the common
    # denominator (nN-1)*ell*N
    np.multiply(a2, ell, out=x)
    x -= np.multiply(a1, count, out=y)
    wrong |= np.less(x, 0, out=mask)
    np.multiply(big_i, ell, out=y)
    np.subtract(terms[0], y, out=y)  # J
    np.subtract(ell, y, out=c1)
    c1 *= y
    wrong |= np.not_equal(x, c1, out=mask)
    bad = []
    if wrong.any():
        bad = [
            (int(n[i]), int(count[i]), int(ell),
             _ceil_ratio(int(a1[i]), int(b1[i])),
             _ceil_ratio(int(a2[i]), int(b2[i])))
            for i in np.flatnonzero(wrong)
        ]
    return count.size, bad


def pf_identity_sweep(n_max: int, count_max: int, ell_max: int) -> PfSweepReport:
    """Check both Peng-Fan assertions on every grid triple with nN >= max(ell, 2):
    the two ceilings agree, and the difference identity holds exactly.

    The pairs (n, N) with nN >= 2 are walked in n-major order, in chunks of
    _SWEEP_TILE pairs, or half as many in int64, so that a buffer takes as
    many bytes in either dtype.  A chunk is sorted by nN
    when some nN is below its last ell, min(ell_max, its largest nN); then
    for each ell from 1 to that one, `_sweep_tile` checks the suffix of
    pairs with nN >= ell, found by binary search, with ell a scalar.  Every
    tile checks at least one cell, and no cell outside the grid's triples
    is computed.  The chunk's pair terms nN, nN - 1, 2nN and (nN - 1)*N
    (`_pair_terms`) are taken once per chunk, and each tile gets their
    suffix.  Every tile writes its values into one set of scratch buffers
    (`_sweep_scratch`), made once per sweep in its dtype, one chunk long.

    A tile finds c1 = ceil(a1/b1) with no division by a vector.  Every cell
    has n, N, ell >= 1 and nN >= ell, and

        n/ell - a1/b1 = n(ell - 1) / (ell(nN - 1)),

    which lies in [0, 1], as ell(nN - 1) - n(ell - 1) = ell*n(N - 1) +
    (n - ell) >= 0: at least n when N >= 2, and ell <= n = nN when N = 1.
    So c1 is k - 1 or k, k = ceil(n/ell), k - 1 = (n - 1) // ell, and it is
    k - 1 exactly when a1 <= (k - 1)*b1.

    The tiles run in the narrowest integer dtype that holds every value
    they compute.  Numpy wraps integer overflow silently, so that choice
    rests on this bound.  Let M = n_max * N_max.  Every cell has
    1 <= ell <= nN <= M, n <= nN and N <= nN, and every value a tile
    computes is at most M^2 in size:

    * nN, I <= nN/ell, I*ell <= nN, J < ell and n - 1 are at most M, and
      2nN and (I + 1)*ell <= nN + ell are at most 2M <= M^2, as a grid
      with a cell has M >= 2;
    * a1 = (nN - ell)*n and a1*N = (nN - ell)*nN lie in [0, M^2), and
      b1 = (nN - 1)*ell and b2 = (nN - 1)*N are below M^2;
    * 2nN - (I + 1)*ell = nN + J - ell lies in [0, nN), so
      a2 = I*(nN + J - ell) lies in [0, nN^2/ell] and a2*ell <= M^2;
    * k - 1 < n/ell, so (k - 1)*b1 < n(nN - 1) < M^2, and (k - 1)*b1 - a1
      lies in (-M^2, M^2);
    * 0 <= c1 <= k <= n, so c1*b2 lies in [0, M^2) and c1*b2 - a2 in
      [-M^2, M^2);
    * a2*ell - a1*N lies in (-M^2, M^2], and (ell - J)*J <= ell^2/4.

    The pair index (n - 1)*N_max + N - 1 and ell are below M too.  So the
    tiles run in int32 when M^2 < 2^31, M <= _SWEEP_INT32_MAX_NN, and in
    int64 otherwise.  Grids with M > 2^30, where M^2 could pass 2^60, are
    refused (`DegenerateParameters`).  Runaway grids are refused too, with
    `BoundTooLarge` before any work: M * min(ell_max, M), a bound on the
    cells checked, above _SWEEP_MAX_CELLS."""
    if n_max < 1 or count_max < 1 or ell_max < 1:
        raise DegenerateParameters("grid limits must be positive")
    nn_max = n_max * count_max
    if nn_max > _SWEEP_MAX_NN:
        raise DegenerateParameters(
            f"n_max * N_max = {nn_max} exceeds 2^30: "
            f"products could overflow int64"
        )
    if nn_max * min(ell_max, nn_max) > _SWEEP_MAX_CELLS:
        raise BoundTooLarge(
            f"the sweep over ({n_max}, {count_max}, {ell_max}) passes its cap: "
            f"n_max * N_max * min(ell_max, n_max * N_max) <= {_SWEEP_MAX_CELLS}"
        )
    if nn_max <= _SWEEP_INT32_MAX_NN:
        dtype, step = np.int32, _SWEEP_TILE
    else:  # half as many pairs, so that each buffer takes as many bytes
        dtype, step = np.int64, -(-_SWEEP_TILE // 2)
    scratch = _sweep_scratch(dtype, step)
    checked = 0
    bad = []
    # pair p = (n - 1) * N_max + N - 1; p = 0 is (1, 1), where nN = 1.
    # Each chunk's arrays replace the last chunk's one at a time, so glibc
    # reuses their memory: freed all at once, at a helper's return, it went
    # back to the system, and (1, 2^29, 1) took 1.5 times as long,
    # page-faulting every chunk in afresh.
    for lo in range(1, nn_max, step):
        pair = np.arange(lo, min(lo + step, nn_max), dtype=dtype)
        n = pair // count_max
        count = pair - n * count_max + 1
        n += 1
        nn = n * count
        ells = np.arange(1, min(ell_max, int(nn.max())) + 1, dtype=dtype)
        starts = [0] * ells.size
        if nn.min() < ells.size:
            order = np.argsort(nn, kind="stable")
            n, count = n[order], count[order]
            starts = np.searchsorted(nn[order], ells).tolist()
        terms = _pair_terms(n, count)
        for ell, start in zip(ells, starts):
            tile_checked, tile_bad = _sweep_tile(
                n[start:], count[start:], ell, [t[start:] for t in terms], scratch
            )
            checked += tile_checked
            bad += tile_bad
    return PfSweepReport(n_max, count_max, ell_max, checked, tuple(sorted(bad)))
