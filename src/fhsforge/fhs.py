"""Frequency-hopping sequences, Hamming correlation, and code-orbit conversion.

The periodic Hamming correlation of X and Y at shift t counts the positions
where X agrees with the t-rotated Y.  The figure of merit of an N-sequence
set is the maximum over all auto-correlations at t != 0 and all
cross-correlations at every shift.  The exhaustive sweep here buckets the
(position, symbol) incidences into sparse matrices, one per shift, so the
full pairwise maximum is exact while running far below the nominal
N^2 * n^2 symbol-comparison count.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .cyclic import (
    CyclicCode,
    EquivalenceClass,
    has_full_orbits_nonzero,
    has_full_orbits_outside_constants,
)
from .errors import (
    BudgetExceeded,
    ClassSizeNotFull,
    EmptySet,
    LengthAlphabetViolation,
    LengthMismatch,
    ParseError,
    PredicateFailed,
)

DEFAULT_CORRELATION_BUDGET = 10**10


def correlation(x, y, t: int) -> int:
    """Hamming correlation H_{X,Y}(t): agreements of X with Y shifted by t."""
    n = len(x)
    if len(y) != n:
        raise LengthMismatch(f"lengths differ: {n} vs {len(y)}")
    if not 0 <= t < n:
        raise ValueError(f"shift {t} outside 0..{n - 1}")
    return sum(1 for i in range(n) if x[i] == y[(i + t) % n])


def auto_peak(x) -> int:
    """H(X): the largest out-of-phase auto-correlation, over 1 <= t < n."""
    if len(x) < 2:
        raise LengthMismatch("auto-correlation needs length >= 2")
    return max(correlation(x, x, t) for t in range(1, len(x)))


def cross_peak(x, y) -> int:
    """H(X, Y): the largest cross-correlation over all shifts."""
    return max(correlation(x, y, t) for t in range(len(x)))


def _json_int(value, what: str) -> int:
    """`value` if it is a JSON integer; bools and floats are refused."""
    if type(value) is not int:
        raise ParseError(f"{what} must be an integer, got {value!r}")
    return value


class FhsSet:
    """A set of N distinct length-n sequences over the alphabet 0..ell-1."""

    def __init__(
        self,
        sequences,
        alphabet_size: int,
        provenance: dict | None = None,
        max_correlation: int | None = None,
    ):
        arr = np.asarray(sequences, dtype=np.uint32)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise EmptySet("an FHS set needs at least one nonempty sequence")
        if arr.size and int(arr.max()) >= alphabet_size:
            raise LengthAlphabetViolation(
                f"symbol {int(arr.max())} outside alphabet of size {alphabet_size}"
            )
        if len(np.unique(arr, axis=0)) != arr.shape[0]:
            raise ValueError("sequences are not pairwise distinct")
        arr.flags.writeable = False
        self.seqs = arr
        self.alphabet_size = int(alphabet_size)
        self.provenance = dict(provenance) if provenance else {"family": "imported"}
        self.max_correlation = max_correlation

    @property
    def n(self) -> int:
        return self.seqs.shape[1]

    @property
    def size(self) -> int:
        return self.seqs.shape[0]

    def sequences(self) -> list[tuple[int, ...]]:
        return [tuple(int(s) for s in row) for row in self.seqs]

    def parameter_tuple(self) -> tuple:
        return (self.n, self.size, self.max_correlation, self.alphabet_size)

    def to_json_dict(self) -> dict:
        order = np.lexsort(self.seqs.T[::-1])
        return {
            "n": self.n,
            "ell": self.alphabet_size,
            "N": self.size,
            "lambda": self.max_correlation,
            "provenance": self.provenance,
            "sequences": self.seqs[order].tolist(),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "FhsSet":
        try:
            seqs = data["sequences"]
            ell = _json_int(data["ell"], "ell")
            n = _json_int(data["n"], "n")
            count = _json_int(data["N"], "N")
            lam = data.get("lambda")
        except (KeyError, TypeError) as exc:
            raise ParseError(f"malformed FHS set record: {exc}") from exc
        if lam is not None:
            _json_int(lam, "lambda")
        if not isinstance(seqs, list) or any(not isinstance(s, list) for s in seqs):
            raise ParseError("sequences must be a list of lists")
        if len(seqs) != count:
            raise ParseError(f"N = {count} but {len(seqs)} sequences present")
        if any(len(s) != n for s in seqs):
            raise ParseError("sequence length differs from declared n")
        # numpy would truncate 1.7 and coerce True or "3", so the set of
        # symbol types is checked first, at C speed, then the range.
        kinds = set(map(type, itertools.chain.from_iterable(seqs))) - {int}
        if kinds:
            names = ", ".join(sorted(k.__name__ for k in kinds))
            raise ParseError(f"symbols must be integers, found {names}")
        try:
            arr = np.asarray(seqs, dtype=np.int64)
        except OverflowError as exc:
            raise ParseError(f"symbol out of range: {exc}") from exc
        if arr.size and (arr.min() < 0 or arr.max() >= min(ell, 1 << 32)):
            raise ParseError(f"symbols must lie in 0..{ell - 1}")
        try:
            obj = cls(arr, ell, data.get("provenance"), lam)
        except (ValueError, LengthAlphabetViolation, EmptySet) as exc:
            raise ParseError(str(exc)) from exc
        return obj

    def __repr__(self):
        return (
            f"FhsSet(n={self.n}, N={self.size}, ell={self.alphabet_size}, "
            f"lambda={self.max_correlation})"
        )


@dataclass(frozen=True)
class CorrelationSurvey:
    """Outcome of a correlation sweep over an FHS set."""

    value: int
    max_auto: int
    max_cross: int
    method: str  # "exhaustive" or "sampled"
    nominal_comparisons: int
    samples: int | None = None
    seed: int | None = None


def nominal_comparisons(fset: FhsSet) -> int:
    return fset.size * fset.size * fset.n * fset.n


def _incidence(seqs: np.ndarray, ell: int) -> sparse.csr_matrix:
    count, n = seqs.shape
    rows = np.repeat(np.arange(count), n)
    cols = (np.arange(n, dtype=np.int64) * ell + seqs).ravel()
    data = np.ones(count * n, dtype=np.int32)
    return sparse.csr_matrix((data, (rows, cols)), shape=(count, n * ell))


def max_nontrivial(
    fset: FhsSet, budget: int | None = DEFAULT_CORRELATION_BUDGET
) -> CorrelationSurvey:
    """Exact M(F) over all sequence pairs and shifts.

    The trivial in-phase auto-correlation (t = 0 of a sequence with itself)
    is excluded.  Refuses with BudgetExceeded when the nominal comparison
    count overruns the budget; pass budget=None to force the sweep.
    """
    count, n = fset.size, fset.n
    if count == 1 and n < 2:
        raise EmptySet("a single length-1 sequence has no nontrivial correlation")
    nominal = nominal_comparisons(fset)
    if budget is not None and nominal > budget:
        raise BudgetExceeded(
            f"nominal comparisons {nominal} exceed budget {budget}; "
            "raise the budget or use sampled verification"
        )
    left = _incidence(fset.seqs, fset.alphabet_size)
    max_auto = 0
    max_cross = 0
    for t in range(n):
        shifted = np.roll(fset.seqs, -t, axis=1)
        right = _incidence(shifted, fset.alphabet_size)
        prod = (left @ right.T).tocoo()
        if prod.nnz == 0:
            continue
        diag = prod.row == prod.col
        if t > 0 and diag.any():
            max_auto = max(max_auto, int(prod.data[diag].max()))
        off = ~diag
        if off.any():
            max_cross = max(max_cross, int(prod.data[off].max()))
    return CorrelationSurvey(
        value=max(max_auto, max_cross),
        max_auto=max_auto,
        max_cross=max_cross,
        method="exhaustive",
        nominal_comparisons=nominal,
    )


def sampled_correlation_bound(
    fset: FhsSet, samples: int, seed: int
) -> CorrelationSurvey:
    """Seeded random lower bound on M(F): max over `samples` random
    (sequence, sequence, shift) probes, trivial probes re-rolled."""
    if samples < 1:
        raise ValueError("need at least one sample")
    count, n = fset.size, fset.n
    if count == 1 and n < 2:
        raise EmptySet("a single length-1 sequence has no nontrivial correlation")
    rng = np.random.default_rng(seed)
    best_auto = 0
    best_cross = 0
    remaining = samples
    chunk = 1 << 16
    cols = np.arange(n, dtype=np.int64)
    while remaining > 0:
        size = min(chunk, remaining)
        remaining -= size
        ia = rng.integers(0, count, size)
        ib = rng.integers(0, count, size)
        ts = rng.integers(0, n, size)
        trivial = (ia == ib) & (ts == 0)
        if trivial.any():
            if n > 1:
                ts[trivial] = rng.integers(1, n, int(trivial.sum()))
            else:
                ib[trivial] = (ia[trivial] + 1) % count
        a = fset.seqs[ia]
        b = fset.seqs[ib[:, None], (cols[None, :] + ts[:, None]) % n]
        corr = (a == b).sum(axis=1)
        auto = ia == ib
        if auto.any():
            best_auto = max(best_auto, int(corr[auto].max()))
        if (~auto).any():
            best_cross = max(best_cross, int(corr[~auto].max()))
    return CorrelationSurvey(
        value=max(best_auto, best_cross),
        max_auto=best_auto,
        max_cross=best_cross,
        method="sampled",
        nominal_comparisons=nominal_comparisons(fset),
        samples=samples,
        seed=seed,
    )


def classes_to_fhs(
    classes: list[EquivalenceClass],
    code: CyclicCode,
    mode: str,
    provenance: dict | None = None,
) -> FhsSet:
    """One sequence per full shift orbit of the code.

    mode "nonconstant": orbits of the codewords outside the constant-word
    subcode; the code must pass the full-orbit predicate for those words and
    must be longer than the alphabet.  mode "nonzero": orbits of the nonzero
    codewords, with the corresponding predicate.
    """
    q = code.field.order
    if mode == "nonconstant":
        if code.n <= q:
            raise LengthAlphabetViolation(
                f"length {code.n} must exceed alphabet size {q}"
            )
        if not has_full_orbits_outside_constants(code):
            raise PredicateFailed(
                "some codeword outside the constants has a short orbit"
            )
    elif mode == "nonzero":
        if not has_full_orbits_nonzero(code):
            raise PredicateFailed("some nonzero codeword has a short orbit")
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if not classes:
        raise EmptySet("no orbits to convert")
    bad = [c for c in classes if c.size != code.n]
    if bad:
        raise ClassSizeNotFull(
            f"orbit of size {bad[0].size} != {code.n} cannot yield a sequence set"
        )
    seqs = np.array([c.representative for c in classes], dtype=np.uint32)
    info = dict(provenance) if provenance else {"family": "imported"}
    info.setdefault("mode", mode)
    return FhsSet(seqs, q, info)
