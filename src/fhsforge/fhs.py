"""Frequency-hopping sequences, Hamming correlation, and code-orbit conversion.

The periodic Hamming correlation of X and Y at shift t counts the positions
where X agrees with the t-rotated Y.  The figure of merit of an N-sequence
set is the maximum over all auto-correlations at t != 0 and all
cross-correlations at every shift.  The exact certificate here rests on
the pigeonhole argument behind the FHS Singleton bound: M(F) >= L exactly
when two distinct rotations of the set's sequences agree on some L
positions, and since the rotations are closed under rotation, on some L
positions that include position 0.  Testing the C(n-1, L-1) such position
sets for a key collision decides M(F) >= L, and a walk over L that jumps
past each colliding pair's exact correlation ends at M(F).
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from .cyclic import (
    CyclicCode,
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
        # Each row as one opaque byte string: equal bytes are equal rows, and
        # np.unique sorts these faster than it sorts rows with axis=0.
        row_bytes = np.dtype((np.void, arr.itemsize * arr.shape[1]))
        if len(np.unique(np.ascontiguousarray(arr).view(row_bytes))) != arr.shape[0]:
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
    """Outcome of a correlation sweep over an FHS set.

    `witness` is a probe (i, j, t), never the trivial (i, i, 0), with
    correlation(seqs[i], seqs[j], t) == value.
    """

    value: int
    witness: tuple[int, int, int]
    method: str  # always "exhaustive"
    nominal_comparisons: int


def nominal_comparisons(fset: FhsSet) -> int:
    return fset.size * fset.size * fset.n * fset.n


# Keys stay below this: a partial key is re-ranked before a multiply that
# could pass it.  A re-ranked key is below N * n, and symbols are below
# 2^32, so the bound holds for any set with N * n <= _MAX_ROTATIONS.
_KEY_LIMIT = 1 << 62
_MAX_ROTATIONS = 1 << 30
# _repeat counts keys with bincount up to this range even for few keys.
_BINCOUNT_FLOOR = 1 << 20


def _physical_memory() -> int:
    """Bytes of physical memory on this machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _repeat(key: np.ndarray, span: int) -> tuple[int, int] | None:
    """Two flat indices of `key` (values in 0..span-1) holding the same
    value, or None when all values are distinct."""
    flat = key.ravel()
    if span <= max(4 * flat.size, _BINCOUNT_FLOOR):
        counts = np.bincount(flat)
        value = int(counts.argmax())
        if counts[value] < 2:
            return None
        first, second = np.flatnonzero(flat == value)[:2]
        return int(first), int(second)
    order = np.argsort(flat, kind="stable")
    ranked = flat[order]
    equal = np.flatnonzero(ranked[1:] == ranked[:-1])
    if equal.size == 0:
        return None
    return int(order[equal[0]]), int(order[equal[0] + 1])


def _collision(seqs: np.ndarray, size: int) -> tuple[int, int, int] | None:
    """A probe (i, j, t), not the trivial (i, i, 0), with
    correlation(seqs[i], seqs[j], t) >= size, or None when there is none.

    Rotation s of row i is table[i, s:s + n].  For every set P of `size`
    positions that contains 0, each rotation is keyed by its symbols at P,
    so two equal keys are two distinct rotations that agree on P.  The
    sets are walked depth first, so each prefix's partial key is built once.
    """
    n = seqs.shape[1]
    table = np.concatenate([seqs, seqs], axis=1).astype(np.int64)
    base = int(table.max()) + 1

    def search(key, span, start, depth):
        if depth == size:
            return _repeat(key, span)
        if span * base > _KEY_LIMIT:
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


def max_nontrivial(
    fset: FhsSet, budget: int | None = DEFAULT_CORRELATION_BUDGET
) -> CorrelationSurvey:
    """Exact M(F) over all sequence pairs and shifts, with a witness.

    The trivial in-phase auto-correlation (t = 0 of a sequence with itself)
    is excluded.  The walk tests L = 1, 2, ... for two rotations that agree
    on L positions.  A colliding pair's exact correlation c >= L is a lower
    bound on M(F), so the walk jumps to L = c + 1; the first L without a
    collision proves M(F) = c.  The test at L keys C(n-1, L-1) * N * n
    rotations, so the walk costs about C(n-1, M(F)) * N * n in all.

    Refuses with BudgetExceeded before any test that would take the
    rotations keyed so far past the budget; budget=None lifts it.  Under
    any budget it also refuses a set of more than 2^30 rotations, whose
    keys could overflow, and a test whose estimated peak, 16 * (L + 1)
    bytes per rotation plus the bincount floor, exceeds physical memory.
    """
    count, n = fset.size, fset.n
    if count == 1 and n < 2:
        raise EmptySet("a single length-1 sequence has no nontrivial correlation")
    rotations = count * n
    if rotations > _MAX_ROTATIONS:
        raise BudgetExceeded(
            f"{rotations} rotations: more than the 2^30 the collision keys can hold"
        )
    memory = _physical_memory()
    seqs = fset.seqs
    # With no collision at L = 1 every correlation is 0, this probe's too.
    value, witness = 0, ((0, 1, 0) if count > 1 else (0, 0, 1))
    keyed = 0
    size = 1
    while size <= n:
        keyed += math.comb(n - 1, size - 1) * rotations
        if budget is not None and keyed > budget:
            raise BudgetExceeded(
                f"collision tests up to L = {size} key {keyed} rotations, "
                f"which exceed budget {budget}"
            )
        peak = 16 * (size + 1) * rotations + 8 * _BINCOUNT_FLOOR
        if peak > memory:
            raise BudgetExceeded(
                f"the collision test at L = {size} needs about {peak} bytes, "
                f"more than the {memory} bytes of physical memory"
            )
        hit = _collision(seqs, size)
        if hit is None:
            break
        i, j, t = hit
        value = correlation(seqs[i].tolist(), seqs[j].tolist(), t)
        if value < size:
            raise AssertionError(
                f"rotations collide on {size} positions but "
                f"correlation(sequences[{i}], sequences[{j}], {t}) = {value}"
            )
        witness, size = hit, value + 1
    return CorrelationSurvey(
        value=value,
        witness=witness,
        method="exhaustive",
        nominal_comparisons=nominal_comparisons(fset),
    )


def classes_to_fhs(
    reps: np.ndarray,
    sizes: np.ndarray,
    code: CyclicCode,
    mode: str,
    provenance: dict | None = None,
) -> FhsSet:
    """One sequence per full shift orbit of the code, from the orbit
    representatives and sizes that `class_partition` returns.

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
    sizes = np.asarray(sizes)
    if len(sizes) == 0:
        raise EmptySet("no orbits to convert")
    bad = np.flatnonzero(sizes != code.n)
    if bad.size:
        raise ClassSizeNotFull(
            f"orbit of size {sizes[bad[0]]} != {code.n} cannot yield a sequence set"
        )
    info = dict(provenance) if provenance else {"family": "imported"}
    info.setdefault("mode", mode)
    return FhsSet(reps, q, info)
