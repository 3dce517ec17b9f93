"""Frequency-hopping sequences, Hamming correlation, and code-orbit conversion.

The periodic Hamming correlation of X and Y at shift t counts the positions
where X agrees with the t-rotated Y.  The figure of merit of an N-sequence
set is the maximum over all auto-correlations at t != 0 and all
cross-correlations at every shift.  The exact certificate here rests on
the pigeonhole argument behind the FHS Singleton bound: M(F) >= L exactly
when two distinct rotations of the set's sequences agree on some L
positions, and since the rotations are closed under rotation, on some L
positions that include position 0.  Rotating a colliding pair by -p moves
its agreement from P to P - p, so one such set per rotation class, about
C(n, L)/n of the C(n-1, L-1), is tested for a key collision; that decides
M(F) >= L, and a walk over L that jumps past each colliding pair's exact
correlation ends at M(F).

The full orbits of a cyclic code become a set in `classes_to_fhs`, on the
full-orbit test and the constant-word rule of `cyclic`.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from dataclasses import dataclass

import numpy as np

from .cyclic import CyclicCode, _full_orbits, _physical_memory, _short_constants
from .errors import (
    BudgetExceeded,
    ClassSizeNotFull,
    EmptySet,
    LengthAlphabetViolation,
    LengthMismatch,
    ParseError,
    PredicateFailed,
)
from .intmath import totient

DEFAULT_CORRELATION_BUDGET = 10**10


def correlation(x, y, t: int) -> int:
    """Hamming correlation H_{X,Y}(t): agreements of X with Y shifted by t."""
    n = len(x)
    if len(y) != n:
        raise LengthMismatch(f"lengths differ: {n} vs {len(y)}")
    if not 0 <= t < n:
        raise ValueError(f"shift {t} outside 0..{n - 1}")
    return sum(1 for i in range(n) if x[i] == y[(i + t) % n])


def _json_int(value, what: str) -> int:
    """`value` if it is a JSON integer; bools and floats are refused."""
    if type(value) is not int:
        raise ParseError(f"{what} must be an integer, got {value!r}")
    return value


class FhsSet:
    """A set of N distinct length-n sequences over the alphabet 0..ell-1.

    The symbols are checked once, as given, before they become uint32.
    `seqs` keeps the rows in the order given; `order` indexes them in
    lexicographic order, the order a record is written in."""

    def __init__(
        self,
        sequences,
        alphabet_size: int,
        provenance: dict | None = None,
        max_correlation: int | None = None,
    ):
        arr = np.asarray(sequences)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise EmptySet("an FHS set needs at least one nonempty sequence")
        # before the cast, which would wrap -1 or 2^32 and truncate 1.7
        if not np.issubdtype(arr.dtype, np.integer) \
                or (arr.dtype.kind == "i" and arr.min() < 0) \
                or arr.max() >= min(alphabet_size, 1 << 32):
            raise LengthAlphabetViolation(f"symbols must lie in 0..{alphabet_size - 1}")
        # a private C-ordered copy: the caller's array stays writeable
        arr = arr.astype(np.uint32, order="C")
        # Each row as one big-endian byte string: the bytes compare in the
        # rows' lexicographic order, so one stable argsort sorts the rows,
        # and equal neighbours in that order are duplicate rows.
        row_bytes = np.dtype((np.void, 4 * arr.shape[1]))
        rows = arr.astype(">u4", order="C").view(row_bytes).ravel()
        order = np.argsort(rows, kind="stable")
        ranked = rows[order]
        if (ranked[1:] == ranked[:-1]).any():
            raise ValueError("sequences are not pairwise distinct")
        arr.flags.writeable = False
        order.flags.writeable = False
        self.seqs = arr
        self.order = order
        self.alphabet_size = int(alphabet_size)
        self.provenance = dict(provenance) if provenance else {"family": "imported"}
        self.max_correlation = max_correlation

    @property
    def n(self) -> int:
        return self.seqs.shape[1]

    @property
    def size(self) -> int:
        return self.seqs.shape[0]

    def _json_head(self) -> dict:
        """The record's fields other than `sequences`."""
        return {
            "n": self.n,
            "ell": self.alphabet_size,
            "N": self.size,
            "lambda": self.max_correlation,
            "provenance": self.provenance,
        }

    def to_json_dict(self) -> dict:
        return {**self._json_head(), "sequences": self.seqs[self.order].tolist()}

    def to_json_bytes(self) -> bytes:
        """The record as `json.dumps(indent=2, sort_keys=True)` writes it,
        with a final newline, except that each sequence takes one line:
        C512's 9,709 sequences take 9,725 lines, not 281,577.  Its
        `sequences` is the plain array that `_decode_record` reads."""
        head = json.dumps(self._json_head(), indent=2, sort_keys=True)
        head = head[:-2]  # up to the last "\n}"
        rows = _format_rows(self.seqs[self.order], b"[", b"]", b",\n    ")
        return f'{head},\n  "sequences": [\n    '.encode() + rows + b"\n  ]\n}\n"

    def to_csv_bytes(self) -> bytes:
        """The record's rows, in its order, one comma-separated line each."""
        return _format_rows(self.seqs[self.order], b"", b"\n", b"")

    @classmethod
    def from_json_dict(cls, data: dict | bytes) -> "FhsSet":
        """A set from a record: a parsed JSON object, or the bytes of a JSON
        file.  Bytes whose `sequences` is a plain array of decimal rows are
        read by `_decode_record`; any other bytes are decoded as strict
        UTF-8 and parsed by `json.loads`, whose ValueError or RecursionError
        propagates.  Both give the same set, or the same ParseError."""
        arr = None
        if isinstance(data, bytes):
            decoded = _decode_record(data)
            if decoded is None:
                # universal newlines, as a file read in text mode gives them,
                # so that json's error positions are those of that text
                text = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
                data = json.loads(text)
            else:
                data, arr = decoded
        try:
            seqs = data["sequences"]
            ell = _json_int(data["ell"], "ell")
            n = _json_int(data["n"], "n")
            count = _json_int(data["N"], "N")
            lam = data.get("lambda")
            provenance = data.get("provenance")
        except (KeyError, TypeError) as exc:
            raise ParseError(f"malformed FHS set record: {exc}") from exc
        if lam is not None:
            _json_int(lam, "lambda")
        if not isinstance(provenance, (dict, type(None))):
            raise ParseError("provenance must be an object")
        if arr is None:
            arr = _list_rows(seqs, count, n)
        try:
            obj = cls(arr, ell, provenance, lam)
        except (ValueError, LengthAlphabetViolation, EmptySet) as exc:
            raise ParseError(str(exc)) from exc
        return obj

    def __repr__(self):
        return (
            f"FhsSet(n={self.n}, N={self.size}, ell={self.alphabet_size}, "
            f"lambda={self.max_correlation})"
        )


def _list_rows(seqs, count: int, n: int) -> np.ndarray:
    """A parsed record's `sequences` as an int64 array, after the checks
    that a list of lists of exactly N rows of n JSON integers passes."""
    if not isinstance(seqs, list) or any(not isinstance(s, list) for s in seqs):
        raise ParseError("sequences must be a list of lists")
    if len(seqs) != count:
        raise ParseError(f"N = {count} but {len(seqs)} sequences present")
    if any(len(s) != n for s in seqs):
        raise ParseError("sequence length differs from declared n")
    # numpy would truncate 1.7 and coerce True or "3", so the set of
    # symbol types is checked first, at C speed; `FhsSet` checks the range.
    kinds = set(map(type, itertools.chain.from_iterable(seqs))) - {int}
    if kinds:
        names = ", ".join(sorted(k.__name__ for k in kinds))
        raise ParseError(f"symbols must be integers, found {names}")
    try:
        return np.asarray(seqs, dtype=np.int64)
    except OverflowError as exc:
        raise ParseError(f"symbol out of range: {exc}") from exc


_WHITESPACE = b" \t\n\r"  # JSON's four whitespace bytes
_KEY = b'"sequences"'
_ARRAY_OPEN = re.compile(rb"[ \t\n\r]*:[ \t\n\r]*\[")
# in a plain array, the first "]" then "]" past whitespace closes it
_ARRAY_CLOSE = re.compile(rb"\][ \t\n\r]*\]")
_MAX_DIGITS = 10
_BLOCK = 1 << 16  # bytes, or numbers, per numpy pass: no temporary spans a record


def _decode_record(raw: bytes) -> tuple[dict, np.ndarray] | None:
    """A record's fields and its `sequences` as an (N, n) int64 array,
    read from the bytes of a JSON file, or None when they are not ASCII or
    the array is not plain: N rows of n decimal numbers of 1 to 10 digits
    without leading zeros, N and n the record's own, with whitespace only
    between tokens.  What it returns is what `json.loads` and the list
    checks of `FhsSet.from_json_dict` would give.  (Bytes past ASCII fail
    the ASCII decode of the fields or, in the array, the skeleton.)

    The array is the value of the last `"sequences"` key.  In the fields
    it is replaced by `NaN` and the rest is parsed by `json.loads`: the one
    constant that parse meets must be that NaN, at the top level's
    `sequences`, which rules out a second or nested `sequences` key and a
    match inside a string.  The numbers are read in numpy from the array's
    bytes once its whitespace is deleted."""
    key = raw.rfind(_KEY)
    opening = _ARRAY_OPEN.match(raw, key + len(_KEY)) if key >= 0 else None
    closing = opening and _ARRAY_CLOSE.search(raw, opening.end())
    if not closing:
        return None
    start, end = opening.end() - 1, closing.end()
    marker, constants = object(), []

    def constant(name):
        constants.append(name)
        return marker

    try:
        fields = json.loads((raw[:start] + b"NaN" + raw[end:]).decode("ascii"),
                            parse_constant=constant)
    except (ValueError, RecursionError):
        return None
    if len(constants) != 1 or type(fields) is not dict \
            or fields.get("sequences") is not marker:
        return None
    count, n = fields.get("N"), fields.get("n")
    if type(count) is not int or type(n) is not int or count < 1 or n < 1:
        return None
    # a number split by whitespace would read as one once it is deleted, and
    # a digit outside the numbers would be a run past the count * n numbers
    if _digit_runs(np.frombuffer(raw, np.uint8, end - start, start)) != count * n:
        return None
    chars = np.frombuffer(raw[start:end].translate(None, _WHITESPACE), np.uint8)
    arr = _decode_rows(chars, count, n)
    return None if arr is None else (fields, arr)


def _is_digit(chars: np.ndarray) -> np.ndarray:
    # uint8 wraps below "0", under numpy's old and new casting rules alike
    return chars - np.uint8(ord("0")) < np.uint8(10)


def _digit_runs(chars: np.ndarray) -> int:
    """The number of runs of digits in `chars`, whose last byte is no digit."""
    runs = 0
    for at in range(0, chars.size - 1, _BLOCK):
        digit = _is_digit(chars[at:at + _BLOCK + 1])  # one byte of overlap
        runs += int(np.count_nonzero(digit[:-1] > digit[1:]))  # a run's end
    return runs


def _decode_rows(chars: np.ndarray, count: int, n: int) -> np.ndarray | None:
    """The (count, n) int64 array that `chars`, the bytes of a JSON array
    without whitespace, holds when they are "[" then `count` rows "[d,...,d]"
    of n numbers joined by "," then "]", each number 1 to `_MAX_DIGITS`
    digits without a leading zero; None when they are anything else.  The
    caller has checked that `chars` holds no more than count * n runs of
    digits, so none lies outside the numbers.

    Every byte that is no digit is a mark, and the marks must be exactly
    that "[", "," and "]" skeleton.  Rows are then read in blocks of about
    `_BLOCK` numbers."""
    marks = count * (n + 2) + 1
    if chars.size < marks + count * n:  # at least one digit per number
        return None
    at = np.empty(marks, np.int32)
    found = 0
    for start in range(0, chars.size, _BLOCK):
        block = np.flatnonzero(~_is_digit(chars[start:start + _BLOCK]))
        if found + block.size > marks:
            return None
        at[found:found + block.size] = block + start
        found += block.size
    row = b"[" + b"," * (n - 1) + b"]"
    if found != marks or chars.take(at).tobytes() != b"[" + b",".join([row] * count) + b"]":
        return None
    # row r's marks: "[" in column 0, the commas, "]" in column n, then the
    # "," or the final "]" after the row; number (r, j) lies between the
    # marks in columns j and j + 1
    grid = at[1:].reshape(count, n + 2)
    values = np.empty((count, n), np.int64)
    step = max(1, _BLOCK // n)
    for r in range(0, count, step):
        ends = grid[r:r + step, 1:n + 1]
        widths = ends - grid[r:r + step, :n] - 1
        if widths.min() < 1 or widths.max() > _MAX_DIGITS:
            return None
        if not _horner(chars, ends, widths, values[r:r + step]):
            return None
    return values


def _horner(chars: np.ndarray, ends: np.ndarray, widths: np.ndarray,
            out: np.ndarray) -> bool:
    """Write into `out` the numbers of `widths` digits that end before the
    positions `ends` of `chars`, in place; False if one has a leading zero.

    The digit columns are right-aligned at the ends and read top column
    first.  Left of a number its column is a padding 0; the index there may
    be negative, left of the array, which reads from its end but is masked
    all the same."""
    top = int(widths.max())
    index = (ends - top).astype(np.intp)
    digit = np.empty(ends.shape, np.uint8)
    out[...] = 0
    for i in range(top - 1, -1, -1):  # the digit of 10^i
        chars.take(index, out=digit)
        digit -= np.uint8(ord("0"))
        if i and ((digit == 0) & (widths == i + 1)).any():
            return False  # a leading zero
        digit *= widths > i
        out *= 10
        out += digit
        index += 1
    return True


def _format_rows(rows: np.ndarray, open_: bytes, close: bytes, sep: bytes) -> bytes:
    """The rows of a uint32 array as ASCII text: each row is `open_`, its
    symbols in decimal joined by ",", then `close`; rows are joined by `sep`.

    Each symbol fills a fixed cell, as many bytes as the largest symbol has
    digits, and the comma after it.  The digits come from one division by
    10 per cell column, in uint32 under numpy's old and new casting rules
    alike, so no Python int is made per symbol; a leading zero is a NUL
    byte, and one `translate` deletes every NUL at the end."""
    count, n = rows.shape
    width = len(str(int(rows.max())))
    cells = np.empty((count, n, width + 1), np.uint8)
    cells[:, :, width] = ord(",")
    ten = np.uint32(10)
    value = rows  # rows // 10^i at pass i
    for i in range(width):
        rest = value // ten
        char = value - rest * ten + np.uint32(ord("0"))
        if i:
            char *= value != 0  # a leading zero becomes NUL
        cells[:, :, width - 1 - i] = char
        value = rest
    body = len(open_) + cells[0].size - 1  # a row up to its last digit
    tail = close + sep
    lines = np.empty((count, body + len(tail)), np.uint8)
    lines[:, :len(open_)] = list(open_)
    lines[:, len(open_):body + 1] = cells.reshape(count, -1)
    lines[:, body:] = list(tail)  # over the last comma
    lines[-1, body + len(close):] = 0  # no separator after the last row
    return lines.tobytes().translate(None, b"\0")


@dataclass(frozen=True)
class CorrelationSurvey:
    """Outcome of a correlation sweep over an FHS set.

    `witness` is a probe (i, j, t), never the trivial (i, i, 0), with
    correlation(seqs[i], seqs[j], t) == value.
    """

    value: int
    witness: tuple[int, int, int]
    nominal_comparisons: int


def _rotation_classes(n: int, size: int) -> int:
    """The number of classes of size-subsets of Z_n under rotation, the
    position sets that the test at L = size keys: (1/L) * sum over
    e | gcd(n, L) of phi(e) * C(n/e - 1, L/e - 1) (necklaces of n beads,
    L of them black, by Burnside's lemma)."""
    g = math.gcd(n, size)
    total = sum(totient(e) * math.comb(n // e - 1, size // e - 1)
                for e in range(1, g + 1) if g % e == 0)
    return total // size


def nominal_comparisons(fset: FhsSet) -> int:
    return fset.size * fset.size * fset.n * fset.n


# Keys stay below this: a partial key is re-ranked before a multiply that
# could pass it.  A re-ranked key is below N * n, and symbols are below
# 2^32, so the bound holds for any set with N * n <= _MAX_ROTATIONS.
_KEY_LIMIT = 1 << 62
_MAX_ROTATIONS = 1 << 30
# _repeat counts keys with bincount up to this range even for few keys.
_BINCOUNT_FLOOR = 1 << 20


def _repeat(key: np.ndarray, span: int) -> tuple[int, int] | None:
    """Two flat indices of `key` (values in 0..span-1) holding the same
    value, or None when all values are distinct: the first two indices of
    the most frequent value.

    A span past max(4 * size, 2^20) is first re-ranked, into a new int64
    array, to at most `key`'s size.  A `span`-byte bitmap of the values
    seen then decides whether all are distinct; with more keys than values
    a repeat is certain and the bitmap is skipped.  Only a test that has a
    repeat counts the keys with bincount, 8 bytes per bin, to locate its
    pair; a re-rank keeps the values' order, so the pair is the same."""
    flat = key.ravel()
    if span > max(4 * flat.size, _BINCOUNT_FLOOR):
        ranks = np.empty(flat.size, dtype=np.int64)
        flat, span = ranks, _rerank(flat, ranks)
    if flat.size <= span:
        seen = np.zeros(span, dtype=bool)
        seen[flat] = True
        if np.count_nonzero(seen) == flat.size:
            return None
        del seen
    value = int(np.bincount(flat).argmax())
    equal = flat == value  # a bool mask, not an 8-byte index of each match
    equal[first := int(equal.argmax())] = False
    return first, int(equal.argmax())


def _rotation_table(seqs: np.ndarray) -> np.ndarray:
    """Each row written twice, in the set's own uint32 symbols, 8 bytes per
    rotation: rotation s of row i is table[i, s:s + n]."""
    return np.concatenate([seqs, seqs], axis=1)


def _rerank(key: np.ndarray, out: np.ndarray) -> int:
    """Write into `out`, an int64 array of `key`'s shape, each value of
    `key` as its rank among the distinct values, np.unique's inverse, and
    return their count.  Holds 17 bytes per entry, np.unique 49."""
    flat = key.ravel()
    order = np.argsort(flat)
    ranked = flat[order]
    step = ranked[1:] != ranked[:-1]
    ranked[0] = 0
    np.cumsum(step, out=ranked[1:])
    out.ravel()[order] = ranked
    return int(ranked[-1]) + 1


def _collision(
    seqs: np.ndarray, table: np.ndarray, size: int
) -> tuple[int, int, int] | None:
    """A probe (i, j, t), not the trivial (i, i, 0), with
    correlation(seqs[i], seqs[j], t) >= size, or None when there is none;
    `table` is `_rotation_table(seqs)`.  The root's key, each rotation's
    symbol at position 0, is `seqs` itself, C-ordered like every key, so
    the test at L = 1 keys it with no copy.

    For a set P of `size` positions that contains 0, each rotation is keyed
    by its symbols at P, so two equal keys are two distinct rotations that
    agree on P.  Rotating both by -p maps a collision on P to one on P - p,
    so only one set per rotation class is keyed: the one whose gaps
    (p_1 - p_0, ..., n - p_{L-1}) are least among their cyclic rotations,
    a necklace.  The sets are walked depth first in lexicographic order, so
    each prefix's partial key is built once, into its depth's buffer, and a
    prefix is dropped as soon as no completion of its gaps can be a
    necklace (Fredricksen-Kessler-Maiorana: with period p, the next gap is
    at least the one p back, and every gap is at least the first).  The
    first colliding set in lexicographic order is the least of its class,
    so this walk meets it first, with the key and pair the walk over all
    sets would give.

    Beside the table it holds `size` int64 key buffers of N * n entries,
    one per depth, none at L = 1, and frees all of them when it returns.
    """
    n = seqs.shape[1]
    base = int(seqs.max()) + 1
    # one buffer per depth, reused by every prefix there
    keys = np.empty((size if size > 1 else 0, *seqs.shape), dtype=np.int64)
    gaps = [0] * size  # gaps[d] = p_d - p_{d-1}; gaps[0] sorts below all
    hit = _search(table, keys, gaps, base, seqs, base, 0, 1, 1)
    if hit is None:
        return None
    (i, s), (j, s2) = divmod(hit[0], n), divmod(hit[1], n)
    return i, j, (s2 - s) % n


def _search(table, keys, gaps, base, key, span, last, depth, period):
    """The first repeat of `_collision`'s walk below one prefix: positions
    p_0 = 0 < ... < p_{depth-1} = last, whose `key` holds values below
    `span`; gaps[1:depth] is a prenecklace of period `period`.

    A prefix writes key * base into its depth's buffer once: from depth 2
    on in place, since `key` is that buffer, which the parent rewrites for
    its next child only after this call returns; at the root, whose key is
    the set itself, as a scaled copy.  A key whose product could pass
    `_KEY_LIMIT` is first re-ranked into the same buffer.  Each child's key
    is then one add of that buffer and its window of the table, into the
    buffer of the child's depth."""
    size, n = len(gaps), table.shape[1] // 2
    if depth == size:
        return _repeat(key, span)
    scaled = keys[depth - 1]
    if span * base > _KEY_LIMIT:
        key, span = scaled, _rerank(key, scaled)
    # int64 whatever the key's width: the loop is picked from the inputs
    np.multiply(key, base, out=scaled, dtype=np.int64)
    low = last + max(gaps[depth - period], 1)
    high = n - (size - depth) * gaps[1] if depth > 1 else n // size
    leaf = depth == size - 1
    for p in range(low, high + 1):
        gap = gaps[depth] = p - last
        grown = period if gap == gaps[depth - period] else depth
        if leaf:
            end, back = n - p, gaps[size - grown]
            if end < back or (end == back and size % grown):
                continue
        child = np.add(scaled, table[:, p:p + n], out=keys[depth])
        hit = _search(table, keys, gaps, base, child, span * base, p, depth + 1, grown)
        if hit is not None:
            return hit
    return None


def max_nontrivial(
    fset: FhsSet, budget: int | None = DEFAULT_CORRELATION_BUDGET
) -> CorrelationSurvey:
    """Exact M(F) over all sequence pairs and shifts, with a witness.

    The trivial in-phase auto-correlation (t = 0 of a sequence with itself)
    is excluded.  The walk tests L = 1, 2, ... for two rotations that agree
    on L positions.  A colliding pair's exact correlation c >= L is a lower
    bound on M(F), so the walk jumps to L = c + 1; the first L without a
    collision proves M(F) = c.  The test at L keys N * n rotations at each
    of about C(n, L)/n position sets, one per rotation class, so the walk
    costs about C(n, M(F) + 1)/n * N * n in all.  The rotation table is
    built once for the whole walk, and nothing the walk allocates outlives
    the call.

    Refuses with BudgetExceeded before any test that would take the
    rotations keyed so far past the budget; budget=None lifts it.  The
    budget counts `_rotation_classes(n, L)` * N * n rotations per test,
    exactly what a test without a collision keys.  Under
    any budget it also refuses a set of more than 2^30 rotations, whose
    keys could overflow, and a test whose peak could exceed physical
    memory.  That peak is at most 8 * (L + 3) * N * n bytes plus 8 per
    bin of the largest bincount, max(4 * N * n, 2^20): the table and each
    of the L key buffers take 8 bytes per rotation, and the last step's
    temporaries, a leaf's re-rank (25 bytes per rotation) or its bins, the
    rest.
    Only a test with a repeat runs that bincount; one without holds a
    bitmap of one byte per bin, so the bound holds with room to spare.
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
        keyed += _rotation_classes(n, size) * rotations
        if budget is not None and keyed > budget:
            raise BudgetExceeded(
                f"collision tests up to L = {size} key {keyed} rotations, "
                f"which exceed budget {budget}"
            )
        peak = 8 * (size + 3) * rotations + 8 * max(4 * rotations, _BINCOUNT_FLOOR)
        if peak > memory:
            raise BudgetExceeded(
                f"the collision test at L = {size} needs about {peak} bytes, "
                f"more than the {memory} bytes of physical memory"
            )
        if size == 1:  # the first test: the table is built after its checks
            table = _rotation_table(seqs)
        hit = _collision(seqs, table, size)
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
        nominal_comparisons=nominal_comparisons(fset),
    )


def classes_to_fhs(
    reps: np.ndarray,
    sizes: np.ndarray,
    code: CyclicCode,
    provenance: dict | None = None,
) -> FhsSet:
    """One sequence per full shift orbit of the code, from the orbit
    representatives and sizes that `class_partition` returns.

    The orbits are those outside the constant words, and the code must pass
    the full-orbit test.  The provenance records the mode: "nonconstant"
    when the code holds nonzero constant words (`_short_constants`), and
    then n must exceed q, else "nonzero".
    """
    q, n, nonzeros = code.field.order, code.n, code.nonzeros
    nonconstant = _short_constants(n, nonzeros)
    if nonconstant and n <= q:
        raise LengthAlphabetViolation(f"length {n} must exceed alphabet size {q}")
    if not _full_orbits(n, nonzeros):
        raise PredicateFailed("some codeword outside the constants has a short orbit")
    sizes = np.asarray(sizes)
    if len(sizes) == 0 or not nonzeros:
        raise EmptySet("no orbits to convert")
    bad = np.flatnonzero(sizes != n)
    if bad.size:
        raise ClassSizeNotFull(f"orbit of size {sizes[bad[0]]} != {n} cannot "
                               "yield a sequence set")
    info = dict(provenance) if provenance else {"family": "imported"}
    info.setdefault("mode", "nonconstant" if nonconstant else "nonzero")
    return FhsSet(reps, q, info)
