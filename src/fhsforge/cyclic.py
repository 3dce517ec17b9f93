"""Cyclotomic cosets, cyclic codes from defining sets, and shift-orbit analysis.

A cyclic code of length n over GF(q), gcd(n, q) = 1, is pinned down by its
defining set Z (a union of q-cyclotomic cosets mod n): the generator is
g(x) = prod_{j in Z} (x - alpha^j) for the canonical primitive n-th root of
unity alpha (see `RootContext`).  Codewords fall into orbits under the
cyclic shift; the two orbit predicates below decide, by pure residue
arithmetic, whether every orbit outside the constant words (resp. outside
zero) is full.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    DoesNotContainAllOnes,
    EnumerationTooLarge,
    GcdConditionViolated,
    NonPositiveLength,
    NotCoprime,
    NotCosetClosed,
    ZeroCode,
)
from .galois import (
    FiniteField,
    PolyExtField,
    Polynomial,
    field_from_order,
    make_field,
)
from .intmath import multiplicative_order

ENUMERATION_CAP = 1 << 22


@dataclass(frozen=True)
class CyclotomicCoset:
    n: int
    q: int
    members: tuple[int, ...]

    @property
    def representative(self) -> int:
        return self.members[0]

    def __len__(self):
        return len(self.members)


def cyclotomic_cosets(n: int, q: int) -> list[CyclotomicCoset]:
    """All distinct q-cyclotomic cosets mod n, sorted by representative."""
    if n < 1:
        raise NonPositiveLength(f"length must be positive, got {n}")
    if math.gcd(n, q) != 1:
        raise NotCoprime(f"gcd({n}, {q}) != 1")
    seen = [False] * n
    out = []
    for t in range(n):
        if seen[t]:
            continue
        members = []
        j = t
        while not seen[j]:
            seen[j] = True
            members.append(j)
            j = j * q % n
        out.append(CyclotomicCoset(n, q, tuple(sorted(members))))
    return out


class RootContext:
    """The canonical primitive n-th root of unity alpha for GF(q), and the
    minimal polynomial over GF(q) of each of its powers.

    alpha lives in the base field when d = ord_n(q) is 1, and otherwise in
    the polynomial-quotient extension GF(q)[y]/(f) of degree d.  It is fixed
    by its minimal polynomial, not by that representation: alpha is a root
    of m_1, the monic irreducible factor of Phi_n(x) over GF(q) whose packed
    value sum_i c_i q^i is smallest.  Conjugate roots give the same
    labelling, so any root of m_1 will do.  The factors are computed once
    under whichever primitive root beta the field offers, and relabelled:
    with s the least unit whose factor under beta is m_1, alpha = beta^s,
    and the factor of coset j is beta's factor of coset s*j mod n.
    """

    def __init__(self, field: FiniteField, n: int):
        if math.gcd(n, field.order) != 1:
            raise NotCoprime(f"gcd({n}, {field.order}) != 1")
        self.base = field
        self.n = n
        d = multiplicative_order(field.order % n, n) if n > 1 else 1
        if d == 1:
            self.ext = field
            beta = field.nth_root_of_unity(n)
        else:
            self.ext = PolyExtField(field, d)
            beta = self.ext.element_of_order(n)
        beta_pows = [self.ext.one]
        for _ in range(n - 1):
            beta_pows.append(self.ext.mul(beta_pows[-1], beta))
        self.cosets = cyclotomic_cosets(n, field.order)
        under_beta = [None] * n
        for coset in self.cosets:
            mj = self._minimal_polynomial([beta_pows[j] for j in coset.members])
            for j in coset.members:
                under_beta[j] = mj

        def packed(j):
            return sum(c * field.order**i for i, c in enumerate(under_beta[j].coeffs))

        s = min((j for j in range(n) if math.gcd(j, n) == 1), key=packed)
        self.alpha_pows = [beta_pows[s * j % n] for j in range(n)]
        self.minimal_polynomials = [under_beta[s * j % n] for j in range(n)]

    def _minimal_polynomial(self, roots) -> Polynomial:
        """prod (x - r) over `roots`, mapped back to the base field."""
        E = self.ext
        coeffs = [E.one]
        for r in roots:
            nxt = [E.zero] * (len(coeffs) + 1)
            for i, c in enumerate(coeffs):
                nxt[i + 1] = E.add(nxt[i + 1], c)
                nxt[i] = E.sub(nxt[i], E.mul(c, r))
            coeffs = nxt
        if E is not self.base:
            coeffs = [E.to_base(c) for c in coeffs]
            if None in coeffs:
                raise AssertionError("a coset factor does not map back to GF(q)")
        return Polynomial(self.base, coeffs)


@lru_cache(maxsize=None)
def _root_context(p: int, m: int, n: int) -> RootContext:
    return RootContext(make_field(p, m), n)


def root_context(field: FiniteField, n: int) -> RootContext:
    return _root_context(field.p, field.m, n)


@lru_cache(maxsize=None)
def _factor_table(p: int, m: int, n: int) -> dict[int, tuple[CyclotomicCoset, Polynomial]]:
    field = make_field(p, m)
    ctx = root_context(field, n)
    out = {}
    product = Polynomial.one(field)
    for coset in ctx.cosets:
        mj = ctx.minimal_polynomials[coset.representative]
        out[coset.representative] = (coset, mj)
        product = product * mj
    if product != Polynomial.x_pow_n_minus_one(field, n):
        raise AssertionError("coset factors do not multiply back to x^n - 1")
    return out


def factor_x_pow_n_minus_one(
    field: FiniteField, n: int
) -> list[tuple[CyclotomicCoset, Polynomial]]:
    """Irreducible factors of x^n - 1 over GF(q), one per cyclotomic coset."""
    table = _factor_table(field.p, field.m, n)
    return [table[rep] for rep in sorted(table)]


@dataclass
class CyclicCode:
    """[n, k] cyclic code over GF(q) with defining set Z."""

    field: FiniteField
    n: int
    defining_set: tuple[int, ...]
    generator: Polynomial
    check: Polynomial

    @property
    def dimension(self) -> int:
        return self.n - len(self.defining_set)

    @property
    def size(self) -> int:
        return self.field.order**self.dimension

    def context(self) -> RootContext:
        return root_context(self.field, self.n)

    def export_dict(self) -> dict:
        key = self.field.export_key()
        return {
            "n": self.n,
            "p": key["p"],
            "m": key["m"],
            "modulus": key["modulus"],
            "defining_set": list(self.defining_set),
            "dimension": self.dimension,
            "generator": list(self.generator.coeffs),
            "alpha_minimal_polynomial": list(
                self.context().minimal_polynomials[1 % self.n].coeffs
            ),
        }

    def __repr__(self):
        return f"CyclicCode([{self.n}, {self.dimension}] over GF({self.field.order}))"


def build_code(n: int, field: FiniteField, defining_set) -> CyclicCode:
    """Cyclic code of length n over `field` with the given defining set."""
    if math.gcd(n, field.order) != 1:
        raise NotCoprime(f"gcd({n}, {field.order}) != 1")
    zset = set()
    for j in defining_set:
        j = int(j)
        if not 0 <= j < n:
            raise NotCosetClosed(f"residue {j} outside 0..{n - 1}")
        zset.add(j)
    if {j * field.order % n for j in zset} != zset:
        raise NotCosetClosed(f"{sorted(zset)} is not a union of cosets mod {n}")
    table = _factor_table(field.p, field.m, n)
    g = Polynomial.one(field)
    remaining = set(zset)
    while remaining:
        j = min(remaining)
        coset, mj = next(
            (c, m) for c, m in table.values() if j in c.members
        )
        g = g * mj
        remaining -= set(coset.members)
    xn1 = Polynomial.x_pow_n_minus_one(field, n)
    h, rem = divmod(xn1, g)
    if not rem.is_zero():
        raise AssertionError("generator does not divide x^n - 1")
    return CyclicCode(field, n, tuple(sorted(zset)), g, h)


def unit_coset_code(q: int, m: int) -> CyclicCode:
    """The [n, n-m, 3] cyclic code of length n = (q^m - 1)/(q - 1) whose
    defining set is the q-cyclotomic coset of 1.  Requires gcd(m, q-1) = 1."""
    field = field_from_order(q)
    if m < 1:
        raise NonPositiveLength(f"length (q^m - 1)/(q - 1) needs m >= 1, got {m}")
    if math.gcd(m, q - 1) != 1:
        raise GcdConditionViolated(f"gcd({m}, {q - 1}) != 1")
    n = (q**m - 1) // (q - 1)
    coset = sorted({pow(q, i, n) for i in range(m)}) if n > 1 else [0]
    return build_code(n, field, coset)


def has_full_orbits_outside_constants(code: CyclicCode) -> bool:
    """True iff every codeword outside the constant-word subcode has a full
    shift orbit of size n.

    Requires the constants to be codewords (0 not in Z).  Equivalent residue
    test: every j outside Z with 1 <= j < n is coprime to n, i.e. every root
    of h(x)/(x-1) is a primitive n-th root of unity.
    """
    zset = set(code.defining_set)
    if 0 in zset:
        raise DoesNotContainAllOnes("defining set contains 0")
    return all(math.gcd(j, code.n) == 1 for j in range(1, code.n) if j not in zset)


def has_full_orbits_nonzero(code: CyclicCode) -> bool:
    """True iff every nonzero codeword has a full shift orbit of size n,
    i.e. every root of h(x) is a primitive n-th root of unity."""
    zset = set(code.defining_set)
    if code.dimension == 0:
        raise ZeroCode("the zero code has no nonzero codewords")
    if 0 not in zset and code.n > 1:
        return False
    return all(math.gcd(j, code.n) == 1 for j in range(code.n) if j not in zset)


def small_period_witness(code: CyclicCode) -> tuple[int, ...] | None:
    """A codeword outside the constants whose orbit is provably short.

    When some residue j outside Z has gcd(j, n) > 1, dividing x^n - 1 by
    (x - 1) and the minimal polynomial of alpha^j leaves a codeword killed
    by x^r - 1 for r = n / gcd(j, n) < n.  Returns None when no such
    residue exists.  Requires 0 not in Z.
    """
    zset = set(code.defining_set)
    if 0 in zset:
        raise DoesNotContainAllOnes("defining set contains 0")
    bad = [j for j in range(1, code.n) if j not in zset and math.gcd(j, code.n) > 1]
    if not bad:
        return None
    table = _factor_table(code.field.p, code.field.m, code.n)
    j = bad[0]
    coset, mj = next((c, m) for c, m in table.values() if j in c.members)
    xn1 = Polynomial.x_pow_n_minus_one(code.field, code.n)
    one_factor = table[0][1]
    w = xn1 // (one_factor * mj)
    coeffs = list(w.coeffs) + [0] * (code.n - len(w.coeffs))
    return tuple(coeffs)


def _check_cap(code: CyclicCode, cap: int) -> None:
    total = code.field.order**code.dimension
    if total > cap:
        raise EnumerationTooLarge(f"{total} codewords exceed the cap {cap}")


def _generator_row(code: CyclicCode) -> np.ndarray:
    g = np.zeros(code.n, dtype=np.uint32)
    g[: len(code.generator.coeffs)] = code.generator.coeffs
    return g


def _step(field: FiniteField, heads: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """Every h + w for h a row of `heads` and w a row of `tail`, h most
    significant in the row order."""
    if len(tail) == 1 and not tail.any():
        return heads
    if field.p == 2:
        out = heads[:, None, :] ^ tail
    else:
        # A tail past the zero word spans at least one generator shift, so
        # the q^2-entry add table is no larger than q^k <= the cap.
        if len(tail) < field.order:
            raise AssertionError(
                f"tail of {len(tail)} words is shorter than q = {field.order}"
            )
        out = field.add_table().ravel()[(heads * field.order)[:, None, :] + tail]
    return out.reshape(-1, heads.shape[1])


def codeword_matrix(code: CyclicCode, cap: int = ENUMERATION_CAP) -> np.ndarray:
    """All q^k codewords as an array of shape (q^k, n), message order:
    row sum_i m_i q^(k-1-i) holds sum_i m_i x^i g(x)."""
    _check_cap(code, cap)
    mat = np.zeros((1, code.n), dtype=np.uint32)
    if code.dimension == 0:  # the zero code: g = x^n - 1 has n + 1 coefficients
        return mat
    field, g = code.field, _generator_row(code)
    scalars = np.arange(field.order)
    for i in reversed(range(code.dimension)):
        mat = _step(field, field.multiples(np.roll(g, i), scalars), mat)
    return mat


@dataclass(frozen=True)
class EquivalenceClass:
    """A shift orbit: its lexicographically least rotation and its size."""

    representative: tuple[int, ...]
    size: int

    @property
    def period(self) -> int:
        return self.size


def _least_rotation_partition(mat: np.ndarray, q: int, k: int):
    """Unique least rotations of the rows with multiplicities.

    The rows must be all the codewords of a cyclic [n, k] code over GF(q).
    Then every row's full orbit is present in `mat`, so the multiplicity of
    a least rotation equals its orbit size.  Any k cyclically consecutive
    positions of a cyclic code form an information set, so the width-k
    window key sum_{i<k} c[t+i] q^(k-1-i) is a bijection from the codewords
    onto 0..q^k-1 that orders them as the full words do, and one
    multiply-add per shift rolls it along.  A least rotation is itself a
    row, the one whose shift-0 key is the least key of its orbit.
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
        raise AssertionError(
            f"width-{w} window keys are not a permutation of 0..{total - 1}: "
            f"the rows are not the codewords of a cyclic code of dimension {k}"
        )
    best = key.copy()
    for t in range(1, n):
        key -= mat[:, t - 1] * lead
        key *= qq
        key += mat[:, (t + w - 1) % n]
        np.minimum(best, key, out=best)
    sizes = np.bincount(best.view(np.int64), minlength=total)
    keys = np.flatnonzero(sizes)
    return mat[pos[keys]], sizes[keys]


def class_partition(
    code: CyclicCode, exclude: str = "none", cap: int = ENUMERATION_CAP
):
    """Shift-orbit partition of the codewords as (representatives, sizes).

    exclude: "none", "zero" (drop the zero word) or "constants" (drop the
    constant-word subcode).  Representatives are least rotations, sorted
    lexicographically.  The partition runs on all the codewords, which is
    what the window key in `_least_rotation_partition` requires.
    """
    if exclude not in ("none", "zero", "constants"):
        raise ValueError(f"unknown exclude mode {exclude!r}")
    mat = codeword_matrix(code, cap)
    reps, sizes = _least_rotation_partition(mat, code.field.order, code.dimension)
    if exclude == "zero":
        keep = reps.any(axis=1)
        reps, sizes = reps[keep], sizes[keep]
    elif exclude == "constants":
        keep = (reps != reps[:, :1]).any(axis=1)
        reps, sizes = reps[keep], sizes[keep]
    return reps, sizes


def enumerate_classes(
    code: CyclicCode, exclude: str = "none", cap: int = ENUMERATION_CAP
) -> list[EquivalenceClass]:
    reps, sizes = class_partition(code, exclude, cap)
    return [
        EquivalenceClass(tuple(int(s) for s in row), int(c))
        for row, c in zip(reps, sizes)
    ]


def min_distance_exhaustive(code: CyclicCode, cap: int = ENUMERATION_CAP) -> int:
    """Exact minimum Hamming weight over the nonzero codewords.

    A nonzero codeword whose first nonzero message coefficient is m_j is
    m_j times one with m_j = 1 and m_i = 0 for i < j, of the same weight.
    So only those words are weighed, block by block, and the largest array
    holds q^(k-1) words, not q^k.
    """
    if code.dimension == 0:
        raise ZeroCode("the zero code has no minimum distance")
    _check_cap(code, cap)
    field, g = code.field, _generator_row(code)
    scalars = np.arange(field.order)
    tail = np.zeros((1, code.n), dtype=np.uint32)
    best = code.n
    for j in reversed(range(code.dimension)):
        row = np.roll(g, j)
        block = _step(field, row[None, :], tail)
        best = min(best, int(np.count_nonzero(block, axis=1).min()))
        if j:
            tail = _step(field, field.multiples(row, scalars), tail)
    return best
