"""Cyclotomic cosets, cyclic codes from defining sets, and shift-orbit analysis.

A cyclic code of length n over GF(q), gcd(n, q) = 1, is pinned down by its
defining set Z (a union of q-cyclotomic cosets mod n): the generator is
g(x) = prod_{j in Z} (x - alpha^j) for the canonical primitive n-th root of
unity alpha.  A coset is the sorted tuple of its members, and
`_factor_table`, the one cache, holds each coset's factor of x^n - 1 per
(p, m, n), computed when first asked for: Phi_d for a coset that holds
every residue of order d, and the split cosets' factors together in a root field,
with one vectorized check that each vanishes where it should.
Codewords fall into orbits under the cyclic shift.  `_orbit_census`, the
residue test `_full_orbits` and the constant-word rule `_short_constants`
work from (n, q, nonzeros) alone, the nonzeros being the j outside Z.
"""

from __future__ import annotations

import dataclasses
import math
import os
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    EnumerationTooLarge,
    FactorTableTooLarge,
    GcdConditionViolated,
    NonPositiveLength,
    NotCoprime,
    NotCosetClosed,
    ZeroCode,
)
from .galois import (
    FiniteField,
    Polynomial,
    _cyclotomic,
    _monomial_rabin,
    berlekamp_massey,
    field_from_order,
    make_field,
    root_field,
)
from .intmath import multiplicative_order, prime_factors

ENUMERATION_CAP = 1 << 22
# Peak bytes per window key of the pointer jumping in `class_partition`, four
# int64 arrays: 32 by tracemalloc on twelve codes from [31, 21] over GF(2) to
# [27, 2] over GF(512).
BYTES_PER_KEY = 32
# The factor table of x^n - 1 over GF(q), and the cyclotomic cosets mod n,
# are refused before any work when n or d = ord_n(q) passes these caps.  On a
# 2-core Xeon guest n = 131,071 over GF(2^17) (d = 1) takes 3.0 s, d = 53
# over GF(2^16) and GF(2^20) 6 to 17 s, and d = 58..66 over GF(11) and
# GF(13) under 2 s.
FACTOR_LENGTH_CAP = 1 << 17
FACTOR_DEGREE_CAP = 64
# Digits per block of the factor table's vanishing check, `_values_at_powers`.
_CHECK_BLOCK = 1 << 14


def check_factor_length(n: int) -> None:
    """Refuse (`FactorTableTooLarge`) a length past FACTOR_LENGTH_CAP."""
    if n > FACTOR_LENGTH_CAP:
        raise FactorTableTooLarge(
            f"the factor table of x^{n} - 1 exceeds the length cap "
            f"{FACTOR_LENGTH_CAP}"
        )


def cyclotomic_cosets(n: int, q: int) -> list[tuple[int, ...]]:
    """All distinct q-cyclotomic cosets mod n, sorted by representative.
    Each is the sorted tuple of its members, so coset[0] is its
    representative.  Refused (`FactorTableTooLarge`) before any work when
    n > FACTOR_LENGTH_CAP."""
    if n < 1:
        raise NonPositiveLength(f"length must be positive, got {n}")
    check_factor_length(n)
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
        out.append(tuple(sorted(members)))
    return out


@lru_cache(maxsize=None)
def _factor_table(p: int, m: int, n: int) -> _FactorTable:
    """The factors of x^n - 1 over GF(q), one per cyclotomic coset, under
    the canonical primitive n-th root of unity alpha, each computed on the
    first request for it (`_FactorTable.factor`) and kept by this
    per-(p, m, n) cache.

    alpha is a root of m_1, the monic irreducible factor of Phi_n over
    GF(q) whose packed value sum_i c_i q^i is smallest; conjugate roots
    give the same labelling.  alpha^j has order d = n/gcd(j, n), so C_j
    lies among the phi(d) residues of order d.  When it holds them all,
    Phi_d is irreducible and is the factor of C_j whatever alpha is (Lidl
    & Niederreiter, Thm 2.47).  It is still proved so: `_monomial_rabin`
    finds it irreducible with y of order d, or the table raises.  Only the
    split cosets need alpha, and `_FactorTable._split_factors` computes
    them together in a root field.  When ord_n(q) = phi(n), every Phi_d
    with d | n is irreducible, and the table builds no extension field.

    Both caps are checked here, before any factor is asked for: a table
    whose n exceeds FACTOR_LENGTH_CAP or whose ord_n(q) exceeds
    FACTOR_DEGREE_CAP is refused (`FactorTableTooLarge`) before any work.
    """
    field = make_field(p, m)
    q = field.order
    cosets = cyclotomic_cosets(n, q)
    d = multiplicative_order(q, n)
    if d > FACTOR_DEGREE_CAP:
        raise FactorTableTooLarge(
            f"x^{n} - 1 splits over GF({q}^{d}), past the degree cap "
            f"{FACTOR_DEGREE_CAP}"
        )
    return _FactorTable(field, n, cosets)


class _FactorTable:
    """The cyclotomic cosets mod n and, on request, each one's factor of
    x^n - 1 over `field`; see `_factor_table`."""

    def __init__(self, field: FiniteField, n: int, cosets: list[tuple[int, ...]]):
        self.field, self.n, self.cosets = field, n, cosets
        # the phi(d) residues of order d form one coset exactly when the
        # coset holds them all
        orders = [n // math.gcd(c[0], n) for c in cosets]
        count = Counter(orders)
        self._phi_orders = {c[0]: d for c, d in zip(cosets, orders) if count[d] == 1}
        self._factors: dict[int, Polynomial] = {}  # by representative

    def factor(self, coset: tuple[int, ...]) -> Polynomial:
        """The factor of `coset`, one of `cosets`: Phi_d when the coset
        holds every residue of order d, else from the split cosets' factors, all
        computed on the first request for one of them."""
        j = coset[0]
        if j in self._factors:
            return self._factors[j]
        d = self._phi_orders.get(j)
        if d is None:
            self._factors.update(self._split_factors())
            return self._factors[j]
        phi = _cyclotomic(self.field, d, prime_factors(d))
        if phi.degree != len(coset) or not _monomial_rabin(phi, d):
            raise AssertionError(
                f"Phi_{d} over GF({self.field.order}) fails the field or the order test"
            )
        self._factors[j] = phi
        return phi

    def _split_factors(self) -> dict[int, Polynomial]:
        """The factor of each split coset, by representative, computed in
        GF(q^d) = GF(q)[y]/(f), d = ord_n(q), on the `ExtensionField`
        kernel, under the root beta of order n that `galois.root_field`
        gives with its stream field f.  They are computed under beta and
        relabelled: with s the least unit whose factor under beta is m_1,
        alpha = beta^s, and the factor of C_j is beta's factor of C_(s*j),
        split as C_j is, since s*j has the order of j.  A coset splits only
        when Phi_n does, so the units are split and s is among them.

        The factor m_j of C_j is the minimal polynomial, by Berlekamp-Massey
        over GF(q), of u_k = the constant coefficient of beta^(jk),
        k < 2|C_j|.  The table checks, in near-linear time, that beta^n = 1
        and beta^(n/r) != 1 for every prime r | n, and that each m_j is
        monic of degree |C_j| with m_j(beta^j) = 0, the last for all split
        cosets in one pass, `_values_at_powers`.  Then beta has order n, and
        m_j vanishes on the |C_j| distinct conjugates beta^c, c in C_j, so
        m_j = prod_(c in C_j) (x - beta^c).  Each Phi_d is the product of
        x - beta^c over the c of order d, and the cosets partition 0..n-1,
        so all the factors multiply to x^n - 1.  Under the caps, the (n, d)
        uint32 table of the powers of beta takes n*d*4 <= 32 MiB.
        """
        field, n = self.field, self.n
        q = field.order
        split = [c for c in self.cosets if c[0] not in self._phi_orders]
        ext, beta = root_field(field, n)
        checkpoints = {n // r for r in prime_factors(n)}
        weights = field.p ** np.arange(field.m)
        powers = np.empty((n, ext.d), dtype=np.uint32)
        power = ext.one
        for k in range(n):
            if k in checkpoints and ext.is_one(power):
                raise AssertionError(f"beta^{k} = 1: beta does not have order {n}")
            powers[k] = power @ weights
            power = ext.mul(power, beta)
        if not ext.is_one(power):
            raise AssertionError(f"beta^{n} != 1")
        u = powers[:, 0].tolist()
        under_beta, packed, factors = [None] * n, [0] * n, []
        for coset in split:
            j, size = coset[0], len(coset)
            mj = berlekamp_massey(field, [u[j * k % n] for k in range(2 * size)])
            if mj.degree != size or mj.leading() != 1:
                raise AssertionError(
                    f"the factor of C_{j} is not monic of degree {size}"
                )
            factors.append(mj)
            key = sum(c * q**i for i, c in enumerate(mj.coeffs))
            for i in coset:
                under_beta[i] = mj
                packed[i] = key
        nonzero = _values_at_powers(field, powers, [c[0] for c in split], factors)
        if nonzero.any():
            j = split[int(nonzero.any(axis=1).argmax())][0]
            raise AssertionError(f"the factor of C_{j} does not vanish at beta^{j}")
        s = min((j for j in range(n) if math.gcd(j, n) == 1), key=packed.__getitem__)
        return {c[0]: under_beta[s * c[0] % n] for c in split}


def _values_at_powers(field: FiniteField, powers: np.ndarray, exponents,
                      polys) -> np.ndarray:
    """Row t: the coefficient indices of polys[t](beta^exponents[t]), for
    nonzero polys over GF(q), row k of `powers` those of beta^k, beta^n = 1.
    Each term c_i beta^(j*i mod n) is a gathered row scaled by `products`,
    and one `np.add.reduceat` sums the terms' base-p digits per polynomial,
    in blocks of whole polynomials of at most _CHECK_BLOCK digits (or one,
    of at most 65 * 64 * 20 under the caps), 8 bytes per temporary digit."""
    (n, d), p = powers.shape, field.p
    weights = p ** np.arange(field.m, dtype=np.uint32)
    sizes = np.array([len(f.coeffs) for f in polys])
    ends = np.cumsum(sizes)
    out, start = np.empty((len(polys), d), dtype=np.uint32), 0
    while start < len(polys):
        before = ends[start] - sizes[start]
        stop = np.searchsorted(ends, before + _CHECK_BLOCK // (d * field.m), "right")
        block = range(start, max(stop, start + 1))
        rows = powers[[exponents[t] * i % n for t in block
                       for i in range(len(polys[t].coeffs))]]
        coef = np.array([c for t in block for c in polys[t].coeffs])[:, None]
        digits = field.products(coef, rows)[..., None] // weights % p
        offsets = ends[block] - sizes[block] - before
        out[block] = np.add.reduceat(digits, offsets, axis=0) % p @ weights
        start = block.stop
    return out


def factor_x_pow_n_minus_one(
    field: FiniteField, n: int
) -> list[tuple[tuple[int, ...], Polynomial]]:
    """Irreducible factors of x^n - 1 over GF(q), one per cyclotomic coset,
    as (coset, factor) pairs in coset order; see `_factor_table`."""
    table = _factor_table(field.p, field.m, n)
    return [(coset, table.factor(coset)) for coset in table.cosets]


@dataclass(frozen=True)
class CyclicCode:
    """[n, k] cyclic code over GF(q) with defining set Z."""

    field: FiniteField
    n: int
    defining_set: tuple[int, ...]
    generator: Polynomial
    check: Polynomial
    # the minimum distance, once a partition has weighed it; see `_orbits`
    _min_distance: int | None = dataclasses.field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def dimension(self) -> int:
        return self.n - len(self.defining_set)

    @property
    def size(self) -> int:
        return self.field.order**self.dimension

    @property
    def nonzeros(self) -> tuple[int, ...]:
        """The j outside Z: the alpha^j are the roots of h(x)."""
        return tuple(sorted(set(range(self.n)).difference(self.defining_set)))

    def export_dict(self) -> dict:
        field = self.field
        table = _factor_table(field.p, field.m, self.n)
        # cosets are ordered by least member: the coset of 1 is second when n > 1
        alpha_factor = table.factor(table.cosets[1 % self.n])
        return {
            "n": self.n,
            "p": field.p,
            "m": field.m,
            "modulus": list(field.modulus),
            "defining_set": list(self.defining_set),
            "dimension": self.dimension,
            "generator": list(self.generator.coeffs),
            "alpha_minimal_polynomial": list(alpha_factor.coeffs),
        }

    def __repr__(self):
        return f"CyclicCode([{self.n}, {self.dimension}] over GF({self.field.order}))"


def build_code(n: int, field: FiniteField, defining_set) -> CyclicCode:
    """Cyclic code of length n over `field` with the given defining set.
    Only the factors of the smaller of g and h are asked of the factor
    table, so a code whose smaller side is all Phi_d factors, such as a
    repetition code's h = x - 1, builds no root field."""
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
    # multiply out the factors of the smaller of g and h, an O(min(|Z|, k)^2)
    # product, and divide x^n - 1 by it for the other; only that side's
    # factors are asked for, so a side of Phi_d factors needs no root field
    small_is_g = 2 * len(zset) <= n
    table = _factor_table(field.p, field.m, n)
    small = Polynomial.one(field)
    for coset in table.cosets:
        if (coset[0] in zset) == small_is_g:
            small = small * table.factor(coset)
    xn1 = Polynomial.x_pow_n_minus_one(field, n)
    large, rem = divmod(xn1, small)
    if not rem.is_zero():
        raise AssertionError("the factors do not divide x^n - 1")
    g, h = (small, large) if small_is_g else (large, small)
    return CyclicCode(field, n, tuple(sorted(zset)), g, h)


def unit_coset_code(q: int, m: int) -> CyclicCode:
    """The [n, n-m, 3] cyclic code of length n = (q^m - 1)/(q - 1) whose
    defining set is the q-cyclotomic coset of 1.  Requires gcd(m, q-1) = 1."""
    field = field_from_order(q)
    if m < 1:
        raise NonPositiveLength(f"length (q^m - 1)/(q - 1) needs m >= 1, got {m}")
    if math.gcd(m, q - 1) != 1:
        raise GcdConditionViolated(f"gcd({m}, {q - 1}) != 1")
    if m > FACTOR_LENGTH_CAP.bit_length():  # n >= 2^(m-1), before taking q^m
        raise FactorTableTooLarge(f"n >= 2^{m - 1} is past the length cap")
    n = (q**m - 1) // (q - 1)
    coset = sorted({pow(q, i, n) for i in range(m)}) if n > 1 else [0]
    return build_code(n, field, coset)


def _full_orbits(n: int, nonzeros) -> bool:
    """The paper's residue test: True iff every codeword outside the
    constant words has a full shift orbit, whether or not 0 is in Z: every
    nonzero j != 0 is coprime to n, so h's roots other than 1 are primitive."""
    return all(math.gcd(j, n) == 1 for j in nonzeros if j)


def _short_constants(n: int, nonzeros) -> bool:
    """True iff the code holds nonzero constant words, of orbit size
    1 < n: 0 is a nonzero (the all-ones word is a codeword) and n > 1."""
    return 0 in nonzeros and n > 1


def has_full_orbits_outside_constants(code: CyclicCode) -> bool:
    """True iff every codeword outside the constant words has a full shift
    orbit of size n, whether or not 0 is in Z; see `_full_orbits`."""
    return _full_orbits(code.n, code.nonzeros)


def _physical_memory() -> int:
    """Bytes of physical memory on this machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _check_cap(code: CyclicCode, cap: int, need: int) -> None:
    """Refuse, before any work, a code of more than `cap` words, or one
    whose work would need `need` bytes, more than physical memory."""
    total = code.size
    if total > cap:
        raise EnumerationTooLarge(f"{total} codewords exceed the cap {cap}")
    if need > (memory := _physical_memory()):
        raise EnumerationTooLarge(
            f"{total} codewords need about {need} bytes, more than the "
            f"{memory} bytes of physical memory"
        )


def _generator_row(code: CyclicCode) -> np.ndarray:
    g = np.zeros(code.n, dtype=np.uint32)
    g[: len(code.generator.coeffs)] = code.generator.coeffs
    return g


def _step(field: FiniteField, heads: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """Every h + w for h a row of `heads` and w a row of `tail`, h most
    significant in the row order; for `_shift_map` and `codeword_matrix`."""
    if len(tail) == 1 and not tail.any():
        return heads
    return field.sums(heads[:, None, :], tail).reshape(-1, heads.shape[1])


def codeword_matrix(code: CyclicCode, cap: int = ENUMERATION_CAP) -> np.ndarray:
    """All q^k codewords as an array of shape (q^k, n), message order:
    row sum_i m_i q^(k-1-i) holds sum_i m_i x^i g(x).  Used only as the
    tests' message-order oracle and the trace's enumeration span."""
    # 9 bytes per entry: the traced peak is 5.0 to 8.4, on [15, 9] over GF(4)
    # up to [26, 4] over GF(25)
    _check_cap(code, cap, 9 * code.n * code.size)
    mat = np.zeros((1, code.n), dtype=np.uint32)
    if code.dimension == 0:  # the zero code: g = x^n - 1 has n + 1 coefficients
        return mat
    field, g = code.field, _generator_row(code)
    scalars = np.arange(field.order)
    for i in reversed(range(code.dimension)):
        mat = _step(field, field.products(scalars[:, None], np.roll(g, i)), mat)
    return mat


def _shift_map(code: CyclicCode) -> np.ndarray:
    """The shift map on the q^k window keys (k >= 1); see `class_partition`."""
    field, h, k = code.field, code.check.coeffs, code.dimension
    q, scalars = field.order, np.arange(field.order)
    taps = field.products(np.array(h[1:]), field.neg(field.inv(h[0])))
    tap_multiples = field.products(scalars[:, None], taps)  # column i: every c * tap i
    fb = np.zeros((1, 1), dtype=np.uint32)  # each key's feedback c_(t+k)
    for i in range(k):  # -h_(i+1) / h_0 weighs digit q^i
        fb = _step(field, tap_multiples[:, i : i + 1], fb)
    # key a * q^(k-1) + b steps to b * q + its feedback, row a of fb
    return (np.arange(0, q**k, q)[None, :] + fb.reshape(q, -1)).ravel()


def _walk(code: CyclicCode, nxt: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """The words spelt by n steps of `nxt` from `keys`, time-major: row t of
    the (n, len(keys)) array holds the leading digits after t steps.  g's
    key is walked beside them for the two checks of `class_partition`."""
    n, k, q = code.n, code.dimension, code.field.order
    g = _generator_row(code)
    state = start = np.append(keys, int(g[:k] @ q ** np.arange(k - 1, -1, -1)))
    words = np.empty((n, len(start)), dtype=np.uint32)
    for t in range(n):
        words[t] = state // q ** (k - 1)
        state = nxt[state]
    if not np.array_equal(state, start):
        raise AssertionError(f"the shift map's {n}-th power is not the identity: "
                             f"h does not divide x^{n} - 1")
    if not np.array_equal(words[:, -1], g):
        raise AssertionError("the shift map does not regenerate g: "
                             "h is not this code's check polynomial")
    return words[:, :-1]


def _least_keys(nxt: np.ndarray, n: int) -> np.ndarray:
    """Each key's least key over its first 2^ceil(log2 n) >= n steps of `nxt`."""
    best, jump = np.arange(len(nxt)), nxt
    for r in range((n - 1).bit_length()):  # best: least of 2^(r+1) steps
        if r:  # jump = nxt^(2^r), squared only for a round that reads it
            jump = jump[jump]
        np.minimum(best, best[jump], out=best)
    return best


def _orbit_census(n: int, q: int, nonzeros) -> dict[int, int]:
    """The number of shift orbits of each exact size d | n that has any, in
    the cyclic code of length n over GF(q) with the given nonzeros.

    The shift by e | n fixes the q^f(e) words whose nonzeros are multiples
    of n/e, f(e) = #{j in nonzeros : (n/e) | j}, and each has an exact
    period dividing e.  So in ascending d, the words of exact period d are
    q^f(d) less those of each smaller period e | d, d to an orbit."""
    low = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    words = {}
    for d in sorted({*low, *(n // d for d in low)}):
        fixed = q ** sum(j % (n // d) == 0 for j in nonzeros)
        words[d] = fixed - sum(w for e, w in words.items() if d % e == 0)
    return {d: w // d for d, w in words.items() if w}


def _orbits(code: CyclicCode, census: dict) -> tuple[np.ndarray, np.ndarray]:
    """Each orbit's least rotation, one column of an (n, orbits) array in
    key order, and its size; see `class_partition`.  Raises AssertionError
    unless pointer jumping finds as many orbits of each size as `census`,
    the code's `_orbit_census`.  Stores the least positive column weight on
    the code as its minimum distance."""
    if code.dimension == 0:  # the zero code is one orbit
        return np.zeros((code.n, 1), dtype=np.uint32), np.ones(1, dtype=np.intp)
    nxt = _shift_map(code)
    sizes = np.bincount(_least_keys(nxt, code.n), minlength=len(nxt))
    least = np.flatnonzero(sizes)
    sizes = sizes[least]
    found = {d: c for d, c in enumerate(np.bincount(sizes).tolist()) if c}
    if found != census:
        raise AssertionError(f"{len(least)} orbits of sizes {found}, "
                             f"not the census's {census}")
    walk = _walk(code, nxt, least)
    weights = np.count_nonzero(walk, axis=0)
    object.__setattr__(code, "_min_distance", int(weights[weights > 0].min()))
    return walk, sizes


def class_partition(
    code: CyclicCode, exclude: str = "constants", cap: int = ENUMERATION_CAP
):
    """Shift-orbit partition of the codewords outside the constant-word
    subcode, all but the zero word when 0 is in Z, as (representatives,
    sizes).  Representatives are least rotations, sorted lexicographically.
    `exclude` must be "constants".

    Any k cyclically consecutive positions are an information set, so the
    width-k window key sum_(i<k) c_(t+i) q^(k-1-i) names a word at any shift
    t, and keys order words as the full words do.  Since c h = 0 mod
    x^n - 1, c_(t+k) = -h_0^-1 (h_1 c_(t+k-1) + ... + h_k c_t): the shift is
    one map nxt on the q^k keys, and an orbit is a cycle of it.  Pointer
    jumping finds each key's least key over its cycle in ceil(log2 n)
    rounds; sizes are a `bincount` of the least keys, and `_walk` spells
    each representative by n steps of its least key.  Its two checks prove
    the keys biject onto this code's words: (a) every walked key returns
    after n steps; (b) the walk from the key of g regenerates g, which the
    reversed recurrence would not.  (a) is nxt^n = id: the dropped digit's
    tap -h_k/h_0 is nonzero, so nxt is a permutation, and each cycle holds
    its least key, which is walked.  `_orbit_census` gives the orbits of
    each size in advance, so memory is checked before any work, and
    `_orbits` checks that pointer jumping finds the same sizes.

    Weight is constant on an orbit, so once both checks pass the least
    nonzero weight of the walked representatives is the minimum distance;
    a partition of a code of dimension >= 1 stores it on the code for
    `min_distance_exhaustive`.
    """
    if exclude != "constants":
        raise ValueError(f"exclude must be 'constants', got {exclude!r}")
    # the pointer jumping, or nxt and sizes held through the walk: 8 bytes per
    # entry with the kept copy, 9 counted, as with 8 [26, 13] over GF(3), even
    # nonzeros, peaks 264 bytes over, within the 1-2.5 KiB of numpy bookkeeping
    census = _orbit_census(code.n, code.field.order, code.nonzeros)
    orbits, keys = sum(census.values()), code.size
    _check_cap(code, cap, max(BYTES_PER_KEY * keys, 16 * keys + 9 * code.n * orbits))
    walk, sizes = _orbits(code, census)
    keep = sizes > 1  # the shift fixes exactly the constant words
    return walk.T[keep], sizes[keep]


enumerate_classes = class_partition  # the partition under the trace's name


def min_distance_exhaustive(code: CyclicCode, cap: int = ENUMERATION_CAP) -> int:
    """Exact minimum Hamming weight over the nonzero codewords: the
    distance `class_partition` stores on the code, partitioning it first
    when it holds none.  The cap check comes first either way."""
    if code.dimension == 0:
        raise ZeroCode("the zero code has no minimum distance")
    _check_cap(code, cap, 0)
    if code._min_distance is None:
        class_partition(code, cap=cap)
    return code._min_distance
