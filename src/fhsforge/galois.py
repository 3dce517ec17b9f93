"""Finite fields GF(p^m) with log/antilog tables, polynomials over them, and
the extension fields GF(q^d) on one vectorized kernel.

An element of GF(p^m) is an integer index in [0, q).  Index 0 is the additive
zero; a nonzero index packs the element's coefficients in the power basis as
base-p digits (digit i = coefficient of x^i).  The modulus of every field is
canonical (the monic primitive polynomial of degree m whose packed digit
value is smallest), so two runs always build identical tables, and x itself
is the designated primitive element.

`Polynomial` is GF(q)[x]: generators, x^n - 1 and remainders.  Its
division and product, Euclid's gcd on coefficient lists and Berlekamp-Massey
share one log-domain row operation, `_row`.  An extension GF(q^d) =
GF(q)[y]/(f) has no tables: `ExtensionField` multiplies its elements as
numpy digit planes, and every product modulo f, Ben-Or's powers among them,
is one of its products.  `root_field` gives one with an n-th root of unity:
f is Phi_n when Rabin's test on monomials, each one long division, proves
it irreducible, else the stream field of its degree, the first seeded
candidate that Ben-Or accepts, whose kernel is kept for the next length of
that degree.  `berlekamp_massey` gives the minimal polynomial over GF(q) of
a linear recurring sequence.
"""

from __future__ import annotations

import hashlib
import itertools
import math

import numpy as np

from .errors import (
    DivisionByZeroPolynomial,
    FieldMismatch,
    FieldTooLarge,
    NonPrimeCharacteristic,
    ZeroElement,
)
from .intmath import is_prime, is_prime_power, multiplicative_order, prime_factors
from .intmath import totient

FIELD_ORDER_CAP = 1 << 20
_TABLE_CHUNK = 1 << 12


def _mod_exact(r: np.ndarray, p: int) -> np.ndarray:
    """r mod p for float64 arrays of nonnegative integers below 2^50.

    r/p = a + b/p with 0 <= b < p, so r/p + 1/(2p) lies at least 1/(2p)
    from an integer, and the rounding error of r * (1/p), under
    (r/p + 1) * 2^-51, is smaller than that gap while r + p < 2^50."""
    return r - p * np.floor(r * (1.0 / p) + 0.5 / p)


class FiniteField:
    """GF(p^m) with precomputed log/antilog tables.

    Not constructed directly: use :func:`make_field`, which searches for the
    canonical modulus and caches one instance per (p, m).  The scalar
    operations take element indices unchecked (`Polynomial` checks its
    coefficients); -a = a x^((q-1)/2) for every odd q, and a - b is
    a + (-b) for every q.
    """

    def __init__(self, p: int, m: int, modulus: tuple[int, ...]):
        self.p = p
        self.m = m
        self.order = p**m
        self.modulus = modulus
        self._build_tables()

    # -- construction ------------------------------------------------------

    def _build_tables(self):
        """The antilog table x^k, k < q - 1, by doubling: with the first L
        powers known, x^(L+k) = x^L * x^k for k < L is one matmul of their
        base-p digits by the m x m matrix of multiplication by x^L, which
        squares for the next round.  The log table is its inverse
        permutation, built by one scatter.  For odd p and m > 1, the Zech
        logarithms z(k) = log(1 + x^k) make addition two table lookups."""
        q, p, m = self.order, self.p, self.m
        weights = p ** np.arange(m, dtype=np.int64)
        step = np.zeros((m, m))  # row i: the digits of x^(L+i)
        step[np.arange(m - 1), np.arange(1, m)] = 1
        step[m - 1] = np.negative(self.modulus[:m]) % p
        digits = np.zeros((q - 1, m), dtype=np.uint8 if p < 256 else np.uint32)
        digits[0, 0] = 1
        exp = np.ones(q - 1, dtype=np.int64)
        done = 1
        while done < q - 1:
            k = min(done, q - 1 - done)
            for lo in range(0, k, _TABLE_CHUNK):  # cache-sized float temporaries
                hi = min(lo + _TABLE_CHUNK, k)
                new = _mod_exact(digits[lo:hi] @ step, p)
                digits[done + lo:done + hi] = new
                exp[done + lo:done + hi] = new @ weights
            step = _mod_exact(step @ step, p)
            done += k
        log = np.full(q, -1, dtype=np.int64)
        log[exp] = np.arange(q - 1)
        if (log[1:] < 0).any():
            raise AssertionError("modulus is not primitive: antilog table collides")
        self.exp: list[int] = exp.tolist()
        self.log: list[int] = log.tolist()
        self._exp_u32, self._log_i64 = exp.astype(np.uint32), log
        if p != 2 and m > 1:
            # 1 + x^k steps digit 0 of x^k; it is 0 (log -1) at k = (q - 1)/2
            one_plus = exp + 1 - p * (digits[:, 0] == p - 1)
            self._zech: list[int] = log[one_plus].tolist()

    # -- scalar arithmetic on element indices -------------------------------

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.m == 1:
            return (a + b) % self.p
        if a == 0 or b == 0:
            return a or b
        # x^i + x^j = x^i (1 + x^(j-i)) = x^(i + z(j - i))
        i = self.log[a]
        z = self._zech[(self.log[b] - i) % (self.order - 1)]
        return 0 if z < 0 else self.exp[(i + z) % (self.order - 1)]

    def neg(self, a: int) -> int:
        if self.p == 2 or a == 0:
            return a
        # -1 = x^((q-1)/2) for odd q
        return self.exp[(self.log[a] + (self.order - 1) // 2) % (self.order - 1)]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[(self.log[a] + self.log[b]) % (self.order - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroElement("0 has no multiplicative inverse")
        return self.exp[-self.log[a] % (self.order - 1)]

    # -- vectorized arithmetic on numpy index arrays -------------------------

    def sums(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a + b, broadcast, for uint32 index arrays: the base-p digits of
        the packed indices added mod p, one digit per pass."""
        p = self.p
        if p == 2:
            return a ^ b
        out = a + b if self.m == 1 else a % p + b % p
        out %= p
        for i in range(1, self.m):
            w = p**i
            digit = a // w + b // w
            digit %= p
            digit *= w
            out += digit
            del digit  # before the next one, so that two never coexist
        return out

    def products(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a * b, broadcast, by one log/antilog gather.  log 0 = -1 sends a
        zero factor's sum to some exp entry, which the mask then zeroes."""
        log = self._log_i64
        out = self._exp_u32[(log[a] + log[b]) % (self.order - 1)]
        out[(a == 0) | (b == 0)] = 0
        return out

    # -- misc ----------------------------------------------------------------

    def __repr__(self):
        return f"GF({self.order})"


_FIELD_CACHE: dict[tuple[int, int], FiniteField] = {}
_STREAM_FIELDS: dict[tuple[int, int, int], ExtensionField] = {}  # see `root_field`


def make_field(p: int, m: int) -> FiniteField:
    """Build (or fetch the cached) GF(p^m) with its canonical modulus."""
    if not is_prime(p):
        raise NonPrimeCharacteristic(f"characteristic {p} is not prime")
    if m < 1:
        raise ValueError(f"extension degree must be >= 1, got {m}")
    if m >= FIELD_ORDER_CAP.bit_length() or p**m > FIELD_ORDER_CAP:  # p^m >= 2^m
        raise FieldTooLarge(f"GF({p}^{m}) exceeds the table cap {FIELD_ORDER_CAP}")
    key = (p, m)
    if key not in _FIELD_CACHE:
        if m == 1:
            # x - g for the primitive root g giving the smallest packed polynomial
            radicals = prime_factors(p - 1)
            c0 = next(c for c in range(1, p)
                      if all(pow(p - c, (p - 1) // r, p) != 1 for r in radicals))
            modulus = (c0, 1)
        else:
            modulus = _canonical_modulus(make_field(p, 1), m).coeffs
        _FIELD_CACHE[key] = FiniteField(p, m, modulus)
    return _FIELD_CACHE[key]


def check_field_order(q: int) -> None:
    """Refuse q above the table cap; checked before any factoring of q,
    which would trial-divide for ever at q near 2^61."""
    if q > FIELD_ORDER_CAP:
        raise FieldTooLarge(f"GF({q}) exceeds the table cap {FIELD_ORDER_CAP}")


def field_from_order(q: int) -> FiniteField:
    """GF(q) for a prime power q."""
    check_field_order(q)
    pe = is_prime_power(q)
    if pe is None:
        raise NonPrimeCharacteristic(f"{q} is not a prime power")
    return make_field(pe[0], pe[1])


def _canonical_modulus(base: FiniteField, d: int) -> Polynomial:
    """The primitive monic f of degree d over the prime field `base` with the
    smallest packed value sum_i c_i p^i: the first candidate in packed order
    that is irreducible and under which x has order p^d - 1."""
    x = Polynomial(base, (0, 1))
    for f in _packed(base, d):
        ext = _ben_or(f)
        if ext is not None and _has_order(ext, ext.element(x), base.order**d - 1):
            return f
    raise AssertionError(f"no candidate of degree {d} over GF({base.p}) is primitive")


def _packed(base: FiniteField, d: int):
    """The monic f of degree d over the prime field `base` with f(0) != 0,
    in packed order, less two kinds that are never primitive: the p-th
    powers g(x)^p, those with f' = 0, and the even f = g(x^2), those with
    no odd term.  For odd p, an irreducible even f has the root -x besides
    x, so -x = x^(p^i) for some 0 < i < d, and x^(2(p^i - 1)) = 1 with
    2(p^i - 1) < p^d - 1.  For p = 2 the two kinds are the same."""
    q, p = base.order, base.p
    for high in range(q ** (d - 1), 2 * q ** (d - 1)):  # f // x, packed, in order
        tail = Polynomial.from_packed(base, high).coeffs  # c_1, ..., c_d
        if any(tail[0::2]) and any(tail[i - 1] for i in range(1, d + 1) if i % p):
            yield from (Polynomial(base, (c,) + tail) for c in range(1, q))


class Polynomial:
    """Dense polynomial over a FiniteField: coefficient indices, low degree first.

    Trailing zeros are stripped; the zero polynomial has an empty coefficient
    tuple and degree -1.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FiniteField, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        for c in cs:
            if not 0 <= c < field.order:
                raise ValueError(f"{c} is not an element index of GF({field.order})")
        self.field = field
        self.coeffs = tuple(cs)

    @classmethod
    def one(cls, field) -> "Polynomial":
        return cls(field, (1,))

    @classmethod
    def from_packed(cls, field, packed: int) -> "Polynomial":
        """The polynomial whose coefficients are the base-q digits of `packed`."""
        q, coeffs = field.order, []
        while packed:
            packed, c = divmod(packed, q)
            coeffs.append(c)
        return cls(field, coeffs)

    @classmethod
    def x_pow_n_minus_one(cls, field, n: int) -> "Polynomial":
        return cls(field, (field.neg(1),) + (0,) * (n - 1) + (1,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> int:
        if not self.coeffs:
            raise ZeroElement("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def _match(self, other: "Polynomial"):
        if not isinstance(other, Polynomial):
            raise TypeError(f"expected Polynomial, got {type(other).__name__}")
        if other.field is not self.field:
            raise FieldMismatch("polynomials belong to different fields")

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and other.field is self.field
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((id(self.field), self.coeffs))

    def __add__(self, other):
        self._match(other)
        F = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = F.add(out[i], c)
        return Polynomial(F, out)

    def __neg__(self):
        F = self.field
        return Polynomial(F, [F.neg(c) for c in self.coeffs])

    def __sub__(self, other):
        self._match(other)
        return self + (-other)

    def __mul__(self, other):
        self._match(other)
        return Polynomial(self.field, _product(self.field, self.coeffs, other.coeffs))

    def scale(self, c: int) -> "Polynomial":
        F = self.field
        return Polynomial(F, [F.mul(a, c) for a in self.coeffs])

    def __divmod__(self, other):
        self._match(other)
        if other.is_zero():
            raise DivisionByZeroPolynomial("polynomial division by zero")
        rem = list(self.coeffs)
        quot = _reduce(self.field, rem, other.coeffs)
        return Polynomial(self.field, quot), Polynomial(self.field, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self) -> "Polynomial":
        if self.is_zero() or self.leading() == 1:
            return self
        return self.scale(self.field.inv(self.leading()))

    def __repr__(self):
        return f"Polynomial(GF({self.field.order}), {list(self.coeffs)})"


def _row(F: FiniteField, dst: list, o: int, lc: int, logs: list) -> None:
    """dst[o + j] += c * src[j] for each j, over GF(q): the inner loop of
    the division, product and Berlekamp-Massey of GF(q)[x].  c = x^lc,
    0 <= lc < q - 1, and logs[j] = log src[j], -1 for a zero, taken once
    per operand by the caller.  A term is exp[l + lc - (q - 1)], whose
    index lies in [-(q - 1), q - 1), so the list wraps it with no modulo;
    the sum is an XOR for p = 2, mod p for m = 1 and Zech's logarithm
    otherwise: x^a + x^t = x^(a + z(t - a))."""
    exp, n1 = F.exp, F.order - 1
    lc -= n1
    if F.p == 2:
        for j, l in enumerate(logs, o):
            if l >= 0:
                dst[j] ^= exp[l + lc]
    elif F.m == 1:
        p = F.p
        for j, l in enumerate(logs, o):
            if l >= 0:
                dst[j] = (dst[j] + exp[l + lc]) % p
    else:
        log, zech = F.log, F._zech
        for j, l in enumerate(logs, o):
            if l >= 0:
                t = l + lc
                a = dst[j]
                if a:
                    a = log[a]
                    z = zech[(t - a) % n1]
                    dst[j] = exp[a + z - n1] if z >= 0 else 0
                else:
                    dst[j] = exp[t]


def _product(F: FiniteField, a, b) -> list:
    """The coefficients of the product of two coefficient sequences: one
    row per nonzero coefficient of the shorter, over the longer's logs."""
    if not a or not b:
        return []
    if len(a) > len(b):
        a, b = b, a
    log = F.log
    out, logs = [0] * (len(a) + len(b) - 1), [log[y] for y in b]
    for i, x in enumerate(a):
        if x:
            _row(F, out, i, log[x], logs)
    return out


def _reduce(F: FiniteField, rem: list, divisor) -> list:
    """Long division of the coefficient list `rem` by the nonzero `divisor`:
    leaves the remainder in `rem`, trailing zeros stripped, and returns the
    quotient's coefficients.  The divisor's logs are taken once, and each
    quotient digit c subtracts its row as -c times the divisor by `_row`."""
    log, exp, n1 = F.log, F.exp, F.order - 1
    db = len(divisor) - 1
    lead, minus = log[divisor[-1]], log[F.neg(1)]
    logs = [log[b] for b in divisor[:-1]]
    quot = [0] * max(len(rem) - db, 0)
    for i in range(len(rem) - db - 1, -1, -1):
        r = rem[i + db]
        if r:
            lc = (log[r] - lead) % n1
            quot[i] = exp[lc]
            _row(F, rem, i, (lc + minus) % n1, logs)
    del rem[db:]
    while rem and rem[-1] == 0:
        rem.pop()
    return quot


def _euclid(F: FiniteField, a: list, b) -> list:
    """The last nonzero remainder of Euclid's algorithm on the coefficient
    lists a and b, a gcd up to a unit: empty when both are zero."""
    while b:
        _reduce(F, a, b)
        a, b = list(b), a
    return a


def _coprime_minus_x(F: FiniteField, s: list, f: tuple) -> bool:
    """Whether gcd(s - x, f) = 1, for f of degree d >= 2 and s the
    coefficients of a remainder mod f: Ben-Or's and Rabin's test, by Euclid
    on coefficient lists."""
    s = s + [0] * (2 - len(s))
    s[1] = F.sub(s[1], 1)
    while s and s[-1] == 0:
        s.pop()
    return len(_euclid(F, list(f), s)) == 1


def _ben_or(f: Polynomial) -> ExtensionField | None:
    """The kernel GF(q)[y]/(f) of the monic f if f is irreducible, else None.

    f of degree d is irreducible iff it shares no root with x^(q^i) - x for
    any 1 <= i <= d // 2, since a proper factorization forces a factor of
    degree at most d // 2; a linear f needs no test.  The first test, i = 1,
    rejects the many f with a root in GF(q), in one of two forms.  When
    q < d, x^q is its own remainder mod f, and gcd(x^q - x, f) != 1 says
    only that f vanishes somewhere in GF(q), at a nonzero element since
    f(0) != 0: so f is evaluated by Horner at a = 1, ..., q - 1, at most
    (q - 1)d scalar steps, fewer than one gcd, before any kernel is built.
    When q >= d, x^q is taken on the kernel, then the gcd.  Every later
    Frobenius power runs on the kernel that is returned.  Each gcd is
    decided by Euclid on coefficient lists (`_coprime_minus_x`), so no
    step builds a `Polynomial`.
    """
    d = f.degree
    if d < 1 or (d > 1 and f.coeffs[0] == 0):
        return None
    F, f = f.field, f.monic()
    if d == 1:
        return ExtensionField(f)
    q = F.order
    if q < d:
        add, mul, high_first = F.add, F.mul, f.coeffs[::-1]
        for a in range(1, q):
            value = 0
            for c in high_first:
                value = add(mul(value, a), c)
            if value == 0:
                return None
        ext = ExtensionField(f)
        s = ext.element(Polynomial(F, (0,) * q + (1,)))
    else:
        ext = ExtensionField(f)
        s = ext.pow(ext.element(Polynomial(F, (0, 1))), q)
        if not _coprime_minus_x(F, ext.coefficients(s), f.coeffs):
            return None
    for _ in range(d // 2 - 1):
        s = ext.pow(s, q)
        if not _coprime_minus_x(F, ext.coefficients(s), f.coeffs):
            return None
    return ext


class ExtensionField:
    """GF(q)[y]/(f) for a monic f of degree d >= 1 over GF(q), q = p^m: the
    field GF(q^d) when f is irreducible.

    An element is its digit plane, an int64 array of shape (d, m) whose
    entry (i, j) is the coefficient in GF(p) of y^i t^j, t the primitive
    element of GF(q): row i holds the base-p digits of the element index of
    the coefficient of y^i.  A product is three numpy steps, each reduced
    mod p: one `np.convolve` of the two planes flattened with row stride
    2m - 1, so that no t-degree spills into the next row; one matmul by the
    (2m - 1) x m table of t^k mod the base field's modulus; and one matmul
    by the table of t^j y^(d+k) mod f.  No step sums more than d(2m - 1)
    products of digits below p, which the constructor checks is below 2^63.
    """

    def __init__(self, f: Polynomial):
        F, d = f.field, f.degree
        if d < 1 or f.leading() != 1:
            raise ValueError(f"{f} is not monic of positive degree")
        p, m = F.p, F.m
        if d * (2 * m - 1) * (p - 1) ** 2 >= 1 << 63:
            raise FieldTooLarge(f"GF({F.order}^{d}) overflows the int64 kernel")
        self.base, self.modulus, self.d = F, f, d
        self._weights = p ** np.arange(m, dtype=np.int64)
        self._t_table = self._digits(F.exp[: 2 * m - 1])
        # planes[k][j] = t^j y^(d+k) mod f for k < d - 1: y^d = -(f_0 + ... +
        # f_(d-1) y^(d-1)), t^j times a plane is a matmul by rows j..j+m-1 of
        # the t table, and each next plane is y times the last: a shift, plus
        # the coefficient pushed past y^(d-1) times y^d
        low = -self._digits(f.coeffs[:d]) % p
        t_low = np.stack([low @ self._t_table[j : j + m] % p for j in range(m)])
        planes = [t_low]
        for _ in range(d - 2):
            prev = planes[-1]
            shifted = np.zeros_like(prev)
            shifted[:, 1:] = prev[:, :-1]
            carry = prev[:, -1] @ t_low.reshape(m, d * m)
            planes.append((shifted + carry.reshape(m, d, m)) % p)
        self._y_table = np.array(planes[: d - 1], dtype=np.int64).reshape(
            (d - 1) * m, d * m
        )
        self.one = self.element(Polynomial.one(F))
        self.one.flags.writeable = False

    def _digits(self, indices) -> np.ndarray:
        """The base-p digits of element indices, along a new last axis."""
        p = self.base.p
        return np.asarray(indices, dtype=np.int64)[..., None] // self._weights % p

    def element(self, poly: Polynomial) -> np.ndarray:
        """The digit plane of a polynomial over GF(q), reduced mod f."""
        if poly.degree >= self.d:
            poly = poly % self.modulus
        idx = np.zeros(self.d, dtype=np.int64)
        idx[: len(poly.coeffs)] = poly.coeffs
        return self._digits(idx)

    def coefficients(self, a: np.ndarray) -> list:
        """The element indices of a's coefficients, low degree first."""
        return (a @ self._weights).tolist()

    def is_one(self, a: np.ndarray) -> bool:
        return np.array_equal(a, self.one)

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        d, m, p = self.d, self.base.m, self.base.p
        wide = 2 * m - 1
        if m > 1:
            a = self._widen(a)
            b = self._widen(b)
        c = np.convolve(a.ravel(), b.ravel())[: (2 * d - 1) * wide] % p
        c = c.reshape(2 * d - 1, wide)
        if m > 1:
            c = c @ self._t_table % p
        return (c[:d] + (c[d:].ravel() @ self._y_table).reshape(d, m)) % p

    def _widen(self, a: np.ndarray) -> np.ndarray:
        out = np.zeros((self.d, 2 * self.base.m - 1), dtype=np.int64)
        out[:, : self.base.m] = a
        return out

    def pow(self, a: np.ndarray, e: int) -> np.ndarray:
        """a^e for e >= 0, by left-to-right square and multiply."""
        if e < 0:
            raise ValueError("negative exponent")
        if e == 0:
            return self.one
        out = a
        for bit in bin(e)[3:]:
            out = self.mul(out, out)
            if bit == "1":
                out = self.mul(out, a)
        return out


def root_field(base: FiniteField, n: int) -> tuple[ExtensionField, np.ndarray]:
    """(GF(q)[y]/(f), beta) with f monic irreducible of degree d = ord_n(q)
    and beta a root of unity of order exactly n, for n >= 1 coprime to q.

    When d = phi(n), f is the cyclotomic polynomial Phi_n and beta = y,
    proved by `_monomial_rabin` with no Ben-Or and no kernel power, so not
    resting on Lidl & Niederreiter's Thm 2.47: a failure raises.  Otherwise
    f is the first candidate that Ben-Or accepts from a fixed dense stream:
    candidate i is monic of degree d, its lower coefficients the base-q
    digits of SHAKE-256("p:m:d:i") mod q^d, skipped if f(0) = 0.  f depends
    on (p, m, d) alone, not on n, the Python version or PYTHONHASHSEED, and
    the kernel Ben-Or accepted is kept per process, so a second n of the
    same degree builds none.  beta = g^((q^d - 1)/n) for the first nonzero
    g in packed order from y, reduced mod f, that gives beta order n;
    GF(q^d)* is cyclic, so the search ends at a generator.
    """
    q = base.order
    d = multiplicative_order(q, n)
    if totient(n) == d:
        phi = _cyclotomic(base, n, prime_factors(n))
        if phi.degree != d or not _monomial_rabin(phi, n):
            raise AssertionError(f"Phi_{n} over GF({q}) fails the field or the order test")
        ext = ExtensionField(phi)
        return ext, ext.element(Polynomial(base, (0, 1)))
    key = (base.p, base.m, d)
    if key not in _STREAM_FIELDS:
        _STREAM_FIELDS[key] = next(filter(None, map(_ben_or, _stream(base, d))))
    ext = _STREAM_FIELDS[key]
    for packed in range(q, q ** (d + 1)):
        g = ext.element(Polynomial.from_packed(base, packed))
        if g.any() and _has_order(ext, beta := ext.pow(g, (q**d - 1) // n), n):
            return ext, beta
    raise AssertionError(f"GF({q}^{d}) has no element of order {n}")


def _monomial_rabin(f: Polynomial, n: int) -> bool:
    """Whether f, monic of degree D >= 1 with q^D = 1 mod n, divides x^n - 1
    and is irreducible with y of order n.  Modulo f, x^k = x^(k mod n), so
    x^(q^D) = x, and Rabin's test (1980) needs one gcd of a monomial per
    prime s | D; y then has order n iff x^(n/r) != 1 for each prime r | n.
    No exponent passes n, so each x^e mod f is one long division of a
    coefficient list, f | x^n - 1 among them as x^n = 1, and each gcd is
    Euclid on coefficient lists."""
    F, D = f.field, f.degree

    def monomial(e: int) -> list:  # x^e mod f
        rem = [0] * e + [1]
        _reduce(F, rem, f.coeffs)
        return rem

    return (D >= 1 and f.leading() == 1 and pow(F.order, D, n) == 1 % n
            and monomial(n) == [1]
            and all(monomial(n // r) != [1] for r in prime_factors(n))
            and all(_coprime_minus_x(F, monomial(pow(F.order, D // s, n)), f.coeffs)
                    for s in prime_factors(D)))


def _has_order(ext: ExtensionField, beta: np.ndarray, order: int) -> bool:
    """Whether beta has order exactly `order` in the field `ext`."""
    short = any(ext.is_one(ext.pow(beta, order // r)) for r in prime_factors(order))
    return not short and ext.is_one(ext.pow(beta, order))


def _cyclotomic(base: FiniteField, n: int, radicals: list[int]) -> Polynomial:
    """Phi_n over GF(q) as prod_(e | n) (x^e - 1)^mu(n/e), the product over
    the squarefree n/e, by one exact division."""
    num = den = Polynomial.one(base)
    for k in range(len(radicals) + 1):
        for rs in itertools.combinations(radicals, k):
            term = Polynomial.x_pow_n_minus_one(base, n // math.prod(rs))
            if k % 2:
                den = den * term
            else:
                num = num * term
    return num // den


def _stream(base: FiniteField, d: int):
    """The monic candidates of degree d that `root_field` searches, in order."""
    q = base.order
    size = q**d
    digest_bytes = size.bit_length() // 8 + 8  # so the digest mod q^d is near uniform
    for i in itertools.count():
        seed = f"{base.p}:{base.m}:{d}:{i}".encode()
        low = int.from_bytes(hashlib.shake_256(seed).digest(digest_bytes), "little")
        low %= size
        if low % q:
            yield Polynomial.from_packed(base, low + size)


def berlekamp_massey(field: FiniteField, seq) -> Polynomial:
    """The monic minimal polynomial of the shortest linear recurrence that
    generates `seq` (Massey 1969): x^L + c_1 x^(L-1) + ... + c_L, where
    s_k + c_1 s_(k-1) + ... + c_L s_(k-L) = 0 for every L <= k < len(seq).

    Step k's discrepancy is term k of the product c * seq, which is kept
    beside the connection polynomial c from term k on: each update
    c -= (disc / last) x^shift b is one `_row` on c and one on that product,
    from b * seq, so no step takes a dot product."""
    F = field
    log, n1, minus = F.log, F.order - 1, F.log[F.neg(1)]
    cs = list(seq)  # c * seq, exact from the current step on
    c, b, bs = [1], [0], [log[s] for s in cs]  # b, and b * seq past b's step, as logs
    length, shift, last = 0, 1, 0  # last: the log of b's discrepancy
    for k in range(len(cs)):
        disc = cs[k]
        if disc == 0:
            shift += 1
            continue
        coef = (log[disc] - last + minus) % n1  # the log of -disc / last
        if 2 * length <= k:
            prev, prev_s = [log[a] for a in c], [log[a] for a in cs[k + 1:]]
        c += [0] * (len(b) + shift - len(c))
        _row(F, c, shift, coef, b)
        if k + 1 < len(cs):
            _row(F, cs, k + 1, coef, bs[: len(cs) - k - 1])
        if 2 * length <= k:
            length, b, bs, last, shift = k + 1 - length, prev, prev_s, log[disc], 1
            c += [0] * (length + 1 - len(c))
        else:
            shift += 1
    return Polynomial(F, reversed(c[: length + 1]))
