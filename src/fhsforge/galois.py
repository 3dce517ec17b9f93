"""Finite fields GF(p^m) with log/antilog tables, and polynomials over them.

An element of GF(p^m) is an integer index in [0, q).  Index 0 is the additive
zero; a nonzero index packs the element's coefficients in the power basis as
base-p digits (digit i = coefficient of x^i).  The modulus of every field is
canonical (the monic primitive polynomial of degree m whose packed digit
value is smallest), so two runs always build identical tables, and x itself
is the designated primitive element.

An extension GF(q^d) has no tables: its elements are `Polynomial`s over
GF(q) reduced mod an irreducible f of degree d, found by the same packed
search.  `berlekamp_massey` gives the minimal polynomial over GF(q) of a
linear recurring sequence in GF(q).
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DivisionByZeroPolynomial,
    FieldMismatch,
    FieldTooLarge,
    NonPrimeCharacteristic,
    ZeroElement,
)
from .intmath import is_prime, multiplicative_order, prime_factors

FIELD_ORDER_CAP = 1 << 20


class FiniteField:
    """GF(p^m) with precomputed log/antilog tables.

    Not constructed directly: use :func:`make_field`, which searches for the
    canonical modulus and caches one instance per (p, m).
    """

    def __init__(self, p: int, m: int, modulus: tuple[int, ...]):
        self.p = p
        self.m = m
        self.order = p**m
        self.modulus = modulus
        self.exp: list[int] = []
        self.log: list[int] = [-1] * self.order
        self._build_tables()
        self._np_exp: np.ndarray | None = None
        self._np_log: np.ndarray | None = None
        self._add_table: np.ndarray | None = None

    # -- construction ------------------------------------------------------

    def _build_tables(self):
        q, p, m = self.order, self.p, self.m
        if p == 2:
            packed = sum(c << i for i, c in enumerate(self.modulus))
            x = 1
            for _ in range(q - 1):
                self.exp.append(x)
                self.log[x] = len(self.exp) - 1
                x <<= 1
                if x & q:
                    x ^= packed
        else:
            # multiply the coefficient vector by x and reduce mod the modulus
            tail = self.modulus[:m]
            coeffs = [1] + [0] * (m - 1)
            for _ in range(q - 1):
                self.exp.append(self._pack(coeffs))
                self.log[self.exp[-1]] = len(self.exp) - 1
                top = coeffs[m - 1]
                coeffs = [0] + coeffs[: m - 1]
                if top:
                    coeffs = [(c - top * t) % p for c, t in zip(coeffs, tail)]
        if len(set(self.exp)) != q - 1:
            raise AssertionError("modulus is not primitive: antilog table collides")

    def _pack(self, coeffs) -> int:
        v = 0
        for c in reversed(coeffs):
            v = v * self.p + c
        return v

    # -- scalar arithmetic on element indices -------------------------------

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def check(self, e: int) -> int:
        if not 0 <= e < self.order:
            raise ValueError(f"{e} is not an element index of GF({self.order})")
        return e

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.m == 1:
            return (a + b) % self.p
        p, s, w = self.p, 0, 1
        while a or b:
            s += (a % p + b % p) % p * w
            a //= p
            b //= p
            w *= p
        return s

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        if self.m == 1:
            return (-a) % self.p
        p, s, w = self.p, 0, 1
        while a:
            s += (-a % p) * w
            a //= p
            w *= p
        return s

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b)) if self.p != 2 else a ^ b

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[(self.log[a] + self.log[b]) % (self.order - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroElement("0 has no multiplicative inverse")
        return self.exp[-self.log[a] % (self.order - 1)]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                raise ZeroElement("0 cannot be raised to a negative power")
            return 1 if e == 0 else 0
        return self.exp[self.log[a] * e % (self.order - 1)]

    # -- vectorized arithmetic on numpy index arrays -------------------------

    def _tables(self):
        if self._np_exp is None:
            self._np_exp = np.array(self.exp, dtype=np.uint32)
            self._np_log = np.array([max(v, 0) for v in self.log], dtype=np.int64)
        return self._np_exp, self._np_log

    def add_table(self) -> np.ndarray:
        """The q x q addition table, built on first use and kept.

        Entry [a, b] is a + b: the base-p digits of the packed indices added
        mod p, one digit per pass.
        """
        if self._add_table is None:
            p = self.p
            e = np.arange(self.order, dtype=np.int64)
            out = np.zeros((self.order, self.order), dtype=np.int64)
            w = 1
            for _ in range(self.m):
                digit = e // w % p
                out += (digit[:, None] + digit) % p * w
                w *= p
            self._add_table = out.astype(np.uint32)
        return self._add_table

    def multiples(self, a: np.ndarray, scalars: np.ndarray) -> np.ndarray:
        """c * a for every c in `scalars`, stacked along a new first axis."""
        exp_t, log_t = self._tables()
        out = exp_t[np.add.outer(log_t[scalars], log_t[a]) % (self.order - 1)]
        out[np.logical_or.outer(scalars == 0, a == 0)] = 0
        return out

    # -- misc ----------------------------------------------------------------

    def __repr__(self):
        return f"GF({self.order})"

    def export_key(self) -> dict:
        return {"p": self.p, "m": self.m, "modulus": list(self.modulus)}


_FIELD_CACHE: dict[tuple[int, int], FiniteField] = {}


def make_field(p: int, m: int) -> FiniteField:
    """Build (or fetch the cached) GF(p^m) with its canonical modulus."""
    if not is_prime(p):
        raise NonPrimeCharacteristic(f"characteristic {p} is not prime")
    if m < 1:
        raise ValueError(f"extension degree must be >= 1, got {m}")
    if p**m > FIELD_ORDER_CAP:
        raise FieldTooLarge(f"GF({p}^{m}) exceeds the table cap {FIELD_ORDER_CAP}")
    key = (p, m)
    if key not in _FIELD_CACHE:
        if m == 1:
            # x - g for the primitive root g giving the smallest packed polynomial
            c0 = next(c for c in range(1, p) if multiplicative_order(p - c, p) == p - 1)
            modulus = (c0, 1)
        else:
            modulus = _canonical_modulus(make_field(p, 1), m, p**m - 1).coeffs
        _FIELD_CACHE[key] = FiniteField(p, m, modulus)
    return _FIELD_CACHE[key]


def check_field_order(q: int) -> None:
    """Refuse q above the table cap; checked before any factoring of q,
    which would trial-divide for ever at q near 2^61."""
    if q > FIELD_ORDER_CAP:
        raise FieldTooLarge(f"GF({q}) exceeds the table cap {FIELD_ORDER_CAP}")


def field_from_order(q: int) -> FiniteField:
    """GF(q) for a prime power q."""
    from .intmath import is_prime_power

    check_field_order(q)
    pe = is_prime_power(q)
    if pe is None:
        raise NonPrimeCharacteristic(f"{q} is not a prime power")
    return make_field(pe[0], pe[1])


def _canonical_modulus(base: FiniteField, d: int, order: int) -> Polynomial:
    """The monic irreducible f of degree d over `base`, f(0) != 0, with the
    smallest packed value sum_i c_i q^i such that x^(order/r) != 1 mod f for
    every prime r | order.  With order = q^d - 1 that makes f primitive; with
    order = 1 any irreducible f will do."""
    q = base.order
    x = Polynomial(base, (0, 1))
    radicals = prime_factors(order)
    for packed in range(1, q**d):
        if packed % q == 0:
            continue
        f = Polynomial.from_packed(base, packed + q**d)
        if is_irreducible(f) and all(
            pow_mod(x, order // r, f).coeffs != (1,) for r in radicals
        ):
            return f
    raise AssertionError(f"no such polynomial of degree {d} over GF({q})")


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
            field.check(c)
        self.field = field
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, field) -> "Polynomial":
        return cls(field, ())

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
    def x_pow(cls, field, k: int, c: int = 1) -> "Polynomial":
        return cls(field, (0,) * k + (c,))

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
        F = self.field
        if self.is_zero() or other.is_zero():
            return Polynomial.zero(F)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] = F.add(out[i + j], F.mul(a, b))
        return Polynomial(F, out)

    def scale(self, c: int) -> "Polynomial":
        F = self.field
        return Polynomial(F, [F.mul(a, c) for a in self.coeffs])

    def __divmod__(self, other):
        self._match(other)
        if other.is_zero():
            raise DivisionByZeroPolynomial("polynomial division by zero")
        F = self.field
        rem = list(self.coeffs)
        db = other.degree
        inv_lead = F.inv(other.leading())
        quot = [0] * max(len(rem) - db, 0)
        for i in range(len(rem) - db - 1, -1, -1):
            c = F.mul(rem[i + db], inv_lead)
            if c == 0:
                continue
            quot[i] = c
            for j, b in enumerate(other.coeffs):
                rem[i + j] = F.sub(rem[i + j], F.mul(c, b))
        return Polynomial(F, quot), Polynomial(F, rem)

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


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic greatest common divisor."""
    a._match(b)
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def pow_mod(base: Polynomial, e: int, mod: Polynomial) -> Polynomial:
    """base**e reduced mod `mod` (e >= 0)."""
    if e < 0:
        raise ValueError("negative exponent")
    result = Polynomial.one(base.field)
    base = base % mod
    while e:
        if e & 1:
            result = result * base % mod
        base = base * base % mod
        e >>= 1
    return result


def is_irreducible(f: Polynomial) -> bool:
    """Irreducibility over the coefficient field.

    f of degree d is irreducible iff it shares no root with x^(q^i) - x for
    any 1 <= i <= d // 2, since a proper factorization forces a factor of
    degree at most d // 2.
    """
    d = f.degree
    if d < 1:
        return False
    if d == 1:
        return True
    if f.coeffs[0] == 0:
        return False
    F = f.field
    x = Polynomial(F, (0, 1))
    r = x
    for _ in range(d // 2):
        r = pow_mod(r, F.order, f)
        if not poly_gcd(r - x, f).coeffs == (1,):
            return False
    return True


def root_of_unity(f: Polynomial, n: int) -> Polynomial:
    """An element of order exactly n in GF(q)[y]/(f), f irreducible of degree
    d with n | q^d - 1: g^((q^d - 1)/n) for the least packed g that gives one.

    A constant's order divides q - 1, so the q constants are skipped unless
    n | q - 1 (that is, unless d = 1)."""
    q = f.field.order
    order = q**f.degree
    one = Polynomial.one(f.field)
    radicals = prime_factors(n)
    for packed in range(1 if (q - 1) % n == 0 else q, order):
        beta = pow_mod(Polynomial.from_packed(f.field, packed), (order - 1) // n, f)
        if all(pow_mod(beta, n // r, f) != one for r in radicals):
            return beta
    raise AssertionError(f"no element of order {n} modulo {f}")


def berlekamp_massey(field: FiniteField, seq) -> Polynomial:
    """The monic minimal polynomial of the shortest linear recurrence that
    generates `seq` (Massey 1969): x^L + c_1 x^(L-1) + ... + c_L, where
    s_k + c_1 s_(k-1) + ... + c_L s_(k-L) = 0 for every L <= k < len(seq)."""
    F = field
    c, b = [1], [1]  # connection polynomials, now and at the last length change
    length, shift, last = 0, 1, 1
    for k, s in enumerate(seq):
        disc = s
        for i in range(1, length + 1):
            disc = F.add(disc, F.mul(c[i], seq[k - i]))
        if disc == 0:
            shift += 1
            continue
        coef = F.div(disc, last)
        prev = list(c)
        c += [0] * (len(b) + shift - len(c))
        for i, bi in enumerate(b):
            c[i + shift] = F.sub(c[i + shift], F.mul(coef, bi))
        if 2 * length <= k:
            length, b, last, shift = k + 1 - length, prev, disc, 1
            c += [0] * (length + 1 - len(c))
        else:
            shift += 1
    return Polynomial(F, reversed(c[: length + 1]))
