"""Small exact integer helpers: primality, factoring, multiplicative order."""

from math import gcd, isqrt


def is_prime(x: int) -> bool:
    return x >= 2 and smallest_prime_factor(x) == x


def smallest_prime_factor(x: int) -> int:
    if x < 2:
        raise ValueError(f"no prime factor of {x}")
    if x % 2 == 0:
        return 2
    f = 3
    r = isqrt(x)
    while f <= r:
        if x % f == 0:
            return f
        f += 2
    return x


def prime_factors(x: int) -> list[int]:
    """Distinct prime factors of x >= 2, sorted ascending."""
    out = []
    while x > 1:
        p = smallest_prime_factor(x)
        out.append(p)
        while x % p == 0:
            x //= p
    return out


def totient(x: int) -> int:
    """Euler's phi of x >= 1, from its distinct prime factors."""
    for p in prime_factors(x):
        x = x // p * (p - 1)
    return x


def is_prime_power(x: int) -> tuple[int, int] | None:
    """Return (p, e) with x = p**e, or None if x is not a prime power."""
    if x < 2:
        return None
    p = smallest_prime_factor(x)
    e = 0
    while x % p == 0:
        x //= p
        e += 1
    return (p, e) if x == 1 else None


def multiplicative_order(a: int, n: int) -> int:
    """Least j >= 1 with a**j = 1 (mod n); requires n >= 1, gcd(a, n) = 1."""
    if n < 1:
        raise ValueError(f"modulus must be positive, got {n}")
    if n == 1:
        return 1
    a %= n
    if gcd(a, n) != 1:
        raise ValueError(f"{a} is not invertible mod {n}")
    j, x = 1, a
    while x != 1:
        x = x * a % n
        j += 1
    return j
