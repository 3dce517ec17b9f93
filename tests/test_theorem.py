"""The paper's theorem on every admissible family instance, by arithmetic alone.

Each family's code is fixed by its nonzeros, the j outside Z: A, length
q + 1 over GF(2^m), has {-k..k}; B, length q + 1 over GF(q) for odd q, has
{-1, 0, 1}; and C, of odd length n | q + 1, has {lo..n - lo} with
lo = (n - 1)/2 - k.  The orbit census and the residue test take (n, q,
nonzeros) alone, with no field or factor table, so every instance under a
field order is checked, not only those that enumerate.

`check_admissible(q_max)` is the check; CI runs it up to q = 4096:

    python -c 'import sys; sys.path.insert(0, "tests"); import test_theorem; print(test_theorem.check_admissible(4096))'

`check_every_code(n_max, q_max, limit)` checks the theorem itself on every
cyclic code that holds the constants, not only on the families; CI runs it
with more unions per (n, q) than Tier-1:

    python -c 'import sys; sys.path.insert(0, "tests"); import test_theorem; print(test_theorem.check_every_code(40, 32, 2**10))'
"""

import math
import random
from collections import Counter

from fhsforge.bounds import optimality_report, singleton_max_size
from fhsforge.constructions import (
    _claimed, family_a, family_b, family_c, family_ding, largest_bad_m)
from fhsforge.cyclic import (
    FACTOR_LENGTH_CAP, _full_orbits, _orbit_census, cyclotomic_cosets)
from fhsforge.errors import BoundTooLarge
from fhsforge.intmath import is_prime, is_prime_power, smallest_prime_factor


def instances(q_max, past_cap=False):
    """(family, q, n, k, nonzeros) for every admissible instance with
    q <= q_max, or, with `past_cap`, for k one step past each cap on k:
    A's, and C's where it is below (n - 3)/2; B has k = 1 and no cap."""
    for m in range(2, q_max.bit_length()):
        q = 1 << m
        n = q + 1
        k_cap = min(smallest_prime_factor(n) - 1, 1 << (m - 1))
        for k in [k_cap + 1] if past_cap else range(1, k_cap + 1):
            yield "A", q, n, k, {j % n for j in range(-k, k + 1)}
    prime_powers = [q for q in range(2, q_max + 1) if is_prime_power(q)]
    for q in prime_powers:
        if q % 2 and not past_cap:
            yield "B", q, q + 1, 1, {q, 0, 1}
    for q in prime_powers:
        for n in range(3, q + 2, 2):
            if (q + 1) % n:
                continue
            bad_m = largest_bad_m(n)
            k_cap = (n - 3) // 2 - bad_m
            if past_cap and not bad_m:
                continue
            for k in [k_cap + 1] if past_cap else range(k_cap + 1):
                lo = (n - 1) // 2 - k
                yield "C", q, n, k, set(range(lo, n - lo + 1))


def claimed(family, q, n, k):
    """The paper's (N, lambda) for the instance, per family: the oracle for
    the builders' one formula from the nonzeros, `_claimed`."""
    if family == "A":
        return (q ** (2 * k + 1) - q) // n, 2 * k
    if family == "B":
        return q * (q - 1), 2
    return (q ** (2 * k + 2) - 1) // n, 2 * k + 1


def short_orbits(census, n):
    """The orbit sizes strictly between 1 and n that the census counts."""
    return set(census) - {1, n}


def check_admissible(q_max):
    """Check the theorem on every admissible instance with q <= q_max: the
    builders' claims from the nonzeros are the paper's, no orbit is short,
    the residue test agrees, the census's full orbits are the claimed N,
    and the set meets Singleton.  It meets Peng-Fan exactly for B, A with
    k = 1 and C with k = 0.  A report past its printable digits is
    refused, and there Singleton's N is compared directly.
    Returns the instances checked per family, and the count of refused
    reports as "unprintable"."""
    checked = Counter()
    for family, q, n, k, nonzeros in instances(q_max):
        census = _orbit_census(n, q, nonzeros)
        where = (family, q, n, k)
        assert not short_orbits(census, n), where
        assert _full_orbits(n, nonzeros), where
        count, lam = claimed(family, q, n, k)
        assert _claimed(q, n, nonzeros) == (count, lam), where
        assert census[n] == count, where
        try:
            report = optimality_report(n, count, q, lam)
        except BoundTooLarge:
            assert singleton_max_size(n, lam, q) == count, where
            checked["unprintable"] += 1
        else:
            assert report.meets_singleton, where
            pf_optimal = family == "B" or k == {"A": 1, "C": 0}.get(family)
            assert report.meets_peng_fan == pf_optimal, where
        checked[family] += 1
    return checked


def test_nonzeros_are_the_constructions():
    # the complement of each builder's defining set, with no enumeration
    cases = [(family_a(3, 1, enum_cap=1), ("A", 8, 9, 1)),
             (family_a(4, 4, enum_cap=1), ("A", 16, 17, 4)),
             (family_b(5, enum_cap=1), ("B", 5, 6, 1)),
             (family_b(9, enum_cap=1), ("B", 9, 10, 1)),
             (family_c(32, 11, 1, enum_cap=1), ("C", 32, 11, 1)),
             (family_c(8, 9, 0, enum_cap=1), ("C", 8, 9, 0)),
             (family_c(27, 7, 1, enum_cap=1), ("C", 27, 7, 1))]
    ours = {inst[:4]: inst[4] for inst in instances(32)}
    for build, where in cases:
        assert set(build.code.nonzeros) == ours[where], where
        claims = build.claims
        assert (claims["class_count"][0], claims["lambda_match"][0]) == claimed(*where)


def test_theorem_on_every_admissible_instance():
    assert check_admissible(1024) == {"A": 154, "B": 188, "C": 5932}


def test_one_step_past_each_cap_has_a_short_orbit():
    # except where A's binding cap is 2^(m-1) = (n-1)/2 for a Fermat prime
    # n: there k + 1 fills Z_n, and every nonconstant orbit of F_q^n is full
    past = Counter()
    full = []
    for family, q, n, k, nonzeros in instances(1024, past_cap=True):
        past[family] += 1
        census = _orbit_census(n, q, nonzeros)
        assert _full_orbits(n, nonzeros) == (not short_orbits(census, n))
        if not short_orbits(census, n):
            assert nonzeros == set(range(n)) and is_prime(n)
            full.append((family, q))
    assert past == {"A": 9, "C": 254}
    assert full == [("A", 4), ("A", 16), ("A", 256)]


def coset_unions(n, q, limit):
    """The nonzeros {0} plus each union of the q-cyclotomic cosets mod n
    other than {0}: all of them when there are at most `limit` unions, else
    `limit` distinct ones, drawn with a seed of (n, q)."""
    cosets = cyclotomic_cosets(n, q)[1:]
    total = 1 << len(cosets)
    masks = range(total)
    if total > limit:
        masks = random.Random(f"{n},{q}").sample(masks, limit)
    for mask in masks:
        yield {0, *(j for i, coset in enumerate(cosets) if mask >> i & 1 for j in coset)}


def check_every_code(n_max, q_max, limit):
    """Check the theorem on the cyclic codes of length n <= n_max over
    GF(q), q <= q_max a prime power coprime to n, that hold the constants:
    the orbit census shows only sizes 1 and n exactly when the residue test
    holds, and q orbits of size 1, the constant words.  The census counts
    fixed words and the test reads gcds, so neither derives the other.
    Returns the number of codes checked."""
    checked = 0
    for q in filter(is_prime_power, range(2, q_max + 1)):
        for n in range(1, n_max + 1):
            if math.gcd(n, q) != 1:
                continue
            for nonzeros in coset_unions(n, q, limit):
                census = _orbit_census(n, q, nonzeros)
                where = (n, q, sorted(nonzeros))
                assert _full_orbits(n, nonzeros) == (not short_orbits(census, n)), where
                assert census[1] == q, where
                checked += 1
    return checked


def test_theorem_on_every_cyclic_code():
    assert check_every_code(40, 32, 2**8) == 44228


def ding_lengths(cap):
    """(q, m, n) for every prime power q and m >= 2 with gcd(m, q - 1) = 1
    and n = (q^m - 1)/(q - 1) <= cap: the unit-coset codes of Ding et al."""
    m = 2
    while 2**m - 1 <= cap:
        q = 2
        while (n := (q**m - 1) // (q - 1)) <= cap:
            if math.gcd(m, q - 1) == 1 and is_prime_power(q):
                yield q, m, n
            q += 1
        m += 1


def test_ding_family_from_its_nonzeros():
    # the nonzeros are Z_n less the coset of 1, the powers of q, which are
    # units, so the residue test alone, with no field or factor table, says
    # every orbit outside the constants is full exactly when n is prime
    lengths = list(ding_lengths(FACTOR_LENGTH_CAP))
    for q, m, n in lengths:
        nonzeros = set(range(n)) - {pow(q, i, n) for i in range(m)}
        assert _full_orbits(n, nonzeros) == is_prime(n), (q, m, n)
        if n < 100:  # the builder's code has these nonzeros
            build = family_ding(q, m)
            assert set(build.code.nonzeros) == nonzeros, (q, m, n)
            assert build.claims["predicate_matches_primality"] == (is_prime(n),) * 2
    assert (len(lengths), sum(is_prime(n) for _, _, n in lengths)) == (96, 29)
