"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -v -s`.  Everything here is exact:
integer/rational arithmetic for the bounds, exhaustive enumeration for orbit
counts and minimum distances, and the collision certificate for correlation
maxima.
"""

import itertools
import math
import random
from contextlib import contextmanager

import pytest

from fhsforge.bounds import pf_identity_sweep, singleton_max_size
from fhsforge.constructions import family_a, family_b, family_c
from fhsforge.cyclic import (
    build_code,
    class_partition,
    cyclotomic_cosets,
    has_full_orbits_outside_constants,
    min_distance_exhaustive,
    unit_coset_code,
)
from fhsforge.fhs import FhsSet, correlation, max_nontrivial
from fhsforge.galois import field_from_order, make_field
from fhsforge.intmath import is_prime
from test_constructions import parameter_tuple
from test_fhs import auto_peak, cross_peak


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL")
        raise
    print(f"ACCEPTANCE {label}: PASS")


def test_criterion_1_peng_fan_identity():
    with criterion("1 Peng-Fan identity sweep"):
        report = pf_identity_sweep(40, 200, 60)
        assert report.counterexamples == ()
        assert report.triples_checked > 400_000


def test_criterion_2_length9_example():
    with criterion("2 length-9 example over GF(8)"):
        cosets = cyclotomic_cosets(9, 8)
        assert cosets == [
            (0,), (1, 8), (2, 7), (3, 6), (4, 5)]
        F8 = make_field(2, 3)
        c2 = build_code(9, F8, [3, 4, 5, 6])
        assert c2.dimension == 5
        assert min_distance_exhaustive(c2) == 5  # [9, 5, 5] MDS
        c1 = build_code(9, F8, [3, 6])
        assert has_full_orbits_outside_constants(c1)
        assert has_full_orbits_outside_constants(c2)


def test_criterion_3_unit_coset_primality():
    with criterion("3 unit-coset orbit predicate iff prime length"):
        expectations = {(2, 4): 15, (3, 3): 13, (2, 5): 31}
        for (q, m), n in expectations.items():
            code = unit_coset_code(q, m)
            assert code.n == n
            assert has_full_orbits_outside_constants(code) == is_prime(n)
        # brute-force orbit confirmation where the codeword count allows
        for q, m in [(2, 4), (3, 3)]:
            code = unit_coset_code(q, m)
            _, sizes = class_partition(code, exclude="constants")
            short_orbit_exists = bool((sizes < code.n).any())
            assert short_orbit_exists == (not is_prime(code.n))


def test_criterion_4_family_a_q8():
    with criterion("4 family A at q=8"):
        for k, want_n, want_lambda in [(1, 56, 2), (2, 3640, 4)]:
            build = family_a(3, k)
            fset = build.fhs
            assert fset.size == want_n
            assert build.verdicts()["class_sizes"] is True
            assert build.survey.value == want_lambda
            assert singleton_max_size(9, want_lambda, 8) == want_n
            assert build.report.meets_singleton


def test_criterion_5_family_b():
    with criterion("5 family B at q=5 and q=25"):
        for q, want in [(5, (6, 20, 2, 5)), (25, (26, 600, 2, 25))]:
            build = family_b(q)
            n, count, lam, ell = want
            assert parameter_tuple(build.fhs) == want
            assert build.survey.value == lam == 2
            assert build.report.meets_singleton
            assert build.report.meets_peng_fan
            assert build.report.pf2 == 2


def test_criterion_6_family_c():
    with criterion("6 family C"):
        small = family_c(32, 11, 0)
        assert parameter_tuple(small.fhs) == (11, 93, 1, 32)
        assert small.verdicts()["class_sizes"] is True
        assert small.survey.value == 1
        assert small.report.meets_singleton and small.report.meets_peng_fan

        # 9709^2 * 729 nominal comparisons, but the certificate keys only
        # 14 * 262,143 rotations (one position set at L = 1, 13 at L = 2)
        big = family_c(512, 27, 0, budget=None)
        assert parameter_tuple(big.fhs) == (27, 9709, 1, 512)
        assert big.verdicts()["class_sizes"] is True
        assert big.survey.value == 1
        assert big.report.meets_singleton and big.report.meets_peng_fan

        # k = 1: the collision certificate keys about 3.4 * 10^7 rotations,
        # and the budget counts 3.8 * 10^7, inside the default budget, so
        # lambda = 3 is exact
        k1 = family_c(32, 11, 1)
        assert k1.claims["class_count"] == (95325, 95325)
        assert k1.report.meets_singleton
        assert k1.survey.value == 3
        assert k1.claims["lambda_match"] == (3, 3)
        i, j, t = k1.survey.witness
        seqs = k1.fhs.seqs
        assert (i, t) != (j, 0)
        assert correlation(seqs[i].tolist(), seqs[j].tolist(), t) == 3


def test_criterion_7_orbit_predicate_oracle_equivalence():
    with criterion("7 orbit predicate vs exhaustive enumeration"):
        cases = 0
        for q in (2, 3, 4, 5, 7, 8, 9):
            field = field_from_order(q)
            for n in range(1, 31):
                if math.gcd(n, q) != 1:
                    continue
                cosets = cyclotomic_cosets(n, q)
                nonzero = [c for c in cosets if c[0] != 0]
                for r in range(len(nonzero) + 1):
                    for combo in itertools.combinations(nonzero, r):
                        members = [j for c in combo for j in c]
                        if q ** (n - len(members)) > 2**16:
                            continue
                        code = build_code(n, field, members)
                        predicted = has_full_orbits_outside_constants(code)
                        _, sizes = class_partition(code, exclude="constants")
                        observed = bool((sizes == n).all())
                        assert predicted == observed, (n, q, sorted(members))
                        cases += 1
        assert cases > 2000
        print(f"  ({cases} (n, q, Z) cases, zero discrepancies)", end=" ")


def test_criterion_8_property_suites():
    with criterion("8 randomized property suites"):
        rng = random.Random(20240901)

        # correlation symmetry, 1000 instances
        for _ in range(1000):
            n = rng.randrange(2, 16)
            ell = rng.randrange(2, 8)
            x = [rng.randrange(ell) for _ in range(n)]
            y = [rng.randrange(ell) for _ in range(n)]
            t = rng.randrange(n)
            assert correlation(x, y, t) == correlation(y, x, (n - t) % n)

        # convolution identity, 1000 instances
        for _ in range(1000):
            n = rng.randrange(1, 14)
            ell = rng.randrange(1, 7)
            x = [rng.randrange(ell) for _ in range(n)]
            y = [rng.randrange(ell) for _ in range(n)]
            assert sum(correlation(x, y, t) for t in range(n)) == \
                sum(x.count(f) * y.count(f) for f in range(ell))

        # rotation invariance of H(X), H(X, Y) and M(F), 1000 instances
        def rot(seq, t):
            return seq[t:] + seq[:t]

        for _ in range(1000):
            n = rng.randrange(2, 10)
            ell = rng.randrange(2, 6)
            x = tuple(rng.randrange(ell) for _ in range(n))
            y = tuple(rng.randrange(ell) for _ in range(n))
            t = rng.randrange(1, n)
            assert auto_peak(rot(x, t)) == auto_peak(x)
            assert cross_peak(rot(x, t), y) == cross_peak(x, y)
            seqs = {x, y}
            if len(seqs) == 2 and rot(x, t) not in seqs:
                before = max_nontrivial(FhsSet(sorted(seqs), ell)).value
                after_set = sorted({rot(x, t), y})
                after = max_nontrivial(FhsSet(after_set, ell)).value
                assert before == after

        # every shift-orbit size divides n, >= 1000 orbits in total
        orbits_checked = 0
        pool = [(9, 8), (15, 2), (8, 3), (10, 3), (13, 3), (11, 32)]
        while orbits_checked < 1000:
            n, q = pool[rng.randrange(len(pool))]
            field = field_from_order(q)
            cosets = cyclotomic_cosets(n, q)
            members = [j for c in cosets if rng.random() < 0.5 for j in c]
            if field.order ** (n - len(members)) > 2**14:
                continue
            code = build_code(n, field, members)
            for size in class_partition(code)[1].tolist():
                assert n % size == 0
                orbits_checked += 1
        print(f"  ({orbits_checked} orbits checked)", end=" ")
