"""The slow first-principles oracles themselves, and the fast paths against them."""

import random
import time
from fractions import Fraction

import pytest

from exactci import ObservedTable, PotentialTable, ScaleGuard, enumerate_compatible, frontier_scan

from conftest import accepted_ntau, count_calls, left_out, observed_tables
from oracle import (
    brute_compatibility,
    brute_frontier,
    enumerate_assignments,
    reference_compatible,
    reference_frontier_scan,
    units_from_table,
)

ALPHAS = (Fraction(1, 10), Fraction(1, 20), Fraction(1, 100))


class TestUnits:
    def test_units_roundtrip(self):
        N = PotentialTable(1, 2, 3, 4)
        units = units_from_table(N)
        assert len(units) == N.n
        assert units.count((1, 1)) == 1
        assert units.count((1, 0)) == 2
        assert units.count((0, 1)) == 3
        assert units.count((0, 0)) == 4


class TestEnumerateAssignments:
    def test_point_mass(self):
        units = [(1, 0)] * 4
        assert enumerate_assignments(units, 2) == [(Fraction(1), Fraction(1))]

    def test_two_unit_case(self):
        # one always-responder, one never-responder; m = 1
        dist = enumerate_assignments([(1, 1), (0, 0)], 1)
        assert dist == [(Fraction(-1), Fraction(1, 2)), (Fraction(1), Fraction(1, 2))]

    def test_scale_guard(self):
        with pytest.raises(ScaleGuard):
            enumerate_assignments([(0, 0)] * 15, 7)


class TestBruteCompatibility:
    def test_trivial_cases(self):
        nobs = ObservedTable(1, 0, 0, 1)
        assert brute_compatibility(PotentialTable(1, 0, 0, 1), nobs)
        assert not brute_compatibility(PotentialTable(0, 0, 0, 2), nobs)


class TestBruteFrontier:
    def test_agrees_with_scan(self):
        alphas = (Fraction(1, 10), Fraction(1, 20))
        for n in range(2, 8):
            for nobs in observed_tables(n):
                for alpha in alphas:
                    for statistic in ("one_sided", "two_sided"):
                        if statistic == "two_sided" and nobs.m > n - nobs.m:
                            continue
                        scan = frontier_scan(nobs, alpha, statistic)
                        for N11, row in enumerate(scan.frontiers):
                            for N01, frontier in enumerate(row):
                                assert frontier == brute_frontier(
                                    N11, N01, nobs, alpha, statistic
                                ), (nobs, alpha, statistic, N11, N01)


class TestReferenceScan:
    """`frontier_scan` against the reference scan's per-cell loop."""

    @staticmethod
    def assert_same_scan(nobs, alpha, statistic, calls):
        calls.clear()
        scan = frontier_scan(nobs, alpha, statistic)
        tested = calls[:]
        calls.clear()
        ref = reference_frontier_scan(nobs, alpha, statistic)
        key = (nobs, alpha, statistic)
        assert scan.frontiers == ref.frontiers, key
        accepted = ref.accepted_ntau
        assert scan.ends == ((min(accepted), max(accepted)) if accepted else None), key
        assert accepted_ntau(scan, nobs, statistic) == accepted, key
        assert scan.tests == ref.tests == len(tested) + scan.settled, key
        # the scan calls the decision function on the reference's tables, in
        # its order, leaving out exactly the ones the previous row settles
        assert len(left_out(tested, calls)) == scan.settled, key

    def test_every_table_up_to_n12(self, monkeypatch):
        calls = {s: count_calls(monkeypatch, s) for s in ("one_sided", "two_sided")}
        for n in range(2, 13):
            for nobs in observed_tables(n):
                for alpha in ALPHAS:
                    self.assert_same_scan(nobs, alpha, "one_sided", calls["one_sided"])
                    if nobs.m <= n - nobs.m:
                        self.assert_same_scan(nobs, alpha, "two_sided", calls["two_sided"])

    def test_random_tables_n13_to_40(self, monkeypatch):
        # one-sided scans on every m, two-sided on the conjugate when m > n/2;
        # about six in seven tables have an empty observed cell
        calls = {s: count_calls(monkeypatch, s) for s in ("one_sided", "two_sided")}
        rng = random.Random(2015)
        deadline = time.monotonic() + 3.0
        checked = unbalanced = empty = 0
        while checked < 30 or time.monotonic() < deadline:
            n = rng.randint(13, 40)
            m = rng.randint(1, n - 1)
            n11 = rng.choice((0, m, rng.randint(0, m), rng.randint(0, m)))
            n01 = rng.choice((0, n - m, rng.randint(0, n - m), rng.randint(0, n - m)))
            nobs = ObservedTable(n11, m - n11, n01, n - m - n01)
            alpha = rng.choice(ALPHAS)
            self.assert_same_scan(nobs, alpha, "one_sided", calls["one_sided"])
            work = nobs.switch_z() if m > n - m else nobs
            self.assert_same_scan(work, alpha, "two_sided", calls["two_sided"])
            checked += 1
            unbalanced += m > n - m
            empty += 0 in nobs.as_tuple()
        assert unbalanced and 0 < empty < checked

    def test_random_balanced_two_sided_n14_to_40(self, monkeypatch):
        # the random tables above rarely draw m = n/2, the one design where
        # the two-sided p below the estimate is twice the one-sided p
        calls = count_calls(monkeypatch, "two_sided")
        rng = random.Random(2016)
        deadline = time.monotonic() + 3.0
        checked = 0
        while checked < 10 or time.monotonic() < deadline:
            m = rng.randint(7, 20)
            n11 = rng.choice((0, m, rng.randint(0, m), rng.randint(0, m)))
            n01 = rng.choice((0, m, rng.randint(0, m), rng.randint(0, m)))
            nobs = ObservedTable(n11, m - n11, n01, m - n01)
            self.assert_same_scan(nobs, rng.choice(ALPHAS), "two_sided", calls)
            checked += 1


class TestReferenceCompatible:
    def test_every_table_up_to_n12(self):
        for n in range(2, 13):
            for nobs in observed_tables(n):
                assert enumerate_compatible(nobs) == reference_compatible(nobs), nobs
