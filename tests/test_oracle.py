"""The slow first-principles oracles themselves, and the fast paths against them."""

from fractions import Fraction

import pytest

from exactci import ObservedTable, PotentialTable, ScaleGuard, frontier_scan

from conftest import observed_tables
from oracle import (
    brute_compatibility,
    brute_frontier,
    enumerate_assignments,
    units_from_table,
)


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
                        for (N11, N01), frontier in scan.frontiers.items():
                            assert frontier == brute_frontier(
                                N11, N01, nobs, alpha, statistic
                            ), (nobs, alpha, statistic, N11, N01)
