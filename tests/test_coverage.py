"""Exact coverage sweeps over every potential table of a design."""

import random
from fractions import Fraction
from math import comb

import pytest

from exactci import (
    ObservedTable,
    PotentialTable,
    ScaleGuard,
    ci_bonferroni,
    ci_two_sided_frontier,
    compute_ci,
    exact_coverage_sweep,
)
from exactci import coverage
from exactci.randtest import _iter_splits

from oracle import coverage_by_splits, induced_observed

ALPHA = Fraction(1, 20)
SWEEP_METHODS = ("bonferroni", "margin_inversion", "two_sided_frontier", "one_sided_lower")


def method_ci_fn(method: str, alpha: Fraction):
    return lambda nobs: compute_ci(method, nobs, alpha).ci_ntau


def observed_tables_of_design(n: int, m: int) -> list[ObservedTable]:
    return [
        ObservedTable(n11, m - n11, n01, n - m - n01)
        for n11 in range(m + 1)
        for n01 in range(n - m + 1)
    ]


def random_intervals(n: int, m: int, rng: random.Random) -> dict[ObservedTable, tuple[int, int]]:
    """An arbitrary interval per observed table, some empty, some beyond +-n."""
    return {
        nobs: (rng.randint(-n - 3, n + 3), rng.randint(-n - 3, n + 3))
        for nobs in observed_tables_of_design(n, m)
    }


def has_split_run(n: int, m: int, intervals: dict[ObservedTable, tuple[int, int]]) -> bool:
    """True if some (n11, n*tau) is covered at non-contiguous n01 values."""
    for n11 in range(m + 1):
        row = [intervals[ObservedTable(n11, m - n11, n01, n - m - n01)] for n01 in range(n - m + 1)]
        for t in range(-n, n + 1):
            hits = [n01 for n01, (lo, hi) in enumerate(row) if lo <= t <= hi]
            if hits and hits[-1] - hits[0] + 1 > len(hits):
                return True
    return False


class TestInducedObserved:
    def test_matches_split_definition(self):
        N = PotentialTable(2, 1, 2, 1)
        m = 3
        for x11, x10, x01, x00, _ in _iter_splits(N, m):
            nobs = induced_observed(N, m, (x11, x10, x01, x00))
            assert nobs.n == N.n and nobs.m == m
            # treated responders are the (1,*) types drawn; control responders
            # are the (*,1) types left behind
            assert nobs.n11 == x11 + x10
            assert nobs.n01 == (N.N11 - x11) + (N.N01 - x01)

    def test_weights_sum_to_assignment_count(self):
        N = PotentialTable(2, 3, 1, 2)
        for m in range(1, N.n):
            assert sum(w for *_, w in _iter_splits(N, m)) == comb(N.n, m)


class TestSweep:
    def test_trivial_full_interval_covers_everything(self):
        report = exact_coverage_sweep(4, 2, ALPHA, lambda nobs: (-4, 4))
        assert report.min_coverage == 1
        assert report.mean_coverage == 1
        assert report.violators(Fraction(19, 20)) == []

    def test_bonferroni_small_design(self):
        report = exact_coverage_sweep(
            6, 3, ALPHA, lambda nobs: ci_bonferroni(nobs, ALPHA).ci_ntau
        )
        assert report.min_coverage >= Fraction(19, 20)
        assert len(report.per_table) == comb(6 + 3, 3)  # all potential tables

    def test_frontier_small_design(self):
        report = exact_coverage_sweep(
            6, 2, ALPHA, lambda nobs: ci_two_sided_frontier(nobs, ALPHA).ci_ntau
        )
        assert report.min_coverage >= Fraction(19, 20)

    def test_violator_reporting(self):
        # an absurd degenerate interval must show up as a violator
        report = exact_coverage_sweep(4, 2, ALPHA, lambda nobs: (99, 99))
        assert report.min_coverage == 0
        assert len(report.violators(Fraction(19, 20))) == len(report.per_table)

    def test_scale_guard(self):
        with pytest.raises(ScaleGuard):
            exact_coverage_sweep(15, 7, ALPHA, lambda nobs: (-15, 15))

    def test_invalid_m(self):
        with pytest.raises(ValueError):
            exact_coverage_sweep(6, 0, ALPHA, lambda nobs: (-6, 6))


class TestAgainstSplitOracle:
    """The run-based sweep against the split-by-split oracle."""

    @pytest.mark.parametrize("method", SWEEP_METHODS)
    def test_methods_match_oracle_up_to_n9(self, method):
        ci_fn = method_ci_fn(method, ALPHA)
        for n in range(2, 10):
            for m in range(1, n):
                expected = coverage_by_splits(n, m, ALPHA, ci_fn)
                assert exact_coverage_sweep(n, m, ALPHA, ci_fn) == expected, (n, m)

    def test_random_intervals_match_oracle(self):
        # arbitrary intervals: covered n01 values split into several runs,
        # empty intervals (lo > hi) and ends beyond +-n
        rng = random.Random(20151)
        split_runs = empty = beyond = 0
        for n in range(2, 10):
            for m in range(1, n):
                for _ in range(3):
                    intervals = random_intervals(n, m, rng)
                    split_runs += has_split_run(n, m, intervals)
                    empty += any(lo > hi for lo, hi in intervals.values())
                    beyond += any(lo < -n or hi > n for lo, hi in intervals.values())
                    ci_fn = intervals.__getitem__
                    expected = coverage_by_splits(n, m, ALPHA, ci_fn)
                    assert exact_coverage_sweep(n, m, ALPHA, ci_fn) == expected, (n, m)
        assert split_runs and empty and beyond

    def test_one_call_per_observed_table(self):
        for n, m in ((2, 1), (7, 3), (9, 8), (10, 5)):
            calls = []

            def ci_fn(nobs):
                calls.append(nobs)
                return (-n, n)

            exact_coverage_sweep(n, m, ALPHA, ci_fn)
            assert len(calls) == (m + 1) * (n - m + 1)
            assert calls == observed_tables_of_design(n, m)  # (n11, n01) order


class TestExhaustiveCoverageBeyondCap:
    """Coverage >= 1 - alpha for every true table, above MAX_COVERAGE_N.

    Each test lifts the cap for itself only; the sweep's default guard is
    `TestSweep::test_scale_guard`.
    """

    @pytest.mark.parametrize("method", ("bonferroni", "margin_inversion"))
    def test_count_methods_n20_every_m(self, monkeypatch, method):
        monkeypatch.setattr(coverage, "MAX_COVERAGE_N", 20)
        ci_fn = method_ci_fn(method, ALPHA)
        for m in range(1, 20):
            report = exact_coverage_sweep(20, m, ALPHA, ci_fn)
            assert report.min_coverage >= 1 - ALPHA, (m, report.min_coverage)

    @pytest.mark.parametrize("method", ("two_sided_frontier", "one_sided_lower"))
    @pytest.mark.parametrize("m", (4, 8))
    def test_randomization_methods_n16(self, monkeypatch, method, m):
        monkeypatch.setattr(coverage, "MAX_COVERAGE_N", 16)
        report = exact_coverage_sweep(16, m, ALPHA, method_ci_fn(method, ALPHA))
        assert report.min_coverage >= 1 - ALPHA, report.min_coverage
