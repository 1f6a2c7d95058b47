"""Exact randomization-test engine and its Monte Carlo escape hatch."""

from fractions import Fraction

import pytest

from exactci import (
    DegenerateArm,
    ObservedTable,
    PotentialTable,
    PValueMode,
    ScaleGuard,
    SizeMismatch,
    ci_brute_force,
    frontier_scan,
    mc_p,
    null_dist,
    p_one_sided,
    p_two_sided,
)
from exactci.oracle import enumerate_assignments, units_from_table
from exactci import randtest
from exactci.randtest import SCALE_GUARD_ENV, max_exact_n


class TestNullDist:
    def test_constant_effect_is_a_point_mass(self):
        assert null_dist(PotentialTable(0, 6, 0, 0), 3) == [(Fraction(1), Fraction(1))]
        assert null_dist(PotentialTable(6, 0, 0, 0), 2) == [(Fraction(0), Fraction(1))]

    def test_probabilities_sum_to_one(self):
        dist = null_dist(PotentialTable(2, 3, 1, 4), 4)
        assert sum(p for _, p in dist) == 1
        values = [v for v, _ in dist]
        assert values == sorted(values)

    def test_matches_assignment_enumeration(self):
        N = PotentialTable(1, 2, 1, 2)
        for m in range(1, 6):
            assert null_dist(N, m) == enumerate_assignments(units_from_table(N), m)

    def test_mean_equals_effect(self):
        N = PotentialTable(2, 1, 3, 2)
        for m in range(1, 8):
            assert sum(v * p for v, p in null_dist(N, m)) == N.tau

    def test_degenerate_arm(self):
        with pytest.raises(DegenerateArm):
            null_dist(PotentialTable(1, 1, 1, 1), 0)


class TestExactPValues:
    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            p_two_sided(PotentialTable(1, 1, 1, 1), ObservedTable(1, 0, 0, 1))

    def test_two_sided_is_one_under_constant_effect(self):
        # estimate is identically 1, so no draw beats the observed distance
        n = 6
        nobs = ObservedTable(3, 0, 0, 3)
        assert nobs.tau_hat == 1
        assert p_two_sided(PotentialTable(0, n, 0, 0), nobs) == 1

    def test_two_sided_at_least_observed_atom(self):
        nobs = ObservedTable(2, 1, 1, 2)
        for N in (PotentialTable(1, 2, 0, 3), PotentialTable(0, 2, 0, 4)):
            assert N.tau == nobs.tau_hat
            atom = dict(null_dist(N, nobs.m)).get(nobs.tau_hat, Fraction(0))
            assert p_two_sided(N, nobs) >= atom > 0

    def test_one_sided_complement(self):
        nobs = ObservedTable(2, 1, 1, 2)
        for N in (PotentialTable(0, 3, 2, 1), PotentialTable(2, 2, 1, 1)):
            below = sum(p for v, p in null_dist(N, nobs.m) if v < nobs.tau_hat)
            assert p_one_sided(N, nobs) + below == 1

    def test_matches_assignment_enumeration(self):
        nobs = ObservedTable(2, 1, 2, 1)
        N = PotentialTable(2, 1, 2, 1)
        dist = enumerate_assignments(units_from_table(N), nobs.m)
        expect_one = sum(p for v, p in dist if v >= nobs.tau_hat)
        assert p_one_sided(N, nobs) == expect_one
        margin = abs(nobs.tau_hat - N.tau)
        expect_two = sum(p for v, p in dist if abs(v - N.tau) >= margin)
        assert p_two_sided(N, nobs) == expect_two

    def test_counter_ticks(self, monkeypatch):
        # the searches count one test per call of randtest's p-value functions
        calls = []
        for name in ("p_one_sided", "p_two_sided"):
            fn = getattr(randtest, name)
            monkeypatch.setattr(randtest, name, lambda N, nobs, fn=fn: calls.append(N) or fn(N, nobs))
        nobs = ObservedTable(2, 1, 1, 3)
        for run in (
            lambda: frontier_scan(nobs, Fraction(1, 20), "two_sided"),
            lambda: frontier_scan(nobs, Fraction(1, 20), "one_sided"),
            lambda: ci_brute_force(nobs, Fraction(1, 20)),
        ):
            calls.clear()
            assert run().tests == len(calls) > 0

    def test_scale_guard_env_override(self, monkeypatch):
        monkeypatch.setenv(SCALE_GUARD_ENV, "5")
        nobs = ObservedTable(2, 1, 1, 2)
        with pytest.raises(ScaleGuard):
            p_two_sided(PotentialTable(2, 1, 1, 2), nobs)
        monkeypatch.setenv(SCALE_GUARD_ENV, "6")
        assert p_two_sided(PotentialTable(2, 1, 1, 2), nobs) > 0

    def test_invalid_scale_guard_env(self, monkeypatch):
        for raw in ("abc", "-1", "2.5"):
            monkeypatch.setenv(SCALE_GUARD_ENV, raw)
            with pytest.raises(ValueError, match=SCALE_GUARD_ENV):
                max_exact_n()


class TestPValueMode:
    def test_reps_validation(self):
        with pytest.raises(ValueError):
            PValueMode.monte_carlo(0, 1)

    def test_exact_default(self):
        assert PValueMode.exact().variant == "exact"


class TestMonteCarlo:
    def test_deterministic_per_seed(self):
        nobs = ObservedTable(2, 1, 1, 2)
        N = PotentialTable(2, 1, 1, 2)
        a = mc_p(N, nobs, "two_sided", reps=500, seed=7)
        b = mc_p(N, nobs, "two_sided", reps=500, seed=7)
        c = mc_p(N, nobs, "two_sided", reps=500, seed=8)
        assert a == b
        assert a != c or a[0] in (0.0, 1.0)

    def test_degenerate_distribution(self):
        nobs = ObservedTable(3, 0, 0, 3)
        N = PotentialTable(0, 6, 0, 0)
        for seed in range(5):
            est, se = mc_p(N, nobs, "two_sided", reps=200, seed=seed)
            assert est == 1.0 and se == 0.0

    def test_calibration_against_exact(self):
        nobs = ObservedTable(2, 1, 1, 2)
        N = PotentialTable(1, 2, 2, 1)
        exact = float(p_two_sided(N, nobs))
        reps = 2000
        good = 0
        seeds = range(60)
        for seed in seeds:
            est, se = mc_p(N, nobs, "two_sided", reps=reps, seed=seed)
            if se == 0.0:
                good += est == exact
            else:
                good += abs(est - exact) < 3.0 * se
        assert good >= 57  # 3-sigma band should catch nearly every seed
