"""Exact randomization-test engine and its Monte Carlo escape hatch."""

import itertools
import random
import time
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
from exactci import randtest
from exactci.randtest import SCALE_GUARD_ENV, max_exact_n

from conftest import observed_tables, potential_tables
from oracle import enumerate_assignments, units_from_table


def definitional_p(N, nobs, dist=None):
    """(p_one_sided, p_two_sided) summed over the atoms of null_dist."""
    dist = null_dist(N, nobs.m) if dist is None else dist
    tau_hat, tau = nobs.tau_hat, N.tau
    margin = abs(tau_hat - tau)
    return (
        sum((p for v, p in dist if v >= tau_hat), Fraction(0)),
        sum((p for v, p in dist if abs(v - tau) >= margin), Fraction(0)),
    )


def atoms_reads():
    info = randtest._scaled_atoms.cache_info()
    return info.hits + info.misses


def p_direct(N, nobs):
    """Both p-values with an empty budget record, so each is a direct tail sum."""
    reads = atoms_reads()
    randtest._budgets.clear()
    one = p_one_sided(N, nobs)
    randtest._budgets.clear()
    two = p_two_sided(N, nobs)
    assert atoms_reads() == reads
    return one, two


def p_built(N, nobs):
    """Both p-values with the key's budget spent, so each reads the built distribution."""
    reads = atoms_reads()
    randtest._budgets[(N.as_tuple(), nobs.m)] = 0
    one, two = p_one_sided(N, nobs), p_two_sided(N, nobs)
    assert atoms_reads() == reads + 1 + (nobs.tau_hat != N.tau)  # margin 0 reads nothing
    return one, two


def random_pair(rng, n, m=None):
    """A random (potential table, observed table) pair of size n."""
    m = rng.randint(1, n - 1) if m is None else m
    a, b, c = sorted(rng.randint(0, n) for _ in range(3))
    n11, n01 = rng.randint(0, m), rng.randint(0, n - m)
    return PotentialTable(a, b - a, c - b, n - c), ObservedTable(n11, m - n11, n01, n - m - n01)


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


class TestDecisionPaths:
    """The direct tail sum and the built distribution give the definitional p-values."""

    @pytest.fixture(autouse=True)
    def fresh_budgets(self):
        # the budget record is process-wide; leave no forced path behind
        yield
        randtest._budgets.clear()

    def test_every_pair_up_to_n9(self):
        # every potential table against every observed table, so every m
        for n in range(2, 10):
            by_m = {}
            for nobs in observed_tables(n):
                by_m.setdefault(nobs.m, []).append(nobs)
            for N, (m, tables) in itertools.product(potential_tables(n), by_m.items()):
                dist = null_dist(N, m)
                for nobs in tables:
                    expect = definitional_p(N, nobs, dist)
                    assert p_direct(N, nobs) == expect, (N, nobs)
                    assert p_built(N, nobs) == expect, (N, nobs)

    def test_random_pairs_n11_to_60(self):
        rng = random.Random(20151)
        deadline = time.monotonic() + 3.0
        checked = 0
        while checked < 40 or time.monotonic() < deadline:
            N, nobs = random_pair(rng, rng.randint(11, 60))
            expect = definitional_p(N, nobs)
            assert p_direct(N, nobs) == expect, (N, nobs)
            assert p_built(N, nobs) == expect, (N, nobs)
            checked += 1

    def test_extreme_arms(self):
        rng = random.Random(7)
        for n in (11, 25, 60):
            for m in (1, n - 1):
                for _ in range(10):
                    N, nobs = random_pair(rng, n, m)
                    expect = definitional_p(N, nobs)
                    assert p_direct(N, nobs) == expect == p_built(N, nobs), (N, nobs)

    def test_zero_margin_is_one_on_both_paths(self):
        # observed estimate equal to tau: every assignment is as extreme
        for N, nobs in (
            (PotentialTable(2, 3, 1, 4), ObservedTable(2, 3, 1, 4)),
            (PotentialTable(3, 5, 5, 11), ObservedTable(4, 8, 4, 8)),
            (PotentialTable(0, 2, 0, 18), ObservedTable(1, 9, 0, 10)),
            (PotentialTable(5, 2, 2, 11), ObservedTable(0, 1, 0, 19)),
        ):
            assert N.tau == nobs.tau_hat
            assert p_direct(N, nobs)[1] == p_built(N, nobs)[1] == 1

    def test_rent_then_buy(self):
        # a first test never builds; the key builds once its budget is spent,
        # and later tests read the built distribution
        randtest._budgets.clear()
        randtest._scaled_atoms.cache_clear()
        N, nobs = PotentialTable(9, 8, 7, 6), ObservedTable(5, 10, 7, 8)
        key = (N.as_tuple(), nobs.m)
        expect = p_two_sided(N, nobs)
        assert randtest._scaled_atoms.cache_info().currsize == 0
        budget = randtest._budgets[key]
        assert budget > 0
        while randtest._budgets[key] > 0:
            assert p_two_sided(N, nobs) == expect
            assert randtest._budgets[key] < budget
            budget = randtest._budgets[key]
        assert randtest._scaled_atoms.cache_info().currsize == 0
        for _ in range(3):
            assert p_two_sided(N, nobs) == expect
        info = randtest._scaled_atoms.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    def test_budget_record_is_bounded(self, monkeypatch):
        # the record keeps the newest keys and evicts the oldest
        monkeypatch.setattr(randtest, "_BUDGET_KEYS", 3)
        randtest._budgets.clear()
        nobs = ObservedTable(2, 2, 2, 2)
        tables = [PotentialTable(k, 0, 0, 8 - k) for k in range(5)]
        for N in tables:
            p_one_sided(N, nobs)
        assert list(randtest._budgets) == [(N.as_tuple(), 4) for N in tables[2:]]


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
