"""Exact randomization-test engine."""

import inspect
import itertools
import random
import sys
import textwrap
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import comb

import pytest

from exactci import (
    DegenerateArm,
    InvalidLevel,
    ObservedTable,
    PotentialTable,
    ScaleGuard,
    SizeMismatch,
    ci_brute_force,
    ci_two_sided_frontier,
    compute_ci,
    enumerate_compatible,
    exact_coverage_sweep,
    frontier_scan,
    p_one_sided,
    p_two_sided,
)
from exactci import hypergeom, methods, randtest
from exactci.randtest import null_dist
from exactci.hypergeom import SCALE_GUARD_ENV, _at_most, _comb_row, _guard

from conftest import SIX_TABLES, count_calls, observed_tables, potential_tables
from oracle import cell_decompositions, enumerate_assignments, units_from_table


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


def p_both(N, nobs):
    """Both p-values, checked to be direct tail sums that read no built distribution."""
    reads = atoms_reads()
    one, two = p_one_sided(N, nobs), p_two_sided(N, nobs)
    assert atoms_reads() == reads
    return one, two


def prefix_sums(N01, N00, r2):
    """The prefix sums over x01 of C(N01, x01) * C(N00, r2 - x01), as `_at_most` defines them."""
    return list(itertools.accumulate(comb(N01, x01) * comb(N00, r2 - x01) for x01 in range(min(N01, r2) + 1)))


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
        # a frontier scan counts one test per call of the decision function
        # that randtest.acceptor builds, and one more per decision that its
        # previous row settles; brute force calls it once per compatible
        # table and counts one test per cell-wise decomposition
        two_sided = count_calls(monkeypatch, "two_sided")
        one_sided = count_calls(monkeypatch, "one_sided")
        nobs = ObservedTable(2, 1, 1, 3)
        for calls, statistic in ((two_sided, "two_sided"), (one_sided, "one_sided")):
            two_sided.clear()
            one_sided.clear()
            scan = frontier_scan(nobs, Fraction(1, 20), statistic)
            assert scan.tests - scan.settled == len(calls) > 0
        for cells in ((2, 1, 1, 3), *SIX_TABLES):
            nobs = ObservedTable(*cells)
            two_sided.clear()
            one_sided.clear()
            res = ci_brute_force(nobs, Fraction(1, 20))
            assert one_sided == []
            assert two_sided == [N.as_tuple() for N in enumerate_compatible(nobs)], cells
            assert res.tests == len(cell_decompositions(nobs)), cells
        assert len(enumerate_compatible(ObservedTable(2, 1, 1, 3))) == 42
        assert ci_brute_force(ObservedTable(2, 1, 1, 3), Fraction(1, 20)).tests == 3 * 2 * 2 * 4

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
                _guard(1)


class TestDecisionPaths:
    """The direct tail sums give the definitional p-values."""

    def test_every_pair_up_to_n9(self):
        # every potential table against every observed table, so every m
        for n in range(2, 10):
            by_m = {}
            for nobs in observed_tables(n):
                by_m.setdefault(nobs.m, []).append(nobs)
            for N, (m, tables) in itertools.product(potential_tables(n), by_m.items()):
                dist = null_dist(N, m)
                for nobs in tables:
                    assert p_both(N, nobs) == definitional_p(N, nobs, dist), (N, nobs)

    def test_random_pairs_n11_to_60(self):
        rng = random.Random(20151)
        deadline = time.monotonic() + 3.0
        checked = 0
        while checked < 40 or time.monotonic() < deadline:
            N, nobs = random_pair(rng, rng.randint(11, 60))
            assert p_both(N, nobs) == definitional_p(N, nobs), (N, nobs)
            checked += 1

    def test_balanced_two_sided_doubles_one_sided_up_to_n10(self):
        # m = n/2: the complement of a treatment group is one too, and
        # est(1 - Z) = 2*tau - est(Z), so below the estimate the lower tail
        # weighs what the upper one does; the mirror walk's sum against the
        # upper tail's alone, on every pair with even n <= 10
        checked = 0
        for n in range(2, 11, 2):
            tables = [nobs for nobs in observed_tables(n) if 2 * nobs.m == n]
            for N, nobs in itertools.product(potential_tables(n), tables):
                if N.tau < nobs.tau_hat:
                    assert p_two_sided(N, nobs) == 2 * p_one_sided(N, nobs), (N, nobs)
                    checked += 1
        assert checked == 7469

    def test_balanced_two_sided_doubles_one_sided_random_n12_to_60(self):
        rng = random.Random(20152)
        deadline = time.monotonic() + 2.0
        checked = 0
        while checked < 40 or time.monotonic() < deadline:
            n = 2 * rng.randint(6, 30)
            N, nobs = random_pair(rng, n, n // 2)
            if N.tau < nobs.tau_hat:
                assert p_two_sided(N, nobs) == 2 * p_one_sided(N, nobs), (N, nobs)
                checked += 1

    def test_extreme_arms(self):
        rng = random.Random(7)
        for n in (11, 25, 60):
            for m in (1, n - 1):
                for _ in range(10):
                    N, nobs = random_pair(rng, n, m)
                    assert p_both(N, nobs) == definitional_p(N, nobs), (N, nobs)

    def test_zero_margin_is_one_on_both_paths(self):
        # observed estimate equal to tau: every assignment is as extreme
        for N, nobs in (
            (PotentialTable(2, 3, 1, 4), ObservedTable(2, 3, 1, 4)),
            (PotentialTable(3, 5, 5, 11), ObservedTable(4, 8, 4, 8)),
            (PotentialTable(0, 2, 0, 18), ObservedTable(1, 9, 0, 10)),
            (PotentialTable(5, 2, 2, 11), ObservedTable(0, 1, 0, 19)),
        ):
            assert N.tau == nobs.tau_hat
            assert p_both(N, nobs)[1] == definitional_p(N, nobs)[1] == 1

    def test_prefix_rows(self, monkeypatch):
        # the rows hold their definitional sums
        for N01, N00 in itertools.product(range(13), repeat=2):
            for r2 in range(N01 + N00 + 1):
                assert list(_at_most(N01, N00, r2)) == prefix_sums(N01, N00, r2)
                assert _at_most(N01, N00, r2)[-1] == comb(N01 + N00, r2)
        # a cold and a warm cache give the same p-values
        rng = random.Random(11)
        pairs = [random_pair(rng, rng.randint(11, 40)) for _ in range(30)]
        _at_most.cache_clear()
        cold = [p_both(N, nobs) for N, nobs in pairs]
        hits = _at_most.cache_info().hits
        assert [p_both(N, nobs) for N, nobs in pairs] == cold
        assert _at_most.cache_info().hits > hits
        # the cache keeps rows up to a byte budget: past it a build empties
        # the cache first, the held estimate never passes the budget and is
        # the sum of the held rows' estimates, a row read after a drop still
        # holds its definitional sums, and the build count, which the drops
        # do not reset, counts every row not read from the cache
        budget = 60_000
        monkeypatch.setattr(hypergeom, "_ROW_BUDGET", budget)
        _at_most.cache_clear()
        keys = list(itertools.product(range(0, 40, 3), repeat=3)) * 2
        random.Random(24).shuffle(keys)
        held, drops, built = {}, 0, 0
        for key in keys:
            size = _at_most.cache_info().currsize
            built += key not in held
            row = _at_most(*key)
            if key in held:
                assert _at_most.cache_info().currsize == size
            elif _at_most.cache_info().currsize == size + 1:
                held[key] = row
            else:
                assert _at_most.cache_info().currsize == 1
                held, drops = {key: row}, drops + 1
            assert hypergeom._held_bytes == sum(map(hypergeom._row_bytes, held.values())) <= budget
            assert hypergeom._rows_built == built, key
            assert list(row) == prefix_sums(*key), key
        assert drops > 5 and _at_most.cache_info().misses < built
        # an outside clear leaves no stale byte count or build count
        _at_most.cache_clear()
        assert hypergeom._held_bytes == hypergeom._rows_built == 0
        row = _at_most(7, 9, 8)
        assert hypergeom._held_bytes == hypergeom._row_bytes(row)
        _at_most.cache_clear()


class TestPrefixRowBudget:
    """`_at_most` is bounded by an upper estimate of its bytes, not by a row count."""

    def test_estimate_bounds_a_row_and_its_key(self):
        # README's memory bound rests on this: the estimate covers the tuple,
        # every entry that is not one of the interpreter's shared small ints,
        # and the key (N01, N00, r2); the rest of the allowance is the slot
        def small(x):
            return -5 <= x <= 256

        rng = random.Random(24)
        for total in (20, 100, 300):
            keys = [(total // 2, total - total // 2, total // 2), (total, 0, 0), (0, total, 0)]
            for _ in range(200):
                N01 = rng.randint(0, total)
                keys.append((N01, total - N01, rng.randint(0, total)))
            for key in keys:
                row = _at_most(*key)
                held = sys.getsizeof(row) + sum(sys.getsizeof(x) for x in row if not small(x))
                held += sys.getsizeof(key) + sum(sys.getsizeof(x) for x in key if not small(x))
                assert hypergeom._row_bytes(row) >= held, key
        _at_most.cache_clear()

    def test_small_rows_stay_within_the_budget(self, monkeypatch):
        # rows of one entry at n = 300 weigh least against their keys and
        # slots: filled up to its budget with them, the cache allocates no
        # more than its estimate
        budget = 1 << 20
        monkeypatch.setattr(hypergeom, "_ROW_BUDGET", budget)
        _at_most.cache_clear()
        for c in range(300):
            _comb_row(c)  # the binomial rows are cached apart, outside the budget
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for N01, N00 in itertools.product(range(150, 300), repeat=2):
                if hypergeom._held_bytes + 1000 > budget:
                    break
                _at_most(N01 + 0, N00 + 0, 0)  # + 0: keys of new ints, as a caller makes them
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert _at_most.cache_info().misses == _at_most.cache_info().currsize > 3000
        assert grown <= hypergeom._held_bytes <= budget
        _at_most.cache_clear()

    def test_rows_built_once_across_designs(self):
        # two-sided CIs for the eight designs of each n = 40..48 (m = n/16
        # ... 8n/16), in ascending n, share their rows: no row is built twice
        rng = random.Random(24)
        _at_most.cache_clear()
        for n in range(40, 49):
            for k in range(1, 9):
                m = n * k // 16
                n11, n01 = rng.randint(0, m), rng.randint(0, n - m)
                ci_two_sided_frontier(ObservedTable(n11, m - n11, n01, n - m - n01), Fraction(1, 20))
        info = _at_most.cache_info()
        assert info.misses == info.currsize > 0 and info.hits > 0
        assert hypergeom._held_bytes <= hypergeom._ROW_BUDGET
        _at_most.cache_clear()


class TestTailWeight:
    """`_tail_weight` against the definitional sums over the null distribution's atoms."""

    def test_every_table_and_threshold_up_to_n9(self):
        # every potential table of size n <= 9 against every m (what an
        # observed table contributes to a sum), at every atom as a threshold
        for n in range(2, 10):
            for N, m in itertools.product(potential_tables(n), range(1, n)):
                cells = N.as_tuple()
                atoms = randtest._scaled_atoms(cells, m)
                values = [v for v, _ in atoms]
                beyond = values[-1] + 1  # no split reaches it
                # atoms and the points just beside them as one-tail thresholds
                cases = [(v + d, None) for v in values for d in (0, 1)]
                cases += [(beyond, v - d) for v in values for d in (0, 1)]
                cases += [(v, w) for v, w in zip(values[1:], values)]  # adjacent atoms
                cases += [(values[-1 - i], values[i]) for i in range(len(values) // 2)]
                for upper, lower in cases:
                    expect = sum(w for v, w in atoms if v >= upper or (lower is not None and v <= lower))
                    full = randtest._tail_weight(*cells, m, upper, lower)
                    assert full == expect, (cells, m, upper, lower)
                    near = sum(w for v, w in atoms if v >= upper)
                    for stop in {1, full // 2, full, full + 1} - {0}:  # need is at least 1
                        # a stopped sum tells which tail reached stop: the
                        # upper one alone (>= stop), or both (<= -stop)
                        early = randtest._tail_weight(*cells, m, upper, lower, stop)
                        key = (cells, m, upper, lower, stop)
                        assert (early >= stop) == (near >= stop), key
                        assert (early <= -stop) == (near < stop <= full), key
                        assert abs(early) <= full, key
                        if -stop < early < stop:
                            assert early == full, key

    def test_stop_returns_at_the_first_slice_that_reaches_it(self):
        # the walk takes the upper tail's slices by falling s = x11 + x10
        # (u = x11 + x01 when transposed), then the lower tail's, summed on
        # the outcome-label mirror, by rising s (u); a stopped sum is the
        # weight of whole slices up to the first that brings it to stop
        for n in range(2, 8):
            for N, m in itertools.product(potential_tables(n), range(1, n)):
                cells, swap = N.as_tuple(), 2 * m > n
                N11, _, N01, _ = cells
                splits = [
                    (x11 + (x01 if swap else x10), n * ((x11 + x10) * (n - m) - (N11 - x11 + N01 - x01) * m), w)
                    for x11, x10, x01, _, w in randtest._iter_splits(N, m)
                ]
                values = sorted({v for _, v, _ in splits})
                beyond = values[-1] + 1
                cases = [(v, None) for v in values] + [(beyond, v) for v in values]
                cases += [(values[-1 - i], values[i]) for i in range(len(values) // 2)]
                for upper, lower in cases:
                    above, below = Counter(), Counter()
                    for key, v, w in splits:
                        if v >= upper:
                            above[key] += w
                        elif lower is not None and v <= lower:
                            below[key] += w
                    slices = [above[key] for key in sorted(above, reverse=True)]
                    upper_slices = len(slices)
                    slices += [below[key] for key in sorted(below)]
                    full = sum(slices)
                    for stop in {1, full // 2, full, full + 1} - {0}:  # need is at least 1
                        # negated when the slice that reaches stop is the lower tail's
                        expect = next(
                            (w if i < upper_slices else -w
                             for i, w in enumerate(itertools.accumulate(slices)) if w >= stop),
                            full,
                        )
                        early = randtest._tail_weight(*cells, m, upper, lower, stop)
                        assert early == expect, (cells, m, upper, lower, stop)


BOUNDARY_ALPHAS = (Fraction(1, 3), Fraction(1, 20), Fraction(7, 100), Fraction(1, 997))
P_VALUES = {"one_sided": p_one_sided, "two_sided": p_two_sided}


def zero_margin_pair(rng, n):
    """A random pair of even size n = 2m whose observed estimate equals the table's tau."""
    m = n // 2
    n11, n01 = rng.randint(0, m), rng.randint(0, n - m)
    ntau = 2 * (n11 - n01)  # n * tau_hat, an integer when n = 2m
    N01 = rng.randint(max(0, -ntau), (n - ntau) // 2)
    N10 = N01 + ntau
    N11 = rng.randint(0, n - N10 - N01)
    return PotentialTable(N11, N10, N01, n - N11 - N10 - N01), ObservedTable(n11, m - n11, n01, n - m - n01)


def upper_tail_p(N, nobs, statistic):
    """p of the upper tail a decision reads alone, or None for a two-sided margin of 0.

    One-sided, or two-sided with tau < tau_hat, it is the one-sided p-value;
    two-sided with tau > tau_hat it is P(estimate >= 2*tau - tau_hat).
    """
    if statistic == "one_sided" or N.tau < nobs.tau_hat:
        return p_one_sided(N, nobs)
    if N.tau == nobs.tau_hat:
        return None
    n, m = N.n, nobs.m
    upper = 2 * m * (n - m) * (N.N10 - N.N01) - randtest._scaled_obs(nobs)
    return Fraction(randtest._tail_weight(*N.as_tuple(), m, upper), comb(n, m))


def check_decision(decided, p, near, alpha, key):
    """A decision is true exactly when p >= alpha, and ACCEPT_UPPER exactly when the upper tail's p is."""
    assert decided in (randtest.REJECT, randtest.ACCEPT, randtest.ACCEPT_UPPER), key
    assert bool(decided) == (p >= alpha), key
    assert (decided == randtest.ACCEPT_UPPER) == (near is not None and near >= alpha), key


class TestAcceptor:
    """The integer threshold decides exactly as p >= alpha does."""

    def check_pairs(self, pairs):
        for statistic, p_value in P_VALUES.items():
            for nobs, tables in pairs.items():
                decide = {alpha: randtest.acceptor(nobs, alpha, statistic) for alpha in BOUNDARY_ALPHAS}
                for N in tables:
                    p, near = p_value(N, nobs), upper_tail_p(N, nobs, statistic)
                    for alpha, accepts in decide.items():
                        check_decision(accepts(*N.as_tuple()), p, near, alpha, (statistic, N, nobs, alpha))
                    if 0 < p < 1:
                        # alpha at the candidate's own p-value: the ceiling and
                        # the >= accept it, anything above rejects it
                        assert randtest.acceptor(nobs, p, statistic)(*N.as_tuple()), (statistic, N, nobs)
                        above = p + Fraction(1, 10**9)
                        if above < 1:
                            assert not randtest.acceptor(nobs, above, statistic)(*N.as_tuple()), (statistic, N, nobs)

    def test_every_pair_up_to_n8(self):
        for n in range(2, 9):
            tables = list(potential_tables(n))
            self.check_pairs({nobs: tables for nobs in observed_tables(n)})

    def test_random_pairs_n9_to_40(self):
        rng = random.Random(1997)
        pairs = {}
        for n in range(9, 41):
            for m in (None,) * 6 + (1, n - 1):
                N, nobs = random_pair(rng, n, m)
                pairs.setdefault(nobs, []).append(N)
            if n % 2 == 0:
                N, nobs = zero_margin_pair(rng, n)
                assert N.tau == nobs.tau_hat
                assert p_two_sided(N, nobs) == 1
                pairs.setdefault(nobs, []).append(N)
        self.check_pairs(pairs)

    def test_random_pairs_transposed(self):
        # n/2 < m < n - 1: the sums run on the transposed table
        rng = random.Random(2015)
        pairs = {}
        for n in range(11, 61):
            for _ in range(3):
                N, nobs = random_pair(rng, n, rng.randint(n // 2 + 1, n - 2))
                pairs.setdefault(nobs, []).append(N)
                if n <= 30:  # the definitional sum is O(n^3)
                    assert p_both(N, nobs) == definitional_p(N, nobs), (N, nobs)
        self.check_pairs(pairs)

    def test_zero_margin_accepts_without_a_sum(self, monkeypatch):
        rng = random.Random(5)
        pairs = [zero_margin_pair(rng, n) for n in range(10, 41, 2)]
        monkeypatch.setattr(randtest, "_tail_weight", None)  # any sum would fail
        for N, nobs in pairs:
            assert randtest.acceptor(nobs, Fraction(1, 997), "two_sided")(*N.as_tuple()), (N, nobs)

    def test_refuses_before_it_returns(self, monkeypatch):
        nobs = ObservedTable(2, 1, 1, 2)
        monkeypatch.setenv(SCALE_GUARD_ENV, "5")
        for statistic in P_VALUES:
            with pytest.raises(ScaleGuard):
                randtest.acceptor(nobs, Fraction(1, 20), statistic)
        monkeypatch.setenv(SCALE_GUARD_ENV, "abc")
        for statistic in P_VALUES:
            with pytest.raises(ValueError, match=SCALE_GUARD_ENV):
                randtest.acceptor(nobs, Fraction(1, 20), statistic)
        monkeypatch.setenv(SCALE_GUARD_ENV, "6")
        assert randtest.acceptor(nobs, Fraction(1, 20), "two_sided")(2, 1, 1, 2)
        with pytest.raises(ValueError, match="statistic"):
            randtest.acceptor(nobs, Fraction(1, 20), "three_sided")
        with pytest.raises(InvalidLevel):
            randtest.acceptor(nobs, Fraction(1), "two_sided")


def design_tables(n, m):
    """Every observed table of design (n, m)."""
    return [ObservedTable(n11, m - n11, n01, n - m - n01) for n11 in range(m + 1) for n01 in range(n - m + 1)]


def search(nobs, alpha, statistic):
    """What a search of nobs decides: a frontier scan, or brute force for a two-sided m > n - m."""
    if statistic == "two_sided" and nobs.m > nobs.n - nobs.m:
        return ci_brute_force(nobs, alpha)
    return frontier_scan(nobs, alpha, statistic)


def record_decisions(monkeypatch):
    """(decisions, sums): every search test as (nobs, alpha, cells, result), and every tail sum's arguments but its rows."""
    decisions, sums = [], []
    make, tail = randtest.acceptor, randtest._tail_weight

    def recording(nobs, alpha, statistic="two_sided"):
        accepts = make(nobs, alpha, statistic)

        def decide(*cells):
            decided = accepts(*cells)
            decisions.append((nobs, alpha, cells, decided))
            return decided

        return decide

    def counting(*args):
        sums.append(args[:8])
        return tail(*args)

    monkeypatch.setattr(randtest, "acceptor", recording)
    monkeypatch.setattr(randtest, "_tail_weight", counting)
    return decisions, sums


class TestDecisionKernel:
    """Every decision of a search is its own stopped sum, equal to the `Fraction` p-value's."""

    # (n, m, statistic, the two levels interleaved on it); m > n - m included
    DESIGNS = (
        (6, 2, "two_sided", (Fraction(1, 20), Fraction(1, 3))),
        (7, 5, "two_sided", (Fraction(1, 10), Fraction(1, 4))),
        (9, 6, "one_sided", (Fraction(1, 20), Fraction(1, 10))),
        (12, 5, "two_sided", (Fraction(1, 20), Fraction(1, 10))),
        (14, 10, "one_sided", (Fraction(1, 100), Fraction(1, 20))),
        (19, 9, "one_sided", (Fraction(1, 20), Fraction(1, 10))),
        (23, 11, "two_sided", (Fraction(1, 100), Fraction(1, 20))),
        (30, 13, "two_sided", (Fraction(1, 20), Fraction(1, 10))),
        (30, 18, "one_sided", (Fraction(1, 20), Fraction(1, 10))),
    )

    def test_shuffled_scans_match_p_values(self, monkeypatch):
        rng = random.Random(1507)
        designs = list(self.DESIGNS)
        deadline = time.monotonic() + 4.0
        while time.monotonic() < deadline or designs:
            if designs:
                n, m, statistic, alphas = designs.pop(0)
            else:  # seeded extra designs until the deadline
                n = rng.randint(6, 30)
                m = rng.randint(1, n - 1) if n <= 12 else rng.randint(1, n // 2)
                statistic = rng.choice(("one_sided", "two_sided"))
                alphas = rng.sample((Fraction(1, 100), Fraction(1, 20), Fraction(1, 10), Fraction(1, 3)), 2)
            tables = design_tables(n, m)
            rng.shuffle(tables)
            # scan the design's tables at both levels in turn, switching levels
            # at every search, then at one level in a row, as a coverage sweep
            # does, up to a few thousand tests each
            for levels in ([rng.sample(alphas, 2) for _ in tables], [alphas[:1]] * len(tables)):
                decisions, sums = record_decisions(monkeypatch)
                for nobs, order in zip(tables, levels):
                    for alpha in order:
                        search(nobs, alpha, statistic)
                    if len(decisions) > 3000:
                        break
                monkeypatch.undo()
                # every decision with a nonzero margin ran one sum; only a
                # two-sided test has a margin of 0
                summed = [
                    cells
                    for nobs, _, cells, _ in decisions
                    if statistic == "one_sided" or PotentialTable(*cells).tau != nobs.tau_hat
                ]
                assert [call[:4] for call in sums] == summed, (n, m, statistic)
                p_value = P_VALUES[statistic]
                p_of = {}
                for nobs, alpha, cells, decided in decisions:
                    key = (cells, nobs.tau_hat)  # m and n are the design's
                    if key not in p_of:
                        N = PotentialTable(*cells)
                        p_of[key] = p_value(N, nobs), upper_tail_p(N, nobs, statistic)
                    check_decision(decided, *p_of[key], alpha, (n, m, statistic, nobs, alpha, cells))

    def test_scan_does_not_depend_on_held_bounds(self):
        # nothing held between searches changes a scan: a table scanned
        # first equals it scanned after the rest of its design
        rng = random.Random(27)
        for n, m, statistic in ((12, 5, "two_sided"), (13, 9, "one_sided"), (16, 8, "two_sided"), (17, 4, "one_sided")):
            tables = design_tables(n, m)
            rng.shuffle(tables)
            target, others = tables[0], tables[1:]
            alpha = Fraction(1, 20)
            first = frontier_scan(target, alpha, statistic)
            for nobs in others:
                frontier_scan(nobs, alpha, statistic)
            after = frontier_scan(target, alpha, statistic)
            assert after == first, (n, m, statistic, target)
            assert after.tests == first.tests > 0

    @staticmethod
    def check_rescan(monkeypatch, n, m, statistic):
        # a second pass over every table of a design runs the first pass's
        # sums, in the same order, and gives the same scans
        alpha = Fraction(1, 20)
        tables = design_tables(n, m)
        runs = []
        for _ in range(2):
            with monkeypatch.context() as patch:
                decisions, sums = record_decisions(patch)
                scans = [frontier_scan(nobs, alpha, statistic) for nobs in tables]
            runs.append((scans, sums))
        assert {bool(decided) for *_, decided in decisions} == {True, False}, (n, m, statistic)
        assert runs[0] == runs[1] and runs[0][1], (n, m, statistic)

    def test_rescanned_design_runs_the_same_sums(self, monkeypatch):
        # one-sided tests hold no bounds either: a rescan is no cheaper than
        # the first pass; m > n - m included
        for n, m in ((12, 5), (11, 7)):
            self.check_rescan(monkeypatch, n, m, "one_sided")

    def test_two_sided_tests_hold_no_bounds(self, monkeypatch):
        for n, m in ((12, 6), (13, 5)):
            self.check_rescan(monkeypatch, n, m, "two_sided")

    def test_upper_tail_is_exact_whatever_the_bounds_hold(self, monkeypatch):
        # N accepts against both tables, by its upper tail alone only at the
        # smaller margin; each two-sided test runs its own sum, so neither
        # the order of the tests nor a repeat changes which tail accepts
        N, alpha = PotentialTable(0, 3, 1, 1), Fraction(1, 10)
        near, far = ObservedTable(1, 0, 1, 3), ObservedTable(1, 0, 0, 4)
        assert N.tau < near.tau_hat < far.tau_hat
        assert p_one_sided(N, near) >= alpha > p_one_sided(N, far)
        assert p_two_sided(N, far) >= alpha
        for order in ((far, near), (near, far)):
            with monkeypatch.context() as patch:
                decisions, sums = record_decisions(patch)
                got = {nobs: randtest.acceptor(nobs, alpha)(*N.as_tuple()) for nobs in order}
            assert got == {near: randtest.ACCEPT_UPPER, far: randtest.ACCEPT}, order
            assert len(sums) == 2, order
            with monkeypatch.context() as patch:
                _, again = record_decisions(patch)
                assert {nobs: randtest.acceptor(nobs, alpha)(*N.as_tuple()) for nobs in order} == got
            assert len(again) == 2, order

    def test_two_levels_on_one_table_decide_apart(self):
        # p lies between the two levels: the lower accepts, the higher rejects,
        # whichever is asked first
        N, nobs = PotentialTable(2, 3, 1, 6), ObservedTable(4, 2, 1, 5)
        low, high = Fraction(1, 20), Fraction(1, 3)
        for statistic, p_value in P_VALUES.items():
            assert low <= p_value(N, nobs) < high, statistic
            for order in ((low, high), (high, low)):
                for alpha in order * 2:
                    assert bool(randtest.acceptor(nobs, alpha, statistic)(*N.as_tuple())) == (alpha == low), (statistic, alpha)

    def test_held_kernel_never_skips_a_check(self, monkeypatch):
        # every refusal comes before any sum, and the held binomial rows
        # leave the next scan as it was
        nobs, alpha = ObservedTable(5, 2, 1, 8), Fraction(1, 20)
        for statistic in P_VALUES:
            first = frontier_scan(nobs, alpha, statistic)
            refusals = (  # (error, alpha, statistic, size guard)
                (ScaleGuard, alpha, statistic, nobs.n - 1),
                (InvalidLevel, Fraction(3, 2), statistic, None),
                (InvalidLevel, Fraction(0), statistic, None),
                (ValueError, alpha, "three_sided", None),
            )
            for error, level, stat, cap in refusals:
                with monkeypatch.context() as patch:
                    if cap is not None:
                        patch.setenv(SCALE_GUARD_ENV, str(cap))
                    patch.setattr(randtest, "_tail_weight", None)  # any sum would fail
                    with pytest.raises(error):
                        randtest.acceptor(nobs, level, stat)
                    with pytest.raises(error):
                        frontier_scan(nobs, level, stat)
                assert frontier_scan(nobs, alpha, statistic) == first, error


def held_mutant(rewrites):
    """`randtest._held` compiled from its source with each (old, new) text of rewrites replaced."""
    source = textwrap.dedent(inspect.getsource(randtest._held))
    for old, new in rewrites:
        assert old in source, old
        source = source.replace(old, new)
    namespace = dict(vars(randtest))
    exec(source, namespace)
    return namespace["_held"]


#: Unsafe threshold rules, each settling a query that the thresholds do not
#: place, once the threshold it reads is set (the sentinels are -n**3 and n**3)
UNSAFE_RULES = {
    "REJECT for obs > the greatest accepted": (
        ("if obs >= reject_lo[i]:", "if obs >= reject_lo[i] or obs > max(accept_hi[i], upper_hi[i]) > -n**3:"),
    ),
    "ACCEPT_UPPER for obs < the least not ACCEPT_UPPER": (
        ("if obs <= upper_hi[i]:", "if obs <= upper_hi[i] or obs < upper_lo[i] < n**3:"),
    ),
}


class TestSweepThresholds:
    """Inside a coverage sweep the decisions are held per table, and every one is exact."""

    # (n, m, method, levels, statistic): the sweep reports the first level,
    # and its ci_fn asks for every level of one observed table in turn
    SWEEPS = (
        (12, 5, "two_sided_frontier", (Fraction(1, 20), Fraction(1, 10)), "two_sided"),
        (11, 7, "two_sided_frontier", (Fraction(1, 10),), "two_sided"),
        (12, 4, "one_sided_lower", (Fraction(1, 10), Fraction(1, 20)), "one_sided"),
        (11, 8, "one_sided_lower", (Fraction(1, 20),), "one_sided"),
        (8, 3, "brute_force", (Fraction(1, 20),), "two_sided"),
        (8, 5, "brute_force", (Fraction(1, 10), Fraction(1, 3)), "two_sided"),
    )

    @staticmethod
    def wrong_decisions(monkeypatch, n, m, method, levels, statistic):
        """The sweep's decisions that disagree with their `Fraction` p-values, how many it made and its sums."""
        methods._scan_summary.cache_clear()
        with monkeypatch.context() as patch:
            decisions, sums = record_decisions(patch)
            ci_fn = lambda nobs: [compute_ci(method, nobs, a).ci_ntau for a in levels][0]
            exact_coverage_sweep(n, m, levels[0], ci_fn)
        p_value, p_of, wrong = P_VALUES[statistic], {}, []
        for nobs, alpha, cells, decided in decisions:
            key = (cells, nobs.tau_hat)
            if key not in p_of:
                N = PotentialTable(*cells)
                p_of[key] = p_value(N, nobs), upper_tail_p(N, nobs, statistic)
            try:
                check_decision(decided, *p_of[key], alpha, key)
            except AssertionError:
                wrong.append((nobs, alpha, cells, decided))
        return wrong, len(decisions), len(sums)

    def test_every_decision_matches_its_p_value(self, monkeypatch):
        rng = random.Random(2031)
        deadline = time.monotonic() + 2.5
        for sweep in self.SWEEPS:  # the thresholds settle some decisions of each
            wrong, made, summed = self.wrong_decisions(monkeypatch, *sweep)
            assert 0 < summed < made and not wrong, (sweep, wrong[:3])
        while time.monotonic() < deadline:  # seeded extra sweeps
            n = rng.randint(6, 12)
            method, statistic = rng.choice(
                (("two_sided_frontier", "two_sided"), ("one_sided_lower", "one_sided"), ("brute_force", "two_sided"))
            )
            levels = tuple(rng.sample((Fraction(1, 100), Fraction(1, 20), Fraction(1, 10), Fraction(1, 3)), 2))
            sweep = (n, rng.randint(1, n - 1), method, levels, statistic)
            wrong, made, _ = self.wrong_decisions(monkeypatch, *sweep)
            assert made and not wrong, (sweep, wrong[:3])
        # the check has teeth: each unsafe rule gives a wrong decision in a
        # two-sided and in a one-sided sweep of SWEEPS
        for rule, rewrites in UNSAFE_RULES.items():
            with monkeypatch.context() as patch:
                patch.setattr(randtest, "_held", held_mutant(rewrites))
                caught = {sweep[-1] for sweep in self.SWEEPS if self.wrong_decisions(patch, *sweep)[0]}
            assert caught == {"one_sided", "two_sided"}, rule
