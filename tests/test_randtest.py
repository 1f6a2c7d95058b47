"""Exact randomization-test engine."""

import itertools
import random
import time
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
    frontier_scan,
    p_one_sided,
    p_two_sided,
)
from exactci import randtest
from exactci.randtest import null_dist
from exactci.hypergeom import SCALE_GUARD_ENV, _at_most, max_exact_n
from exactci.methods import FrontierScan

from conftest import count_calls, observed_tables, potential_tables
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


def p_both(N, nobs):
    """Both p-values, checked to be direct tail sums that read no built distribution."""
    reads = atoms_reads()
    one, two = p_one_sided(N, nobs), p_two_sided(N, nobs)
    assert atoms_reads() == reads
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
        # the searches count one test per call of the decision function that
        # randtest.acceptor builds, and a frontier scan one more per decision
        # that its previous row settles
        two_sided = count_calls(monkeypatch, "two_sided")
        one_sided = count_calls(monkeypatch, "one_sided")
        nobs = ObservedTable(2, 1, 1, 3)
        for calls, run in (
            (two_sided, lambda: frontier_scan(nobs, Fraction(1, 20), "two_sided")),
            (one_sided, lambda: frontier_scan(nobs, Fraction(1, 20), "one_sided")),
            (two_sided, lambda: ci_brute_force(nobs, Fraction(1, 20))),
        ):
            two_sided.clear()
            one_sided.clear()
            res = run()
            settled = res.settled if isinstance(res, FrontierScan) else 0
            assert res.tests - settled == len(calls) > 0

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

    def test_prefix_rows(self):
        # the rows hold their definitional sums
        for N01, N00 in itertools.product(range(13), repeat=2):
            for r2 in range(N01 + N00 + 1):
                terms = [comb(N01, x01) * comb(N00, r2 - x01) for x01 in range(min(N01, r2) + 1)]
                assert list(_at_most(N01, N00, r2)) == list(itertools.accumulate(terms))
                assert _at_most(N01, N00, r2)[-1] == comb(N01 + N00, r2)
        # a cold and a warm cache give the same p-values
        rng = random.Random(11)
        pairs = [random_pair(rng, rng.randint(11, 40)) for _ in range(30)]
        _at_most.cache_clear()
        cold = [p_both(N, nobs) for N, nobs in pairs]
        hits = _at_most.cache_info().hits
        assert [p_both(N, nobs) for N, nobs in pairs] == cold
        assert _at_most.cache_info().hits > hits
        # the cache keeps at most its bound of rows
        bound = _at_most.cache_info().maxsize
        assert bound is not None
        for key in itertools.islice(itertools.product(range(40), range(40), range(40)), bound + 1):
            _at_most(*key)
        assert _at_most.cache_info().currsize == bound
        _at_most.cache_clear()


class TestTailWeight:
    """`_tail_weight` against the definitional sums over the null distribution's atoms."""

    def test_every_table_and_threshold_up_to_n9(self):
        # every potential table of size n <= 9 against every m (what an
        # observed table contributes to a sum), at every atom as a threshold
        for n in range(2, 10):
            for N, m in itertools.product(potential_tables(n), range(1, n)):
                cells, swap = N.as_tuple(), 2 * m > n
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
                    full = randtest._tail_weight(*cells, m, swap, upper, lower)
                    assert full == expect, (cells, m, upper, lower)
                    for stop in {1, full // 2, full, full + 1}:
                        early = randtest._tail_weight(*cells, m, swap, upper, lower, stop)
                        assert (early >= stop) == (full >= stop), (cells, m, upper, lower, stop)
                        assert early <= full

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
                    slices += [below[key] for key in sorted(below)]
                    full = sum(slices)
                    for stop in {1, full // 2, full, full + 1} - {0}:  # need is at least 1
                        expect = next((w for w in itertools.accumulate(slices) if w >= stop), full)
                        early = randtest._tail_weight(*cells, m, swap, upper, lower, stop)
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


class TestAcceptor:
    """The integer threshold decides exactly as p >= alpha does."""

    def check_pairs(self, pairs):
        for statistic, p_value in P_VALUES.items():
            for nobs, tables in pairs.items():
                decide = {alpha: randtest.acceptor(nobs, alpha, statistic) for alpha in BOUNDARY_ALPHAS}
                for N in tables:
                    p = p_value(N, nobs)
                    for alpha, accepts in decide.items():
                        assert accepts(*N.as_tuple()) == (p >= alpha), (statistic, N, nobs, alpha)
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
    """(decisions, sums): every search test as (nobs, alpha, cells, accepted), and the tail sums run."""
    decisions, sums = [], []
    make, tail = randtest.acceptor, randtest._tail_weight

    def recording(nobs, alpha, statistic="two_sided"):
        accepts = make(nobs, alpha, statistic)

        def decide(*cells):
            accepted = accepts(*cells)
            decisions.append((nobs, alpha, cells, accepted))
            return accepted

        return decide

    def counting(*args):
        sums.append(args[:4])
        return tail(*args)

    monkeypatch.setattr(randtest, "acceptor", recording)
    monkeypatch.setattr(randtest, "_tail_weight", counting)
    return decisions, sums


class TestDecisionKernel:
    """Decisions read off a group's exact bounds equal the `Fraction` p-value's."""

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
            # scan the design's tables at both levels in turn, switching kernels
            # at every search, then at one level in a row, as a coverage sweep
            # does, up to a few thousand tests each
            for levels in ([rng.sample(alphas, 2) for _ in tables], [alphas[:1]] * len(tables)):
                randtest._kernel.cache_clear()
                decisions, sums = record_decisions(monkeypatch)
                for nobs, order in zip(tables, levels):
                    for alpha in order:
                        search(nobs, alpha, statistic)
                    if len(decisions) > 3000:
                        break
                monkeypatch.undo()
                p_value = P_VALUES[statistic]
                p_of = {}
                for nobs, alpha, cells, accepted in decisions:
                    key = (cells, nobs.tau_hat)  # m and n are the design's
                    if key not in p_of:
                        p_of[key] = p_value(PotentialTable(*cells), nobs)
                    assert accepted == (p_of[key] >= alpha), (n, m, statistic, nobs, alpha, cells)
            assert len(sums) < len(decisions), (n, m, statistic)  # the bounds decided some tests

    def test_bounds_decide_a_share_of_a_design(self, monkeypatch):
        # a design's scans settle most of their tests by bounds, not sums
        decisions, sums = record_decisions(monkeypatch)
        randtest._kernel.cache_clear()
        for statistic in ("one_sided", "two_sided"):
            for nobs in design_tables(12, 6):
                frontier_scan(nobs, Fraction(1, 20), statistic)
        assert 2 * len(sums) < len(decisions)

    def test_scan_does_not_depend_on_held_bounds(self):
        rng = random.Random(27)
        for n, m, statistic in ((12, 5, "two_sided"), (13, 9, "one_sided"), (16, 8, "two_sided"), (17, 4, "one_sided")):
            tables = design_tables(n, m)
            rng.shuffle(tables)
            target, others = tables[0], tables[1:]
            alpha = Fraction(1, 20)
            randtest._kernel.cache_clear()
            for nobs in others:
                frontier_scan(nobs, alpha, statistic)
            warm = frontier_scan(target, alpha, statistic)
            randtest._kernel.cache_clear()
            cold = frontier_scan(target, alpha, statistic)
            assert warm == cold, (n, m, statistic, target)
            assert warm.tests == cold.tests > 0

    def test_repeated_scan_needs_no_sum(self, monkeypatch):
        # a key equal to a bound is decided by that bound, accepted or rejected
        for nobs, statistic in (
            (ObservedTable(3, 4, 6, 3), "two_sided"),
            (ObservedTable(5, 2, 1, 8), "one_sided"),
            (ObservedTable(7, 3, 2, 4), "one_sided"),  # m > n - m
        ):
            randtest._kernel.cache_clear()
            with monkeypatch.context() as patch:
                decisions, sums = record_decisions(patch)
                first = frontier_scan(nobs, Fraction(1, 20), statistic)
            assert {accepted for *_, accepted in decisions} == {True, False}, (nobs, statistic)
            assert sums
            with monkeypatch.context() as patch:
                patch.setattr(randtest, "_tail_weight", None)  # any sum would fail
                assert frontier_scan(nobs, Fraction(1, 20), statistic) == first, (nobs, statistic)

    def test_groups_are_keyed_by_need(self):
        # p lies between the two levels: the lower accepts, the higher rejects,
        # whichever is asked first
        N, nobs = PotentialTable(2, 3, 1, 6), ObservedTable(4, 2, 1, 5)
        low, high = Fraction(1, 20), Fraction(1, 3)
        for statistic, p_value in P_VALUES.items():
            assert low <= p_value(N, nobs) < high, statistic
            for order in ((low, high), (high, low)):
                randtest._kernel.cache_clear()
                for alpha in order * 2:
                    assert randtest.acceptor(nobs, alpha, statistic)(*N.as_tuple()) == (alpha == low), (statistic, alpha)

    def test_newest_group_is_held(self, monkeypatch):
        nobs = ObservedTable(2, 3, 1, 4)
        b, c = (Fraction(1, 10), "two_sided"), (Fraction(1, 20), "one_sided")
        randtest._kernel.cache_clear()
        first = {group: frontier_scan(nobs, *group) for group in (b, c)}
        with monkeypatch.context() as patch:
            patch.setattr(randtest, "_tail_weight", None)  # any sum would fail
            assert frontier_scan(nobs, *c) == first[c]
        with monkeypatch.context() as patch:
            decisions, sums = record_decisions(patch)
            assert frontier_scan(nobs, *b) == first[b]
        assert sums  # b's bounds were dropped when c's kernel was made

    def test_held_kernel_never_skips_a_check(self, monkeypatch):
        nobs, alpha, statistic = ObservedTable(3, 4, 6, 3), Fraction(1, 20), "two_sided"
        randtest._kernel.cache_clear()
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
                with pytest.raises(error):
                    randtest.acceptor(nobs, level, stat)
            with monkeypatch.context() as patch:
                patch.setattr(randtest, "_tail_weight", None)  # any sum would fail
                assert frontier_scan(nobs, alpha, statistic) == first, error
