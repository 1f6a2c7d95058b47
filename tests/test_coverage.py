"""Exact coverage sweeps over every potential table of a design."""

import gc
import random
import time
import tracemalloc
from fractions import Fraction
from math import comb

import pytest

from exactci import (
    InvalidLevel,
    ObservedTable,
    PotentialTable,
    ScaleGuard,
    ci_bonferroni,
    ci_two_sided_frontier,
    compute_ci,
    exact_coverage_sweep,
    frontier_scan,
)
from exactci import coverage, methods, randtest
from exactci.randtest import _iter_splits

from oracle import at_most_rows, coverage_by_splits, induced_observed, reference_covered_weight

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

    def test_non_int_input_is_refused(self):
        with pytest.raises(ValueError, match="need ints"):
            exact_coverage_sweep(6, 3.0, ALPHA, lambda nobs: (-6, 6))
        with pytest.raises(ValueError, match="need ints"):
            exact_coverage_sweep(6.0, 3, ALPHA, lambda nobs: (-6, 6))
        # the type is checked before the size cap, which an int n = 20 meets
        for n, m in ((20.0, 5), ("20", 5), (None, 3)):
            with pytest.raises(ValueError, match="need ints"):
                exact_coverage_sweep(n, m, ALPHA, lambda nobs: (-6, 6))
        with pytest.raises(ScaleGuard):
            exact_coverage_sweep(20, 5, ALPHA, lambda nobs: (-20, 20))
        # Fraction bounds, such as ci_tau's, name the first table that gave one
        ci_fn = lambda nobs: ci_two_sided_frontier(nobs, ALPHA).ci_tau  # noqa: E731
        with pytest.raises(ValueError, match=r"for ObservedTable\(n11=0, n10=3, n01=0, n00=3\)$"):
            exact_coverage_sweep(6, 3, ALPHA, ci_fn)
        # an int-valued bound of another type is refused too, wherever it is
        ci_fn = lambda nobs: (-6, 6.0 if nobs.as_tuple() == (2, 1, 1, 2) else 6)  # noqa: E731
        with pytest.raises(ValueError, match=r"got \(-6, 6.0\) for ObservedTable\(n11=2, n10=1, n01=1, n00=2\)$"):
            exact_coverage_sweep(6, 3, ALPHA, ci_fn)

    def test_float_alpha_read_by_its_decimal_form(self):
        report = exact_coverage_sweep(4, 2, 0.05, lambda nobs: (-4, 4))
        assert report.alpha == Fraction(1, 20)

    @pytest.mark.parametrize("alpha", (1.5, Fraction(0), 1))
    def test_invalid_alpha_before_any_interval(self, alpha):
        calls = []
        with pytest.raises(InvalidLevel):
            exact_coverage_sweep(4, 2, alpha, lambda nobs: calls.append(nobs) or (-4, 4))
        assert calls == []


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


def count_weighings(monkeypatch) -> list[int]:
    """Counts `coverage._covered_weight` calls, i.e. true tables weighed.

    The weighing cache is cleared first, so no earlier sweep's intervals hit.
    """
    coverage._weigh.cache_clear()
    calls = [0]
    weigh = coverage._covered_weight

    def counted(*args):
        calls[0] += 1
        return weigh(*args)

    monkeypatch.setattr(coverage, "_covered_weight", counted)
    return calls


def weighed_if_mirrored(n: int) -> int:
    """(C(n + 3, 3) + s) / 2: one table of each mirror pair, s self-mirror tables."""
    tables = [N.as_tuple() for N in coverage._true_tables(n)]
    s = sum(t == t[::-1] for t in tables)
    assert len(tables) == comb(n + 3, 3)
    return (len(tables) + s) // 2


class TestRelabelings:
    """`_relabelings(n)`: the index of each true table's mirror and of its conjugate-frame image."""

    @pytest.mark.parametrize("n", range(2, 15))
    def test_indexes_match_the_relabeled_tuples(self, n):
        tables = [N.as_tuple() for N in coverage._true_tables(n)]
        mirror, conjugate = coverage._relabelings(n)
        assert len(mirror) == len(conjugate) == len(tables)
        for i, (N11, N10, N01, N00) in enumerate(tables):
            assert tables[mirror[i]] == (N00, N01, N10, N11), (n, tables[i])
            assert tables[conjugate[i]] == (N00, N10, N01, N11), (n, tables[i])
            for index in (mirror, conjugate):
                assert index[index[i]] == i, (n, tables[i])  # an involution
            assert mirror[conjugate[i]] == conjugate[mirror[i]], (n, tables[i])
        fixed = [tables[i] for i, j in enumerate(mirror) if i == j]
        assert fixed == [t for t in tables if t == t[::-1]]
        assert (len(tables) + len(fixed)) // 2 == weighed_if_mirrored(n)


class TestMirrorShortcut:
    """One table of each mirror pair is weighed only when the intervals allow it."""

    @pytest.mark.parametrize("n, m", ((6, 3), (5, 2), (6, 2)))
    def test_one_broken_table_refuses_the_shortcut(self, monkeypatch, n, m):
        # bonferroni is mirror-equivariant; moving one observed table's
        # interval by one grid point breaks it there and only there, also
        # where the table is its own mirror, as (1, 1, 2, 2) at (6, 2)
        base = {nobs: ci_bonferroni(nobs, ALPHA).ci_ntau for nobs in observed_tables_of_design(n, m)}
        assert all(base[x.switch_y()] == (-hi, -lo) for x, (lo, hi) in base.items())
        calls = count_weighings(monkeypatch)
        for broken in base:
            lo, hi = base[broken]
            intervals = {**base, broken: (lo + 1, hi + 1)}
            calls[0] = 0
            report = exact_coverage_sweep(n, m, ALPHA, intervals.__getitem__)
            assert calls[0] == comb(n + 3, 3), broken
            assert report == coverage_by_splits(n, m, ALPHA, intervals.__getitem__), broken

    def test_clipped_and_empty_intervals_take_the_shortcut(self, monkeypatch):
        # mirror-equivariant once clipped to [-n, n] and with every empty
        # interval alike, but not as written
        rng = random.Random(20153)
        calls = count_weighings(monkeypatch)
        for n, m in ((6, 3), (7, 3), (8, 4), (9, 5)):
            intervals: dict[ObservedTable, tuple[int, int]] = {}
            for x in observed_tables_of_design(n, m):
                if x.switch_y() in intervals:
                    lo, hi = intervals[x.switch_y()]
                    intervals[x] = (-hi, -lo)
                elif x.switch_y() == x:
                    a = rng.randint(-1, n + 1)
                    intervals[x] = (-a, a)
                else:
                    intervals[x] = (rng.randint(-n - 1, n + 1), rng.randint(-n - 1, n + 1))
            for x, (lo, hi) in intervals.items():
                if max(lo, -n) > min(hi, n):
                    new = rng.choice(((hi + rng.randint(1, 3), hi), (n + rng.randint(1, 3),) * 2, (-n - 3, -n - 1)))
                else:
                    new = (lo - rng.randint(0, 3) if lo <= -n else lo, hi + rng.randint(0, 3) if hi >= n else hi)
                intervals[x] = new
            assert any(intervals[x.switch_y()] != (-hi, -lo) for x, (lo, hi) in intervals.items())
            calls[0] = 0
            report = exact_coverage_sweep(n, m, ALPHA, intervals.__getitem__)
            assert calls[0] == weighed_if_mirrored(n), (n, m)
            assert report == coverage_by_splits(n, m, ALPHA, intervals.__getitem__), (n, m)

    @pytest.mark.parametrize("method", ("bonferroni", "margin_inversion", "two_sided_frontier"))
    @pytest.mark.parametrize("n, m", ((8, 4), (9, 3), (14, 5)))
    def test_equivariant_methods_weigh_one_table_per_pair(self, monkeypatch, method, n, m):
        calls = count_weighings(monkeypatch)
        exact_coverage_sweep(n, m, ALPHA, method_ci_fn(method, ALPHA))
        assert calls[0] == weighed_if_mirrored(n)

    @pytest.mark.parametrize("n, m", ((8, 4), (9, 3), (14, 5)))
    def test_one_sided_lower_weighs_every_table(self, monkeypatch, n, m):
        calls = count_weighings(monkeypatch)
        exact_coverage_sweep(n, m, ALPHA, method_ci_fn("one_sided_lower", ALPHA))
        assert calls[0] == comb(n + 3, 3)

    def test_reports_share_their_tables(self):
        a = exact_coverage_sweep(7, 3, ALPHA, lambda nobs: (-7, 7))
        b = exact_coverage_sweep(7, 2, ALPHA, lambda nobs: (0, 0))
        assert all(M is N for (M, _), (N, _) in zip(a.per_table, b.per_table))
        tables = [N.as_tuple() for N, _ in a.per_table]
        assert tables == sorted(tables)


def held_bytes_per_report(n: int, m: int, method: str, count: int = 20) -> float:
    """Bytes that each of count held reports of one warm sweep adds, by tracemalloc."""
    ci_fn = method_ci_fn(method, ALPHA)
    exact_coverage_sweep(n, m, ALPHA, ci_fn)  # warm every cache the sweep reads
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        reports = [exact_coverage_sweep(n, m, ALPHA, ci_fn) for _ in range(count)]
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return held / len(reports)


class TestReportLayout:
    """A report holds one coverage tuple in `_true_tables(n)` order, and no table."""

    def test_equal_clipped_intervals_share_one_tuple(self):
        # the two sweeps' intervals differ only beyond [-n, n]; m <= n/2
        # reports hold the weighing cache's own tuple
        for m in (3, 4):
            a = exact_coverage_sweep(8, m, ALPHA, lambda nobs: (-99, 3))
            b = exact_coverage_sweep(8, m, Fraction(1, 10), lambda nobs: (-8, 3))
            assert a.coverages is b.coverages, m
            assert a != b  # each keeps its own alpha

    @pytest.mark.parametrize("n, m", ((7, 2), (8, 4), (8, 5), (9, 7)))
    def test_per_table_pairs_the_true_tables_with_coverages(self, n, m):
        report = exact_coverage_sweep(n, m, ALPHA, method_ci_fn("one_sided_lower", ALPHA))
        assert type(report.coverages) is tuple and len(report.coverages) == comb(n + 3, 3)
        assert report.per_table == tuple(zip(coverage._true_tables(n), report.coverages))
        assert report.violators(Fraction(1)) == [pair for pair in report.per_table if pair[1] < 1]

    @pytest.mark.parametrize("m, limit", ((5, 1024), (9, 8192)))
    def test_held_reports_are_small(self, m, limit):
        # a report holds no table; for m > n/2 it holds one relabeled tuple
        # of 680 coverages, 5.5 KB, and for m <= n/2 the cache's own tuple
        assert held_bytes_per_report(14, m, "bonferroni") < limit


def clipped(n: int, interval: tuple[int, int]) -> tuple[int, int] | None:
    """interval clipped to [-n, n], or None if that leaves it empty."""
    lo, hi = max(interval[0], -n), min(interval[1], n)
    return (lo, hi) if lo <= hi else None


def conjugate_invariant(n: int, m: int, ci_fn) -> bool:
    """True if X and switch_y(switch_z(X)) have the same clipped interval for every X of (n, m)."""
    return all(
        clipped(n, ci_fn(x)) == clipped(n, ci_fn(x.switch_z().switch_y()))
        for x in observed_tables_of_design(n, m)
    )


def conjugate_pairs() -> list[tuple[int, int, int]]:
    """(n, m, n - m) for every n <= 9 and m != n/2: both orders of each conjugate pair."""
    return [(n, m, n - m) for n in range(2, 10) for m in range(1, n) if 2 * m != n]


class TestConjugateFrame:
    """A design with m > n/2 is weighed relabeled in design (n, n - m), through one cache."""

    @pytest.mark.parametrize("method", SWEEP_METHODS)
    def test_conjugate_designs_share_one_weighing(self, monkeypatch, method):
        ci_fn = method_ci_fn(method, ALPHA)
        oracle = {(n, m): coverage_by_splits(n, m, ALPHA, ci_fn) for n, m, _ in conjugate_pairs()}
        calls = count_weighings(monkeypatch)
        weighed_again = 0
        for n, first, second in conjugate_pairs():
            coverage._weigh.cache_clear()
            assert exact_coverage_sweep(n, first, ALPHA, ci_fn) == oracle[n, first]
            calls[0] = 0
            hits = coverage._weigh.cache_info().hits
            assert exact_coverage_sweep(n, second, ALPHA, ci_fn) == oracle[n, second], (n, second)
            hit = coverage._weigh.cache_info().hits - hits
            # the cache hits exactly where the relabeled intervals are the first design's
            assert hit == conjugate_invariant(n, first, ci_fn), (n, first, second)
            assert (calls[0] == 0) == hit, (n, first, second)
            weighed_again += not hit
        if method == "margin_inversion":
            assert weighed_again  # CI(switch_y(switch_z(X))) != CI(X) at n = 7-9
        else:
            assert weighed_again == 0

    def test_random_intervals_weigh_again(self, monkeypatch):
        rng = random.Random(20154)
        calls = count_weighings(monkeypatch)
        for n, first, second in conjugate_pairs():
            for m in (first, second):
                intervals = random_intervals(n, m, rng)
                calls[0] = 0
                report = exact_coverage_sweep(n, m, ALPHA, intervals.__getitem__)
                assert calls[0] > 0, (n, m)
                assert report == coverage_by_splits(n, m, ALPHA, intervals.__getitem__), (n, m)

    @pytest.mark.parametrize("n, first, second", ((6, 2, 4), (6, 4, 2), (7, 3, 4), (7, 4, 3), (9, 2, 7)))
    def test_one_moved_interval_is_weighed(self, monkeypatch, n, first, second):
        # bonferroni's conjugate sweep hits; moving any one interval of the
        # second design by one grid point misses, and the report stays exact
        ci_fn = method_ci_fn("bonferroni", ALPHA)
        calls = count_weighings(monkeypatch)
        exact_coverage_sweep(n, first, ALPHA, ci_fn)
        base = {x: ci_fn(x) for x in observed_tables_of_design(n, second)}
        assert all(lo <= hi for lo, hi in base.values())
        calls[0] = 0
        exact_coverage_sweep(n, second, ALPHA, base.__getitem__)
        assert calls[0] == 0
        for moved in base:
            lo, hi = base[moved]
            intervals = {**base, moved: (lo + 1, hi + 1)}
            calls[0] = 0
            report = exact_coverage_sweep(n, second, ALPHA, intervals.__getitem__)
            assert calls[0] > 0, moved
            assert report == coverage_by_splits(n, second, ALPHA, intervals.__getitem__), moved

    def test_levels_with_the_same_intervals_share_one_entry(self):
        # the weighing is keyed without alpha: two levels of (8, 3) and one of
        # its conjugate (8, 5) read one entry, and every report keeps its alpha
        coverage._weigh.cache_clear()
        sweeps = ((3, Fraction(1, 10)), (3, 0.05), (5, Fraction(1, 100)))
        reports = [exact_coverage_sweep(8, m, alpha, lambda nobs: (-1, 3)) for m, alpha in sweeps]
        info = coverage._weigh.cache_info()
        assert (info.hits, info.misses, info.currsize) == (2, 1, 1)
        assert [r.alpha for r in reports] == [Fraction(1, 10), Fraction(1, 20), Fraction(1, 100)]
        for report in reports:
            assert report == coverage_by_splits(8, report.m, report.alpha, lambda nobs: (-1, 3))


def n01_support(N: PotentialTable, m: int, n11: int) -> tuple[int, int] | None:
    """Least and greatest n01 over the splits of N with n11 treated responders.

    n01 = y + z, with y type-11 and z type-01 units left in control; None if
    no split has n11.
    """
    r2 = m - n11
    ys = [N.N11 - x11 for x11 in range(N.N11 + 1) if 0 <= n11 - x11 <= N.N10]
    zs = [N.N01 - x01 for x01 in range(N.N01 + 1) if 0 <= r2 - x01 <= N.N00]
    if not ys or not zs:
        return None
    return min(ys) + min(zs), max(ys) + max(zs)


def wide_random_intervals(n: int, m: int, rng: random.Random) -> dict[ObservedTable, tuple[int, int]]:
    """An arbitrary interval per observed table, most of them holding 0."""
    return {
        nobs: (rng.randint(-n - 1, 1), rng.randint(-1, n + 1))
        for nobs in observed_tables_of_design(n, m)
    }


class TestReferenceWeight:
    """`_covered_weight` against the prefix-sum-only reference, true table by true table."""

    @staticmethod
    def assert_same_weights(n, m, ci_fn, ends=None):
        """Compare every true table's weight; count run ends near supports in ends."""
        runs = coverage._covering_runs(n, m, coverage._intervals(n, m, ci_fn))
        for N01 in range(n + 1):
            for N00 in range(n - N01 + 1):
                rows = at_most_rows(N01, N00, m, n)
                for N11 in range(n - N01 - N00 + 1):
                    N10 = n - N01 - N00 - N11
                    N = PotentialTable(N11, N10, N01, N00)
                    runs_at_t = runs[N10 - N01 + n]
                    got = coverage._covered_weight(N, m, runs_at_t)
                    want = reference_covered_weight(N11, N10, N01, m, n, runs_at_t, rows)
                    assert got == want, (n, m, (N11, N10, N01, N00))
                    if ends is None:
                        continue
                    for n11, n11_runs in runs_at_t:
                        support = n01_support(N, m, n11)
                        if support is None:
                            continue
                        for start, stop in n11_runs:
                            for bound, offset in (("first", start - support[0]), ("last", stop - 1 - support[1])):
                                if -1 <= offset <= 1:
                                    ends[bound, offset] += 1

    @pytest.mark.parametrize("method", ("bonferroni", "margin_inversion"))
    def test_count_methods_every_design_n13_n14(self, method):
        for alpha in (Fraction(1, 10), Fraction(1, 20)):
            ci_fn = method_ci_fn(method, alpha)
            for n in (13, 14):
                for m in range(1, n):
                    self.assert_same_weights(n, m, ci_fn)

    @pytest.mark.parametrize("method", ("two_sided_frontier", "one_sided_lower"))
    def test_randomization_methods(self, method):
        for alpha in (Fraction(1, 10), Fraction(1, 20)):
            for n, m in ((14, 7), (13, 3)):
                self.assert_same_weights(n, m, method_ci_fn(method, alpha))

    def test_random_intervals(self):
        # runs that start and end exactly at, one inside and one outside each
        # bound of some n11's n01 support
        rng = random.Random(20152)
        ends = dict.fromkeys(((b, o) for b in ("first", "last") for o in (-1, 0, 1)), 0)
        deadline = time.monotonic() + 3.0
        checked = 0
        while checked < 8 or time.monotonic() < deadline:
            n = rng.randint(10, 14)
            m = rng.randint(1, n - 1)
            make = rng.choice((random_intervals, wide_random_intervals))
            self.assert_same_weights(n, m, make(n, m, rng).__getitem__, ends)
            checked += 1
        assert all(ends.values()), ends


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


def plain_acceptor() -> bool:
    """True if `randtest.acceptor` returns its plain decision function, which holds nothing."""
    accepts = randtest.acceptor(ObservedTable(3, 2, 1, 4), ALPHA)
    return randtest._sweep_thresholds.get() is None and accepts.__qualname__ == "acceptor.<locals>.accepts"


class TestSweepScope:
    """Decision thresholds live exactly as long as their sweep and change no result."""

    def test_thresholds_end_with_the_sweep(self):
        assert plain_acceptor()
        held = []
        ci_fn = method_ci_fn("two_sided_frontier", ALPHA)

        def inside(nobs):
            held.append(not plain_acceptor())
            return ci_fn(nobs)

        methods._scan_summary.cache_clear()
        exact_coverage_sweep(9, 4, ALPHA, inside)
        assert held and all(held)
        assert plain_acceptor()

        def failing(nobs):
            if nobs.n11 == 2:
                raise RuntimeError("ci_fn failed")
            return ci_fn(nobs)

        with pytest.raises(RuntimeError, match="ci_fn failed"):
            exact_coverage_sweep(9, 5, ALPHA, failing)
        assert plain_acceptor()

    @pytest.mark.parametrize("n, m", ((11, 4), (10, 7), (14, 7)))
    def test_every_group_has_one_slot_per_table(self, n, m):
        # two levels and both statistics: four (n, m, level, statistic) groups
        groups = {}

        def ci_fn(nobs):
            for method in ("two_sided_frontier", "one_sided_lower"):
                for alpha in (ALPHA, Fraction(1, 10)):
                    compute_ci(method, nobs, alpha)
            groups.update(randtest._sweep_thresholds.get())
            return (-n, n)

        methods._scan_summary.cache_clear()
        exact_coverage_sweep(n, m, ALPHA, ci_fn)
        assert len(groups) == 4
        for key, group in groups.items():
            assert [len(slots) for slots in group] == [comb(n + 3, 3)] * 4, key

    @pytest.mark.parametrize("method", ("two_sided_frontier", "one_sided_lower", "one_sided_upper", "brute_force"))
    @pytest.mark.parametrize("n, m", ((11, 4), (10, 7)))
    def test_results_equal_those_outside_a_sweep(self, method, n, m):
        inside = []

        def ci_fn(nobs):
            inside.append(compute_ci(method, nobs, ALPHA))
            return inside[-1].ci_ntau

        methods._scan_summary.cache_clear()
        exact_coverage_sweep(n, m, ALPHA, ci_fn)
        methods._scan_summary.cache_clear()
        assert inside == [compute_ci(method, nobs, ALPHA) for nobs in observed_tables_of_design(n, m)]

    @pytest.mark.parametrize(
        "n, m, statistic",
        ((11, 4, "two_sided"), (12, 6, "two_sided"), (11, 4, "one_sided"), (10, 7, "one_sided")),
    )
    def test_scans_equal_those_outside_a_sweep(self, n, m, statistic):
        # frontiers, ends, tests and settled of every observed table's scan
        # (a two-sided scan needs m <= n - m)
        inside = []

        def ci_fn(nobs):
            inside.append(frontier_scan(nobs, ALPHA, statistic))
            return (-n, n)

        exact_coverage_sweep(n, m, ALPHA, ci_fn)
        assert inside == [frontier_scan(nobs, ALPHA, statistic) for nobs in observed_tables_of_design(n, m)]

    @pytest.mark.parametrize(
        "method, sums, least",
        (
            ("two_sided_frontier", 2_210, Fraction(644976, 676039)),  # 15,632 sums with no thresholds
            ("one_sided_lower", 2_154, Fraction(49415, 52003)),  # 16,448 sums with no thresholds
        ),
    )
    def test_cap_lifted_sweep_sums(self, monkeypatch, method, sums, least):
        monkeypatch.setattr(coverage, "MAX_COVERAGE_N", 24)
        tail, calls = randtest._tail_weight, []
        monkeypatch.setattr(randtest, "_tail_weight", lambda *args: calls.append(args[:4]) or tail(*args))
        methods._scan_summary.cache_clear()
        report = exact_coverage_sweep(24, 12, ALPHA, method_ci_fn(method, ALPHA))
        assert (len(calls), report.min_coverage) == (sums, least)
