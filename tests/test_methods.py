"""Interval constructions: reference values, symmetries, containment, nesting."""

from fractions import Fraction

import pytest
from conftest import (
    SIX_TABLES,
    accepted_ntau,
    accepted_ntau_two_sided,
    count_calls,
    left_out,
    observed_tables,
    walked_tables,
)
from test_acceptance import BONFERRONI_PUBLISHED, MARGIN_PUBLISHED

from exactci import (
    ObservedTable,
    PotentialTable,
    attainable_ntau_range,
    ci_bonferroni,
    ci_brute_force,
    ci_count,
    ci_margin_inversion,
    ci_one_sided,
    ci_two_sided_frontier,
    compute_ci,
    enumerate_compatible,
    p_one_sided,
    p_two_sided,
)
from exactci import methods
from exactci.errors import InvalidLevel, ScaleGuard
from exactci.hypergeom import SCALE_GUARD_ENV
from exactci.methods import frontier_scan

ALPHA = Fraction(1, 20)

SMALL_TABLES = (
    (2, 1, 1, 2),
    (1, 2, 2, 1),
    (3, 1, 2, 2),
    (1, 3, 1, 3),
    (2, 2, 3, 1),
)


class TestBruteForce:
    def test_reference_intervals_and_counts(self):
        expected = {
            (1, 1, 1, 13): ((-1, 14), 112),
            (2, 6, 8, 0): ((-14, -5), 189),
            (6, 0, 11, 3): ((-4, 8), 336),
            (6, 4, 4, 6): ((-4, 10), 1225),
            (1, 1, 3, 19): ((-3, 20), 320),
            (8, 4, 5, 7): ((-3, 13), 2160),
        }
        for cells, (ci, tests) in expected.items():
            res = ci_brute_force(ObservedTable(*cells), ALPHA)
            assert res.ci_ntau == ci, cells
            assert res.tests == tests, cells

    def test_ci_tau_is_ci_ntau_over_n(self):
        res = ci_brute_force(ObservedTable(1, 1, 1, 13), ALPHA)
        assert res.ci_tau == (Fraction(-1, 16), Fraction(14, 16))


class TestFrontier:
    def test_matches_brute_force_on_reference_tables(self):
        expected_tests = {
            (1, 1, 1, 13): 103,
            (2, 6, 8, 0): 113,
            (6, 0, 11, 3): 283,
            (6, 4, 4, 6): 308,
            (1, 1, 3, 19): 251,
            (8, 4, 5, 7): 421,
        }
        for cells in SIX_TABLES:
            nobs = ObservedTable(*cells)
            frontier = ci_two_sided_frontier(nobs, ALPHA)
            brute = ci_brute_force(nobs, ALPHA)
            assert frontier.ci_ntau == brute.ci_ntau, cells
            assert frontier.tests == expected_tests[cells], cells
            assert frontier.tests <= brute.tests

    def test_contains_brute_force(self):
        for cells in SMALL_TABLES:
            nobs = ObservedTable(*cells)
            for alpha in (Fraction(1, 10), ALPHA, Fraction(1, 100)):
                f = ci_two_sided_frontier(nobs, alpha).ci_ntau
                b = ci_brute_force(nobs, alpha).ci_ntau
                assert f[0] <= b[0] and b[1] <= f[1], (cells, alpha)

    @pytest.mark.parametrize(
        "alpha, cells, frontier, brute",
        [
            # one table of each of the 8 classes, n = 16-23, whose frontier
            # interval is one grid point wider than the brute-force one (README)
            pytest.param(Fraction(1, 10), (5, 4, 7, 0), (-10, -1), (-10, -2), id="5,4,7,0"),
            pytest.param(Fraction(1, 10), (6, 4, 8, 0), (-10, -1), (-10, -2), id="6,4,8,0"),
            pytest.param(Fraction(1, 100), (1, 8, 0, 11), (-4, 9), (-4, 8), id="1,8,0,11"),
            pytest.param(Fraction(1, 20), (0, 7, 7, 7), (-13, -1), (-13, -2), id="0,7,7,7"),
            pytest.param(Fraction(1, 20), (0, 8, 6, 7), (-13, -1), (-13, -2), id="0,8,6,7"),
            pytest.param(Fraction(1, 20), (0, 10, 5, 7), (-13, -1), (-13, -2), id="0,10,5,7"),
            pytest.param(Fraction(1, 20), (0, 6, 9, 8), (-15, -1), (-15, -2), id="0,6,9,8"),
            pytest.param(Fraction(1, 100), (0, 10, 0, 13), (-5, 7), (-5, 6), id="0,10,0,13"),
        ],
    )
    def test_conservative_exactness_classes(self, alpha, cells, frontier, brute):
        nobs = ObservedTable(*cells)
        assert ci_two_sided_frontier(nobs, alpha).ci_ntau == frontier
        assert ci_brute_force(nobs, alpha).ci_ntau == brute

    def test_treatment_switch_symmetry(self):
        for cells in SMALL_TABLES:
            nobs = ObservedTable(*cells)
            lo, hi = ci_two_sided_frontier(nobs, ALPHA).ci_ntau
            slo, shi = ci_two_sided_frontier(nobs.switch_z(), ALPHA).ci_ntau
            assert (slo, shi) == (-hi, -lo), cells

    def test_unbalanced_arm_conjugation(self):
        # m > n - m goes through the treatment switch internally
        nobs = ObservedTable(5, 4, 1, 2)
        assert nobs.m > nobs.n - nobs.m
        res = ci_two_sided_frontier(nobs, ALPHA)
        brute = ci_brute_force(nobs, ALPHA)
        assert res.ci_ntau == brute.ci_ntau


class TestRowRules:
    """The decisions a frontier scan settles from its previous row, replayed by exact p-values."""

    def test_settled_decisions_match_exact_p_values_n10(self, monkeypatch):
        # every observed table with n <= 10: each settled table's implied
        # decision (accepted only at its cell's frontier) is p >= alpha for
        # the Fraction p-value, which no decision function computes
        calls = {s: count_calls(monkeypatch, s) for s in ("one_sided", "two_sided")}
        p_value = {"one_sided": p_one_sided, "two_sided": p_two_sided}
        rejects = accepts = balanced_accepts = unbalanced_accepts = 0
        for n in range(2, 11):
            for nobs in observed_tables(n):
                balanced = 2 * nobs.m == n
                for alpha in (Fraction(1, 10), ALPHA, Fraction(1, 100)):
                    for statistic in ("one_sided", "two_sided"):
                        if statistic == "two_sided" and nobs.m > n - nobs.m:
                            continue
                        calls[statistic].clear()
                        scan = frontier_scan(nobs, alpha, statistic)
                        walked = walked_tables(scan, nobs, statistic)
                        settled = left_out(calls[statistic], walked)
                        key = (nobs, alpha, statistic)
                        assert len(walked) == scan.tests and len(settled) == scan.settled, key
                        for cells in settled:
                            accepted = cells[1] == scan.frontiers[cells[0]][cells[2]]
                            N = PotentialTable(*cells)
                            p = p_value[statistic](N, nobs)
                            assert (p >= alpha) == accepted, (key, cells)
                            if accepted:
                                # every scan seeds from upper tails alone: the one-sided p carries the accept
                                assert p_one_sided(N, nobs) >= alpha, (key, cells)
                                balanced_accepts += statistic == "two_sided" and balanced
                                unbalanced_accepts += statistic == "two_sided" and not balanced
                            accepts += accepted
                            rejects += not accepted
        assert accepts and rejects and balanced_accepts and unbalanced_accepts


class TestOneSided:
    def test_reference_lower_intervals(self):
        expected = {
            (1, 1, 1, 13): (-1, 14),
            (2, 6, 8, 0): (-14, 2),
            (6, 0, 11, 3): (-3, 9),
            (6, 4, 4, 6): (-3, 12),
            (1, 1, 3, 19): (-3, 20),
            (8, 4, 5, 7): (-2, 15),
        }
        for cells, ci in expected.items():
            res = ci_one_sided(ObservedTable(*cells), ALPHA, "lower")
            assert res.ci_ntau == ci, cells

    def test_lower_reaches_maximum_attainable(self):
        for cells in SMALL_TABLES:
            nobs = ObservedTable(*cells)
            res = ci_one_sided(nobs, ALPHA, "lower")
            assert res.ci_ntau[1] == attainable_ntau_range(nobs)[1]

    def test_upper_is_outcome_switch_conjugate(self):
        for cells in SMALL_TABLES:
            nobs = ObservedTable(*cells)
            lo, hi = ci_one_sided(nobs.switch_y(), ALPHA, "lower").ci_ntau
            assert ci_one_sided(nobs, ALPHA, "upper").ci_ntau == (-hi, -lo)

    def test_deterministic_across_runs(self):
        for cells in SMALL_TABLES:
            nobs = ObservedTable(*cells)
            a = ci_one_sided(nobs, ALPHA, "lower").ci_ntau
            b = ci_one_sided(nobs, ALPHA, "lower").ci_ntau
            assert a == b

    def test_unknown_direction_is_refused_before_any_scan(self, monkeypatch):
        monkeypatch.setattr(methods, "_scan_summary", None)  # any scan would fail
        for direction in ("sideways", "Lower", ""):
            with pytest.raises(ValueError, match="'lower' or 'upper'"):
                ci_one_sided(ObservedTable(8, 4, 5, 7), Fraction(1, 20), direction)


def margin_inversion_reference(nobs: ObservedTable, alpha: Fraction) -> tuple[int, int]:
    """The definition: extreme n*tau over the compatible tables whose
    control-response margin lies in the count interval."""
    g_lo, g_hi = ci_count(nobs.n, nobs.n - nobs.m, nobs.n01, alpha)
    accepted = [N.ntau for N in enumerate_compatible(nobs) if g_lo <= N.nplus1 <= g_hi]
    return (min(accepted), max(accepted))


class TestCountMethods:
    def test_margin_inversion_matches_definition(self):
        for n in range(2, 13):
            for nobs in observed_tables(n):
                for alpha in (Fraction(1, 10), ALPHA, Fraction(1, 100)):
                    assert ci_margin_inversion(nobs, alpha).ci_ntau == margin_inversion_reference(
                        nobs, alpha
                    ), (nobs.as_tuple(), alpha)

    def test_default_reproduces_published_values_exactly(self):
        for fn, published in (
            (ci_bonferroni, BONFERRONI_PUBLISHED),
            (ci_margin_inversion, MARGIN_PUBLISHED),
        ):
            for cells, ci in published.items():
                res = fn(ObservedTable(*cells), ALPHA)
                assert res.ci_ntau == ci, (fn.__name__, cells)
                assert res.tests == 0

    def test_default_is_outcome_switch_equivariant(self):
        for n in range(2, 13):
            for nobs in observed_tables(n):
                for fn in (ci_bonferroni, ci_margin_inversion):
                    lo, hi = fn(nobs, ALPHA).ci_ntau
                    assert fn(nobs.switch_y(), ALPHA).ci_ntau == (-hi, -lo), (
                        fn.__name__, nobs.as_tuple()
                    )

    def test_clipped_to_attainable_range(self):
        nobs = ObservedTable(2, 0, 0, 2)
        lo, hi = ci_bonferroni(nobs, ALPHA).ci_ntau
        a_lo, a_hi = attainable_ntau_range(nobs)
        assert a_lo <= lo <= hi <= a_hi

    def test_size_guard(self, monkeypatch):
        # n = 2000 is refused before any endpoint table is built, as the
        # randomization methods refuse it
        for fn in (ci_bonferroni, ci_margin_inversion):
            with pytest.raises(ScaleGuard, match="n=2000"):
                fn(ObservedTable(500, 500, 500, 500), ALPHA)
        with pytest.raises(ScaleGuard):
            ci_count(2000, 1000, 500, ALPHA)
        # the same limit, read on every call whether or not the tables are cached
        nobs = ObservedTable(4, 4, 4, 4)
        before = [fn(nobs, ALPHA) for fn in (ci_bonferroni, ci_margin_inversion)]
        monkeypatch.setenv(SCALE_GUARD_ENV, "15")
        for fn in (ci_bonferroni, ci_margin_inversion):
            with pytest.raises(ScaleGuard, match="limit 15"):
                fn(nobs, ALPHA)
        for raw in ("abc", "\uff13\uff10", "\u0663\u0660"):  # 30 in full-width and Arabic-Indic digits
            monkeypatch.setenv(SCALE_GUARD_ENV, raw)
            for fn in (ci_bonferroni, ci_margin_inversion):
                with pytest.raises(ValueError, match=SCALE_GUARD_ENV):
                    fn(nobs, ALPHA)
        monkeypatch.setenv(SCALE_GUARD_ENV, "16")
        assert [fn(nobs, ALPHA) for fn in (ci_bonferroni, ci_margin_inversion)] == before


class TestGeneralInvariants:
    @pytest.mark.parametrize("method", [
        "bonferroni",
        "margin_inversion",
        "two_sided_frontier",
        "one_sided_lower",
        "one_sided_upper",
        "brute_force",
    ])
    def test_interval_well_formed(self, method):
        for cells in SMALL_TABLES:
            nobs = ObservedTable(*cells)
            res = compute_ci(method, nobs, ALPHA)
            lo, hi = res.ci_ntau
            a_lo, a_hi = attainable_ntau_range(nobs)
            assert a_lo <= lo <= hi <= a_hi, (method, cells)
            assert res.alpha == ALPHA

    @pytest.mark.parametrize("method", [
        "bonferroni",
        "margin_inversion",
        "two_sided_frontier",
        "one_sided_lower",
        "brute_force",
    ])
    def test_nesting_in_alpha(self, method):
        for cells in SMALL_TABLES:
            nobs = ObservedTable(*cells)
            prev = None
            for alpha in (Fraction(1, 100), Fraction(1, 20), Fraction(1, 10)):
                lo, hi = compute_ci(method, nobs, alpha).ci_ntau
                if prev is not None:  # larger alpha: subset interval
                    assert prev[0] <= lo and hi <= prev[1], (method, cells, alpha)
                prev = (lo, hi)

    def test_invalid_alpha(self):
        with pytest.raises(InvalidLevel):
            ci_brute_force(ObservedTable(1, 1, 1, 1), Fraction(1))

    def test_float_alpha_is_its_decimal_literal(self):
        # 0.1 is read as 1/10, as the CLI reads "0.1"; its binary value is
        # slightly above 1/10 and would reject a p-value of exactly 1/10
        nobs = ObservedTable(0, 2, 0, 3)
        for construction in (ci_two_sided_frontier, ci_margin_inversion):
            res = construction(nobs, 0.1)
            assert res.alpha == Fraction(1, 10)
            assert res.ci_ntau == construction(nobs, Fraction(1, 10)).ci_ntau == (-2, 3)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            compute_ci("mystery", ObservedTable(1, 1, 1, 1), ALPHA)


@pytest.fixture
def cold_scans():
    """An empty scan-summary cache before the test and after it."""
    methods._scan_summary.cache_clear()
    yield
    methods._scan_summary.cache_clear()


class TestScanReuse:
    """Frontier scans are shared through the cache; results never depend on it."""

    def test_self_mirror_scans_once(self, cold_scans):
        # (20,20,20,20) reported 5,002 tests for 2,501 distinct ones before the
        # second side reused the first; (3,3,2,2) mirrors itself after the
        # treatment-label switch
        for cells, ci, tests in (
            ((20, 20, 20, 20), (-16, 16), 2501),
            ((4, 4, 4, 4), (-6, 6), 117),
            ((3, 3, 2, 2), (-5, 5), 51),
        ):
            nobs = ObservedTable(*cells)
            res = ci_two_sided_frontier(nobs, ALPHA)
            work = nobs.switch_z() if nobs.m > nobs.n - nobs.m else nobs
            assert work.switch_y() == work
            assert (res.ci_ntau, res.tests) == (ci, tests), cells
            assert res.tests == frontier_scan(work, ALPHA, "two_sided").tests

    def test_cold_and_warm_results_identical(self, cold_scans):
        tables = [ObservedTable(*cells) for cells in (*SIX_TABLES, (5, 4, 1, 2), (4, 4, 4, 4))]
        constructions = (
            lambda nobs: ci_two_sided_frontier(nobs, ALPHA),
            lambda nobs: ci_one_sided(nobs, ALPHA, "lower"),
            lambda nobs: ci_one_sided(nobs, ALPHA, "upper"),
        )
        for nobs in tables:
            for construct in constructions:
                methods._scan_summary.cache_clear()
                cold = construct(nobs)
                warm = construct(nobs)
                assert warm == cold and repr(warm) == repr(cold), nobs

    def test_matches_direct_scans_n10(self, cold_scans):
        # every observed table with n <= 10: intervals are the scans' extremes
        # and test counts are the scans' own, one scan for a self-mirror
        for n in range(2, 11):
            for nobs in observed_tables(n):
                for alpha in (Fraction(1, 10), ALPHA):
                    work = nobs.switch_z() if nobs.m > n - nobs.m else nobs
                    accepted = accepted_ntau_two_sided(nobs, alpha)
                    sides = {work, work.switch_y()}
                    tests = sum(frontier_scan(side, alpha, "two_sided").tests for side in sides)
                    res = ci_two_sided_frontier(nobs, alpha)
                    assert res.ci_ntau == (min(accepted), max(accepted)), (nobs, alpha)
                    assert res.tests == tests, (nobs, alpha)
                    for direction, scanned in (("lower", nobs), ("upper", nobs.switch_y())):
                        scan = frontier_scan(scanned, alpha, "one_sided")
                        lo = min(accepted_ntau(scan, scanned, "one_sided"))
                        hi = scanned.n11 + scanned.n00
                        want = (lo, hi) if direction == "lower" else (-hi, -lo)
                        res = ci_one_sided(nobs, alpha, direction)
                        assert (res.ci_ntau, res.tests) == (want, scan.tests), (nobs, alpha, direction)

    def test_mirror_and_conjugate_run_no_tests(self, cold_scans, monkeypatch):
        calls = count_calls(monkeypatch, "two_sided")
        for cells in ((6, 4, 4, 6), (5, 4, 1, 2)):
            nobs = ObservedTable(*cells)
            first = ci_two_sided_frontier(nobs, ALPHA)
            called = len(calls)
            work = nobs.switch_z() if nobs.m > nobs.n - nobs.m else nobs
            direct = [frontier_scan(side, ALPHA, "two_sided") for side in {work, work.switch_y()}]
            assert called == sum(scan.tests - scan.settled for scan in direct) > 0
            assert first.tests == sum(scan.tests for scan in direct)
            calls.clear()
            relatives = [nobs.switch_y()]
            if nobs.m > nobs.n - nobs.m:  # scanned through its conjugate
                relatives += [nobs.switch_z(), nobs.switch_z().switch_y()]
            for other in relatives:
                res = ci_two_sided_frontier(other, ALPHA)
                assert res.tests == first.tests, other
            assert calls == []

    def test_upper_reuses_mirror_lower(self, cold_scans, monkeypatch):
        calls = count_calls(monkeypatch, "one_sided")
        nobs = ObservedTable(8, 4, 5, 7)
        lower = ci_one_sided(nobs, ALPHA, "lower")
        called = len(calls)
        direct = frontier_scan(nobs, ALPHA, "one_sided")
        assert called == direct.tests - direct.settled > 0
        assert lower.tests == direct.tests
        calls.clear()
        upper = ci_one_sided(nobs.switch_y(), ALPHA, "upper")
        assert calls == []
        assert upper.tests == lower.tests
        assert upper.ci_ntau == (-lower.ci_ntau[1], -lower.ci_ntau[0])

    def test_guard_checked_before_cache(self, monkeypatch):
        nobs = ObservedTable(4, 4, 4, 4)
        ci_two_sided_frontier(nobs, ALPHA)
        ci_one_sided(nobs, ALPHA)
        monkeypatch.setenv(SCALE_GUARD_ENV, "10")
        with pytest.raises(ScaleGuard):
            ci_two_sided_frontier(nobs, ALPHA)
        with pytest.raises(ScaleGuard):
            ci_one_sided(nobs, ALPHA)
        monkeypatch.setenv(SCALE_GUARD_ENV, "abc")
        with pytest.raises(ValueError):
            ci_two_sided_frontier(nobs, ALPHA)

    def test_cache_is_bounded(self):
        assert methods._scan_summary.cache_info().maxsize == methods._SCAN_CACHE_SIZE
