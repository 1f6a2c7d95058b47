"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Run with `pytest -v` (add `-s` to see the printed lines for passing criteria).
Criterion 4 checks the count-based methods' default (shrunk hypergeometric)
intervals against the published values; see README.md.
"""

import random
import time
from fractions import Fraction

from conftest import (
    SIX_TABLES,
    check_compatibility_agreement,
    check_contiguity,
    check_null_dist_vs_assignment_enumeration,
    check_one_sided_frontier_characterization,
    check_p1_move_monotonicity,
    check_p2_move_monotonicity,
    check_two_sided_frontier_characterization,
    check_unbiasedness,
    observed_tables,
)
from test_hypergeom import exhaustive_coverage_ok

from exactci import (
    ObservedTable,
    ci_bonferroni,
    ci_brute_force,
    ci_margin_inversion,
    ci_one_sided,
    ci_two_sided_frontier,
    enumerate_compatible,
    exact_coverage_sweep,
    frontier_scan,
    p_two_sided,
)

ALPHA = Fraction(1, 20)

BRUTE_EXPECTED = {
    (1, 1, 1, 13): ((-1, 14), 112),
    (2, 6, 8, 0): ((-14, -5), 189),
    (6, 0, 11, 3): ((-4, 8), 336),
    (6, 4, 4, 6): ((-4, 10), 1225),
    (1, 1, 3, 19): ((-3, 20), 320),
    (8, 4, 5, 7): ((-3, 13), 2160),
}

FRONTIER_TEST_TARGETS = {
    (1, 1, 1, 13): 103,
    (2, 6, 8, 0): 113,
    (6, 0, 11, 3): 283,
    (6, 4, 4, 6): 308,
    (1, 1, 3, 19): 251,
    (8, 4, 5, 7): 421,
}

ONE_SIDED_EXPECTED = {
    (1, 1, 1, 13): (-1, 14),
    (2, 6, 8, 0): (-14, 2),
    (6, 0, 11, 3): (-3, 9),
    (6, 4, 4, 6): (-3, 12),
    (1, 1, 3, 19): (-3, 20),
    (8, 4, 5, 7): (-2, 15),
}

BONFERRONI_PUBLISHED = {
    (1, 1, 1, 13): (-2, 14),
    (2, 6, 8, 0): (-14, -3),
    (6, 0, 11, 3): (-5, 8),
    (6, 4, 4, 6): (-6, 12),
    (1, 1, 3, 19): (-4, 20),
    (8, 4, 5, 7): (-4, 14),
}

MARGIN_PUBLISHED = {
    (1, 1, 1, 13): (-1, 14),
    (2, 6, 8, 0): (-14, -2),
    (6, 0, 11, 3): (-11, 7),
    (6, 4, 4, 6): (-6, 11),
    (1, 1, 3, 19): (-3, 20),
    (8, 4, 5, 7): (-6, 14),
}


def _report(num: int, desc: str, check) -> None:
    try:
        check()
    except AssertionError:
        print(f"ACCEPTANCE {num} ({desc}): FAIL")
        raise
    print(f"ACCEPTANCE {num} ({desc}): PASS")


def test_criterion_1_brute_force_reference_intervals():
    def check():
        start = time.perf_counter()
        for cells, (ci, tests) in BRUTE_EXPECTED.items():
            res = ci_brute_force(ObservedTable(*cells), ALPHA)
            assert res.ci_ntau == ci, f"{cells}: got {res.ci_ntau}, want {ci}"
            assert res.tests == tests, f"{cells}: got {res.tests} tests, want {tests}"
        elapsed = time.perf_counter() - start
        assert elapsed < 300.0, f"took {elapsed:.1f}s"

    _report(1, "brute-force inversion reproduces reference intervals and counts", check)


def test_criterion_2_frontier_matches_brute_force_with_reference_counts():
    def check():
        for cells in SIX_TABLES:
            nobs = ObservedTable(*cells)
            res = ci_two_sided_frontier(nobs, ALPHA)
            assert res.ci_ntau == BRUTE_EXPECTED[cells][0], cells
            target = FRONTIER_TEST_TARGETS[cells]
            assert abs(res.tests - target) * 10 <= target, (
                f"{cells}: {res.tests} tests vs target {target} (±10%)"
            )
            assert res.tests == target, (
                f"{cells}: {res.tests} tests, exact target {target}"
            )

    _report(2, "frontier inversion matches brute force with reference test counts", check)


def test_criterion_3_one_sided_reference_intervals():
    def check():
        for cells, ci in ONE_SIDED_EXPECTED.items():
            res = ci_one_sided(ObservedTable(*cells), ALPHA, "lower")
            assert res.ci_ntau == ci, f"{cells}: got {res.ci_ntau}, want {ci}"

    _report(3, "one-sided lower intervals reproduce reference values", check)


def test_criterion_4_count_interval_methods_near_published_values():
    def check():
        deviations = []
        for cells in SIX_TABLES:
            nobs = ObservedTable(*cells)
            for fn, published in (
                (ci_bonferroni, BONFERRONI_PUBLISHED),
                (ci_margin_inversion, MARGIN_PUBLISHED),
            ):
                got = fn(nobs, ALPHA).ci_ntau
                want = published[cells]
                for side in (0, 1):
                    if abs(got[side] - want[side]) > 1:
                        deviations.append((fn.__name__, cells, got, want))
                        break
        assert not deviations, (
            "default count-interval endpoints off by more than 1: "
            + "; ".join(
                f"{name} {cells}: got {got}, published {want}"
                for name, cells, got, want in deviations
            )
            + " (the shrunk intervals reproduce them exactly; see README)"
        )

    _report(4, "count-interval methods within ±1 of published endpoints", check)


def test_criterion_5_frontier_equals_brute_force_exhaustively():
    alphas = (Fraction(1, 10), Fraction(1, 20), Fraction(1, 100))

    def check():
        inequalities = []
        for n in range(2, 13):
            for nobs in observed_tables(n):
                pvals = [(N.ntau, p_two_sided(N, nobs)) for N in enumerate_compatible(nobs)]
                for alpha in alphas:
                    accepted = [ntau for ntau, p in pvals if p >= alpha]
                    brute = (min(accepted), max(accepted))
                    frontier = ci_two_sided_frontier(nobs, alpha).ci_ntau
                    assert frontier[0] <= brute[0] and brute[1] <= frontier[1], (
                        f"containment violated: {nobs.as_tuple()}, alpha={alpha}"
                    )
                    if frontier != brute:
                        inequalities.append((nobs.as_tuple(), alpha, frontier, brute))
        # strict inequality would be reported, not failed; none is expected
        for case in inequalities:
            print(f"note: frontier wider than brute force at {case}")
        print(f"equality sweep: {len(inequalities)} strict containments at n <= 12")

    _report(5, "frontier equals brute force for every table with n <= 12", check)


def test_criterion_6_exact_coverage_n12():
    level = Fraction(19, 20)
    methods = {
        "bonferroni": lambda nobs: ci_bonferroni(nobs, ALPHA).ci_ntau,
        "margin_inversion": lambda nobs: ci_margin_inversion(nobs, ALPHA).ci_ntau,
        "two_sided_frontier": lambda nobs: ci_two_sided_frontier(nobs, ALPHA).ci_ntau,
        "brute_force": lambda nobs: ci_brute_force(nobs, ALPHA).ci_ntau,
    }

    def check():
        start = time.perf_counter()
        for m in (4, 6):
            for name, ci_fn in methods.items():
                report = exact_coverage_sweep(12, m, ALPHA, ci_fn)
                assert report.min_coverage >= level, (
                    f"{name}, m={m}: min coverage {report.min_coverage}"
                )
        elapsed = time.perf_counter() - start
        assert elapsed < 1800.0, f"took {elapsed:.1f}s"

    _report(6, "exact coverage >= 0.95 for every true table at n=12", check)


def test_criterion_7_property_sweeps():
    alphas = (Fraction(1, 10), Fraction(1, 20))

    def check():
        for n in range(2, 11):
            check_compatibility_agreement(n)
            check_p1_move_monotonicity(n)
            check_p2_move_monotonicity(n, balanced=False)
            if n % 2 == 0:
                check_p2_move_monotonicity(n, balanced=True)
                check_two_sided_frontier_characterization(n, alphas)
            check_one_sided_frontier_characterization(n, alphas)
            check_contiguity(n, alphas)
            check_unbiasedness(n)
            check_null_dist_vs_assignment_enumeration(n)

    _report(7, "structural property sweeps hold exhaustively for n <= 10", check)


def test_criterion_8_test_count_bounds():
    def check():
        rng = random.Random(20260824)
        for n in (20, 30, 40, 50, 60):
            for _ in range(2):
                cuts = sorted(rng.sample(range(1, n), 3))
                cells = (cuts[0], cuts[1] - cuts[0], cuts[2] - cuts[1], n - cuts[2])
                nobs = ObservedTable(*cells)
                bound = (2 * n + 1) * (n + 1)
                work = nobs.switch_z() if nobs.m > n - nobs.m else nobs
                for side in (work, work.switch_y()):
                    scan = frontier_scan(side, ALPHA, "two_sided")
                    assert scan.tests <= bound, (cells, "two_sided", scan.tests)
                scan = frontier_scan(nobs, ALPHA, "one_sided")
                assert scan.tests <= bound, (cells, "one_sided", scan.tests)

    _report(8, "frontier scans stay within (2n+1)(n+1) tests per side up to n=60", check)


def test_criterion_9_hypergeometric_interval_coverage():
    alphas = (Fraction(1, 10), Fraction(1, 20), Fraction(1, 100))

    def check():
        for total in range(1, 41):
            for sample in range(total + 1):
                for alpha in alphas:
                    assert exhaustive_coverage_ok(total, sample, alpha, refine=False), (
                        total, sample, alpha
                    )

    _report(9, "count-interval coverage >= 1-alpha exhaustively for T <= 40", check)
