"""Structural invariants of the inversion machinery, swept exhaustively.

These parametrize the conftest sweep functions at routine sizes; the
acceptance suite re-runs them at the full sizes.
"""

from fractions import Fraction

import pytest

from conftest import (
    check_compatibility_agreement,
    check_contiguity,
    check_null_dist_vs_assignment_enumeration,
    check_one_sided_frontier_characterization,
    check_p1_move_monotonicity,
    check_p2_move_monotonicity,
    check_two_sided_frontier_characterization,
    check_unbiasedness,
)
from exactci import ObservedTable, frontier_scan

ALPHAS = (Fraction(1, 10), Fraction(1, 20))


@pytest.mark.parametrize("n", range(2, 8))
def test_compatibility_agreement(n):
    check_compatibility_agreement(n)


@pytest.mark.parametrize("n", range(2, 8))
def test_p1_monotone_under_moves(n):
    check_p1_move_monotonicity(n)


@pytest.mark.parametrize("n", range(2, 8))
def test_p2_monotone_under_control_side_moves_unbalanced(n):
    check_p2_move_monotonicity(n, balanced=False)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_p2_monotone_under_all_moves_balanced(n):
    check_p2_move_monotonicity(n, balanced=True)


@pytest.mark.parametrize("n", range(2, 7))
def test_one_sided_acceptance_iff_frontier(n):
    check_one_sided_frontier_characterization(n, ALPHAS)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_two_sided_acceptance_iff_frontier_balanced(n):
    check_two_sided_frontier_characterization(n, ALPHAS)


@pytest.mark.parametrize("n", range(2, 8))
def test_accepted_effect_sets_contiguous(n):
    check_contiguity(n, ALPHAS)


@pytest.mark.parametrize("n", range(2, 8))
def test_unbiasedness(n):
    check_unbiasedness(n)


@pytest.mark.parametrize("n", range(2, 8))
def test_null_dist_matches_assignment_enumeration(n):
    check_null_dist_vs_assignment_enumeration(n)


@pytest.mark.parametrize("statistic", ["one_sided", "two_sided"])
def test_frontier_monotone_in_control_responders(statistic):
    # the minimum accepted N10 never decreases as N01 grows
    for cells in [(2, 1, 1, 2), (1, 2, 2, 3), (3, 1, 2, 4), (1, 1, 1, 5)]:
        nobs = ObservedTable(*cells)
        if statistic == "two_sided" and nobs.m > nobs.n - nobs.m:
            nobs = nobs.switch_z()
        for alpha in ALPHAS:
            for frontiers in frontier_scan(nobs, alpha, statistic).frontiers:
                assert frontiers == sorted(frontiers), (cells, alpha, statistic)
