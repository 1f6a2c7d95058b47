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
    shifted,
)
from exactci import ObservedTable, PotentialTable, frontier_scan, p_one_sided, p_two_sided, randtest

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


def test_00_to_10_move_can_lower_p2_not_p1():
    # m = 1 < n/2, both tables below the estimate: the 00->10 move, a cell's
    # walk up N10, lowers the two-sided p, so an accept that needs the lower
    # tail cannot seed a scan's accept rule; the one-sided p, the weight of
    # the upper tail alone, does not fall, so an upper-tail accept can
    nobs = ObservedTable(1, 0, 0, 2)
    N, moved = PotentialTable(1, 1, 0, 1), PotentialTable(1, 2, 0, 0)
    assert shifted(N, (0, 1, 0, -1)) == moved
    assert N.tau < moved.tau <= nobs.tau_hat
    assert (p_two_sided(N, nobs), p_two_sided(moved, nobs)) == (Fraction(2, 3), Fraction(1, 3))
    assert (p_one_sided(N, nobs), p_one_sided(moved, nobs)) == (Fraction(1, 3), Fraction(1, 3))
    # at alpha = 1/2, N is accepted only with its lower tail, so it is no seed
    accepts = randtest.acceptor(nobs, Fraction(1, 2))
    assert (accepts(*N.as_tuple()), accepts(*moved.as_tuple())) == (randtest.ACCEPT, randtest.REJECT)


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
