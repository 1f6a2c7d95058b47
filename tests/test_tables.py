"""Table algebra: effects, estimates, compatibility, enumeration, symmetries."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from exactci import (
    DegenerateArm,
    ObservedTable,
    PotentialTable,
    SizeMismatch,
    attainable_ntau_range,
    ci_brute_force,
    enumerate_compatible,
    is_compatible,
)
from exactci.tables import compatible_n10

from conftest import CONTROL_SIDE_MOVES, MOVES, observed_tables, shifted
from oracle import brute_compatibility, cell_decompositions

cell = st.integers(min_value=0, max_value=8)


def observed_strategy():
    return (
        st.tuples(cell, cell, cell, cell)
        .filter(lambda t: 0 < t[0] + t[1] and 0 < t[2] + t[3])
        .map(lambda t: ObservedTable(*t))
    )


def potential_strategy():
    return st.tuples(cell, cell, cell, cell).filter(lambda t: sum(t) > 0).map(
        lambda t: PotentialTable(*t)
    )


class TestPotentialTable:
    def test_tau_no_effect(self):
        assert PotentialTable(0, 0, 0, 5).tau == 0
        assert PotentialTable(5, 0, 0, 0).tau == 0

    def test_tau_constant_effect(self):
        assert PotentialTable(0, 6, 0, 0).tau == 1
        assert PotentialTable(0, 0, 6, 0).tau == -1

    def test_tau_mixed(self):
        N = PotentialTable(1, 3, 5, 7)
        assert N.ntau == -2
        assert N.tau == Fraction(-2, 16) == Fraction(-1, 8)

    def test_margins(self):
        N = PotentialTable(1, 3, 5, 7)
        assert (N.n, N.n1plus, N.nplus1) == (16, 4, 6)

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            PotentialTable(1, -1, 0, 0)

    def test_shifted_applies_moves(self):
        N = PotentialTable(2, 2, 2, 2)
        for mv in MOVES:
            neighbor = shifted(N, mv.delta)
            assert neighbor is not None
            assert neighbor.n == N.n
            assert neighbor.ntau == N.ntau + 1

    def test_shifted_rejects_negative_cells(self):
        assert shifted(PotentialTable(0, 0, 0, 4), (-1, 1, 0, 0)) is None

    def test_control_side_moves_keep_treated_margin(self):
        N = PotentialTable(2, 2, 2, 2)
        for mv in CONTROL_SIDE_MOVES:
            neighbor = shifted(N, mv.delta)
            assert neighbor.nplus1 == N.nplus1 - 1
        assert len(CONTROL_SIDE_MOVES) == 2


class TestObservedTable:
    def test_estimate(self):
        t = ObservedTable(1, 1, 1, 13)
        assert (t.n, t.m) == (16, 2)
        assert t.tau_hat == Fraction(1, 2) - Fraction(1, 14) == Fraction(3, 7)

    def test_estimate_extremes(self):
        assert ObservedTable(3, 0, 0, 3).tau_hat == 1
        assert ObservedTable(0, 3, 3, 0).tau_hat == -1

    def test_degenerate_arms_rejected(self):
        with pytest.raises(DegenerateArm):
            ObservedTable(0, 0, 1, 1)
        with pytest.raises(DegenerateArm):
            ObservedTable(1, 1, 0, 0)

    @given(observed_strategy())
    def test_scaled_estimate_is_integer(self, t):
        scaled = t.tau_hat * t.m * (t.n - t.m)
        assert scaled.denominator == 1


class TestSwitches:
    @given(observed_strategy())
    def test_observed_switches(self, t):
        assert t.switch_y().tau_hat == -t.tau_hat
        assert t.switch_z().tau_hat == -t.tau_hat
        assert t.switch_z().m == t.n - t.m
        assert t.switch_y().switch_y() == t
        assert t.switch_z().switch_z() == t

    @given(potential_strategy())
    def test_potential_switches(self, N):
        assert N.switch_y().tau == -N.tau
        assert N.switch_z().tau == -N.tau
        assert N.switch_y().switch_y() == N
        assert N.switch_z().switch_z() == N

    @given(potential_strategy())
    def test_switches_commute(self, N):
        assert N.switch_y().switch_z() == N.switch_z().switch_y()


class TestCompatibility:
    def test_identity_table_compatible(self):
        nobs = ObservedTable(1, 0, 0, 1)
        assert is_compatible(PotentialTable(1, 0, 0, 1), nobs)

    def test_impossible_response_margin(self):
        nobs = ObservedTable(1, 0, 0, 1)
        assert not is_compatible(PotentialTable(0, 0, 0, 2), nobs)

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            is_compatible(PotentialTable(1, 1, 1, 1), ObservedTable(1, 0, 0, 1))

    def test_symmetric_under_outcome_switch(self):
        nobs = ObservedTable(2, 1, 1, 2)
        for N in enumerate_compatible(nobs):
            assert is_compatible(N.switch_y(), nobs.switch_y())

    def test_compatible_n10_is_the_compatible_interval(self):
        # every observed table with n <= 15, every (N11, N01), every N10
        for n in range(2, 16):
            for nobs in observed_tables(n):
                for N11 in range(n + 1):
                    for N01 in range(n - N11 + 1):
                        expect = [
                            N10
                            for N10 in range(n - N11 - N01 + 1)
                            if brute_compatibility(PotentialTable(N11, N10, N01, n - N11 - N10 - N01), nobs)
                        ]
                        assert list(compatible_n10(nobs, N11, N01)) == expect, (nobs, N11, N01)


class TestEnumeration:
    def test_small_listing(self):
        got = enumerate_compatible(ObservedTable(1, 0, 0, 1))
        assert got == [
            PotentialTable(0, 1, 0, 1),
            PotentialTable(0, 2, 0, 0),
            PotentialTable(1, 0, 0, 1),
            PotentialTable(1, 1, 0, 0),
        ]

    def test_distinct_counts_regression(self):
        # distinct compatible sets; see the decomposition tests for the
        # (n11+1)(n10+1)(n01+1)(n00+1) candidate counts
        expected = {
            (1, 1, 1, 13): 99,
            (2, 6, 8, 0): 189,
            (6, 0, 11, 3): 336,
            (6, 4, 4, 6): 649,
            (1, 1, 3, 19): 263,
            (8, 4, 5, 7): 1040,
        }
        for cells, count in expected.items():
            assert len(enumerate_compatible(ObservedTable(*cells))) == count

    def test_lexicographic_and_deduplicated(self):
        got = enumerate_compatible(ObservedTable(2, 1, 1, 2))
        keys = [(N.N11, N.N10, N.N01) for N in got]
        assert keys == sorted(keys)
        assert len(set(got)) == len(got)

    def test_effects_stay_in_attainable_range(self):
        for cells in [(1, 1, 1, 13), (2, 3, 1, 2), (3, 0, 0, 3)]:
            nobs = ObservedTable(*cells)
            lo, hi = attainable_ntau_range(nobs)
            for N in enumerate_compatible(nobs):
                assert lo <= N.ntau <= hi

    def test_every_attainable_effect_is_attained(self):
        for n in range(2, 9):
            for nobs in observed_tables(n):
                lo, hi = attainable_ntau_range(nobs)
                got = {N.ntau for N in enumerate_compatible(nobs)}
                assert got == set(range(lo, hi + 1)), nobs


class TestCellDecompositions:
    def test_candidate_count(self):
        for cells in [(1, 1, 1, 13), (2, 6, 8, 0), (6, 0, 11, 3)]:
            nobs = ObservedTable(*cells)
            expected = 1
            for c in cells:
                expected *= c + 1
            assert len(cell_decompositions(nobs)) == expected
            assert ci_brute_force(nobs, Fraction(1, 20)).tests == expected

    def test_decompositions_cover_exactly_the_compatible_set(self):
        for n in range(2, 9):
            for nobs in observed_tables(n):
                decomp = set(cell_decompositions(nobs))
                assert decomp == set(enumerate_compatible(nobs)), nobs


class TestAttainableRange:
    def test_examples(self):
        assert attainable_ntau_range(ObservedTable(1, 1, 1, 13)) == (-2, 14)
        assert attainable_ntau_range(ObservedTable(2, 6, 8, 0)) == (-14, 2)
        assert attainable_ntau_range(ObservedTable(2, 0, 0, 2)) == (0, 4)
