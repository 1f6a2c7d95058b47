"""Exact count-parameter intervals, checked against reference probabilities.

`HyperGeomSpec`, `pmf`, `tail_ge` and `tail_le` are exact reference
hypergeometric probabilities; the package itself only compares tail sums on
cleared denominators. The equal-tail interval, the shrink's starting point,
is read from the package's lower ends, `hypergeom._lower_ends`, with the
upper ends mirrored as the package mirrors them (`equal_tail_tables`), and
both tables are compared with the two-array reference in `oracle`.
"""

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb

import pytest

from exactci import InvalidLevel, ObservedTable, ci_count, randtest
from exactci.hypergeom import _check_alpha, _lower_ends, _refined_endpoints, _weights

from oracle import reference_equal_tail_tables, reference_refined_endpoints

ALPHAS = (Fraction(1, 10), Fraction(1, 20), Fraction(1, 100))
# levels the count-based methods ask for: alpha itself (margin inversion)
# and alpha/2 for each margin (Bonferroni)
METHOD_ALPHAS = tuple(sorted(set(ALPHAS) | {alpha / 2 for alpha in ALPHAS}))


@dataclass(frozen=True)
class HyperGeomSpec:
    """Parameters (marked, total, sample) of a hypergeometric draw."""

    marked: int
    total: int
    sample: int

    def __post_init__(self) -> None:
        if not 0 <= self.marked <= self.total:
            raise ValueError(f"need 0 <= marked <= total, got {self}")
        if not 0 <= self.sample <= self.total:
            raise ValueError(f"need 0 <= sample <= total, got {self}")

    @property
    def support(self) -> tuple[int, int]:
        lo = max(0, self.sample - (self.total - self.marked))
        hi = min(self.sample, self.marked)
        return (lo, hi)


def _weight(marked: int, total: int, sample: int, x: int) -> int:
    """Unnormalized pmf numerator C(marked, x) * C(total-marked, sample-x)."""
    return comb(marked, x) * comb(total - marked, sample - x)


def pmf(spec: HyperGeomSpec, x: int) -> Fraction:
    """P(X = x), exact; zero off the support."""
    lo, hi = spec.support
    if x < lo or x > hi:
        return Fraction(0)
    return Fraction(
        _weight(spec.marked, spec.total, spec.sample, x),
        comb(spec.total, spec.sample),
    )


def tail_ge(spec: HyperGeomSpec, x: int) -> Fraction:
    """P(X >= x), exact; nondecreasing in the marked count."""
    lo, hi = spec.support
    if x <= lo:
        return Fraction(1)
    if x > hi:
        return Fraction(0)
    num = sum(_weight(spec.marked, spec.total, spec.sample, j) for j in range(x, hi + 1))
    return Fraction(num, comb(spec.total, spec.sample))


def tail_le(spec: HyperGeomSpec, x: int) -> Fraction:
    """P(X <= x), exact; nonincreasing in the marked count."""
    lo, hi = spec.support
    if x >= hi:
        return Fraction(1)
    if x < lo:
        return Fraction(0)
    num = sum(_weight(spec.marked, spec.total, spec.sample, j) for j in range(lo, x + 1))
    return Fraction(num, comb(spec.total, spec.sample))


def equal_tail_tables(total: int, sample: int, alpha: Fraction) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Endpoint arrays (lo[x], hi[x]) of the equal-tail inversion for all x.

    lo is the package's `_lower_ends`; hi mirrors it as `ci_count` mirrors
    the shrunk lower ends: P_marked(X <= x) = P_{total-marked}(X >= sample - x).
    """
    lo = _lower_ends(_weights(total, sample), alpha)
    return tuple(lo), tuple(total - a for a in reversed(lo))


def equal_tail(total: int, sample: int, x: int, alpha: Fraction) -> tuple[int, int]:
    """The equal-tail interval: every marked count with both tails above alpha/2."""
    los, his = equal_tail_tables(total, sample, alpha)
    return los[x], his[x]


def direct_tail_ge(spec: HyperGeomSpec, x: int) -> Fraction:
    """Independent tail computation straight from the binomial formula."""
    total = Fraction(0)
    for j in range(x, spec.sample + 1):
        total += Fraction(
            comb(spec.marked, j) * comb(spec.total - spec.marked, spec.sample - j),
            comb(spec.total, spec.sample),
        )
    return total


class TestPmf:
    def test_point_values(self):
        assert pmf(HyperGeomSpec(5, 10, 5), 2) == Fraction(
            comb(5, 2) * comb(5, 3), comb(10, 5)
        ) == Fraction(100, 252)
        assert pmf(HyperGeomSpec(0, 10, 5), 0) == 1
        assert pmf(HyperGeomSpec(10, 10, 5), 5) == 1

    def test_zero_off_support(self):
        spec = HyperGeomSpec(3, 10, 5)
        assert pmf(spec, 4) == 0
        assert pmf(spec, -1) == 0

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            HyperGeomSpec(11, 10, 5)
        with pytest.raises(ValueError):
            HyperGeomSpec(5, 10, 11)

    def test_sums_to_one_small(self):
        for total in range(1, 26):
            for sample in range(total + 1):
                for marked in range(total + 1):
                    spec = HyperGeomSpec(marked, total, sample)
                    lo, hi = spec.support
                    assert sum(pmf(spec, x) for x in range(lo, hi + 1)) == 1


class TestTails:
    def test_complement_identity(self):
        spec = HyperGeomSpec(7, 20, 9)
        for x in range(10):
            assert tail_ge(spec, x) + tail_le(spec, x - 1) == 1

    def test_matches_direct_sum(self):
        for marked in range(0, 13, 3):
            spec = HyperGeomSpec(marked, 12, 7)
            for x in range(8):
                assert tail_ge(spec, x) == direct_tail_ge(spec, x)

    def test_monotone_in_marked_count(self):
        total, sample = 18, 7
        for x in range(sample + 1):
            values = [
                tail_ge(HyperGeomSpec(marked, total, sample), x)
                for marked in range(total + 1)
            ]
            assert values == sorted(values)


class TestCiCount:
    def test_extreme_observations(self):
        for total, sample in [(10, 4), (16, 2), (25, 12)]:
            for alpha in ALPHAS:
                lo, _ = equal_tail(total, sample, 0, alpha)
                _, hi = equal_tail(total, sample, sample, alpha)
                assert lo == 0
                assert hi == total

    def test_matches_definitional_scan(self):
        # independent reimplementation: keep A iff both exact tails at x
        # exceed alpha/2; the upper end is derived from the lower ones, so
        # both ends are checked on every small key and on a few larger ones
        keys = [(total, sample) for total in range(1, 11) for sample in range(total + 1)]
        for (total, sample), alpha in product([*keys, (16, 6), (25, 9), (30, 30)], METHOD_ALPHAS):
            for x in range(sample + 1):
                kept = [
                    marked
                    for marked in range(total + 1)
                    if tail_ge(HyperGeomSpec(marked, total, sample), x) > alpha / 2
                    and tail_le(HyperGeomSpec(marked, total, sample), x) > alpha / 2
                ]
                assert equal_tail(total, sample, x, alpha) == (min(kept), max(kept)), (total, sample, x, alpha)

    def test_monotone_in_observation(self):
        for total, sample in [(14, 5), (20, 20), (30, 11)]:
            for alpha in ALPHAS:
                endpoints = [equal_tail(total, sample, x, alpha) for x in range(sample + 1)]
                los = [e[0] for e in endpoints]
                his = [e[1] for e in endpoints]
                assert los == sorted(los)
                assert his == sorted(his)

    def test_nesting_in_alpha(self):
        for total, sample, x in [(14, 5, 2), (20, 9, 9), (33, 12, 0)]:
            prev = None
            for alpha in sorted(ALPHAS):  # smallest alpha first: widest interval
                lo, hi = equal_tail(total, sample, x, alpha)
                if prev is not None:  # smaller alpha gave a superset interval
                    assert prev[0] <= lo and hi <= prev[1]
                prev = (lo, hi)

    def test_tables_match_the_two_array_reference(self):
        # the reference keeps both endpoint arrays, each with its own scan
        # and update; the package keeps the lower ends, and `ci_count`
        # mirrors them into the upper ends
        for total in range(1, 41):
            for sample in range(total + 1):
                for alpha in METHOD_ALPHAS:
                    key = (total, sample, alpha)
                    assert equal_tail_tables(*key) == reference_equal_tail_tables(*key), key
                    ref_lo, ref_hi = reference_refined_endpoints(*key)
                    assert _refined_endpoints(*key) == ref_lo, key
                    his = tuple(ci_count(total, sample, x, alpha)[1] for x in range(sample + 1))
                    assert his == ref_hi, key

    def test_returns_the_shrunk_interval(self):
        # the shrink lowers the upper end here; the equal-tail interval is wider
        assert equal_tail(24, 12, 5, Fraction(1, 20)) == (6, 15)
        assert ci_count(24, 12, 5, Fraction(1, 20)) == (6, 14)

    def test_invalid_inputs(self):
        with pytest.raises(InvalidLevel):
            ci_count(10, 5, 2, Fraction(0))
        with pytest.raises(ValueError):
            ci_count(10, 5, 6, Fraction(1, 20))

    def test_counts_must_be_ints(self):
        # a float or bool count is refused even when its int twin is cached
        assert ci_count(10, 5, 3, Fraction(1, 20)) == (3, 8)
        for args in ((10.0, 5, 3), (10, 5.0, 3), (10, 5, 3.0), (10, 5, True), (10, True, 1)):
            with pytest.raises(ValueError, match="need ints"):
                ci_count(*args, Fraction(1, 20))



class TestCheckAlpha:
    def test_valid_fraction_is_returned_as_is(self):
        for alpha in (Fraction(1, 20), Fraction(1, 3), Fraction(999, 1000)):
            assert _check_alpha(alpha) is alpha

    def test_out_of_range_fractions(self):
        for alpha, shown in ((Fraction(0), "0"), (Fraction(1), "1"), (Fraction(-1, 2), "-1/2"), (Fraction(3, 2), "3/2")):
            with pytest.raises(InvalidLevel, match=rf"^alpha must be in \(0, 1\), got {shown}$"):
                _check_alpha(alpha)

    def test_float_int_and_str_levels(self):
        assert _check_alpha(0.1) == Fraction(1, 10)
        assert _check_alpha("1/20") == _check_alpha("0.05") == Fraction(1, 20)
        for alpha, shown in ((1.5, "3/2"), (0, "0"), (1, "1"), ("-0.5", "-1/2")):
            with pytest.raises(InvalidLevel, match=rf"^alpha must be in \(0, 1\), got {shown}$"):
                _check_alpha(alpha)

    def test_strings_are_written_as_counts_are(self):
        # Fraction reads each of these as 1/20; a count may hold none of
        # '_', a sign or other scripts' digits, and a level may not either
        for text in ("1/2_0", "+0.05", "\u0660.05", "\uff11/20"):
            assert Fraction(text) == Fraction(1, 20)
            with pytest.raises(InvalidLevel, match=rf"^alpha must be a decimal or a fraction in \(0, 1\), got {re.escape(repr(text))}$"):
                _check_alpha(text)
        for text in ("0.05", " 0.05 ", "1/20", " 1/20\n", "0.1"):
            assert _check_alpha(text) == Fraction(1, 10 if text == "0.1" else 20), text
        assert _check_alpha(1e-05) == _check_alpha("1e-05") == Fraction(1, 100_000)

    def test_unreadable_strings_name_alpha(self):
        # Fraction's own ZeroDivisionError and ValueError do not reach the caller
        nobs = ObservedTable(2, 1, 1, 2)
        for text in ("1/0", "abc", ""):
            message = rf"^alpha must be a decimal or a fraction in \(0, 1\), got '{text}'$"
            with pytest.raises(InvalidLevel, match=message):
                ci_count(10, 5, 2, text)
            for statistic in ("one_sided", "two_sided"):
                with pytest.raises(InvalidLevel, match=message):
                    randtest.acceptor(nobs, text, statistic)


def exhaustive_coverage_ok(total: int, sample: int, alpha: Fraction, refine: bool) -> bool:
    """Coverage >= 1 - alpha for every marked count, on cleared denominators.

    refine=False checks the equal-tail intervals, refine=True `ci_count`.
    """
    interval = ci_count if refine else equal_tail
    endpoints = [interval(total, sample, x, alpha) for x in range(sample + 1)]
    cn = comb(total, sample)
    p, q = alpha.numerator, alpha.denominator
    for marked in range(total + 1):
        lo = max(0, sample - (total - marked))
        hi = min(sample, marked)
        covered = sum(
            comb(marked, x) * comb(total - marked, sample - x)
            for x in range(lo, hi + 1)
            if endpoints[x][0] <= marked <= endpoints[x][1]
        )
        if covered * q < (q - p) * cn:
            return False
    return True


class TestCoverage:
    def test_equal_tail_small(self):
        for total in range(1, 26):
            for sample in range(total + 1):
                for alpha in ALPHAS:
                    assert exhaustive_coverage_ok(total, sample, alpha, refine=False)

    def test_refined_preserves_coverage(self):
        for total in range(1, 41):
            for sample in range(total + 1):
                for alpha in METHOD_ALPHAS:
                    assert exhaustive_coverage_ok(total, sample, alpha, refine=True), (total, sample, alpha)

    def test_refined_nesting_in_alpha(self):
        for total in range(1, 31):
            for sample in range(total + 1):
                for x in range(sample + 1):
                    prev = None
                    for alpha in METHOD_ALPHAS:  # smallest alpha first: widest interval
                        lo, hi = ci_count(total, sample, x, alpha)
                        if prev is not None:
                            assert prev[0] <= lo and hi <= prev[1], (total, sample, x, alpha)
                        prev = (lo, hi)

    def test_refined_is_no_wider(self):
        for total, sample in [(16, 2), (20, 12), (23, 23)]:
            for alpha in ALPHAS:
                for x in range(sample + 1):
                    lo, hi = equal_tail(total, sample, x, alpha)
                    rlo, rhi = ci_count(total, sample, x, alpha)
                    assert lo <= rlo <= rhi <= hi

    def test_refined_is_outcome_switch_symmetric(self):
        # swapping the outcome labels maps x to sample - x and the marked
        # count to total - marked: lo[x] = total - hi[sample - x]
        for total in range(1, 41):
            for sample in range(total + 1):
                for alpha in METHOD_ALPHAS:
                    ends = [ci_count(total, sample, x, alpha) for x in range(sample + 1)]
                    for x in range(sample + 1):
                        assert ends[x][0] == total - ends[sample - x][1], (total, sample, alpha, x)
