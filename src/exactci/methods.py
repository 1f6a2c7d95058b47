"""Confidence interval constructions for the average causal effect.

Five constructions serve the six method ids (the one-sided one serves two),
all with guaranteed finite-sample coverage:

* ``ci_bonferroni``: intersect two marginal hypergeometric count intervals.
* ``ci_margin_inversion``: invert tests whose statistic depends on the
  potential table only through the control-response margin, so no
  randomization tests are needed.
* ``ci_two_sided_frontier``: invert two-sided randomization tests, using the
  monotone acceptance frontier to keep the number of tests O(n^2).
* ``ci_one_sided``: one-sided analogue of the frontier inversion.
* ``ci_brute_force``: test every compatible potential table directly; the
  O(n^4)-tests baseline and the reference the frontier method is checked
  against.

Every result carries the count of randomization tests its construction
needs for that table (one test = one accept/reject decision for one
candidate table; frontier fallback assignments count zero). Brute force
decides each distinct compatible table once but counts one test per
cell-wise decomposition of the observed table, as the classical baseline
does. A table that is its own outcome-label mirror needs one frontier scan
for both sides, so it counts one.
A test counts as one whether a tail sum decides it or a frontier scan's
previous row does (see `frontier_scan`), just as a cached scan summary
counts its scan's tests; so a count, like an interval, depends only on the
table, the level and the method, never on what ran before. The
previous row settles rejects and accepts in every scan, and carries only the
accepts whose upper tail alone, the one-sided tail below the estimate,
reaches the level.

A `frontier_scan` returns its rows of frontiers, one list per N11, and the
ends of its accepted n*tau. The frontier constructions read each scan
through a private cache of scan summaries (those ends, or none, and the
scan's test count; never the rows, about n^2/2 ints a scan), keyed by
(scanned table, alpha, statistic). It holds the newest `_SCAN_CACHE_SIZE`
(8,192) entries, about 4 MB when full. The upper side of X is the lower
side of X's outcome-label mirror, and a design with m > n - m is scanned
through its treatment-label conjugate, so these constructions share scans
within a coverage sweep and across the sweeps of conjugate designs (n, m)
and (n, n - m); the scans of the batch-shared benchmark workload do not
repeat. A cached scan still counts its tests in every result that reads it,
and the exact-size guard is checked on every call before the cache is read,
so neither the result nor a refusal depends on what is cached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Literal

from . import randtest
from .errors import EmptyAcceptance
from .hypergeom import _check_alpha, ci_count
from .randtest import _guard
from .tables import (
    ObservedTable,
    attainable_ntau_range,
    is_compatible,  # noqa: F401  (perfbench/tracing.py wraps this name)
    iter_compatible,
)

__all__ = [
    "MethodResult",
    "FrontierScan",
    "METHODS",
    "ci_bonferroni",
    "ci_margin_inversion",
    "ci_two_sided_frontier",
    "ci_one_sided",
    "ci_brute_force",
    "frontier_scan",
    "compute_ci",
]


@dataclass(frozen=True)
class MethodResult:
    """A confidence interval for the effect and the tests it took."""

    method: str
    table: ObservedTable
    alpha: Fraction
    ci_ntau: tuple[int, int]
    tests: int

    @property
    def ci_tau(self) -> tuple[Fraction, Fraction]:
        n = self.table.n
        return (Fraction(self.ci_ntau[0], n), Fraction(self.ci_ntau[1], n))


@dataclass
class FrontierScan:
    """Result of one lower-side frontier sweep.

    frontiers holds one list per N11 row, from N11 = 0 up: row[N01] is the
    cell's minimum accepted N10, or the fallback value when nothing in range
    is accepted. ends is the least and greatest n*tau over compatible tables
    on or above the frontier, or None if there are none; a two-sided scan
    also caps N10 at N01 + floor(n*tau_hat), so its ends bound only effects
    at most the observed estimate. tests counts every decision the walk
    makes; settled counts those of them that the previous N11 row decided
    (see `frontier_scan`: rejects from its frontiers, accepts from its
    seeds), which call no decision function.
    """

    frontiers: list[list[int]]
    ends: tuple[int, int] | None
    tests: int
    settled: int


def frontier_scan(
    nobs: ObservedTable,
    alpha: Fraction,
    statistic: Literal["one_sided", "two_sided"] = "two_sided",
) -> FrontierScan:
    """Lower-side acceptance sweep over (N11, N01) cells.

    For each N11, N01 increases from 0, and each cell walks its candidates
    N10 upward to the first accepted one, its frontier. Candidates beyond the
    observed estimate (two-sided; the greatest is top = N01 +
    floor(n*tau_hat)) or with a negative forced fourth cell are skipped
    without testing; if no candidate is accepted the frontier takes its
    fallback value (top + 1 for two-sided, n + 1 for one-sided). The
    compatible tables of a cell form one N10 interval [n11 - H0, n11 + n00
    - L0], empty when L0 > H0, with L0 = max(0, N11 - n01, N11 + N01 - n10
    - n01) and H0 = min(N11, n11, N11 + N01 - n01) (`compatible_n10` is the
    definition). The parts of L0 and H0 free of N01 are computed once per
    N11, so a cell costs a few integer comparisons, and its accepted n*tau
    are one range, whose ends update the scan's.

    The walk decides part of each cell from what is already known, by the
    stochastic order of the tests: a unit move that raises n*tau by one
    never lowers a one-sided p-value; nor a two-sided one while both tables
    have effect at most the estimate, if m <= n/2 and the move is 11->10 or
    01->00. The property tests check these orders over every table of
    small n. Each decision so made is exact and counts as one test, so the
    frontiers, the ends and the count are those of a walk that tests every
    candidate. The state the rules read is the
    previous row of frontiers, prev, and the previous row of seeds; hi is
    the cell's greatest candidate.
    - Carry: the walk starts at the previous cell's frontier. A smaller N10
      is rejected, since the 01->00 move takes (N11, N10, N01) to
      (N11, N10, N01 - 1), rejected in the previous cell. Once the carry
      exceeds avail = n - N11 - N01, this cell and every later one of the
      row fall back untested, since the carry only grows and avail only
      shrinks; they are filled in one step and have no compatible range.
    - Reject rule (every scan): with f = prev[N01], the frontier of cell
      (N11 - 1, N01), every candidate N10 <= min(f - 2, hi) is rejected, and
      the walk jumps past them. If f was accepted, the 11->10 move takes
      such an N10 to (N11 - 1, N10 + 1, N01), a candidate below f. If f is
      the fallback, that cell rejected all its candidates up to its
      greatest, hi_p, and the bound is min(hi_p - 1, hi): one-sided, hi_p is
      hi + 1 and f - 2 = n - 1 >= hi; two-sided, top does not depend on
      N11, so hi_p is hi + 1 <= top (and f - 2 = top - 1 >= hi) or hi = top
      (and f - 2 = top - 1 = hi_p - 1).
    - Accept rule (every scan): with f' the seed of cell (N11 - 1, N01 + 1),
      every candidate N10 >= f' of cell (N11, N01) is accepted, since the
      01->11 move takes (N11 - 1, f', N01 + 1) to (N11, f', N01) and 00->10
      moves take that to each larger N10. The walk stops at min(f', hi + 1).
      A seed is a frontier that the decision function accepted by its
      upper tail alone (`randtest.ACCEPT_UPPER`, every one-sided accept) or
      that this rule accepted; otherwise the seed is never = n + 1 (a
      fallback, an accept that needed the lower tail, and the row before
      N11 = 0), above hi + 1, so the clip alone makes it accept nothing.
      One argument serves every design. Below the estimate the upper tail
      {estimate >= tau + margin} is the one-sided tail {estimate >=
      observed}, so a seed has one-sided p >= alpha. An 01->11 or 00->10
      move raises one unit's treated outcome, so it lowers the estimate
      under no assignment, and the one-sided p never falls. Below the
      estimate the two-sided p is at least the one-sided one.
    The decisions of these two rules are counted in `FrontierScan.settled`;
    the rest are calls of the decision function. Which frontiers seed
    depends only on exact decisions.

    Two-sided scans require m <= n - m; the caller conjugates by a treatment
    label switch otherwise. The decision function is built by
    `randtest.acceptor` once per scan; the factory is looked up by module
    attribute, so a wrapper set on that name sees every call.
    """
    n, m = nobs.n, nobs.m
    two_sided = statistic == "two_sided"
    if two_sided and m > n - m:
        raise ValueError("two-sided frontier scan requires m <= n - m; switch treatment labels first")
    accepts = randtest.acceptor(nobs, alpha, statistic)
    upper_alone = randtest.ACCEPT_UPPER
    floor_nt = math.floor(nobs.tau_hat * n)  # exact: Fraction floor
    n11, n10, n01, n00 = nobs.as_tuple()
    never = n + 1  # above every candidate
    rows: list[list[int]] = []
    prev = [0] * (n + 1)  # before row 0: rejects nothing
    prev_seeds = [never] * (n + 2)  # before row 0: accepts nothing
    least, greatest = never, -never
    called = settled = 0
    for N11 in range(0, n11 + n01 + 1):
        # the parts of compatible_n10's bounds L0 and H0 that do not depend on N01
        lo_row = N11 - n01 if N11 > n01 else 0
        hi_row = N11 if N11 < n11 else n11
        row, seeds = [], []
        carry = 0
        for N01 in range(0, n - N11 + 1):
            avail = n - N11 - N01  # max N10 keeping the fourth cell non-negative
            if carry > avail:  # this cell and every later one fall back untested
                rest = avail + 1
                row += range(N01 + floor_nt + 1, N01 + floor_nt + 1 + rest) if two_sided else [never] * rest
                seeds += [never] * rest
                break
            if two_sided:
                top = N01 + floor_nt  # greatest N10 with effect <= the estimate
                hi = top if top < avail else avail
            else:
                hi = avail
            N10 = carry
            lim = prev[N01] - 2
            if lim > hi:
                lim = hi
            if N10 <= lim:
                settled += lim - N10 + 1
                N10 = lim + 1
            stop = prev_seeds[N01 + 1]
            if stop > hi:
                stop = hi + 1
            seed = never
            while N10 < stop:
                called += 1
                decided = accepts(N11, N10, N01, avail - N10)
                if decided:
                    if decided == upper_alone:
                        seed = N10
                    break
                N10 += 1
            else:
                if N10 <= hi:  # at or above the accept rule's threshold
                    settled += 1
                    seed = N10
                else:
                    N10 = top + 1 if two_sided else never
            row.append(N10)
            seeds.append(seed)
            carry = N10 if N10 > 0 else 0
            c = N11 + N01 - n01
            L0 = c - n10 if c - n10 > lo_row else lo_row
            H0 = c if c < hi_row else hi_row
            if L0 <= H0:
                first = n11 - H0 if n11 - H0 > carry else carry
                last = n11 + n00 - L0 if n11 + n00 - L0 < hi else hi
                if first <= last:
                    if first - N01 < least:
                        least = first - N01
                    if last - N01 > greatest:
                        greatest = last - N01
        rows.append(row)
        prev, prev_seeds = row, seeds
    ends = (least, greatest) if least <= greatest else None
    return FrontierScan(rows, ends, called + settled, settled)


#: Scan summaries kept by `_scan_summary`; an entry takes about 500 bytes.
_SCAN_CACHE_SIZE = 1 << 13


@lru_cache(maxsize=_SCAN_CACHE_SIZE)
def _scan_summary(
    cells: tuple[int, int, int, int],
    alpha: Fraction,
    statistic: Literal["one_sided", "two_sided"],
) -> tuple[tuple[int, int] | None, int]:
    """(least and greatest accepted n*tau, or None, tests) of one frontier scan.

    `frontier_scan` is looked up by module name on a miss, so a wrapper set
    on that name sees every scan that runs. Callers check alpha and the
    exact-size guard first.
    """
    scan = frontier_scan(ObservedTable(*cells), alpha, statistic)
    return scan.ends, scan.tests


def _check_scan_call(nobs: ObservedTable, alpha: Fraction) -> Fraction:
    """Checked alpha of a frontier construction; refuses what its scans would refuse.

    Every scan tests at least one table, so a call on a table above the size
    limit raises `ScaleGuard` (and an invalid limit a `ValueError`) whether
    or not its scans are cached.
    """
    alpha = _check_alpha(alpha)
    _guard(nobs.n)
    return alpha


def ci_bonferroni(nobs: ObservedTable, alpha: Fraction) -> MethodResult:
    """Intersect marginal count intervals for the two response totals.

    Each margin gets a level 1 - alpha/2 shrunk hypergeometric interval (see
    `hypergeom.ci_count`); the difference interval is clipped to the
    attainable n*tau range. No randomization tests.
    """
    alpha = _check_alpha(alpha)
    n, m = nobs.n, nobs.m
    t_lo, t_hi = ci_count(n, m, nobs.n11, alpha / 2)
    c_lo, c_hi = ci_count(n, n - m, nobs.n01, alpha / 2)
    a_lo, a_hi = attainable_ntau_range(nobs)
    ci = (max(t_lo - c_hi, a_lo), min(t_hi - c_lo, a_hi))
    return MethodResult("bonferroni", nobs, alpha, ci, 0)


def ci_margin_inversion(nobs: ObservedTable, alpha: Fraction) -> MethodResult:
    """Invert tests that depend only on the control-response margin.

    The test statistic is a monotone function of the control responders drawn
    into the control arm, so its null distribution depends on the potential
    table only through that margin; acceptance reduces to a level 1 - alpha
    shrunk hypergeometric interval [g_lo, g_hi] for the margin, and the
    interval is the range of n*tau over compatible tables with an accepted
    margin. That range is closed form. Each unit's unobserved potential
    outcome is free, so the (treatment-response, control-response) margin
    pairs of compatible tables are exactly [n11, n - n10] x [n01, n - n00];
    n*tau is the first margin minus the second, and [g_lo, g_hi] lies inside
    the second range. So the ends are n11 - g_hi and n - n10 - g_lo.
    """
    alpha = _check_alpha(alpha)
    n, m = nobs.n, nobs.m
    g_lo, g_hi = ci_count(n, n - m, nobs.n01, alpha)
    ci = (nobs.n11 - g_hi, n - nobs.n10 - g_lo)
    return MethodResult("margin_inversion", nobs, alpha, ci, 0)


def ci_two_sided_frontier(nobs: ObservedTable, alpha: Fraction) -> MethodResult:
    """Two-sided randomization-test inversion via the monotone frontier.

    The side below the observed estimate is scanned directly; the side above
    is the same scan after switching outcome labels (which negates effects).
    Designs with m > n - m are conjugated by a treatment label switch. A
    table that is its own outcome-label mirror is scanned once for both
    sides.
    """
    alpha = _check_scan_call(nobs, alpha)
    switched = nobs.m > nobs.n - nobs.m
    work = nobs.switch_z() if switched else nobs
    mirror = work.switch_y()
    below, tests = _scan_summary(work.as_tuple(), alpha, "two_sided")
    above = below
    if mirror != work:
        above, above_tests = _scan_summary(mirror.as_tuple(), alpha, "two_sided")
        tests += above_tests
    ends = [*(below or ()), *(-k for k in above or ())]
    if not ends:
        raise EmptyAcceptance("two-sided frontier accepted no compatible table")
    lo, hi = min(ends), max(ends)
    if switched:
        lo, hi = -hi, -lo
    return MethodResult("two_sided_frontier", nobs, alpha, (lo, hi), tests)


def ci_one_sided(
    nobs: ObservedTable,
    alpha: Fraction,
    direction: Literal["lower", "upper"] = "lower",
) -> MethodResult:
    """One-sided randomization-test inversion via the monotone frontier.

    The lower interval always reaches up to the maximum attainable effect
    (n11 + n00)/n; the upper interval is the outcome-label conjugate.
    """
    if direction not in ("lower", "upper"):
        raise ValueError(f"unknown direction {direction!r}; expected 'lower' or 'upper'")
    alpha = _check_scan_call(nobs, alpha)
    work = nobs if direction == "lower" else nobs.switch_y()
    accepted, tests = _scan_summary(work.as_tuple(), alpha, "one_sided")
    if accepted is None:
        raise EmptyAcceptance("one-sided frontier accepted no compatible table")
    lo = accepted[0]
    hi = work.n11 + work.n00
    if direction == "upper":
        lo, hi = -hi, -lo
    method = "one_sided_lower" if direction == "lower" else "one_sided_upper"
    return MethodResult(method, nobs, alpha, (lo, hi), tests)


def ci_brute_force(nobs: ObservedTable, alpha: Fraction) -> MethodResult:
    """Test every compatible potential table; reference implementation.

    Each table of `iter_compatible` is decided once. The count is the
    classical baseline's, one test per cell-wise decomposition of nobs:
    (n11+1)(n10+1)(n01+1)(n00+1), so a table that several decompositions
    give counts once for each of them. The decision function comes from
    `randtest.acceptor`, looked up once per search by module attribute, so a
    wrapper set on that name sees it.
    """
    alpha = _check_alpha(alpha)
    accepts = randtest.acceptor(nobs, alpha, "two_sided")
    accepted = [N.ntau for N in iter_compatible(nobs) if accepts(*N.as_tuple())]
    if not accepted:
        raise EmptyAcceptance("no compatible table accepted at this level")
    tests = math.prod(c + 1 for c in nobs.as_tuple())
    return MethodResult("brute_force", nobs, alpha, (min(accepted), max(accepted)), tests)


#: Method id -> (CLI name, construction). The lambdas look the constructions
#: up by module name at call time, so a wrapper set on that name is used.
METHODS: dict[str, tuple[str, Callable[[ObservedTable, Fraction], MethodResult]]] = {
    "bonferroni": ("bonferroni", lambda nobs, alpha: ci_bonferroni(nobs, alpha)),
    "margin_inversion": ("margin-inversion", lambda nobs, alpha: ci_margin_inversion(nobs, alpha)),
    "two_sided_frontier": ("two-sided", lambda nobs, alpha: ci_two_sided_frontier(nobs, alpha)),
    "one_sided_lower": ("one-sided-lower", lambda nobs, alpha: ci_one_sided(nobs, alpha, "lower")),
    "one_sided_upper": ("one-sided-upper", lambda nobs, alpha: ci_one_sided(nobs, alpha, "upper")),
    "brute_force": ("brute-force", lambda nobs, alpha: ci_brute_force(nobs, alpha)),
}


def compute_ci(method: str, nobs: ObservedTable, alpha: Fraction) -> MethodResult:
    """Dispatch by method id (a key of METHODS)."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {tuple(METHODS)}")
    return METHODS[method][1](nobs, alpha)
