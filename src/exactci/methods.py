"""Confidence interval constructions for the average causal effect.

Five constructions, all with guaranteed finite-sample coverage:

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
needs for that table (one test = one p-value evaluation for one candidate
table; frontier fallback assignments count zero). A table that is its own
outcome-label mirror needs one frontier scan for both sides, so it counts one.

The frontier constructions read each scan through a private cache of scan
summaries (the least and greatest accepted n*tau, or none, and the scan's
test count), keyed by (scanned table, alpha, statistic). It holds the
newest `_SCAN_CACHE_SIZE` (8,192) entries, about 4 MB when full. The upper
side of X is the lower side of X's outcome-label mirror, and a design with
m > n - m is scanned through its treatment-label conjugate, so across a
coverage sweep or a batch these constructions share one scan. A cached scan
still counts its tests in every result that reads it, and the exact-size
guard is checked on every call before the cache is read, so neither the
result nor a refusal depends on what is cached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Literal

from . import randtest
from .errors import EmptyAcceptance
from .hypergeom import _check_alpha, ci_count
from .randtest import _guard
from .tables import (
    ObservedTable,
    PotentialTable,
    attainable_ntau_range,
    compatible_n10,
    is_compatible,  # noqa: F401  (perfbench/tracing.py wraps this name)
    iter_cell_decompositions,
    iter_compatible,  # noqa: F401  (perfbench/tracing.py wraps this name)
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

    frontiers maps (N11, N01) to the minimum accepted N10 (fallback value when
    nothing in range is accepted). accepted_ntau collects n*tau over
    compatible tables on or above the frontier.
    """

    frontiers: dict[tuple[int, int], int] = field(default_factory=dict)
    accepted_ntau: set[int] = field(default_factory=set)
    tests: int = 0


def frontier_scan(
    nobs: ObservedTable,
    alpha: Fraction,
    statistic: Literal["one_sided", "two_sided"] = "two_sided",
) -> FrontierScan:
    """Lower-side acceptance sweep over (N11, N01) cells.

    For each N11, N01 increases from 0 and the N10 search resumes from the
    previous frontier value, which the frontier's monotonicity in N01
    justifies. Candidates beyond the observed estimate (two-sided) or with a
    negative forced fourth cell are skipped without testing; if no candidate
    is accepted the frontier takes its fallback value (one above the last
    admissible N10 for two-sided, n+1 for one-sided). The compatible tables
    of a cell form one N10 interval (`compatible_n10`), so the accepted n*tau
    of a cell are one range.

    Two-sided scans require m <= n - m; the caller conjugates by a treatment
    label switch otherwise. The p-value function is looked up on `randtest`
    once per scan, so a wrapper set on that name sees every test.
    """
    alpha = _check_alpha(alpha)
    n, m = nobs.n, nobs.m
    if statistic == "two_sided" and m > n - m:
        raise ValueError("two-sided frontier scan requires m <= n - m; switch treatment labels first")
    two_sided = statistic == "two_sided"
    p_value = randtest.p_two_sided if two_sided else randtest.p_one_sided
    ntau_obs = nobs.tau_hat * n
    floor_nt = math.floor(ntau_obs)  # exact: Fraction floor
    out = FrontierScan()
    for N11 in range(0, nobs.n11 + nobs.n01 + 1):
        carry = 0
        for N01 in range(0, n - N11 + 1):
            avail = n - N11 - N01  # max N10 keeping the fourth cell non-negative
            hi = min(N01 + floor_nt, avail) if two_sided else avail
            frontier = None
            N10 = carry
            while N10 <= hi:
                N = PotentialTable(N11, N10, N01, n - N11 - N10 - N01)
                out.tests += 1
                if p_value(N, nobs) >= alpha:
                    frontier = N10
                    break
                N10 += 1
            if frontier is None:
                frontier = (N01 + floor_nt + 1) if two_sided else (n + 1)
            out.frontiers[(N11, N01)] = frontier
            carry = max(frontier, 0)
            compatible = compatible_n10(nobs, N11, N01)
            first = max(carry, compatible.start)
            last = min(hi, compatible.stop - 1)
            out.accepted_ntau.update(range(first - N01, last - N01 + 1))
    return out


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
    accepted = scan.accepted_ntau
    return ((min(accepted), max(accepted)) if accepted else None), scan.tests


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

    Candidates come from the cell-wise decomposition enumeration, one
    randomization test each, so the count is (n11+1)(n10+1)(n01+1)(n00+1)
    (duplicated tables are retested, as in the classical baseline).
    """
    alpha = _check_alpha(alpha)
    p_value = randtest.p_two_sided  # looked up once, so a wrapper sees every test
    accepted, tests = [], 0
    for N in iter_cell_decompositions(nobs):
        tests += 1
        if p_value(N, nobs) >= alpha:
            accepted.append(N.ntau)
    if not accepted:
        raise EmptyAcceptance("no compatible table accepted at this level")
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
