"""Exact coverage evaluation of interval methods by full enumeration.

For a fixed design (n, m) and a true potential table N, the probability that a
method's interval covers the true effect is a finite exact sum over the
multivariate hypergeometric treated-count splits (x11, x10, x01, x00). A split
induces the observed table with n11 = x11 + x10 treated responders and
n01 = N11 - x11 + N01 - x01 control responders.

The sweep visits no split. It calls the method once for each of the
(m + 1)(n - m + 1) observed tables of the design; every one of them is
induced by some true table, e.g. (n11, n01) by N = (0, n11, n01, n - n11 - n01)
when every N10 unit is treated and no N01 unit is. For each n*tau value t and
each n11 it then records the maximal runs of n01 whose interval contains t.
With n11 fixed, n01 = y + z, where y = N11 - x11 type-11 and z = N01 - x01
type-01 units stay in control; the splits of a true table with that n11 are
every y in one range paired with every z in another, with r2 = m - n11 =
x01 + x00. Most often one run spans the whole n01 support [least y + least z,
greatest y + greatest z]: then every such split is covered, and by
Vandermonde's identity they weigh C(N11 + N10, n11) * C(N01 + N00, r2), one
product. Otherwise, with (x11, x10) fixed, n01 is affine in x01, so a run is
one x01 range, and its weight is one difference of prefix sums of
C(N01, x01) * C(N00, r2 - x01) over x01. Those prefix sums are the rows of
`hypergeom._at_most`, which the randomization tests read too; they depend
only on (N01, N00, r2), so they are built once for all the true tables,
tests and designs that share them while the cache stays under its byte
budget, and only such partial (true table, n11) pairs read them. A true
table thus costs at most O(n^2 * runs) lookups instead of O(n^3) splits.
No monotonicity of the method is assumed: where coverage is not contiguous
in n01, there are simply more runs.

Most methods are mirror-equivariant: the interval of switch_y(X) is -(the
interval of X) for every observed X. The sweep checks this on its
intervals, clipped to [-n, n] and with every empty one alike.
If it holds, a true table N and its mirror switch_y(N) have the same
coverage, since under any one assignment the mirror induces switch_y of
the table N induces and has n*tau' = -n*tau; so one table of each pair is
weighed. Otherwise every table is.

A design with m > n/2 is weighed in design n - m, relabeled by switch_y o
switch_z, an identity for any method: the observed table (n11, n10, n01,
n00) becomes (n00, n01, n10, n11), a true table N becomes
switch_y(switch_z(N)) with the same n*tau, and each assignment its
complement. Both true-table relabelings are index tables over the reported
tables, built once per n from `PotentialTable.switch_y` and `switch_z`. The
weighing is cached on its intervals, so where those are the conjugate
design's own, as when CI(switch_y(switch_z(X))) = CI(X), the second sweep of
the pair weighs nothing.

The method calls of one sweep share exact decisions: the sweep sets
`randtest._sweep_thresholds` to a fresh store while it calls the method,
and resets it after, even if a call raises. A potential table is tested
against many observed tables of one design, and for a fixed table the
decision is a step function of the observed statistic, so four thresholds
per table decide most repeats without a tail sum (see `randtest._held`).
The store holds 4*(n + 1)**3 slots per (n, m, level, statistic) group,
13,500 at n = 14, and nothing outlives the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from operator import mul, sub
from typing import Callable

from . import randtest
from .errors import ScaleGuard
from .hypergeom import _at_most, _check_alpha, _comb_row
from .tables import ObservedTable, PotentialTable

__all__ = ["CoverageReport", "exact_coverage_sweep"]

MAX_COVERAGE_N = 14

CIFn = Callable[[ObservedTable], tuple[int, int]]
#: clipped intervals of a design's observed tables, in (n11, n01) order
Intervals = tuple[tuple[int, int], ...]
EMPTY = (1, -1)  #: the one stored empty interval, its own negation
#: (n11, maximal n01 ranges [start, stop)) pairs whose intervals hold one n*tau
RunsAtT = list[tuple[int, list[tuple[int, int]]]]


@dataclass(frozen=True)
class CoverageReport:
    n: int
    m: int
    alpha: Fraction
    per_table: tuple[tuple[PotentialTable, Fraction], ...]

    @property
    def min_coverage(self) -> Fraction:
        return min(c for _, c in self.per_table)

    @property
    def mean_coverage(self) -> Fraction:
        return sum(c for _, c in self.per_table) / len(self.per_table)

    def violators(self, level: Fraction) -> list[tuple[PotentialTable, Fraction]]:
        return [(N, c) for N, c in self.per_table if c < level]


def _intervals(n: int, m: int, ci_fn: CIFn) -> Intervals:
    """ci_fn's interval of each observed table, called in (n11, n01) order.

    Each is clipped to [-n, n], since the part outside adds nothing, and
    every empty one is stored as EMPTY.
    """
    rows = ((n11, n01) for n11 in range(m + 1) for n01 in range(n - m + 1))
    tables = (ObservedTable(n11, m - n11, n01, n - m - n01) for n11, n01 in rows)
    clipped = ((max(lo, -n), min(hi, n)) for lo, hi in map(ci_fn, tables))
    return tuple(c if c[0] <= c[1] else EMPTY for c in clipped)


def _covering_runs(n: int, m: int, intervals: Intervals) -> list[RunsAtT]:
    """runs[t + n]: the runs whose intervals hold t.

    Only the n11 values with at least one run are listed.
    """
    w = n - m + 1
    by_n11 = []
    for n11 in range(m + 1):
        by_t: list[list[tuple[int, int]]] = [[] for _ in range(2 * n + 1)]
        for n01, (lo, hi) in enumerate(intervals[n11 * w : n11 * w + w]):
            for t in range(lo + n, hi + n + 1):
                r = by_t[t]
                if r and r[-1][1] == n01:
                    r[-1] = (r[-1][0], n01 + 1)
                else:
                    r.append((n01, n01 + 1))
        by_n11.append(by_t)
    return [
        [(n11, by_t[t]) for n11, by_t in enumerate(by_n11) if by_t[t]]
        for t in range(2 * n + 1)
    ]


def _mirror_equivariant(intervals: Intervals) -> bool:
    """True if the interval of switch_y(X) is -(the interval of X) for every X.

    switch_y maps the observed table (n11, n01) to (m - n11, n - m - n01),
    which reverses the (n11, n01) order; EMPTY is its own negation.
    """
    return intervals[::-1] == tuple((-hi, -lo) for lo, hi in intervals)


@lru_cache(maxsize=4)
def _true_tables(n: int) -> tuple[PotentialTable, ...]:
    """Every potential table of size n, in (N11, N10, N01) order.

    Reports of size n share these immutable tables.
    """
    return tuple(
        PotentialTable(N11, N10, N01, n - N11 - N10 - N01)
        for N11 in range(n + 1)
        for N10 in range(n - N11 + 1)
        for N01 in range(n - N11 - N10 + 1)
    )


@lru_cache(maxsize=4)
def _relabelings(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Index in `_true_tables(n)` of switch_y(N) and of switch_y(switch_z(N)), for each N.

    The first is N's mirror, the second its image in the conjugate frame;
    each index is an involution.
    """
    tables = _true_tables(n)
    index = {N: i for i, N in enumerate(tables)}
    mirror = tuple(index[N.switch_y()] for N in tables)
    return mirror, tuple(index[N.switch_y().switch_z()] for N in tables)


def _covered_weight(N: PotentialTable, m: int, runs_at_t: RunsAtT) -> int:
    """Number of size-m assignments whose interval covers t, for true table N.

    runs_at_t is `_covering_runs(...)` at t; at N's own n*tau this is the
    weight of N's coverage. For each n11 with a split, one run that spans
    the whole n01 support adds C(N11 + N10, n11) * C(N01 + N00, m - n11), the
    weight of all its splits by Vandermonde's identity; otherwise every run
    adds one difference of prefix sums for each number of type-11 units left
    in control, read from the row `_at_most(N01, N00, m - n11)`.
    """
    N11, N10, N01, N00 = N.as_tuple()
    n = N.n
    N1, N0 = N11 + N10, N01 + N00
    c1, c0 = _comb_row(N1), _comb_row(N0)
    offset = n - m + 1 + N01
    covered = 0
    for n11, runs in runs_at_t:
        r2 = m - n11
        if n11 > N1 or r2 > N0:
            continue  # no split has n11 treated responders
        # The treated hold x11 + x10 = n11 units of type 11 or 10 and x01 of
        # type 01, and leave y = N11 - x11 and z = N01 - x01 in control, so
        # n01 = y + z (conditionals are cheaper than max/min calls on this path)
        y_lo = N11 - n11 if n11 < N11 else 0
        y_hi = N1 - n11 if n11 > N10 else N11
        first = y_lo + (N01 - r2 if r2 < N01 else 0)
        last = y_hi + (N0 - r2 if r2 > N00 else N01)
        for start, stop in runs:
            if start <= first and stop > last:
                covered += c1[n11] * c0[r2]  # Vandermonde's identity
                break
        else:
            # n01 >= start iff x01 <= y + N01 - start
            k = y_hi - y_lo + 1  # number of y values
            # C(N11, x11) * C(N10, x10) for y = y_lo..y_hi
            w = list(map(mul, _comb_row(N11)[y_lo : y_hi + 1], _comb_row(N10)[n11 - N11 + y_lo :]))
            # at_most[j + n - m + 1]: draws of r2 with x01 <= j, for every
            # j in [-(n - m + 1), n]
            row = _at_most(N01, N00, r2)
            at_most = [*[0] * (n - m + 1), *row, *row[-1:] * (n + 1 - len(row))]
            base = offset + y_lo
            for start, stop in runs:
                i, j = base - start, base - stop
                in_run = map(sub, at_most[i : i + k], at_most[j : j + k])
                covered += sum(map(mul, w, in_run))
    return covered


@lru_cache(maxsize=128)
def _weigh(n: int, m: int, intervals: Intervals) -> tuple[Fraction, ...]:
    """Coverage of every true table of size n, in `_true_tables(n)` order.

    Only `_intervals(n, m, ci_fn)` decides them, so the newest 128 results
    are kept, keyed without alpha: every (method, alpha) sweep of every m at
    one n <= 14. That is at most 128 * C(17, 3) coverages, under 10 MB even
    if all are distinct (1.3 MB after all such sweeps of the four methods at
    n = 13 and 14, two levels each). `_weigh.cache_info()` counts the hits.
    Mirror-equivariant intervals copy a table's coverage from its mirror if that came first.
    """
    runs = _covering_runs(n, m, intervals)
    mirror = _relabelings(n)[0] if _mirror_equivariant(intervals) else None
    cn = comb(n, m)
    coverage_of: dict[int, Fraction] = {}
    coverages: list[Fraction] = []
    for i, N in enumerate(_true_tables(n)):
        if mirror and mirror[i] < i:
            coverages.append(coverages[mirror[i]])
            continue
        covered = _covered_weight(N, m, runs[N.ntau + n])
        coverage = coverage_of.get(covered)
        if coverage is None:
            coverage = coverage_of[covered] = Fraction(covered, cn)
        coverages.append(coverage)
    return tuple(coverages)


def exact_coverage_sweep(
    n: int,
    m: int,
    alpha: Fraction | float,
    ci_fn: CIFn,
) -> CoverageReport:
    """Exact coverage of ci_fn for every potential table of size n.

    ci_fn maps an observed table to an (n*tau lower, upper) interval. It is
    called exactly once for each of the (m + 1)(n - m + 1) observed tables of
    the design, in (n11, n01) order, before any true table is weighed; all of
    them are reachable. Each true table then costs one product for each n11
    whose whole n01 support one run covers, and O(n * runs) prefix-sum
    lookups for each other n11, where runs is the number of maximal n01
    ranges at that n11 whose interval holds its n*tau: one where the covering
    n01 values are contiguous, more where they are not. Only those partial
    n11 read a prefix row.

    Mirror-equivariant intervals weigh one table of each mirror pair, and a
    design with m > n/2 is weighed relabeled as design (n, n - m); see the
    module docstring. The weighing is cached on the clipped intervals, not
    on ci_fn or alpha; each report carries its own alpha. While ci_fn runs,
    the randomization tests it makes share their exact decisions through
    thresholds held for this call only; the intervals are those ci_fn gives
    outside a sweep.

    per_table is in (N11, N10, N01) order; its `PotentialTable` objects are
    shared with every other report of size n. alpha is read as every method
    reads it, a float by its shortest decimal form (0.05 is 1/20); a level
    outside (0, 1) raises `InvalidLevel` before ci_fn is called. n, m and
    every clipped bound ci_fn gives must be ints, or `ValueError` is raised.
    """
    if n > MAX_COVERAGE_N:
        raise ScaleGuard(f"exact coverage sweep limited to n <= {MAX_COVERAGE_N}, got {n}")
    if not (type(n) is type(m) is int and 1 <= m <= n - 1):
        raise ValueError(f"need ints 1 <= m <= n-1, got {n=}, {m=}")
    alpha = _check_alpha(alpha)
    token = randtest._sweep_thresholds.set({})
    try:
        intervals = _intervals(n, m, ci_fn)
    finally:
        randtest._sweep_thresholds.reset(token)
    bad = next((i for i, (lo, hi) in enumerate(intervals) if type(lo) is not int or type(hi) is not int), None)
    if bad is not None:
        n11, n01 = divmod(bad, n - m + 1)
        table = ObservedTable(n11, m - n11, n01, n - m - n01)
        raise ValueError(f"ci_fn must give int n*tau bounds, got {intervals[bad]!r} for {table}")
    if 2 * m <= n:
        coverages = _weigh(n, m, intervals)
    else:  # (n00, n01, n10, n11) of design n - m: (n11, n01) reversed, transposed
        w = n - m + 1
        reverse = intervals[::-1]
        frame = _weigh(n, n - m, tuple(x for a in range(w) for x in reverse[a::w]))
        coverages = map(frame.__getitem__, _relabelings(n)[1])
    return CoverageReport(n, m, alpha, tuple(zip(_true_tables(n), coverages)))
