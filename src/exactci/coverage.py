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
only on (N01, N00, r2), so they are built once for all the true tables and
tests that share them. A true table thus costs at most O(n^2 * runs)
lookups instead of O(n^3) splits. No monotonicity of the method is assumed:
where coverage is not contiguous in n01, there are simply more runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from operator import mul, sub
from typing import Callable

from .errors import ScaleGuard
from .hypergeom import _at_most, _check_alpha, _comb_row
from .tables import ObservedTable, PotentialTable

__all__ = ["CoverageReport", "exact_coverage_sweep"]

MAX_COVERAGE_N = 14

CIFn = Callable[[ObservedTable], tuple[int, int]]
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


def _covering_runs(n: int, m: int, ci_fn: CIFn) -> list[RunsAtT]:
    """runs[t + n]: the runs whose intervals hold t.

    Only the n11 values with at least one run are listed. ci_fn is called once
    per observed table, in (n11, n01) order. The part of an interval outside
    [-n, n] adds nothing, nor does an empty one (lo > hi).
    """
    by_n11 = []
    for n11 in range(m + 1):
        by_t: list[list[tuple[int, int]]] = [[] for _ in range(2 * n + 1)]
        for n01 in range(n - m + 1):
            lo, hi = ci_fn(ObservedTable(n11, m - n11, n01, n - m - n01))
            for t in range(max(lo, -n) + n, min(hi, n) + n + 1):
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


def _at_most_rows(N01: int, N00: int, m: int, n: int) -> list[list[int]]:
    """rows[r2][j + n - m + 1]: ways to draw r2 of the N01 + N00 units with x01 <= j.

    Each row is the shared prefix row `_at_most(N01, N00, r2)`, padded so
    that every j in [-(n - m + 1), n] is an index.
    """
    left = [0] * (n - m + 1)
    rows = []
    for r2 in range(m + 1):
        at_most = _at_most(N01, N00, r2)
        rows.append([*left, *at_most, *at_most[-1:] * (n + 1 - len(at_most))])
    return rows


def _covered_weight(
    N11: int,
    N10: int,
    N01: int,
    m: int,
    n: int,
    runs_at_t: RunsAtT,
    at_most_rows: list[list[int]],
) -> int:
    """Number of size-m assignments whose interval covers the true n*tau.

    The true table is (N11, N10, N01, N00), at_most_rows is
    `_at_most_rows(N01, N00, m, n)` and runs_at_t is `_covering_runs(...)` at
    its n*tau. For each n11 with a split, one run that spans the whole n01
    support adds C(N11 + N10, n11) * C(N01 + N00, m - n11), the weight of all
    its splits by Vandermonde's identity; otherwise every run adds one
    difference of prefix sums for each number of type-11 units left in
    control.
    """
    N00 = n - N11 - N10 - N01
    N1, N0 = N11 + N10, N01 + N00
    c1, c0 = _comb_row(N1), _comb_row(N0)
    # Lists, not tuples: slices of many lengths would each fill a tuple free list.
    c11, c10 = list(_comb_row(N11)), list(_comb_row(N10))
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
            w = list(map(mul, c11[y_lo : y_hi + 1], c10[n11 - N11 + y_lo :]))
            at_most = at_most_rows[r2]
            base = offset + y_lo
            for start, stop in runs:
                i, j = base - start, base - stop
                in_run = map(sub, at_most[i : i + k], at_most[j : j + k])
                covered += sum(map(mul, w, in_run))
    return covered


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
    n01 values are contiguous, more where they are not.

    alpha is read as every method reads it, a float by its shortest decimal
    form (0.05 is 1/20); a level outside (0, 1) raises `InvalidLevel` before
    ci_fn is called.
    """
    if n > MAX_COVERAGE_N:
        raise ScaleGuard(f"exact coverage sweep limited to n <= {MAX_COVERAGE_N}, got {n}")
    if not 1 <= m <= n - 1:
        raise ValueError(f"need 1 <= m <= n-1, got m={m}")
    alpha = _check_alpha(alpha)
    runs = _covering_runs(n, m, ci_fn)
    cn = comb(n, m)
    rows = []
    for N01 in range(n + 1):
        for N00 in range(n - N01 + 1):
            at_most_rows = _at_most_rows(N01, N00, m, n)
            for N11 in range(n - N01 - N00 + 1):
                N10 = n - N01 - N00 - N11
                runs_at_t = runs[N10 - N01 + n]
                covered = _covered_weight(N11, N10, N01, m, n, runs_at_t, at_most_rows)
                rows.append((PotentialTable(N11, N10, N01, N00), Fraction(covered, cn)))
    rows.sort(key=lambda row: row[0].as_tuple())  # by (N11, N10, N01)
    return CoverageReport(n, m, alpha, tuple(rows))
