"""Brute-force validation oracles.

Everything here recomputes quantities from first principles: assignment
distributions by iterating every size-m subset of an explicit unit list,
compatibility by scanning candidate integer solutions, and acceptance
frontiers by testing every N10 directly against the defining condition,
and exact coverage by visiting every treated-count split of every true table.
The cell-wise decompositions are the reference for the brute-force count.
The reference scan, enumeration and coverage weight keep the straightforward
loops the fast paths replaced: per-cell `compatible_n10` calls, one
`is_compatible` call per potential table, and one difference of prefix sums
per covering run. The reference count-interval tables keep both endpoint
arrays, each with its own scan and update, where `hypergeom` keeps the lower
ends and mirrors them.
Deliberately slow; used only to cross-check the fast paths.
"""

from __future__ import annotations

import math
from math import comb
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from operator import mul, sub
from typing import Callable, Literal

from exactci import (
    CoverageReport,
    ObservedTable,
    PotentialTable,
    ScaleGuard,
    is_compatible,
    p_one_sided,
    p_two_sided,
    randtest,
)
from exactci.hypergeom import _at_most, _comb_row
from exactci.randtest import _iter_splits
from exactci.tables import compatible_n10

__all__ = [
    "units_from_table",
    "enumerate_assignments",
    "brute_compatibility",
    "brute_frontier",
    "reference_frontier_scan",
    "reference_compatible",
    "cell_decompositions",
    "induced_observed",
    "coverage_by_splits",
    "reference_covered_weight",
    "at_most_rows",
    "reference_equal_tail_tables",
    "reference_refined_endpoints",
]

MAX_ENUM_N = 14


def units_from_table(N: PotentialTable) -> list[tuple[int, int]]:
    """Canonical per-unit potential outcome list summarized by N."""
    return (
        [(1, 1)] * N.N11 + [(1, 0)] * N.N10 + [(0, 1)] * N.N01 + [(0, 0)] * N.N00
    )


def enumerate_assignments(
    units: list[tuple[int, int]], m: int
) -> list[tuple[Fraction, Fraction]]:
    """Exact distribution of the estimate over all size-m treated subsets."""
    n = len(units)
    if n > MAX_ENUM_N:
        raise ScaleGuard(f"full assignment enumeration limited to n <= {MAX_ENUM_N}, got {n}")
    total = math.comb(n, m)
    counts: dict[Fraction, int] = {}
    idx = range(n)
    for treated in combinations(idx, m):
        tset = set(treated)
        resp_treated = sum(units[j][0] for j in tset)
        resp_control = sum(units[j][1] for j in idx if j not in tset)
        est = Fraction(resp_treated, m) - Fraction(resp_control, n - m)
        counts[est] = counts.get(est, 0) + 1
    return sorted((v, Fraction(c, total)) for v, c in counts.items())


def brute_compatibility(N: PotentialTable, nobs: ObservedTable) -> bool:
    """Compatibility by direct search for an integer treated-count solution.

    Scans the number of always-responders assigned to treatment and checks
    the box constraints on the three forced counts.
    """
    for x11 in range(0, N.N11 + 1):
        x10 = nobs.n11 - x11
        x01 = N.N11 + N.N01 - nobs.n01 - x11
        x00 = x11 + nobs.n01 + nobs.n10 - N.N11 - N.N01
        if 0 <= x10 <= N.N10 and 0 <= x01 <= N.N01 and 0 <= x00 <= N.N00:
            return True
    return False


def brute_frontier(
    N11: int,
    N01: int,
    nobs: ObservedTable,
    alpha: Fraction,
    statistic: Literal["one_sided", "two_sided"] = "two_sided",
) -> int:
    """Definitional minimum accepted N10 for a (N11, N01) cell.

    Tests every N10 from 0 up; falls back to one above the last N10 keeping
    the effect at or below the observed estimate (two-sided) or to n+1
    (one-sided) when nothing is accepted.
    """
    n = nobs.n
    ntau_obs = nobs.tau_hat * n
    for N10 in range(0, n - N11 - N01 + 1):
        N = PotentialTable(N11, N10, N01, n - N11 - N10 - N01)
        if statistic == "two_sided":
            if N.ntau > ntau_obs:
                break
            if p_two_sided(N, nobs) >= alpha:
                return N10
        else:
            if p_one_sided(N, nobs) >= alpha:
                return N10
    if statistic == "two_sided":
        return math.floor(N01 + ntau_obs) + 1
    return n + 1


@dataclass
class ReferenceScan:
    """The reference scan's rows of frontiers, its accepted n*tau and its test count."""

    frontiers: list[list[int]] = field(default_factory=list)
    accepted_ntau: set[int] = field(default_factory=set)
    tests: int = 0


def reference_frontier_scan(
    nobs: ObservedTable,
    alpha: Fraction,
    statistic: Literal["one_sided", "two_sided"] = "two_sided",
) -> ReferenceScan:
    """`methods.frontier_scan` with one `compatible_n10` call per cell.

    The same tests in the same order, with no row rules; each cell
    recomputes its compatible N10 interval from the observed table, clips
    it with `max`/`min` and collects its accepted n*tau.
    """
    n, m = nobs.n, nobs.m
    if statistic == "two_sided" and m > n - m:
        raise ValueError("two-sided frontier scan requires m <= n - m; switch treatment labels first")
    two_sided = statistic == "two_sided"
    accepts = randtest.acceptor(nobs, alpha, statistic)
    ntau_obs = nobs.tau_hat * n
    floor_nt = math.floor(ntau_obs)  # exact: Fraction floor
    out = ReferenceScan()
    for N11 in range(0, nobs.n11 + nobs.n01 + 1):
        row = []
        carry = 0
        for N01 in range(0, n - N11 + 1):
            avail = n - N11 - N01  # max N10 keeping the fourth cell non-negative
            hi = min(N01 + floor_nt, avail) if two_sided else avail
            frontier = None
            N10 = carry
            while N10 <= hi:
                out.tests += 1
                if accepts(N11, N10, N01, n - N11 - N10 - N01):
                    frontier = N10
                    break
                N10 += 1
            if frontier is None:
                frontier = (N01 + floor_nt + 1) if two_sided else (n + 1)
            row.append(frontier)
            carry = max(frontier, 0)
            compatible = compatible_n10(nobs, N11, N01)
            first = max(carry, compatible.start)
            last = min(hi, compatible.stop - 1)
            out.accepted_ntau.update(range(first - N01, last - N01 + 1))
        out.frontiers.append(row)
    return out


def reference_compatible(nobs: ObservedTable) -> list[PotentialTable]:
    """Compatible potential tables in lexicographic (N11, N10, N01) order.

    One `is_compatible` call per potential table with N11 <= n11 + n01.
    """
    n = nobs.n
    found = []
    for N11 in range(0, nobs.n11 + nobs.n01 + 1):
        for N10 in range(0, n - N11 + 1):
            for N01 in range(0, n - N11 - N10 + 1):
                N = PotentialTable(N11, N10, N01, n - N11 - N10 - N01)
                if is_compatible(N, nobs):
                    found.append(N)
    return found


def cell_decompositions(nobs: ObservedTable) -> list[PotentialTable]:
    """One potential table per cell-wise latent-type decomposition of nobs.

    Each observed cell's units are split over the two latent types they could
    belong to: treated responders are (1,1) or (1,0), treated non-responders
    (0,1) or (0,0), control responders (1,1) or (0,1), control non-responders
    (1,0) or (0,0). Distinct choices can repeat a table, so there are
    (n11+1)(n10+1)(n01+1)(n00+1) entries: the classical baseline's test count.
    """
    return [
        PotentialTable(a + c, nobs.n11 - a + d, b + nobs.n01 - c, nobs.n10 - b + nobs.n00 - d)
        for a in range(nobs.n11 + 1)  # treated responders of type (1,1)
        for b in range(nobs.n10 + 1)  # treated non-responders of type (0,1)
        for c in range(nobs.n01 + 1)  # control responders of type (1,1)
        for d in range(nobs.n00 + 1)  # control non-responders of type (1,0)
    ]


def _iter_potential_tables(n: int):
    for N11 in range(n + 1):
        for N10 in range(n - N11 + 1):
            for N01 in range(n - N11 - N10 + 1):
                yield PotentialTable(N11, N10, N01, n - N11 - N10 - N01)


def induced_observed(
    N: PotentialTable, m: int, split: tuple[int, int, int, int]
) -> ObservedTable:
    """Observed table produced by N under a given treated-count split."""
    x11, x10, x01, _ = split
    n11 = x11 + x10
    n01 = (N.N11 - x11) + (N.N01 - x01)
    return ObservedTable(n11, m - n11, n01, N.n - m - n01)


def coverage_by_splits(
    n: int,
    m: int,
    alpha: Fraction,
    ci_fn: Callable[[ObservedTable], tuple[int, int]],
) -> CoverageReport:
    """Exact coverage of ci_fn, split by split: O(n^3) splits per true table.

    Every split of every true table builds its induced observed table and
    looks its interval up, computing it on first sight.
    """
    cache: dict[tuple[int, int, int, int], tuple[int, int]] = {}
    cn = math.comb(n, m)
    coverages = []
    for N in _iter_potential_tables(n):
        covered = 0
        for x11, x10, x01, x00, w in _iter_splits(N, m):
            nobs = induced_observed(N, m, (x11, x10, x01, x00))
            key = nobs.as_tuple()
            ci = cache.get(key)
            if ci is None:
                ci = ci_fn(nobs)
                cache[key] = ci
            if ci[0] <= N.ntau <= ci[1]:
                covered += w
        coverages.append(Fraction(covered, cn))
    return CoverageReport(n, m, Fraction(alpha), tuple(coverages))


def at_most_rows(N01: int, N00: int, m: int, n: int) -> list[list[int]]:
    """rows[r2][j + n - m + 1]: ways to draw r2 of the N01 + N00 units with x01 <= j.

    Each row is the shared prefix row `hypergeom._at_most(N01, N00, r2)`,
    padded so that every j in [-(n - m + 1), n] is an index.
    """
    left = [0] * (n - m + 1)
    rows = []
    for r2 in range(m + 1):
        at_most = _at_most(N01, N00, r2)
        rows.append([*left, *at_most, *at_most[-1:] * (n + 1 - len(at_most))])
    return rows


def reference_covered_weight(
    N11: int,
    N10: int,
    N01: int,
    m: int,
    n: int,
    runs_at_t: list[tuple[int, list[tuple[int, int]]]],
    at_most_rows: list[list[int]],
) -> int:
    """`coverage._covered_weight` with every run weighed by prefix sums.

    Number of size-m assignments whose interval covers the true n*tau. The
    true table is (N11, N10, N01, N00), at_most_rows is
    `at_most_rows(N01, N00, m, n)` and runs_at_t is
    `coverage._covering_runs(...)` at its n*tau.
    """
    # Lists, not tuples: slices of many lengths would each fill a tuple free list.
    c11, c10 = list(_comb_row(N11)), list(_comb_row(N10))
    offset = n - m + 1 + N01
    covered = 0
    for n11, runs in runs_at_t:
        # The treated hold x11 + x10 = n11 units of type 11 or 10, and leave
        # y = N11 - x11 type-11 units in control; then n01 = y + N01 - x01, so
        # n01 >= start iff x01 <= y + N01 - start.
        y_lo = max(0, N11 - n11)
        k = min(N11, n11, N10, N11 + N10 - n11) + 1  # number of y values
        if k <= 0:
            continue
        # C(N11, x11) * C(N10, x10) for y = y_lo..y_lo + k - 1
        w = list(map(mul, c11[y_lo : y_lo + k], c10[n11 - N11 + y_lo :]))
        at_most = at_most_rows[m - n11]
        base = offset + y_lo
        for start, stop in runs:
            i, j = base - start, base - stop
            in_run = map(sub, at_most[i : i + k], at_most[j : j + k])
            covered += sum(map(mul, w, in_run))
    return covered


def _marked_weights(total: int, sample: int, marked: int) -> list[int]:
    """w[x] = C(marked, x) * C(total - marked, sample - x) for x = 0..sample.

    The weights sum to C(total, sample); w[x] is zero off the support.
    """
    a, b = _comb_row(marked), _comb_row(total - marked)
    lo, hi = max(0, sample - (total - marked)), min(sample, marked)
    return [a[x] * b[sample - x] if lo <= x <= hi else 0 for x in range(sample + 1)]


def reference_equal_tail_tables(total: int, sample: int, alpha: Fraction) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Endpoint arrays (lo[x], hi[x]) of the equal-tail inversion for all x.

    Both arrays are nondecreasing in x; the scans exploit that. Tail
    comparisons run on cleared denominators: W/cn > p/q  <=>  W*q > p*cn,
    with suffix[marked][x] the unnormalized P(X >= x).
    """
    suffix = []
    for marked in range(total + 1):
        row = [0] * (sample + 2)
        w = _marked_weights(total, sample, marked)
        for x in range(sample, -1, -1):
            row[x] = row[x + 1] + w[x]
        suffix.append(row)
    cn = comb(total, sample)
    half = alpha / 2
    p, q = half.numerator, half.denominator
    bound = p * cn
    lo = [0] * (sample + 1)
    marked = 0
    for x in range(sample + 1):
        if x > 0:
            marked = lo[x - 1]
        while suffix[marked][x] * q <= bound:
            marked += 1  # terminates: suffix[total][x] = cn and cn*q > bound
        lo[x] = marked
    hi = [0] * (sample + 1)
    marked = total
    for x in range(sample, -1, -1):
        if x < sample:
            marked = hi[x + 1]
        while (cn - suffix[marked][x + 1]) * q <= bound:
            marked -= 1  # terminates: prefix at marked=0 is cn
        hi[x] = marked
    return tuple(lo), tuple(hi)


def reference_refined_endpoints(total: int, sample: int, alpha: Fraction) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Shrunk endpoint arrays (lo[x], hi[x]) for all x, starting from equal-tail.

    Each move raises lo[x] by one together with lowering hi[sample - x] by
    one, so the tables stay symmetric under swapping the outcome labels
    (marked -> total - marked, x -> sample - x): lo[x] = total - hi[sample - x].
    A move is taken only if both arrays stay nondecreasing in x, every
    interval stays nonempty, and the exact coverage of every marked count
    stays strictly above 1 - alpha. Rounds visit x widest interval first
    (ties by x), trying the move that raises lo[x] and then the one that
    lowers hi[x], until a round takes no move. Deterministic.

    Coverage is kept per marked count on cleared denominators and updated
    by the one weight a move drops, so a trial move costs O(1).
    """
    los, his = reference_equal_tail_tables(total, sample, alpha)
    lo, hi = list(los), list(his)
    p, q = alpha.numerator, alpha.denominator
    bound = (q - p) * comb(total, sample)  # covered*q > bound <=> coverage > 1 - alpha
    weights = [_marked_weights(total, sample, marked) for marked in range(total + 1)]
    covered = [0] * (total + 1)
    for x in range(sample + 1):
        for marked in range(lo[x], hi[x] + 1):
            covered[marked] += weights[marked][x]

    def shrink(x: int) -> bool:
        # raise lo[x] and lower hi[sample - x]; by the symmetry the second
        # drops marked count total - a at sample - x with the same weight.
        # At x == y both ends of one interval move, so it must keep two counts.
        a, y = lo[x], sample - x
        if a + 1 > hi[x] - (x == y) or (x < sample and a + 1 > lo[x + 1]):
            return False
        w = weights[a][x]
        covered[a] -= w
        covered[total - a] -= w
        if covered[a] * q > bound:  # covered[] is symmetric too
            lo[x] += 1
            hi[y] -= 1
            return True
        covered[a] += w
        covered[total - a] += w
        return False

    improved = True
    while improved:
        improved = False
        for x in sorted(range(sample + 1), key=lambda x: (lo[x] - hi[x], x)):
            improved |= shrink(x)
            improved |= shrink(sample - x)
    return tuple(lo), tuple(hi)
