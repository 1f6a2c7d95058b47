"""Exact randomization tests for the difference-in-means statistic.

Under a fixed potential table, complete randomization induces an exact
distribution of the estimate: a treatment group of size m is a uniform random
size-m subset, so the per-category treated counts (x11, x10, x01, x00) follow
a multivariate hypergeometric law. Statistics are compared on a
cleared-denominator integer scale (statistic times n*m*(n-m)) and tail
weights are big integers, so every p-value is an exact `Fraction` and every
accept/reject decision is bit-exact.

A test is decided in one of two ways:

* **Direct tail sum, O(n^2).** With the treated counts (x11, x10) fixed, the
  scaled statistic is base + n*m*x01, which increases with x01. So a one-sided
  tail is one x01 range and a two-sided tail is two. Prefix sums of
  C(N01, x01) * C(N00, r2 - x01) over x01, one table per r2 = m - x11 - x10,
  make each range one lookup; pairs whose range misses the tail are skipped,
  and a table is built only for an r2 where some range is partly in it.
* **Built distribution, O(log n).** `_scaled_atoms` enumerates every split
  once (O(n^3) big-integer weights), merges equal statistics and stores each
  atom with its upper-tail weight; a test is then two bisections.

Which one runs is a rent-or-buy choice per (potential table, m) key. The first
direct test of a key gives it a budget equal to its split count, the size of
a build; every direct test spends the work it did (the (x11, x10) pairs it
visited plus the prefix entries it built). Once the budget is spent, the next
test of the key builds the distribution, and later tests read it. So a key
tested once is never built, as in a one-off frontier scan, while tables
tested many times (coverage sweeps, batches over a shared design) build
early and then decide by bisection. The rule has no tunable constant. Both
caches are bounded: the budget record keeps the newest `_BUDGET_KEYS` keys,
and `_scaled_atoms` is an `lru_cache` of 100,000 distributions.

`null_dist` is the definitional reference, read off the built distribution.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from collections import OrderedDict
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Iterator

from .errors import DegenerateArm, ScaleGuard, SizeMismatch
from .hypergeom import _comb_row
from .tables import ObservedTable, PotentialTable

__all__ = [
    "null_dist",
    "p_one_sided",
    "p_two_sided",
    "max_exact_n",
]

#: Environment variable overriding the exact-test size guard.
SCALE_GUARD_ENV = "EXACTCI_MAX_EXACT_N"
DEFAULT_MAX_EXACT_N = 300


def max_exact_n() -> int:
    """Largest n for which exact p-values are allowed (env-overridable)."""
    raw = os.environ.get(SCALE_GUARD_ENV)
    if raw is None:
        return DEFAULT_MAX_EXACT_N
    if not raw.strip().isdecimal():
        raise ValueError(f"{SCALE_GUARD_ENV} must be a non-negative integer, got {raw!r}")
    return int(raw)


def _guard(n: int) -> None:
    cap = max_exact_n()
    if n > cap:
        raise ScaleGuard(f"exact computation requested for n={n} > limit {cap}")


def _iter_splits(N: PotentialTable, m: int) -> Iterator[tuple[int, int, int, int, int]]:
    """Yield (x11, x10, x01, x00, weight) over all treated-count splits.

    weight is the number of assignments realizing the split; weights sum to
    C(n, m).
    """
    N11, N10, N01, N00 = N.as_tuple()
    c11, c10, c01, c00 = map(_comb_row, (N11, N10, N01, N00))
    for x11 in range(max(0, m - N10 - N01 - N00), min(N11, m) + 1):
        w11 = c11[x11]
        r1 = m - x11
        for x10 in range(max(0, r1 - N01 - N00), min(N10, r1) + 1):
            w10 = w11 * c10[x10]
            r2 = r1 - x10
            for x01 in range(max(0, r2 - N00), min(N01, r2) + 1):
                x00 = r2 - x01
                yield x11, x10, x01, x00, w10 * c01[x01] * c00[x00]


@lru_cache(maxsize=100_000)
def _scaled_atoms(cells: tuple[int, int, int, int], m: int) -> tuple[tuple[int, int], ...]:
    """Atoms (statistic * n*m*(n-m), upper-tail weight) of the null distribution.

    Sorted by scaled statistic; an atom's tail weight is the total weight of
    the atoms at or above it, so the first atom's is C(n, m). Equal
    statistics are merged.
    """
    N = PotentialTable(*cells)
    n = N.n
    merged: dict[int, int] = {}
    for x11, x10, x01, x00, w in _iter_splits(N, m):
        scaled = n * ((x11 + x10) * (n - m) - (N.N11 - x11 + N.N01 - x01) * m)
        merged[scaled] = merged.get(scaled, 0) + w
    tail = 0
    atoms = []
    for scaled in sorted(merged, reverse=True):
        tail += merged[scaled]
        atoms.append((scaled, tail))
    return tuple(reversed(atoms))


def null_dist(N: PotentialTable, m: int) -> list[tuple[Fraction, Fraction]]:
    """Exact distribution of the estimate under N, as sorted (value, prob) atoms."""
    n = N.n
    if m < 1 or m > n - 1:
        raise DegenerateArm(f"need 1 <= m <= n-1, got m={m}, n={n}")
    _guard(n)
    denom = n * m * (n - m)
    cn = comb(n, m)
    atoms = _scaled_atoms(N.as_tuple(), m)
    tails = [tail for _, tail in atoms[1:]] + [0]
    return [
        (Fraction(scaled, denom), Fraction(tail - above, cn))
        for (scaled, tail), above in zip(atoms, tails)
    ]


#: Budget record of the rent-or-buy choice: (cells, m) -> work left before
#: the key's distribution is built. Oldest keys are evicted first.
_BUDGET_KEYS = 1 << 18
_budgets: OrderedDict[tuple[tuple[int, int, int, int], int], int] = OrderedDict()


def _tail_weight(cells: tuple[int, int, int, int], m: int, upper: int, lower: int | None) -> int:
    """Weight of the splits whose scaled statistic is >= upper or <= lower.

    lower=None means an upper tail only. Summed directly or read off the
    built distribution, by the rent-or-buy rule of the module docstring.
    """
    key = (cells, m)
    budget = _budgets.get(key)
    if budget is not None and budget <= 0:
        atoms = _scaled_atoms(cells, m)

        def at_or_above(t: int) -> int:
            i = bisect_left(atoms, (t,))
            return atoms[i][1] if i < len(atoms) else 0

        weight = at_or_above(upper)
        if lower is not None:
            weight += atoms[0][1] - at_or_above(lower + 1)
        return weight
    weight, work, splits = _tail_direct(cells, m, upper, lower)
    if budget is None:
        if len(_budgets) >= _BUDGET_KEYS:
            _budgets.popitem(last=False)
        budget = splits
    _budgets[key] = budget - work
    return weight


def _tail_direct(
    cells: tuple[int, int, int, int], m: int, upper: int, lower: int | None
) -> tuple[int, int, int]:
    """(tail weight, work done, split count) by x01 range sums.

    With r2 = x01 + x00 fixed, x11 + x10 = m - r2 and the scaled statistic
    of a split is base + n*m*(x11 + x01). So in each row x11 the upper tail
    is one range x01 >= k - x11 and the lower tail one range x01 <= j - x11.
    A range is the whole row (weight C(N01 + N00, r2)) or a part, read off
    the prefix sums of C(N01, x01) * C(N00, r2 - x01) over the row's x01
    from lo. Rows outside a tail are not visited, and the prefix sums are
    built only for an r2 with a part row. Work is the rows visited plus the
    prefix entries built.
    """
    N11, N10, N01, N00 = cells
    n = N11 + N10 + N01 + N00
    step = n * m
    c11, c10, c01, c00 = map(_comb_row, cells)
    weight = work = splits = 0
    for r2 in range(max(0, m - N11 - N10), min(m, N01 + N00) + 1):
        s = m - r2
        # x01 range [lo, hi] and x11 range [first, last] (conditionals are
        # cheaper than max/min calls on this path)
        lo = r2 - N00 if r2 > N00 else 0
        hi = r2 if r2 < N01 else N01
        first = s - N10 if s > N10 else 0
        last = s if s < N11 else N11
        splits += (hi - lo + 1) * (last - first + 1)
        base = n * (s * (n - m) - (N11 + N01) * m)
        k = -((base - upper) // step)  # least x11 + x01 in the upper tail
        up = range(max(first, k - hi), last + 1)
        whole_up = k - lo  # up rows from here are whole
        down, whole_down = range(0), -1
        if lower is not None:
            j = (lower - base) // step  # greatest x11 + x01 in the lower tail
            down = range(first, min(last, j - lo) + 1)
            whole_down = j - hi  # down rows up to here are whole
        if up.start < min(up.stop, whole_up) or max(down.start, whole_down + 1) < down.stop:
            pre = [0]
            for x01 in range(lo, hi + 1):
                pre.append(pre[-1] + c01[x01] * c00[r2 - x01])
            work += hi - lo + 1
        full = comb(N01 + N00, r2)
        for x11 in up:
            g = c11[x11] * c10[s - x11]
            weight += g * full if x11 >= whole_up else g * (full - pre[k - x11 - lo])
        for x11 in down:
            g = c11[x11] * c10[s - x11]
            weight += g * full if x11 <= whole_down else g * pre[j - x11 - lo + 1]
        work += len(up) + len(down)
    return weight, work, splits


def _scaled_obs(nobs: ObservedTable) -> int:
    """Observed statistic times n*m*(n-m)."""
    n, m = nobs.n, nobs.m
    return n * (nobs.n11 * (n - m) - nobs.n01 * m)


def _check_pair(N: PotentialTable, nobs: ObservedTable) -> None:
    if N.n != nobs.n:
        raise SizeMismatch(f"potential table n={N.n} vs observed n={nobs.n}")


def p_one_sided(N: PotentialTable, nobs: ObservedTable) -> Fraction:
    """Exact P(estimate >= observed estimate) under N.

    The tail is one x01 range per (x11, x10), summed directly or read off
    the built distribution (see the module docstring).
    """
    _check_pair(N, nobs)
    _guard(N.n)
    weight = _tail_weight(N.as_tuple(), nobs.m, _scaled_obs(nobs), None)
    return Fraction(weight, comb(N.n, nobs.m))


def p_two_sided(N: PotentialTable, nobs: ObservedTable) -> Fraction:
    """Exact P(|estimate - tau| >= |observed estimate - tau|) under N.

    The tail is two x01 ranges per (x11, x10), summed directly or read off
    the built distribution (see the module docstring). An observed estimate
    equal to tau gives p = 1 without a sum.
    """
    _check_pair(N, nobs)
    _guard(N.n)
    n, m = N.n, nobs.m
    t_tau = m * (n - m) * N.ntau  # tau on the same cleared-denominator scale
    margin = abs(_scaled_obs(nobs) - t_tau)
    if margin == 0:
        return Fraction(1)
    weight = _tail_weight(N.as_tuple(), m, t_tau + margin, t_tau - margin)
    return Fraction(weight, comb(n, m))
