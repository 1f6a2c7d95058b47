"""Exact randomization tests for the difference-in-means statistic.

Under a fixed potential table, complete randomization induces an exact
distribution of the estimate: a treatment group of size m is a uniform random
size-m subset, so the per-category treated counts (x11, x10, x01, x00) follow
a multivariate hypergeometric law. Statistics are compared on a
cleared-denominator integer scale (statistic times n*m*(n-m)) and tail
weights are big integers, so every accept/reject decision is bit-exact.

A search decides its tests by one integer comparison each. p >= alpha holds
exactly when the tail weight is at least need = ceil(alpha * C(n, m)), so
`acceptor` computes need and the scaled observed statistic once per search
and returns `accepts(N11, N10, N01, N00)`, which builds no table and no
`Fraction`. `p_one_sided` and `p_two_sided` return the exact `Fraction`
p-value for the public API from the same tail-sum body, `_tail_weight`, run
to its end, so both paths decide alike.

Every search of one group (n, m, need, statistic) draws its decisions from
that group's decision kernel (see `acceptor`): constants hoisted out of the
tests, among them the binomial rows of every count up to n as one tuple
(`_comb_rows`), so a test makes no `_comb_row` call and calls `_tail_weight`
directly; and exact decision bounds, so that a test already settled by an
earlier decision on the same table runs no sum. The tail weight never increases
as the observed statistic (one-sided) or the margin |obs - tau| (two-sided)
grows, which makes the bounds exact. One kernel is held, the newest group's
(`_kernel`); a coverage sweep or a frontier CI uses one group.

Every test is weighed one way, by a direct tail sum of O(n^2) lookups
(`_tail_weight`). The scaled statistic is A*s + B*u + C, with s = x11 + x10,
u = x11 + x01, A = n*(n - m), B = n*m and C = -n*m*(N11 + N01).
- Orientation: the sum takes the slices of fixed s, which needs A >= B. For
  m > n - m it sums the transposed table (N11, N01, N10, N00) with A and B
  exchanged, which exchanges s and u and gives the same weight. One loop
  serves every m.
- Slices: with s fixed, r2 = m - s = x01 + x00 and the statistic increases
  with u, so in each row x11 the upper tail is one x01 range. A range that
  spans its row weighs C(N01 + N00, r2); a part of a row is one lookup in
  the row of prefix sums of C(N01, x01) * C(N00, r2 - x01) over x01,
  `hypergeom._at_most(N01, N00, r2)`.
- Walks: a step from r2 to r2 + 1 lowers s by one and raises the slice's
  greatest u by at most one, so it changes the slice's greatest statistic
  by at most B - A <= 0. The upper tail is a prefix of the slices, so the
  walk goes up from the least r2 and stops at its first slice with no split
  in the tail; later slices are not visited. One walk serves both tails:
  the outcome-label mirror (N00, N01, N10, N11) negates the statistic under
  every assignment, so a lower tail {statistic <= lower} is summed as the
  mirror's upper tail {statistic >= -lower}.
- Stop: a search's sum returns once its weight reaches need, checked once
  per slice across both tails. That decides the test as the full sum
  would, since the weight only grows. The public p-values pass no stop.

The prefix rows depend only on (N01, N00, r2) of the table or its mirror,
so the neighbouring tables of a frontier scan, the repeated tests of a batch
over one design and the weighing of a coverage sweep share them. `_at_most`
is an `lru_cache` of 8,192 rows. A row holds min(N01, r2) + 1 integers below
2**n; at the default size guard, n = 300, the largest row takes about 10 KB,
so the cache holds at most about 83 MB.

`null_dist` is the definitional reference. It reads the whole null
distribution off `_scaled_atoms`, which enumerates every split once (O(n^3)
big-integer weights) and merges equal statistics; no p-value reads it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Callable, Iterator, Literal

from .errors import DegenerateArm
from .hypergeom import _at_most, _check_alpha, _comb_row, _guard
from .tables import ObservedTable, PotentialTable, _check_pair

__all__ = [
    "acceptor",
    "null_dist",
    "p_one_sided",
    "p_two_sided",
]


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
    """Atoms (statistic * n*m*(n-m), weight) of the null distribution.

    Sorted by scaled statistic; equal statistics are merged.
    """
    N = PotentialTable(*cells)
    n = N.n
    merged: dict[int, int] = {}
    for x11, x10, x01, x00, w in _iter_splits(N, m):
        scaled = n * ((x11 + x10) * (n - m) - (N.N11 - x11 + N.N01 - x01) * m)
        merged[scaled] = merged.get(scaled, 0) + w
    return tuple(sorted(merged.items()))


def null_dist(N: PotentialTable, m: int) -> list[tuple[Fraction, Fraction]]:
    """Exact distribution of the estimate under N, as sorted (value, prob) atoms."""
    n = N.n
    if m < 1 or m > n - 1:
        raise DegenerateArm(f"need 1 <= m <= n-1, got m={m}, n={n}")
    _guard(n)
    denom, cn = n * m * (n - m), comb(n, m)
    return [(Fraction(scaled, denom), Fraction(w, cn)) for scaled, w in _scaled_atoms(N.as_tuple(), m)]


def _comb_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """rows[c] = C(c, k) for k = 0..c, for every count c = 0..n of a size-n table."""
    return tuple(map(_comb_row, range(n + 1)))


def _tail_weight(
    N11: int,
    N10: int,
    N01: int,
    N00: int,
    m: int,
    swap: bool,
    upper: int,
    lower: int | None = None,
    stop: int | None = None,
    rows: tuple[tuple[int, ...], ...] | None = None,
) -> int:
    """Weight of the splits whose scaled statistic is >= upper or <= lower.

    lower=None means an upper tail only; otherwise lower < upper, so the
    tails are disjoint. swap must be 2*m > n; the caller decides it once per
    design. The scaled statistic is A*s + B*u - n*m*(N11 + N01), with
    s = x11 + x10, u = x11 + x01, A = n*(n - m) and B = n*m. When swap is
    set, the table is summed transposed, (N11, N01, N10, N00), with A and B
    exchanged: that exchanges s and u and leaves every split's statistic,
    and so the weight, unchanged. Either way A >= B below. rows, if given,
    is `_comb_rows(n)`; `acceptor` reads it once per search and passes it.

    One walk sums both tails. The outcome-label mirror (N00, N01, N10, N11)
    negates the scaled statistic under every assignment, so the lower tail
    {statistic <= lower} weighs what the mirror's upper tail
    {statistic >= -lower} weighs; the walk runs on the table at upper, then
    on the mirror at -lower.

    A slice fixes r2 = m - s. Within it the statistic is base + B*u, so in
    each row x11 the upper tail is one range of the slice's other treated
    count. A range is the whole row, of weight C(N01 + N00, r2), or a part,
    read off the prefix row `_at_most(N01, N00, r2)`, and where every row of
    a slice is whole, Vandermonde's identity sums them at once. Going from
    r2 to r2 + 1, s falls by one and the greatest u rises by at most one, so
    a slice's greatest statistic changes by at most B - A <= 0: the upper
    tail is a prefix of the slices, and the walk goes up from the least r2
    and ends at its first slice with no split in the tail.

    With stop, the sum returns as soon as the weight is >= stop, checked
    once per slice; the result is then >= stop exactly when the full weight
    is, but it need not be the full weight.
    """
    n = N11 + N10 + N01 + N00
    nm = n * m
    upper += nm * (N11 + N01)  # the statistic plus nm*(N11 + N01) is A*s + B*u
    if lower is not None:
        # {statistic <= lower} is the mirror's {statistic >= -lower}, and
        # the mirror's statistic plus nm*(N00 + N10) is its A*s + B*u
        lower = nm * (N00 + N10) - lower
    if swap:
        N10, N01 = N01, N10
        A, B = nm, n * (n - m)
    else:
        A, B = n * (n - m), nm
    if rows is None:
        rows = _comb_rows(n)
    weight = 0
    while True:
        c11, c10 = rows[N11], rows[N10]
        c1, c0 = rows[N11 + N10], rows[N01 + N00]
        r_least = m - N11 - N10 if m > N11 + N10 else 0
        r_most = N01 + N00 if N01 + N00 < m else m
        for r2 in range(r_least, r_most + 1):
            s = m - r2
            # u = x11 + x01 with x01 in [lo, hi] and x11 in [first, last]
            # (conditionals are cheaper than max/min calls on this path)
            lo = r2 - N00 if r2 > N00 else 0
            hi = r2 if r2 < N01 else N01
            first = s - N10 if s > N10 else 0
            last = s if s < N11 else N11
            k = -((A * s - upper) // B)  # least u in the tail
            a = k - hi if k - hi > first else first  # first row in the tail
            if a > last:
                break  # neither this slice nor any later one reaches upper
            b = k - lo if k - lo > a else a  # first whole row
            full = c0[r2]
            if b == first:  # every row whole: Vandermonde's identity sums them
                weight += c1[s] * full
            else:
                whole = 0
                for x11 in range(b, last + 1):
                    whole += c11[x11] * c10[s - x11]
                weight += whole * full
                if a < b:
                    row = _at_most(N01, N00, r2)
                    for x11 in range(a, b if b <= last else last + 1):
                        weight += c11[x11] * c10[s - x11] * (full - row[k - x11 - 1])
            if stop is not None and weight >= stop:
                return weight
        if lower is None:
            return weight
        # the mirror of the transposed table is the transposed mirror, so
        # the mirror of the table just summed is summed next
        N11, N10, N01, N00, upper, lower = N00, N01, N10, N11, lower, None


def _scaled_obs(nobs: ObservedTable) -> int:
    """Observed statistic times n*m*(n-m)."""
    n, m = nobs.n, nobs.m
    return n * (nobs.n11 * (n - m) - nobs.n01 * m)


@lru_cache(maxsize=1)
def _kernel(n: int, m: int, need: int, statistic: str) -> tuple[tuple[tuple[int, ...], ...], dict, dict]:
    """The newest group's kernel: (`_comb_rows(n)`, accepted, rejected).

    accepted and rejected map a tested table (N11, N10, N01) to the largest
    key accepted and the least key rejected; a new group starts them empty.
    """
    return _comb_rows(n), {}, {}


def acceptor(
    nobs: ObservedTable,
    alpha: Fraction,
    statistic: Literal["one_sided", "two_sided"] = "two_sided",
) -> Callable[[int, int, int, int], bool]:
    """accepts(N11, N10, N01, N00): whether the test of that table against nobs has p >= alpha.

    The table must have nobs's size n. The size guard, alpha and statistic
    are checked here, once, so a refusal comes before any test. p >= alpha
    is decided as weight >= need = ceil(alpha * C(n, m)), an integer
    comparison equivalent to the `Fraction` one, and each sum stops once it
    reaches need.

    The decision function draws on its group's kernel, group = (n, m, need,
    statistic):
    - Constants, computed once per search: need, the sums' orientation
      (swap = 2*m > n), m*(n - m) and the scaled observed statistic; and,
      once per group, the binomial rows `_comb_rows(n)`, which
      `_tail_weight` indexes by count.
    - Exact decision bounds, shared by every search of the group: for each
      tested table (N11, N10, N01), the largest key accepted so far and the
      least key rejected. The key is the scaled observed statistic of a
      one-sided test and the margin |obs - m*(n - m)*(N10 - N01)| of a
      two-sided one. For a fixed table and m the tail {statistic >= key},
      or {|statistic - tau| >= key}, only shrinks as the key grows, so the
      weight never increases: a key at or below the accepted bound has
      weight >= need and accepts, and a key at or above the rejected bound
      rejects, each without a sum. Only a key between the two is summed,
      and its decision moves one bound. A two-sided margin of 0 (p = 1)
      accepts without a sum. Keying the group by need, not alpha, keeps
      every decision weight >= need, so the bounds decide exactly as the
      sums would, and no result depends on what the bounds hold.
    One kernel is held, the newest group's (`_kernel`): a coverage sweep or
    a frontier CI uses one group, and a search of another group starts that
    group's rows and bounds anew. The kernel is read only after the checks.
    """
    alpha = _check_alpha(alpha)
    n, m = nobs.n, nobs.m
    _guard(n)
    if statistic not in ("one_sided", "two_sided"):
        raise ValueError(f"unknown statistic {statistic!r}; expected 'one_sided' or 'two_sided'")
    need = -(-alpha.numerator * comb(n, m) // alpha.denominator)
    rows, accepted, rejected = _kernel(n, m, need, statistic)
    accepted_key, rejected_key = accepted.get, rejected.get
    swap, mm = 2 * m > n, m * (n - m)
    obs = _scaled_obs(nobs)
    ceiling = 2 * n * mm + 1  # above every key
    two_sided = statistic == "two_sided"
    floor = 0 if two_sided else -ceiling  # a two-sided margin of 0 accepts: p = 1

    def accepts(N11: int, N10: int, N01: int, N00: int) -> bool:
        if two_sided:
            t_tau = mm * (N10 - N01)  # tau on the same cleared-denominator scale
            key = obs - t_tau if obs > t_tau else t_tau - obs
            upper, lower = t_tau + key, t_tau - key
        else:
            key = upper = obs
            lower = None
        cell = N11, N10, N01
        if key <= accepted_key(cell, floor):
            return True
        if key >= rejected_key(cell, ceiling):
            return False
        if _tail_weight(N11, N10, N01, N00, m, swap, upper, lower, need, rows) >= need:
            accepted[cell] = key
            return True
        rejected[cell] = key
        return False

    return accepts


def p_one_sided(N: PotentialTable, nobs: ObservedTable) -> Fraction:
    """Exact P(estimate >= observed estimate) under N."""
    _check_pair(N, nobs)
    _guard(N.n)
    n, m = N.n, nobs.m
    weight = _tail_weight(*N.as_tuple(), m, 2 * m > n, _scaled_obs(nobs))
    return Fraction(weight, comb(n, m))


def p_two_sided(N: PotentialTable, nobs: ObservedTable) -> Fraction:
    """Exact P(|estimate - tau| >= |observed estimate - tau|) under N.

    An observed estimate equal to tau gives p = 1 without a sum; the two
    tails would overlap there.
    """
    _check_pair(N, nobs)
    _guard(N.n)
    n, m = N.n, nobs.m
    t_tau = m * (n - m) * (N.N10 - N.N01)
    margin = abs(_scaled_obs(nobs) - t_tau)
    if margin == 0:
        return Fraction(1)
    weight = _tail_weight(*N.as_tuple(), m, 2 * m > n, t_tau + margin, t_tau - margin)
    return Fraction(weight, comb(n, m))
