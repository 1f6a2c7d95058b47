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
`Fraction`. It returns REJECT (false), ACCEPT_UPPER when the upper tail
alone reaches need, or ACCEPT when that takes the lower tail too; every
frontier scan, one-sided or two-sided, whatever its design, seeds its
accept rule from ACCEPT_UPPER alone, the one-sided test below the estimate.
`p_one_sided` and `p_two_sided` return the exact `Fraction` p-value for the
public API from the same tail-sum body, `_tail_weight`, run to its end, so
both paths decide alike.

A search computes its tests' constants once, among them the binomial rows
of every count up to n as one tuple (`_comb_rows`, the newest n's held), so
a test makes no `_comb_row` call, and one with a nonzero margin runs one
`_tail_weight` sum. Outside a coverage sweep no decision is kept from one
test or search to the next. Within one, `coverage.exact_coverage_sweep`
sets `_sweep_thresholds` to a fresh store, and `acceptor` wraps its decision
function in `_held`: for a fixed table the decision is a step function of
the observed statistic, so four exact thresholds per table answer the
queries they place without a sum, and the store dies with its sweep. It
holds 4*(n + 1)**3 slots per (n, m, need, statistic) group: 13,500 at
n = 14, 275,684 at n = 40.

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
  per slice across both tails, negated if the lower tail was needed. That
  decides the test, and which tail reached need, as the full sums would,
  since the weight only grows. The public p-values pass no stop.

The prefix rows depend only on (N01, N00, r2) of the table or its mirror,
so the neighbouring tables of a frontier scan, the CIs of one process over
many designs and the weighing of a coverage sweep share them. `_at_most` is
an `lru_cache` bounded by an upper estimate of its bytes, 83 MB, not by a
row count, so a process below that builds each row once. A row holds
min(N01, r2) + 1 integers below 2**n; at the default size guard, n = 300,
the largest row is estimated at about 11 KB, so the budget holds at least
7,400 rows.

`null_dist` is the definitional reference. It reads the whole null
distribution off `_scaled_atoms`, which enumerates every split once (O(n^3)
big-integer weights) and merges equal statistics; no p-value reads it.
"""

from __future__ import annotations

from contextvars import ContextVar
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Callable, Iterator, Literal

from .errors import DegenerateArm
from .hypergeom import _at_most, _check_alpha, _comb_row, _guard
from .tables import ObservedTable, PotentialTable, _check_pair

__all__ = [
    "ACCEPT",
    "ACCEPT_UPPER",
    "REJECT",
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


@lru_cache(maxsize=1)
def _comb_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """rows[c] = C(c, k) for k = 0..c, for every count c = 0..n of a size-n table; the newest n's are held."""
    return tuple(map(_comb_row, range(n + 1)))


def _tail_weight(
    N11: int,
    N10: int,
    N01: int,
    N00: int,
    m: int,
    upper: int,
    lower: int | None = None,
    stop: int | None = None,
    rows: tuple[tuple[int, ...], ...] | None = None,
) -> int:
    """Weight of the splits whose scaled statistic is >= upper or <= lower.

    lower=None means an upper tail only; otherwise lower < upper, so the
    tails are disjoint. The scaled statistic is A*s + B*u - n*m*(N11 + N01),
    with s = x11 + x10, u = x11 + x01, A = n*(n - m) and B = n*m. When
    2*m > n, the table is summed transposed, (N11, N01, N10, N00), with A
    and B exchanged: that exchanges s and u and leaves every split's
    statistic, and so the weight, unchanged. Either way A >= B below.
    rows, if given, is `_comb_rows(n)`; `acceptor` reads it once per search
    and passes it.

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
    once per slice, and reports which tail took it there: the weight so far
    if the upper tail alone did, minus the weight so far if the lower
    tail's slices were needed too. So the result is >= stop exactly when
    the upper tail's weight is, <= -stop exactly when only both tails
    together reach stop, and otherwise it is the full weight, below stop.
    """
    n = N11 + N10 + N01 + N00
    nm = n * m
    upper += nm * (N11 + N01)  # the statistic plus nm*(N11 + N01) is A*s + B*u
    if lower is not None:
        # {statistic <= lower} is the mirror's {statistic >= -lower}, and
        # the mirror's statistic plus nm*(N00 + N10) is its A*s + B*u
        lower = nm * (N00 + N10) - lower
    if 2 * m > n:
        N10, N01 = N01, N10
        A, B = nm, n * (n - m)
    else:
        A, B = n * (n - m), nm
    if rows is None:
        rows = _comb_rows(n)
    weight, sign = 0, 1  # sign turns -1 on the mirror
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
                return sign * weight
        if lower is None:
            return weight
        # the mirror of the transposed table is the transposed mirror, so
        # the mirror of the table just summed is summed next
        N11, N10, N01, N00, upper, lower, sign = N00, N01, N10, N11, lower, None, -1


def _scaled_obs(nobs: ObservedTable) -> int:
    """Observed statistic times n*m*(n-m)."""
    n, m = nobs.n, nobs.m
    return n * (nobs.n11 * (n - m) - nobs.n01 * m)


#: What a decision function returns. Only REJECT is false. ACCEPT_UPPER is
#: an accept whose upper tail {statistic >= upper} alone reaches need;
#: ACCEPT is one that needs the lower tail too, or a two-sided margin of 0.
REJECT, ACCEPT, ACCEPT_UPPER = 0, 1, 2

#: The decision thresholds of the coverage sweep running in this context, or
#: None outside one. `coverage.exact_coverage_sweep` sets a fresh dict around
#: its method calls and resets it after; `acceptor` keys it by
#: (n, m, need, statistic).
_sweep_thresholds: ContextVar[dict | None] = ContextVar("sweep_thresholds", default=None)


def acceptor(
    nobs: ObservedTable,
    alpha: Fraction,
    statistic: Literal["one_sided", "two_sided"] = "two_sided",
) -> Callable[[int, int, int, int], int]:
    """accepts(N11, N10, N01, N00): the test of that table against nobs, as REJECT, ACCEPT or ACCEPT_UPPER.

    The result is false exactly when p < alpha. An accept is ACCEPT_UPPER
    when the upper tail alone reaches need: the tail {statistic >= obs} of a
    one-sided test, so every one-sided accept; and of a two-sided one, the
    tail {statistic >= tau + margin}, which for a table with effect at most
    the estimate is the one-sided tail again. A two-sided margin of 0
    (p = 1) is ACCEPT without a sum. The table must have nobs's size n. The
    size guard, alpha and statistic are checked here, once, so a refusal
    comes before any test. p >= alpha is decided as weight >= need =
    ceil(alpha * C(n, m)), an integer comparison equivalent to the
    `Fraction` one, by one stopped `_tail_weight` walk, whose sign tells
    which tail reached need.

    need, m*(n - m), the scaled observed statistic and the binomial rows
    `_comb_rows(n)`, which `_tail_weight` indexes by count, are computed
    once per search, after the checks. Outside a coverage sweep the rows,
    which depend on n alone, are all that outlives a search: every test
    with a nonzero margin, one-sided or two-sided, runs its own sum, so no
    decision depends on what ran before. Inside a sweep (`_sweep_thresholds`
    is set) the function returned is `_held`'s wrapper of that same one: it
    reads and updates the sweep's thresholds of the (n, m, need, statistic)
    group, allocated on the group's first search, and sums only the queries
    they do not place. Its decisions are the same, exactly.
    """
    alpha = _check_alpha(alpha)
    n, m = nobs.n, nobs.m
    _guard(n)
    if statistic not in ("one_sided", "two_sided"):
        raise ValueError(f"unknown statistic {statistic!r}; expected 'one_sided' or 'two_sided'")
    need = -(-alpha.numerator * comb(n, m) // alpha.denominator)
    rows = _comb_rows(n)
    mm = m * (n - m)
    obs = _scaled_obs(nobs)
    two_sided = statistic == "two_sided"

    def accepts(N11: int, N10: int, N01: int, N00: int) -> int:
        if two_sided:
            t_tau = mm * (N10 - N01)  # tau on the same cleared-denominator scale
            margin = obs - t_tau if obs > t_tau else t_tau - obs
            if not margin:
                return ACCEPT  # p = 1; the two tails would overlap
            weight = _tail_weight(N11, N10, N01, N00, m, t_tau + margin, t_tau - margin, need, rows)
        else:
            weight = _tail_weight(N11, N10, N01, N00, m, obs, None, need, rows)
        return ACCEPT_UPPER if weight >= need else ACCEPT if weight < 0 else REJECT

    store = _sweep_thresholds.get()
    if store is None:
        return accepts
    key = (n, m, need, statistic)
    if key not in store:
        slots, big = (n + 1) ** 3, n**3  # |obs| <= n*m*(n - m) < n**3
        store[key] = ([-big] * slots, [big] * slots, [-big] * slots, [big] * slots)
    return _held(accepts, store[key], n, mm, obs, two_sided)


def _held(
    accepts: Callable[[int, int, int, int], int],
    group: tuple[list[int], list[int], list[int], list[int]],
    n: int,
    mm: int,
    obs: int,
    two_sided: bool,
) -> Callable[[int, int, int, int], int]:
    """accepts, answered from a sweep's thresholds where they place obs.

    For a fixed table the upper tail {statistic >= obs} shrinks as obs
    grows, and so, once obs is above tau, does the two-sided tail. So the
    table's decision is a step function of obs: ACCEPT_UPPER up to some c1,
    then ACCEPT up to some c2 >= c1, then REJECT. group holds four flat
    lists, indexed by (N11*(n + 1) + N10)*(n + 1) + N01: the greatest obs
    decided ACCEPT_UPPER, the least obs not ACCEPT_UPPER, the greatest obs
    accepted and the least obs REJECTed, each a sentinel outside every obs
    until a sum sets it. A query they place is answered without a sum, and
    only a sum's decision updates them, so every answer is exact. A
    one-sided test is never ACCEPT, so its greatest accepted obs stays the
    sentinel. A two-sided test holds only tables with tau below the
    estimate: at tau equal to it the margin is 0 and the test is ACCEPT
    without a sum, and above it the margin grows as obs falls, so the steps
    run the other way.
    """
    upper_hi, upper_lo, accept_hi, reject_lo = group
    n1 = n + 1

    def held(N11: int, N10: int, N01: int, N00: int) -> int:
        if two_sided and mm * (N10 - N01) >= obs:
            return accepts(N11, N10, N01, N00)  # tau at or above the estimate: not held
        i = (N11 * n1 + N10) * n1 + N01
        if obs <= upper_hi[i]:
            return ACCEPT_UPPER
        if obs >= reject_lo[i]:
            return REJECT
        if upper_lo[i] <= obs <= accept_hi[i]:
            return ACCEPT
        decided = accepts(N11, N10, N01, N00)
        if decided == ACCEPT_UPPER:
            upper_hi[i] = obs
        else:
            if obs < upper_lo[i]:
                upper_lo[i] = obs
            if not decided:
                reject_lo[i] = obs
            elif obs > accept_hi[i]:
                accept_hi[i] = obs
        return decided

    return held


def p_one_sided(N: PotentialTable, nobs: ObservedTable) -> Fraction:
    """Exact P(estimate >= observed estimate) under N."""
    _check_pair(N, nobs)
    _guard(N.n)
    n, m = N.n, nobs.m
    weight = _tail_weight(*N.as_tuple(), m, _scaled_obs(nobs))
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
    weight = _tail_weight(*N.as_tuple(), m, t_tau + margin, t_tau - margin)
    return Fraction(weight, comb(n, m))
