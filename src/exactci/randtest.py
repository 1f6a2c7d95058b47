"""Exact randomization tests for the difference-in-means statistic.

Under a fixed potential table, complete randomization induces an exact
distribution of the estimate: a treatment group of size m is a uniform random
size-m subset, so the per-category treated counts (x11, x10, x01, x00) follow
a multivariate hypergeometric law. Statistics are compared on a
cleared-denominator integer scale (statistic times n*m*(n-m)) and tail
weights are big integers, so every accept/reject decision is bit-exact.

A search decides its tests by one integer comparison each. p >= alpha holds
exactly when the tail weight is at least need = ceil(alpha * C(n, m)), so
`acceptor` computes need, C(n, m) and the scaled observed statistic once per
search and returns `accepts(N11, N10, N01, N00)`, which sums the tail and
compares; it builds no table and no `Fraction`. `p_one_sided` and
`p_two_sided` return the exact `Fraction` p-value for the public API and
reuse the same tail bounds and sum, so both paths decide alike.

Every test is weighed one way, by a direct tail sum of O(n^2) lookups
(`_tail_weight`). With the treated counts (x11, x10) fixed, the scaled
statistic is base + n*m*x01, which increases with x01, so a one-sided tail is
one x01 range and a two-sided tail is two. A range that spans its row weighs
C(N01 + N00, r2), where r2 = m - x11 - x10; a part of a row is one lookup in
the row of prefix sums of C(N01, x01) * C(N00, r2 - x01) over x01,
`hypergeom._at_most(N01, N00, r2)`.

The prefix rows depend only on (N01, N00, r2), so the neighbouring tables of
a frontier scan, the repeated tests of a batch over one design and the
weighing of a coverage sweep share them. `_at_most` is an `lru_cache` of
8,192 rows. A row holds min(N01, r2) + 1 integers below 2**n; at the default
size guard, n = 300, the largest row takes about 10 KB, so the cache holds
at most about 83 MB.

`null_dist` is the definitional reference. It reads the whole null
distribution off `_scaled_atoms`, which enumerates every split once (O(n^3)
big-integer weights) and merges equal statistics; no p-value reads it.
"""

from __future__ import annotations

import os
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Callable, Iterator, Literal

from .errors import DegenerateArm, ScaleGuard, SizeMismatch
from .hypergeom import _at_most, _check_alpha, _comb_row
from .tables import ObservedTable, PotentialTable

__all__ = [
    "acceptor",
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


def _tail_weight(N11: int, N10: int, N01: int, N00: int, m: int, upper: int, lower: int | None) -> int:
    """Weight of the splits whose scaled statistic is >= upper or <= lower.

    lower=None means an upper tail only; otherwise lower < upper, so the
    tails are disjoint. With r2 = x01 + x00 fixed, x11 + x10 = m - r2 and
    the scaled statistic of a split is base + n*m*(x11 + x01). So in each
    row x11 the upper tail is one range x01 >= k - x11 and the lower tail
    one range x01 <= j - x11. A range is the whole row, of weight
    C(N01 + N00, r2), or a part, read off the prefix row
    `_at_most(N01, N00, r2)`. Rows outside a tail are not visited, and where
    every row of an r2 is whole, Vandermonde's identity sums them at once.
    """
    n = N11 + N10 + N01 + N00
    step = n * m
    c11, c10 = _comb_row(N11), _comb_row(N10)
    c1, c0 = _comb_row(N11 + N10), _comb_row(N01 + N00)
    weight = 0
    for r2 in range(max(0, m - N11 - N10), min(m, N01 + N00) + 1):
        s = m - r2
        # x01 range [lo, hi] and x11 range [first, last] (conditionals are
        # cheaper than max/min calls on this path)
        lo = r2 - N00 if r2 > N00 else 0
        hi = r2 if r2 < N01 else N01
        first = s - N10 if s > N10 else 0
        last = s if s < N11 else N11
        base = n * (s * (n - m) - (N11 + N01) * m)
        full = c0[r2]
        k = -((base - upper) // step)  # least x11 + x01 in the upper tail
        a = k - hi if k - hi > first else first  # first row in the tail
        b = k - lo if k - lo > a else a  # first whole row
        if b == first:  # every row whole: Vandermonde's identity sums them
            weight += c1[s] * full
        elif a <= last:
            for x11 in range(b, last + 1):
                weight += c11[x11] * c10[s - x11] * full
            if a < b:
                row = _at_most(N01, N00, r2)
                for x11 in range(a, min(b, last + 1)):
                    weight += c11[x11] * c10[s - x11] * (full - row[k - x11 - 1])
        if lower is None:
            continue
        j = (lower - base) // step  # greatest x11 + x01 in the lower tail
        b = j - lo if j - lo < last else last  # last row in the tail
        a = j - hi if j - hi < b else b  # last whole row
        if a == last:  # every row whole
            weight += c1[s] * full
        elif b >= first:
            for x11 in range(first, a + 1):
                weight += c11[x11] * c10[s - x11] * full
            if a < b:
                row = _at_most(N01, N00, r2)
                for x11 in range(max(a + 1, first), b + 1):
                    weight += c11[x11] * c10[s - x11] * row[j - x11]
    return weight


def _scaled_obs(nobs: ObservedTable) -> int:
    """Observed statistic times n*m*(n-m)."""
    n, m = nobs.n, nobs.m
    return n * (nobs.n11 * (n - m) - nobs.n01 * m)


def _two_sided_weight(N11: int, N10: int, N01: int, N00: int, m: int, obs: int, mm: int) -> int | None:
    """Two-sided tail weight at scaled observed statistic obs, mm = m*(n-m).

    None when the observed estimate equals tau: every split is then as
    extreme (p = 1), and the two tails would overlap, so there is no sum.
    """
    t_tau = mm * (N10 - N01)  # tau on the same cleared-denominator scale
    margin = obs - t_tau if obs > t_tau else t_tau - obs
    if margin == 0:
        return None
    return _tail_weight(N11, N10, N01, N00, m, t_tau + margin, t_tau - margin)


def acceptor(
    nobs: ObservedTable,
    alpha: Fraction,
    statistic: Literal["one_sided", "two_sided"] = "two_sided",
) -> Callable[[int, int, int, int], bool]:
    """accepts(N11, N10, N01, N00): whether the test of that table against nobs has p >= alpha.

    The table must have nobs's size n. The size guard, alpha and statistic
    are checked here, once, so a refusal comes before any test. p >= alpha
    is decided as weight >= need = ceil(alpha * C(n, m)), an integer
    comparison equivalent to the `Fraction` one.
    """
    alpha = _check_alpha(alpha)
    n, m = nobs.n, nobs.m
    _guard(n)
    need = -(-alpha.numerator * comb(n, m) // alpha.denominator)
    obs = _scaled_obs(nobs)
    if statistic == "one_sided":

        def accepts(N11: int, N10: int, N01: int, N00: int) -> bool:
            return _tail_weight(N11, N10, N01, N00, m, obs, None) >= need

    elif statistic == "two_sided":
        mm = m * (n - m)

        def accepts(N11: int, N10: int, N01: int, N00: int) -> bool:
            weight = _two_sided_weight(N11, N10, N01, N00, m, obs, mm)
            return weight is None or weight >= need

    else:
        raise ValueError(f"unknown statistic {statistic!r}; expected 'one_sided' or 'two_sided'")
    return accepts


def _check_pair(N: PotentialTable, nobs: ObservedTable) -> None:
    if N.n != nobs.n:
        raise SizeMismatch(f"potential table n={N.n} vs observed n={nobs.n}")


def p_one_sided(N: PotentialTable, nobs: ObservedTable) -> Fraction:
    """Exact P(estimate >= observed estimate) under N."""
    _check_pair(N, nobs)
    _guard(N.n)
    weight = _tail_weight(*N.as_tuple(), nobs.m, _scaled_obs(nobs), None)
    return Fraction(weight, comb(N.n, nobs.m))


def p_two_sided(N: PotentialTable, nobs: ObservedTable) -> Fraction:
    """Exact P(|estimate - tau| >= |observed estimate - tau|) under N.

    An observed estimate equal to tau gives p = 1 without a sum.
    """
    _check_pair(N, nobs)
    _guard(N.n)
    n, m = N.n, nobs.m
    weight = _two_sided_weight(*N.as_tuple(), m, _scaled_obs(nobs), m * (n - m))
    return Fraction(1) if weight is None else Fraction(weight, comb(n, m))
