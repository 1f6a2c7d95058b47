"""Exact count-parameter intervals for hypergeometric draws.

X ~ HyperGeo(marked, total, sample) is the number of marked units in a simple
random sample of `sample` units drawn from `total` units of which `marked`
carry the attribute. Probabilities are exact, compared on cleared
denominators with big-integer binomial coefficients.

`ci_count` gives an interval for the marked count from an observed draw x,
with exact coverage at least 1 - alpha for every true value. It is the one
construction the count-based effect methods use: the shrunk admissible
intervals of Wang (2015), "Exact optimal confidence intervals for
hypergeometric parameters", JASA. The tables are symmetric under swapping
the outcome labels, so one array of lower ends describes them: the upper end
at x is total minus the lower end at sample - x. The shrink starts from the
equal-tail inversion, which keeps every marked count whose two exact tails at
x are both strictly above alpha/2, and raises lower ends one at a time while
the exact coverage of every marked count stays strictly above 1 - alpha. The
intervals reproduce the published Bonferroni and margin-inversion intervals
of the six example tables exactly.

`_comb_row` holds the binomial coefficients that this module, `randtest` and
`coverage` read, and `_at_most` the prefix rows that `randtest` and
`coverage` share. The rows depend on three counts, not on a design, so
`_at_most` keeps every row it builds until an upper estimate of the bytes
they hold would pass `_ROW_BUDGET`, 83 MB, and then starts over empty: a
process below that budget builds each row once, whatever designs it
computes. `_guard` is the size guard of every exact computation:
`ci_count` checks it before building endpoint tables, and `randtest` and the
methods before any randomization test.
"""

from __future__ import annotations

import os
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb
from operator import mul

from .errors import InvalidLevel, ScaleGuard

__all__ = ["ci_count"]

#: Environment variable overriding the exact-computation size guard.
SCALE_GUARD_ENV = "EXACTCI_MAX_EXACT_N"
DEFAULT_MAX_EXACT_N = 300


def max_exact_n() -> int:
    """Largest n for which exact computations are allowed (env-overridable)."""
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


@lru_cache(maxsize=1024)
def _comb_row(c: int) -> tuple[int, ...]:
    """C(c, k) for k = 0..c."""
    return tuple(comb(c, k) for k in range(c + 1))


#: Upper estimate, in bytes, of the prefix rows `_at_most` may hold: at
#: least 7,400 rows of the largest at the default size guard, n = 300.
_ROW_BUDGET = 83_000_000
#: Allowance per row for its cache key, a tuple of three ints, and its dict slot.
_KEY_BYTES = 256
_held_bytes = 0  # the estimate of the rows `_at_most` holds
_rows_built = 0  # the rows `_at_most` has built since a caller last cleared it


def _row_bytes(row: tuple[int, ...]) -> int:
    """Upper estimate of the bytes a cached prefix row holds.

    The tuple, every entry sized like the last, which is the largest since
    the entries are nondecreasing, and `_KEY_BYTES`.
    """
    return sys.getsizeof(row) + len(row) * sys.getsizeof(row[-1]) + _KEY_BYTES


@lru_cache(maxsize=None)
def _at_most(N01: int, N00: int, r2: int) -> tuple[int, ...]:
    """row[j]: ways to draw r2 of the N01 + N00 units with at most j of the N01.

    The prefix sums over x01 of C(N01, x01) * C(N00, r2 - x01) for
    j = 0..min(N01, r2); the last entry is C(N01 + N00, r2) when
    r2 <= N01 + N00. Entries below r2 - N00 are zero.

    The cache is bounded by bytes, not rows, and a hit runs no Python code.
    Each build adds its `_row_bytes` to `_held_bytes`; a row that would take
    the sum past `_ROW_BUDGET` first empties the cache, with its hit and
    miss counts. `_rows_built` counts the builds across such drops; only a
    caller's `_at_most.cache_clear()` zeroes it.
    """
    global _held_bytes, _rows_built
    c01 = _comb_row(N01)[: r2 + 1]
    lo = max(0, r2 - N00)  # fewer N01 units leave more than N00 to draw
    # x01 = lo, lo + 1, ... pairs with x00 = r2 - lo, r2 - lo - 1, ...
    terms = map(mul, c01[lo:], _comb_row(N00)[r2 - lo :: -1])
    row = (0,) * min(lo, len(c01)) + tuple(accumulate(terms))
    size = _row_bytes(row)
    if _held_bytes + size > _ROW_BUDGET:
        _clear_row_cache()
        _held_bytes = 0
    _held_bytes += size
    _rows_built += 1
    return row


def _clear_rows() -> None:
    """Empty `_at_most` and zero its byte estimate and build count, so none goes stale."""
    global _held_bytes, _rows_built
    _held_bytes = _rows_built = 0
    _clear_row_cache()


# A caller's clear goes through `_clear_rows`.
_clear_row_cache, _at_most.cache_clear = _at_most.cache_clear, _clear_rows


def _check_alpha(alpha: Fraction | float) -> Fraction:
    """alpha as an exact Fraction in (0, 1).

    A float is read by its shortest decimal form, as the CLI reads the
    literal: 0.1 is 1/10, not the binary value 0.1000000000000000055...
    A valid `Fraction` is returned as it is, without a new one. A string
    that `Fraction` cannot read, such as '1/0' or 'abc', is an
    `InvalidLevel` too.
    """
    if type(alpha) is Fraction and 0 < alpha.numerator < alpha.denominator:
        return alpha
    try:
        alpha = Fraction(str(alpha)) if isinstance(alpha, float) else Fraction(alpha)
    except (ValueError, ZeroDivisionError):
        raise InvalidLevel(f"alpha must be a decimal or a fraction in (0, 1), got {alpha!r}") from None
    if not 0 < alpha < 1:
        raise InvalidLevel(f"alpha must be in (0, 1), got {alpha}")
    return alpha


def _weights(total: int, sample: int) -> list[list[int]]:
    """w[marked][x] = C(marked, x) * C(total - marked, sample - x), x = 0..sample.

    Each row sums to C(total, sample) and is zero off the support.
    """
    rows = []
    for marked in range(total + 1):
        a, b = _comb_row(marked), _comb_row(total - marked)
        lo, hi = max(0, sample - (total - marked)), min(sample, marked)
        rows.append([a[x] * b[sample - x] if lo <= x <= hi else 0 for x in range(sample + 1)])
    return rows


def _lower_ends(weights: list[list[int]], alpha: Fraction) -> list[int]:
    """lo[x], the least marked count whose exact P(X >= x) is above alpha/2.

    That tail is nondecreasing in the marked count, so lo is nondecreasing
    in x and one scan finds it. Tails are compared on cleared denominators:
    W/cn > p/q  <=>  W*q > p*cn.
    """
    half = alpha / 2
    q, bound = half.denominator, half.numerator * sum(weights[0])
    lo, marked = [], 0
    for x in range(len(weights[0])):
        while sum(weights[marked][x:]) * q <= bound:
            marked += 1  # terminates: the last row's tail is cn and cn*q > bound
        lo.append(marked)
    return lo


@lru_cache(maxsize=1024)
def _refined_endpoints(total: int, sample: int, alpha: Fraction) -> tuple[int, ...]:
    """Shrunk lower ends lo[x] for all x, starting from equal-tail.

    The upper ends are hi[x] = total - lo[sample - x], so raising lo[x]
    by one lowers hi[sample - x] by one. A move is taken only if lo stays
    nondecreasing in x (then hi does too), every interval stays nonempty,
    and the exact coverage of every marked count stays strictly above
    1 - alpha. Rounds visit x widest interval first (ties by x), trying the
    move that raises lo[x] and then the one that lowers hi[x], until a
    round takes no move. Deterministic.

    Coverage is kept per marked count on cleared denominators and updated
    by the one weight a move drops, so a trial move costs O(1).

    An entry is one tuple of sample + 1 ints: at the size guard's n = 300,
    at most 301 ints, under 12 KB with its key and cache link (10.9 KB
    measured at sample = 300), so the 1,024 entries stay under 12 MB even
    if all are that large, well under `_at_most`'s 83 MB budget. One pass of
    a benchmark workload reads at most 75 keys (coverage-sweep; 41 on
    batch-shared, none on interactive-frontier).
    """
    weights = _weights(total, sample)
    lo = _lower_ends(weights, alpha)
    p, q = alpha.numerator, alpha.denominator
    bound = (q - p) * comb(total, sample)  # covered*q > bound <=> coverage > 1 - alpha
    covered = [0] * (total + 1)
    for x in range(sample + 1):
        for marked in range(lo[x], total - lo[sample - x] + 1):
            covered[marked] += weights[marked][x]

    def shrink(x: int) -> bool:
        # raise lo[x], which lowers hi[sample - x]; by the symmetry that
        # drops marked count total - a at sample - x with the same weight.
        # At x == y both ends of one interval move, so it must keep two counts.
        a, y = lo[x], sample - x
        if a + 1 > total - lo[y] - (x == y) or (x < sample and a + 1 > lo[x + 1]):
            return False
        w = weights[a][x]
        covered[a] -= w
        covered[total - a] -= w
        if covered[a] * q > bound:  # covered[] is symmetric too
            lo[x] += 1
            return True
        covered[a] += w
        covered[total - a] += w
        return False

    improved = True
    while improved:
        improved = False
        for x in sorted(range(sample + 1), key=lambda x: (lo[x] + lo[sample - x], x)):
            improved |= shrink(x)
            improved |= shrink(sample - x)
    return tuple(lo)


def ci_count(total: int, sample: int, x: int, alpha: Fraction) -> tuple[int, int]:
    """Exact shrunk interval for the marked count given an observed draw x.

    The interval comes from `_refined_endpoints`: never wider than the
    equal-tail inversion it starts from, symmetric (lo(x) = total -
    hi(sample - x)), nondecreasing in x, and exact (coverage at least
    1 - alpha). The shrink never lowers coverage to 1 - alpha or below,
    but where the equal-tail coverage already equals 1 - alpha it stays
    there. A total above the size guard raises `ScaleGuard` before any
    table is built, whether or not the tables are cached.
    """
    alpha = _check_alpha(alpha)
    if not 0 <= x <= sample <= total:
        raise ValueError(f"need 0 <= x <= sample <= total, got x={x}, sample={sample}, total={total}")
    _guard(total)
    lo = _refined_endpoints(total, sample, alpha)
    return lo[x], total - lo[sample - x]
