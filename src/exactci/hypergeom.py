"""Exact count-parameter intervals for hypergeometric draws.

X ~ HyperGeo(marked, total, sample) is the number of marked units in a simple
random sample of `sample` units drawn from `total` units of which `marked`
carry the attribute. Probabilities are exact, compared on cleared
denominators with big-integer binomial coefficients.

`ci_count` gives an interval for the marked count from an observed draw x,
with exact coverage at least 1 - alpha for every true value. It is the one
construction the count-based effect methods use: the shrunk admissible
intervals of Wang (2015), "Exact optimal confidence intervals for
hypergeometric parameters", JASA. The shrink starts from the equal-tail
inversion, which keeps every marked count whose two exact tail probabilities
at x are both strictly above alpha/2, and moves endpoints inward in pairs
that keep the tables symmetric under swapping the outcome labels, while the
exact coverage of every marked count stays strictly above 1 - alpha. The
intervals reproduce the published Bonferroni and margin-inversion intervals
of the six example tables exactly.

`_comb_row` holds the binomial coefficients that this module, `randtest` and
`coverage` read, and `_at_most` the prefix rows that `randtest` and
`coverage` share.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb
from operator import mul

from .errors import InvalidLevel

__all__ = ["ci_count"]


@lru_cache(maxsize=1024)
def _comb_row(c: int) -> tuple[int, ...]:
    """C(c, k) for k = 0..c."""
    return tuple(comb(c, k) for k in range(c + 1))


@lru_cache(maxsize=1 << 13)
def _at_most(N01: int, N00: int, r2: int) -> tuple[int, ...]:
    """row[j]: ways to draw r2 of the N01 + N00 units with at most j of the N01.

    The prefix sums over x01 of C(N01, x01) * C(N00, r2 - x01) for
    j = 0..min(N01, r2); the last entry is C(N01 + N00, r2) when
    r2 <= N01 + N00. Entries below r2 - N00 are zero.
    """
    c01 = _comb_row(N01)[: r2 + 1]
    lo = max(0, r2 - N00)  # fewer N01 units leave more than N00 to draw
    # x01 = lo, lo + 1, ... pairs with x00 = r2 - lo, r2 - lo - 1, ...
    terms = map(mul, c01[lo:], _comb_row(N00)[r2 - lo :: -1])
    return (0,) * min(lo, len(c01)) + tuple(accumulate(terms))


def _check_alpha(alpha: Fraction | float) -> Fraction:
    """alpha as an exact Fraction in (0, 1).

    A float is read by its shortest decimal form, as the CLI reads the
    literal: 0.1 is 1/10, not the binary value 0.1000000000000000055...
    """
    alpha = Fraction(str(alpha)) if isinstance(alpha, float) else Fraction(alpha)
    if not 0 < alpha < 1:
        raise InvalidLevel(f"alpha must be in (0, 1), got {alpha}")
    return alpha


def _weights(total: int, sample: int, marked: int) -> list[int]:
    """w[x] = C(marked, x) * C(total - marked, sample - x) for x = 0..sample.

    The weights sum to C(total, sample); w[x] is zero off the support.
    """
    a, b = _comb_row(marked), _comb_row(total - marked)
    lo, hi = max(0, sample - (total - marked)), min(sample, marked)
    return [a[x] * b[sample - x] if lo <= x <= hi else 0 for x in range(sample + 1)]


def _equal_tail_tables(total: int, sample: int, alpha: Fraction) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Endpoint arrays (lo[x], hi[x]) of the equal-tail inversion for all x.

    Both arrays are nondecreasing in x; the scans exploit that. Tail
    comparisons run on cleared denominators: W/cn > p/q  <=>  W*q > p*cn,
    with suffix[marked][x] the unnormalized P(X >= x).
    """
    suffix = []
    for marked in range(total + 1):
        row = [0] * (sample + 2)
        w = _weights(total, sample, marked)
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


@lru_cache(maxsize=10_000)
def _refined_endpoints(total: int, sample: int, alpha: Fraction) -> tuple[tuple[int, ...], tuple[int, ...]]:
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
    los, his = _equal_tail_tables(total, sample, alpha)
    lo, hi = list(los), list(his)
    p, q = alpha.numerator, alpha.denominator
    bound = (q - p) * comb(total, sample)  # covered*q > bound <=> coverage > 1 - alpha
    weights = [_weights(total, sample, marked) for marked in range(total + 1)]
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


def ci_count(total: int, sample: int, x: int, alpha: Fraction) -> tuple[int, int]:
    """Exact shrunk interval for the marked count given an observed draw x.

    The interval comes from `_refined_endpoints`: never wider than the
    equal-tail inversion it starts from, symmetric (lo(x) = total -
    hi(sample - x)), nondecreasing in x, and exact (coverage at least
    1 - alpha). The shrink never lowers coverage to 1 - alpha or below,
    but where the equal-tail coverage already equals 1 - alpha it stays
    there.
    """
    alpha = _check_alpha(alpha)
    if not 0 <= x <= sample <= total:
        raise ValueError(f"need 0 <= x <= sample <= total, got x={x}, sample={sample}, total={total}")
    los, his = _refined_endpoints(total, sample, alpha)
    return los[x], his[x]
