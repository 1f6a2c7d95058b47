"""Exact hypergeometric probabilities and exact count-parameter intervals.

X ~ HyperGeo(marked, total, sample) is the number of marked units in a simple
random sample of `sample` units drawn from `total` units of which `marked`
carry the attribute. Probabilities are exact rationals built from big-integer
binomial coefficients.

`ci_count` gives an interval for the marked count from an observed draw x,
with exact coverage at least 1 - alpha for every true value. Two
constructions share one set of endpoint tables per (total, sample, alpha):

* equal-tail (`refine=False`): keep every marked count whose two exact tail
  probabilities at x are both strictly above alpha/2;
* shrunk (`refine=True`): starting from equal-tail, endpoints move inward in
  pairs that keep the tables symmetric under swapping the outcome labels,
  while the exact coverage of every marked count stays strictly above
  1 - alpha. These follow the shrunk admissible intervals of Wang (2015),
  "Exact optimal confidence intervals for hypergeometric parameters", JASA;
  they reproduce the published Bonferroni and margin-inversion intervals of
  the six example tables exactly, and the count-based effect methods use
  them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

from .errors import InvalidLevel

__all__ = ["HyperGeomSpec", "pmf", "tail_ge", "tail_le", "ci_count"]


@dataclass(frozen=True)
class HyperGeomSpec:
    """Parameters (marked, total, sample) of a hypergeometric draw."""

    marked: int
    total: int
    sample: int

    def __post_init__(self) -> None:
        if not 0 <= self.marked <= self.total:
            raise ValueError(f"need 0 <= marked <= total, got {self}")
        if not 0 <= self.sample <= self.total:
            raise ValueError(f"need 0 <= sample <= total, got {self}")

    @property
    def support(self) -> tuple[int, int]:
        lo = max(0, self.sample - (self.total - self.marked))
        hi = min(self.sample, self.marked)
        return (lo, hi)


@lru_cache(maxsize=200_000)
def _weight(marked: int, total: int, sample: int, x: int) -> int:
    """Unnormalized pmf numerator C(marked, x) * C(total-marked, sample-x)."""
    return comb(marked, x) * comb(total - marked, sample - x)


def pmf(spec: HyperGeomSpec, x: int) -> Fraction:
    """P(X = x), exact; zero off the support."""
    lo, hi = spec.support
    if x < lo or x > hi:
        return Fraction(0)
    return Fraction(
        _weight(spec.marked, spec.total, spec.sample, x),
        comb(spec.total, spec.sample),
    )


def tail_ge(spec: HyperGeomSpec, x: int) -> Fraction:
    """P(X >= x), exact; nondecreasing in the marked count."""
    lo, hi = spec.support
    if x <= lo:
        return Fraction(1)
    if x > hi:
        return Fraction(0)
    num = sum(_weight(spec.marked, spec.total, spec.sample, j) for j in range(x, hi + 1))
    return Fraction(num, comb(spec.total, spec.sample))


def tail_le(spec: HyperGeomSpec, x: int) -> Fraction:
    """P(X <= x), exact; nonincreasing in the marked count."""
    lo, hi = spec.support
    if x >= hi:
        return Fraction(1)
    if x < lo:
        return Fraction(0)
    num = sum(_weight(spec.marked, spec.total, spec.sample, j) for j in range(lo, x + 1))
    return Fraction(num, comb(spec.total, spec.sample))


def _check_alpha(alpha: Fraction) -> Fraction:
    alpha = Fraction(alpha)
    if not 0 < alpha < 1:
        raise InvalidLevel(f"alpha must be in (0, 1), got {alpha}")
    return alpha


@lru_cache(maxsize=20_000)
def _suffix_weights(total: int, sample: int) -> tuple[tuple[int, ...], ...]:
    """suffix[marked][x] = unnormalized P(X >= x) for each marked count."""
    rows = []
    for marked in range(total + 1):
        suffix = [0] * (sample + 2)
        for x in range(sample, -1, -1):
            suffix[x] = suffix[x + 1] + _weight(marked, total, sample, x)
        rows.append(tuple(suffix))
    return tuple(rows)


@lru_cache(maxsize=20_000)
def _equal_tail_tables(total: int, sample: int, alpha: Fraction) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Endpoint arrays (lo[x], hi[x]) of the equal-tail inversion for all x.

    Both arrays are nondecreasing in x; the scans exploit that. Tail
    comparisons run on cleared denominators: W/cn > p/q  <=>  W*q > p*cn.
    """
    suffix = _suffix_weights(total, sample)
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
    covered = [0] * (total + 1)
    for x in range(sample + 1):
        for marked in range(lo[x], hi[x] + 1):
            covered[marked] += _weight(marked, total, sample, x)

    def shrink(x: int) -> bool:
        # raise lo[x] and lower hi[sample - x]; by the symmetry the second
        # drops marked count total - a at sample - x with the same weight.
        # At x == y both ends of one interval move, so it must keep two counts.
        a, y = lo[x], sample - x
        if a + 1 > hi[x] - (x == y) or (x < sample and a + 1 > lo[x + 1]):
            return False
        w = _weight(a, total, sample, x)
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


def ci_count(
    total: int,
    sample: int,
    x: int,
    alpha: Fraction,
    refine: bool = False,
) -> tuple[int, int]:
    """Exact interval for the marked count given an observed draw x.

    `refine=False` is the equal-tail inversion: it keeps every marked count
    whose two exact tail probabilities at x are both strictly above alpha/2.
    `refine=True` gives the shrunk intervals of `_refined_endpoints`, which
    are never wider and symmetric: lo(x) = total - hi(sample - x). Both
    constructions are exact (coverage at least 1 - alpha) and nondecreasing
    in x. The shrink never lowers coverage to 1 - alpha or below, but where
    the equal-tail coverage already equals 1 - alpha it stays there.
    """
    alpha = _check_alpha(alpha)
    if not 0 <= x <= sample <= total:
        raise ValueError(f"need 0 <= x <= sample <= total, got x={x}, sample={sample}, total={total}")
    los, his = (_refined_endpoints if refine else _equal_tail_tables)(total, sample, alpha)
    return los[x], his[x]
