"""Seeded inputs for the three workloads.

Every workload is a fixed list of operations derived from the seed alone, so
one seed always yields the same operations in the same order. Designs are
fixed. The observed cells of operation i are drawn at random near point i of
a two-dimensional low-discrepancy sequence (uniform within a small jitter in each
coordinate), so every seed draws new tables, they cover the cell space
evenly, and each operation's cost stays close across seeds. That matters
most for the first rows of a shared design, which pay its cold builds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("interactive-frontier", "batch-shared", "coverage-sweep")
SCALES = ("full", "toy")

# CLI method names of the five non-brute-force methods.
MIXED_METHODS = ("two-sided", "one-sided-lower", "one-sided-upper", "bonferroni", "margin-inversion")
REFERENCE_METHODS = ("brute-force", "two-sided", "one-sided-lower", "bonferroni", "margin-inversion")
SWEEP_METHODS = ("two-sided", "one-sided-lower", "bonferroni", "margin-inversion")

# CLI method name -> compute_ci method id, kept here so that the benchmark does
# not depend on the CLI's internal tables.
METHOD_IDS = {
    "bonferroni": "bonferroni",
    "margin-inversion": "margin_inversion",
    "two-sided": "two_sided_frontier",
    "one-sided-lower": "one_sided_lower",
    "one-sided-upper": "one_sided_upper",
    "brute-force": "brute_force",
}

# The six reference tables of the source paper, all at alpha = 1/20.
SIX_TABLES = (
    (1, 1, 1, 13),
    (2, 6, 8, 0),
    (6, 0, 11, 3),
    (6, 4, 4, 6),
    (1, 1, 3, 19),
    (8, 4, 5, 7),
)
REFERENCE_ALPHA = Fraction(1, 20)


@dataclass(frozen=True)
class Op:
    """One interval to compute: observed cells, level and CLI method name."""

    cells: tuple[int, int, int, int]
    alpha: Fraction
    method: str
    reference: bool = False


@dataclass(frozen=True)
class Sweep:
    """One exact coverage sweep over every true table of a design."""

    n: int
    m: int
    method: str
    alpha: Fraction


# Generator of the R2 sequence (powers of the inverse plastic number).
_R2 = (0.7548776662466927, 0.5698402909980532)


def _jittered_r2(rng: random.Random, k: int, jitter: float) -> list[tuple[float, float]]:
    """k random points in [0, 1]^2, point i within +-jitter of R2 point i.

    Clamped rather than wrapped, so that a point near an edge stays near it.
    """
    return [
        tuple(min(1.0, max(0.0, (0.5 + i * g) % 1.0 + rng.uniform(-jitter, jitter))) for g in _R2)
        for i in range(k)
    ]


def _cells(n: int, m: int, u: tuple[float, float]) -> tuple[int, int, int, int]:
    n11 = min(m, int(u[0] * (m + 1)))
    n01 = min(n - m, int(u[1] * (n - m + 1)))
    return (n11, m - n11, n01, n - m - n01)


def _swap_labels(cells: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    """The table with outcome labels swapped: same design and tests, mirrored interval."""
    n11, n10, n01, n00 = cells
    return (n10, n11, n00, n01)


def interactive_ops(seed: int, scale: str = "full") -> list[Op]:
    """One two-sided frontier CI per op; no two ops share a design (n, m).

    The order is fixed (n ascending), since an op's time depends on how
    much the process has cached and allocated before it. The seed draws the
    observed cells near fixed points, and for each table whether its
    outcome labels are swapped.
    """
    rng = random.Random(f"interactive-frontier/{seed}")
    # m = n/16, 2n/16, ..., 8n/16, rounded down: eight distinct designs per n, m <= n/2.
    ns, shares = (range(20, 49), range(1, 9)) if scale == "full" else (range(12, 15), (4, 8))
    designs = [(n, n * k // 16) for n in ns for k in shares]
    points = _jittered_r2(rng, len(designs), 0.015)
    return [
        Op(_swap_labels(cells) if rng.random() < 0.5 else cells, Fraction(1, 20), "two-sided")
        for cells in (_cells(n, m, u) for (n, m), u in zip(designs, points))
    ]


def batch_ops(seed: int, scale: str = "full") -> list[Op]:
    """Reference rows, then rows from a few shared designs.

    The row order is fixed (designs interleaved, so each design's first rows
    pay its null-distribution builds and later rows read them). The seed
    draws the observed cells, closer to the fixed points than on
    interactive-frontier, since the first rows' cold builds weigh heavily in
    the slowest tenth of rows.
    """
    rng = random.Random(f"batch-shared/{seed}")
    if scale == "full":
        designs = ((32, 16), (32, 10), (44, 22), (44, 15))
        alphas = (Fraction(1, 10), Fraction(1, 20), Fraction(1, 100))
        copies = 2
    else:
        designs = ((12, 6), (12, 4))
        alphas = (Fraction(1, 20),)
        copies = 1
    ops = [
        Op(cells, REFERENCE_ALPHA, method, reference=True)
        for cells in SIX_TABLES
        for method in REFERENCE_METHODS
    ]
    combos = [(meth, a) for _ in range(copies) for a in alphas for meth in MIXED_METHODS]
    points = {design: _jittered_r2(rng, len(combos), 0.005) for design in designs}
    for i, (meth, a) in enumerate(combos):
        for n, m in designs:
            ops.append(Op(_cells(n, m, points[(n, m)][i]), a, meth))
    return ops


def coverage_sweeps(seed: int, scale: str = "full") -> list[Sweep]:
    """Every design with the given n, every method and level.

    The seed shuffles the order of the designs. A design's sweeps stay
    together in a fixed order, since they share its null distributions and
    the first of them pays the builds.
    """
    rng = random.Random(f"coverage-sweep/{seed}")
    if scale == "full":
        designs, alphas = [(n, m) for n in (13, 14) for m in range(1, n)], (Fraction(1, 10), Fraction(1, 20))
    else:
        designs, alphas = [(6, 2), (6, 3)], (Fraction(1, 10),)
    rng.shuffle(designs)
    return [Sweep(n, m, method, a) for n, m in designs for method in SWEEP_METHODS for a in alphas]
