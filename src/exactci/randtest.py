"""Exact randomization tests for the difference-in-means statistic.

Under a fixed potential table, complete randomization induces an exact
distribution of the estimate: a treatment group of size m is a uniform random
size-m subset, so the per-category treated counts follow a multivariate
hypergeometric law. The engine enumerates those splits with big-integer
weights and compares statistics on a cleared-denominator integer scale
(statistic times n*m*(n-m)), so every accept/reject decision is bit-exact.

A Monte Carlo estimator with sequential hypergeometric draws is available as
a scaling escape hatch; it never participates in exactness guarantees.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, sqrt
from typing import Callable, Iterator, Literal

from .errors import DegenerateArm, ScaleGuard, SizeMismatch
from .tables import ObservedTable, PotentialTable

__all__ = [
    "PValueMode",
    "null_dist",
    "p_one_sided",
    "p_two_sided",
    "mc_p",
    "max_exact_n",
]

#: Environment variable overriding the exact-mode size guard.
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


def _guard(n: int, limit: int | None = None) -> None:
    cap = limit if limit is not None else max_exact_n()
    if n > cap:
        raise ScaleGuard(f"exact computation requested for n={n} > limit {cap}")


@dataclass(frozen=True)
class PValueMode:
    """exact, or monte_carlo with a rep count and seed (deterministic per seed)."""

    variant: Literal["exact", "monte_carlo"] = "exact"
    reps: int = 10_000
    seed: int = 0

    @staticmethod
    def exact() -> "PValueMode":
        return PValueMode("exact")

    @staticmethod
    def monte_carlo(reps: int, seed: int) -> "PValueMode":
        if reps < 1:
            raise ValueError("reps must be >= 1")
        return PValueMode("monte_carlo", reps, seed)


def _iter_splits(N: PotentialTable, m: int) -> Iterator[tuple[int, int, int, int, int]]:
    """Yield (x11, x10, x01, x00, weight) over all treated-count splits.

    weight is the number of assignments realizing the split; weights sum to
    C(n, m).
    """
    N11, N10, N01, N00 = N.as_tuple()
    c11 = [comb(N11, k) for k in range(N11 + 1)]
    c10 = [comb(N10, k) for k in range(N10 + 1)]
    c01 = [comb(N01, k) for k in range(N01 + 1)]
    c00 = [comb(N00, k) for k in range(N00 + 1)]
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
    """Merged atoms (statistic * n*m*(n-m), weight) of the null distribution.

    Sorted by scaled statistic value; weights sum to C(n, m).
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
    denom = n * m * (n - m)
    cn = comb(n, m)
    return [
        (Fraction(scaled, denom), Fraction(w, cn))
        for scaled, w in _scaled_atoms(N.as_tuple(), m)
    ]


def _scaled_obs(nobs: ObservedTable) -> int:
    """Observed statistic times n*m*(n-m)."""
    n, m = nobs.n, nobs.m
    return n * (nobs.n11 * (n - m) - nobs.n01 * m)


def _check_pair(N: PotentialTable, nobs: ObservedTable) -> None:
    if N.n != nobs.n:
        raise SizeMismatch(f"potential table n={N.n} vs observed n={nobs.n}")


def p_one_sided(N: PotentialTable, nobs: ObservedTable) -> Fraction:
    """Exact P(estimate >= observed estimate) under N."""
    _check_pair(N, nobs)
    _guard(N.n)
    t_obs = _scaled_obs(nobs)
    num = 0
    for scaled, w in _scaled_atoms(N.as_tuple(), nobs.m):
        if scaled >= t_obs:
            num += w
    return Fraction(num, comb(N.n, nobs.m))


def p_two_sided(N: PotentialTable, nobs: ObservedTable) -> Fraction:
    """Exact P(|estimate - tau| >= |observed estimate - tau|) under N."""
    _check_pair(N, nobs)
    _guard(N.n)
    n, m = N.n, nobs.m
    t_obs = _scaled_obs(nobs)
    t_tau = m * (n - m) * N.ntau  # tau on the same cleared-denominator scale
    margin = abs(t_obs - t_tau)
    num = 0
    for scaled, w in _scaled_atoms(N.as_tuple(), m):
        if abs(scaled - t_tau) >= margin:
            num += w
    return Fraction(num, comb(n, m))


def _draw_split(rng: random.Random, N: PotentialTable, m: int) -> tuple[int, int, int, int]:
    """One multivariate hypergeometric draw via sequential conditionals."""
    remaining_total = N.n
    remaining_sample = m
    xs = []
    for cat in N.as_tuple():
        x = _hypergeom_draw(rng, cat, remaining_total, remaining_sample)
        xs.append(x)
        remaining_total -= cat
        remaining_sample -= x
    return tuple(xs)  # type: ignore[return-value]


def _hypergeom_draw(rng: random.Random, marked: int, total: int, sample: int) -> int:
    """Sample from HyperGeo(marked, total, sample) by inverse transform."""
    if total == 0 or sample == 0 or marked == 0:
        return 0
    u = rng.random()
    lo = max(0, sample - (total - marked))
    hi = min(sample, marked)
    denom = comb(total, sample)
    acc = 0.0
    for x in range(lo, hi + 1):
        acc += comb(marked, x) * comb(total - marked, sample - x) / denom
        if u <= acc:
            return x
    return hi


def mc_p(
    N: PotentialTable,
    nobs: ObservedTable,
    statistic: Literal["one_sided", "two_sided"],
    reps: int,
    seed: int,
) -> tuple[float, float]:
    """Monte Carlo p-value estimate and its standard error.

    Each rep samples a treated-count split; the rejection comparison runs on
    the same cleared-denominator integer scale as the exact path.
    """
    _check_pair(N, nobs)
    if reps < 1:
        raise ValueError("reps must be >= 1")
    n, m = N.n, nobs.m
    rng = random.Random(seed)
    t_obs = _scaled_obs(nobs)
    t_tau = m * (n - m) * N.ntau
    margin = abs(t_obs - t_tau)
    hits = 0
    for _ in range(reps):
        x11, x10, x01, _ = _draw_split(rng, N, m)
        scaled = n * ((x11 + x10) * (n - m) - (N.N11 - x11 + N.N01 - x01) * m)
        if statistic == "one_sided":
            hit = scaled >= t_obs
        else:
            hit = abs(scaled - t_tau) >= margin
        hits += int(hit)
    est = hits / reps
    return est, sqrt(est * (1.0 - est) / reps)


def make_p_evaluator(
    nobs: ObservedTable,
    statistic: Literal["one_sided", "two_sided"],
    mode: PValueMode,
) -> Callable[[PotentialTable], Fraction | float]:
    """Bind a p-value function to an observed table and mode.

    The exact p-value function is looked up by module name when the
    evaluator is made, so a wrapper set on that name sees every test.
    """
    if mode.variant == "exact":
        fn = p_one_sided if statistic == "one_sided" else p_two_sided
        return lambda N: fn(N, nobs)
    return lambda N: mc_p(N, nobs, statistic, mode.reps, mode.seed)[0]
