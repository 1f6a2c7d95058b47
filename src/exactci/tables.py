"""Table algebra for completely randomized experiments with binary outcomes.

An observed table counts units by (treatment, observed outcome); a potential
table counts units by their joint potential outcomes (response under treatment,
response under control). The average causal effect of a potential table lives
on the grid {k/n}, and a potential table is compatible with an observed table
exactly when some unit-level arrangement of potential outcomes could have
produced the observed counts under the realized assignment.

All arithmetic is exact: counts are Python ints and effect values are
`fractions.Fraction`. Floating point never decides anything here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .errors import DegenerateArm, SizeMismatch

__all__ = [
    "ObservedTable",
    "PotentialTable",
    "is_compatible",
    "compatible_n10",
    "enumerate_compatible",
    "attainable_ntau_range",
]


@dataclass(frozen=True)
class ObservedTable:
    """Observed counts (n11, n10, n01, n00) by (assignment, outcome) cell.

    n11: treated with outcome 1, n10: treated with outcome 0,
    n01: control with outcome 1, n00: control with outcome 0.
    """

    n11: int
    n10: int
    n01: int
    n00: int

    def __post_init__(self) -> None:
        for c in (self.n11, self.n10, self.n01, self.n00):
            if not isinstance(c, int) or c < 0:
                raise ValueError(f"counts must be non-negative integers, got {self}")
        if self.m == 0 or self.n - self.m == 0:
            raise DegenerateArm(
                f"both arms must be non-empty: m={self.m}, n-m={self.n - self.m}"
            )

    @property
    def n(self) -> int:
        return self.n11 + self.n10 + self.n01 + self.n00

    @property
    def m(self) -> int:
        """Number of treated units."""
        return self.n11 + self.n10

    @property
    def tau_hat(self) -> Fraction:
        """Unbiased difference-in-means estimate n11/m - n01/(n-m)."""
        return Fraction(self.n11, self.m) - Fraction(self.n01, self.n - self.m)

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.n11, self.n10, self.n01, self.n00)

    def switch_y(self) -> "ObservedTable":
        """Relabel the outcome (1 <-> 0); negates tau_hat."""
        return ObservedTable(self.n10, self.n11, self.n00, self.n01)

    def switch_z(self) -> "ObservedTable":
        """Relabel the treatment (swap arms); negates tau_hat, m <-> n-m."""
        return ObservedTable(self.n01, self.n00, self.n11, self.n10)


@dataclass(frozen=True)
class PotentialTable:
    """Latent counts (N11, N10, N01, N00) by joint potential-outcome type.

    N_ik counts units with response i under treatment and k under control.
    """

    N11: int
    N10: int
    N01: int
    N00: int

    def __post_init__(self) -> None:
        for c in (self.N11, self.N10, self.N01, self.N00):
            if not isinstance(c, int) or c < 0:
                raise ValueError(f"counts must be non-negative integers, got {self}")

    @property
    def n(self) -> int:
        return self.N11 + self.N10 + self.N01 + self.N00

    @property
    def n1plus(self) -> int:
        """Units responding under treatment."""
        return self.N11 + self.N10

    @property
    def nplus1(self) -> int:
        """Units responding under control."""
        return self.N11 + self.N01

    @property
    def ntau(self) -> int:
        """n times the average causal effect; always an integer."""
        return self.N10 - self.N01

    @property
    def tau(self) -> Fraction:
        """Average causal effect (N10 - N01)/n."""
        return Fraction(self.ntau, self.n)

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.N11, self.N10, self.N01, self.N00)

    def switch_y(self) -> "PotentialTable":
        """Relabel the outcome; negates tau."""
        return PotentialTable(self.N00, self.N01, self.N10, self.N11)

    def switch_z(self) -> "PotentialTable":
        """Relabel the treatment; negates tau."""
        return PotentialTable(self.N11, self.N01, self.N10, self.N00)


def _check_pair(N: PotentialTable, nobs: ObservedTable) -> None:
    """Refuse a potential and an observed table of different sizes."""
    if N.n != nobs.n:
        raise SizeMismatch(f"potential table has n={N.n}, observed table n={nobs.n}")


def is_compatible(N: PotentialTable, nobs: ObservedTable) -> bool:
    """Whether some unit-level arrangement summarized by N yields nobs."""
    _check_pair(N, nobs)
    return N.N10 in compatible_n10(nobs, N.N11, N.N01)


def compatible_n10(nobs: ObservedTable, N11: int, N01: int) -> range:
    """The N10 values that make (N11, N10, N01, n - N11 - N10 - N01) compatible.

    A table is compatible exactly when some count x11 of its N11
    always-responders assigned to treatment forces the other treated counts
    x10 = n11 - x11, x01 = N11 + N01 - n01 - x11 and x00 = m - x11 - x10 -
    x01 into their boxes [0, N10], [0, N01] and [0, N00]. With x11 in
    [0, N11] too, that is max(L0, n11 - N10) <= x11 <= min(H0, n11 + n00 -
    N10), where L0 = max(0, N11 - n01, N11 + N01 - n10 - n01) and H0 =
    min(N11, n11, N11 + N01 - n01) do not depend on N10. So the compatible
    N10 form the one interval [n11 - H0, n11 + n00 - L0], empty when
    L0 > H0. Every N10 in it leaves the fourth cell non-negative.
    """
    L0 = max(0, N11 - nobs.n01, N11 + N01 - nobs.n10 - nobs.n01)
    H0 = min(N11, nobs.n11, N11 + N01 - nobs.n01)
    if L0 > H0:
        return range(0)
    return range(nobs.n11 - H0, nobs.n11 + nobs.n00 - L0 + 1)


def iter_compatible(nobs: ObservedTable) -> Iterator[PotentialTable]:
    """Yield compatible potential tables in lexicographic (N11, N10, N01) order.

    N11 cannot exceed n11 + n01 for any compatible table, which bounds the
    outer loop. Within one N11 the compatible N10 of each N01 are one
    interval (`compatible_n10`), so a table is compatible exactly when its
    N10 lies in its N01's interval.
    """
    n = nobs.n
    for N11 in range(0, nobs.n11 + nobs.n01 + 1):
        cells = [(N01, compatible_n10(nobs, N11, N01)) for N01 in range(0, n - N11 + 1)]
        for N10 in range(0, n - N11 + 1):
            for N01, compatible in cells:
                if N10 in compatible:
                    yield PotentialTable(N11, N10, N01, n - N11 - N10 - N01)


def enumerate_compatible(nobs: ObservedTable) -> list[PotentialTable]:
    """All potential tables compatible with nobs, deterministically ordered."""
    return list(iter_compatible(nobs))


def attainable_ntau_range(nobs: ObservedTable) -> tuple[int, int]:
    """Closed integer range of n*tau values any compatible table can take."""
    return (-(nobs.n10 + nobs.n01), nobs.n11 + nobs.n00)
