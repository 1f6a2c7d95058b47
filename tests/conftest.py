"""Shared enumeration helpers and exhaustive sweep implementations.

The sweep functions assert structural properties (monotonicity of p-values
under unit moves, frontier characterizations, contiguity of accepted effect
sets) over every table of a given size. Both the property tests and the
acceptance suite call them, at their respective sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from exactci import randtest
from exactci.methods import frontier_scan
from exactci.randtest import p_one_sided, p_two_sided
from exactci.tables import ObservedTable, PotentialTable, compatible_n10, is_compatible


def count_calls(monkeypatch, statistic: str) -> list:
    """Record the cells of every test that searches with `statistic` decide.

    Wraps `randtest.acceptor`, which the searches look up once per search,
    so that every decision function it builds records each of its calls.
    """
    calls = []
    make = randtest.acceptor

    def counting(nobs, alpha, stat="two_sided"):
        accepts = make(nobs, alpha, stat)
        if stat != statistic:
            return accepts
        return lambda *cells: calls.append(cells) or accepts(*cells)

    monkeypatch.setattr(randtest, "acceptor", counting)
    return calls


def left_out(tested: list, walked: list) -> list:
    """The entries of walked that tested leaves out; tested must be a subsequence of walked.

    A frontier scan calls its decision function on the tables of its walk
    that the previous row does not settle, in walk order, so these are the
    settled tables.
    """
    rest = iter(tested)
    expect = next(rest, None)
    out = []
    for cells in walked:
        if cells == expect:
            expect = next(rest, None)
        else:
            out.append(cells)
    assert expect is None, f"{expect} was tested but is not in the walk"
    return out


def scan_cells(scan, nobs: ObservedTable, statistic: str) -> Iterator[tuple[int, int, int, int]]:
    """(N11, N01, frontier, greatest candidate N10) of every cell of a frontier scan, in walk order."""
    n = nobs.n
    floor_nt = math.floor(nobs.tau_hat * n)
    for N11, row in enumerate(scan.frontiers):
        for N01, frontier in enumerate(row):
            hi = n - N11 - N01
            if statistic == "two_sided":
                hi = min(hi, N01 + floor_nt)
            yield N11, N01, frontier, hi


def walked_tables(scan, nobs: ObservedTable, statistic: str) -> list[tuple[int, int, int, int]]:
    """Every table a frontier scan decides, in walk order, read off its rows of frontiers.

    Cell (N11, N01) decides each candidate N10 from the previous cell's
    frontier, or 0 if that is less or N01 = 0, up to its own frontier or its
    greatest candidate, whichever is less.
    """
    n = nobs.n
    walked = []
    carry = 0
    for N11, N01, frontier, hi in scan_cells(scan, nobs, statistic):
        if N01 == 0:
            carry = 0
        walked += [(N11, N10, N01, n - N11 - N10 - N01) for N10 in range(carry, min(frontier, hi) + 1)]
        carry = max(frontier, 0)
    return walked


def accepted_ntau(scan, nobs: ObservedTable, statistic: str) -> set[int]:
    """n*tau of the compatible tables a frontier scan accepts, read off its rows.

    A cell accepts its candidates from its frontier up; `compatible_n10`
    gives its compatible ones. Asserts that the scan's ends are the set's
    least and greatest, or None when it is empty.
    """
    out = set()
    for N11, N01, frontier, hi in scan_cells(scan, nobs, statistic):
        compatible = compatible_n10(nobs, N11, N01)
        out.update(N10 - N01 for N10 in compatible if frontier <= N10 <= hi)
    assert scan.ends == ((min(out), max(out)) if out else None), (nobs, statistic, scan.ends)
    return out


@dataclass(frozen=True)
class TableMove:
    """Unit step on potential tables that raises n*tau by exactly 1.

    A move changes one unit's potential outcomes. The one-sided p-value never
    falls under any of the four. The control-side moves flip a single control
    potential outcome from 1 to 0 (treated margin unchanged); they are the
    subset for which two-sided p-value monotonicity holds in unbalanced
    designs. The others can lower the two-sided p there: the 00->10 move
    takes N = (1, 1, 0, 1) to (1, 2, 0, 0) and p from 2/3 to 1/3 against the
    observed (1, 0, 0, 2). So every frontier scan, whatever its design, seeds
    its accept rule (01->11, then 00->10) only from accepts whose upper tail,
    the one-sided tail below the estimate, reaches alpha alone.
    """

    delta: tuple[int, int, int, int]
    control_side: bool


MOVES: tuple[TableMove, ...] = (
    TableMove((0, 1, 0, -1), False),
    TableMove((-1, 1, 0, 0), True),
    TableMove((1, 0, -1, 0), False),
    TableMove((0, 0, -1, 1), True),
)

CONTROL_SIDE_MOVES: tuple[TableMove, ...] = tuple(mv for mv in MOVES if mv.control_side)


def shifted(N: PotentialTable, delta: tuple[int, int, int, int]) -> PotentialTable | None:
    """Apply an additive move; None if any count would go negative."""
    cells = tuple(c + d for c, d in zip(N.as_tuple(), delta))
    if any(c < 0 for c in cells):
        return None
    return PotentialTable(*cells)


def observed_tables(n: int) -> Iterator[ObservedTable]:
    """All observed tables of size n with both arms non-empty."""
    for n11 in range(n + 1):
        for n10 in range(n - n11 + 1):
            m = n11 + n10
            if m == 0 or m == n:
                continue
            for n01 in range(n - m + 1):
                yield ObservedTable(n11, n10, n01, n - m - n01)


def potential_tables(n: int) -> Iterator[PotentialTable]:
    """All potential tables of size n."""
    for N11 in range(n + 1):
        for N10 in range(n - N11 + 1):
            for N01 in range(n - N11 - N10 + 1):
                yield PotentialTable(N11, N10, N01, n - N11 - N10 - N01)


def tau_hat_grid(n: int, m: int) -> list[Fraction]:
    """All values the estimate can take under a design (n, m)."""
    return sorted(
        {
            Fraction(a, m) - Fraction(b, n - m)
            for a in range(m + 1)
            for b in range(n - m + 1)
        }
    )


def _obs_with_estimate(n: int, m: int, t_obs: Fraction) -> ObservedTable:
    """Some observed table of design (n, m) whose estimate equals t_obs."""
    for a in range(m + 1):
        b_frac = (Fraction(a, m) - t_obs) * (n - m)
        if b_frac.denominator == 1 and 0 <= b_frac <= n - m:
            return ObservedTable(a, m - a, int(b_frac), n - m - int(b_frac))
    raise ValueError(f"estimate {t_obs} not attainable for n={n}, m={m}")


def check_p1_move_monotonicity(n: int) -> None:
    """One-sided p-values never decrease under any unit move.

    Checked as stochastic dominance of the null distributions, which covers
    every possible observed estimate at once.
    """
    from exactci.randtest import null_dist

    for m in range(1, n):
        for N in potential_tables(n):
            base = dict(null_dist(N, m))
            for mv in MOVES:
                neighbor = shifted(N, mv.delta)
                if neighbor is None:
                    continue
                moved = dict(null_dist(neighbor, m))
                thresholds = sorted(set(base) | set(moved))
                tail_base = Fraction(0)
                tail_moved = Fraction(0)
                # walk thresholds from the top; compare upper tails
                for t in reversed(thresholds):
                    tail_base += base.get(t, 0)
                    tail_moved += moved.get(t, 0)
                    assert tail_moved >= tail_base, (
                        f"dominance violated at n={n}, m={m}, N={N.as_tuple()}, "
                        f"move={mv.delta}, threshold={t}"
                    )


def check_p2_move_monotonicity(n: int, balanced: bool) -> None:
    """Two-sided p-values never decrease under moves, below the estimate.

    balanced=False: designs with m <= n/2 and the control-side moves only.
    balanced=True: designs with m = n/2 and all four moves.
    """
    for m in range(1, n):
        if balanced and 2 * m != n:
            continue
        if not balanced and 2 * m > n:
            continue
        moves = MOVES if balanced else CONTROL_SIDE_MOVES
        grid = tau_hat_grid(n, m)
        obs_by_estimate = {t: _obs_with_estimate(n, m, t) for t in grid}
        for N in potential_tables(n):
            for mv in moves:
                neighbor = shifted(N, mv.delta)
                if neighbor is None:
                    continue
                for t_obs in grid:
                    if neighbor.tau > t_obs:  # both taus must sit at or below t_obs
                        continue
                    nobs = obs_by_estimate[t_obs]
                    assert p_two_sided(neighbor, nobs) >= p_two_sided(N, nobs), (
                        f"p2 monotonicity violated at n={n}, m={m}, "
                        f"N={N.as_tuple()}, move={mv.delta}, t_obs={t_obs}"
                    )


def check_one_sided_frontier_characterization(n: int, alphas: tuple[Fraction, ...]) -> None:
    """p1 >= alpha holds exactly for tables at or above the scan's frontier."""
    for nobs in observed_tables(n):
        for alpha in alphas:
            scan = frontier_scan(nobs, alpha, "one_sided")
            for N in potential_tables(n):
                if N.N11 >= len(scan.frontiers):  # scan covers N11 <= n11 + n01
                    continue
                accepted = p_one_sided(N, nobs) >= alpha
                at_or_above = N.N10 >= scan.frontiers[N.N11][N.N01]
                assert accepted == at_or_above, (
                    f"one-sided frontier mismatch at nobs={nobs.as_tuple()}, "
                    f"alpha={alpha}, N={N.as_tuple()}"
                )


def check_two_sided_frontier_characterization(n: int, alphas: tuple[Fraction, ...]) -> None:
    """In balanced designs, p2 >= alpha iff at or above the frontier (below the estimate)."""
    if n % 2:
        return
    for nobs in observed_tables(n):
        if nobs.m * 2 != n:
            continue
        for alpha in alphas:
            scan = frontier_scan(nobs, alpha, "two_sided")
            for N in potential_tables(n):
                if N.tau > nobs.tau_hat:
                    continue
                if N.N11 >= len(scan.frontiers):  # scan covers N11 <= n11 + n01
                    continue
                accepted = p_two_sided(N, nobs) >= alpha
                at_or_above = N.N10 >= scan.frontiers[N.N11][N.N01]
                assert accepted == at_or_above, (
                    f"two-sided frontier mismatch at nobs={nobs.as_tuple()}, "
                    f"alpha={alpha}, N={N.as_tuple()}"
                )


def accepted_ntau_two_sided(nobs: ObservedTable, alpha: Fraction) -> set[int]:
    """Accepted n*tau values of the two-sided frontier inversion (both sides)."""
    work = nobs.switch_z() if nobs.m > nobs.n - nobs.m else nobs
    mirror = work.switch_y()
    below = accepted_ntau(frontier_scan(work, alpha, "two_sided"), work, "two_sided")
    above = {-k for k in accepted_ntau(frontier_scan(mirror, alpha, "two_sided"), mirror, "two_sided")}
    out = below | above
    if work is not nobs:
        out = {-k for k in out}
    return out


def check_contiguity(n: int, alphas: tuple[Fraction, ...]) -> None:
    """Accepted n*tau sets form contiguous integer ranges.

    Two-sided: balanced designs. One-sided: all designs, with the upper
    endpoint pinned at n11 + n00.
    """
    for nobs in observed_tables(n):
        for alpha in alphas:
            acc = accepted_ntau(frontier_scan(nobs, alpha, "one_sided"), nobs, "one_sided")
            assert acc, f"one-sided acceptance empty for {nobs.as_tuple()}, alpha={alpha}"
            assert max(acc) == nobs.n11 + nobs.n00
            assert max(acc) - min(acc) + 1 == len(acc), (
                f"one-sided acceptance has gaps for {nobs.as_tuple()}, alpha={alpha}"
            )
            if nobs.m * 2 == n:
                acc2 = accepted_ntau_two_sided(nobs, alpha)
                assert acc2, f"two-sided acceptance empty for {nobs.as_tuple()}"
                assert max(acc2) - min(acc2) + 1 == len(acc2), (
                    f"two-sided acceptance has gaps for {nobs.as_tuple()}, alpha={alpha}"
                )


def check_compatibility_agreement(n: int) -> None:
    """Closed-form compatibility equals the brute-force integer-solution scan."""
    from oracle import brute_compatibility

    for nobs in observed_tables(n):
        for N in potential_tables(n):
            assert is_compatible(N, nobs) == brute_compatibility(N, nobs), (
                f"compatibility mismatch: nobs={nobs.as_tuple()}, N={N.as_tuple()}"
            )


def check_unbiasedness(n: int) -> None:
    """The null distribution's mean equals the table's effect, exactly."""
    from exactci.randtest import null_dist

    for m in range(1, n):
        for N in potential_tables(n):
            mean = sum(v * p for v, p in null_dist(N, m))
            assert mean == N.tau, f"bias at N={N.as_tuple()}, m={m}: {mean} != {N.tau}"


def check_null_dist_vs_assignment_enumeration(n: int) -> None:
    """Split-based null distribution equals full assignment enumeration."""
    from oracle import enumerate_assignments, units_from_table
    from exactci.randtest import null_dist

    for m in range(1, n):
        for N in potential_tables(n):
            assert null_dist(N, m) == enumerate_assignments(units_from_table(N), m), (
                f"null distribution mismatch at N={N.as_tuple()}, m={m}"
            )
