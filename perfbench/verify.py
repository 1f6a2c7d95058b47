"""Output checks, run after the timed loop so they never warm a timed cache.

Each check returns a list of findings ``(kind, message)``:

* ``"fail"``: the output is wrong in a way that can cost coverage or breaks
  a pinned reproduction (interval outside the attainable range, reference
  intervals or test counts of criteria 1-3 changed, coverage below 1 - alpha,
  a count interval narrower than the published one by more than 1).
* ``"deviation"``: the interval is valid but wider than its definition
  implies. These are the known defects of the program: an endpoint that no
  accepted compatible table backs (the interval is wider than the exact test
  inversion), and a count interval outside the published one by more than
  +-1 that still contains it (acceptance criterion 4).

Only the ``exactci`` public API is used here.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict
from fractions import Fraction

from exactci import (
    ObservedTable,
    PotentialTable,
    attainable_ntau_range,
    is_compatible,
    p_one_sided,
    p_two_sided,
)

from inputs import Op, Sweep

# Criteria 1 and 2: brute-force interval, brute-force and frontier test counts.
BRUTE_EXPECTED = {
    (1, 1, 1, 13): ((-1, 14), 112, 103),
    (2, 6, 8, 0): ((-14, -5), 189, 113),
    (6, 0, 11, 3): ((-4, 8), 336, 283),
    (6, 4, 4, 6): ((-4, 10), 1225, 308),
    (1, 1, 3, 19): ((-3, 20), 320, 251),
    (8, 4, 5, 7): ((-3, 13), 2160, 421),
}
# Criterion 3: one-sided lower intervals.
ONE_SIDED_EXPECTED = {
    (1, 1, 1, 13): (-1, 14),
    (2, 6, 8, 0): (-14, 2),
    (6, 0, 11, 3): (-3, 9),
    (6, 4, 4, 6): (-3, 12),
    (1, 1, 3, 19): (-3, 20),
    (8, 4, 5, 7): (-2, 15),
}
# Criterion 4: published count-interval results, to be matched within +-1.
PUBLISHED = {
    "bonferroni": {
        (1, 1, 1, 13): (-2, 14),
        (2, 6, 8, 0): (-14, -3),
        (6, 0, 11, 3): (-5, 8),
        (6, 4, 4, 6): (-6, 12),
        (1, 1, 3, 19): (-4, 20),
        (8, 4, 5, 7): (-4, 14),
    },
    "margin-inversion": {
        (1, 1, 1, 13): (-1, 14),
        (2, 6, 8, 0): (-14, -2),
        (6, 0, 11, 3): (-11, 7),
        (6, 4, 4, 6): (-6, 11),
        (1, 1, 3, 19): (-3, 20),
        (8, 4, 5, 7): (-6, 14),
    },
}

Finding = tuple[str, str]


def check_reference(op: Op, ci: tuple[int, int], tests: int) -> list[Finding]:
    """Criteria 1-4 on one of the six reference tables."""
    where = f"{op.method} {op.cells}"
    if op.method in ("brute-force", "two-sided"):
        want_ci, brute_tests, frontier_tests = BRUTE_EXPECTED[op.cells]
        want_tests = brute_tests if op.method == "brute-force" else frontier_tests
        if ci != want_ci or tests != want_tests:
            return [("fail", f"{where}: got {ci} with {tests} tests, want {want_ci} with {want_tests}")]
        return []
    if op.method == "one-sided-lower":
        want = ONE_SIDED_EXPECTED[op.cells]
        return [] if ci == want else [("fail", f"{where}: got {ci}, want {want}")]
    want = PUBLISHED[op.method][op.cells]
    if all(abs(g - w) <= 1 for g, w in zip(ci, want)):
        return []
    kind = "deviation" if ci[0] <= want[0] and want[1] <= ci[1] else "fail"
    return [(kind, f"{where}: got {ci}, published {want} (criterion 4 allows +-1)")]


def check_range(op: Op, ci: tuple[int, int]) -> list[Finding]:
    lo, hi = attainable_ntau_range(ObservedTable(*op.cells))
    if lo <= ci[0] <= ci[1] <= hi:
        return []
    return [("fail", f"{op.method} {op.cells}: {ci} not inside attainable [{lo}, {hi}]")]


def _tables_at(nobs: ObservedTable, ntau: int):
    """Compatible potential tables with N10 - N01 == ntau."""
    n = nobs.n
    for N11 in range(nobs.n11 + nobs.n01 + 1):
        for N01 in range(max(0, -ntau), n - N11 + 1):
            N10 = N01 + ntau
            if N11 + N10 + N01 > n:
                break
            N = PotentialTable(N11, N10, N01, n - N11 - N10 - N01)
            if is_compatible(N, nobs):
                yield N


def _backed(nobs: ObservedTable, ntau: int, alpha: Fraction, p_fn) -> bool:
    """Some compatible table with this n*tau has exact p-value >= alpha."""
    return any(p_fn(N, nobs) >= alpha for N in _tables_at(nobs, ntau))


def check_witnesses(op: Op, ci: tuple[int, int]) -> list[Finding]:
    """Each tested endpoint is backed by an accepted compatible table."""
    nobs = ObservedTable(*op.cells)
    lo, hi = attainable_ntau_range(nobs)
    where = f"{op.method} {op.cells} alpha={op.alpha}"
    out: list[Finding] = []
    if op.method == "two-sided":
        ends = [(ci[0], nobs, p_two_sided), (ci[1], nobs, p_two_sided)]
    elif op.method == "one-sided-lower":
        ends = [(ci[0], nobs, p_one_sided)]
        if ci[1] != hi:
            out.append(("fail", f"{where}: upper end {ci[1]} is not the attainable maximum {hi}"))
    elif op.method == "one-sided-upper":
        # The upper interval is the lower interval of the outcome-switched table.
        ends = [(-ci[1], nobs.switch_y(), p_one_sided)]
        if ci[0] != lo:
            out.append(("fail", f"{where}: lower end {ci[0]} is not the attainable minimum {lo}"))
    else:
        return out
    for ntau, table, p_fn in ends:
        if not _backed(table, ntau, op.alpha, p_fn):
            out.append(("deviation", f"{where}: endpoint {ntau:+d} of {ci} has no accepted compatible table"))
    return out


def check_op(op: Op, ci: tuple[int, int], tests: int) -> list[Finding]:
    findings = check_range(op, ci)
    if op.reference:
        findings += check_reference(op, ci, tests)
    return findings + check_witnesses(op, ci)


def check_sweep(sweep: Sweep, min_coverage: Fraction) -> list[Finding]:
    if min_coverage >= 1 - sweep.alpha:
        return []
    return [("fail", f"coverage {sweep}: min coverage {min_coverage} < {1 - sweep.alpha}")]


def digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def op_line(op: Op, ci: tuple[int, int], tests: int) -> str:
    return f"{op.method}|{op.cells}|{op.alpha}|{ci[0]}|{ci[1]}|{tests}"


def sweep_line(sweep: Sweep, per_table, tests: int) -> str:
    fractions = ",".join(str(c) for _, c in per_table)
    return f"{sweep.n}|{sweep.m}|{sweep.method}|{sweep.alpha}|{tests}|{digest([fractions])}"


def summarize(findings_per_op: list[list[Finding]]) -> dict:
    """Counts of failed ops and deviating ops, with every message."""
    kinds: dict[str, list[str]] = defaultdict(list)
    failed_ops = deviating_ops = 0
    for findings in findings_per_op:
        failed_ops += any(k == "fail" for k, _ in findings)
        deviating_ops += any(k == "deviation" for k, _ in findings) and not any(
            k == "fail" for k, _ in findings
        )
        for kind, message in findings:
            kinds[kind].append(message)
    return {
        "failed_ops": failed_ops,
        "deviating_ops": deviating_ops,
        "failures": kinds["fail"],
        "deviations": kinds["deviation"],
    }
