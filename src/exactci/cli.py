"""Command-line interface.

Subcommands: compute (one table, one method), batch (CSV in/out), enumerate
(compatible potential tables), coverage (exact coverage sweep over all true
tables for a design), bench (test-count and wall-time comparison).

Alpha is parsed exactly: decimal strings become the rational of the literal
("0.05" -> 1/20) and "a/b" fractions are taken as-is.

Exit codes: 0 success, 2 validation error, 3 size guard, 4 I/O error,
5 coverage below the nominal level.
"""

from __future__ import annotations

import csv
import io
import json
import sys
import time
from fractions import Fraction

import click

from .coverage import exact_coverage_sweep
from .errors import ExactCIError, ScaleGuard
from .methods import METHODS, MethodResult, compute_ci
from .randtest import PValueMode, p_two_sided
from .tables import ObservedTable, enumerate_compatible

EXIT_VALIDATION = 2
EXIT_SCALE = 3
EXIT_IO = 4
EXIT_COVERAGE = 5

METHOD_BY_NAME = {name: method for method, (name, _) in METHODS.items()}


def parse_alpha(text: str) -> Fraction:
    alpha = Fraction(text)  # handles both "0.05" (exactly) and "1/20"
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must be in (0, 1), got {text}")
    return alpha


def parse_table(text: str) -> ObservedTable:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError(f"expected four comma-separated counts, got {text!r}")
    return ObservedTable(*(int(p.strip()) for p in parts))


def result_to_dict(result: MethodResult) -> dict:
    return {
        "table": list(result.table.as_tuple()),
        "n": result.table.n,
        "m": result.table.m,
        "alpha": str(result.alpha),
        "method": result.method,
        "ci_tau": [str(result.ci_tau[0]), str(result.ci_tau[1])],
        "ci_ntau": [result.ci_ntau[0], result.ci_ntau[1]],
        "tests": result.tests,
        "mode": result.mode,
    }


def _render_text(result: MethodResult, scale: str) -> str:
    lines = [
        f"table:  {result.table.as_tuple()}  (n={result.table.n}, m={result.table.m})",
        f"method: {result.method}  alpha={result.alpha}  mode={result.mode}",
    ]
    if scale in ("tau", "both"):
        lines.append(f"ci_tau:  [{result.ci_tau[0]}, {result.ci_tau[1]}]")
    if scale in ("ntau", "both"):
        lines.append(f"ci_ntau: [{result.ci_ntau[0]}, {result.ci_ntau[1]}]")
    lines.append(f"tests:  {result.tests}")
    return "\n".join(lines)


def _fail(message: str, code: int) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _run_guarded(fn):
    try:
        return fn()
    except ScaleGuard as exc:
        _fail(str(exc), EXIT_SCALE)
    except (ExactCIError, ValueError, ZeroDivisionError) as exc:
        _fail(str(exc), EXIT_VALIDATION)


@click.group()
def main() -> None:
    """Exact confidence intervals for the average causal effect (binary outcome)."""


_table_opt = click.option("--table", "table_str", required=True, help="counts n11,n10,n01,n00")
_alpha_opt = click.option("--alpha", "alpha_str", default="0.05", show_default=True)
_mode_opt = click.option("--mode", type=click.Choice(["exact", "mc"]), default="exact", show_default=True)
_reps_opt = click.option("--reps", type=int, default=10_000, show_default=True)
_seed_opt = click.option("--seed", type=int, default=0, show_default=True)


def _pvalue_mode(mode: str, reps: int, seed: int) -> PValueMode:
    return PValueMode.exact() if mode == "exact" else PValueMode.monte_carlo(reps, seed)


@main.command()
@_table_opt
@_alpha_opt
@click.option("--method", type=click.Choice(sorted(METHOD_BY_NAME)), required=True)
@_mode_opt
@_reps_opt
@_seed_opt
@click.option("--format", "fmt", type=click.Choice(["text", "json", "csv"]), default="text", show_default=True)
@click.option("--scale", type=click.Choice(["tau", "ntau", "both"]), default="both", show_default=True)
def compute(table_str, alpha_str, method, mode, reps, seed, fmt, scale) -> None:
    """Confidence interval for a single observed table."""

    def run() -> MethodResult:
        nobs = parse_table(table_str)
        alpha = parse_alpha(alpha_str)
        return compute_ci(METHOD_BY_NAME[method], nobs, alpha, _pvalue_mode(mode, reps, seed))

    result = _run_guarded(run)
    if fmt == "json":
        click.echo(json.dumps(result_to_dict(result)))
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(_CSV_HEADER)
        writer.writerow(_csv_row(result))
        click.echo(buf.getvalue().rstrip("\n"))
    else:
        click.echo(_render_text(result, scale))


_CSV_HEADER = [
    "n11", "n10", "n01", "n00", "alpha", "method",
    "ci_tau_lo", "ci_tau_hi", "ci_ntau_lo", "ci_ntau_hi", "tests", "mode",
]


def _csv_row(result: MethodResult) -> list:
    t = result.table
    return [
        t.n11, t.n10, t.n01, t.n00, str(result.alpha), result.method,
        str(result.ci_tau[0]), str(result.ci_tau[1]),
        result.ci_ntau[0], result.ci_ntau[1],
        result.tests, result.mode,
    ]


@main.command()
@click.argument("input_file", type=click.Path())
@click.option("--output", "output_file", type=click.Path(), default="-", show_default=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv", show_default=True)
@_mode_opt
@_reps_opt
@_seed_opt
def batch(input_file, output_file, fmt, mode, reps, seed) -> None:
    """Run methods for each row of a CSV file (header: n11,n10,n01,n00,alpha,method).

    Output rows keep the input order. Malformed rows are reported with their
    row number on stderr; if any row fails the exit code is 2.
    """
    try:
        fh = sys.stdin if input_file == "-" else open(input_file, newline="")
    except OSError as exc:
        _fail(str(exc), EXIT_IO)
    with fh:
        reader = csv.DictReader(fh)
        required = {"n11", "n10", "n01", "n00", "alpha", "method"}
        if reader.fieldnames is None or not required <= set(reader.fieldnames):
            _fail(f"input header must contain {sorted(required)}", EXIT_VALIDATION)
        results: list[MethodResult] = []
        failures = 0
        for i, row in enumerate(reader, start=2):  # header is line 1
            try:
                nobs = ObservedTable(*(int(row[k]) for k in ("n11", "n10", "n01", "n00")))
                alpha = parse_alpha(row["alpha"])
                method = METHOD_BY_NAME.get(row["method"].strip())
                if method is None:
                    raise ValueError(f"unknown method {row['method']!r}")
                results.append(compute_ci(method, nobs, alpha, _pvalue_mode(mode, reps, seed)))
            except (ExactCIError, ValueError, KeyError, TypeError) as exc:
                click.echo(f"error: row {i}: {exc}", err=True)
                failures += 1
    try:
        out = sys.stdout if output_file == "-" else open(output_file, "w", newline="")
    except OSError as exc:
        _fail(str(exc), EXIT_IO)
    with out:
        if fmt == "json":
            out.write(json.dumps([result_to_dict(r) for r in results]) + "\n")
        else:
            writer = csv.writer(out)
            writer.writerow(_CSV_HEADER)
            for r in results:
                writer.writerow(_csv_row(r))
    if failures:
        sys.exit(EXIT_VALIDATION)


@main.command("enumerate")
@_table_opt
@click.option("--alpha", "alpha_str", default=None, help="if set, include the two-sided p-value per table")
@click.option("--format", "fmt", type=click.Choice(["text", "csv"]), default="text", show_default=True)
def enumerate_cmd(table_str, alpha_str, fmt) -> None:
    """List all potential tables compatible with the observed table."""

    def run():
        nobs = parse_table(table_str)
        alpha = parse_alpha(alpha_str) if alpha_str is not None else None
        return nobs, alpha

    nobs, alpha = _run_guarded(run)
    tables = enumerate_compatible(nobs)
    header = ["N11", "N10", "N01", "N00", "ntau", "tau"]
    if alpha is not None:
        header.append("p_two_sided")
    rows = []
    for N in tables:
        row = [N.N11, N.N10, N.N01, N.N00, N.ntau, str(N.tau)]
        if alpha is not None:
            row.append(str(p_two_sided(N, nobs)))
        rows.append(row)
    if fmt == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(header)
        writer.writerows(rows)
    else:
        click.echo("  ".join(header))
        for row in rows:
            click.echo("  ".join(str(v) for v in row))
        click.echo(f"{len(tables)} compatible tables")


@main.command()
@click.option("--n", "n", type=int, required=True)
@click.option("--m", "m", type=int, required=True)
@_alpha_opt
@click.option("--method", type=click.Choice(sorted(METHOD_BY_NAME)), default="brute-force", show_default=True)
def coverage(n, m, alpha_str, method) -> None:
    """Exact coverage over every true potential table for a design (n, m).

    Exits 5 if any true table is covered below the nominal level.
    """

    def run():
        alpha = parse_alpha(alpha_str)
        method_id = METHOD_BY_NAME[method]

        def ci_fn(nobs: ObservedTable) -> tuple[int, int]:
            return compute_ci(method_id, nobs, alpha).ci_ntau

        return alpha, exact_coverage_sweep(n, m, alpha, ci_fn)

    alpha, report = _run_guarded(run)
    level = 1 - alpha
    violators = report.violators(level)
    click.echo(f"design: n={n}, m={m}, alpha={alpha}, method={method}")
    click.echo(f"tables: {len(report.per_table)}")
    click.echo(f"min coverage:  {report.min_coverage} ({float(report.min_coverage):.6f})")
    click.echo(f"mean coverage: {float(report.mean_coverage):.6f}")
    if violators:
        click.echo(f"{len(violators)} table(s) below {level}:", err=True)
        for N, c in violators:
            click.echo(f"  N={N.as_tuple()} coverage={c}", err=True)
        sys.exit(EXIT_COVERAGE)
    click.echo(f"all tables covered at >= {level}")


@main.command()
@click.option("--table", "table_strs", multiple=True, required=True, help="repeatable: counts n11,n10,n01,n00")
@click.option(
    "--method",
    "methods",
    multiple=True,
    type=click.Choice(sorted(METHOD_BY_NAME)),
    default=("two-sided", "brute-force"),
    show_default=True,
)
@_alpha_opt
def bench(table_strs, methods, alpha_str) -> None:
    """Compare randomization-test counts and wall time across methods."""

    def run():
        alpha = parse_alpha(alpha_str)
        return alpha, [parse_table(t) for t in table_strs]

    alpha, tables = _run_guarded(run)
    click.echo(f"{'table':<16} {'method':<16} {'ci_ntau':<12} {'tests':>7} {'bound':>7} {'ms':>9}")
    for nobs in tables:
        per_side_bound = (2 * nobs.n + 1) * (nobs.n + 1)
        for name in methods:
            start = time.perf_counter()
            result = _run_guarded(
                lambda name=name, nobs=nobs: compute_ci(METHOD_BY_NAME[name], nobs, alpha)
            )
            ms = (time.perf_counter() - start) * 1000.0
            frontier = result.method in ("two_sided_frontier", "one_sided_lower", "one_sided_upper")
            sides = 2 if result.method == "two_sided_frontier" else 1
            bound = sides * per_side_bound if frontier else ""
            ci = f"[{result.ci_ntau[0]},{result.ci_ntau[1]}]"
            click.echo(
                f"{str(nobs.as_tuple()):<16} {result.method:<16} {ci:<12} "
                f"{result.tests:>7} {str(bound):>7} {ms:>9.1f}"
            )


if __name__ == "__main__":
    main()
