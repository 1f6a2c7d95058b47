"""Command-line interface.

Subcommands: compute (one table, one method), batch (CSV in/out), enumerate
(compatible potential tables), coverage (exact coverage sweep over all true
tables for a design). Every p-value is exact; compute and batch report the
number of randomization tests each interval took.

Alpha is parsed exactly: decimal strings become the rational of the literal
("0.05" -> 1/20) and "a/b" fractions are taken as-is; its range is the
library's rule. `compute` and each `batch` row take one path, and a bad
`batch` row, or one over the size guard, is reported as a row error.

Exit codes: 0 success, 2 validation error, 3 size guard, 4 I/O error,
5 coverage below the nominal level.
"""

from __future__ import annotations

import csv
import json
import sys
from contextlib import nullcontext

import click

from .coverage import exact_coverage_sweep
from .errors import ExactCIError, ScaleGuard
from .hypergeom import _check_alpha
from .methods import METHODS, MethodResult, compute_ci
from .randtest import p_two_sided
from .tables import ObservedTable, enumerate_compatible

EXIT_VALIDATION = 2
EXIT_SCALE = 3
EXIT_IO = 4
EXIT_COVERAGE = 5

METHOD_BY_NAME = {name: method for method, (name, _) in METHODS.items()}

#: What malformed input raises: a refusal by the library, or a bad number or name.
INPUT_ERRORS = (ExactCIError, ValueError)


def parse_count(text: str) -> int:
    """A count in ASCII decimal digits, spaces around them allowed; not "1_0", "+1" or other digits."""
    if not (text.isascii() and text.strip().isdecimal()):
        raise ValueError(f"a count must be written in decimal digits, got {text!r}")
    return int(text)


def parse_table(text: str) -> ObservedTable:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError(f"expected four comma-separated counts, got {text!r}")
    return ObservedTable(*map(parse_count, parts))


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
    }


_CSV_HEADER = [
    "n11", "n10", "n01", "n00", "alpha", "method",
    "ci_tau_lo", "ci_tau_hi", "ci_ntau_lo", "ci_ntau_hi", "tests",
]


def _write_csv(out, results: list[MethodResult]) -> None:
    writer = csv.writer(out)
    writer.writerow(_CSV_HEADER)
    writer.writerows(
        [*r.table.as_tuple(), str(r.alpha), r.method,
         str(r.ci_tau[0]), str(r.ci_tau[1]), r.ci_ntau[0], r.ci_ntau[1], r.tests]
        for r in results
    )


def _render_text(result: MethodResult) -> str:
    return "\n".join([
        f"table:  {result.table.as_tuple()}  (n={result.table.n}, m={result.table.m})",
        f"method: {result.method}  alpha={result.alpha}",
        f"ci_tau:  [{result.ci_tau[0]}, {result.ci_tau[1]}]",
        f"ci_ntau: [{result.ci_ntau[0]}, {result.ci_ntau[1]}]",
        f"tests:  {result.tests}",
    ])


def _fail(message: str, code: int) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _open(path: str, mode: str):
    """The file at path, or for "-" the standard stream, which stays open."""
    if path == "-":
        return nullcontext(sys.stdin if mode == "r" else sys.stdout)
    try:
        return open(path, mode, newline="")
    except OSError as exc:
        _fail(str(exc), EXIT_IO)


def _run_guarded(fn):
    try:
        return fn()
    except ScaleGuard as exc:
        _fail(str(exc), EXIT_SCALE)
    except INPUT_ERRORS as exc:
        _fail(str(exc), EXIT_VALIDATION)


def _compute(nobs: ObservedTable, alpha_text: str, method_name: str) -> MethodResult:
    """One table's interval, for `compute` and for each `batch` row."""
    alpha = _check_alpha(alpha_text)
    method = METHOD_BY_NAME.get(method_name.strip())
    if method is None:
        raise ValueError(f"unknown method {method_name!r}")
    return compute_ci(method, nobs, alpha)  # looked up here, so a wrapper can time each row


@click.group()
def main() -> None:
    """Exact confidence intervals for the average causal effect (binary outcome)."""


_table_opt = click.option("--table", "table_str", required=True, help="counts n11,n10,n01,n00")
_alpha_opt = click.option("--alpha", "alpha_str", default="0.05", show_default=True)


@main.command()
@_table_opt
@_alpha_opt
@click.option("--method", type=click.Choice(sorted(METHOD_BY_NAME)), required=True)
@click.option("--format", "fmt", type=click.Choice(["text", "json", "csv"]), default="text", show_default=True)
def compute(table_str, alpha_str, method, fmt) -> None:
    """Confidence interval for a single observed table."""
    result = _run_guarded(lambda: _compute(parse_table(table_str), alpha_str, method))
    if fmt == "json":
        click.echo(json.dumps(result_to_dict(result)))
    elif fmt == "csv":
        _write_csv(sys.stdout, [result])
    else:
        click.echo(_render_text(result))


@main.command()
@click.argument("input_file", type=click.Path())
@click.option("--output", "output_file", type=click.Path(), default="-", show_default=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv", show_default=True)
def batch(input_file, output_file, fmt) -> None:
    """Run methods for each row of a CSV file (header: n11,n10,n01,n00,alpha,method).

    Output rows keep the input order. Malformed rows are reported with their
    row number on stderr; if any row fails the exit code is 2.
    """
    with _open(input_file, "r") as fh:
        reader = csv.DictReader(fh, restval="")  # a short row's missing fields read as ""
        if reader.fieldnames:  # spreadsheet exports may start with a UTF-8 byte-order mark
            reader.fieldnames[0] = reader.fieldnames[0].removeprefix("\ufeff")
        required = {"n11", "n10", "n01", "n00", "alpha", "method"}
        if reader.fieldnames is None or not required <= set(reader.fieldnames):
            _fail(f"input header must contain {sorted(required)}", EXIT_VALIDATION)
        results: list[MethodResult] = []
        failures = 0
        for i, row in enumerate(reader, start=2):  # header is line 1
            try:
                nobs = ObservedTable(*(parse_count(row[k]) for k in ("n11", "n10", "n01", "n00")))
                results.append(_compute(nobs, row["alpha"], row["method"]))
            except INPUT_ERRORS as exc:
                click.echo(f"error: row {i}: {exc}", err=True)
                failures += 1
    with _open(output_file, "w") as out:
        if fmt == "json":
            out.write(json.dumps([result_to_dict(r) for r in results]) + "\n")
        else:
            _write_csv(out, results)
    if failures:
        sys.exit(EXIT_VALIDATION)


@main.command("enumerate")
@_table_opt
@click.option(
    "--alpha", "alpha_str", default=None,
    help="if set, include each table's two-sided p-value and whether it is accepted at this level",
)
@click.option("--format", "fmt", type=click.Choice(["text", "csv"]), default="text", show_default=True)
def enumerate_cmd(table_str, alpha_str, fmt) -> None:
    """List all potential tables compatible with the observed table."""

    with_p = alpha_str is not None

    def run():
        nobs = parse_table(table_str)
        alpha = _check_alpha(alpha_str) if with_p else None
        rows = []
        for N in enumerate_compatible(nobs):
            row = [N.N11, N.N10, N.N01, N.N00, N.ntau, str(N.tau)]
            if with_p:
                p = p_two_sided(N, nobs)
                row += [str(p), "yes" if p >= alpha else "no"]
            rows.append(row)
        return rows

    rows = _run_guarded(run)
    header = ["N11", "N10", "N01", "N00", "ntau", "tau"]
    if with_p:
        header += ["p_two_sided", "accepted"]
    if fmt == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(header)
        writer.writerows(rows)
    else:
        click.echo("  ".join(header))
        for row in rows:
            click.echo("  ".join(str(v) for v in row))
        click.echo(f"{len(rows)} compatible tables")


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
        alpha = _check_alpha(alpha_str)
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


if __name__ == "__main__":
    main()
