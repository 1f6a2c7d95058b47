"""Smoke test of the benchmark itself, at toy size (about half a minute).

Run from the repository root:

    python3 perfbench/smoke.py

It runs every workload untraced and traced, checks that each emits exactly
the metrics BENCHMARK.json names with their units, that outputs verify and
repeat, that the verifier catches deliberately wrong intervals, and that the
benchmark refuses to run without the program. Exits non-zero on the first
failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import verify  # noqa: E402
from exactci import ObservedTable, attainable_ntau_range  # noqa: E402
from inputs import WORKLOADS, Op, Sweep  # noqa: E402


def run_bench(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "toy"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check(cond: bool, message: str) -> None:
    if not cond:
        raise SystemExit(f"smoke: FAIL: {message}")
    print(f"smoke: ok: {message}")


def check_metrics() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    check([w["name"] for w in spec["workloads"]] == list(WORKLOADS), "BENCHMARK.json names every workload")
    for workload in WORKLOADS:
        digests = set()
        for trace in (0, 1, 0):
            proc = run_bench(workload, trace)
            check(proc.returncode == 0, f"{workload} trace={trace} exits 0 ({proc.stderr.strip()[-300:]})")
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{workload}: result keys")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{workload} trace={trace}: outputs verify")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == wanted[trace], f"{workload} trace={trace}: every named metric with its unit")
            digests.update(line.split()[1] for line in lines if line.strip().startswith("digest "))
        check(len(digests) == 1, f"{workload}: output digest repeats across runs ({digests})")


def check_verifier() -> None:
    alpha = Fraction(1, 20)
    ref = Op((8, 4, 5, 7), alpha, "two-sided", reference=True)
    kinds = lambda findings: {k for k, _ in findings}  # noqa: E731
    check(verify.check_op(ref, (-3, 13), 421) == [], "reference two-sided interval passes")
    check("fail" in kinds(verify.check_op(ref, (-2, 13), 421)), "verifier catches a wrong reference interval")
    check("fail" in kinds(verify.check_op(ref, (-3, 13), 420)), "verifier catches a wrong test count")
    wide = Op((8, 4, 5, 7), alpha, "bonferroni", reference=True)
    check(kinds(verify.check_op(wide, (-6, 15), 0)) == {"deviation"}, "wider count interval is a deviation")
    check("fail" in kinds(verify.check_op(wide, (-2, 12), 0)), "narrower count interval is a failure")
    gen = Op((3, 5, 2, 10), alpha, "two-sided")
    lo, hi = attainable_ntau_range(ObservedTable(*gen.cells))
    check("fail" in kinds(verify.check_op(gen, (lo - 1, hi), 0)), "verifier catches an interval outside the range")
    # The full attainable range is wider than any exact interval at alpha=1/20
    # here, so its endpoints have no accepted table behind them.
    check("deviation" in kinds(verify.check_op(gen, (lo, hi), 0)), "verifier catches an unbacked endpoint")
    low = Op((3, 5, 2, 10), alpha, "one-sided-lower")
    check("fail" in kinds(verify.check_op(low, (0, hi - 1), 0)), "verifier catches a wrong one-sided upper end")
    sweep = Sweep(6, 3, "two-sided", Fraction(1, 10))
    check(verify.check_sweep(sweep, Fraction(9, 10)) == [], "coverage at the level passes")
    check(verify.check_sweep(sweep, Fraction(8, 10)) != [], "verifier catches coverage below the level")


def check_trace_degrades() -> None:
    """A wrapped boundary that is gone makes its metrics absent, not a crash."""
    import tracing

    tracer = tracing.Tracer()
    tracer.install(tuple(t for t in tracing.TARGETS if t[1] != "_scaled_atoms") + (("exactci.randtest", "_gone", "x", "leaf"),))
    tracer.uninstall()
    values, absent = tracer.metrics()
    check("randtest.atoms_built" in absent and "randtest.atoms_built" not in values
          and "randtest.tests" in values, "traced run reports a missing boundary's metrics as absent")


def check_refuses_without_program() -> None:
    bare = os.path.join(ROOT, ".perfbench", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
        check(proc.returncode != 0 and not proc.stdout.strip(), "refuses to run without the program")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    check_verifier()
    check_trace_degrades()
    check_refuses_without_program()
    check_metrics()
    print("smoke: all checks passed")
