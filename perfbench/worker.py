"""One pass of one workload in a fresh interpreter; prints one JSON object.

A pass runs the seed's whole operation list as a closed loop with one client
(no threads), timing every operation from outside the package, then checks
every output. The package's in-process caches start empty, as in a user's
process. Run from the repository root with ``src`` on ``PYTHONPATH``:

    python3 perfbench/worker.py --workload batch-shared --seed 1 --trace 0
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import resource
import sys
from contextlib import contextmanager, nullcontext
from time import perf_counter, process_time

import exactci
import exactci.cli

import calibrate
import inputs
import verify
from tracing import Tracer

WORK_DIR = ".perfbench"


def _span(tracer: Tracer | None, layer: str, alpha=None):
    return tracer.span(layer, alpha) if tracer else nullcontext()


class Clock:
    """Times operations and the loop around them, from outside the package.

    Before each operation it runs the calibration kernel (see calibrate.py),
    outside the operation's timer. Per operation it keeps the wall time, the
    process CPU time, the kernel time, and the CPU time of its slice of the
    loop: the operation plus the loop's own work since the previous one,
    without the kernel run. The slices add up to the loop's CPU time.
    """

    def __init__(self) -> None:
        self.wall_ms: list[float] = []
        self.cpu_ms: list[float] = []
        self.kernel_ms: list[float] = []
        self.slice_ms: list[float] = []
        self.loop_s = 0.0
        self._mark = 0.0  # CPU time at the end of the previous slice

    @contextmanager
    def loop(self):
        wall = perf_counter()
        self._mark = process_time()
        try:
            yield
        finally:
            self.loop_s = perf_counter() - wall
            if self.slice_ms:
                self.slice_ms[-1] += (process_time() - self._mark) * 1000.0

    @contextmanager
    def op(self):
        gap = process_time() - self._mark
        self.kernel_ms.append(calibrate.sample())
        wall, cpu = perf_counter(), process_time()
        try:
            yield
        finally:
            self._mark = process_time()
            self.cpu_ms.append((self._mark - cpu) * 1000.0)
            self.slice_ms.append((gap + self._mark - cpu) * 1000.0)
            self.wall_ms.append((perf_counter() - wall) * 1000.0)


def run_interactive(ops, tracer, clock):
    results = []
    with clock.loop():
        for i, op in enumerate(ops):
            nobs = exactci.ObservedTable(*op.cells)
            if tracer:
                tracer.op = i
            with clock.op(), _span(tracer, "methods.ci", op.alpha):
                res = exactci.ci_two_sided_frontier(nobs, op.alpha)
            results.append((res.ci_ntau, res.tests))
    return results


def run_batch(ops, tracer, clock, tag):
    os.makedirs(WORK_DIR, exist_ok=True)
    in_path = os.path.join(WORK_DIR, f"batch-{tag}.in.csv")
    out_path = os.path.join(WORK_DIR, f"batch-{tag}.out.csv")
    with open(in_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n11", "n10", "n01", "n00", "alpha", "method"])
        for op in ops:
            writer.writerow([*op.cells, str(op.alpha), op.method])

    # Per-row time: time the CLI's own per-row call from outside.
    inner = exactci.cli.compute_ci

    def timed_compute_ci(*args, **kwargs):
        with clock.op():
            return inner(*args, **kwargs)

    exactci.cli.compute_ci = timed_compute_ci
    code = 0
    try:
        with clock.loop(), _span(tracer, "cli.batch"):
            exactci.cli.main(["batch", in_path, "--output", out_path], standalone_mode=False)
    except SystemExit as exc:
        code = exc.code
    finally:
        exactci.cli.compute_ci = inner

    with open(out_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    results = [((int(r["ci_ntau_lo"]), int(r["ci_ntau_hi"])), int(r["tests"])) for r in rows]
    if code or len(results) != len(ops):
        raise RuntimeError(f"batch exited {code} with {len(results)} of {len(ops)} rows")
    return results


def run_coverage(sweeps, tracer, clock):
    results = []
    with clock.loop():
        for i, sweep in enumerate(sweeps):
            method_id = inputs.METHOD_IDS[sweep.method]
            tests = 0
            if tracer:
                tracer.op = i

            def ci_fn(nobs, method_id=method_id, alpha=sweep.alpha):
                nonlocal tests
                with _span(tracer, "coverage.ci_fn"), _span(tracer, "methods.ci", alpha):
                    res = exactci.compute_ci(method_id, nobs, alpha)
                tests += res.tests
                return res.ci_ntau

            with clock.op(), _span(tracer, "coverage.sweep"):
                report = exactci.exact_coverage_sweep(sweep.n, sweep.m, sweep.alpha, ci_fn)
            results.append((report, tests))
    return results


def run_pass(workload: str, seed: int, scale: str, trace: bool, tag: str) -> dict:
    tracer = Tracer() if trace else None
    make_inputs = {
        "interactive-frontier": inputs.interactive_ops,
        "batch-shared": inputs.batch_ops,
        "coverage-sweep": inputs.coverage_sweeps,
    }[workload]
    items = make_inputs(seed, scale)

    clock = Clock()
    if tracer:
        tracer.install()
    try:
        if workload == "coverage-sweep":
            results = run_coverage(items, tracer, clock)
        elif workload == "batch-shared":
            results = run_batch(items, tracer, clock, tag)
        else:
            results = run_interactive(items, tracer, clock)
    finally:
        if tracer:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Checks run only now, after the timed loop.
    if workload == "coverage-sweep":
        findings = [verify.check_sweep(s, r.min_coverage) for s, (r, _) in zip(items, results)]
        lines = [verify.sweep_line(s, r.per_table, t) for s, (r, t) in zip(items, results)]
    else:
        findings = [verify.check_op(op, ci, t) for op, (ci, t) in zip(items, results)]
        lines = [verify.op_line(op, ci, t) for op, (ci, t) in zip(items, results)]

    out = {
        "ops": len(items),
        "loop_s": clock.loop_s,
        "wall_ms": clock.wall_ms,
        "cpu_ms": clock.cpu_ms,
        "kernel_ms": clock.kernel_ms,
        "slice_ms": clock.slice_ms,
        "rand_tests": sum(t for _, t in results),
        "peak_rss_mb": peak_rss_mb,
        "digest": verify.digest(lines),
        **verify.summarize(findings),
    }
    if tracer:
        out["layers"], out["absent"] = tracer.metrics()
        out["self_ms"] = tracer.self_ms()
        os.makedirs(WORK_DIR, exist_ok=True)
        tracer.write_spans(os.path.join(WORK_DIR, f"spans-{tag}.jsonl"))
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=inputs.SCALES, default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tag", default="pass")
    args = parser.parse_args(argv)
    result = run_pass(args.workload, args.seed, args.scale, bool(args.trace), args.tag)
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
