"""Benchmark of exactci: cold single CIs, a shared-design batch, coverage sweeps.

Run from the repository root:

    python3 perfbench/run.py --workload interactive-frontier --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table

A run measures set-up time (fresh interpreters importing ``exactci.cli``,
half of them before the passes and half after). It runs whole passes of the
seed's operation list, each in a fresh worker interpreter (see worker.py),
while the next pass, taken as long as the longest so far, still fits in
``--seconds``; at least one. Outputs are checked after each pass's timed
loop, and every pass of one seed must give the same digest and test count.

Times are CPU times scaled to a reference machine speed with the
calibration kernel of calibrate.py, because the speed of the shared host
this was written on drifts by more than any bound a metric could have. The
run also prints the unscaled wall-clock figures.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs one untraced
pass and one traced pass and reports the per-layer metrics, including the
tracing overhead. Human-readable lines go first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. ``failed`` counts operations whose output failed a check;
operations whose output only shows a known deviation (a valid interval
wider than its definition implies) are reported on their own line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from time import monotonic

import calibrate
from inputs import SCALES, WORKLOADS
from tracing import METRICS

HERE = os.path.dirname(os.path.abspath(__file__))

SETUP_LAUNCHES = 6  # before the passes and again after them
SETUP_KERNEL_RUNS = 5  # kernel runs before each launch, to scale it
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "ops_per_s": "1/s",
    "rand_tests": "count",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def _env() -> dict[str, str]:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(deadline: float) -> list[float]:
    """CPU seconds of fresh interpreters from launch until exactci.cli is imported.

    Each launch is the child's CPU time (user + system, from the rusage of
    reaped children), scaled by the calibration kernel run just before it.
    """
    times = []
    for _ in range(SETUP_LAUNCHES):
        kernel_ms = statistics.median(calibrate.sample() for _ in range(SETUP_KERNEL_RUNS))
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        subprocess.run(
            [sys.executable, "-c", "import exactci.cli"],
            env=_env(), check=True, timeout=max(1.0, deadline - monotonic()),
        )
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu_s = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        times.append(cpu_s * calibrate.REFERENCE_MS / kernel_ms)
    return times


def run_worker(workload: str, seed: int, scale: str, trace: bool, tag: str, deadline: float) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload, "--seed", str(seed), "--scale", scale,
        "--trace", str(int(trace)), "--tag", tag,
    ]
    try:
        proc = subprocess.run(
            cmd, env=_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} pass {tag} did not finish in time") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} pass {tag} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(workload: str, seed: int, scale: str, seconds: float, deadline: float) -> list[dict]:
    """Whole passes while the next one, as long as the longest so far, fits in seconds (at least one)."""
    start = monotonic()
    passes, longest = [], 0.0
    while not passes or monotonic() - start + longest <= seconds:
        began = monotonic()
        passes.append(run_worker(workload, seed, scale, False, f"{workload}-{seed}-{len(passes)}", deadline))
        longest = max(longest, monotonic() - began)
    return passes


def _consistency(passes: list[dict]) -> list[str]:
    """Every pass of one seed must give identical outputs and test counts."""
    problems = []
    if len({p["digest"] for p in passes}) > 1:
        problems.append(f"output digests differ across passes: {[p['digest'] for p in passes]}")
    if len({p["rand_tests"] for p in passes}) > 1:
        problems.append(f"test counts differ across passes: {[p['rand_tests'] for p in passes]}")
    return problems


def scaled_ops_ms(p: dict) -> list[float]:
    """A pass's operation CPU times in reference ms."""
    return calibrate.scale(p["cpu_ms"], p["kernel_ms"])


def scaled_loop_s(p: dict) -> float:
    """A pass's loop CPU time without the kernel runs, in reference seconds."""
    return sum(calibrate.scale(p["slice_ms"], p["kernel_ms"])) / 1000.0


def end_to_end(passes: list[dict], setup: list[float]) -> tuple[dict, dict]:
    """Metric values and their sample counts."""
    lat = [x for p in passes for x in scaled_ops_ms(p)]
    ops = sum(p["ops"] for p in passes)
    values = {
        "setup_s": statistics.median(setup),
        "latency_p50_ms": statistics.median(lat),
        "latency_p90_ms": statistics.quantiles(lat, n=10)[8],
        "ops_per_s": ops / sum(scaled_loop_s(p) for p in passes),
        "rand_tests": passes[0]["rand_tests"],
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    samples = {
        "setup_s": len(setup),
        "latency_p50_ms": len(lat),
        "latency_p90_ms": len(lat),
        "ops_per_s": ops,
        "rand_tests": 1,
        "peak_rss_mb": len(passes),
    }
    return values, samples


def unscaled(passes: list[dict]) -> str:
    """The same run's wall-clock figures and kernel speed, for reference."""
    wall = [x for p in passes for x in p["wall_ms"]]
    kernel = [x for p in passes for x in p["kernel_ms"]]
    return (f"wall clock: p50 {statistics.median(wall):.4g} ms, "
            f"p90 {statistics.quantiles(wall, n=10)[8]:.4g} ms, "
            f"{sum(p['ops'] for p in passes) / sum(p['loop_s'] for p in passes):.4g} ops/s; "
            f"kernel {statistics.median(kernel):.4g} ms (reference {calibrate.REFERENCE_MS} ms)")


def per_layer(workload: str, seed: int, scale: str, deadline: float) -> tuple[dict, list[dict], list[str]]:
    plain = run_worker(workload, seed, scale, False, f"{workload}-{seed}-plain", deadline)
    traced = run_worker(workload, seed, scale, True, f"{workload}-{seed}-traced", deadline)
    values = dict(traced["layers"])
    values["trace.overhead_pct"] = 100.0 * (scaled_loop_s(traced) / scaled_loop_s(plain) - 1.0)
    return values, [plain, traced], traced["absent"]


def run_workload(workload: str, seed: int, seconds: float, trace: bool, scale: str) -> dict:
    deadline = monotonic() + RUN_LIMIT_S
    if trace:
        values, passes, absent = per_layer(workload, seed, scale, deadline)
        units = {name: unit for name, (unit, _) in METRICS.items()}
        units["trace.overhead_pct"] = "%"
        samples = {name: 1 for name in values}
    else:
        setup = measure_setup(deadline)
        passes = run_passes(workload, seed, scale, seconds, deadline)
        setup += measure_setup(deadline)
        values, samples = end_to_end(passes, setup)
        units, absent = END_TO_END_UNITS, []
    problems = _consistency(passes)
    failures = [f for p in passes for f in p["failures"]]
    attempted = sum(p["ops"] for p in passes)
    failed = sum(p["failed_ops"] for p in passes)
    deviating = sum(p["deviating_ops"] for p in passes)

    kind = "1 untraced + 1 traced" if trace else str(len(passes))
    print(f"== {workload}  seed={seed}  passes: {kind}  ops/pass: {passes[0]['ops']}")
    for name, value in values.items():
        shown = f"{value:>14d}" if isinstance(value, int) else f"{value:>14.6g}"
        print(f"  {name:<26} {shown} {units[name]:<6} (samples: {samples[name]})")
    for name in absent:
        print(f"  {name:<26} {'absent':>14}        (its wrapped boundary is gone)")
    if trace:
        print("  self time by layer (ms): " + ", ".join(
            f"{layer} {ms:.1f}" for layer, ms in passes[1]["self_ms"].items()))
    print(f"  {'failed_frac':<26} {(failed + deviating) / attempted:>14.6g}        "
          f"({failed + deviating} of {attempted} ops: {failed} failed, {deviating} known deviations)")
    if not trace:
        print(f"  {unscaled(passes)}")
    print(f"  digest {passes[0]['digest']}  rand_tests {passes[0]['rand_tests']}")
    for message in sorted(set(passes[0]["deviations"])):
        print(f"  deviation: {message}")
    for message in sorted(set(failures)) + problems:
        print(f"  FAILED: {message}")
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": attempted if problems else failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=SCALES, default="full", help="toy: tiny inputs, for the smoke test")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "exactci", "__init__.py")):
        print("error: run from the root of an exactci checkout (src/exactci not found)", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace), args.scale) for w in workloads}
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
