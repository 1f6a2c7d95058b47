"""In-memory tracing of the package's layers for the traced run.

Modules import names by value, so each wrapper replaces a name in the module
that looks it up (``exactci.methods.frontier_scan``, not the definition in
``exactci.tables``). A target that no longer exists is skipped and the
metrics that need it are reported absent rather than failing the run.

Every wrapped call is a frame on a stack; a frame's self time is its
duration minus the time of the frames it encloses. Coarse frames (method
calls, searches, sweeps, the batch command) are also kept as spans
``(name, start, end, parent, op)`` and written out when the run ends.
Frequent leaf calls (compatibility checks, p-values, null-distribution
builds, count intervals) are aggregated as counts and times instead, to
keep memory bounded.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, name, layer, kind): kind is "span" (kept as a span), "leaf"
# (aggregated), "gen" (generator, timed while it is consumed), "pvalue"
# or "atoms". The CLI's compute_ci is the batch command's per-row call.
TARGETS = (
    ("exactci.cli", "compute_ci", "methods.ci", "row"),
    ("exactci.methods", "frontier_scan", "methods.search", "span"),
    ("exactci.methods", "ci_brute_force", "methods.search", "span"),
    ("exactci.methods", "ci_count", "hypergeom", "leaf"),
    ("exactci.methods", "is_compatible", "tables.compat", "leaf"),
    ("exactci.methods", "iter_compatible", "tables.enum", "gen"),
    ("exactci.randtest", "p_two_sided", "randtest.decide", "pvalue"),
    ("exactci.randtest", "p_one_sided", "randtest.decide", "pvalue"),
    ("exactci.randtest", "_scaled_atoms", "randtest.atoms", "atoms"),
)

# Marks a null-distribution build whose cache can tell hits from builds.
ATOMS_CACHE = "randtest.atoms.cache"

# Per-layer metric -> (unit, wrapped layers it needs).
METRICS = {
    "randtest.atoms_built": ("count", {ATOMS_CACHE}),
    "randtest.build_ms": ("ms", {ATOMS_CACHE}),
    "randtest.atoms_hits": ("count", {ATOMS_CACHE}),
    "randtest.atoms_hit_ratio": ("ratio", {ATOMS_CACHE}),
    "randtest.tests": ("count", {"randtest.decide"}),
    "randtest.decide_ms": ("ms", {"randtest.decide"}),
    "randtest.atoms_scanned": ("count", {"randtest.decide", "randtest.atoms"}),
    "methods.ci_calls": ("count", set()),
    "methods.ci_ms": ("ms", set()),
    "methods.search_ms": ("ms", {"methods.search"}),
    "methods.accept_ratio": ("ratio", {"randtest.decide"}),
    "tables.compat_checks": ("count", {"tables.compat"}),
    "tables.compat_ms": ("ms", {"tables.compat"}),
    "tables.enumerated": ("count", {"tables.enum"}),
    "tables.enum_ms": ("ms", {"tables.enum"}),
    "hypergeom.calls": ("count", {"hypergeom"}),
    "hypergeom.ms": ("ms", {"hypergeom"}),
    "coverage.sweeps": ("count", set()),
    "coverage.ci_calls": ("count", set()),
    "coverage.self_ms": ("ms", set()),
    "cli.rows": ("count", {"methods.ci"}),
    "cli.self_ms": ("ms", {"methods.ci"}),
}


class Tracer:
    """Frame stack, aggregated layer counters and kept spans."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # [layer, start, child_seconds, span index or -1]
        self.spans: list[list] = []
        self.count: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.extra: dict[str, float] = defaultdict(float)
        self.alphas: list = []
        self.op = 0
        self.installed: set[str] = set()
        self._undo: list[tuple[object, str, object]] = []

    # -- frames ---------------------------------------------------------

    def _enter(self, layer: str, keep: bool) -> list:
        idx = -1
        if keep:
            parent = self.stack[-1][3] if self.stack else -1
            idx = len(self.spans)
            self.spans.append([layer, perf_counter(), None, parent, self.op])
        frame = [layer, perf_counter(), 0.0, idx]
        self.stack.append(frame)
        return frame

    def _exit(self, frame: list) -> float:
        end = perf_counter()
        self.stack.pop()
        dur = end - frame[1]
        layer = frame[0]
        self.count[layer] += 1
        self.total_s[layer] += dur
        self.self_s[layer] += dur - frame[2]
        if self.stack:
            self.stack[-1][2] += dur
        if frame[3] >= 0:
            self.spans[frame[3]][2] = end
        return dur

    @contextmanager
    def span(self, layer: str, alpha=None):
        """A kept span opened from benchmark code around a call into a layer."""
        if alpha is not None:
            self.alphas.append(alpha)
        frame = self._enter(layer, True)
        try:
            yield
        finally:
            self._exit(frame)
            if alpha is not None:
                self.alphas.pop()

    # -- wrappers -------------------------------------------------------

    def _wrap(self, fn, layer: str, kind: str):
        tracer = self

        if kind in ("span", "row"):

            @functools.wraps(fn)
            def wrapped(*args, **kwargs):
                if kind == "row":
                    tracer.extra["cli.rows"] += 1
                alpha = _alpha_arg(fn.__name__, args, kwargs)
                if alpha is not None:
                    tracer.alphas.append(alpha)
                frame = tracer._enter(layer, True)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._exit(frame)
                    if alpha is not None:
                        tracer.alphas.pop()

        elif kind == "leaf":

            @functools.wraps(fn)
            def wrapped(*args, **kwargs):
                frame = tracer._enter(layer, False)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._exit(frame)

        elif kind == "gen":

            @functools.wraps(fn)
            def wrapped(*args, **kwargs):
                it = iter(fn(*args, **kwargs))
                while True:
                    frame = tracer._enter(layer, False)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit(frame)
                    tracer.extra["tables.enumerated"] += 1
                    yield item

        elif kind == "pvalue":

            @functools.wraps(fn)
            def wrapped(*args, **kwargs):
                frame = tracer._enter(layer, False)
                try:
                    p = fn(*args, **kwargs)
                finally:
                    tracer._exit(frame)
                if tracer.alphas and p >= tracer.alphas[-1]:
                    tracer.extra["accepted"] += 1
                return p

        else:  # "atoms": an lru_cache'd build; a miss is a build
            info = getattr(fn, "cache_info", None)

            @functools.wraps(fn)
            def wrapped(*args, **kwargs):
                misses = info().misses if info else 0
                frame = tracer._enter(layer, False)
                try:
                    atoms = fn(*args, **kwargs)
                finally:
                    dur = tracer._exit(frame)
                if info:
                    if info().misses > misses:
                        tracer.extra["atoms_built"] += 1
                        tracer.extra["build_s"] += dur
                    else:
                        tracer.extra["atoms_hits"] += 1
                if tracer.stack and tracer.stack[-1][0] == "randtest.decide":
                    tracer.extra["atoms_scanned"] += len(atoms)
                return atoms

            if info is not None:
                self.installed.add(ATOMS_CACHE)

        return wrapped

    def install(self, targets=TARGETS) -> None:
        """Wrap every target that exists; remember what to restore."""
        for module_name, name, layer, kind in targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            fn = getattr(module, name, None)
            if not callable(fn):
                continue
            self._undo.append((module, name, fn))
            setattr(module, name, self._wrap(fn, layer, kind))
            self.installed.add(layer)

    def uninstall(self) -> None:
        for module, name, fn in reversed(self._undo):
            setattr(module, name, fn)
        self._undo.clear()

    # -- results --------------------------------------------------------

    def metrics(self) -> tuple[dict[str, float], list[str]]:
        """Per-layer metrics of everything recorded, and the absent ones."""
        c, self_ms, total_ms = self.count, _ms(self.self_s), _ms(self.total_s)
        tests = c["randtest.decide"]
        built, hits = self.extra["atoms_built"], self.extra["atoms_hits"]
        values = {
            "randtest.atoms_built": built,
            "randtest.build_ms": self.extra["build_s"] * 1000.0,
            "randtest.atoms_hits": hits,
            "randtest.atoms_hit_ratio": hits / (hits + built) if hits + built else 0.0,
            "randtest.tests": tests,
            "randtest.decide_ms": self_ms["randtest.decide"],
            "randtest.atoms_scanned": self.extra["atoms_scanned"],
            "methods.ci_calls": c["methods.ci"],
            "methods.ci_ms": total_ms["methods.ci"],
            "methods.search_ms": self_ms["methods.search"],
            "methods.accept_ratio": self.extra["accepted"] / tests if tests else 0.0,
            "tables.compat_checks": c["tables.compat"],
            "tables.compat_ms": total_ms["tables.compat"],
            "tables.enumerated": self.extra["tables.enumerated"],
            "tables.enum_ms": total_ms["tables.enum"],
            "hypergeom.calls": c["hypergeom"],
            "hypergeom.ms": total_ms["hypergeom"],
            "coverage.sweeps": c["coverage.sweep"],
            "coverage.ci_calls": c["coverage.ci_fn"],
            "coverage.self_ms": self_ms["coverage.sweep"],
            "cli.rows": self.extra["cli.rows"],
            "cli.self_ms": self_ms["cli.batch"],
        }
        absent = [name for name, (_, needs) in METRICS.items() if not needs <= self.installed]
        values = {k: int(v) if METRICS[k][0] == "count" else v for k, v in values.items()}
        return {k: v for k, v in values.items() if k not in absent}, absent

    def self_ms(self) -> dict[str, float]:
        """Self time of every layer that recorded a frame."""
        return dict(sorted(_ms(self.self_s).items()))

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op}) + "\n")


def _ms(seconds: dict[str, float]) -> dict[str, float]:
    return defaultdict(float, {k: v * 1000.0 for k, v in seconds.items()})


def _alpha_arg(fn_name: str, args: tuple, kwargs: dict):
    """The level of a method call: compute_ci(method, nobs, alpha, ...) or fn(nobs, alpha, ...)."""
    if "alpha" in kwargs:
        return kwargs["alpha"]
    pos = 2 if fn_name == "compute_ci" else 1
    return args[pos] if len(args) > pos else None
