"""A fixed pure-Python kernel that measures how fast the machine runs right now.

The host this benchmark was written on shares its cores with other tenants,
and its speed moves by up to a factor of two over minutes to hours, far more
than a change to the program would. Each worker runs this kernel before
every operation (outside the operation's timer) and scales the operation's
time by ``REFERENCE_MS / kernel time``: a time in "reference ms" is what the
operation would take on a machine that runs the kernel in ``REFERENCE_MS``.
A faster or slower program moves the scaled time; a faster or slower machine
moves the kernel and the operation alike, and the ratio stays.

The kernel does the kind of work the package does (exact split enumeration
over a fixed 2x2 potential table, with big-integer products, a dict merge, a
sort and a tail-sum scan), so that contention slows both alike. It is the
benchmark's own code and never calls the package, so a change to the package
cannot move it.
"""

from __future__ import annotations

import gc
import statistics
from math import comb
from time import process_time

# Kernel CPU ms at the reference speed; scaled times are in these units.
REFERENCE_MS = 0.7
# Operations scaled by the median kernel time of this many neighbours on each side.
WINDOW = 2

_CELLS = (8, 7, 6, 8)
_M = 14


def kernel() -> int:
    """One fixed unit of work; returns a checksum so nothing is optimized away.

    It allocates almost no objects that the cyclic garbage collector tracks
    (ints and an int-keyed dict only), so it neither triggers collections
    that the program would have paid for nor pays for the program's.
    """
    n = sum(_CELLS)
    c = [[comb(k, j) for j in range(k + 1)] for k in _CELLS]
    n11, n10, n01, n00 = _CELLS
    merged: dict[int, int] = {}
    for x11 in range(max(0, _M - n10 - n01 - n00), min(n11, _M) + 1):
        r1 = _M - x11
        for x10 in range(max(0, r1 - n01 - n00), min(n10, r1) + 1):
            w10 = c[0][x11] * c[1][x10]
            r2 = r1 - x10
            for x01 in range(max(0, r2 - n00), min(n01, r2) + 1):
                x00 = r2 - x01
                key = n * ((x11 + x10) * (n - _M) - (n11 - x11 + n01 - x01) * _M)
                merged[key] = merged.get(key, 0) + w10 * c[2][x01] * c[3][x00]
    keys = sorted(merged)
    total = 0
    for cut in keys:
        for s in keys:
            if abs(s) >= abs(cut):
                total += merged[s]
    return total


def sample() -> float:
    """CPU ms of one kernel run, with the cyclic garbage collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = process_time()
        kernel()
        return (process_time() - start) * 1000.0
    finally:
        if enabled:
            gc.enable()


def scale(times_ms: list[float], kernel_ms: list[float]) -> list[float]:
    """Each time scaled by the median kernel time around it (same index)."""
    out = []
    for i, t in enumerate(times_ms):
        near = kernel_ms[max(0, i - WINDOW): i + WINDOW + 1]
        out.append(t * REFERENCE_MS / statistics.median(near))
    return out
