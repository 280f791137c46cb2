"""A speed probe that puts the benchmark's times on a fixed scale.

The benchmark's host is shared: the same pipeline call runs up to 70%
slower for minutes at a time, and that drift swamps any change worth
measuring. The probe times a fixed piece of interpreter work, owned by the
benchmark and untouched by the package, between the timed calls. The host
slows the probe and the calls together, so a call's time divided by the
probe's time around it holds still while the host drifts. Multiplied by
REFERENCE_S, it reads as seconds on the host the benchmark was tuned on.
"""

from __future__ import annotations

import gc
import statistics
import time

# The probe unit's median time on the host the benchmark was tuned on
# (a 2-vCPU Intel Xeon VM at 2.1 GHz, Python 3.11).
REFERENCE_S = 0.0125

# A probe is the median of this many units, taken once this much
# timed work has gone by since the last probe.
UNITS_PER_PROBE = 3
PROBE_EVERY_S = 0.5

_N = 1500


def unit() -> float:
    """Time one unit of fixed work like the pipeline's: dicts of sets, a
    greedy coloring and big-int masks. The collector is off, so the
    program's heap does not change the unit's cost."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        adj = {v: {(v * 7 + k * 13 + 1) % _N for k in range(1, 9)} - {v} for v in range(_N)}
        for v in range(_N):
            for u in adj[v]:
                adj[u].add(v)
        color: dict[int, int] = {}
        for v in range(_N):
            used = {color[u] for u in adj[v] if u in color}
            c = 0
            while c in used:
                c += 1
            color[v] = c
        masks = []
        for v in range(_N):
            mask = 0
            for u in adj[v]:
                mask |= 1 << u
            masks.append(mask)
        bits = 0
        for v in range(0, _N, 3):
            bits += bin(masks[v] & masks[(v * 11) % _N]).count("1")
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Probe:
    """Probes taken along a run. A call timed after probe `i` is put on the
    reference scale with the mean of probes `i` and `i + 1`, the host's
    speed just before and just after it."""

    def __init__(self) -> None:
        self.points: list[float] = []
        self._since = 0.0

    def take(self) -> int:
        self.points.append(statistics.median(unit() for _ in range(UNITS_PER_PROBE)))
        self._since = 0.0
        return len(self.points) - 1

    def latest(self) -> int:
        """Index of the last probe; take one first if there is none."""
        return len(self.points) - 1 if self.points else self.take()

    def spent(self, seconds: float) -> None:
        """Count timed work; probe again once enough has gone by."""
        self._since += seconds
        if self._since >= PROBE_EVERY_S:
            self.take()

    def to_reference(self, seconds: float, index: int) -> float:
        after = self.points[min(index + 1, len(self.points) - 1)]
        return seconds * REFERENCE_S * 2 / (self.points[index] + after)
