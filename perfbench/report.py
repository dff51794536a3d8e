"""Shared helpers: percentiles, memory, correctness bookkeeping, the spec."""

from __future__ import annotations

import json
import math
import pathlib
import resource
import time
from typing import Sequence

#: ``BENCHMARK.json`` sits at the root of the checkout, beside this directory.
SPEC_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_spec() -> dict:
    """The benchmark definition: workloads and every metric's name and unit."""
    return json.loads(SPEC_PATH.read_text())


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


#: What :func:`host_probe_s` takes on the development host in its fast
#: periods.  Simulator timings are scaled to this host speed.
PROBE_REFERENCE_S = 0.060


def host_probe_s() -> float:
    """Seconds a fixed pure-Python loop takes: a reading of the host's
    speed at this moment.  It runs no code of the program under test and
    allocates nothing the collector tracks, so no change to the program
    can move it."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(500_000):
        key = i & 1023
        table[key] = table.get(key, 0) + i
    return time.perf_counter() - start


def host_slowdown(probes_s: Sequence[float]) -> float:
    """How much slower than the reference speed the host ran: the mean of
    the probes taken meanwhile over ``PROBE_REFERENCE_S``."""
    return sum(probes_s) / len(probes_s) / PROBE_REFERENCE_S


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Checks:
    """Correctness checks; each failure counts as one failed operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)
