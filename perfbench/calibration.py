"""Machine-speed calibration for a shared, noisy host.

On the shared 2-vCPU virtual machine this benchmark was defined on, the
speed of the same pure-Python op drifts by up to +-30 % within a minute
(other tenants share the physical cores), and it drifts uniformly across the
kind of code hqs runs.
Raw wall times of two runs minutes apart therefore differ more than any
change worth detecting.  So every run interleaves a fixed reference loop with
its ops (about 1.5 % of the run) and reports each time scaled to reference
speed: ``t * REF_S / ref`` where ``ref`` is the local median duration of the
reference loop.  A change to hqs cannot move the reference loop; only a change
to this file can, and that is a change to the benchmark.  Raw figures are
printed on stderr next to the scaled ones.
"""

from __future__ import annotations

import bisect
import hashlib
import heapq
import json
import random
import statistics
import time

REF_S = 0.0015      # scaled times read as seconds on a host where reference() takes 1.5 ms
REF_EVERY_S = 0.1   # op time between two reference samples
clock = time.perf_counter


def reference() -> int:
    """A fixed stdlib-only mix of what hqs spends its time on: frozenset
    algebra, canonical JSON, sha256, heap traffic and small calls."""
    rng = random.Random(2304)
    sets = [frozenset(rng.sample(range(48), 4)) for _ in range(40)]
    misses = sum(1 for a in sets for b in sets if not (a & b & sets[0]) and not a <= b)
    doc = {str(i): sorted(s) for i, s in enumerate(sets)}
    for _ in range(8):
        hashlib.sha256(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode())
    heap = []
    for i in range(300):
        heapq.heappush(heap, (rng.randint(1, 6), i, "apl"))
    while heap:
        heapq.heappop(heap)
    return misses


def sample() -> float:
    t0 = clock()
    reference()
    return clock() - t0


def steady_ref() -> float:
    """Median of five back-to-back reference samples."""
    return statistics.median(sample() for _ in range(5))


class Calibrator:
    """Reference samples taken between ops, keyed by the op count at the time."""

    def __init__(self):
        self.at = []          # op index each sample was taken before
        self.ref = []         # reference durations, seconds
        self._since = 0.0

    def take(self, op_index: int):
        self.at.append(op_index)
        self.ref.append(sample())
        self._since = 0.0

    def after_op(self, op_index: int, seconds: float):
        self._since += seconds
        if self._since >= REF_EVERY_S:
            self.take(op_index + 1)

    def scale(self, latencies: list) -> list:
        """Latencies at reference speed, each by the median of the five
        reference samples nearest to it."""
        out = []
        for i, t in enumerate(latencies):
            j = bisect.bisect_right(self.at, i)
            lo = max(0, min(j - 2, len(self.ref) - 5))
            out.append(t * REF_S / statistics.median(self.ref[lo:lo + 5]))
        return out

    def factor(self) -> float:
        """Whole-run scale factor: REF_S over the median reference sample."""
        return REF_S / statistics.median(self.ref)
