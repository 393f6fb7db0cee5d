"""A fixed computation, timed between passes, that measures the host's speed.

On a shared machine the same pass of a workload can take twice as long in one
minute as in the next, because other tenants load the host.  The gated time
metric is therefore a pass's seconds divided by the seconds of this
computation timed right before and after it: a change in host speed moves
both and cancels, while a change in the library moves only the pass.  This
code never calls the library, so no change to the library can move it.

It mixes, in about equal time, the two kinds of work the workloads do: a
per-step decision loop over small arrays with Python lists, sets and dicts,
and one sort of a large array.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REPEATS = 3  # the reference time is the median of this many runs


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.sums = rng.random(200) * 50.0
        self.counts = 50.0 + rng.integers(0, 50, 200)
        self.big = rng.random(100_000)

    def _run(self) -> int:
        kept = 0
        for step in range(40):
            u = np.arange(200 - step)
            means = self.sums[u] / self.counts[u]
            radius = np.sqrt(np.log(1e6 * (step + 1)) / (2.0 * self.counts[u]))
            order = np.argsort(-means, kind="stable")
            head, tail = order[:20], order[20:]
            lcb, ucb = means - radius, means + radius
            kept += len([int(u[i]) for i in head if lcb[i] > ucb[tail].max()])
            kept += len([int(u[i]) for i in tail if ucb[i] < lcb[head].min()])
            by_arm = {int(a): float(m) for a, m in zip(u[:100], means[:100])}
            kept += len(set(by_arm) - {1, 2, 3})
        return kept + int(np.argsort(self.big, kind="stable")[0])

    def seconds(self) -> float:
        """Median seconds of :data:`REPEATS` runs of the computation."""
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            self._run()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)
