"""A fixed unit of CPU work, timed next to every workload call, that
measures how fast the machine is running at that moment.

On a shared host the same work can run up to twice as slow for seconds
or minutes at a time, with CPU time equal to wall time and no steal, so
neither repetition nor CPU time filters it out. The kernel mixes the
kinds of work the library does (pure-Python graph search, small numpy
reductions, one HiGHS transportation LP) and uses none of the library's
code, so a change to the library cannot move it.
"""

from __future__ import annotations

import heapq
import random
import statistics
from time import perf_counter

import numpy as np
from scipy.optimize import linprog

#: Kernel time, in seconds, on the machine the bounds were set on
#: (2-core Intel Xeon at 2.0 GHz, Python 3.11, numpy 2.4, scipy 1.17)
#: when it was not slowed by other tenants. Normalised times are in
#: seconds at that speed.
NOMINAL_S = 0.0065


class Kernel:
    def __init__(self):
        rng = random.Random(1)
        n = 300
        self.adj = [{j: rng.random() for j in rng.sample(range(n), 8) if j != i}
                    for i in range(n)]
        self.x = np.arange(200.0)
        k = 12
        self.cost = np.random.default_rng(0).integers(1, 4, size=(k, k)).astype(float).ravel()
        self.a_eq = np.zeros((2 * k, k * k))
        for i in range(k):
            self.a_eq[i, i * k:(i + 1) * k] = 1.0
            self.a_eq[k + i, i::k] = 1.0
        self.b_eq = np.full(2 * k, 1.0 / k)

    def _prim(self):
        seen = {0}
        heap = [(w, j) for j, w in self.adj[0].items()]
        heapq.heapify(heap)
        while heap:
            _, j = heapq.heappop(heap)
            if j in seen:
                continue
            seen.add(j)
            for k, w in self.adj[j].items():
                if k not in seen:
                    heapq.heappush(heap, (w, k))

    @staticmethod
    def scale(before: float, after: float) -> float:
        """Factor that turns a time measured between two kernel timings
        into seconds at nominal speed."""
        return NOMINAL_S / ((before + after) / 2.0)

    def sample(self) -> float:
        """Median of three passes: the machine's speed now, with the
        jitter of a single pass filtered."""
        return statistics.median(self.time() for _ in range(3))

    def time(self) -> float:
        """Seconds one pass of the kernel takes now."""
        t0 = perf_counter()
        for _ in range(3):
            self._prim()
        x = self.x
        for _ in range(100):
            np.unique(np.minimum(x[::3], x[1::3][:67]))
        linprog(self.cost, A_eq=self.a_eq, b_eq=self.b_eq, bounds=(0, None), method="highs")
        return perf_counter() - t0
