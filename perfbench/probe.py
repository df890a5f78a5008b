"""Machine-speed probe that normalizes the benchmark's timings.

On a shared 2-core host the same work can take 1.2 s in one minute and
2.1 s a few minutes later, and runs of one workload spread by up to 37%
when timed bare. The probe is a fixed piece of work that shares no code
with the package: interpreter-bound small-array numpy calls, a LAPACK
factorization and solve, and a memory-bound elementwise pass, the three
kinds of work the workloads mix. It runs before and after every timed part,
and the part's wall time is scaled by REF_S / (median probe time around it):
the result reads as seconds on a machine where one probe takes REF_S. Raw
wall times stay in the run record next to their factors.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REF_S = 0.05  # nominal probe time; normalized seconds are at this speed
MIN_SHARE = 0.02  # after a part, probe for at least this share of its wall time


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(12345)
        a = rng.standard_normal((300, 300))
        self._spd = a @ a.T + 300.0 * np.eye(300)
        self._rhs = a
        self._x = rng.standard_normal((64, 20))
        self._w = rng.standard_normal((20, 32))
        self._big = rng.standard_normal((800, 800))

    def once(self) -> float:
        t0 = time.perf_counter()
        rng = np.random.default_rng(0)
        for _ in range(100):
            rows = [self._x[j] + rng.standard_normal(20) for j in range(12)]
            np.maximum(np.vstack(rows) @ self._w, 0.0).sum()
        for _ in range(4):
            np.linalg.solve(np.linalg.cholesky(self._spd), self._rhs)
        for _ in range(3):
            np.exp(-0.1 * self._big).sum()
        return time.perf_counter() - t0

    def sample(self, after_s: float = 0.0) -> list:
        """Probe times covering at least MIN_SHARE of `after_s` (one at least)."""
        times = [self.once()]
        while sum(times) < MIN_SHARE * after_s:
            times.append(self.once())
        return times


class PartTimer:
    """Times named parts of the work, each between two probe samples.

    `parts` holds (name, wall seconds, factor); wall * factor is the part's
    normalized time.
    """

    def __init__(self, speed: SpeedProbe):
        self.speed = speed
        self.before = speed.sample()
        self.parts = []

    def __call__(self, name, fn, *args, **kwargs):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        wall = time.perf_counter() - t0
        after = self.speed.sample(wall)
        self.parts.append((name, wall, REF_S / statistics.median(self.before + after)))
        self.before = after
        return result

    def last_s(self) -> float:
        _, wall, f = self.parts[-1]
        return wall * f
