"""Reference kernel that tracks the host's speed.

The shared host this benchmark was built on runs the same work up to about
1.55x slower for stretches of tens of seconds.  A fixed kernel of the same
kind of work as the lab's hot path (a Jacobi-preconditioned scipy CG on a
64x96 five-point Laplacian, plus an interpreter loop) slows by the same
factor: over four minutes with both regimes, the time of 20 corpus cases
varied 0.51-0.82 s while its ratio to the kernel stayed within 7.1-7.8.
``run.py`` measures the kernel between operations and reports times scaled
to ``REF_KERNEL_S``, the kernel's time on that host in its fast state.  The
kernel uses scipy and numpy only, so no change to poissonlab moves it.
"""
from __future__ import annotations

import statistics
import time

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import cg

REF_KERNEL_S = 0.0225
REPEATS = 5


class Kernel:
    def __init__(self):
        def lap1d(n):
            return sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))

        nx, ny = 64, 96
        self.A = (sparse.kron(lap1d(nx), sparse.identity(ny))
                  + sparse.kron(sparse.identity(nx), lap1d(ny))).tocsr()
        self.b = np.ones(self.A.shape[0])
        self.M = sparse.diags(1.0 / self.A.diagonal())
        self._run()

    def _run(self):
        cg(self.A, self.b, rtol=0.0, atol=0.0, maxiter=400, M=self.M)
        total = 0
        for i in range(20000):
            total += i
        return total

    @staticmethod
    def scale(seconds: float, before: float, after: float) -> float:
        """``seconds`` at the reference speed, given the kernel times
        measured before and after."""
        return seconds * REF_KERNEL_S / (0.5 * (before + after))

    def measure(self) -> float:
        """Median seconds of one kernel over REPEATS runs."""
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            self._run()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)
