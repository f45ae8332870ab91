"""Host-speed reference kernel: a frozen loop with the call pattern of the studies.

The speed of a shared host drifts: on a 2-core VM the same study with the
same seed took anywhere from 2.3 s to 4.7 s within minutes, and medians over
longer windows did not remove it.  Before every untraced repetition the
benchmark times this kernel, and reports end-to-end times scaled by
`NOMINAL_S / median(kernel time)`: the wall time the study would take on
this host at the speed where the kernel runs in `NOMINAL_S`.  The kernel is
frozen here, so a change to moscal moves the study time but never the
kernel.

A kernel only tracks drift that slows its own mix of work.  This one repeats
greedy cover repairs: many numpy calls on small arrays driven from Python,
which is how all four workloads spend their time.  It tracked every
workload better than the other kernels tried (dictionary loops, 2-opt
descents on 100x100 matrices, mixed scalarization of stacked move arrays).
"""

from __future__ import annotations

import time

import numpy as np

# Kernel time at the reference host speed, about the usual speed of a
# 2-core Xeon VM.
NOMINAL_S = 0.5
_REPAIRS = 1600


def time_kernel() -> float:
    """Seconds one pass of the kernel takes now (inputs built untimed)."""
    rng = np.random.default_rng(0)
    coverage = rng.random((40, 200)) < 0.2
    costs = rng.integers(1, 101, size=(2, 200)).astype(float)
    weights = [np.array([lam, 1.0 - lam]) for lam in rng.random(_REPAIRS)]
    started = time.perf_counter()
    for r, w in enumerate(weights):
        covered = np.zeros(40, dtype=bool)
        covered[r % 40] = True
        point = np.zeros(2)
        while not covered.all():
            newly = coverage[~covered].sum(axis=0)
            cand = np.flatnonzero(newly > 0)
            base = point @ w
            increase = (point[None, :] + costs[:, cand].T) @ w - base
            pick = int(cand[np.argmin(increase / newly[cand])])
            covered |= coverage[:, pick]
            point += costs[:, pick]
    return time.perf_counter() - started
