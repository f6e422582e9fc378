"""A fixed task that runs at the host's current speed, to scale timings by.

The host this benchmark was tuned on runs the same Python code at two speeds
about 1.8x apart, switching every few seconds to minutes (the whole VM, CPU
time and wall time alike).  The task below is interpreted float arithmetic,
math calls and small numpy operations, the mix the solver and the Jacobi
oracle spend their time on, and shares no code with arspec.  Timed before
and after every operation, it tells how fast the host ran that operation:
the benchmark scales the operation's time by REFERENCE_S over the mean of
the two, so that it reads as seconds at one fixed reference speed.  Over 4-second
windows of a 150-second probe this cut the spread (interquartile range over
median) of solve_spectrum(1500) times from 0.17 to 0.06 and of Jacobi at
n = 40 from 0.22 to 0.06.  Over ten 20-second runs of the cli workload,
whose operations are mostly process start, it cut the spread of wall_s from
0.14 to 0.08 and of op_p90_ms from 0.19 to 0.06.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Between the task's times at the tuning host's two speeds, about 1.5 ms and
# 2.4 ms, so that scaled times read close to real ones.
REFERENCE_S = 2.0e-3


def task() -> float:
    """Bisection of a trigonometric function from 120 starting points."""
    total = 0.0
    row = np.linspace(0.0, 1.0, 16)
    for j in range(120):
        a, b = 0.1 + 0.005 * j, 3.0
        fa = math.sin(7.0 * a) / (math.cos(a) + 2.0) - 0.1
        for _ in range(40):
            m = 0.5 * (a + b)
            fm = math.sin(7.0 * m) / (math.cos(m) + 2.0) - 0.1
            if (fm < 0.0) == (fa < 0.0):
                a, fa = m, fm
            else:
                b = m
        row = row * 0.5 + float(np.dot(row, row)) * 1e-3
        total += a
    return total


def task_seconds() -> float:
    start = time.perf_counter()
    task()
    return time.perf_counter() - start
