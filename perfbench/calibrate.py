"""Calibration loop: how fast the machine runs right now.

The benchmark runs on shared virtual machines whose speed drifts by a third
or more over minutes, for every process alike, so a run's wall times depend
on when it ran.  The worker times this fixed loop between program calls and
``run.py`` scales each call's wall time by ``REFERENCE_NS / loop time``: the
metrics read as times on a machine on which the loop takes 2 ms.  The loop
shares no code with the program, so a faster or slower program moves the
scaled times exactly as much as it moves the wall times.  The loop mixes the
three kinds of work the program does: interpreter-bound Python, numpy on
16,384-element arrays (one Monte Carlo chunk), and small-array numpy calls.
"""

from __future__ import annotations

import math
import time

import numpy as np

REFERENCE_NS = 2_000_000
SAMPLES = 5

_X = np.linspace(0.1, 50.0, 16384)


def _python() -> int:
    total = 0
    for i in range(25000):
        total += i * i
    return total


def _numpy() -> None:
    for _ in range(20):
        np.log(np.cosh(_X * 0.01) + _X * _X).sum()


def _mixed() -> float:
    total = 0.0
    for _ in range(240):
        total += float(np.exp(-_X[:200] * 1.5).sum()) + sum(range(50))
    return total


KERNELS = (_python, _numpy, _mixed)


def measure() -> float:
    """Loop time in ns: the geometric mean over the three kernels of each
    kernel's mean over ``SAMPLES`` timings (each about 2 ms)."""
    log_sum = 0.0
    for kernel in KERNELS:
        total = 0
        for _ in range(SAMPLES):
            t0 = time.perf_counter_ns()
            kernel()
            total += time.perf_counter_ns() - t0
        log_sum += math.log(total / SAMPLES)
    return math.exp(log_sum / len(KERNELS))


def scale(ns: float, before: float, after: float) -> float:
    """``ns`` measured between loop timings ``before`` and ``after``,
    scaled to the reference speed."""
    return ns * REFERENCE_NS / ((before + after) / 2.0)
