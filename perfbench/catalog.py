"""Fixed parameter levels the workloads draw from, and the recorded reference.

The power workloads pick (df, gamma) pairs from a finite grid of levels so
that every pair has a theta* recorded once in ``reference.json``; the
matched-threshold workloads (contingency, curve) use (df, alpha) pairs with
integer df.  ``record_reference.py`` writes the reference; the gate reads it.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# 32 log-spaced levels each, rounded to 4 significant digits so the argv
# strings are short and parse back to exactly these floats.  df < 1 puts
# the Bessel order in (-1, 0).
DF_LEVELS = tuple(float(f"{x:.4g}") for x in np.geomspace(0.5, 120.0, 32))
GAMMA_LEVELS = tuple(float(f"{x:.4g}") for x in np.geomspace(1.5, 100.0, 32))

CURVE_ALPHAS = (0.05, 0.01, 0.005, 0.001)
CURVE_DF_MAX = 120
CONTINGENCY_ALPHAS = (0.05, 0.01)


def pair_key(a: float, b: float) -> str:
    return f"{float(a)!r}|{float(b)!r}"


def load_reference() -> dict:
    """``{"match": {df|alpha: [gamma, theta_star]}, "solve": {df|gamma: theta_star}}``."""
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)
