"""Record the gamma / theta* reference the benchmark gate compares against.

Run from the repository root:

    python3 perfbench/record_reference.py

It calls the library directly (full precision, no CLI rounding) for every
(df, alpha) pair of the curve and contingency workloads and every
(df, gamma) level pair of the power workloads, and rewrites
``perfbench/reference.json``.  Only re-record when a change is meant to move
these values; the gate's 1e-8 relative tolerance absorbs accuracy gains
smaller than that.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from catalog import (  # noqa: E402
    CURVE_ALPHAS,
    CURVE_DF_MAX,
    DF_LEVELS,
    GAMMA_LEVELS,
    REFERENCE_PATH,
    pair_key,
)
from umpbt import ChiSqTestSpec, match_gamma_to_alpha, solve_umpbt_chisq  # noqa: E402


def main() -> None:
    match = {}
    for df in range(1, CURVE_DF_MAX + 1):
        for alpha in CURVE_ALPHAS:
            sol = match_gamma_to_alpha(ChiSqTestSpec(df=float(df), alpha=alpha))
            match[pair_key(df, alpha)] = [sol.gamma, sol.theta_star]
    solve = {}
    for df in DF_LEVELS:
        for gamma in GAMMA_LEVELS:
            sol = solve_umpbt_chisq(ChiSqTestSpec(df=df, gamma=gamma))
            solve[pair_key(df, gamma)] = sol.theta_star
        print(f"df={df}: done", file=sys.stderr)
    with open(REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump({"match": match, "solve": solve}, handle, indent=0)
        handle.write("\n")


if __name__ == "__main__":
    main()
