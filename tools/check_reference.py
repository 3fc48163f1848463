"""Re-solve every entry of the benchmark's gamma / theta* reference exactly.

Run from the repository root:

    python3 tools/check_reference.py

It reads ``perfbench/reference.json`` through ``perfbench/catalog.py``,
solves each (df, alpha) ``match`` entry with ``match_gamma_to_alpha`` and
each (df, gamma) ``solve`` entry with ``solve_umpbt_chisq``, and compares
gamma and theta* with ``==``.  The benchmark gate allows 1e-8 relative;
this check shows whether a change to the solver keeps the recorded values
bit for bit.  It prints each mismatch and their count, and exits 1 when
there is any.  It takes about a minute.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from catalog import load_reference  # noqa: E402
from umpbt import ChiSqTestSpec, match_gamma_to_alpha, solve_umpbt_chisq  # noqa: E402


def _pair(key: str) -> tuple[float, float]:
    a, b = key.split("|")
    return float(a), float(b)


def main() -> int:
    reference = load_reference()
    mismatches = 0
    for key, (gamma, theta_star) in reference["match"].items():
        df, alpha = _pair(key)
        sol = match_gamma_to_alpha(ChiSqTestSpec(df=df, alpha=alpha))
        if (sol.gamma, sol.theta_star) != (gamma, theta_star):
            mismatches += 1
            print(f"match {key}: gamma {sol.gamma!r} theta* {sol.theta_star!r}, "
                  f"reference {gamma!r} {theta_star!r}")
    for key, theta_star in reference["solve"].items():
        df, gamma = _pair(key)
        sol = solve_umpbt_chisq(ChiSqTestSpec(df=df, gamma=gamma))
        if sol.theta_star != theta_star:
            mismatches += 1
            print(f"solve {key}: theta* {sol.theta_star!r}, reference {theta_star!r}")
    entries = len(reference["match"]) + len(reference["solve"])
    print(f"{mismatches} mismatches over {entries} entries "
          f"({len(reference['solve'])} solve, {len(reference['match'])} match)")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
