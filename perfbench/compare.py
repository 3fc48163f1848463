"""Compare benchmark result files of two commits.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are each a result file written by ``run.py`` or a directory of
them (``.bench_results/`` holds one file per workload, seed and trace mode;
copy it aside between commits).  Files are grouped by workload and trace
mode; for every metric the medians and quartiles of each side are printed
with the relative change in the metric's "worse" direction.  End-to-end
metrics are checked against their bound in BENCHMARK.json: a median worse
by more than the bound prints REGRESSION, and a metric whose spread on
either side is wider than the bound prints UNRESOLVED.  The exit status is
1 if any REGRESSION was printed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def load(path: Path) -> dict:
    """{(workload, trace): {metric: ([values], unit)}} from a file or directory."""
    files = sorted(path.glob("*-trace[01].json")) if path.is_dir() else [path]
    groups: dict = {}
    for file in files:
        record = json.loads(file.read_text(encoding="utf-8"))
        group = groups.setdefault((record["meta"]["workload"], record["trace"]), {})
        for name, metric in record["metrics"].items():
            group.setdefault(name, ([], metric["unit"]))[0].append(metric["value"])
    return groups


def summary(values: list[float]) -> tuple[float, float]:
    """(median, interquartile range)."""
    if len(values) < 2:
        return values[0], 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q3 - q1


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    lower_is_better = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]
                       if m["better"] == "lower"}
    base, new = (load(Path(p)) for p in argv)
    regressions = 0
    for key in sorted(base.keys() & new.keys()):
        print(f"== {key[0]} (trace {key[1]})")
        for name, (base_values, unit) in base[key].items():
            if name not in new[key]:
                continue
            b_med, b_iqr = summary(base_values)
            n_med, n_iqr = summary(new[key][name][0])
            worse = ((n_med - b_med) if name in lower_is_better else (b_med - n_med))
            share = worse / abs(b_med) if b_med else 0.0
            verdict = ""
            if name in e2e:
                bound = e2e[name]["bound"]
                if max(b_iqr, n_iqr) > bound * abs(b_med):
                    verdict = "UNRESOLVED"
                elif share > bound:
                    verdict = "REGRESSION"
                    regressions += 1
                else:
                    verdict = "better" if share < 0 else f"within {bound:.0%}"
            print(f"  {name:42s} {b_med:12.6g} -> {n_med:12.6g} {unit:10s} "
                  f"worse by {share:+7.1%} (n={len(base_values)}/{len(new[key][name][0])}) "
                  f"{verdict}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
