"""umpbt benchmark: four CLI workloads, end-to-end metrics, and a traced run.

    python3 perfbench/run.py --workload {contingency,curve,power,power_mc}
                             --seed N --seconds S --trace {0,1}

Run from the repository root (it needs ``src/umpbt`` and ``data/white.csv``
there).  Inputs are generated from the seed before timing; a child process
drives ``umpbt.cli.run`` in a closed loop with one client; every output goes
through the correctness gate.  ``--trace 0`` reports the end-to-end metrics;
their times are scaled to the reference speed of a calibration loop timed
between calls (``calibrate.py``), and the wall-clock figures are printed
beside them.  ``--trace 1`` replays a fixed prefix of the items once untraced and once
under the outside-in tracer and reports per-layer metrics.  The last stdout
line is one JSON object; the full record (with run metadata) is also written
to ``.bench_results/``.  Exit status is 1 when any item fails the gate and
2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WHITE_CSV = ROOT / "data" / "white.csv"
RESULTS = ROOT / ".bench_results"

# One thread for every numeric library, in this process and its children,
# so the numbers measure the program and not the scheduler.
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_ENV)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import calibrate  # noqa: E402
import gate  # noqa: E402
import tracer  # noqa: E402
from catalog import load_reference  # noqa: E402
from inputs import TRACE_ITEMS, WORKLOADS, inputs_digest, make_plan  # noqa: E402

SETUP_REPEATS = 7
WORKER_TIMEOUT_S = 75
SETUP_TIMEOUT_S = 30


def measure_setup() -> tuple[list[float], list[float]]:
    """Wall time in s of a fresh interpreter importing umpbt.cli, several
    times: as measured, and scaled by the calibration loop timed just
    before and after each.  The wait blocks until the child exits; a wait
    with a timeout would poll, in steps of up to 50 ms."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import umpbt.cli"
    wall, scaled = [], []
    before = calibrate.measure()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter_ns()
        proc = subprocess.Popen([sys.executable, "-c", code], cwd=ROOT)
        timer = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            returncode = proc.wait()
        finally:
            timer.cancel()
        ns = time.perf_counter_ns() - t0
        if returncode != 0:
            raise subprocess.CalledProcessError(returncode, proc.args)
        after = calibrate.measure()
        wall.append(ns / 1e9)
        scaled.append(calibrate.scale(ns, before, after) / 1e9)
        before = after
    return wall, scaled


def run_worker(plan, workdir: Path, seconds: float, trace: bool, spans_path=None) -> dict:
    def item_json(item):
        return {"argv": list(item.argv), "read_file": item.read_file}

    items = plan.items[:TRACE_ITEMS[plan.workload]] if trace else plan.items
    plan_path = workdir / "plan.json"
    result_path = workdir / "result.json"
    plan_path.write_text(json.dumps({
        "src": str(SRC), "trace": trace, "seconds": seconds,
        "spans_path": str(spans_path) if spans_path else None,
        "warmup": item_json(plan.warmup), "items": [item_json(i) for i in items],
    }), encoding="utf-8")
    subprocess.run([sys.executable, str(HERE / "worker.py"), str(plan_path),
                    str(result_path)], check=True, cwd=workdir, timeout=WORKER_TIMEOUT_S)
    with open(result_path, encoding="utf-8") as handle:
        result = json.load(handle)
    result_path.unlink()
    return result


def item_ns(calls, calibration_ns, scaled: bool) -> dict[int, float]:
    """Median call time per item, in ns; ``scaled`` scales each call by the
    calibration loop timed just before and after it (``calibrate.scale``)."""
    times: dict[int, list[float]] = {}
    for call in calls:
        ns = call["ns"]
        if scaled:
            ns = calibrate.scale(ns, calibration_ns[call["cal"]],
                                 calibration_ns[call["cal"] + 1])
        times.setdefault(call["item"], []).append(ns)
    return {item: statistics.median(values) for item, values in times.items()}


def best_ns(calls) -> dict[int, int]:
    """Fastest call per item.  Other load on the machine only ever slows a
    call, so the fastest of an item's rounds is the least disturbed one."""
    best = {}
    for call in calls:
        best[call["item"]] = min(call["ns"], best.get(call["item"], call["ns"]))
    return best


def grade(plan, result, reference) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over the timed calls; the warm-up call
    is gated too, and its problems are reported without counting items."""
    problems = []
    warm = result["warmup"]
    _, warm_problems = gate.failed_units(plan.warmup.kind, plan.warmup.units, warm["rc"],
                                         warm["out"], warm["file"], plan.warmup.expect,
                                         reference)
    problems += [f"warm-up: {p}" for p in warm_problems]
    attempted = failed = 0
    verdicts = {}  # identical outputs of one item share a verdict
    for call in result["calls"]:
        item = plan.items[call["item"]]
        key = (call["item"], call["rc"], call["out"], call["file"])
        if key not in verdicts:
            verdicts[key] = gate.failed_units(item.kind, item.units, call["rc"], call["out"],
                                              call["file"], item.expect, reference)
        bad, found = verdicts[key]
        attempted += item.units
        failed += bad
        if found and len(problems) < 50:
            problems += found[:5] + ([call["err"].strip()] if call["err"] else [])
    return attempted, failed, problems


def metadata(workload: str, seed: int, digest: str) -> dict:
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, env={**os.environ, "GIT_DIR": str(ROOT / ".git")})
            sha = proc.stdout.strip() or sha
        except OSError:  # no git on this machine
            pass
    return {
        "workload": workload, "seed": seed, "git_sha": sha,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "env": PINNED_ENV,
        "inputs_sha256": digest,
    }


def timings(plan, calls, calibration_ns, scaled: bool) -> tuple[float, float, float, int]:
    """(items/s, p50 ms, p90 ms, items beyond p90) over each item's median
    call time."""
    per_item = item_ns(calls, calibration_ns, scaled)
    ms = np.array([per_item[i] for i in sorted(per_item)], dtype=float) / 1e6
    units = sum(plan.items[i].units for i in per_item)
    p50, p90 = np.percentile(ms, [50, 90])
    return units / (ms.sum() / 1e3), float(p50), float(p90), int((ms > p90).sum())


def end_to_end(plan, result, setup) -> tuple[dict, dict]:
    """Set-up time, throughput and latency percentiles over each item's
    median call, every time scaled to the calibration loop's reference
    speed.  The unscaled figures go with the samples.  The 90th percentile
    goes with the samples too: only a workload with at least ten items
    beyond it defines it."""
    calls, calibration_ns = result["calls"], result["calibration_ns"]
    per_s, p50, p90, beyond_p90 = timings(plan, calls, calibration_ns, scaled=True)
    setup_wall, setup_scaled = setup
    metrics = {
        "setup_s": (statistics.median(setup_scaled), "s"),
        "items_per_s": (per_s, "items/s"),
        "call_ms_p50": (p50, "ms"),
        "peak_rss_mb": (result["maxrss_kb"] / 1024.0, "MB"),
    }
    wall_per_s, wall_p50, wall_p90, _ = timings(plan, calls, calibration_ns, scaled=False)
    samples = {
        "calls": len(calls),
        "items": len(plan.items),
        "rounds": len(calls) // len(plan.items),
        "calibrations": len(calibration_ns),
        "beyond_p90": beyond_p90,
        # not a bounded metric: only contingency has ten items beyond it
        "call_ms_p90": p90,
        "setup_s": setup_scaled,
        "wall": {"setup_s": statistics.median(setup_wall), "items_per_s": wall_per_s,
                 "call_ms_p50": wall_p50,
                 "call_ms_p90": wall_p90,
                 "calibration_ms_median": statistics.median(calibration_ns) / 1e6},
    }
    return metrics, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    for needed in (SRC / "umpbt" / "cli.py", WHITE_CSV):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} not found; run from a checkout of "
                  "the repository", file=sys.stderr)
            return 2

    reference = load_reference()
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = Path(tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT))
    try:
        plan = make_plan(args.workload, args.seed, workdir, WHITE_CSV)
        digest = inputs_digest(plan, workdir)
        meta = metadata(args.workload, args.seed, digest)
        if args.trace:
            spans_path = RESULTS / f"{stem}-spans.json"
            result = run_worker(plan, workdir, args.seconds, trace=True,
                                spans_path=spans_path)
            spans = tracer.load_spans(spans_path)
            untraced, traced = (
                sum(best_ns([c for c in result["calls"] if c["traced"] == flag]).values())
                for flag in (False, True))
            metrics = tracer.layer_metrics(spans, untraced, traced)
            samples = {"calls": len(result["calls"]), "spans": len(spans)}
            missing = tracer.missing_coverage(args.workload, spans)
        else:
            result = run_worker(plan, workdir, args.seconds, trace=False)
            metrics, samples = end_to_end(plan, result, measure_setup())
            missing = []
        attempted, failed, problems = grade(plan, result, reference)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems += [f"trace coverage: {name} recorded no calls" for name in missing]
    correct = not problems and failed == 0
    record = {
        "meta": meta, "trace": args.trace, "seconds": args.seconds,
        "samples": samples, "call_ns": [[c["item"], c["ns"]] for c in result["calls"]],
        "correct": correct, "attempted": attempted,
        "failed": failed, "error_rate": failed / attempted, "problems": problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n",
                                          encoding="utf-8")

    print(" ".join(f"{k}={v}" for k, v in meta.items() if k != "env"))
    for problem in problems:
        print(f"FAIL {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name:42s} {value:14.6g} {unit}")
    if "call_ms_p90" in samples:
        beyond = samples["beyond_p90"]
        note = "" if beyond >= 10 else f" (only {beyond} items beyond it: indicative)"
        print(f"{'call_ms_p90':42s} {samples['call_ms_p90']:14.6g} ms{note}")
    if "wall" in samples:
        wall = samples["wall"]
        print("unscaled wall clock: " + " ".join(f"{k}={v:.6g}" for k, v in wall.items()))
    print(f"{'error_rate':42s} {failed / attempted:14.6g} ratio "
          f"({failed} of {attempted} items failed)")
    print("samples " + json.dumps(samples))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
