"""Child process that drives ``umpbt.cli.run`` for one workload.

    python3 perfbench/worker.py PLAN.json RESULT.json

Runs in the work directory holding the generated inputs.  One thread, one
client, closed loop: each invocation starts when the previous one returns.
After the warm-up call it runs the plan's argv lists in order, in whole
rounds, for as long as another round is expected to finish within
``seconds``.  It times the calibration loop (``calibrate.py``) before a call
whenever 0.1 s has passed since the last timing, and once at the end, so
every call lies between two loop timings.  With ``trace`` set it instead
runs untraced and traced rounds alternately, ``TRACE_ROUNDS`` of each, and
writes the first traced round's spans to ``spans_path`` when the run ends.  Only call times are measured; reading
the curve's output file happens between calls, outside them.
"""

from __future__ import annotations

import io
import json
import resource
import sys
import time
from pathlib import Path

import calibrate  # this file's directory is first on sys.path

TRACE_ROUNDS = 2
CALIBRATE_EVERY_S = 0.1


class Calibration:
    """Loop timings taken between calls; ``before()`` returns the index of
    the latest one, and the one after it (``index + 1``) follows the call."""

    def __init__(self):
        self.ns: list[float] = []
        self.last = -float("inf")

    def run(self) -> None:
        self.ns.append(calibrate.measure())
        self.last = time.perf_counter()

    def before(self) -> int:
        if time.perf_counter() - self.last >= CALIBRATE_EVERY_S:
            self.run()
        return len(self.ns) - 1


def _call(cli, argv, read_file):
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter_ns()
    rc = cli.run(list(argv), stdout=out, stderr=err)
    ns = time.perf_counter_ns() - t0
    text = Path(read_file).read_text(encoding="utf-8") if read_file and rc == 0 else None
    return {"rc": rc, "ns": ns, "out": out.getvalue(), "err": err.getvalue()[-2000:],
            "file": text}


def _round(cli, items, calls, tracer=None, calibration=None) -> None:
    """Run every item once, appending one record per call."""
    for index, item in enumerate(items):
        if tracer is not None:
            tracer.request = index
        cal = calibration.before() if calibration is not None else None
        record = _call(cli, item["argv"], item["read_file"])
        record.update(item=index, traced=tracer is not None, cal=cal)
        calls.append(record)


def main(plan_path: str, result_path: str) -> None:
    with open(plan_path, encoding="utf-8") as handle:
        plan = json.load(handle)
    sys.path.insert(0, plan["src"])
    from umpbt import cli

    warmup = _call(cli, plan["warmup"]["argv"], plan["warmup"]["read_file"])
    items, calls, calibration_ns = plan["items"], [], []
    if plan["trace"]:
        from tracer import Tracer

        # untraced and traced rounds alternate, so the overhead estimate is
        # not one slow stretch of the machine; spans come from the first
        # traced round only, so counts repeat exactly
        tracers = [Tracer() for _ in range(TRACE_ROUNDS)]
        for tracer in tracers:
            _round(cli, items, calls)
            tracer.install()
            try:
                _round(cli, items, calls, tracer)
            finally:
                tracer.uninstall()
        tracers[0].dump(plan["spans_path"])
    else:
        calibration = Calibration()
        calibrate.measure()  # warm-up
        start = time.perf_counter()
        rounds = 0
        while True:
            _round(cli, items, calls, calibration=calibration)
            rounds += 1
            # another round only if one more of average length still fits
            if (time.perf_counter() - start) * (rounds + 1) / rounds > plan["seconds"]:
                break
        calibration.run()
        calibration_ns = calibration.ns

    result = {
        "warmup": warmup,
        "calls": calls,
        "calibration_ns": calibration_ns,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
