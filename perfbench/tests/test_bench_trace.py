"""Outside-in tracer: bindings, coverage of the predicted cells, repeatable counts."""

import io
from pathlib import Path

import pytest

import tracer
import umpbt
from inputs import WORKLOADS, make_plan
from umpbt import bayes, cli, power, solver, special

WHITE_CSV = Path(__file__).resolve().parents[2] / "data" / "white.csv"


def test_install_wraps_every_binding_and_uninstall_restores():
    originals = (bayes._log_bf_core, special.chisq_cdf, special.log_bessel_i_array)
    t = tracer.Tracer()
    bindings = t.install()
    try:
        assert solver._log_bf_core is bayes._log_bf_core is power._log_bf_core
        assert bayes._log_bf_core.__wrapped__ is originals[0]
        assert special.chisq_cdf.__wrapped__ is originals[1]
        assert bayes.log_bessel_i_array is special.log_bessel_i_array
        assert umpbt.rejection_boundary is solver.rejection_boundary is power.rejection_boundary
        assert bindings["bayes._log_bf_core"] == 3
        assert all(count >= 1 for count in bindings.values())
    finally:
        t.uninstall()
    assert (bayes._log_bf_core, special.chisq_cdf, special.log_bessel_i_array) == originals
    assert solver._log_bf_core is originals[0]


def _traced_run(workload, workdir, monkeypatch):
    """Trace the warm-up and first item of a workload's plan (curve and
    power_mc use their small warm-up calls only)."""
    plan = make_plan(workload, 11, workdir, WHITE_CSV)
    items = [plan.warmup] if workload in ("curve", "power_mc") else [plan.warmup, plan.items[0]]
    monkeypatch.chdir(workdir)
    t = tracer.Tracer()
    t.install()
    try:
        for request, item in enumerate(items):
            t.request = request
            assert cli.run(list(item.argv), stdout=io.StringIO(), stderr=io.StringIO()) == 0
    finally:
        t.uninstall()
    return t.spans


@pytest.mark.parametrize("workload", WORKLOADS)
def test_predicted_cells_record_calls(workload, tmp_path, monkeypatch):
    spans = _traced_run(workload, tmp_path, monkeypatch)
    assert tracer.missing_coverage(workload, spans) == []
    metrics = tracer.layer_metrics(spans, 1, 1)
    for name, (value, _) in metrics.items():
        assert value >= 0, name


def test_counts_repeat_exactly(tmp_path, monkeypatch):
    runs = []
    for k in range(2):
        workdir = tmp_path / str(k)
        workdir.mkdir()
        spans = _traced_run("contingency", workdir, monkeypatch)
        metrics = tracer.layer_metrics(spans, 1, 1)
        runs.append({name: value for name, (value, unit) in metrics.items()
                     if unit in ("count", "calls/solve") or name.endswith("repeat_share")})
    assert runs[0] == runs[1]
    assert runs[0]["bayes._log_bf_core.calls"] > 0


def test_missing_binding_is_reported():
    spans = [["cli.run", 0, 10, -1, 0, None]]
    assert "power.mc_rejection_rate" in tracer.missing_coverage("power_mc", spans)


def test_self_time_subtracts_direct_children():
    spans = [
        ["cli.run", 0, 100, -1, 0, None],
        ["solver.match_gamma_to_alpha", 10, 60, 0, 0, [6.0, 0.05]],
        ["bayes._log_bf_core", 20, 40, 1, 0, 5],
        ["special.log_bessel_i_array", 25, 35, 2, 0, 5],
        ["solver.match_gamma_to_alpha", 70, 90, 0, 0, [6.0, 0.05]],
    ]
    m = tracer.layer_metrics(spans, 100, 110)
    assert m["cli.run.self_s"][0] == pytest.approx(30e-9)
    assert m["solver.match_gamma_to_alpha.self_s"][0] == pytest.approx(50e-9)
    assert m["bayes._log_bf_core.self_s"][0] == pytest.approx(10e-9)
    assert m["special.log_bessel_i_array.ns_per_elem"][0] == pytest.approx(2.0)
    assert m["solver.match_gamma_to_alpha.repeat_share"][0] == 0.5
    assert m["solver.logbf_calls_per_solve"][0] == 0.5
    assert m["trace.overhead_share"][0] == pytest.approx(0.1)
