"""Seeded input generation: determinism and the properties each workload promises."""

import csv
import io
from pathlib import Path

import pytest

from catalog import DF_LEVELS, GAMMA_LEVELS
from inputs import CONTINGENCY_TABLES, MC_STRATA, WORKLOADS, inputs_digest, make_plan

WHITE_CSV = Path(__file__).resolve().parents[2] / "data" / "white.csv"


def _generate(workload, seed, directory):
    directory.mkdir()
    plan = make_plan(workload, seed, directory, WHITE_CSV)
    return plan, inputs_digest(plan, directory)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload, tmp_path):
    plan_a, digest_a = _generate(workload, 7, tmp_path / "a")
    plan_b, digest_b = _generate(workload, 7, tmp_path / "b")
    assert [i.argv for i in plan_a.items] == [i.argv for i in plan_b.items]
    assert plan_a.warmup.argv == plan_b.warmup.argv
    files_a = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert files_a == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in files_a:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert digest_a == digest_b


@pytest.mark.parametrize("workload", ["contingency", "power", "power_mc"])
def test_other_seed_gives_other_inputs(workload, tmp_path):
    _, digest_a = _generate(workload, 1, tmp_path / "a")
    _, digest_b = _generate(workload, 2, tmp_path / "b")
    assert digest_a != digest_b


def test_contingency_tables_follow_the_spec(tmp_path):
    plan, _ = _generate("contingency", 3, tmp_path / "w")
    assert len(plan.items) == CONTINGENCY_TABLES
    assert sum(item.expect.get("white", False) for item in plan.items) == 1
    alphas = set()
    for item in plan.items:
        path = tmp_path / "w" / item.argv[1]
        rows = list(csv.reader(io.StringIO(path.read_text(encoding="utf-8"))))
        counts = [[int(v) for v in row[1:]] for row in rows[1:]]
        alphas.add(item.expect["alpha"])
        if item.expect.get("white"):
            continue
        assert counts == item.expect["counts"].tolist()
        assert 2 <= len(counts) <= 6 and 2 <= len(counts[0]) <= 6
        assert 50 <= sum(map(sum, counts)) <= 5000
        assert all(sum(row) > 0 for row in counts)
        assert all(sum(col) > 0 for col in zip(*counts))
    assert alphas == {0.05, 0.01}


def test_power_configs_span_the_df_range(tmp_path):
    plan, _ = _generate("power", 4, tmp_path / "w")
    dfs = sorted(item.expect["df"] for item in plan.items)
    gammas = {item.expect["gamma"] for item in plan.items}
    assert len(dfs) == len(gammas) == len(DF_LEVELS) // 2
    assert dfs[0] < 1.0 and dfs[-1] >= DF_LEVELS[-2]
    assert set(dfs) < set(DF_LEVELS) and gammas < set(GAMMA_LEVELS)


def test_power_mc_visits_each_stratum_once(tmp_path):
    plan, _ = _generate("power_mc", 5, tmp_path / "w")
    lows = sorted(DF_LEVELS.index(item.expect["df"]) // 2 * 2 for item in plan.items)
    assert lows == list(MC_STRATA)
    assert all(GAMMA_LEVELS.index(item.expect["gamma"]) // 2 * 2 ==
               DF_LEVELS.index(item.expect["df"]) // 2 * 2 for item in plan.items)
