"""The correctness gate passes real program output and rejects perturbed output."""

import io
import re

import numpy as np
import pytest

import gate
from catalog import DF_LEVELS, GAMMA_LEVELS, load_reference, pair_key
from inputs import table_csv
from umpbt.cli import run

REFERENCE = load_reference()
WHITE_CSV = str(__import__("pathlib").Path(__file__).resolve().parents[2] / "data" / "white.csv")


def invoke(argv):
    out = io.StringIO()
    assert run(argv, stdout=out, stderr=io.StringIO()) == 0
    return out.getvalue()


def replace_value(text, key, new):
    """Swap the value of one ``key=value`` field (first occurrence)."""
    return re.sub(rf"(^|\s){key}=[^\s]+", rf"\g<1>{key}={new}", text, count=1,
                  flags=re.MULTILINE)


def scaled(text, key, factor):
    value = float(re.search(rf"(?:^|\s){key}=([^\s]+)", text, re.MULTILINE).group(1))
    return replace_value(text, key, repr(value * factor))


@pytest.fixture(scope="module")
def white_out():
    return invoke(["contingency", WHITE_CSV, "--header", "--row-labels", "--alpha", "0.05"])


def test_white_example_passes(white_out):
    assert gate.check_contingency(white_out, {"white": True, "alpha": 0.05}, REFERENCE) == []


@pytest.mark.parametrize("key, factor", [("theta_star", 1 + 1e-6), ("gamma", 1 - 1e-6),
                                         ("statistic", 1.01)])
def test_white_example_rejects_perturbation(white_out, key, factor):
    bad = scaled(white_out, key, factor)
    assert gate.check_contingency(bad, {"white": True, "alpha": 0.05}, REFERENCE)


@pytest.fixture(scope="module")
def table_run(tmp_path_factory):
    counts = np.array([[30, 12, 9], [14, 25, 20]])
    path = tmp_path_factory.mktemp("tables") / "t.csv"
    path.write_bytes(table_csv(counts))
    out = invoke(["contingency", str(path), "--header", "--row-labels", "--alpha", "0.01"])
    return out, {"counts": counts, "alpha": 0.01}


def test_generated_table_passes(table_run):
    out, expect = table_run
    assert gate.check_contingency(out, expect, REFERENCE) == []


@pytest.mark.parametrize("key, factor", [("gamma", 1 + 1e-7), ("theta_star", 1 - 1e-7),
                                         ("statistic", 1 + 1e-6), ("log_bf", 1.001)])
def test_generated_table_rejects_perturbation(table_run, key, factor):
    out, expect = table_run
    assert gate.check_contingency(scaled(out, key, factor), expect, REFERENCE)


def test_curve_counts_each_bad_point(tmp_path):
    target = tmp_path / "c.csv"
    out = invoke(["curve", "--alphas", "0.05,0.01", "--df-max", "2", "-o", str(target)])
    text = target.read_text(encoding="utf-8")
    expect = {"alphas": (0.05, 0.01), "df_max": 2}
    assert gate.failed_units("curve", 4, 0, out, text, expect, REFERENCE) == (0, [])
    lines = text.splitlines()
    df, alpha, gamma, theta = lines[3].split(",")
    lines[3] = ",".join([df, alpha, repr(float(gamma) * (1 + 1e-7)), theta])
    failed, problems = gate.failed_units("curve", 4, 0, out, "\n".join(lines) + "\n",
                                         expect, REFERENCE)
    assert failed == 1 and "df=2 alpha=0.05" in problems[0]


def test_size_identity_detects_a_wrong_boundary():
    gamma, theta = REFERENCE["match"][pair_key(6.0, 0.05)]
    assert gate._check_matched(6.0, 0.05, gamma, theta, REFERENCE, "x") == []
    # a consistent but different (gamma, theta*) pair implies a boundary of another size
    gamma10, theta10 = REFERENCE["match"][pair_key(6.0, 0.01)]
    problems = gate._check_matched(6.0, 0.05, gamma10, theta10, REFERENCE, "x")
    assert any("size" in p for p in problems)


POWER = {"df": DF_LEVELS[0], "gamma": GAMMA_LEVELS[0]}


@pytest.fixture(scope="module")
def power_out():
    return invoke(["power", "--df", repr(POWER["df"]), "--gamma", repr(POWER["gamma"])])


def test_power_passes(power_out):
    assert gate.failed_units("power", 1, 0, power_out, None, POWER, REFERENCE) == (0, [])


@pytest.mark.parametrize("key, new", [("dominance", "fail"), ("max_margin", "1e-9"),
                                      ("boundary", "1.5")])
def test_power_rejects_perturbation(power_out, key, new):
    failed, problems = gate.failed_units("power", 1, 0, replace_value(power_out, key, new),
                                         None, POWER, REFERENCE)
    assert failed == 1 and problems


def test_power_rejects_theta_star_off_reference(power_out):
    assert gate.check_power(scaled(power_out, "theta_star", 1 + 1e-7), POWER, REFERENCE)


def test_nonzero_exit_fails_every_item():
    assert gate.failed_units("power_mc", 400, 2, "", None, {}, REFERENCE)[0] == 400


def test_monte_carlo_envelope():
    draws = 2000
    df, gamma = DF_LEVELS[10], GAMMA_LEVELS[10]
    theta = REFERENCE["solve"][pair_key(df, gamma)]
    out = invoke(["power", "--df", repr(df), "--gamma", repr(gamma),
                  "--theta-grid", f"{theta / 2:.6g}:{theta * 2:.6g}:2:log",
                  "--theta-t-grid", f"0:{theta * 2:.6g}:2", "--mc", str(draws), "--seed", "3"])
    expect = {"df": df, "gamma": gamma, "draws": draws}
    assert gate.failed_units("power_mc", 4 * draws, 0, out, None, expect, REFERENCE) == (0, [])
    # move one row's Monte Carlo rate far outside its envelope
    last = out.rstrip("\n").rsplit("\n", 1)[1]
    h = float(re.search(r" h=([^\s]+)", last).group(1))
    bad_last = re.sub(r"h_mc=[^\s]+", f"h_mc={min(1.0, h + 0.2)!r}", last)
    failed, problems = gate.failed_units("power_mc", 4 * draws, 0,
                                         out.replace(last, bad_last), None, expect, REFERENCE)
    assert failed == draws and "envelope" in problems[0]
    # zero hits at a tiny rate stays inside: the envelope never trips on a correct count
    assert gate._mc_envelope(1e-9, draws) >= 1e-9
