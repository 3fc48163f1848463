"""Command-line surface: grammar, exit codes, determinism, output formats."""

import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from umpbt import BracketingError, cli
from umpbt.cli import render_plain, run

ROOT = Path(__file__).resolve().parent.parent
WHITE_CSV = str(ROOT / "data" / "white.csv")


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def parse_plain(text):
    """key=value lines into a dict; row lines into a list of dicts."""
    record, rows = {}, []
    for line in text.splitlines():
        if line.startswith("row "):
            rows.append(dict(tok.split("=", 1) for tok in line[4:].split()))
        else:
            key, value = line.split("=", 1)
            record[key] = value
    return record, rows


class TestChisqCommand:
    def test_gamma_mode(self):
        code, out, err = invoke(["chisq", "--df", "6", "--gamma", "3.46"])
        assert code == 0 and err == ""
        record, _ = parse_plain(out)
        assert float(record["theta_star"]) == pytest.approx(7.31, abs=0.01)
        assert record["direction"] == "1"

    def test_alpha_mode(self):
        code, out, _ = invoke(["chisq", "--df", "6", "--alpha", "0.05"])
        assert code == 0
        record, _ = parse_plain(out)
        assert float(record["gamma"]) == pytest.approx(3.46, abs=0.01)
        assert float(record["theta_star"]) == pytest.approx(7.31, abs=0.01)

    def test_missing_threshold_is_usage_error(self):
        code, out, err = invoke(["chisq", "--df", "6"])
        assert code == 1
        assert out == ""
        assert "usage" in err
        assert "error: usage:" in err

    def test_both_thresholds_rejected(self):
        code, _, err = invoke(["chisq", "--df", "6", "--gamma", "3", "--alpha", "0.05"])
        assert code == 1
        assert "error: usage:" in err

    def test_solver_failure_exits_two(self, monkeypatch):
        def fail(spec):
            raise BracketingError("could not bracket the matched threshold")

        monkeypatch.setattr(cli, "match_gamma_to_alpha", fail)
        code, _, err = invoke(["chisq", "--df", "6", "--alpha", "0.05"])
        assert code == 2
        assert err.startswith("error: solver:")

    def test_unattainable_alpha_exits_one(self):
        code, out, err = invoke(["chisq", "--df", "6", "--alpha", "0.99"])
        assert code == 1 and out == ""
        assert err.startswith("error: domain:")

    def test_near_bound_alpha_exits_one(self):
        """alpha just inside P(chi2_df > df): the matched threshold rounds to
        gamma = 1, which no test accepts, so the input is out of domain."""
        code, out, err = invoke(["chisq", "--df", "1000", "--alpha", "0.49405285"])
        assert code == 1 and out == ""
        assert err.startswith("error: domain:")

    def test_large_df_alpha_mode(self):
        """df = 1e5 puts the Bessel order near 5e4, beyond the series' term
        budget; the uniform expansion carries the solve."""
        code, out, err = invoke(["chisq", "--df", "1e5", "--alpha", "0.05", "--json"])
        assert code == 0 and err == ""
        # 30-digit root of the first-order condition y R(z) = z
        assert json.loads(out)["gamma"] == pytest.approx(3.85877231115, rel=1e-8)

    def test_unknown_flag(self):
        code, _, err = invoke(["chisq", "--df", "6", "--gamma", "3", "--bogus"])
        assert code == 1
        assert "usage" in err


class TestBfCommand:
    def test_reports_bayes_factor_at_statistic(self):
        code, out, _ = invoke(["bf", "--df", "6", "--stat", "12.65",
                               "--alpha", "0.05"])
        assert code == 0
        record, _ = parse_plain(out)
        assert float(record["bf"]) == pytest.approx(3.52, abs=0.01)
        assert float(record["log_bf"]) == pytest.approx(
            math.log(float(record["bf"])), abs=1e-6)

    def test_nonpositive_statistic_is_domain_error(self):
        code, _, err = invoke(["bf", "--df", "6", "--stat", "0", "--gamma", "3"])
        assert code == 1
        assert err.startswith("error: domain:")

    def test_gamma_mode(self):
        code, out, _ = invoke(["bf", "--df", "1", "--stat", "3.8415",
                               "--gamma", "3.0"])
        assert code == 0
        record, _ = parse_plain(out)
        assert float(record["gamma"]) == 3.0
        assert float(record["bf"]) > 1.0


    @pytest.mark.parametrize("fmt", ([], ["--json"]))
    def test_overflowing_bayes_factor_exits_one(self, fmt):
        code, out, err = invoke(["bf", "--df", "6", "--stat", "1e300",
                                 "--alpha", "0.05"] + fmt)
        assert code == 1 and out == ""
        assert err == ("error: domain: linear value exp(2.70405e+150) "
                       "overflows double precision\n")

    def test_large_df_overflow_exits_one(self):
        """At df 60002 the Bessel order is 30000, past the series budget;
        a statistic of 1e300 still reaches the overflow message."""
        code, out, err = invoke(["bf", "--df", "60002", "--stat", "1e300",
                                 "--gamma", "3"])
        assert code == 1 and out == ""
        assert err == ("error: domain: linear value exp(2.26929e+151) "
                       "overflows double precision\n")


class TestContingencyCommand:
    def test_worked_example(self):
        code, out, err = invoke(["contingency", WHITE_CSV, "--alpha", "0.05",
                                 "--header", "--row-labels"])
        assert code == 0 and err == ""
        record, _ = parse_plain(out)
        assert float(record["statistic"]) == pytest.approx(12.65, abs=0.01)
        assert record["df"] == "6"
        assert float(record["gamma"]) == pytest.approx(3.46, abs=0.01)
        assert float(record["theta_star"]) == pytest.approx(7.31, abs=0.01)
        assert float(record["bf"]) == pytest.approx(3.52, abs=0.01)

    def test_missing_file(self):
        code, _, err = invoke(["contingency", "no-such-file.csv"])
        assert code == 1
        assert err.startswith("error: io:")

    def test_parse_error_maps_to_status_one(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,x\n3,4\n")
        code, _, err = invoke(["contingency", str(bad)])
        assert code == 1
        assert err.startswith("error: parse:")
        assert "row 1, column 2" in err

    def test_degenerate_margin_maps_to_status_one(self, tmp_path):
        bad = tmp_path / "zero.csv"
        bad.write_text("0,2\n0,4\n")
        code, _, err = invoke(["contingency", str(bad)])
        assert code == 1
        assert err.startswith("error: validation:")


    @pytest.mark.parametrize("fmt", ([], ["--json"]))
    def test_overflowing_bayes_factor_exits_one(self, tmp_path, fmt):
        table = tmp_path / "lopsided.csv"
        table.write_text("a,b\n100000000,1\n1,100000000\n")
        code, out, err = invoke(["contingency", str(table), "--header"] + fmt)
        assert code == 1 and out == ""
        assert err == ("error: domain: linear value exp(27689.8) "
                       "overflows double precision\n")


class TestExpfamCommand:
    def test_normal_mean(self):
        code, out, _ = invoke(["expfam", "--model", "normal-mean-known-variance",
                               "--theta0", "0", "--n", "5", "--gamma", "3",
                               "--side", "greater"])
        assert code == 0
        record, _ = parse_plain(out)
        expected = math.sqrt(2.0 * math.log(3.0) / 5.0)
        assert float(record["theta_star"]) == pytest.approx(expected, abs=1e-6)

    def test_invalid_model_is_usage_error(self):
        code, _, err = invoke(["expfam", "--model", "poisson", "--theta0", "1",
                               "--n", "5", "--gamma", "3", "--side", "greater"])
        assert code == 1
        assert "usage" in err

    def test_unreachable_threshold_exits_one(self):
        code, out, err = invoke(["expfam", "--model", "binomial-proportion",
                                 "--theta0", "0.5", "--n", "1", "--gamma", "100",
                                 "--side", "greater"])
        assert code == 1 and out == ""
        assert err.startswith("error: domain:")
        assert "gamma must stay below 2" in err


class TestPowerCommand:
    def test_rows_and_verdict(self):
        code, out, _ = invoke(["power", "--df", "2", "--gamma", "3",
                               "--theta-grid", "1:20:4:log",
                               "--theta-t-grid", "0:8:3"])
        assert code == 0
        record, rows = parse_plain(out)
        assert record["dominance"] == "pass"
        assert len(rows) == 12
        assert all(0.0 <= float(r["h"]) <= 1.0 for r in rows)
        keys = [(float(r["theta_t"]), float(r["theta"])) for r in rows]
        assert keys == sorted(keys)

    def test_mc_column(self):
        code, out, _ = invoke(["power", "--df", "2", "--gamma", "3",
                               "--theta-grid", "2:6:2:log",
                               "--theta-t-grid", "0:4:2",
                               "--mc", "20000", "--seed", "3"])
        assert code == 0
        _, rows = parse_plain(out)
        for row in rows:
            assert abs(float(row["h_mc"]) - float(row["h"])) < 0.02

    def test_bad_grid_spec(self):
        code, _, err = invoke(["power", "--df", "2", "--gamma", "3",
                               "--theta-grid", "1:2"])
        assert code == 1
        assert err.startswith("error: domain:")

    @pytest.mark.parametrize("option, spec", [("--theta-t-grid", "0:inf:2"),
                                              ("--theta-grid", "nan:2:2")])
    def test_non_finite_grid_endpoint(self, option, spec):
        code, out, err = invoke(["power", "--df", "6", "--gamma", "3.46", option, spec])
        assert code == 1 and out == ""
        assert err.startswith("error: domain:")
        assert repr(spec) in err

    def test_negative_seed_exits_one(self):
        code, out, err = invoke(["power", "--df", "6", "--gamma", "3.46",
                                 "--mc", "10", "--seed", "-1"])
        assert code == 1 and out == ""
        assert err.startswith("error: domain:")


class TestCurveCommand:
    def test_writes_plot_ready_csv(self, tmp_path):
        out_path = tmp_path / "curve.csv"
        code, out, _ = invoke(["curve", "--alphas", "0.05,0.01", "--df-max", "4",
                               "-o", str(out_path)])
        assert code == 0
        record, _ = parse_plain(out)
        assert record["points"] == "8"
        lines = out_path.read_text().splitlines()
        assert lines[0] == "df,alpha,gamma,theta_star"
        assert len(lines) == 9
        first = lines[1].split(",")
        assert first[0] == "1" and first[1] == "0.05"
        assert float(first[2]) == pytest.approx(3.4145, abs=1e-3)

    def test_malformed_alphas_list(self, tmp_path):
        code, _, err = invoke(["curve", "--alphas", "0.05,oops", "--df-max", "2",
                               "-o", str(tmp_path / "c.csv")])
        assert code == 1
        assert err.startswith("error: domain:")


class TestTtestDemoCommand:
    def test_malformed_theta_t_list(self):
        code, _, err = invoke(["ttest-demo", "--n", "10", "--gamma", "3",
                               "--theta-t", "2,x"])
        assert code == 1
        assert err.startswith("error: domain:")

    def test_report_shape(self):
        code, out, _ = invoke(["ttest-demo", "--n", "10", "--gamma", "3",
                               "--theta-t", "2,4", "--seed", "5",
                               "--draws", "20000"])
        assert code == 0
        record, rows = parse_plain(out)
        assert record["n"] == "10"
        assert record["nonexistence"] == "true"
        assert len(rows) == 2
        assert float(rows[0]["argmax_theta"]) < float(rows[1]["argmax_theta"])

    def test_negative_seed_exits_one(self):
        code, out, err = invoke(["ttest-demo", "--n", "10", "--gamma", "3",
                                 "--theta-t", "2,4", "--seed", "-1", "--draws", "100"])
        assert code == 1 and out == ""
        assert err.startswith("error: domain:")


class TestOutputContract:
    def test_byte_identical_reruns(self):
        argv = ["power", "--df", "2", "--gamma", "3", "--theta-grid", "1:9:3:log",
                "--theta-t-grid", "0:4:2", "--mc", "5000", "--seed", "21"]
        first = invoke(argv)
        second = invoke(argv)
        assert first == second

    @pytest.mark.parametrize("argv", [
        ["chisq", "--df", "6", "--alpha", "0.05"],
        ["contingency", WHITE_CSV, "--header", "--row-labels"],
        ["power", "--df", "2", "--gamma", "3", "--theta-grid", "1:9:3:log",
         "--theta-t-grid", "0:4:2"],
        ["ttest-demo", "--n", "10", "--gamma", "3", "--theta-t", "2,4",
         "--seed", "5", "--draws", "5000"],
    ])
    def test_json_round_trips_to_plain(self, argv):
        code_p, plain, _ = invoke(argv)
        code_j, as_json, _ = invoke(argv + ["--json"])
        assert code_p == code_j == 0
        payload = json.loads(as_json)
        assert "\n".join(render_plain(payload)) + "\n" == plain

    def test_numbers_use_ten_significant_digits(self):
        _, out, _ = invoke(["chisq", "--df", "6", "--alpha", "0.05"])
        record, _ = parse_plain(out)
        for key in ("gamma", "theta_star", "boundary"):
            rendered = record[key]
            # the rendering is exactly the 10-significant-digit form
            assert f"{float(rendered):.10g}" == rendered
        assert float(record["gamma"]) == pytest.approx(3.458007348, abs=1e-8)
        assert float(record["theta_star"]) == pytest.approx(7.311910528, abs=1e-6)


def fresh_process(script, *args):
    """Run a new interpreter on the source tree; returns (status, stdout, stderr)."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


class TestParserReuse:
    """run() builds its parser on first use and reuses it in the process."""

    RUN = "import sys; from umpbt.cli import run; sys.exit(run(sys.argv[1:]))"

    @pytest.mark.parametrize("argv", [
        ["chisq", "--df", "6", "--alpha", "0.05"],
        ["bf", "--df", "6", "--stat", "12.65", "--gamma", "3", "--json"],
    ])
    def test_valid_run_after_usage_error_matches_fresh_process(self, argv):
        expected = fresh_process(self.RUN, *argv)
        assert expected[0] == 0
        for bad in (["chisq", "--df", "6"],
                    ["bf", "--df", "6", "--stat", "1", "--gamma", "3", "--alpha", "0.05"],
                    ["chisq", "--df", "x", "--gamma", "3", "--json"],
                    ["no-such-command"]):
            assert invoke(bad)[0] == 1
            assert invoke(argv) == expected

    def test_import_builds_no_parser(self):
        script = "\n".join([
            "import argparse, io",
            "built = []",
            "init = argparse.ArgumentParser.__init__",
            "def counting(self, *args, **kwargs):",
            "    built.append(self)",
            "    init(self, *args, **kwargs)",
            "argparse.ArgumentParser.__init__ = counting",
            "import umpbt.cli",
            "print(len(built))",
            "for _ in range(2):",
            "    umpbt.cli.run(['chisq', '--df', '6', '--gamma', '3'], stdout=io.StringIO())",
            "    print(len(built))",
        ])
        status, out, err = fresh_process(script)
        assert status == 0, err
        at_import, first, second = (int(n) for n in out.split())
        assert at_import == 0 and first > 0 and second == first


class TestStartUp:
    """Only a root needs scipy.optimize, so importing the CLI and running
    the commands that find none never pay its ~0.25 s import."""

    def test_root_free_commands_load_no_optimizer(self, tmp_path):
        script = "\n".join([
            "import io, json, sys",
            "from umpbt.cli import run",
            "print('scipy.optimize' in sys.modules)",
            "for argv in json.loads(sys.argv[1]):",
            "    assert run(argv, stdout=io.StringIO()) == 0, argv",
            "print('scipy.optimize' in sys.modules)",
        ])
        commands = [
            ["contingency", WHITE_CSV, "--header", "--row-labels"],
            ["chisq", "--df", "6", "--alpha", "0.05"],
            ["bf", "--df", "6", "--stat", "12.65", "--alpha", "0.05"],
            ["curve", "--alphas", "0.05", "--df-max", "3",
             "-o", str(tmp_path / "curve.csv")],
            ["ttest-demo", "--n", "10", "--gamma", "3", "--theta-t", "2,4",
             "--seed", "1", "--draws", "1000"],
        ]
        status, out, err = fresh_process(script, json.dumps(commands))
        assert (status, out, err) == (0, "False\nFalse\n", "")
