"""Command-line surface: grammar, exit codes, determinism, output formats."""

import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from umpbt import (ChiSqTestSpec, DomainError, SolverError, cli, errors, mc_rejection_rate,
                   solve_umpbt_chisq)
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
            raise SolverError("no root in z for alpha=0.05, df=6.0")

        monkeypatch.setattr(cli, "match_gamma_to_alpha", fail)
        code, _, err = invoke(["chisq", "--df", "6", "--alpha", "0.05"])
        assert code == 2
        assert err.startswith("error: solver:")

    @pytest.mark.parametrize("name", [n for n in errors.__all__ if n != "UmpbtError"])
    def test_each_error_class_prints_its_category(self, name, monkeypatch):
        cls = getattr(errors, name)

        def fail(spec):
            raise cls("the message")

        monkeypatch.setattr(cli, "match_gamma_to_alpha", fail)
        code, out, err = invoke(["chisq", "--df", "6", "--alpha", "0.05"])
        assert code == (2 if cls is SolverError else 1) and out == ""
        assert err == f"error: {cls.category}: the message\n"

    def test_unattainable_alpha_exits_one(self):
        code, out, err = invoke(["chisq", "--df", "6", "--alpha", "0.99"])
        assert code == 1 and out == ""
        assert err.startswith("error: domain:")

    def test_near_bound_alpha_exits_one(self):
        """alpha just inside P(chi2_df > df): the matched threshold rounds to
        gamma = 1, which no test accepts, so the input is out of domain.
        log gamma is 4.6e-17 here, under log g's own rounding of ~1e-12."""
        code, out, err = invoke(["chisq", "--df", "1000", "--alpha", "0.49405285"])
        assert code == 1 and out == ""
        assert err.startswith("error: domain:") and "does not round to 1" in err

    def test_near_bound_alpha_solves(self):
        """2e-7 relative below P(chi2_6 > 6): log gamma 3e-14 is above its rounding."""
        code, out, err = invoke(["chisq", "--df", "6", "--alpha", "0.42319"])
        assert code == 0 and err == ""
        assert parse_plain(out)[0]["gamma"] == "1"

    def test_alpha_below_the_floor_exits_one(self):
        code, out, err = invoke(["chisq", "--df", "6", "--alpha", "1e-300"])
        assert code == 1 and out == ""
        assert err.startswith("error: domain:")
        assert "alpha=1e-300" in err and "2**-54" in err

    def test_huge_df_alpha_mode(self):
        """Above y = 2**26 an ulp exceeds the quantile's 1e-8 bisection width."""
        code, out, err = invoke(["chisq", "--df", "1e8", "--alpha", "0.05", "--json"])
        assert code == 0 and err == ""
        assert json.loads(out)["gamma"] == pytest.approx(3.8678, rel=1e-4)

    @pytest.mark.parametrize("argv, shown", [
        (["--df", "1e12", "--gamma", "3"], "1000000000000.0"),
        (["--df", "1e20", "--alpha", "0.05"], "1e+20"),
        (["--df", "1e160", "--gamma", "3"], "1e+160"),
    ])
    def test_df_beyond_the_bound_exits_one(self, argv, shown):
        """Past df 1e8 log g's rounding reaches log gamma's scale: 1e12 gave
        a nonsense theta*, and 1e20 and 1e160 failed inside the kernels."""
        code, out, err = invoke(["chisq"] + argv)
        assert (code, out) == (1, "")
        assert err == f"error: domain: degrees of freedom df={shown} must lie in [1e-10, 1e8]\n"

    @pytest.mark.parametrize("argv, shown", [
        (["chisq", "--df", "1e-13", "--gamma", "3"], "1e-13"),
        (["bf", "--df", "1e-300", "--stat", "1", "--gamma", "3"], "1e-300"),
        (["chisq", "--df", "5e-324", "--alpha", "0.05"], "5e-324"),
        (["power", "--df", "2e-13", "--gamma", "1.0001"], "2e-13"),
    ])
    def test_df_below_the_floor_exits_one(self, argv, shown):
        """Below df 1e-10 the kernels failed: a non-finite Bessel argument at
        1e-13, a Bessel order of -1 at 1e-300, a bare ValueError from the
        quantile at 5e-324, a divide-by-zero warning at 2e-13."""
        code, out, err = invoke(argv)
        assert (code, out) == (1, "")
        assert err == f"error: domain: degrees of freedom df={shown} must lie in [1e-10, 1e8]\n"

    def test_boundary_without_a_sign_change_exits_two(self):
        """log g - log gamma rounds above 0 at both ends of the scalar
        boundary's bracket here; its end grew fourfold to inf, and the run
        failed on a non-finite Bessel argument, naming no input.  The input
        lies inside the domain, so the failed root is a solver failure."""
        code, out, err = invoke(["chisq", "--df", "0.03162277660168379",
                                 "--gamma", "1.000000000000001"])
        assert (code, out) == (2, "")
        assert err.startswith("error: solver: no rejection boundary for theta=")
        assert "gamma=1.000000000000001, df=0.03162277660168379:" in err
        assert err.endswith("of [1e-12, 1.7976931348623157e+308]\n")

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
        code, _, err = invoke(["bf", "--df", "6", "--stat", "-1", "--gamma", "3"])
        assert code == 1
        assert err == "error: domain: statistic must be nonnegative, got -1.0\n"

    @pytest.mark.parametrize("mode", (["--gamma", "3"], ["--alpha", "0.05"]))
    def test_zero_statistic_is_minus_half_theta_star(self, mode):
        """A zero statistic takes log g's limit, -theta*/2, as a zero Pearson
        statistic does in ``contingency``."""
        code, out, err = invoke(["bf", "--df", "6", "--stat", "0", "--json"] + mode)
        assert (code, err) == (0, "")
        record = json.loads(out)
        solution = cli._solve_spec(6.0, *((3.0, None) if mode[0] == "--gamma"
                                          else (None, 0.05)))
        assert record["log_bf"] == float(f"{-solution.theta_star / 2.0:.10g}")
        assert record["bf"] == float(f"{math.exp(-solution.theta_star / 2.0):.10g}")

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

    def test_overflowing_statistic_exits_one(self):
        # a fresh process, where a leaked overflow warning would print
        code, out, err = fresh_process(TestParserReuse.RUN, "bf", "--df", "6", "--stat",
                                       "1e308", "--gamma", "3")
        assert (code, out) == (1, "")
        assert err.startswith("error: domain: statistic y=1e+308 times noncentrality theta=")
        assert err.endswith(" overflows double precision\n") and err.count("\n") == 1

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

    @pytest.mark.parametrize("fmt", ([], ["--json"]))
    def test_carriage_return_file_matches_line_feed_file(self, tmp_path, fmt):
        cr = tmp_path / "white-cr.csv"
        cr.write_bytes(Path(WHITE_CSV).read_bytes().replace(b"\n", b"\r"))
        flags = ["--header", "--row-labels"] + fmt
        assert invoke(["contingency", str(cr)] + flags) == invoke(
            ["contingency", WHITE_CSV] + flags)

    @pytest.mark.parametrize("fmt", ([], ["--json"]))
    def test_byte_order_mark_file_matches_plain_file(self, tmp_path, fmt):
        bom = tmp_path / "white-bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + Path(WHITE_CSV).read_bytes())
        flags = ["--header", "--row-labels"] + fmt
        assert invoke(["contingency", str(bom)] + flags) == invoke(
            ["contingency", WHITE_CSV] + flags)

    def test_oversized_cell_maps_to_parse_error(self, tmp_path):
        big = tmp_path / "big.csv"
        big.write_bytes(b"1,2\n3," + b"9" * 200_000 + b"\n")
        code, out, err = invoke(["contingency", str(big)])
        assert (code, out) == (1, "")
        assert err == ("error: parse: row 2: field larger than field limit "
                       "(131072)\n")

    def test_invalid_utf8_maps_to_parse_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"a,b\n1,\xff\n3,4\n")
        code, out, err = invoke(["contingency", str(bad), "--header"])
        assert (code, out) == (1, "")
        assert err == "error: parse: byte offset 6: 0xff is not valid UTF-8\n"

    def test_count_beyond_int64_names_its_cell(self, tmp_path):
        big = tmp_path / "big.csv"
        big.write_text("1,9223372036854775808\n3,4\n")
        code, out, err = invoke(["contingency", str(big)])
        assert (code, out) == (1, "")
        assert err == ("error: validation: row 1, column 2: count "
                       "'9223372036854775808' exceeds the int64 range\n")

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

    def test_unresolvable_theta_star_exits_one(self):
        code, out, err = invoke(["expfam", "--model", "normal-variance-known-mean",
                                 "--theta0", "1", "--n", "1", "--gamma", "1e300",
                                 "--side", "less"])
        assert code == 1 and out == ""
        assert err == ("error: domain: theta* for gamma=1e+300 lies beyond what double "
                       "precision resolves on the 'less' side of theta0=1.0\n")


    def test_binomial_theta_star_next_to_theta0(self):
        # the true root is 0.30000000648; a KL from rounded ratios gave 0.3
        code, out, _ = invoke(["expfam", "--model", "binomial-proportion",
                               "--theta0", "0.3", "--n", "1000000000",
                               "--gamma", "1.0000001", "--side", "greater"])
        assert code == 0
        record, _ = parse_plain(out)
        assert record["theta_star"] == "0.3000000065"
        assert record["boundary"] == "300000006.5"


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

    def test_huge_alternatives_exit_cleanly(self):
        # a fresh process, where a leaked warning would print: theta 1e40 has
        # its boundary 2.5e39 past the survival function's Chernoff cut;
        # theta above 1e150 lies outside the domain, and so does 1e-310,
        # whose boundary lies above 2 df log gamma / theta ~ 1.5e311
        argv = [TestParserReuse.RUN, "power", "--df", "6", "--gamma", "3.46", "--theta-grid"]
        code, out, err = fresh_process(*argv, "1e40:1e40:1")
        assert (code, err) == (0, "")
        assert [row["h"] for row in parse_plain(out)[1]] == ["0"] * 5
        assert fresh_process(*argv, "1e300:1e300:1") == (
            1, "", "error: domain: noncentrality theta=1e+300 must lie in (0, 1e+150]\n")
        assert fresh_process(*argv, "1e-310:1e-310:1") == (
            1, "", "error: domain: noncentrality theta=1e-310 must be at least 1.48952e-299, "
            "below which the boundary passes 1e+300\n")

    def test_draw_count_beyond_the_ceiling_exits_one(self):
        code, out, err = invoke(["power", "--df", "6", "--gamma", "3.46", "--theta-grid",
                                 "7:7:1", "--theta-t-grid", "0:0:1", "--mc", "100000000000000"])
        assert (code, out) == (1, "")
        assert err == ("error: domain: n_draws must be an integer in [1, 2**30], "
                       "got 100000000000000\n")

    def test_mc_column(self):
        code, out, _ = invoke(["power", "--df", "2", "--gamma", "3",
                               "--theta-grid", "2:6:2:log",
                               "--theta-t-grid", "0:4:2",
                               "--mc", "20000", "--seed", "3"])
        assert code == 0
        _, rows = parse_plain(out)
        for row in rows:
            assert abs(float(row["h_mc"]) - float(row["h"])) < 0.02

    def test_mc_column_pinned(self):
        # descending grids come out sorted by (theta_t, theta); 40,000 draws
        # are two full 16,384-draw chunks plus 7,232
        code, out, _ = invoke(["power", "--df", "2", "--gamma", "3",
                               "--theta-grid", "6:2:3:log",
                               "--theta-t-grid", "4:0:3",
                               "--mc", "40000", "--seed", "3"])
        assert code == 0
        _, rows = parse_plain(out)
        assert [(r["theta_t"], r["theta"], r["h_mc"]) for r in rows] == [
            ("0", "2", "0.0381"), ("0", "3.464101615", "0.056475"),
            ("0", "6", "0.056325"), ("2", "2", "0.19135"),
            ("2", "3.464101615", "0.2414"), ("2", "6", "0.2409"),
            ("4", "2", "0.3697"), ("4", "3.464101615", "0.43555"),
            ("4", "6", "0.43505"),
        ]

    def test_unsorted_grids_come_out_sorted_with_per_pair_rates(self, monkeypatch):
        # a descending theta grid holding a repeat and a descending theta_t
        # grid: rows come out in ascending (theta_t, theta) order, each with
        # the rate that a call for its own pair draws
        grids = {"thetas": [9.0, 4.0, 4.0, 0.5], "theta_ts": [6.0, 1.5, 0.0]}
        monkeypatch.setattr(cli, "_parse_grid", lambda spec: cli.np.array(grids[spec]))
        code, out, _ = invoke(["power", "--df", "2", "--gamma", "3", "--theta-grid", "thetas",
                               "--theta-t-grid", "theta_ts", "--mc", "5000", "--seed", "3"])
        assert code == 0
        _, rows = parse_plain(out)
        pairs = [(theta_t, theta) for theta_t in sorted(grids["theta_ts"])
                 for theta in sorted(grids["thetas"])]
        assert [(r["theta_t"], r["theta"], r["h_mc"]) for r in rows] == [
            tuple(cli._fmt(v) for v in (theta_t, theta,
                                        mc_rejection_rate(theta, theta_t, 3.0, 2.0, 5000, 3)))
            for theta_t, theta in pairs]

    def test_far_tail_row(self):
        # the 50-digit Poisson mixture gives 1.44998495314e-93
        code, out, _ = invoke(["power", "--df", "6", "--gamma", "3.46",
                               "--theta-grid", "3000:3000:1",
                               "--theta-t-grid", "50:50:1"])
        assert code == 0
        _, rows = parse_plain(out)
        assert rows == [{"theta_t": "50", "theta": "3000", "h": "1.449984953e-93"}]

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

    @pytest.mark.parametrize("spec", ["1:2:1000000000000000000",
                                      "1:2:1000000000000000000:log"])
    def test_grid_count_beyond_the_bound_exits_one(self, monkeypatch, spec):
        # 1e18 points would take 8 EB; the rule fires before any allocation
        def allocate(*args, **kwargs):
            raise AssertionError("allocated before validating")

        monkeypatch.setattr(cli.np, "linspace", allocate)
        monkeypatch.setattr(cli.np, "geomspace", allocate)
        code, out, err = invoke(["power", "--df", "6", "--gamma", "3", "--theta-grid", spec])
        assert code == 1 and out == ""
        assert err == f"error: domain: grid spec {spec!r} needs a point count in [1, 2**20]\n"

    @pytest.mark.parametrize("spec, detail", [("a:2:3", " has non-numeric fields"),
                                              ("1:2:3:lin", ": unknown mode 'lin'"),
                                              ("0:2:3:log",
                                               ": log spacing needs positive endpoints")])
    def test_grid_spec_messages(self, spec, detail):
        code, out, err = invoke(["power", "--df", "6", "--gamma", "3", "--theta-grid", spec])
        assert (code, out) == (1, "")
        assert err == f"error: domain: grid spec {spec!r}{detail}\n"

    @pytest.mark.parametrize("mode", ["", ":log"])
    def test_grid_count_bound(self, mode):
        assert cli._parse_grid(f"1:2:{2**20}{mode}").shape == (2**20,)
        for count in (0, 2**20 + 1):
            with pytest.raises(DomainError, match=r"needs a point count in \[1, 2\*\*20\]$"):
                cli._parse_grid(f"1:2:{count}{mode}")

    def test_noncentrality_beyond_the_bound_exits_one(self):
        code, out, err = invoke(["power", "--df", "6", "--gamma", "3.46", "--theta-grid",
                                 "7:7:1", "--theta-t-grid", "1e300:1e300:1"])
        assert code == 1 and out == ""
        assert err.startswith("error: domain:") and "1e+300" in err

    def test_negative_seed_exits_one(self):
        code, out, err = invoke(["power", "--df", "6", "--gamma", "3.46",
                                 "--mc", "10", "--seed", "-1"])
        assert code == 1 and out == ""
        assert err.startswith("error: domain:")

    def test_output_matches_the_scan_byte_for_byte(self):
        from umpbt import dominance_check

        argv = ["power", "--df", "6", "--gamma", "3.46", "--mc", "4096", "--seed", "1"]
        code, out, _ = invoke(argv)
        record, _ = parse_plain(out)
        assert code == 0 and record["dominance"] == "pass"
        # the output recorded while the 200-point scan still ran, with the
        # h_mc of its theta_t > 0 rows drawn by numpy's noncentral_chisquare
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "fd211baa2e4dc6d7ec09eb09a06ae2f19be0c0035570c8ee328ae95d4495e3ac")
        # the default grid misses theta*, so its margin is negative; a grid
        # holding theta* itself must give exactly zero
        theta_star = solve_umpbt_chisq(ChiSqTestSpec(df=6.0, gamma=3.46)).theta_star
        assert dominance_check(3.46, 6.0, [1.0, theta_star, 30.0]).max_margin == 0.0


class TestCurveCommand:
    def test_df_max_beyond_the_df_rule_exits_one(self, tmp_path):
        code, out, err = invoke(["curve", "--df-max", "100000001",
                                 "-o", str(tmp_path / "curve.csv")])
        assert code == 1 and out == ""
        assert err == "error: domain: degrees of freedom df=100000001 must lie in [1e-10, 1e8]\n"
        assert not (tmp_path / "curve.csv").exists()

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

    def test_empty_alphas_list(self, tmp_path):
        code, out, err = invoke(["curve", "--alphas", ",", "--df-max", "2",
                                 "-o", str(tmp_path / "c.csv")])
        assert (code, out) == (1, "")
        assert err == "error: domain: --alphas expects at least one number, got ','\n"


class TestTtestDemoCommand:
    def test_malformed_theta_t_list(self):
        code, _, err = invoke(["ttest-demo", "--n", "10", "--gamma", "3",
                               "--theta-t", "2,x"])
        assert code == 1
        assert err.startswith("error: domain:")

    def test_acceptance_integrand_overflow_exits_one(self):
        # from n ~ 1e18 the acceptance integrand's math.exp overflows, the one
        # OverflowError a handler raises on admitted inputs; run() prints it
        code, out, err = invoke(["ttest-demo", "--n", str(10**18), "--gamma", "3",
                                 "--theta-t", "2,4", "--draws", "50"])
        assert (code, out, err) == (1, "", "error: domain: math range error\n")

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

    def test_means_below_the_null_take_the_equals_form(self):
        """argparse reads a value that starts with - as an option, so --help
        shows the = form, which runs."""
        code, out, _ = invoke(["ttest-demo", "--n", "10", "--gamma", "3",
                               "--theta-t=-2,-4", "--seed", "5", "--draws", "100"])
        assert code == 0 and len(parse_plain(out)[1]) == 2
        code, out, err = invoke(["ttest-demo", "--n", "10", "--gamma", "3",
                                 "--theta-t", "-2,-4"])
        assert (code, out) == (1, "")
        assert err.endswith("error: usage: argument --theta-t: expected one argument\n")
        code, out, err = invoke(["ttest-demo", "--help"])
        assert (code, err) == (0, "")
        assert "--theta-t=-2,-4" in out

    def test_negative_seed_exits_one(self):
        code, out, err = invoke(["ttest-demo", "--n", "10", "--gamma", "3",
                                 "--theta-t", "2,4", "--seed", "-1", "--draws", "100"])
        assert code == 1 and out == ""
        assert err.startswith("error: domain:")

    @pytest.mark.parametrize("means, shown", [("0,nan", "nan"), ("0,1e308", "1e+308")])
    def test_mean_outside_the_domain_exits_one(self, means, shown):
        """Checked before any draw, so no overflowed sum or warning escapes
        (tier-1 turns a RuntimeWarning into an error)."""
        code, out, err = invoke(["ttest-demo", "--n", "10", "--gamma", "3",
                                 "--theta-t", means, "--draws", "100"])
        assert (code, out) == (1, "")
        assert err == (f"error: domain: data-generating mean theta_t={shown} "
                       "must lie in [-1e100, 1e100]\n")

    def test_draw_count_beyond_the_ceiling_exits_one(self):
        # checked before the datasets' arrays, which would take 800 TB
        code, out, err = invoke(["ttest-demo", "--n", "10", "--gamma", "3",
                                 "--theta-t", "0,1", "--draws", "100000000000000"])
        assert (code, out) == (1, "")
        assert err == ("error: domain: n_draws must be an integer in [1, 2**30], "
                       "got 100000000000000\n")


class TestOutputContract:
    def test_byte_identical_reruns(self):
        argv = ["power", "--df", "2", "--gamma", "3", "--theta-grid", "1:9:3:log",
                "--theta-t-grid", "0:4:2", "--mc", "5000", "--seed", "21"]
        first = invoke(argv)
        second = invoke(argv)
        assert first == second

    @pytest.mark.parametrize("argv", [
        ["chisq", "--df", "6", "--alpha", "0.05"],
        ["chisq", "--df", "100.6", "--gamma", "87.33"],
        ["bf", "--df", "6", "--stat", "12.65", "--gamma", "3"],
        ["contingency", WHITE_CSV, "--header", "--row-labels"],
        ["expfam", "--model", "binomial-proportion", "--theta0", "0.3", "--n", "20",
         "--gamma", "3", "--side", "greater"],
        ["expfam", "--model", "normal-mean-known-variance", "--theta0", "0",
         "--n", "5", "--gamma", "3", "--side", "less"],
        ["expfam", "--model", "normal-variance-known-mean", "--theta0", "2",
         "--n", "12", "--nuisance", "1.5", "--gamma", "3", "--side", "greater"],
        ["power", "--df", "2", "--gamma", "3", "--theta-grid", "1:9:3:log",
         "--theta-t-grid", "0:4:2", "--mc", "2000", "--seed", "3"],
        ["curve", "--alphas", "0.05,0.01", "--df-max", "3", "-o", "{tmp}"],
        ["ttest-demo", "--n", "10", "--gamma", "3", "--theta-t", "2,4",
         "--seed", "5", "--draws", "5000"],
    ])
    def test_json_round_trips_to_plain(self, argv, tmp_path):
        """Plain output is the JSON document rendered, and every JSON float
        is already at 10 significant digits."""
        argv = [str(tmp_path / "curve.csv") if a == "{tmp}" else a for a in argv]
        code_p, plain, _ = invoke(argv)
        code_j, as_json, _ = invoke(argv + ["--json"])
        assert code_p == code_j == 0
        payload = json.loads(as_json)
        assert "\n".join(render_plain(payload)) + "\n" == plain
        records = [payload, *payload.pop("rows", [])]
        floats = [v for record in records for v in record.values() if isinstance(v, float)]
        assert floats
        assert all(float(f"{v:.10g}") == v for v in floats)

    @pytest.mark.parametrize("argv", [["--help"], *[[command, "--help"] for command in (
        "chisq", "bf", "contingency", "expfam", "power", "curve", "ttest-demo")]])
    def test_help_is_returned_not_raised(self, argv):
        """--help prints to run()'s stdout and returns 0, as argparse exits 0."""
        code, out, err = invoke(argv)
        assert (code, err) == (0, "")
        assert out.startswith(" ".join(["usage: umpbt", *argv[:-1]]) + " ")

    def test_usage_error_does_not_follow_the_terminal_width(self, monkeypatch):
        # argparse wraps at COLUMNS unless the formatter's width is fixed
        outputs = []
        for columns in ("40", "200"):
            monkeypatch.setenv("COLUMNS", columns)
            outputs.append(invoke(["chisq", "--df", "6"]))
        assert outputs[0][0] == 1
        assert outputs[0] == outputs[1]

    def test_numbers_use_ten_significant_digits(self):
        _, out, _ = invoke(["chisq", "--df", "6", "--alpha", "0.05"])
        record, _ = parse_plain(out)
        for key in ("gamma", "theta_star", "boundary"):
            rendered = record[key]
            # the rendering is exactly the 10-significant-digit form
            assert f"{float(rendered):.10g}" == rendered
        assert float(record["gamma"]) == pytest.approx(3.458007348, abs=1e-8)
        assert float(record["theta_star"]) == pytest.approx(7.311910528, abs=1e-6)


def fresh_process(script, *args, flag="-c"):
    """Run ``python flag script *args`` on the source tree; returns (status,
    stdout, stderr)."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, flag, script, *args], env=env,
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


class TestModuleEntry:
    """``python -m umpbt.cli`` runs a command as the ``umpbt`` script does."""

    MODULE = "import runpy; runpy.run_module('umpbt.cli', run_name='__main__')"

    def test_runs_command_and_reports_error(self):
        argv = ["chisq", "--df", "6", "--alpha", "0.05"]
        assert fresh_process(self.MODULE, *argv) == (0, invoke(argv)[1], "")
        status, out, err = fresh_process(self.MODULE, "power", "--df", "6", "--gamma",
                                         "3.46", "--theta-t-grid", "0:inf:2")
        assert (status, out) == (1, "")
        assert err.startswith("error: domain:") and "'0:inf:2'" in err

    def test_help_and_usage_error_exit_through_main(self):
        assert fresh_process("umpbt.cli", "--help", flag="-m") == (0, invoke(["--help"])[1], "")
        status, out, err = fresh_process("umpbt.cli", "chisq", "--df", "6", flag="-m")
        assert (status, out) == (1, "")
        assert err == ("usage: umpbt chisq [-h] --df DF (--gamma GAMMA | --alpha ALPHA) "
                       "[--json]\nerror: usage: one of the arguments --gamma --alpha "
                       "is required\n")


class TestStartUp:
    """Only a root or a quadrature needs scipy.optimize (scipy.integrate
    imports it), so importing the CLI and running the commands that use
    neither never pay its ~0.25 s import.  ``ttest-demo`` integrates, so it
    is not among them."""

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
        ]
        status, out, err = fresh_process(script, json.dumps(commands))
        assert (status, out, err) == (0, "False\nFalse\n", "")
