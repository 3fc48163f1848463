"""End-to-end acceptance criteria, one test per criterion.

Each test prints a single ``ACCEPTANCE <id>: PASS|FAIL`` line (visible with
``pytest -s``) before asserting, so the suite doubles as a checklist.
Tolerances and runtime budgets are pinned in the assertions themselves.

Known red: criterion 2 requires the matched threshold at size 0.05 to stay
below 3.67 through 120 degrees of freedom, but exact computation (confirmed
by independent 40-digit arithmetic) gives a maximum of 3.672311, first
crossing 3.67 at 117 degrees of freedom.  The test asserts the requirement
as stated and therefore fails honestly rather than loosening the bound.
"""

import io
import math
import time
from pathlib import Path

import numpy as np
import pytest

import oracles
from umpbt import (
    ChiSqTestSpec,
    ExpFamilyModel,
    NoncentralChiSq,
    TTestSetting,
    chisq_cdf,
    chisq_quantile,
    dominance_check,
    gamma_vs_df_curve,
    log_bessel_i,
    log_gamma_fn,
    match_gamma_to_alpha,
    mc_rejection_rate,
    noncentral_chisq_sf,
    nonexistence_demo,
    rejection_boundary,
    rejection_boundary_grid,
    rejection_probability,
    solve_umpbt_chisq,
    solve_umpbt_expfam,
)
from umpbt.cli import run as cli_run

WHITE_CSV = str(Path(__file__).resolve().parent.parent / "data" / "white.csv")

DOMINANCE_CONFIGS = [(1.0, 3.0), (2.0, 3.0), (6.0, 3.46), (10.0, 10.0)]


def _verdict(ident: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"\nACCEPTANCE {ident}: {status}{suffix}", flush=True)


def test_criterion_1_white_table_reproduction():
    """CLI run on the checked-in table reproduces the worked example."""
    start = time.perf_counter()
    out = io.StringIO()
    code = cli_run(["contingency", WHITE_CSV, "--alpha", "0.05", "--header",
                    "--row-labels"], stdout=out, stderr=io.StringIO())
    elapsed = time.perf_counter() - start
    record = dict(line.split("=", 1) for line in out.getvalue().splitlines())
    checks = {
        "exit": code == 0,
        "statistic": abs(float(record["statistic"]) - 12.65) <= 0.01,
        "df": record["df"] == "6",
        "gamma": abs(float(record["gamma"]) - 3.46) <= 0.01,
        "theta_star": abs(float(record["theta_star"]) - 7.31) <= 0.01,
        "bf": abs(float(record["bf"]) - 3.52) <= 0.01,
        "runtime": elapsed < 1.0,
    }
    ok = all(checks.values())
    _verdict("1 white-table reproduction", ok,
             f"stat={record['statistic']} gamma={record['gamma']} "
             f"bf={record['bf']} t={elapsed:.2f}s")
    assert ok, {k: v for k, v in checks.items() if not v}


def test_criterion_2_threshold_bound_over_df():
    """Matched threshold at size 0.05 over df = 1..120: bound and consistency."""
    start = time.perf_counter()
    points = gamma_vs_df_curve([0.05], 120)
    elapsed = time.perf_counter() - start
    max_gamma = max(p.gamma for p in points)
    at6 = [p for p in points if p.df == 6.0][0]
    matched6 = match_gamma_to_alpha(ChiSqTestSpec(df=6.0, alpha=0.05))
    consistent = abs(at6.gamma - matched6.gamma) <= 1e-9
    bound_ok = max_gamma < 3.67
    ok = bound_ok and consistent and elapsed < 30.0
    _verdict("2 threshold-vs-df bound", ok,
             f"max_gamma={max_gamma:.6f} gamma(6)={at6.gamma:.6f} t={elapsed:.2f}s")
    assert consistent
    assert elapsed < 30.0
    assert bound_ok, (
        f"max matched threshold over df=1..120 is {max_gamma:.6f}, not < 3.67: "
        "the exact maximum is 3.672311 (verified against independent 40-digit "
        "arithmetic); the 3.67 ceiling holds only through df = 116"
    )


@pytest.fixture(scope="module")
def dominance_reports():
    start = time.perf_counter()
    reports = {(df, g): dominance_check(g, df) for df, g in DOMINANCE_CONFIGS}
    return reports, time.perf_counter() - start


def test_criterion_3_power_dominance(dominance_reports):
    """H(theta; theta_t) never beats H(theta*; theta_t) beyond 1e-10."""
    reports, elapsed = dominance_reports
    margins = {cfg: rep.max_margin for cfg, rep in reports.items()}
    ok = all(m <= 1e-10 for m in margins.values()) and elapsed < 30.0
    detail = " ".join(f"({df:g},{g:g})={m:.1e}" for (df, g), m in margins.items())
    _verdict("3 power dominance", ok, f"{detail} t={elapsed:.2f}s")
    assert elapsed < 30.0
    for cfg, margin in margins.items():
        assert margin <= 1e-10, cfg


def test_criterion_4_coverage_nesting(dominance_reports):
    """r(theta*) <= r(theta) + 1e-8 across the dominance grids."""
    reports, _ = dominance_reports
    worst = {}
    for (df, gamma), rep in reports.items():
        grid_r = rejection_boundary_grid(np.array(rep.theta_grid), gamma, df)
        worst[(df, gamma)] = float((rep.boundary - grid_r).max())
    ok = all(w <= 1e-8 for w in worst.values())
    detail = " ".join(f"({df:g},{g:g})={w:.1e}" for (df, g), w in worst.items())
    _verdict("4 coverage nesting", ok, detail)
    for cfg, w in worst.items():
        assert w <= 1e-8, cfg


def test_criterion_5_closed_form_cross_checks():
    """df = 1 boundary closed form and the normal-mean alternative closed form."""
    worst_rel = 0.0
    for theta in np.linspace(0.25, 18.0, 10):
        for gamma in (1.5, 3.0, 10.0):
            mine = rejection_boundary(float(theta), gamma, 1.0)
            closed = oracles.nu1_boundary(float(theta), gamma)
            worst_rel = max(worst_rel, abs(mine - closed) / closed)
    bessel_ok = worst_rel <= 1e-8

    rng = np.random.default_rng(2024)
    worst_abs = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 41))
        gamma = float(rng.uniform(1.05, 30.0))
        model = ExpFamilyModel(kind="normal-mean-known-variance", theta0=0.0,
                               n=n, side="greater", nuisance=1.0)
        sol = solve_umpbt_expfam(model, gamma)
        closed = math.sqrt(2.0 * math.log(gamma) / n)
        worst_abs = max(worst_abs, abs(sol.theta_star - closed))
    expfam_ok = worst_abs <= 1e-6

    ok = bessel_ok and expfam_ok
    _verdict("5 closed-form cross-checks", ok,
             f"boundary_rel={worst_rel:.1e} normal_mean_abs={worst_abs:.1e}")
    assert bessel_ok
    assert expfam_ok


def test_criterion_6_oracle_agreement():
    """Analytic power vs seeded Monte Carlo; solver vs dense grid search."""
    rng = np.random.default_rng(42)
    n_draws = 10**6
    failures = []
    for i in range(10):
        df = float(rng.integers(1, 13))
        gamma = float(rng.uniform(1.5, 8.0))
        sol = solve_umpbt_chisq(ChiSqTestSpec(df=df, gamma=gamma))
        theta = float(sol.theta_star * rng.uniform(0.4, 2.5))
        theta_t = float(sol.theta_star * rng.uniform(0.0, 2.0))
        analytic = rejection_probability(theta, theta_t, gamma, df)
        empirical = mc_rejection_rate(theta, theta_t, gamma, df, n_draws,
                                      seed=1000 + i)
        envelope = 3.0 * math.sqrt(max(analytic * (1 - analytic), 1e-12) / n_draws)
        if abs(analytic - empirical) > envelope:
            failures.append((i, analytic, empirical, envelope))

    model = ExpFamilyModel(kind="binomial-proportion", theta0=0.5, n=20,
                           side="greater", nuisance=1.0)
    sol = solve_umpbt_expfam(model, 3.0)
    grid = np.linspace(0.5 + 1e-7, 1.0 - 1e-9, 100_000)
    differences = [model.differences_from_null(float(t)) for t in grid]
    objective = [(math.log(3.0) + 20.0 * d_a) / d_eta for d_eta, d_a in differences]
    best = grid[int(np.argmin(objective))]
    grid_ok = abs(sol.theta_star - best) <= float(grid[1] - grid[0])

    ok = not failures and grid_ok
    _verdict("6 oracle agreement", ok,
             f"mc_failures={len(failures)} grid_dev={abs(sol.theta_star - best):.2e}")
    assert grid_ok
    assert not failures, failures


def test_criterion_7_size_identity():
    """Matched solutions put exactly alpha of null mass beyond the boundary."""
    worst = 0.0
    for df in (1.0, 2.0, 6.0, 10.0, 20.0, 60.0, 120.0):
        for alpha in (0.05, 0.01):
            sol = match_gamma_to_alpha(ChiSqTestSpec(df=df, alpha=alpha))
            size = noncentral_chisq_sf(sol.boundary, NoncentralChiSq(df, 0.0))
            worst = max(worst, abs(size - alpha))
    ok = worst <= 1e-6
    _verdict("7 size identity", ok, f"worst |size - alpha| = {worst:.2e}")
    assert ok


def test_criterion_8_t_test_non_existence():
    """The most powerful alternative moves with the data-generating mean."""
    start = time.perf_counter()
    setting = TTestSetting(n=10, theta0=0.0, alpha_prior=0.0, beta_prior=0.0,
                           gamma=3.0, sigma_true=1.0)
    report = nonexistence_demo(setting, [2.0, 4.0], 100_000, seed=20250808)
    elapsed = time.perf_counter() - start
    row2, row4 = report.rows
    checks = {
        "flag": report.nonexistence,
        "separation": abs(row4.argmax_theta - row2.argmax_theta) > 0.1,
        "inside2": 0.0 < row2.argmax_theta < 2.0,
        "inside4": 0.0 < row4.argmax_theta < 4.0,
        "runtime": elapsed < 60.0,
    }
    ok = all(checks.values())
    _verdict("8 t-test non-existence", ok,
             f"argmax(2)={row2.argmax_theta:.3f} argmax(4)={row4.argmax_theta:.3f} "
             f"t={elapsed:.1f}s")
    assert ok, {k: v for k, v in checks.items() if not v}


def test_criterion_9_special_function_suite():
    """Bessel series/recurrence, gamma, CDF/quantile, density normalization."""
    start = time.perf_counter()
    problems = []

    for order in (1.0, 2.0, 5.5, 6.0, 10.0):
        for z in (0.1, 1.0, 10.0, 100.0, 700.0):
            mine = log_bessel_i(order, z).log_magnitude
            if abs(mine - oracles.log_bessel_series_mp(order, z)) > 1e-10:
                problems.append(("series", order, z))
            log_mid = mine
            lo = math.exp(log_bessel_i(order - 1.0, z).log_magnitude - log_mid)
            hi = math.exp(log_bessel_i(order + 1.0, z).log_magnitude - log_mid)
            if abs((lo - hi) - 2.0 * order / z) > 1e-9 * (2.0 * order / z):
                problems.append(("recurrence", order, z))

    if abs(log_gamma_fn(0.5) - 0.5 * math.log(math.pi)) > 1e-13:
        problems.append(("gamma", 0.5))
    if abs(log_gamma_fn(7.3) - oracles.lgamma_by_recursion(7.3, 7)) > 1e-13:
        problems.append(("gamma", 7.3))

    for p in (0.01, 0.5, 0.99):
        for df in (1.0, 6.0, 120.0):
            if abs(chisq_cdf(chisq_quantile(p, df), df) - p) > 1e-10:
                problems.append(("roundtrip", p, df))

    for df, theta in ((1.0, 1.0), (6.0, 7.31), (10.0, 20.0)):
        y_max = df + theta + 12.0 * math.sqrt(2.0 * (df + 2.0 * theta)) + 20.0
        total = (oracles.noncentral_chisq_mass_below(y_max, df, theta)
                 + noncentral_chisq_sf(y_max, NoncentralChiSq(df, theta)))
        if abs(total - 1.0) > 1e-8:
            problems.append(("normalization", df, theta))

    elapsed = time.perf_counter() - start
    ok = not problems and elapsed < 10.0
    _verdict("9 special-function suite", ok,
             f"problems={len(problems)} t={elapsed:.2f}s")
    assert elapsed < 10.0
    assert not problems, problems
