"""Input rules shared by the entry points: one owner and one message each.

``bayes`` owns the df rule, (0, 1e8], and the evidence-threshold rule,
gamma > 1 and finite; ``special`` owns the draw count, an integer in
[1, 2**30], and the seed, a nonnegative integer; ``ttest`` owns its means,
finite with magnitude at most 1e100, and ``TTestSetting`` its sigma_true,
in [1e-53 sqrt(n) gamma_n/(gamma_n - 1), 1e100].  Every entry point that
takes one of these inputs calls its owner, so an input outside the domain
fails as the same ``DomainError`` everywhere (exit 1 at the command line),
before any root, kernel or draw runs.
"""

import math

import numpy as np
import pytest

from umpbt import (
    ChiSqTestSpec,
    CurvePoint,
    DomainError,
    ExpFamilyModel,
    NoncentralChiSq,
    TTestSetting,
    UmpbtSolution,
    dlogbf_dy,
    dominance_check,
    log_bf_ncchisq,
    mc_rejection_rate,
    nonexistence_demo,
    rejection_boundary,
    rejection_boundary_grid,
    rejection_probability,
    sample_noncentral_chisq,
    solve_umpbt_expfam,
    t_log_bf,
    t_region,
    t_rejection_prob,
)

DF_ENTRIES = {
    "ChiSqTestSpec": lambda df: ChiSqTestSpec(df=df, gamma=3.0),
    "log_bf_ncchisq": lambda df: log_bf_ncchisq(5.0, 2.0, df),
    "dlogbf_dy": lambda df: dlogbf_dy(5.0, 2.0, df),
    "rejection_boundary": lambda df: rejection_boundary(2.0, 3.0, df),
    "rejection_boundary_grid": lambda df: rejection_boundary_grid(np.array([2.0]), 3.0, df),
    "mc_rejection_rate": lambda df: mc_rejection_rate(2.0, 1.0, 3.0, df, 100, 1),
}


@pytest.mark.parametrize("entry", DF_ENTRIES)
@pytest.mark.parametrize("df", [math.nextafter(1e8, math.inf), 1e12, 0.0, math.nan,
                                math.inf])
def test_df_outside_the_domain(entry, df):
    # past 1e8 log g's rounding reaches log gamma's scale
    with pytest.raises(DomainError, match=r"df=.* must lie in \(0, 1e8\]"):
        DF_ENTRIES[entry](df)


@pytest.mark.parametrize("entry", DF_ENTRIES)
def test_df_at_the_bound_is_accepted(entry):
    DF_ENTRIES[entry](1e8)


_SETTING = TTestSetting(n=10, gamma=3.0)

GAMMA_ENTRIES = {
    "ChiSqTestSpec": lambda g: ChiSqTestSpec(df=6.0, gamma=g),
    "UmpbtSolution": lambda g: UmpbtSolution(theta_star=7.0, boundary=12.0, gamma=g,
                                             direction=1, df=6.0),
    "CurvePoint": lambda g: CurvePoint(df=6.0, alpha=0.05, gamma=g, theta_star=7.0),
    "rejection_boundary": lambda g: rejection_boundary(2.0, g, 6.0),
    "rejection_boundary_grid": lambda g: rejection_boundary_grid(np.array([2.0]), g, 6.0),
    "rejection_probability": lambda g: rejection_probability(2.0, 1.0, g, 6.0),
    "dominance_check": lambda g: dominance_check(g, 6.0),
    "mc_rejection_rate": lambda g: mc_rejection_rate(2.0, 1.0, g, 6.0, 100, 1),
    "solve_umpbt_expfam": lambda g: solve_umpbt_expfam(
        ExpFamilyModel(kind="normal-mean-known-variance", theta0=0.0, n=10,
                       side="greater"), g),
    "TTestSetting": lambda g: TTestSetting(n=10, gamma=g),
}


@pytest.mark.parametrize("entry", GAMMA_ENTRIES)
@pytest.mark.parametrize("gamma", [1.0, 0.7, math.inf, math.nan])
def test_gamma_outside_the_domain(entry, gamma):
    # at or below 1 some alternative's region {g > gamma} is not an upper
    # interval; that is outside the domain, not a failed root
    with pytest.raises(DomainError, match=r"^evidence threshold must exceed 1, got"):
        GAMMA_ENTRIES[entry](gamma)


DRAW_ENTRIES = {
    "sample_noncentral_chisq": lambda n, seed: sample_noncentral_chisq(
        NoncentralChiSq(6.0, 1.0), n, seed),
    "t_rejection_prob": lambda n, seed: t_rejection_prob(1.0, 0.0, _SETTING, n, seed),
    "nonexistence_demo": lambda n, seed: nonexistence_demo(_SETTING, [1.0, 2.0], n, seed),
}


def _no_draws(monkeypatch):
    def default_rng(*args):
        raise AssertionError("drew before validating")

    monkeypatch.setattr(np.random, "default_rng", default_rng)


@pytest.mark.parametrize("entry", DRAW_ENTRIES)
@pytest.mark.parametrize("n_draws", [0, 2.5, True, 2**30 + 1])
def test_draw_count_outside_the_domain(monkeypatch, entry, n_draws):
    # the check comes before the draws' array: 2**30 + 1 of them take 8 GiB
    _no_draws(monkeypatch)
    with pytest.raises(DomainError, match=r"^n_draws must be an integer in \[1, 2\*\*30\]"):
        DRAW_ENTRIES[entry](n_draws, 1)


@pytest.mark.parametrize("entry", DRAW_ENTRIES)
@pytest.mark.parametrize("seed", [-1, 1.5, True])
def test_seed_outside_the_domain(monkeypatch, entry, seed):
    _no_draws(monkeypatch)
    with pytest.raises(DomainError, match=r"^seed must be a nonnegative integer"):
        DRAW_ENTRIES[entry](100, seed)


MEAN_ENTRIES = {
    "TTestSetting": lambda m: TTestSetting(n=10, theta0=m),
    "t_rejection_prob(theta)": lambda m: t_rejection_prob(m, 0.0, _SETTING, 100, 1),
    "t_rejection_prob(theta_t)": lambda m: t_rejection_prob(1.0, m, _SETTING, 100, 1),
    "nonexistence_demo": lambda m: nonexistence_demo(_SETTING, [0.0, m], 100, 1),
    "t_region": lambda m: t_region(m, 1.0, _SETTING),
    "t_log_bf": lambda m: t_log_bf(1.0, m, 1.0, _SETTING),
}


@pytest.mark.parametrize("entry", MEAN_ENTRIES)
@pytest.mark.parametrize("mean", [math.nan, math.inf, -math.inf, 1e308,
                                  -math.nextafter(1e100, math.inf)])
def test_mean_outside_the_domain(monkeypatch, entry, mean):
    # past 1e100 the datasets' sums or n (ybar - theta)^2 can leave double range
    _no_draws(monkeypatch)
    with pytest.raises(DomainError, match=r" mean theta\w*=.* must lie in \[-1e100, 1e100\]$"):
        MEAN_ENTRIES[entry](mean)


@pytest.mark.parametrize("entry", MEAN_ENTRIES)
@pytest.mark.parametrize("mean", [1e100, -1e100])
def test_mean_at_the_bound_is_accepted(entry, mean):
    MEAN_ENTRIES[entry](mean)


def _sigma_lo(n, gamma):
    g_minus_1 = math.expm1(2.0 * math.log(gamma) / n)
    return 1e-53 * math.sqrt(n) * (1.0 + g_minus_1) / g_minus_1


@pytest.mark.parametrize("sigma", [1e-300, 1e300, 0.0, -1.0, math.nan, math.inf,
                                   math.nextafter(1e100, math.inf),
                                   math.nextafter(_sigma_lo(10, 3.0), 0.0)])
def test_sigma_outside_the_domain(monkeypatch, sigma):
    # at 1e-300 the acceptance probability divided by zero, at 1e300 its
    # sigma ** 2 overflowed
    _no_draws(monkeypatch)
    with pytest.raises(DomainError, match=r"^sigma_true=.* must lie in \[1.60311e-52, 1e100\]$"):
        nonexistence_demo(TTestSetting(n=10, sigma_true=sigma), [2.0, 4.0], 1000, 1)


@pytest.mark.parametrize("sigma", [_sigma_lo(10, 3.0), 1e100])
@pytest.mark.parametrize("theta_ts", [[0.0, 1e100], [-1e100, 1e100]])
def test_sigma_at_the_bound_is_accepted(sigma, theta_ts):
    report = nonexistence_demo(TTestSetting(n=10, sigma_true=sigma), theta_ts, 100, 1)
    for row in report.rows:
        assert all(math.isfinite(v) for v in (row.argmax_theta, row.max_prob, row.mc_prob))
