"""Input rules shared by the entry points: one owner and one message each.

``special`` owns the df rule of the chi-squared laws and of every test
built on them, [1e-10, 1e8], the statistic rule, y nonnegative and finite,
the draw count, an integer in [1, 2**30], and the seed, a nonnegative
integer, and ``NoncentralChiSq`` theta_t, in [0, 1e8]; ``bayes`` owns the
evidence-threshold rule, gamma > 1 and finite, the size rule, alpha in
(0, 1), and the alternatives' rule, theta in (0, 1e150];
``ttest`` owns its means, finite with magnitude at most 1e100, and its
scale statistic U, positive and finite; ``TTestSetting`` owns its
sigma_true, in [1e-53 sqrt(n) gamma_n/(gamma_n - 1), 1e100], and its
priors, finite and nonnegative; ``ExpFamilyModel`` requires n, theta0 and
the nuisance to be finite.  Every entry point that takes one of these
inputs calls its owner, so an input outside the domain fails as the same
``DomainError`` everywhere (exit 1 at the command line), before any root,
kernel or draw runs.
"""

import math
import sys

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
    gamma_vs_df_curve,
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
from umpbt import power, solver
from umpbt.special import chisq_cdf, chisq_quantile, noncentral_chisq_sf

_MAX = sys.float_info.max
_TINY = 5e-324  # the least positive double

DF_ENTRIES = {
    "ChiSqTestSpec": lambda df: ChiSqTestSpec(df=df, gamma=3.0),
    "log_bf_ncchisq": lambda df: log_bf_ncchisq(5.0, 2.0, df),
    "dlogbf_dy": lambda df: dlogbf_dy(5.0, 2.0, df),
    "rejection_boundary": lambda df: rejection_boundary(2.0, 3.0, df),
    "rejection_boundary_grid": lambda df: rejection_boundary_grid(np.array([2.0]), 3.0, df),
    "mc_rejection_rate": lambda df: mc_rejection_rate(2.0, 1.0, 3.0, df, 100, 1),
}
# the laws take the tests' rule: the same rows, the same message; each
# returns a value, which must be finite at both ends
DIST_DF_ENTRIES = {
    "NoncentralChiSq": lambda df: noncentral_chisq_sf(5.0, NoncentralChiSq(df, 1.0)),
    "chisq_cdf": lambda df: chisq_cdf(5.0, df),
    "chisq_quantile": lambda df: chisq_quantile(0.95, df),
}
# past 1e8 log g's rounding reaches log gamma's scale; below 1e-10 the
# kernels failed (at df 8.9e-13 and below), and chisq_quantile failed at
# 5e-324 and at the largest double
_DF_OUTSIDE = [math.nextafter(1e8, math.inf), 1e12, 0.0, math.nan, math.inf,
               math.nextafter(1e-10, 0.0), 1e-13, 5e-324, -math.inf, -_TINY, -1.0, _MAX]
_DF_MESSAGE = r"^degrees of freedom df=.* must lie in \[1e-10, 1e8\]$"


@pytest.mark.parametrize("entry", DF_ENTRIES)
@pytest.mark.parametrize("df", _DF_OUTSIDE)
def test_df_outside_the_domain(entry, df):
    with pytest.raises(DomainError, match=_DF_MESSAGE):
        DF_ENTRIES[entry](df)


@pytest.mark.parametrize("entry", DIST_DF_ENTRIES)
@pytest.mark.parametrize("df", _DF_OUTSIDE)
def test_distribution_df_outside_the_domain(entry, df):
    with pytest.raises(DomainError, match=_DF_MESSAGE):
        DIST_DF_ENTRIES[entry](df)


@pytest.mark.parametrize("entry", DF_ENTRIES)
def test_df_at_the_bound_is_accepted(entry):
    DF_ENTRIES[entry](1e8)


@pytest.mark.parametrize("entry", DF_ENTRIES)
def test_df_at_the_floor_is_accepted(entry):
    DF_ENTRIES[entry](1e-10)


@pytest.mark.parametrize("entry", DIST_DF_ENTRIES)
@pytest.mark.parametrize("df", [1e-10, 1e8])
def test_distribution_df_at_the_bound_is_accepted(entry, df):
    # chisq_quantile(0.95, 1e-10) is 8.53e-13, not the true 0 (CHANGES FOUND)
    assert math.isfinite(DIST_DF_ENTRIES[entry](df))


STATISTIC_ENTRIES = {
    "log_bf_ncchisq": lambda y: log_bf_ncchisq(y, 2.0, 6.0),
    "dlogbf_dy": lambda y: dlogbf_dy(y, 2.0, 6.0),
    "chisq_cdf": lambda y: chisq_cdf(y, 6.0),
    "noncentral_chisq_sf": lambda y: noncentral_chisq_sf(y, NoncentralChiSq(6.0, 1.0)),
}


@pytest.mark.parametrize("entry", STATISTIC_ENTRIES)
@pytest.mark.parametrize("y", [math.nan, math.inf, -math.inf, -_TINY, -1.0])
def test_statistic_outside_the_domain(entry, y):
    with pytest.raises(DomainError, match=r"^statistic must be nonnegative, got"):
        STATISTIC_ENTRIES[entry](y)


@pytest.mark.parametrize("entry", STATISTIC_ENTRIES)
def test_statistic_at_the_bound_is_accepted(entry):
    assert math.isfinite(STATISTIC_ENTRIES[entry](0.0))


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


def _no_draws_or_solves(monkeypatch):
    """Make a draw, a theta* solve or a match fail the test."""
    _no_draws(monkeypatch)

    def solve(*args):
        raise AssertionError("solved before validating")

    monkeypatch.setattr(power, "solve_umpbt_chisq", solve)
    monkeypatch.setattr(solver, "match_gamma_to_alpha", solve)


THETA_ENTRIES = {
    "log_bf_ncchisq": lambda t: log_bf_ncchisq(1.0, t, 6.0),
    "dlogbf_dy": lambda t: dlogbf_dy(1.0, t, 6.0),
    "rejection_boundary": lambda t: rejection_boundary(t, 3.0, 6.0),
    "rejection_boundary_grid": lambda t: rejection_boundary_grid(np.array([2.0, t]), 3.0, 6.0),
    "mc_rejection_rate": lambda t: mc_rejection_rate([2.0, t], 1.0, 3.0, 6.0, 100, 1),
    "CurvePoint": lambda t: CurvePoint(df=6.0, alpha=0.05, gamma=3.0, theta_star=t),
}


@pytest.mark.parametrize("entry", THETA_ENTRIES)
@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf, 0.0, -_TINY, -1.0,
                                   math.nextafter(1e150, math.inf)])
def test_theta_outside_the_domain(monkeypatch, entry, theta):
    # above 1e150 theta r(theta) ~ theta^2 / 4 nears overflow
    _no_draws_or_solves(monkeypatch)
    message = r"^noncentrality theta=.* must lie in \(0, 1e\+150\]$"
    with pytest.raises(DomainError, match=message):
        THETA_ENTRIES[entry](theta)


@pytest.mark.parametrize("entry", THETA_ENTRIES)
def test_theta_at_the_bound_is_accepted(entry):
    # the boundary functions' lower end, 2 df log gamma / 1e300, is their own
    # rule (test_solver.py); the others take the least positive double
    lowest = 2.0 * 6.0 * math.log(3.0) / 1e300 if "boundary" in entry else _TINY
    for theta in (lowest, 1e150):
        THETA_ENTRIES[entry](theta)


THETA_T_ENTRIES = {
    "NoncentralChiSq": lambda t: NoncentralChiSq(6.0, t),
    "rejection_probability": lambda t: rejection_probability(2.0, t, 3.0, 6.0),
    "mc_rejection_rate": lambda t: mc_rejection_rate(2.0, [1.0, t], 3.0, 6.0, 100, 1),
    "dominance_check": lambda t: dominance_check(3.0, 6.0, theta_grid=[2.0],
                                                 theta_t_grid=[1.0, t]),
}


@pytest.mark.parametrize("entry", THETA_T_ENTRIES)
@pytest.mark.parametrize("theta_t", [math.nan, math.inf, -math.inf, -_TINY, -1.0,
                                     math.nextafter(1e8, math.inf)])
def test_theta_t_outside_the_domain(monkeypatch, entry, theta_t):
    # above 1e8 the survival function's Poisson window outgrows its budget;
    # mc_rejection_rate and dominance_check check every theta_t before they
    # draw or solve
    _no_draws_or_solves(monkeypatch)
    message = r"^noncentrality theta_t must lie in \[0, 1e\+08\], got"
    with pytest.raises(DomainError, match=message):
        THETA_T_ENTRIES[entry](theta_t)


@pytest.mark.parametrize("entry", THETA_T_ENTRIES)
@pytest.mark.parametrize("theta_t", [0.0, 1e8])
def test_theta_t_at_the_bound_is_accepted(entry, theta_t):
    THETA_T_ENTRIES[entry](theta_t)


ALPHA_ENTRIES = {
    "ChiSqTestSpec": lambda a: ChiSqTestSpec(df=6.0, alpha=a),
    "gamma_vs_df_curve": lambda a: gamma_vs_df_curve([0.05, a], 1),
}


@pytest.mark.parametrize("entry", ALPHA_ENTRIES)
@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf, 0.0, -_TINY, 1.0,
                                   math.nextafter(1.0, 2.0)])
def test_alpha_outside_the_domain(monkeypatch, entry, alpha):
    # the curve checks every size before its first match
    _no_draws_or_solves(monkeypatch)
    with pytest.raises(DomainError, match=r"^significance level must lie in \(0, 1\), got"):
        ALPHA_ENTRIES[entry](alpha)


@pytest.mark.parametrize("entry", ALPHA_ENTRIES)
@pytest.mark.parametrize("alpha", [_TINY, math.nextafter(1.0, 0.0)])
def test_alpha_at_the_bound_is_accepted(monkeypatch, entry, alpha):
    # the match's own rules (1 - alpha below 1, alpha below P(chi2_df > df))
    # are tested in test_solver.py, so the curve's matches are stubbed here
    monkeypatch.setattr(solver, "match_gamma_to_alpha", lambda spec: UmpbtSolution(
        theta_star=7.0, boundary=12.0, gamma=3.0, direction=1, df=spec.df))
    ALPHA_ENTRIES[entry](alpha)


U_ENTRIES = {
    "t_log_bf": lambda u: t_log_bf(1.0, 2.0, u, _SETTING),
    "t_region": lambda u: t_region(2.0, u, _SETTING),
}


@pytest.mark.parametrize("entry", U_ENTRIES)
@pytest.mark.parametrize("u_stat", [math.nan, math.inf, -math.inf, 0.0, -_TINY, -1.0])
def test_scale_statistic_outside_the_domain(entry, u_stat):
    # t_log_bf returned NaN with a RuntimeWarning at U = inf
    message = r"^scale statistic U=.* must be positive and finite$"
    with pytest.raises(DomainError, match=message):
        U_ENTRIES[entry](u_stat)


@pytest.mark.parametrize("entry", U_ENTRIES)
@pytest.mark.parametrize("u_stat", [_TINY, _MAX])
def test_scale_statistic_at_the_bound_is_accepted(entry, u_stat):
    U_ENTRIES[entry](u_stat)


PRIOR_ENTRIES = {
    "alpha_prior": lambda v: TTestSetting(n=10, alpha_prior=v),
    "beta_prior": lambda v: TTestSetting(n=10, beta_prior=v),
    "nonexistence_demo": lambda v: nonexistence_demo(TTestSetting(n=10, beta_prior=v),
                                                     [2.0, 4.0], 100, 1),
}


@pytest.mark.parametrize("entry", PRIOR_ENTRIES)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -_TINY, -1.0, _MAX,
                                   math.nextafter(1e300, math.inf)])
def test_prior_outside_the_domain(monkeypatch, entry, value):
    # beta_prior = nan gave a verdict from meaningless rows, inf a
    # RuntimeWarning, and the largest double overflowed the Monte Carlo's U;
    # alpha_prior = nan failed as "rounds to 1"
    _no_draws(monkeypatch)
    with pytest.raises(DomainError, match=r"^(alpha|beta)_prior=.* must lie in \[0, 1e300\]$"):
        PRIOR_ENTRIES[entry](value)


@pytest.mark.parametrize("entry, value", [*[(entry, 0.0) for entry in PRIOR_ENTRIES],
                                          ("beta_prior", 1e300), ("nonexistence_demo", 1e300)])
def test_prior_at_the_bound_is_accepted(entry, value):
    PRIOR_ENTRIES[entry](value)


def test_alpha_prior_at_its_upper_bound_fails_on_sigma():
    # gamma_n - 1 ~ 1e-300 puts sigma_true's lower end at ~3e247: the prior
    # rule passes, and sigma_true = 1 is outside its range
    with pytest.raises(DomainError, match=r"^sigma_true=1.0 must lie in"):
        PRIOR_ENTRIES["alpha_prior"](1e300)


def _model(kind, field, value):
    fields = {"theta0": 0.3, "n": 10, "side": "greater", field: value}
    return ExpFamilyModel(kind=kind, **fields)


EXPFAM_ENTRIES = {
    f"{kind} {field}": (lambda v, kind=kind, field=field: _model(kind, field, v))
    for kind in ("binomial-proportion", "normal-mean-known-variance",
                 "normal-variance-known-mean")
    for field in ("n", "theta0", "nuisance")
}


@pytest.mark.parametrize("entry", EXPFAM_ENTRIES)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_expfam_parameter_outside_the_domain(entry, value):
    # a NaN or infinite normal-mean theta0 built and failed in the solve, a
    # NaN known mean solved, and an infinite trial count raised OverflowError
    field = entry.split()[1]
    with pytest.raises(DomainError, match=rf"^{field}=.* must be finite$"):
        EXPFAM_ENTRIES[entry](value)


# the largest double is an integer, a variance and a mean; each kind's own
# rules bound the rest (a proportion in (0, 1), a variance above 0)
@pytest.mark.parametrize("entry, value", [
    *[(f"{kind} n", _MAX) for kind in ("binomial-proportion", "normal-mean-known-variance",
                                       "normal-variance-known-mean")],
    ("binomial-proportion nuisance", _MAX),
    ("normal-mean-known-variance theta0", -_MAX),
    ("normal-mean-known-variance theta0", _MAX),
    ("normal-mean-known-variance nuisance", _MAX),
    ("normal-variance-known-mean theta0", _MAX),
    ("normal-variance-known-mean nuisance", -_MAX),
    ("normal-variance-known-mean nuisance", _MAX),
])
def test_expfam_parameter_at_the_bound_is_accepted(entry, value):
    EXPFAM_ENTRIES[entry](value)
