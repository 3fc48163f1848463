"""Input rules shared by the entry points: one owner and one message each.

``special`` owns the df rule of the chi-squared laws and of every test
built on them, [1e-10, 1e8], the statistic rule, y nonnegative and finite,
the draw count, an integer in [1, 2**30], and the seed, a nonnegative
integer, and ``NoncentralChiSq`` theta_t, in [0, 1e8]; ``bayes`` owns the
evidence-threshold rule, gamma > 1 and finite, the size rule, alpha in
(0, 1), and the alternatives' rule, theta in (0, 1e150];
``ttest`` owns its means, finite with magnitude at most 1e100, and its
scale statistic U, positive and finite, and the sample mean y of
``t_log_bf`` takes the means' rule; ``TTestSetting`` owns its sample
size n, an integer from 2 to the largest double, its sigma_true, in
[1e-53 sqrt(n) gamma_n/(gamma_n - 1), 1e100], and its priors, finite and
nonnegative; ``ExpFamilyModel`` requires n, theta0 and the nuisance to be
finite doubles (an int past the largest double is not), and
``expfam_log_bf`` its sufficient statistic y, finite and of either sign.
Every entry point that takes one of these inputs calls its owner, so an
input outside the domain fails as the same ``DomainError`` everywhere
(exit 1 at the command line), before any root, kernel or draw runs.
``ContingencyTable`` owns the counts' rules, whose error is
``ValidationError``.
"""

import math
import re
import sys

import numpy as np
import pytest

from umpbt import (
    ChiSqTestSpec,
    ContingencyTable,
    DomainError,
    ExpFamilyModel,
    NoncentralChiSq,
    ParseError,
    TTestSetting,
    UmpbtSolution,
    ValidationError,
    dlogbf_dy,
    dominance_check,
    expfam_log_bf,
    gamma_vs_df_curve,
    log_bf_ncchisq,
    mc_rejection_rate,
    nonexistence_demo,
    parse_table,
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
_HUGE = 10**309  # an int past the largest double, which float() cannot convert
_LONG = 10**5000  # an int past Python's 4,300-digit limit, which str() cannot convert
_LONGS = [pytest.param(_LONG, id="10**5000"), pytest.param(-_LONG, id="-10**5000")]

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
               math.nextafter(1e-10, 0.0), 1e-13, 5e-324, -math.inf, -_TINY, -1.0, _MAX,
               *_LONGS]
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


PRODUCT_ENTRIES = {
    "log_bf_ncchisq": lambda y: log_bf_ncchisq(y, 2.0, 6.0),
    "dlogbf_dy": lambda y: dlogbf_dy(y, 2.0, 6.0),
}


@pytest.mark.parametrize("entry", PRODUCT_ENTRIES)
def test_statistic_times_theta_beyond_double_range(entry):
    # bf --df 6 --stat 1e308 --gamma 3 at the command line
    message = (r"^statistic y=1e\+308 times noncentrality theta=2.0 "
               r"overflows double precision$")
    with pytest.raises(DomainError, match=message):
        PRODUCT_ENTRIES[entry](1e308)


_SETTING = TTestSetting(n=10, gamma=3.0)

GAMMA_ENTRIES = {
    "ChiSqTestSpec": lambda g: ChiSqTestSpec(df=6.0, gamma=g),
    "UmpbtSolution": lambda g: UmpbtSolution(theta_star=7.0, boundary=12.0, gamma=g,
                                             direction=1, df=6.0),
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


def _solution(**fields):
    return UmpbtSolution(**{"theta_star": 7.0, "boundary": 12.0, "gamma": 3.0,
                            "direction": 1, "df": 6.0, **fields})


@pytest.mark.parametrize("fields, message", [
    ({"direction": 0}, r"^direction must be -1 or \+1, got 0$"),
    ({"theta_star": math.inf}, r"^solution fields must be finite$"),
    ({"boundary": math.nan}, r"^solution fields must be finite$"),
])
def test_solution_fields_outside_the_domain(fields, message):
    with pytest.raises(DomainError, match=message):
        _solution(**fields)


DRAW_ENTRIES = {
    "sample_noncentral_chisq": lambda n, seed: sample_noncentral_chisq(
        NoncentralChiSq(6.0, 1.0), n, seed),
    "t_rejection_prob": lambda n, seed: t_rejection_prob(1.0, 0.0, _SETTING, n, seed),
    "nonexistence_demo": lambda n, seed: nonexistence_demo(_SETTING, [1.0, 2.0], n, seed),
    "mc_rejection_rate": lambda n, seed: mc_rejection_rate(1.0, 1.0, 3.0, 6.0, n, seed),
}


def _no_draws(monkeypatch):
    def default_rng(*args):
        raise AssertionError("drew before validating")

    monkeypatch.setattr(np.random, "default_rng", default_rng)


@pytest.mark.parametrize("entry", DRAW_ENTRIES)
@pytest.mark.parametrize("n_draws", [0, 2.5, True, 2**30 + 1, _LONGS[0]])
def test_draw_count_outside_the_domain(monkeypatch, entry, n_draws):
    # the check comes before the draws' array: 2**30 + 1 of them take 8 GiB
    _no_draws(monkeypatch)
    with pytest.raises(DomainError, match=r"^n_draws must be an integer in \[1, 2\*\*30\]"):
        DRAW_ENTRIES[entry](n_draws, 1)


@pytest.mark.parametrize("entry", DRAW_ENTRIES)
@pytest.mark.parametrize("seed", [-1, 1.5, True, _LONGS[1]])
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


@pytest.mark.parametrize("mean", [math.nan, math.inf, -math.inf, 1e308,
                                  -math.nextafter(1e100, math.inf)])
def test_sample_mean_outside_the_domain(mean):
    # t_log_bf returned NaN at y = nan, and NaN with a RuntimeWarning at
    # y = inf and 1e200, where n (y - theta0)^2 overflowed
    with pytest.raises(DomainError, match=r"^sample mean y=.* must lie in \[-1e100, 1e100\]$"):
        t_log_bf(mean, 1.0, 9.0, _SETTING)


@pytest.mark.parametrize("mean", [1e100, -1e100])
def test_sample_mean_at_the_bound_is_accepted(mean):
    assert math.isfinite(t_log_bf(mean, 1.0, 9.0, _SETTING))


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
    "UmpbtSolution": lambda a: UmpbtSolution(theta_star=7.0, boundary=12.0, gamma=3.0,
                                             direction=1, df=6.0, alpha=a),
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


@pytest.mark.parametrize("df_max", [2.5, 1.5])
def test_curve_df_max_outside_the_domain(monkeypatch, df_max):
    # inside df's range, but not a whole count; checked before the first match
    _no_draws_or_solves(monkeypatch)
    with pytest.raises(DomainError, match=rf"^df_max must be a positive integer, got {df_max}$"):
        gamma_vs_df_curve([0.05], df_max)


@pytest.mark.parametrize("df_max", [10**8 + 1, _LONGS[0]])
def test_curve_df_max_past_the_df_range(monkeypatch, df_max):
    _no_draws_or_solves(monkeypatch)
    with pytest.raises(DomainError, match=_DF_MESSAGE):
        gamma_vs_df_curve([0.05], df_max)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python converts an int of any length to str")
@pytest.mark.parametrize("call, shown", [
    (lambda: TTestSetting(n=_LONG, gamma=3.0), "n=<int of about 5001 digits>"),
    (lambda: mc_rejection_rate(1.0, 1.0, 3.0, 6.0, 10, -_LONG), "-<int of about 5001 digits>"),
], ids=["n", "seed"])
def test_an_int_past_the_str_limit_shows_its_digit_count(call, shown):
    # the message formatted the int, and str() raised ValueError past 4,300 digits
    with pytest.raises(DomainError, match=re.escape(shown) + "$"):
        call()


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


@pytest.mark.parametrize("n", [1, 2.5, math.nan, math.inf, _HUGE, _LONGS[0]])
def test_t_test_sample_size_outside_the_domain(n):
    # an int past the largest double passed as n and overflowed in n + 2 alpha_prior
    message = r"^sample size must be an integer >= 2 and at most the largest double, got n="
    with pytest.raises(DomainError, match=message):
        TTestSetting(n=n, gamma=3.0)


def test_n_plus_twice_alpha_prior_overflowing_fails_on_gamma_n():
    # n and alpha_prior each pass their rules, and n + 2 alpha_prior overflows
    message = (r"^gamma \*\* \(2/\(n \+ 2 alpha_prior\)\) rounds to 1 at "
               r"n=\d+, alpha_prior=1e\+300$")
    with pytest.raises(DomainError, match=message):
        TTestSetting(n=int(_MAX), alpha_prior=1e300)


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
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, _HUGE, -_HUGE,
                                   *_LONGS])
def test_expfam_parameter_outside_the_domain(entry, value):
    # a NaN or infinite normal-mean theta0 built and failed in the solve, a
    # NaN known mean solved, an infinite trial count raised OverflowError,
    # and so did each of the three fields at an int past the largest double
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


@pytest.mark.parametrize("entry, value, message", [
    ("binomial-proportion nuisance", 2.5,
     r"^trial count must be a positive integer, got 2.5$"),
    ("normal-mean-known-variance nuisance", 0.0,
     r"^known variance must be positive, got 0.0$"),
])
def test_expfam_kind_rule_outside_the_domain(entry, value, message):
    with pytest.raises(DomainError, match=message):
        EXPFAM_ENTRIES[entry](value)


STATISTIC_MODELS = {
    "binomial-proportion": ExpFamilyModel("binomial-proportion", 0.3, 2, "greater"),
    "normal-mean-known-variance": ExpFamilyModel("normal-mean-known-variance", 0.3, 10,
                                                 "greater"),
}


@pytest.mark.parametrize("kind", STATISTIC_MODELS)
@pytest.mark.parametrize("y", [math.nan, math.inf, -math.inf])
def test_expfam_statistic_outside_the_domain(kind, y):
    # a NaN statistic gave a NaN log Bayes factor, an infinite one +-inf
    with pytest.raises(DomainError, match=r"^sufficient statistic y=.* must be finite$"):
        expfam_log_bf(y, 0.5, STATISTIC_MODELS[kind])


@pytest.mark.parametrize("kind", STATISTIC_MODELS)
@pytest.mark.parametrize("y", [-4.0, 4.0])
def test_expfam_statistic_finite_is_accepted(kind, y):
    # a normal-mean statistic can be negative; the rule asks only finiteness
    assert math.isfinite(expfam_log_bf(y, 0.5, STATISTIC_MODELS[kind]))


# gamma next to 1 on a fine scale: theta* rounded to theta0, where the Bayes
# factor is 1 for every y, and the solve returned that test, which never
# rejects, with exit 0
@pytest.mark.parametrize("kind, theta0, n, gamma, side, nuisance", [
    ("normal-mean-known-variance", 5.0, 1, 1.0001, "less", 1e-28),
    ("normal-mean-known-variance", 5.0, 1, 1.0001, "less", 1e-200),
])
def test_expfam_theta_star_at_theta0_is_outside_the_domain(kind, theta0, n, gamma, side,
                                                           nuisance):
    model = ExpFamilyModel(kind=kind, theta0=theta0, n=n, side=side, nuisance=nuisance)
    message = (rf"^theta\* for gamma={gamma} lies closer to theta0={theta0} on the "
               rf"'{side}' side than double precision resolves$")
    with pytest.raises(DomainError, match=message):
        solve_umpbt_expfam(model, gamma)


# ContingencyTable's own rules, which a table built in code meets without
# parse_table's per-cell checks
TABLE_CASES = {
    "one-dimensional": (np.array([1, 2, 3]), ValidationError,
                        r"^counts must be a matrix, got shape \(3,\)$"),
    "fractional": ([[1.5, 2], [3, 4]], ValidationError, r"^counts must be integers$"),
    "all zero": (np.zeros((2, 2), dtype=np.int64), ValidationError,
                 r"^table has no observations$"),
}


@pytest.mark.parametrize("case", TABLE_CASES)
def test_table_outside_the_domain(case):
    counts, error, message = TABLE_CASES[case]
    with pytest.raises(error, match=message):
        ContingencyTable(counts=counts)


def test_table_source_outside_the_domain():
    with pytest.raises(ParseError, match=r"^unsupported source type int$"):
        parse_table(42)
