"""One-sample t-test layer: Bayes factor, quadratic regions, non-existence."""

import math
import warnings

import numpy as np
import oracles
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from umpbt import (
    DomainError,
    TTestSetting,
    nonexistence_demo,
    t_log_bf,
    t_region,
    t_rejection_prob,
)
from umpbt.special import NoncentralChiSq, noncentral_chisq_sf
from umpbt.ttest import _acceptance_prob, _center_shift, _t_log_bf_array

DEMO = TTestSetting(n=10, theta0=0.0, alpha_prior=0.0, beta_prior=0.0,
                    gamma=3.0, sigma_true=1.0)


def _gamma_n(setting):
    """The region's threshold gamma^(2/(n + 2 alpha)), as the textbook writes it."""
    return setting.gamma ** (2.0 / (setting.n + 2.0 * setting.alpha_prior))


class TestTLogBf:
    def test_null_theta_is_zero(self):
        setting = TTestSetting(n=10, gamma=3.0)
        for y in (-2.0, 0.0, 3.7):
            assert t_log_bf(y, 0.0, 9.0, setting) == 0.0

    def test_value_at_y_equal_theta(self):
        setting = TTestSetting(n=10, gamma=3.0)
        theta, u_stat = 1.3, 9.0
        at_theta = t_log_bf(theta, theta, u_stat, setting)
        expected = (10 / 2) * math.log(1.0 + 10 * theta**2 / u_stat)
        assert at_theta == pytest.approx(expected, rel=1e-12)

    def test_maximal_where_offset_product_equals_scale(self):
        """The log Bayes factor peaks in y where (y - theta0)(y - theta) = U/n,
        i.e. slightly beyond theta on the far side from the null."""
        setting = TTestSetting(n=10, gamma=3.0)
        theta, u_stat = 1.3, 9.0
        y_star = 0.5 * (theta + math.sqrt(theta**2 + 4.0 * u_stat / 10))
        peak = t_log_bf(y_star, theta, u_stat, setting)
        for y in np.linspace(-4.0, 8.0, 81):
            assert t_log_bf(float(y), theta, u_stat, setting) <= peak + 1e-12
        assert peak > t_log_bf(theta, theta, u_stat, setting)

    def test_against_marginal_density_ratio(self):
        # the inverse-gamma prefactors cancel in the ratio of marginals
        setting = TTestSetting(n=10, gamma=3.0)
        n, y, theta, u_stat = 10, 0.5, 1.0, 9.0
        kernel = lambda t: (u_stat + n * (y - t) ** 2) ** (-(n / 2))
        oracle = math.log(kernel(theta) / kernel(0.0))
        assert t_log_bf(y, theta, u_stat, setting) == pytest.approx(oracle, rel=1e-12)

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(y=st.floats(-1e6, 1e6), theta=st.floats(-1e6, 1e6), u_stat=st.floats(1e-6, 1e6),
           n=st.integers(2, 10**6), alpha_prior=st.floats(0.0, 1e3))
    # a float's ** 2 (the C library's pow) differs from its square in the
    # last bit here (glibc on x86-64), and so would the value
    @example(y=709.673919350209, theta=375.13535573162267, u_stat=9.0, n=10, alpha_prior=0.0)
    @example(y=305.69289673500293, theta=656.7722426496712, u_stat=9.0, n=10, alpha_prior=0.0)
    def test_float_route_keeps_the_array_bits(self, y, theta, u_stat, n, alpha_prior):
        """t_log_bf takes floats; its value has the bits of the one-element
        array route, whose products give numpy's ``** 2`` bits."""
        setting = TTestSetting(n=n, alpha_prior=alpha_prior, gamma=3.0)
        ys, us = np.array([y]), np.array([u_stat])
        array = _t_log_bf_array(ys, us, theta, setting)[0]
        power = n / 2.0 + alpha_prior
        squares = power * (np.log(us + n * (ys - 0.0) ** 2) - np.log(us + n * (ys - theta) ** 2))
        value = t_log_bf(y, theta, u_stat, setting)
        assert np.float64(value).view(np.int64) == array.view(np.int64) == \
            squares[0].view(np.int64)

    def test_requires_positive_scale(self):
        with pytest.raises(DomainError):
            t_log_bf(0.5, 1.0, 0.0, DEMO)


class TestTRegion:
    def test_zero_discriminant_collapses(self):
        setting = TTestSetting(n=2, theta0=0.0, gamma=2.0)  # gamma_n = 2
        region = t_region(1.0, 4.0, setting)                # U/n = 2
        assert not region.empty
        assert region.lower == pytest.approx(2.0, abs=1e-12)
        assert region.upper == pytest.approx(2.0, abs=1e-12)

    def test_negative_discriminant_is_empty_value(self):
        setting = TTestSetting(n=2, theta0=0.0, gamma=2.0)
        region = t_region(0.5, 40.0, setting)
        assert region.empty
        assert math.isnan(region.lower) and math.isnan(region.upper)

    def test_membership_and_endpoints(self):
        setting = TTestSetting(n=10, gamma=3.0)
        theta, u_stat = 1.5, 9.0
        region = t_region(theta, u_stat, setting)
        assert not region.empty
        log_gamma = math.log(setting.gamma)
        inner = np.linspace(region.lower + 1e-6, region.upper - 1e-6, 25)
        for y in inner:
            assert t_log_bf(float(y), theta, u_stat, setting) > log_gamma
        for endpoint in (region.lower, region.upper):
            assert abs(t_log_bf(endpoint, theta, u_stat, setting) - log_gamma) <= 1e-9

    def test_regions_are_not_nested(self):
        """Two alternatives on the same side produce incomparable regions."""
        setting = TTestSetting(n=2, theta0=0.0, gamma=1.5)  # gamma_n = 1.5
        u_stat = 0.2                                        # U/n = 0.1
        r1 = t_region(1.0, u_stat, setting)
        r3 = t_region(3.0, u_stat, setting)
        nested_12 = r1.lower >= r3.lower and r1.upper <= r3.upper
        nested_21 = r3.lower >= r1.lower and r3.upper <= r1.upper
        assert not nested_12 and not nested_21

    def test_region_matches_bayes_factor_indicator(self):
        rng = np.random.default_rng(17)
        setting = TTestSetting(n=8, theta0=0.3, gamma=4.0)
        log_gamma = math.log(setting.gamma)
        for _ in range(200):
            theta = float(rng.uniform(-4.0, 4.0))
            if theta == setting.theta0:
                continue
            u_stat = float(rng.uniform(0.2, 30.0))
            y = float(rng.uniform(-8.0, 8.0))
            region = t_region(theta, u_stat, setting)
            if region.empty:
                inside = False
            else:
                if min(abs(y - region.lower), abs(y - region.upper)) < 1e-9:
                    continue
                inside = region.lower < y < region.upper
            assert inside == (t_log_bf(y, theta, u_stat, setting) > log_gamma)

    def test_upper_endpoint_grows_and_lower_endpoint_dips(self):
        """For theta above the null, b grows without bound while a bottoms out
        at theta0 + sqrt(U (gamma_n - 1) / n), attained at that same theta."""
        setting = TTestSetting(n=10, gamma=3.0)
        u_stat = 9.0
        g = _gamma_n(setting)
        theta_dip = setting.theta0 + math.sqrt(u_stat * (g - 1.0) / setting.n)
        thetas = np.linspace(theta_dip * 0.55, theta_dip * 6.0, 400)
        regions = [t_region(float(t), u_stat, setting) for t in thetas]
        assert all(not r.empty for r in regions)
        uppers = np.array([r.upper for r in regions])
        lowers = np.array([r.lower for r in regions])
        assert np.all(np.diff(uppers) > 0)
        step = float(thetas[1] - thetas[0])
        dip_region = t_region(theta_dip, u_stat, setting)
        assert dip_region.lower == pytest.approx(theta_dip, rel=1e-12)
        assert np.all(lowers >= dip_region.lower - 1e-12)
        assert abs(thetas[int(np.argmin(lowers))] - theta_dip) <= step

    def test_threshold_next_to_one_gives_a_finite_region(self):
        """gamma_n rounds to 1 here, which divided by zero while the region
        read gamma_n - 1 from it.  The 60-digit endpoints are 0.5 and
        4.5035996273704965e21; c - h alone would put the lower one at 0."""
        region = t_region(1.0, 1.0, TTestSetting(n=10**6, gamma=1 + 2**-52))
        assert not region.empty
        assert region.lower == pytest.approx(0.5, rel=1e-15)
        assert region.upper == pytest.approx(4.5035996273704965e21, rel=1e-15)

    def test_mirrored_for_lower_side(self):
        setting = TTestSetting(n=10, gamma=3.0)
        u_stat = 9.0
        g = _gamma_n(setting)
        theta_peak = setting.theta0 - math.sqrt(u_stat * (g - 1.0) / setting.n)
        peak_region = t_region(theta_peak, u_stat, setting)
        assert peak_region.upper == pytest.approx(theta_peak, rel=1e-12)
        thetas = np.linspace(theta_peak * 6.0, theta_peak * 0.55, 400)
        uppers = [t_region(float(t), u_stat, setting).upper for t in thetas]
        assert np.all(np.array(uppers) <= peak_region.upper + 1e-12)


def _region_law(theta, theta_t, setting):
    """(r, n, mu^2): the test accepts iff sum (x_i - c)^2 / sigma^2, a
    noncentral chi2_n(mu^2) variable, is at least r."""
    n = setting.n
    g_minus_1 = math.expm1(2.0 * math.log(setting.gamma) / n)
    shift = (1.0 + g_minus_1) * theta / g_minus_1       # c - theta0, theta0 = 0
    r = n * shift * shift / (1.0 + g_minus_1) - 2.0 * setting.beta_prior
    return r, n, n * (theta_t - shift) ** 2


class TestAcceptanceProb:
    @pytest.mark.parametrize("n", [2, 3, 10, 50, 400])
    @pytest.mark.parametrize("gamma", [1.5, 3.0, 100.0])
    @pytest.mark.parametrize("beta", [0.0, 1.0])
    def test_against_noncentral_chisq_oracle(self, n, gamma, beta):
        """sum (x_i - c)^2 / sigma^2 ~ chi'2_n(mu^2), so A is its 50-digit
        survival function at r.  The alternatives put mu at -1.5 and 4 for
        theta_t 0.5 (A near 1) and 1.5 (A down to 1e-51 at n 400)."""
        setting = TTestSetting(n=n, gamma=gamma, beta_prior=beta)
        g = _gamma_n(setting)
        for theta_t in (0.5, 1.5):
            for mu in (-1.5, 4.0):
                theta = (theta_t - mu / math.sqrt(n)) * (g - 1.0) / g
                r, df, mu2 = _region_law(theta, theta_t, setting)
                accept = _acceptance_prob(theta, theta_t, setting)
                if r <= 0.0:
                    assert accept == 1.0
                    continue
                assert mu2 <= 1e4
                oracle = oracles.noncentral_chisq_sf_mp(r, df, mu2)
                assert accept == pytest.approx(oracle, rel=1e-9, abs=0.0)

    def test_sweep_raises_no_warning(self):
        """Every warning is an error here, quad's IntegrationWarning included,
        from gamma 1.01 to 100 and n 2 to 3000; where mu^2 <= 1e6 the value
        meets the exact noncentral chi-squared survival function."""
        checked = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n in (2, 3, 10, 100, 3000):
                for gamma in (1.01, 3.0, 100.0):
                    for beta in (0.0, 1.0):
                        setting = TTestSetting(n=n, gamma=gamma, beta_prior=beta)
                        for theta_t in (0.5, -4.0):
                            for offset in np.linspace(0.02, 1.6, 8):
                                theta = float(offset * theta_t)
                                accept = _acceptance_prob(theta, theta_t, setting)
                                assert 0.0 <= accept <= 1.0
                                r, df, mu2 = _region_law(theta, theta_t, setting)
                                if r <= 0.0 or mu2 > 1e6 or accept < 1e-300:
                                    continue
                                exact = noncentral_chisq_sf(r, NoncentralChiSq(df, mu2))
                                assert accept == pytest.approx(exact, rel=1e-9, abs=0.0)
                                checked += 1
        assert checked > 200

    def test_never_rejects_without_a_region(self):
        # R^2 = n (c - theta0)^2 / g - 2 beta <= 0: no dataset rejects
        setting = TTestSetting(n=2, gamma=100.0, beta_prior=1.0)
        assert _acceptance_prob(0.5, 2.0, setting) == 1.0
        assert _acceptance_prob(0.0, 2.0, DEMO) == 1.0


class TestTRejectionProb:
    def test_remote_alternative_never_rejects(self):
        assert t_rejection_prob(50.0, 0.0, DEMO, 100_000, seed=3) < 0.01

    def test_sign_symmetry(self):
        p_pos = t_rejection_prob(1.5, 2.0, DEMO, 50_000, seed=5)
        p_neg = t_rejection_prob(-1.5, -2.0, DEMO, 50_000, seed=5)
        envelope = 4.0 * math.sqrt(2.0 * 0.5 * 0.5 / 50_000)
        assert abs(p_pos - p_neg) <= envelope

    def test_nearby_alternative_beats_remote_one(self):
        p_near = t_rejection_prob(2.0, 2.0, DEMO, 100_000, seed=3)
        p_far = t_rejection_prob(10.0, 2.0, DEMO, 100_000, seed=3)
        assert p_near > 0.5
        assert p_near > p_far

    @pytest.mark.parametrize("setting, theta, theta_t", [
        (DEMO, 1.0, 2.0),
        (DEMO, 3.0, 2.0),
        (DEMO, 0.3, 0.0),
        (TTestSetting(n=3, gamma=1.5, beta_prior=1.0), 0.6, 0.5),
        (TTestSetting(n=50, gamma=100.0), 0.3, 1.0),
    ])
    def test_within_five_sigma_of_exact(self, setting, theta, theta_t):
        draws = 200_000
        rate = t_rejection_prob(theta, theta_t, setting, draws, seed=11)
        exact = 1.0 - _acceptance_prob(theta, theta_t, setting)
        sigma = math.sqrt(exact * (1.0 - exact) / draws)
        assert abs(rate - exact) <= 5.0 * sigma + 5.0 / draws

    def test_validation(self):
        with pytest.raises(DomainError):
            t_rejection_prob(1.0, 0.0, DEMO, 0, seed=1)


class TestNonexistenceDemo:
    def test_distinct_argmaxes_flag_non_existence(self):
        report = nonexistence_demo(DEMO, [2.0, 4.0], 30_000, seed=42)
        assert report.nonexistence
        a2, a4 = report.rows[0].argmax_theta, report.rows[1].argmax_theta
        assert a2 < a4
        assert 0.0 < a2 < 2.0
        assert 0.0 < a4 < 4.0
        assert abs(a4 - a2) > report.refine_tol

    def test_demo_argmaxes_are_exact(self):
        """The minimizers of the exact acceptance probability, found with
        the 50-digit oracle: A is 2.894e-6 and 1.331e-25 there."""
        report = nonexistence_demo(DEMO, [2.0, 4.0], 1000, seed=1)
        row2, row4 = report.rows
        assert row2.argmax_theta == pytest.approx(0.6648356838, abs=1e-7)
        assert row4.argmax_theta == pytest.approx(0.9736206280, abs=1e-7)
        assert 1.0 - row2.max_prob == pytest.approx(2.8938060594e-6, rel=1e-6)

    def test_mc_prob_matches_the_exact_rate(self):
        draws = 200_000
        setting = TTestSetting(n=10, gamma=20.0)
        report = nonexistence_demo(setting, [1.0, 2.0], draws, seed=3)
        for row in report.rows:
            exact = row.max_prob
            sigma = math.sqrt(exact * (1.0 - exact) / draws)
            assert abs(row.mc_prob - exact) <= 5.0 * sigma + 5.0 / draws

    def test_identical_data_generating_means_agree(self):
        report = nonexistence_demo(DEMO, [2.0, 2.0], 20_000, seed=9)
        assert report.rows[0] == report.rows[1]
        assert not report.nonexistence

    def test_deterministic_given_seed(self):
        first = nonexistence_demo(DEMO, [2.0, 4.0], 20_000, seed=31)
        second = nonexistence_demo(DEMO, [2.0, 4.0], 20_000, seed=31)
        assert first.rows == second.rows

    def test_plateau_bounds_bracket_argmax(self):
        for means in ([2.0, 4.0], [-2.0, -4.0]):
            report = nonexistence_demo(DEMO, means, 20_000, seed=42)
            for row in report.rows:
                assert row.plateau_lo <= row.argmax_theta <= row.plateau_hi
                assert 0.0 <= row.max_prob <= 1.0

    def test_means_below_the_null_mirror_those_above(self):
        above = nonexistence_demo(DEMO, [2.0, 4.0], 1000, seed=1)
        below = nonexistence_demo(DEMO, [-2.0, -4.0], 1000, seed=1)
        for up, down in zip(above.rows, below.rows):
            assert down.argmax_theta == pytest.approx(-up.argmax_theta, abs=1e-7)
            assert down.max_prob == pytest.approx(up.max_prob, rel=1e-9)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_plateau_only_where_acceptance_underflows(self, sign):
        """At n 100, A underflows to 0 over a run of cells at theta_t 4; below
        the null the grid descends, and the bounds still come out ordered."""
        setting = TTestSetting(n=100, gamma=3.0)
        report = nonexistence_demo(setting, [2.0 * sign, 4.0 * sign], 1000, seed=1)
        row = report.rows[1]
        assert row.plateau_lo < row.argmax_theta < row.plateau_hi
        assert row.max_prob == 1.0
        assert _acceptance_prob(row.argmax_theta, row.theta_t, setting) == 0.0

    def test_extreme_means_raise_no_warning(self):
        """theta0 = 1e100 puts the Monte Carlo's ybar exactly on -1e100,
        where the simulated scale statistic once rounded to U = 0."""
        setting = TTestSetting(n=3, theta0=1e100, gamma=3.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = nonexistence_demo(setting, [-1e100, 1e100], 50, 1)
        assert len(report.rows) == 2

    def test_needs_two_means(self):
        with pytest.raises(DomainError):
            nonexistence_demo(DEMO, [2.0], 1000, seed=1)


class TestTTestSetting:
    def test_validation(self):
        with pytest.raises(DomainError):
            TTestSetting(n=1, gamma=3.0)
        with pytest.raises(DomainError):
            TTestSetting(n=10, gamma=1.0)
        with pytest.raises(DomainError):
            TTestSetting(n=10, gamma=3.0, sigma_true=0.0)
        with pytest.raises(DomainError):
            TTestSetting(n=10, gamma=3.0, alpha_prior=-1.0)
        # int() of these raised OverflowError and ValueError
        for n in (math.inf, math.nan):
            with pytest.raises(DomainError, match=r"^sample size must be an integer >= 2"):
                TTestSetting(n=n, gamma=3.0)

    def test_gamma_n_exceeds_one(self):
        """gamma_n - 1 comes from expm1, so it stays positive, and accurate,
        where gamma_n itself rounds to 1."""
        setting = TTestSetting(n=10, gamma=3.0, alpha_prior=0.5)
        g_minus_1, shift = _center_shift(1.0, setting)
        assert 1.0 + g_minus_1 == pytest.approx(3.0 ** (2.0 / 11.0), rel=1e-15)
        assert shift == pytest.approx((1.0 + g_minus_1) / g_minus_1, rel=1e-15)
        near_one = TTestSetting(n=10**6, gamma=1 + 2**-52)
        assert _gamma_n(near_one) == 1.0
        g_minus_1, _ = _center_shift(1.0, near_one)
        assert g_minus_1 == pytest.approx(2 * math.log1p(2**-52) / 10**6, rel=1e-15)
