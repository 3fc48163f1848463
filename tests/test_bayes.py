"""Bayes-factor layer: noncentral chi-squared and exponential families."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from umpbt import (
    ChiSqTestSpec,
    DomainError,
    ExpFamilyModel,
    LogValue,
    dlogbf_dy,
    expfam_log_bf,
    log_bf_ncchisq,
)
from umpbt.bayes import _TINIEST, _bessel_ratio, _log_bf_core
from umpbt.special import _SERIES_ORDER_MAX, log_bessel_i, log_bessel_i_array


class TestNoncentralChiSqBayesFactor:
    def test_vanishing_noncentrality_limit(self):
        assert abs(log_bf_ncchisq(5.0, 1e-8, 6.0)) < 1e-6

    def test_df1_closed_form(self):
        # g = exp(-theta/2) cosh(sqrt(theta y))
        value = log_bf_ncchisq(4.0, 1.0, 1.0)
        assert value == pytest.approx(math.log(math.exp(-0.5) * math.cosh(2.0)),
                                      abs=1e-12)
        assert math.exp(value) == pytest.approx(2.2818870, abs=5e-7)

    def test_white_table_magnitude(self):
        # evidence for the worked independence example: about 3.52
        value = log_bf_ncchisq(12.65, 7.31, 6.0)
        assert abs(value - math.log(3.52)) <= math.log(1.005)

    @pytest.mark.parametrize("theta", [0.3, 1.0, 4.0, 20.0])
    @pytest.mark.parametrize("y", [0.2, 2.0, 15.0, 80.0])
    def test_df1_pipeline_consistency(self, theta, y):
        """Generic Bessel pipeline vs the df = 1 closed form, 1e-10 on the value."""
        assert abs(log_bf_ncchisq(y, theta, 1.0) - oracles.nu1_log_bf(y, theta)) <= 1e-10

    def test_strictly_increasing_in_y(self):
        ys = np.geomspace(0.01, 200.0, 60)
        for theta in (0.5, 3.0, 12.0):
            for df in (1.0, 2.0, 6.0, 11.5):
                values = [log_bf_ncchisq(float(y), theta, df) for y in ys]
                assert np.all(np.diff(values) > 0)

    def test_log_always_finite(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            y = float(rng.uniform(1e-6, 500.0))
            theta = float(rng.uniform(1e-6, 300.0))
            df = float(rng.uniform(0.5, 60.0))
            assert math.isfinite(log_bf_ncchisq(y, theta, df))

    @pytest.mark.parametrize("df", [0.2, 1.0, 2.0, 6.0, 200.0])
    def test_underflowing_product_gives_the_null_limit(self, df):
        # theta y rounds to 0 in the first three: log g is -theta/2 there,
        # up to log g's absolute rounding
        theta = np.array([1e-300, 5e-324, 1e-10, 3.0])
        y = np.array([1e-30, 1e-3, 1e-320, 1e-320])
        values = [log_bf_ncchisq(float(yi), float(ti), df) for yi, ti in zip(y, theta)]
        np.testing.assert_allclose(values, -theta / 2.0, rtol=1e-15, atol=1e-11)

    def test_linear_wrapper_and_overflow(self):
        assert LogValue(log_bf_ncchisq(4.0, 1.0, 1.0)).exp() == pytest.approx(
            math.exp(-0.5) * math.cosh(2.0), rel=1e-12
        )
        with pytest.raises(DomainError, match="overflows double precision"):
            LogValue(log_bf_ncchisq(4000.0, 4000.0, 2.0)).exp()

    def test_domain_errors(self):
        for args in [(-1.0, 1.0, 6.0), (1.0, 0.0, 6.0),
                     (1.0, -2.0, 6.0), (1.0, 1.0, 0.0)]:
            with pytest.raises(DomainError):
                log_bf_ncchisq(*args)
        # a zero statistic is in the domain: log g's limit at y = 0
        assert log_bf_ncchisq(0.0, 1.0, 6.0) == -0.5

    @pytest.mark.parametrize("df", [0.5, 1.0, 6.0, 30.0, 1000.0, 1e5])
    def test_zero_statistic_takes_the_limit(self, df):
        """At y = 0 the log Bayes factor is exactly -theta/2 and its slope
        exactly theta/(2 df); the Bessel terms alone round away from both,
        and the values next to zero approach them."""
        for theta in (0.1, 3.0, 700.0):
            assert log_bf_ncchisq(0.0, theta, df) == -theta / 2.0
            assert dlogbf_dy(0.0, theta, df) == theta / (2.0 * df)
            assert log_bf_ncchisq(1e-12, theta, df) == pytest.approx(-theta / 2.0,
                                                                     rel=1e-9)
            assert dlogbf_dy(1e-12, theta, df) == pytest.approx(theta / (2.0 * df),
                                                                rel=1e-6)


class TestBayesFactorDerivative:
    def test_df1_closed_form(self):
        assert dlogbf_dy(4.0, 1.0, 1.0) == pytest.approx(0.25 * math.tanh(2.0),
                                                         rel=1e-12)

    @pytest.mark.parametrize("df", [1.0, 3.0, 8.0])
    def test_matches_finite_difference(self, df):
        step = 1e-6
        for y in (0.8, 5.0, 30.0):
            for theta in (0.4, 2.0, 9.0):
                numeric = (log_bf_ncchisq(y + step, theta, df)
                           - log_bf_ncchisq(y - step, theta, df)) / (2 * step)
                assert dlogbf_dy(y, theta, df) == pytest.approx(numeric, rel=1e-5)

    def test_strictly_positive_on_grid(self):
        ys = np.geomspace(0.05, 150.0, 10)
        thetas = np.geomspace(0.05, 60.0, 10)
        for df in (1.0, 4.0, 12.0):
            for y in ys:
                for theta in thetas:
                    assert dlogbf_dy(float(y), float(theta), df) > 0.0


def _bits(value) -> int:
    return int(np.float64(value).view(np.int64))


def _order_df(order: float) -> float:
    """The df whose Bessel order df/2 - 1 is exactly ``order``."""
    df = 2.0 * (order + 1.0)
    assert df / 2.0 - 1.0 == order
    return df


_ABOVE_ORDER_MAX = math.nextafter(_SERIES_ORDER_MAX, math.inf)
_FLOAT_ROUTE = settings(derandomize=True, database=None, max_examples=200, deadline=None)
# log-uniform over [0.5, 1e8]: the series runs below df 23217, the uniform
# expansion above it and wherever z > 700
_DFS = st.floats(math.log10(0.5), 8.0).map(lambda e: min(10.0 ** e, 1e8))


class TestFloatRoute:
    """A float passed to the log g and log-Bessel kernels returns a float64
    with the bits of a one-element array, on the series and the uniform
    branch alike, and the public one-value functions built on them keep the
    bits they had when they wrapped one-element arrays."""

    @_FLOAT_ROUTE
    # z = 5e-324 is left out: z / 2 underflows there, and both routes give NaN
    @given(df=_DFS, z=st.one_of(st.just(0.0), st.floats(1e-300, 1500.0)))
    @example(df=2.0, z=0.0)  # order 0 at z = 0
    @example(df=6.0, z=0.0)  # order > 0
    @example(df=1.0, z=0.0)  # order in (-1, 0)
    @example(df=6.0, z=-0.0)
    @example(df=6.0, z=700.0)
    @example(df=6.0, z=math.nextafter(700.0, math.inf))
    @example(df=_order_df(_SERIES_ORDER_MAX), z=700.0)
    @example(df=_order_df(_SERIES_ORDER_MAX), z=3.0)
    @example(df=_order_df(_ABOVE_ORDER_MAX), z=3.0)
    @example(df=_order_df(_ABOVE_ORDER_MAX), z=0.0)
    def test_bessel_kernels(self, df, z):
        order = df / 2.0 - 1.0
        one = log_bessel_i_array(order, z)
        assert type(one) is np.float64
        assert _bits(one) == _bits(log_bessel_i_array(order, np.array([z]))[0])
        assert _bits(log_bessel_i(order, z).log_magnitude) == _bits(one)
        if z > 0.0:  # R(0) is -inf less -inf, on either route
            ratio = _bessel_ratio(z, df)
            assert type(ratio) is np.float64
            assert _bits(ratio) == _bits(_bessel_ratio(np.array([z]), df)[0])

    @_FLOAT_ROUTE
    @given(df=_DFS, y=st.floats(0.0, 2000.0, exclude_min=True),
           theta=st.floats(1e-3, 1e3))
    @example(df=6.0, y=5e-324, theta=0.5)  # theta y underflows to 0
    @example(df=1.0, y=5e-324, theta=0.5)
    @example(df=6.0, y=_TINIEST, theta=1.0)
    @example(df=6.0, y=700.0**2 / 7.0, theta=7.0)  # z = 700
    @example(df=_order_df(_SERIES_ORDER_MAX), y=12.5, theta=2.0)
    @example(df=_order_df(_ABOVE_ORDER_MAX), y=12.5, theta=2.0)
    # the C library's log of z differs from numpy's in the last bit here
    # (glibc and numpy 2.4 on x86-64), so log z must stay numpy's
    @example(df=6.0, y=151.48400768733595, theta=1.0)
    @example(df=0.5, y=10.822042518529805, theta=1.0)
    def test_log_bf_and_its_slope(self, df, y, theta):
        one = _log_bf_core(y, theta, df)
        assert type(one) is np.float64
        array = _log_bf_core(np.array([y]), np.array([theta]), df)[0]
        assert _bits(one) == _bits(array)
        assert _bits(log_bf_ncchisq(y, theta, df)) == _bits(array)
        z = np.array([math.sqrt(theta * y)])
        if z[0] > 0.0:  # dlogbf_dy as it was, on a one-element array
            slope = 0.5 * math.sqrt(theta / y) * float(_bessel_ratio(z, df)[0])
            assert _bits(dlogbf_dy(y, theta, df)) == _bits(slope)

    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf, -1.0, -5e-324])
    def test_bad_argument_raises_the_array_message(self, z):
        with pytest.raises(DomainError) as array:
            log_bessel_i_array(2.0, np.array([z]))
        with pytest.raises(DomainError) as one:
            log_bessel_i_array(2.0, z)
        assert str(one.value) == str(array.value) == \
            "Bessel argument must be finite and nonnegative"

    @pytest.mark.parametrize("order", [-1.0, math.nextafter(-1.0, -math.inf), -2.0,
                                       math.nan])
    def test_bad_order_raises_the_array_message(self, order):
        with pytest.raises(DomainError) as array:
            log_bessel_i_array(order, np.array([2.0]))
        with pytest.raises(DomainError) as one:
            log_bessel_i_array(order, 2.0)
        assert str(one.value) == str(array.value) == \
            f"Bessel order must exceed -1, got {order}"


class TestChiSqTestSpec:
    def test_exactly_one_of_gamma_alpha(self):
        with pytest.raises(DomainError):
            ChiSqTestSpec(df=6.0)
        with pytest.raises(DomainError):
            ChiSqTestSpec(df=6.0, gamma=3.0, alpha=0.05)

    def test_ranges(self):
        with pytest.raises(DomainError):
            ChiSqTestSpec(df=6.0, gamma=1.0)
        with pytest.raises(DomainError):
            ChiSqTestSpec(df=6.0, alpha=1.0)
        with pytest.raises(DomainError):
            ChiSqTestSpec(df=0.0, gamma=3.0)
        with pytest.raises(DomainError, match=r"df=.* must lie in \[1e-10, 1e8\]"):
            ChiSqTestSpec(df=1e8 * (1.0 + 2**-52), alpha=0.05)
        spec = ChiSqTestSpec(df=6.0, gamma=3.46)
        assert spec.alpha is None


def _loglik(model: ExpFamilyModel, xs: np.ndarray, theta: float) -> float:
    """Direct log-likelihood of raw observations, bypassing eta/A entirely."""
    if model.kind == "binomial-proportion":
        m = model.nuisance
        return float(np.sum(xs * math.log(theta) + (m - xs) * math.log1p(-theta)))
    if model.kind == "normal-mean-known-variance":
        s2 = model.nuisance
        return float(-np.sum((xs - theta) ** 2) / (2 * s2))
    mu = model.nuisance
    return float(-np.sum((xs - mu) ** 2) / (2 * theta) - xs.size * 0.5 * math.log(theta))


def _sufficient(model: ExpFamilyModel, xs: np.ndarray) -> float:
    if model.kind == "normal-variance-known-mean":
        return float(np.sum((xs - model.nuisance) ** 2))
    return float(np.sum(xs))


class TestExpFamilyBayesFactor:
    def test_null_theta_gives_zero(self):
        model = ExpFamilyModel(kind="normal-mean-known-variance", theta0=1.5, n=7,
                               side="greater", nuisance=2.0)
        for y in (-3.0, 0.0, 11.0):
            assert expfam_log_bf(y, 1.5, model) == 0.0

    def test_normal_mean_direct_value(self):
        model = ExpFamilyModel(kind="normal-mean-known-variance", theta0=0.0, n=1,
                               side="greater", nuisance=1.0)
        # -n theta^2 / 2 + y theta at theta = y = 2
        assert expfam_log_bf(2.0, 2.0, model) == pytest.approx(2.0, abs=1e-14)

    def test_binomial_against_likelihood_ratio(self):
        model = ExpFamilyModel(kind="binomial-proportion", theta0=0.5, n=10,
                               side="greater", nuisance=1.0)
        xs = np.array([1, 0, 1, 1, 0, 1, 1, 1, 0, 1], dtype=float)  # y = 7
        direct = _loglik(model, xs, 0.7) - _loglik(model, xs, 0.5)
        assert expfam_log_bf(7.0, 0.7, model) == pytest.approx(direct, abs=1e-12)

    @pytest.mark.parametrize("kind,theta0,nuisance,draw", [
        ("binomial-proportion", 0.4, 3.0, lambda rng, n: rng.binomial(3, 0.5, n)),
        ("normal-mean-known-variance", 0.2, 1.7, lambda rng, n: rng.normal(0.6, 1.3, n)),
        ("normal-variance-known-mean", 1.1, 0.4, lambda rng, n: rng.normal(0.4, 1.2, n)),
    ])
    def test_equals_likelihood_ratio_all_kinds(self, kind, theta0, nuisance, draw):
        rng = np.random.default_rng(11)
        for trial in range(5):
            n = int(rng.integers(2, 30))
            model = ExpFamilyModel(kind=kind, theta0=theta0, n=n, side="greater",
                                   nuisance=nuisance)
            xs = np.asarray(draw(rng, n), dtype=float)
            lo, hi = model.parameter_interval()
            theta = float(min(theta0 * 1.4 + 0.21, 0.95 if hi == 1.0 else theta0 + 2.0))
            direct = _loglik(model, xs, theta) - _loglik(model, xs, theta0)
            mine = expfam_log_bf(_sufficient(model, xs), theta, model)
            assert mine == pytest.approx(direct, abs=1e-10, rel=1e-12)

    @pytest.mark.parametrize("kind, theta0, theta, side, nuisance", [
        ("normal-mean-known-variance", 3.0, 2.9999999999099485, "less", 1e-20),
        ("binomial-proportion", 0.3, 0.3 + 1e-9, "greater", 2.0),
        ("normal-variance-known-mean", 2.0, 2.0 * (1.0 - 1e-10), "less", 0.0),
    ])
    def test_free_of_cancellation_near_theta0(self, kind, theta0, theta, side, nuisance):
        """theta within ~1e-10 relative of theta0: the differences of eta and
        A are formed from theta - theta0, so the log Bayes factor keeps full
        precision where subtracting their values would lose ~6 digits.  At
        y = 0 it is -n (A(theta) - A(theta0)) alone."""
        model = ExpFamilyModel(kind=kind, theta0=theta0, n=1, side=side, nuisance=nuisance)
        for y in (0.0, 1.0):
            expected = oracles.expfam_log_bf_mp(y, theta, kind, theta0, 1, nuisance)
            assert expfam_log_bf(y, theta, model) == pytest.approx(expected, rel=1e-12,
                                                                   abs=0)

    def test_side_violation_raises(self):
        model = ExpFamilyModel(kind="normal-mean-known-variance", theta0=0.0, n=4,
                               side="greater", nuisance=1.0)
        with pytest.raises(DomainError):
            expfam_log_bf(1.0, -0.5, model)

    def test_kind_domain_violation_raises(self):
        model = ExpFamilyModel(kind="binomial-proportion", theta0=0.5, n=4,
                               side="greater", nuisance=1.0)
        with pytest.raises(DomainError):
            expfam_log_bf(2.0, 1.5, model)


class TestExpFamilyModel:
    def test_eta_strictly_monotone_each_kind(self):
        grids = {
            "binomial-proportion": np.linspace(0.02, 0.98, 60),
            "normal-mean-known-variance": np.linspace(-8.0, 8.0, 60),
            "normal-variance-known-mean": np.geomspace(0.05, 40.0, 60),
        }
        theta0 = {"binomial-proportion": 0.5, "normal-mean-known-variance": 0.0,
                  "normal-variance-known-mean": 1.0}
        for kind, grid in grids.items():
            model = ExpFamilyModel(kind=kind, theta0=theta0[kind], n=3, side="greater")
            d_eta = [model.differences_from_null(float(t))[0] for t in grid]
            assert np.all(np.diff(d_eta) > 0)

    def test_validation(self):
        with pytest.raises(DomainError):
            ExpFamilyModel(kind="poisson-rate", theta0=1.0, n=3, side="greater")
        with pytest.raises(DomainError):
            ExpFamilyModel(kind="binomial-proportion", theta0=1.2, n=3, side="greater")
        with pytest.raises(DomainError):
            ExpFamilyModel(kind="normal-mean-known-variance", theta0=0.0, n=0,
                           side="greater")
        with pytest.raises(DomainError):
            ExpFamilyModel(kind="normal-mean-known-variance", theta0=0.0, n=3,
                           side="sideways")
        with pytest.raises(DomainError):
            ExpFamilyModel(kind="normal-variance-known-mean", theta0=-1.0, n=3,
                           side="greater")

    def test_nuisance_defaults(self):
        assert ExpFamilyModel(kind="binomial-proportion", theta0=0.5, n=2,
                              side="greater").nuisance == 1.0
        assert ExpFamilyModel(kind="normal-mean-known-variance", theta0=0.0, n=2,
                              side="greater").nuisance == 1.0
        assert ExpFamilyModel(kind="normal-variance-known-mean", theta0=1.0, n=2,
                              side="greater").nuisance == 0.0
