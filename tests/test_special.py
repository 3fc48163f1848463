"""Special-function layer: Bessel, gamma, chi-squared CDF/quantile, sampler."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from umpbt import (
    DomainError,
    LogValue,
    NoncentralChiSq,
    chisq_cdf,
    chisq_quantile,
    log_bessel_i,
    log_bessel_i_array,
    log_gamma_fn,
    noncentral_chisq_sf,
    sample_noncentral_chisq,
)

BESSEL_ORDERS = (1.0, 2.0, 5.5, 6.0, 10.0)
BESSEL_ARGS = (0.1, 1.0, 10.0, 100.0, 700.0)


class TestLogBessel:
    def test_order_zero_at_zero(self):
        assert log_bessel_i(0.0, 0.0).log_magnitude == 0.0

    def test_zero_argument_limits(self):
        assert log_bessel_i(2.0, 0.0).log_magnitude == -math.inf
        assert log_bessel_i(-0.5, 0.0).log_magnitude == math.inf

    def test_half_order_closed_form(self):
        # I_{1/2}(z) = sqrt(2/(pi z)) sinh z
        expected = math.log(math.sqrt(2.0 / math.pi) * math.sinh(1.0))
        assert log_bessel_i(0.5, 1.0).log_magnitude == pytest.approx(expected, abs=1e-12)
        assert abs(math.exp(log_bessel_i(0.5, 1.0).log_magnitude) - 0.9376748882454442) < 1e-12

    def test_order_zero_series_value(self):
        # frozen from a 200-term extended-precision summation of the series
        assert math.exp(log_bessel_i(0.0, 1.0).log_magnitude) == pytest.approx(
            1.2660658777520084, rel=1e-13
        )
        oracle = oracles.log_bessel_series_mp(0.0, 1.0, terms=200)
        assert log_bessel_i(0.0, 1.0).log_magnitude == pytest.approx(oracle, abs=1e-13)

    @pytest.mark.parametrize("order", BESSEL_ORDERS)
    @pytest.mark.parametrize("z", BESSEL_ARGS)
    def test_matches_direct_series_summation(self, order, z):
        """500-term extended-precision summation, 1e-10 relative on the value."""
        mine = log_bessel_i(order, z).log_magnitude
        oracle = oracles.log_bessel_series_mp(order, z, terms=500)
        assert abs(mine - oracle) <= 1e-10

    @pytest.mark.parametrize("order", BESSEL_ORDERS)
    @pytest.mark.parametrize("z", BESSEL_ARGS)
    def test_three_term_recurrence(self, order, z):
        """I_{v-1}(z) - I_{v+1}(z) = (2v/z) I_v(z), 1e-9 relative."""
        log_mid = log_bessel_i(order, z).log_magnitude
        ratio_lo = math.exp(log_bessel_i(order - 1.0, z).log_magnitude - log_mid)
        ratio_hi = math.exp(log_bessel_i(order + 1.0, z).log_magnitude - log_mid)
        lhs = ratio_lo - ratio_hi
        rhs = 2.0 * order / z
        assert abs(lhs - rhs) <= 1e-9 * rhs

    def test_series_asymptotic_handoff(self):
        """Both evaluation branches agree at the z = 700 switch point."""
        from umpbt.special import _log_bessel_series, _log_bessel_uniform

        z = np.array([700.0])
        for order in (-0.5, 0.0, 1.5, 6.0, 40.0):
            series = float(_log_bessel_series(order, z)[0])
            asymptotic = float(_log_bessel_uniform(abs(order), z)[0])
            assert abs(series - asymptotic) <= 1e-10 * abs(series)

    @pytest.mark.parametrize("order", (-0.5, -0.25, 0.0, 0.5, 1.5, 7.58, 49.3, 59.0))
    def test_series_reduction_matches_scipy_logsumexp(self, order):
        """The in-place reduction equals scipy's logsumexp bit for bit: on
        single elements, on 16,384-element chunks spanning several
        workspace blocks, and on rows with a tied peak (order 0 at z = 2
        has two equal peak terms).  On 500 more single values and the tie,
        the one-value lane equals the blocked path bit for bit."""
        from scipy.special import gammaln, logsumexp

        from umpbt.special import _log_bessel_series, _series_terms_needed

        rng = np.random.default_rng(11)
        tied = np.full(3000, 2.0)
        tied[::7] = rng.uniform(1e-9, 700.0, tied[::7].size)
        inputs = [np.array([z]) for z in (1e-6, 0.5, 2.0, 37.0, 699.9, 700.0)]
        inputs += [rng.uniform(1e-9, 700.0, 16384), rng.gamma(2.0, 40.0, 16384), tied]
        for z in inputs:
            j = np.arange(_series_terms_needed(order, float(z.max())), dtype=float)
            expected = np.empty_like(z)
            # scipy reduces each row on its own; 4096-row slices bound memory
            for start in range(0, z.size, 4096):
                log_half = np.log(z[start:start + 4096] / 2.0)[:, None]
                log_terms = ((order + 2.0 * j) * log_half
                             - gammaln(order + j + 1.0) - gammaln(j + 1.0))
                expected[start:start + 4096] = logsumexp(log_terms, axis=-1)
            actual = _log_bessel_series(order, z)
            assert np.array_equal(actual.view(np.int64), expected.view(np.int64))
        # a single value takes the one-value lane; [z, z] takes the blocked
        # path with the same term count, and both give the same bits
        single = np.append(rng.uniform(1e-9, 700.0, 500), 2.0)
        lane = np.array([_log_bessel_series(order, np.array([z]))[0] for z in single])
        blocked = np.array([_log_bessel_series(order, np.array([z, z]))[0] for z in single])
        assert np.array_equal(lane.view(np.int64), blocked.view(np.int64))

    def test_large_order_uses_uniform_expansion(self):
        """Orders above ~1.16e4 would need more series terms than the budget
        allows; those elements take the uniform expansion instead."""
        mine = log_bessel_i(49999.0, 694.0).log_magnitude
        oracle = oracles.log_bessel_series_mp(49999.0, 694.0, terms=60)
        assert oracle == pytest.approx(-198521.6254769972, rel=1e-15)
        assert abs(mine - oracle) <= 1e-13 * abs(oracle)

    def test_series_budget_split_within_one_array(self):
        """Order 11700 lies above ``_SERIES_ORDER_MAX``, so the uniform
        expansion runs throughout, also at z = 3 and z = 350, whose series
        would fit the term budget: each element equals its scalar value and
        the extended-precision series."""
        z = np.array([3.0, 350.0, 700.0])
        vec = log_bessel_i_array(11700.0, z)
        for zi, vi in zip(z, vec):
            assert vi == log_bessel_i(11700.0, zi).log_magnitude
            oracle = oracles.log_bessel_series_mp(11700.0, zi, terms=200)
            assert abs(vi - oracle) <= 1e-13 * abs(oracle)

    def test_routing_rule_at_the_order_bound(self):
        """``_SERIES_ORDER_MAX`` is the largest order whose series at z = 700
        fits the term budget.  At it every z in (0, 700] takes the series,
        and at the next float above it the uniform expansion, bit for bit,
        as one array and value by value."""
        from umpbt.special import (_SERIES_ORDER_MAX, _SERIES_TERM_CAP, _log_bessel_series,
                                   _log_bessel_uniform, _series_terms_needed)

        above = math.nextafter(_SERIES_ORDER_MAX, math.inf)
        assert (_series_terms_needed(_SERIES_ORDER_MAX, 700.0) <= _SERIES_TERM_CAP
                < _series_terms_needed(above, 700.0))
        z = np.geomspace(1e-3, 700.0, 50)
        for order, branch in ((_SERIES_ORDER_MAX, _log_bessel_series),
                              (above, _log_bessel_uniform)):
            expected = branch(order, z).view(np.int64)
            assert np.array_equal(log_bessel_i_array(order, z).view(np.int64), expected)
            one_by_one = np.concatenate([log_bessel_i_array(order, z[i:i + 1])
                                         for i in range(z.size)])
            assert np.array_equal(one_by_one.view(np.int64), expected)

    def test_large_order_routing_past_c_long(self):
        """At order 30000 every positive z takes the uniform expansion; its
        series term count for z = 1e20 would not fit a C long, and the
        routing must not compute it."""
        z = np.array([0.0, 5.0, 700.0, 1e5, 1e20])
        vec = log_bessel_i_array(30000.0, z)
        assert vec[0] == -np.inf
        for zi, vi in zip(z[1:], vec[1:]):
            assert vi == log_bessel_i(30000.0, zi).log_magnitude
        for zi, vi in zip(z[1:3], vec[1:3]):
            oracle = oracles.log_bessel_series_mp(30000.0, zi, terms=60)
            assert abs(vi - oracle) <= 1e-13 * abs(oracle)
        assert vec[4] == 1e20  # z - log(2 pi z) / 2 rounds to z
        assert log_bessel_i_array(30000.0, np.array(1e20)) == 1e20

    def test_series_table_prefix_matches_fresh_build(self):
        """An order's cached table, first read at a short length and then at
        a longer one or the other way round, equals a fresh arange/gammaln
        build of each length read, and the series values do not depend on
        which length came first."""
        from scipy.special import gammaln

        from umpbt.special import _log_bessel_series, _series_table, _series_terms_needed

        short, long = np.array([0.5, 3.0]), np.array([2.0, 650.0])
        for order in (-0.5, 0.0, 2.0, 59.0):
            seen = {}
            for first, second in ((short, long), (long, short)):
                _series_table.cache_clear()
                for z in (first, second):
                    value = _log_bessel_series(order, z).view(np.int64)
                    assert np.array_equal(seen.setdefault(float(z.max()), value), value)
                    n = _series_terms_needed(order, float(z.max()))
                    j = np.arange(n, dtype=float)
                    fresh = (order + 2.0 * j, gammaln(order + j + 1.0), gammaln(j + 1.0))
                    for column, expected in zip(_series_table(order), fresh):
                        assert np.array_equal(column[:n].view(np.int64),
                                              expected.view(np.int64))
        with pytest.raises(ValueError):
            _series_table(2.0)[0][0] = 0.0  # shared by every caller

    @pytest.mark.parametrize("order", (-0.5, 0.0, 2.0, 11700.0))
    def test_direct_series_path_matches_masked_path(self, order):
        """An array wholly inside the series domain skips the branch masks.
        Inside an array that also holds zeros and arguments above 700, the
        same values come out bit for bit the same, in any order and any
        shape.  Order 11700 lies above ``_SERIES_ORDER_MAX``, where the
        uniform expansion takes every positive argument."""
        rng = np.random.default_rng(5)
        z = rng.uniform(1e-9, 350.0 if order > 1e4 else 700.0, 2000)
        direct = log_bessel_i_array(order, z)
        extra = [0.0, 700.5, 5e4] + ([700.0] if order > 1e4 else [])
        mixed = np.concatenate([z, extra])
        perm = rng.permutation(mixed.size)
        masked = np.empty_like(mixed)
        masked[perm] = log_bessel_i_array(order, mixed[perm])
        assert np.array_equal(masked[:z.size].view(np.int64), direct.view(np.int64))
        shaped = log_bessel_i_array(order, z.reshape(40, 50))
        assert np.array_equal(shaped.view(np.int64), direct.reshape(40, 50).view(np.int64))

    def test_uniform_expansion_beyond_1e77_is_silent(self):
        """kappa**4 overflows above ~1e77; its correction term is 0 there
        either way, so the value is unchanged and no warning escapes.  The
        pinned values are the expansion evaluated with warnings ignored."""
        z = np.array([1e77, 1e150, 1e300])
        expected = [float.fromhex(h) for h in
                    ("0x1.ba2bfd0d5ff5bp+255", "0x1.38d352e5096afp+498",
                     "0x1.7e43c8800759cp+996")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for order in (-0.5, 2.0):
                assert log_bessel_i_array(order, z).tolist() == expected

    def test_large_argument_against_scaled_reference(self):
        from scipy.special import ive

        for order in (-0.5, 0.0, 4.0, 29.0, 59.0):
            for z in (705.0, 1000.0, 2500.0, 20000.0):
                mine = log_bessel_i(order, z).log_magnitude
                ref = math.log(ive(order, z)) + z
                assert abs(mine - ref) <= 1e-12 * abs(ref)

    def test_array_path_matches_scalar(self):
        z = np.array([0.0, 1e-6, 0.5, 3.0, 120.0, 699.0, 1200.0])
        vec = log_bessel_i_array(2.5, z)
        for zi, vi in zip(z, vec):
            assert vi == pytest.approx(log_bessel_i(2.5, zi).log_magnitude,
                                       abs=1e-13, rel=1e-13)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            log_bessel_i(0.0, -1.0)
        with pytest.raises(DomainError):
            log_bessel_i(-1.0, 1.0)
        with pytest.raises(DomainError):
            log_bessel_i(-1.5, 1.0)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                log_bessel_i_array(1.0, np.array([2.0, bad]))

    def test_never_nan(self):
        rng = np.random.default_rng(7)
        orders = rng.uniform(-0.99, 40.0, size=40)
        zs = np.concatenate([[0.0], rng.uniform(0.0, 2000.0, size=40)])
        for order in orders:
            values = log_bessel_i_array(float(order), zs)
            assert not np.any(np.isnan(values))


class TestLogValue:
    def test_explicit_exp(self):
        assert LogValue(0.0).exp() == 1.0

    def test_exp_overflow_detected(self):
        with pytest.raises(OverflowError):
            LogValue(800.0).exp()


class TestLogGamma:
    def test_known_values(self):
        assert log_gamma_fn(1.0) == 0.0
        assert log_gamma_fn(0.5) == pytest.approx(0.5 * math.log(math.pi), abs=1e-13)

    def test_recursion_oracle(self):
        # Gamma(7.3) accumulated from Gamma(0.3) by seven recursion steps
        oracle = oracles.lgamma_by_recursion(7.3, steps=7)
        assert log_gamma_fn(7.3) == pytest.approx(oracle, abs=1e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            log_gamma_fn(0.0)
        with pytest.raises(DomainError):
            log_gamma_fn(-2.0)


class TestChisqCdf:
    def test_lower_tail_empty(self):
        assert chisq_cdf(0.0, 6.0) == 0.0

    def test_df2_exponential_closed_form(self):
        y = 2.0 * math.log(2.0)
        assert chisq_cdf(y, 2.0) == pytest.approx(0.5, abs=1e-12)

    def test_against_quadrature(self):
        for y, df in [(12.592, 6.0), (1.0, 1.0), (30.0, 11.5), (0.4, 0.7)]:
            oracle = oracles.chisq_cdf_by_quadrature(y, df)
            assert chisq_cdf(y, df) == pytest.approx(oracle, abs=1e-9)

    def test_standard_quantile_value(self):
        assert chisq_cdf(12.592, 6.0) == pytest.approx(0.95, abs=1e-4)

    def test_domain(self):
        with pytest.raises(DomainError):
            chisq_cdf(-0.1, 6.0)
        with pytest.raises(DomainError):
            chisq_cdf(1.0, 0.0)


class TestChisqQuantile:
    def test_exponential_median(self):
        assert chisq_quantile(0.5, 2.0) == pytest.approx(2.0 * math.log(2.0), abs=1e-9)

    def test_df6_95th(self):
        value = chisq_quantile(0.95, 6.0)
        assert value == pytest.approx(12.592, abs=1e-3)
        # bisection oracle over the CDF
        lo, hi = 0.0, 100.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if chisq_cdf(mid, 6.0) < 0.95:
                lo = mid
            else:
                hi = mid
        assert value == pytest.approx(0.5 * (lo + hi), abs=1e-8)

    @pytest.mark.parametrize("p", [0.01, 0.5, 0.99])
    @pytest.mark.parametrize("df", [1.0, 6.0, 120.0])
    def test_roundtrip(self, p, df):
        assert abs(chisq_cdf(chisq_quantile(p, df), df) - p) <= 1e-10

    @pytest.mark.parametrize("df", [1e8])
    def test_returns_where_an_ulp_exceeds_the_bisection_width(self, df):
        # above y = 2**26 one ulp exceeds 1e-8, so the bisection stops when
        # its ends are adjacent
        y = chisq_quantile(0.95, df)
        assert y > 2.0**26
        assert abs(chisq_cdf(y, df) - 0.95) <= 1e-10

    def test_domain(self):
        for p in (0.0, 1.0, -0.2, 1.4):
            with pytest.raises(DomainError):
                chisq_quantile(p, 6.0)
        # the bisection-width case past the df bound
        with pytest.raises(DomainError, match=r"df=1000000000.0 must lie in"):
            chisq_quantile(0.95, 1e9)


class TestNoncentralSf:
    def test_central_reduction_is_exact(self):
        from scipy.special import gammaincc

        for y in (0.5, 3.0, 12.592):
            mine = noncentral_chisq_sf(y, NoncentralChiSq(6.0, 0.0))
            assert mine == float(gammaincc(3.0, y / 2.0))

    def test_full_support_at_zero(self):
        assert noncentral_chisq_sf(0.0, NoncentralChiSq(6.0, 7.31)) == 1.0
        assert noncentral_chisq_sf(0.0, NoncentralChiSq(2.0, 0.0)) == 1.0

    def test_against_seeded_monte_carlo(self):
        dist = NoncentralChiSq(6.0, 7.31)
        draws = sample_noncentral_chisq(dist, 10**6, seed=1234)
        empirical = float(np.mean(draws > 12.592))
        assert noncentral_chisq_sf(12.592, dist) == pytest.approx(empirical, abs=0.002)

    def test_monotone_in_y_and_noncentrality(self):
        ys = np.linspace(0.0, 40.0, 20)
        thetas = np.linspace(0.0, 30.0, 20)
        table = np.array(
            [[noncentral_chisq_sf(float(y), NoncentralChiSq(6.0, float(t)))
              for y in ys] for t in thetas]
        )
        assert np.all(np.diff(table, axis=1) <= 1e-12)   # nonincreasing in y
        assert np.all(np.diff(table, axis=0) >= -1e-12)  # nondecreasing in theta

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(df=st.floats(0.2, 200.0), theta_t=st.floats(0.0, 1000.0),
           y=st.floats(0.0, 3000.0), dy=st.floats(0.0, 100.0),
           dtheta=st.floats(0.0, 100.0))
    # the central law's exact reduction against the mixture next to it
    @example(df=6.0, theta_t=0.0, y=12.592, dy=1e-9, dtheta=5e-324)
    def test_monotone_property(self, df, theta_t, y, dy, dtheta):
        """Non-increasing in y and non-decreasing in theta_t, to the 1e-12
        relative of the mpmath oracle.  On 3,000 random pairs no step in y
        went the wrong way; four steps in theta_t did, by 1.2e-16 to 3.6e-14
        relative at dtheta/theta_t <= 6e-11, which is rounding."""
        dist = NoncentralChiSq(df, theta_t)
        sf = noncentral_chisq_sf(y, dist)
        assert noncentral_chisq_sf(y + dy, dist) <= sf * (1.0 + 1e-12)
        shifted = NoncentralChiSq(df, theta_t + dtheta)
        assert noncentral_chisq_sf(y, shifted) >= sf * (1.0 - 1e-12)

    @pytest.mark.parametrize("df,theta", [(1.0, 1.0), (6.0, 7.31), (10.0, 20.0)])
    def test_density_normalization(self, df, theta):
        """Quadrature mass below y_max plus sf(y_max) accounts for everything."""
        y_max = df + theta + 12.0 * math.sqrt(2.0 * (df + 2.0 * theta)) + 20.0
        below = oracles.noncentral_chisq_mass_below(y_max, df, theta)
        above = noncentral_chisq_sf(y_max, NoncentralChiSq(df, theta))
        assert below + above == pytest.approx(1.0, abs=1e-8)

    def test_large_noncentrality_window(self):
        from scipy.stats import ncx2

        value = noncentral_chisq_sf(2100.0, NoncentralChiSq(10.0, 2000.0))
        assert value == pytest.approx(float(ncx2.sf(2100.0, 10.0, 2000.0)), abs=1e-10)

    # (y, df, theta): the terms peak far above the Poisson mode at the first
    @pytest.mark.parametrize("y,df,theta,expected", [
        (1000.0, 6.0, 50.0, 8.724546243853922e-132),
        (400.0, 2.0, 5.0, 2.019367961566072e-70),
        (200.0, 6.0, 7.3, 7.966324281283144e-29),
    ])
    def test_far_tail_points(self, y, df, theta, expected):
        exact = oracles.noncentral_chisq_sf_mp(y, df, theta)
        assert exact == pytest.approx(expected, rel=1e-15)
        value = noncentral_chisq_sf(y, NoncentralChiSq(df, theta))
        assert value == pytest.approx(exact, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("df", [0.5, 6.0, 100.6])
    @pytest.mark.parametrize("theta", [0.01, 7.3, 50.0, 500.0])
    def test_against_mixture_oracle(self, df, theta):
        """Relative 1e-12 from the bulk to the far tail, wherever the value
        exceeds 1e-300."""
        mean, sd = df + theta, math.sqrt(2.0 * (df + 2.0 * theta))
        spreads = (0.0,) if theta == 500.0 else (-2.0, 0.0, 3.0, 10.0, 30.0, 100.0)
        for y in [mean + c * sd for c in spreads if mean + c * sd > 0.0] + [4.0 * mean + 40.0]:
            exact = oracles.noncentral_chisq_sf_mp(y, df, theta)
            if exact > 1e-300:
                value = noncentral_chisq_sf(y, NoncentralChiSq(df, theta))
                assert value == pytest.approx(exact, rel=1e-12, abs=0.0), y

    def test_large_noncentrality_relative_error(self):
        # log k!, k log lam and lam each near 1e4 here; summed directly
        # they lose 1.6e-12 of the weights
        value = noncentral_chisq_sf(4293.38, NoncentralChiSq(0.5, 5000.0))
        exact = oracles.noncentral_chisq_sf_mp(4293.38, 0.5, 5000.0)
        assert value == pytest.approx(exact, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("df,theta", [(0.5, 0.1), (6.0, 3.46), (100.6, 500.0),
                                          (1.0, 1e4)])
    def test_zero_past_the_chernoff_cut(self, df, theta, monkeypatch):
        """Past y = 4 (theta/2 + (df/2 + 1075) log 2) the Chernoff bound at
        t = 1/4 is below 2^-1075, so the value is 0.0 and no Poisson window
        is sized; before the cut the window runs as before."""
        from umpbt import special

        cut = 4.0 * (theta / 2.0 + (df / 2.0 + 1075.0) * math.log(2.0))
        windows = []
        weights = special._log_poisson_weights
        monkeypatch.setattr(special, "_log_poisson_weights",
                            lambda k, lam: windows.append(k.size) or weights(k, lam))
        dist = NoncentralChiSq(df, theta)
        for y in (cut * (1.0 + 1e-12), 1e20, 1e300):
            assert noncentral_chisq_sf(y, dist) == 0.0
        assert windows == []
        # just before the cut the true value is already below 2^-1075
        assert noncentral_chisq_sf(cut * (1.0 - 1e-12), dist) == 0.0
        assert windows

    def test_domain(self):
        with pytest.raises(DomainError):
            noncentral_chisq_sf(-1.0, NoncentralChiSq(6.0, 1.0))
        with pytest.raises(DomainError):
            NoncentralChiSq(0.0, 1.0)
        with pytest.raises(DomainError):
            NoncentralChiSq(6.0, -1.0)
        # beyond 1e8 the Poisson window outgrows memory: 3.8e8 terms at 1e15
        with pytest.raises(DomainError, match=r"\[0, 1e\+08\], got 1e\+15"):
            noncentral_chisq_sf(10.0, NoncentralChiSq(6.0, 1e15))
        assert NoncentralChiSq(6.0, 1e8).noncentrality == 1e8


class TestSampler:
    def test_central_mean(self):
        draws = sample_noncentral_chisq(NoncentralChiSq(6.0, 0.0), 10**5, seed=5)
        assert abs(float(draws.mean()) - 6.0) < 0.15

    def test_noncentral_mean(self):
        draws = sample_noncentral_chisq(NoncentralChiSq(6.0, 7.31), 10**5, seed=5)
        assert abs(float(draws.mean()) - 13.31) < 0.25

    def test_seed_determinism(self):
        a = sample_noncentral_chisq(NoncentralChiSq(3.0, 2.0), 1000, seed=99)
        b = sample_noncentral_chisq(NoncentralChiSq(3.0, 2.0), 1000, seed=99)
        np.testing.assert_array_equal(a, b)

    def test_positive_and_sized(self):
        draws = sample_noncentral_chisq(NoncentralChiSq(0.5, 0.3), 512, seed=1)
        assert draws.shape == (512,)
        assert np.all(draws > 0)

    @pytest.mark.parametrize("df", [0.5, 1.0, 6.0, 100.6])
    def test_central_draws_are_seeded_gammas(self, df):
        # the draws of every theta_t = 0 Monte Carlo row, bit for bit
        for n, seed in ((1, 0), (5, 7), (4096, 2026)):
            draws = sample_noncentral_chisq(NoncentralChiSq(df, 0.0), n, seed)
            assert np.array_equal(draws, np.random.default_rng(seed).gamma(df / 2.0, 2.0, n))

    # df <= 1 takes numpy's Poisson mixture, df > 1 its chi2(df - 1) + (Z + sqrt(nc))^2
    @pytest.mark.parametrize("df", [0.5, 1.0, 1.0001, 6.0, 100.6])
    @pytest.mark.parametrize("theta", [0.3, 7.31, 200.0])
    def test_tail_frequencies_against_survival_function(self, df, theta):
        from scipy.stats import ncx2

        n = 10**5
        dist = NoncentralChiSq(df, theta)
        draws = sample_noncentral_chisq(dist, n, seed=17)
        for q in ncx2.ppf([0.1, 0.5, 0.9], df, theta):
            p = noncentral_chisq_sf(float(q), dist)
            envelope = 5.0 * math.sqrt(p * (1.0 - p) / n)
            assert abs(np.count_nonzero(draws > q) / n - p) <= envelope, q

    def test_domain(self):
        with pytest.raises(DomainError):
            sample_noncentral_chisq(NoncentralChiSq(6.0, 1.0), 0, seed=1)
