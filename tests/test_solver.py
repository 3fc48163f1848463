"""Solver layer: boundaries, alternative derivation, matching, the df curve."""

import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from umpbt import bayes
from umpbt import (
    ChiSqTestSpec,
    DomainError,
    ExpFamilyModel,
    NoncentralChiSq,
    SolverError,
    UmpbtSolution,
    chisq_cdf,
    chisq_quantile,
    expfam_log_bf,
    gamma_vs_df_curve,
    log_bf_ncchisq,
    match_gamma_to_alpha,
    noncentral_chisq_sf,
    rejection_boundary,
    rejection_boundary_grid,
    solve_umpbt_chisq,
    solve_umpbt_expfam,
    solver,
)

# The properties below run where README's Caveats put full precision: df up
# to 1000, where log g rounds to ~1e-12 absolute, gamma from 1.01 (log gamma
# far above that rounding), and sizes up to 0.9 P(chi2_df > df), away from
# the bound where the matched gamma rounds to 1.
_PROPERTY = settings(derandomize=True, database=None, max_examples=60, deadline=None)
_DFS = st.floats(0.5, 1000.0)
_ALPHA_SHARES = st.floats(1e-12, 0.9)  # of P(chi2_df > df), at least 0.3 up to df 1000
# The boundary properties bound their error by log g's rounding itself, so
# they run to df 1e4 and gamma 1e6.
_WIDE_DFS = st.floats(0.5, 1e4)
_GAMMAS = st.floats(1.01, 1e6)
_EPS = 2.0**-52


def _alpha(df, share):
    return share * (1.0 - chisq_cdf(df, df))


class TestRejectionBoundary:
    def test_df1_closed_form_value(self):
        value = rejection_boundary(2.0, 3.0, 1.0)
        assert value == pytest.approx(oracles.nu1_boundary(2.0, 3.0), rel=1e-10)
        assert value == pytest.approx(3.887, abs=1e-3)

    def test_matched_region_critical_value(self):
        assert rejection_boundary(7.31, 3.46, 6.0) == pytest.approx(12.59, abs=0.01)

    @pytest.mark.parametrize("df", [1.0, 2.0, 6.0, 20.0])
    @pytest.mark.parametrize("gamma", [1.5, 3.0, 10.0])
    def test_root_residual(self, df, gamma):
        for theta in (0.2, 2.0, 9.0, 70.0):
            boundary = rejection_boundary(theta, gamma, df)
            residual = log_bf_ncchisq(boundary, theta, df) - math.log(gamma)
            assert abs(residual) <= 1e-9

    @_PROPERTY
    @given(df=_WIDE_DFS, gamma=_GAMMAS,
           thetas=st.lists(st.floats(1e-3, 1e6), min_size=1, max_size=8))
    def test_grid_root_property(self, df, gamma, thetas):
        # every boundary exceeds df: d log g / d theta < (y/df - 1)/2, which
        # is 0 at y = df, and log g -> 0 as theta -> 0, so
        # log g(df, theta) < 0 < log gamma
        boundaries = rejection_boundary_grid(np.array(thetas), gamma, df)
        assert (boundaries > df).all()
        # the residual stays within 8 ulps of log g's terms' magnitudes, the
        # rounding of their sum; 24,000 random roots reached 2.4 ulps
        for theta, y in zip(thetas, boundaries):
            log_g = log_bf_ncchisq(float(y), theta, df)
            terms = [math.lgamma(df / 2.0), -theta / 2.0, (df / 2.0 - 1.0) * math.log(2.0),
                     (1.0 - df / 2.0) * 0.5 * math.log(theta * y)]
            scale = sum(map(abs, terms)) + abs(log_g - sum(terms))  # the last: log I
            assert abs(log_g - math.log(gamma)) <= 8.0 * _EPS * scale

    def test_grid_version_agrees_with_scalar(self):
        thetas = np.geomspace(0.01, 400.0, 40)
        grid = rejection_boundary_grid(thetas, 3.46, 6.0)
        log_gamma = math.log(3.46)
        for theta, bnd in zip(thetas, grid):
            assert abs(log_bf_ncchisq(float(bnd), float(theta), 6.0) - log_gamma) <= 1e-9

    # Alternatives span the scan range 1e-4 .. 10 (df + 2 log gamma); at df
    # 100.6 the top element has z > 700, and every order at df 3e4 takes the
    # uniform expansion.  There the scan top stops at 3e4, since mpmath's
    # series needs seconds per value beyond, and the bound is 1e-10: log g
    # sums terms near 1e5 whose rounding alone moves the root by ~3e-11.
    @pytest.mark.parametrize("df,gamma,theta_max,rel", [
        (0.5, 3.0, 26.97, 1e-13),
        (6.0, 3.46, 84.83, 1e-13),
        (100.6, 87.33, 1095.4, 1e-13),
        (3e4, 3.0, 3e4, 1e-10),
    ])
    def test_grid_against_mpmath_root(self, df, gamma, theta_max, rel):
        thetas = np.geomspace(1e-4, theta_max, 10)
        grid = rejection_boundary_grid(thetas, gamma, df)
        for theta, bnd in zip(thetas, grid):
            exact = oracles.rejection_boundary_mp(float(theta), gamma, df, float(bnd))
            assert bnd == pytest.approx(exact, rel=rel, abs=0.0)
        if df == 100.6:
            assert math.sqrt(thetas[-1] * grid[-1]) > 700.0

    # each grid spans the solve's scan range, 1e-4 .. 10 (df + 2 log gamma)
    @pytest.mark.parametrize("df, gamma", [(0.5, 3.0), (6.0, 3.46), (17.16, 22.53),
                                           (100.6, 87.33)])
    def test_grid_matches_one_element_calls(self, df, gamma):
        thetas = np.geomspace(1e-4, 10.0 * (df + 2.0 * math.log(gamma)), 40)
        grid = rejection_boundary_grid(thetas, gamma, df)
        for theta, bnd in zip(thetas, grid):
            one = rejection_boundary_grid(np.array([theta]), gamma, df)[0]
            assert bnd == pytest.approx(one, rel=1e-15, abs=0.0)

    # the four power_mc strata: theta* and the grid ends theta*/2, 2 theta*
    # as the benchmark's argv print them
    @pytest.mark.parametrize("df, gamma", [(0.5, 1.5), (2.929, 5.814), (17.16, 22.53),
                                           (100.6, 87.33)])
    def test_grid_takes_few_evaluations(self, df, gamma, monkeypatch):
        theta_star = solve_umpbt_chisq(ChiSqTestSpec(df=df, gamma=gamma)).theta_star
        thetas = np.array([float(f"{theta_star / 2:.6g}"), float(f"{theta_star * 2:.6g}"),
                           theta_star])
        calls = []
        core = solver._log_bf_core
        monkeypatch.setattr(solver, "_log_bf_core",
                            lambda y, theta, df: calls.append(1) or core(y, theta, df))
        rejection_boundary_grid(thetas, gamma, df)
        assert 1 <= len(calls) <= 8

    def test_largest_alternative(self):
        # theta r(theta) ~ theta^2 / 4 overflows from theta ~ 2.7e154
        assert rejection_boundary_grid(np.array([1e150]), 3.46, 6.0)[0] == \
            pytest.approx(2.5e149, rel=1e-12)
        for big in (math.nextafter(1e150, math.inf), 1e300):
            message = re.escape(f"theta={big!r} must lie in (0, 1e+150]")
            with pytest.raises(DomainError, match=message):
                rejection_boundary_grid(np.array([2.0, big]), 3.46, 6.0)
            with pytest.raises(DomainError, match=message):
                rejection_boundary(big, 3.46, 6.0)

    def test_smallest_alternative(self):
        # 0F1(; b; x) <= e^(x / b) puts r(theta) above 2 df log gamma / theta,
        # which passes 1e300 below this theta
        smallest = 2.0 * 6.0 * math.log(3.0) / 1e300
        grid = rejection_boundary_grid(np.array([smallest]), 3.0, 6.0)[0]
        assert 1e300 < grid == pytest.approx(rejection_boundary(smallest, 3.0, 6.0), rel=1e-12)
        for small in (math.nextafter(smallest, 0.0), 1e-310, 5e-324):
            message = re.escape(f"theta={small!r} must be at least {smallest:.6g}")
            with pytest.raises(DomainError, match=message):
                rejection_boundary_grid(np.array([2.0, small]), 3.0, 6.0)
            with pytest.raises(DomainError, match=message):
                rejection_boundary(small, 3.0, 6.0)
        # next to gamma = 1, 4 z_up^2 / theta would overflow as brentq's upper end
        smallest = 2.0 * 6.0 * math.log(1.0 + 1e-9) / 1e300
        assert 1e299 < rejection_boundary(smallest, 1.0 + 1e-9, 6.0) < 1.1e300

    def test_scalar_root_evaluates_each_point_once(self, monkeypatch):
        ys = []
        core = solver._log_bf_core
        monkeypatch.setattr(solver, "_log_bf_core",
                            lambda y, theta, df: ys.append(float(y)) or core(y, theta, df))
        rejection_boundary(7.31, 3.46, 6.0)
        assert len(ys) == len(set(ys)) > 2

    def test_scalar_root_grows_a_short_upper_end(self, monkeypatch):
        # log g lowered by 60 puts the root far above the closed-form end
        core = solver._log_bf_core
        monkeypatch.setattr(solver, "_log_bf_core",
                            lambda y, theta, df: core(y, theta, df) - 60.0)
        boundary = rejection_boundary(2.0, 3.0, 6.0)
        residual = float(core(np.array([boundary]), np.array([2.0]), 6.0)[0]) - 60.0
        assert residual == pytest.approx(math.log(3.0), rel=1e-12)
        assert boundary > 4.0 * (1.0 + math.log(3.0) + 6.0 + 12.0) ** 2 / 2.0

    def test_scalar_root_end_stops_at_the_largest_double(self, monkeypatch):
        # log g above log gamma everywhere: the end grows to the largest
        # double, never to inf, and the failure names theta, gamma and df
        ys = []
        monkeypatch.setattr(solver, "_log_bf_core",
                            lambda y, theta, df: ys.append(y) or 1e3 + y * 0.0)
        with pytest.raises(SolverError, match=r"^no rejection boundary for theta=2\.0, "
                                              r"gamma=3\.0, df=6\.0: "):
            rejection_boundary(2.0, 3.0, 6.0)
        assert max(ys) == np.finfo(float).max

    def test_grid_equal_alternatives_give_equal_bits(self):
        # dominance_check's zero self-margin relies on this
        thetas = np.array([7.31, 0.02, 7.31, 300.0, 7.31, 1.5])
        grid = rejection_boundary_grid(thetas, 3.46, 6.0)
        assert grid[0] == grid[2] == grid[4]

    @pytest.mark.xfail(strict=True, reason=(
        "the Bessel series is sized from the largest z of the live array, so a "
        "boundary moves by a few ulps with its neighbours; ROADMAP Direction 3's "
        "fixed-count kernel removes that dependence"))
    def test_grid_bits_do_not_depend_on_neighbours(self):
        gamma, theta = 127.10853761050157, 491.0111823756096
        alone = rejection_boundary_grid(np.array([theta]), gamma, 20.0)[0]
        beside = rejection_boundary_grid(np.array([theta, 1000.0]), gamma, 20.0)[0]
        assert alone == beside  # 166.71060481049847 alone, ...835 beside theta 1000

    def test_grid_empty(self):
        for empty in (np.array([]), np.empty((0, 3))):
            out = rejection_boundary_grid(empty, 3.0, 6.0)
            assert out.shape == empty.shape and out.dtype == float
        with pytest.raises(DomainError):
            rejection_boundary_grid(np.array([]), 1.0, 6.0)
        with pytest.raises(DomainError):
            rejection_boundary_grid(np.array([]), 3.0, 0.0)

    def test_grid_domain_errors(self):
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                rejection_boundary_grid(np.array([2.0, bad]), 3.0, 6.0)

    def test_grid_reports_unconverged_root(self, monkeypatch):
        from umpbt import solver

        core = solver._log_bf_core
        monkeypatch.setattr(solver, "_log_bf_core", lambda y, theta, df: np.where(
            theta == 2.0, math.nan, core(y, theta, df)))
        with pytest.raises(SolverError, match=r"gamma=3\.0, df=6\.0"):
            rejection_boundary_grid(np.array([1.0, 2.0]), 3.0, 6.0)

    def test_threshold_at_or_below_one_has_no_upper_region(self):
        # outside the domain: a domain error (exit 1), not a solver failure
        with pytest.raises(DomainError):
            rejection_boundary(2.0, 1.0, 6.0)
        with pytest.raises(DomainError):
            rejection_boundary(2.0, 0.7, 6.0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            rejection_boundary(0.0, 3.0, 6.0)
        with pytest.raises(DomainError):
            rejection_boundary(2.0, -1.0, 6.0)
        with pytest.raises(DomainError):
            rejection_boundary(2.0, 3.0, 0.0)


class TestSolveChiSq:
    def test_df6_worked_example(self):
        sol = solve_umpbt_chisq(ChiSqTestSpec(df=6.0, gamma=3.46))
        assert sol.theta_star == pytest.approx(7.31, abs=0.01)
        assert sol.direction == 1
        assert sol.df == 6.0
        assert sol.alpha is None

    def test_df1_against_closed_form_minimizer(self):
        sol = solve_umpbt_chisq(ChiSqTestSpec(df=1.0, gamma=3.0))
        oracle = oracles.nu1_theta_star(3.0)
        assert sol.theta_star == pytest.approx(oracle, abs=1e-5)
        assert sol.boundary == pytest.approx(oracles.nu1_boundary(oracle, 3.0),
                                             abs=1e-8)

    def test_df10_against_dense_grid_scan(self):
        gamma, df = 5.0, 10.0
        sol = solve_umpbt_chisq(ChiSqTestSpec(df=df, gamma=gamma))
        grid = np.geomspace(1e-4, 10.0 * (df + 2.0 * math.log(gamma)), 2000)
        values = rejection_boundary_grid(grid, gamma, df)
        i = int(np.argmin(values))
        spacing = grid[min(i + 1, len(grid) - 1)] - grid[i]
        assert abs(sol.theta_star - grid[i]) <= spacing
        assert sol.boundary <= values[i] + 1e-10

    def test_solution_root_invariant(self):
        for df, gamma in [(1.0, 3.0), (2.0, 2.0), (6.0, 3.46), (12.0, 8.0)]:
            sol = solve_umpbt_chisq(ChiSqTestSpec(df=df, gamma=gamma))
            assert abs(log_bf_ncchisq(sol.boundary, sol.theta_star, df)
                       - math.log(gamma)) <= 1e-9

    def test_coverage_nesting_on_verification_grid(self):
        """The derived region contains every other alternative's region."""
        for df, gamma in [(1.0, 3.0), (6.0, 3.46)]:
            sol = solve_umpbt_chisq(ChiSqTestSpec(df=df, gamma=gamma))
            grid = np.geomspace(sol.theta_star / 100.0, sol.theta_star * 100.0, 200)
            r_values = rejection_boundary_grid(grid, gamma, df)
            assert float((sol.boundary - r_values).max()) <= 1e-8

    def test_matched_boundary_monotone_in_gamma(self):
        """min_theta r(theta; gamma) strictly increases with the threshold."""
        for df in (1.0, 6.0, 20.0):
            minima = [solve_umpbt_chisq(ChiSqTestSpec(df=df, gamma=g)).boundary
                      for g in (1.5, 2.0, 3.0, 5.0, 10.0)]
            assert np.all(np.diff(minima) > 0)

    def test_requires_gamma(self):
        with pytest.raises(DomainError):
            solve_umpbt_chisq(ChiSqTestSpec(df=6.0, alpha=0.05))

    @_PROPERTY
    @given(df=_DFS, gamma=st.floats(1.01, 1e6),
           offsets=st.lists(st.floats(-0.5, 0.5), min_size=1, max_size=8))
    def test_boundary_is_least_at_theta_star_property(self, df, gamma, offsets):
        # r(theta) >= r(theta*), both from one grid call; log g's rounding
        # (1e-12 absolute at df 1000) let nearby theta undercut r(theta*) by
        # up to 1.8e-13 relative on a 625-point (df, gamma) scan, at the
        # exact root as at the golden section's theta*
        theta_star = solve_umpbt_chisq(ChiSqTestSpec(df=df, gamma=gamma)).theta_star
        r = rejection_boundary_grid(theta_star * (1.0 + np.array([0.0, *offsets])), gamma, df)
        assert r[1:].min() >= r[0] * (1.0 - 1e-12)

    @_PROPERTY
    @given(df=_WIDE_DFS, gamma=_GAMMAS)
    def test_first_order_condition_property(self, df, gamma):
        # theta* boundary = z^2 with boundary R(z) = z, the first-order
        # condition; r(theta) is flat at theta*, so the golden section,
        # comparing boundaries that carry brentq's 1e-13 rounding, fixes
        # theta* to ~sqrt(1e-13 / r) relative; 3,000 random solves left
        # residuals up to 5.3e-8
        sol = solve_umpbt_chisq(ChiSqTestSpec(df=df, gamma=gamma))
        z = math.sqrt(sol.theta_star * sol.boundary)
        ratio = float(bayes._bessel_ratio(z, df))
        assert sol.boundary * ratio == pytest.approx(z, rel=2e-7)


class TestMatchGammaToAlpha:
    def test_df6_alpha_05(self):
        sol = match_gamma_to_alpha(ChiSqTestSpec(df=6.0, alpha=0.05))
        assert sol.gamma == pytest.approx(3.46, abs=0.01)
        assert sol.theta_star == pytest.approx(7.31, abs=0.01)
        assert sol.boundary == pytest.approx(chisq_quantile(0.95, 6.0), abs=1e-12)
        assert sol.alpha == 0.05

    def test_df120_exact_threshold(self):
        # Exact maximization gives 3.672311 here, confirmed independently by
        # 40-digit arithmetic; the often-quoted 3.67 ceiling holds only
        # through df = 116.
        sol = match_gamma_to_alpha(ChiSqTestSpec(df=120.0, alpha=0.05))
        assert sol.gamma == pytest.approx(3.672311, abs=2e-4)

    def test_size_identity(self):
        for df in (1.0, 6.0, 20.0):
            for alpha in (0.05, 0.01):
                sol = match_gamma_to_alpha(ChiSqTestSpec(df=df, alpha=alpha))
                size = noncentral_chisq_sf(sol.boundary, NoncentralChiSq(df, 0.0))
                assert abs(size - alpha) <= 1e-6

    @_PROPERTY
    @given(df=_DFS, share=_ALPHA_SHARES)
    def test_size_property(self, df, share):
        # chisq_quantile stops at a CDF residual of 1e-12, which bounds the
        # size's error; 2,300 random (df, alpha) reached 9.99e-13
        alpha = _alpha(df, share)
        sol = match_gamma_to_alpha(ChiSqTestSpec(df=df, alpha=alpha))
        size = noncentral_chisq_sf(sol.boundary, NoncentralChiSq(df, 0.0))
        assert abs(size - alpha) <= 1e-12 + 2.0**-52

    @_PROPERTY
    @given(df=_DFS, shares=st.tuples(_ALPHA_SHARES, _ALPHA_SHARES))
    def test_gamma_monotone_in_alpha_property(self, df, shares):
        # the quantile resolves 1 - alpha only to a CDF residual of 1e-12, so
        # sizes closer than 2e-12 can invert their critical values and gamma:
        # by up to 2.3e-13 relative over 9,100 close pairs (CHANGES FOUND);
        # 4,800 pairs at least 2e-12 apart inverted none
        lo, hi = sorted(_alpha(df, share) for share in shares)
        gamma_lo, gamma_hi = (match_gamma_to_alpha(ChiSqTestSpec(df=df, alpha=a)).gamma
                              for a in (lo, hi))
        assert gamma_hi <= gamma_lo * (1.0 + 1e-12)

    @_PROPERTY
    @given(df=_DFS, eps=st.floats(1e-3, 0.5))
    def test_near_null_threshold_property(self, df, eps):
        # log gamma = (y - df)^2 (df + 2) / (4 y^2) (1 + c1 e + O(e^2)) at
        # e = y/df - 1, where the x^3 term of log 0F1(; df/2; x) gives
        # c1 = (4/3)(df + 2)/(df + 4); the e^2 coefficient reached 0.174
        # over a 41 x 31 grid of (df, e).  Above df 1000 log g's rounding outgrows
        # log gamma next to 1 (CHANGES FOUND, open).
        alpha = noncentral_chisq_sf(df * (1.0 + eps), NoncentralChiSq(df, 0.0))
        assume(alpha > 2.0**-54)  # the match's own floor (test_alpha_below_the_floor)
        sol = match_gamma_to_alpha(ChiSqTestSpec(df=df, alpha=alpha))
        y, e = sol.boundary, sol.boundary / df - 1.0
        ratio = math.log(sol.gamma) / ((y - df) ** 2 * (df + 2.0) / (4.0 * y * y))
        assert abs(ratio - 1.0 - 4.0 / 3.0 * (df + 2.0) / (df + 4.0) * e) <= 0.2 * e * e

    def test_consistency_with_direct_solve(self):
        """Re-deriving the alternative at the matched threshold lands on the
        same boundary, confirming min_theta r(theta; gamma*) = y_alpha."""
        for df in (2.0, 6.0, 20.0):
            matched = match_gamma_to_alpha(ChiSqTestSpec(df=df, alpha=0.05))
            direct = solve_umpbt_chisq(ChiSqTestSpec(df=df, gamma=matched.gamma))
            assert abs(direct.boundary - matched.boundary) <= 1e-8
            assert direct.theta_star == pytest.approx(matched.theta_star, rel=1e-4)

    def test_unattainable_alpha(self):
        # the 10% lower quantile sits below the null mean: no threshold above 1
        with pytest.raises(DomainError, match=r"P\(chi2_df > df\) = 0\.4232"):
            match_gamma_to_alpha(ChiSqTestSpec(df=6.0, alpha=0.9))

    def test_alpha_below_the_floor(self):
        # 1 - alpha rounds to 1 at and below 2**-54
        for alpha in (1e-300, 2.0**-54):
            with pytest.raises(DomainError, match=r"alpha=.* must exceed 2\*\*-54"):
                match_gamma_to_alpha(ChiSqTestSpec(df=6.0, alpha=alpha))
        assert match_gamma_to_alpha(ChiSqTestSpec(df=6.0, alpha=2.0**-53)).gamma > 1.0

    def test_requires_alpha(self):
        with pytest.raises(DomainError):
            match_gamma_to_alpha(ChiSqTestSpec(df=6.0, gamma=3.0))


class TestMatchedThresholdReuse:
    """The theta-maximization of a match is solved once per (y_alpha, df)
    and Bayes-factor evaluator."""

    @pytest.mark.parametrize("df", [0.5, 1.0, 6.0, 120.0, 1e5])
    def test_repeat_returns_fresh_bits(self, df):
        spec = ChiSqTestSpec(df=df, alpha=0.05)
        first, repeat = match_gamma_to_alpha(spec), match_gamma_to_alpha(spec)
        solver._matched_maximum.cache_clear()
        fresh = match_gamma_to_alpha(spec)
        assert repeat == fresh and first == fresh
        assert solver._matched_maximum.cache_info().currsize == 1

    def test_repeat_reads_quantile_but_solves_nothing(self, monkeypatch):
        calls = {"core": 0, "quantile": 0}
        core, quantile = solver._log_bf_core, solver.chisq_quantile

        def counting_core(*args):
            calls["core"] += 1
            return core(*args)

        def counting_quantile(*args):
            calls["quantile"] += 1
            return quantile(*args)

        monkeypatch.setattr(solver, "_log_bf_core", counting_core)
        monkeypatch.setattr(solver, "chisq_quantile", counting_quantile)
        spec = ChiSqTestSpec(df=6.0, alpha=0.05)
        match_gamma_to_alpha(spec)
        assert calls["core"] > 0 and calls["quantile"] == 1
        calls.update(core=0, quantile=0)
        match_gamma_to_alpha(spec)
        assert calls == {"core": 0, "quantile": 1}

    def test_failures_are_not_stored(self, monkeypatch):
        monkeypatch.setattr(solver, "_log_bf_core", lambda y, theta, df: np.full_like(
            theta, math.nan))
        spec = ChiSqTestSpec(df=6.0, alpha=0.05)
        for _ in range(2):
            with pytest.raises(SolverError, match=r"alpha=0\.05, df=6\.0"):
                match_gamma_to_alpha(spec)
        assert solver._matched_maximum.cache_info().currsize == 0

    def test_rebound_evaluator_solves_afresh(self, monkeypatch):
        spec = ChiSqTestSpec(df=6.0, alpha=0.05)
        before = match_gamma_to_alpha(spec)
        calls = []
        core = solver._log_bf_core

        def counting_core(*args):
            calls.append(1)
            return core(*args)

        monkeypatch.setattr(solver, "_log_bf_core", counting_core)
        assert match_gamma_to_alpha(spec) == before and calls
        assert solver._matched_maximum.cache_info().currsize == 2

    def test_oldest_pairs_are_evicted(self):
        cached = solver._matched_maximum
        bound = cached.cache_info().maxsize
        ys = [7.0 + 0.05 * k for k in range(bound + 2)]
        for y in ys:
            cached(y, 6.0, solver._log_bf_core)
        assert cached.cache_info().currsize == bound
        misses = cached.cache_info().misses
        cached(ys[-1], 6.0, solver._log_bf_core)
        assert cached.cache_info().misses == misses
        cached(ys[0], 6.0, solver._log_bf_core)
        assert cached.cache_info().misses == misses + 1


def _counting_grid(monkeypatch):
    calls = []
    grid = solver.rejection_boundary_grid

    def counting_grid(*args):
        calls.append(1)
        return grid(*args)

    monkeypatch.setattr(solver, "rejection_boundary_grid", counting_grid)
    return calls


class TestZRootPlacement:
    """The z-root of the first-order condition places the golden section on
    the cell of the 200-point grid that a whole-grid scan picked, so the
    golden-section bits stay; where four values cannot settle that cell,
    the root itself is returned."""

    # bits recorded while the scan still ran: the four power_mc strata and
    # a large df
    @pytest.mark.parametrize("df, gamma, theta_star, boundary", [
        (0.5, 1.5, 1.7186322351276266, 1.2082734948119405),
        (2.929, 5.814, 7.029226138635284, 9.096203043561522),
        (17.16, 22.53, 19.12259576791591, 35.588812039412545),
        (100.6, 87.33, 48.716082440001394, 148.82477800138787),
        (1e5, 3.46, 706.2902296155528, 100706.2818197119),
    ])
    def test_solve_keeps_the_golden_section_bits(self, df, gamma, theta_star, boundary):
        sol = solve_umpbt_chisq(ChiSqTestSpec(df=df, gamma=gamma))
        assert (sol.theta_star, sol.boundary) == (theta_star, boundary)

    # df < 2, where y_alpha is no upper bracket of the match root
    @pytest.mark.parametrize("df, alpha, gamma, theta_star", [
        (0.05, 0.05, 1.6319561278993737, 1.4434308874306558),
        (0.05, 0.001, 133.7619802649803, 5.430209815212604),
        (0.552, 0.05, 3.3925965596642276, 3.1444882401266185),
        (0.552, 0.001, 115.35762722197877, 9.486993264903676),
    ])
    def test_match_keeps_the_golden_section_bits(self, df, alpha, gamma, theta_star):
        sol = match_gamma_to_alpha(ChiSqTestSpec(df=df, alpha=alpha))
        assert (sol.gamma, sol.theta_star) == (gamma, theta_star)

    @pytest.mark.parametrize("df, gamma", [(0.5, 1.5), (6.0, 3.46), (100.6, 87.33)])
    def test_placed_solve_skips_the_scan(self, df, gamma, monkeypatch):
        calls = _counting_grid(monkeypatch)
        solve_umpbt_chisq(ChiSqTestSpec(df=df, gamma=gamma))
        assert calls == []

    @pytest.mark.parametrize("df, gamma", [(0.5, 1.5), (1.0, 3.0), (6.0, 3.46),
                                           (17.16, 22.53), (100.6, 87.33)])
    def test_root_meets_the_first_order_condition(self, df, gamma):
        from scipy.special import ive

        theta = solver._theta_star_z_root(gamma, df)
        y = rejection_boundary(theta, gamma, df)
        z = math.sqrt(theta * y)
        assert y * ive(df / 2.0, z) / ive(df / 2.0 - 1.0, z) == pytest.approx(z, rel=1e-11)
        # the golden section stops within its bracket of 1e-8 (1 + theta)
        golden = solve_umpbt_chisq(ChiSqTestSpec(df=df, gamma=gamma)).theta_star
        assert theta == pytest.approx(golden, rel=1e-6)

    def test_df1_root_against_closed_form(self):
        assert solver._theta_star_z_root(3.0, 1.0) == pytest.approx(
            oracles.nu1_theta_star(3.0), rel=1e-7)

    def test_unconverged_scan_still_names_the_pair(self, monkeypatch):
        # the non-converging evaluator of test_grid_reports_unconverged_root,
        # here NaN at every alternative above theta = 1
        core = solver._log_bf_core
        monkeypatch.setattr(solver, "_log_bf_core", lambda y, theta, df: np.where(
            theta > 1.0, math.nan, core(y, theta, df)))
        with pytest.raises(SolverError, match=r"gamma=3\.0, df=6\.0"):
            solver._theta_star_z_root(3.0, 6.0)
        with pytest.raises(SolverError, match=r"gamma=3\.0, df=6\.0"):
            solve_umpbt_chisq(ChiSqTestSpec(df=6.0, gamma=3.0))

    @pytest.mark.parametrize("df, alpha", [(0.05, 0.05), (1.0, 0.01), (6.0, 0.05),
                                           (120.0, 0.001)])
    def test_match_root_against_mpmath(self, df, alpha):
        y_alpha = chisq_quantile(1.0 - alpha, df)
        theta = solver._matched_z_root(y_alpha, df)
        exact = oracles.matched_theta_star_mp(y_alpha, df, math.sqrt(theta * y_alpha))
        assert theta == pytest.approx(exact, rel=1e-12, abs=0.0)

    def test_near_bound_alpha_returns_the_root(self):
        """alpha 0.42319 lies 2e-7 relative below P(chi2_6 > 6): log gamma is
        3e-14, too flat for four grid values to settle a cell, so the root
        itself comes out, limited by the rounding of log R where y_alpha - df
        is 7e-7."""
        sol = match_gamma_to_alpha(ChiSqTestSpec(df=6.0, alpha=0.42319))
        exact = oracles.matched_theta_star_mp(sol.boundary, 6.0,
                                              math.sqrt(sol.theta_star * sol.boundary))
        assert sol.theta_star == pytest.approx(exact, rel=1e-7, abs=0.0)
        assert sol.gamma > 1.0

    @pytest.mark.parametrize("df, gamma", [(1e-9, 1.0 + 1e-8), (1e-7, 1.0 + 1e-10),
                                           (3.162277660168379e-06, 1.0 + 1e-13)])
    def test_zero_slope_warns_nothing(self, df, gamma):
        """Next to gamma = 1 at small df, theta*'s slope (R - z R') / 2 cancels
        to 0 and the step to inf, which the bracket turns into bisection; it
        raised a divide-by-zero RuntimeWarning.  log g's rounding there
        (README Caveats) may leave no root, a solver failure."""
        try:
            solve_umpbt_chisq(ChiSqTestSpec(df=df, gamma=gamma))
        except SolverError:
            pass


class TestSolveExpFamily:
    def test_normal_mean_closed_form(self):
        model = ExpFamilyModel(kind="normal-mean-known-variance", theta0=0.0, n=5,
                               side="greater", nuisance=1.0)
        sol = solve_umpbt_expfam(model, 3.0)
        assert sol.theta_star == pytest.approx(math.sqrt(2.0 * math.log(3.0) / 5.0),
                                               abs=1e-6)
        assert sol.direction == 1
        assert sol.df is None

    def test_normal_mean_lower_side_symmetry(self):
        model = ExpFamilyModel(kind="normal-mean-known-variance", theta0=0.0, n=5,
                               side="less", nuisance=1.0)
        sol = solve_umpbt_expfam(model, 3.0)
        assert sol.theta_star == pytest.approx(-math.sqrt(2.0 * math.log(3.0) / 5.0),
                                               abs=1e-6)
        assert sol.direction == -1

    def test_normal_mean_random_draws_match_closed_form(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            n = int(rng.integers(1, 41))
            gamma = float(rng.uniform(1.05, 30.0))
            side = "greater" if rng.random() < 0.5 else "less"
            model = ExpFamilyModel(kind="normal-mean-known-variance", theta0=0.0,
                                   n=n, side=side, nuisance=1.0)
            sol = solve_umpbt_expfam(model, gamma)
            oracle = oracles.normal_mean_theta_star(0.0, 1.0, n, gamma, side)
            assert sol.theta_star == pytest.approx(oracle, abs=1e-6)

    def test_binomial_against_dense_grid(self):
        model = ExpFamilyModel(kind="binomial-proportion", theta0=0.5, n=20,
                               side="greater", nuisance=1.0)
        sol = solve_umpbt_expfam(model, 3.0)
        grid = np.linspace(0.5 + 1e-7, 1.0 - 1e-9, 100_000)
        differences = [model.differences_from_null(float(t)) for t in grid]
        objective = [(math.log(3.0) + 20.0 * d_a) / d_eta for d_eta, d_a in differences]
        i = int(np.argmin(objective))
        spacing = grid[1] - grid[0]
        assert abs(sol.theta_star - grid[i]) <= spacing

    def test_boundary_root_invariant(self):
        model = ExpFamilyModel(kind="normal-variance-known-mean", theta0=1.0, n=6,
                               side="greater", nuisance=0.0)
        sol = solve_umpbt_expfam(model, 4.0)
        assert abs(expfam_log_bf(sol.boundary, sol.theta_star, model)
                   - math.log(4.0)) <= 1e-10

    def test_threshold_validation(self):
        model = ExpFamilyModel(kind="normal-mean-known-variance", theta0=0.0, n=2,
                               side="greater", nuisance=1.0)
        with pytest.raises(DomainError):
            solve_umpbt_expfam(model, 1.0)

    def test_normal_mean_exact_closed_form(self):
        for side, sign in (("greater", 1.0), ("less", -1.0)):
            model = ExpFamilyModel(kind="normal-mean-known-variance", theta0=0.0,
                                   n=5, side=side, nuisance=1.0)
            sol = solve_umpbt_expfam(model, 3.0)
            assert sol.theta_star == pytest.approx(sign * 0.6629064153161,
                                                   rel=1e-12, abs=0.0)
        rng = np.random.default_rng(5)
        for _ in range(20):
            theta0 = float(rng.normal(0.0, 3.0))
            sigma2 = float(np.exp(rng.uniform(-3.0, 3.0)))
            n = int(rng.integers(1, 60))
            gamma = float(np.exp(rng.uniform(0.01, 6.0)))
            side = "greater" if rng.random() < 0.5 else "less"
            model = ExpFamilyModel(kind="normal-mean-known-variance", theta0=theta0,
                                   n=n, side=side, nuisance=sigma2)
            oracle = oracles.normal_mean_theta_star(theta0, sigma2, n, gamma, side)
            assert solve_umpbt_expfam(model, gamma).theta_star == pytest.approx(
                oracle, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("side", ["greater", "less"])
    @pytest.mark.parametrize("theta0,n,gamma", [(1.0, 6, 4.0), (2.0, 7, 1.05),
                                                (0.3, 1, 40.0), (5.0, 30, 1e3)])
    def test_normal_variance_against_mpmath_root(self, side, theta0, n, gamma):
        model = ExpFamilyModel(kind="normal-variance-known-mean", theta0=theta0, n=n,
                               side=side, nuisance=0.0)
        oracle = oracles.normal_variance_theta_star_mp(theta0, n, gamma, side)
        assert solve_umpbt_expfam(model, gamma).theta_star == pytest.approx(
            oracle, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("side", ["greater", "less"])
    @pytest.mark.parametrize("theta0,trials,n,gamma", [(0.5, 1, 20, 3.0),
                                                       (0.3, 2, 9, 20.0),
                                                       (0.05, 1, 200, 1.5),
                                                       (0.9, 3, 4, 1.2)])
    def test_binomial_against_mpmath_root(self, side, theta0, trials, n, gamma):
        model = ExpFamilyModel(kind="binomial-proportion", theta0=theta0, n=n,
                               side=side, nuisance=float(trials))
        oracle = oracles.binomial_theta_star_mp(theta0, trials, n, gamma, side)
        assert solve_umpbt_expfam(model, gamma).theta_star == pytest.approx(
            oracle, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("side", ["greater", "less"])
    @pytest.mark.parametrize("n", [10**6, 10**9, 10**12, 10**15])
    def test_binomial_root_next_to_theta0(self, side, n):
        """theta* - theta0 ~ 6.5e-12 at n 1e15: KL ~ (theta - theta0)^2 is formed
        from that difference, so theta* stays within 4 ulps of the root."""
        model = ExpFamilyModel(kind="binomial-proportion", theta0=0.3, n=n, side=side,
                               nuisance=1.0)
        oracle = oracles.binomial_theta_star_mp(0.3, 1, n, 1.0000001, side)
        theta_star = solve_umpbt_expfam(model, 1.0000001).theta_star
        assert abs(theta_star - oracle) <= 4 * math.ulp(oracle)

    @pytest.mark.parametrize("side, theta_star", [("less", 0.2999999999935193),
                                                  ("greater", 0.30000000000648075)])
    def test_binomial_theta_star_at_large_n(self, side, theta_star):
        # these inputs were a near-theta0 domain error while KL rounded theta / theta0
        model = ExpFamilyModel(kind="binomial-proportion", theta0=0.3, n=10**15,
                               side=side, nuisance=1.0)
        assert solve_umpbt_expfam(model, 1.0000001).theta_star == theta_star

    @pytest.mark.parametrize("side", ["greater", "less"])
    def test_binomial_threshold_beyond_edge_bound(self, side):
        """n KL tends to log 2 at either edge for theta0 = 1/2, n m = 1, so no
        alternative reaches gamma = 100: the bound is gamma < 2."""
        model = ExpFamilyModel(kind="binomial-proportion", theta0=0.5, n=1,
                               side=side, nuisance=1.0)
        with pytest.raises(DomainError, match=r"gamma must stay below 2\b"):
            solve_umpbt_expfam(model, 100.0)

    def test_normal_variance_root_next_to_edge(self):
        model = ExpFamilyModel(kind="normal-variance-known-mean", theta0=1.0, n=1,
                               side="less", nuisance=0.0)
        sol = solve_umpbt_expfam(model, 1e5)
        oracle = oracles.normal_variance_theta_star_mp(1.0, 1, 1e5, "less")
        assert sol.theta_star == pytest.approx(oracle, rel=1e-12, abs=0.0)
        assert sol.theta_star == pytest.approx(3.6788e-11, rel=1e-4)
        assert sol.boundary > 0.0
        # deeper still: log r = r - 1 - 2 log(gamma) / n and e^r rounds to 1
        deep = solve_umpbt_expfam(model, 1e150)
        assert deep.theta_star == pytest.approx(math.exp(-1.0) * 1e-300,
                                                rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("kind, theta0, side, nuisance", [
        ("normal-variance-known-mean", 1.0, "less", None),
        ("normal-mean-known-variance", 0.0, "greater", 1e308),
    ])
    def test_theta_star_beyond_double_precision(self, kind, theta0, side, nuisance):
        model = ExpFamilyModel(kind=kind, theta0=theta0, n=1, side=side, nuisance=nuisance)
        with pytest.raises(DomainError, match=(
                rf"^theta\* for gamma=1e\+300 lies beyond what double precision "
                rf"resolves on the '{side}' side of theta0={theta0}$")):
            solve_umpbt_expfam(model, 1e300)

    def test_boundary_free_of_cancellation_near_theta0(self):
        """theta* sits 9e-11 below theta0 = 3: the boundary must be n theta*,
        below n theta0, not a difference of nearly equal A and eta values."""
        model = ExpFamilyModel(kind="normal-mean-known-variance", theta0=3.0, n=1,
                               side="less", nuisance=1e-20)
        sol = solve_umpbt_expfam(model, 1.5)
        exact = 3.0 - math.sqrt(2e-20 * math.log(1.5))
        assert sol.theta_star == pytest.approx(exact, rel=1e-15, abs=0.0)
        assert sol.boundary == pytest.approx(exact, rel=1e-15, abs=0.0)
        assert sol.boundary < 3.0


class TestGammaVsDfCurve:
    def test_consistency_with_match(self):
        # each point is the match's own solution, alpha included
        points = gamma_vs_df_curve([0.05], 8)
        assert all(isinstance(p, UmpbtSolution) for p in points)
        at6 = [p for p in points if p.df == 6.0][0]
        assert at6 == match_gamma_to_alpha(ChiSqTestSpec(df=6.0, alpha=0.05))
        assert at6.alpha == 0.05

    def test_stricter_size_needs_larger_threshold(self):
        points = gamma_vs_df_curve([0.05, 0.01], 30)
        by_df = {}
        for p in points:
            by_df.setdefault(p.df, {})[p.alpha] = p.gamma
        for df, gammas in by_df.items():
            assert gammas[0.01] > gammas[0.05]

    def test_deterministic_order(self):
        points = gamma_vs_df_curve([0.05, 0.01], 3)
        keys = [(p.df, p.alpha) for p in points]
        assert keys == [(1.0, 0.05), (1.0, 0.01), (2.0, 0.05), (2.0, 0.01),
                        (3.0, 0.05), (3.0, 0.01)]

    def test_failure_carries_offending_pair(self):
        with pytest.raises(DomainError, match=r"df=1, alpha=0.9"):
            gamma_vs_df_curve([0.9], 2)

    @pytest.mark.parametrize("df_max", [10**8 + 1, 0, -3, math.nan, math.inf])
    def test_df_max_outside_the_df_rule_fails_before_any_match(self, monkeypatch, df_max):
        def match(spec):
            raise AssertionError("matched before validating")

        monkeypatch.setattr(solver, "match_gamma_to_alpha", match)
        with pytest.raises(DomainError,
                           match=r"^degrees of freedom df=.* must lie in \[1e-10, 1e8\]$"):
            gamma_vs_df_curve([0.05], df_max)

    def test_validation(self):
        with pytest.raises(DomainError):
            gamma_vs_df_curve([], 5)
        with pytest.raises(DomainError):
            gamma_vs_df_curve([0.05], 0)
        with pytest.raises(DomainError):
            gamma_vs_df_curve([1.2], 5)
