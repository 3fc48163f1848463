"""Solver layer: boundaries, alternative derivation, matching, the df curve."""

import math

import numpy as np
import pytest

import oracles
from umpbt import (
    ChiSqTestSpec,
    CurvePoint,
    DomainError,
    ExpFamilyModel,
    NoRootError,
    NoncentralChiSq,
    chisq_quantile,
    expfam_boundary,
    expfam_log_bf,
    gamma_vs_df_curve,
    log_bf_ncchisq,
    match_gamma_to_alpha,
    noncentral_chisq_sf,
    rejection_boundary,
    rejection_boundary_grid,
    solve_umpbt_chisq,
    solve_umpbt_expfam,
)


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

    def test_grid_version_agrees_with_scalar(self):
        thetas = np.geomspace(0.01, 400.0, 40)
        grid = rejection_boundary_grid(thetas, 3.46, 6.0)
        log_gamma = math.log(3.46)
        for theta, bnd in zip(thetas, grid):
            assert abs(log_bf_ncchisq(float(bnd), float(theta), 6.0) - log_gamma) <= 1e-9

    def test_threshold_at_or_below_one_has_no_upper_region(self):
        with pytest.raises(NoRootError):
            rejection_boundary(2.0, 1.0, 6.0)
        with pytest.raises(NoRootError):
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


class TestMatchGammaToAlpha:
    def test_df6_alpha_05(self):
        sol = match_gamma_to_alpha(ChiSqTestSpec(df=6.0, alpha=0.05))
        assert sol.gamma == pytest.approx(3.46, abs=0.01)
        assert sol.theta_star == pytest.approx(7.31, abs=0.01)
        assert sol.boundary == pytest.approx(chisq_quantile(0.95, 6.0), abs=1e-12)

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

    def test_requires_alpha(self):
        with pytest.raises(DomainError):
            match_gamma_to_alpha(ChiSqTestSpec(df=6.0, gamma=3.0))


class TestExpFamilyBoundary:
    def test_normal_mean_direct_value(self):
        model = ExpFamilyModel(kind="normal-mean-known-variance", theta0=0.0, n=1,
                               side="greater", nuisance=1.0)
        assert expfam_boundary(2.0, math.exp(2.0), model) == pytest.approx(2.0,
                                                                           abs=1e-12)

    def test_small_threshold_small_theta_limit(self):
        """As gamma -> 1+ and theta -> theta0, the boundary tends to
        n A'(theta0) / eta'(theta0) (expected total sufficient statistic)."""
        model = ExpFamilyModel(kind="binomial-proportion", theta0=0.4, n=6,
                               side="greater", nuisance=2.0)
        # A'/eta' = m theta at theta0, so the limit is n m theta0
        limit = 6 * 2.0 * 0.4
        value = expfam_boundary(0.4 + 1e-7, 1.0 + 1e-12, model)
        assert value == pytest.approx(limit, rel=1e-5)

    def test_root_property_all_kinds(self):
        models = [
            ExpFamilyModel(kind="binomial-proportion", theta0=0.3, n=9,
                           side="greater", nuisance=2.0),
            ExpFamilyModel(kind="normal-mean-known-variance", theta0=-0.5, n=4,
                           side="less", nuisance=2.5),
            ExpFamilyModel(kind="normal-variance-known-mean", theta0=2.0, n=7,
                           side="greater", nuisance=0.3),
        ]
        thetas = [0.6, -1.7, 5.0]
        for model, theta in zip(models, thetas):
            for gamma in (1.5, 3.0, 20.0):
                y = expfam_boundary(theta, gamma, model)
                assert abs(expfam_log_bf(y, theta, model) - math.log(gamma)) <= 1e-12

    def test_errors(self):
        model = ExpFamilyModel(kind="normal-mean-known-variance", theta0=0.0, n=2,
                               side="greater", nuisance=1.0)
        with pytest.raises(DomainError):
            expfam_boundary(0.0, 3.0, model)    # theta equals the null
        with pytest.raises(DomainError):
            expfam_boundary(-1.0, 3.0, model)   # wrong side
        with pytest.raises(DomainError):
            expfam_boundary(1.0, 1.0, model)    # threshold not above 1


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
        objective = (math.log(3.0) + 20.0 * (model.log_partition(grid)
                                             - float(model.log_partition(0.5)))) / (
            model.eta(grid) - float(model.eta(0.5)))
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
        points = gamma_vs_df_curve([0.05], 8)
        at6 = [p for p in points if p.df == 6.0][0]
        sol = match_gamma_to_alpha(ChiSqTestSpec(df=6.0, alpha=0.05))
        assert at6.gamma == sol.gamma
        assert at6.theta_star == sol.theta_star

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

    def test_validation(self):
        with pytest.raises(DomainError):
            gamma_vs_df_curve([], 5)
        with pytest.raises(DomainError):
            gamma_vs_df_curve([0.05], 0)
        with pytest.raises(DomainError):
            gamma_vs_df_curve([1.2], 5)
        with pytest.raises(DomainError):
            CurvePoint(df=1.0, alpha=0.05, gamma=0.9, theta_star=1.0)
