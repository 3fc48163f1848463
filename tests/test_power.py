"""Power layer: rejection probabilities, dominance grids, Monte Carlo rates."""

import math
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from umpbt import power, special
from umpbt import (
    ChiSqTestSpec,
    DomainError,
    NoncentralChiSq,
    dominance_check,
    match_gamma_to_alpha,
    mc_rejection_rate,
    noncentral_chisq_sf,
    rejection_boundary_grid,
    rejection_probability,
)


@pytest.fixture(scope="module")
def matched6():
    return match_gamma_to_alpha(ChiSqTestSpec(df=6.0, alpha=0.05))


class TestRejectionProbability:
    def test_size_by_construction(self, matched6):
        h0 = rejection_probability(matched6.theta_star, 0.0, matched6.gamma, 6.0)
        assert abs(h0 - 0.05) <= 1e-6

    def test_saturates_for_large_truth(self, matched6):
        h = rejection_probability(matched6.theta_star, 50.0, matched6.gamma, 6.0)
        assert h > 0.999

    def test_against_monte_carlo(self):
        analytic = rejection_probability(3.0, 7.31, 3.46, 6.0)
        empirical = mc_rejection_rate(3.0, 7.31, 3.46, 6.0, 10**6, seed=7)
        assert abs(analytic - empirical) <= 0.005

    def test_monotone_in_data_generating_parameter(self, matched6):
        values = [rejection_probability(matched6.theta_star, float(t),
                                        matched6.gamma, 6.0)
                  for t in np.linspace(0.0, 40.0, 20)]
        assert np.all(np.diff(values) >= -1e-12)


class TestDominanceCheck:
    @pytest.mark.parametrize("df,gamma", [(6.0, 3.46), (1.0, 3.0)])
    def test_default_grids_pass(self, df, gamma):
        report = dominance_check(gamma, df)
        assert report.passed
        assert report.max_margin <= 1e-10
        assert len(report.theta_grid) == 50
        assert len(report.theta_t_grid) == 5
        assert report.theta_t_grid[0] == 0.0

    def test_degenerate_self_comparison_margin_is_exact_zero(self):
        report = dominance_check(3.46, 6.0)
        single = dominance_check(3.46, 6.0, theta_grid=[report.theta_star],
                                 theta_t_grid=[0.0])
        assert single.max_margin == 0.0
        assert single.passed

    def test_entries_sorted_and_bounded(self):
        report = dominance_check(3.0, 2.0)
        assert list(report.theta_grid) == sorted(report.theta_grid)
        assert list(report.theta_t_grid) == sorted(report.theta_t_grid)
        assert all(0.0 <= h <= 1.0 for row in report.h for h in row)

    def test_empty_grid_rejected(self):
        with pytest.raises(DomainError):
            dominance_check(3.0, 2.0, theta_grid=[], theta_t_grid=[0.0])

    @pytest.mark.parametrize("grids", [{"theta_grid": []}, {"theta_t_grid": []}])
    def test_empty_grid_rejected_before_the_solve(self, monkeypatch, grids):
        solves = []
        monkeypatch.setattr(power, "solve_umpbt_chisq", lambda spec: solves.append(spec))
        with pytest.raises(DomainError, match=r"^dominance grids must be nonempty$"):
            dominance_check(3.46, 6.0, **grids)
        assert solves == []

    @pytest.mark.parametrize("theta_grid, message", [
        ([-1.0, 2.0], r"^noncentrality theta=-1\.0 must lie in"),
        ([1e-320, 2.0], r"^noncentrality theta=1e-320 must be at least"),
        ([math.nan], r"^noncentrality theta=nan must lie in"),
        ([1e200], r"^noncentrality theta=1e\+200 must lie in"),
    ])
    def test_theta_grid_checked_before_the_solve(self, monkeypatch, theta_grid, message):
        solves = []
        monkeypatch.setattr(power, "solve_umpbt_chisq", lambda spec: solves.append(spec))
        with pytest.raises(DomainError, match=message):
            dominance_check(3.46, 6.0, theta_grid=theta_grid)
        assert solves == []

    # the default grids, and a descending grid that holds a repeat
    GRIDS = [(3.46, 6.0, None, None), (3.0, 2.0, [9.0, 4.0, 4.0, 0.5], [6.0, 0.0, 1.5])]

    def test_grids_come_out_ascending(self):
        report = dominance_check(*self.GRIDS[1])
        assert report.theta_grid == (0.5, 4.0, 4.0, 9.0)
        assert report.theta_t_grid == (0.0, 1.5, 6.0)

    @pytest.mark.parametrize("gamma, df, theta_grid, theta_t_grid", GRIDS)
    def test_entries_are_the_survival_function_at_the_grid_boundaries(
            self, gamma, df, theta_grid, theta_t_grid):
        report = dominance_check(gamma, df, theta_grid, theta_t_grid)
        thetas = np.append(report.theta_grid, report.theta_star)
        boundaries = rejection_boundary_grid(thetas, gamma, df)
        assert report.boundary == boundaries[-1]
        assert len(report.h) == len(report.theta_t_grid)
        for theta_t, row in zip(report.theta_t_grid, report.h):
            assert len(row) == len(report.theta_grid)
            for boundary, h in zip(boundaries[:-1].tolist(), row):
                assert h == noncentral_chisq_sf(boundary, NoncentralChiSq(df, theta_t))

    @pytest.mark.parametrize("gamma, df, theta_grid, theta_t_grid", GRIDS)
    def test_max_margin_is_the_largest_entry_less_theta_stars_h(
            self, gamma, df, theta_grid, theta_t_grid):
        report = dominance_check(gamma, df, theta_grid, theta_t_grid)
        h_star = {t: noncentral_chisq_sf(report.boundary, NoncentralChiSq(df, t))
                  for t in report.theta_t_grid}
        margins = [h - h_star[theta_t]
                   for theta_t, row in zip(report.theta_t_grid, report.h) for h in row]
        assert report.max_margin == max(margins)
        assert report.passed == (max(margins) <= power.DOMINANCE_MARGIN_TOL)

    @pytest.mark.parametrize("gamma, df, theta_grid, theta_t_grid", GRIDS)
    def test_rejection_probability_is_the_table_entry(self, gamma, df, theta_grid,
                                                       theta_t_grid):
        # both take the grid root; on these grids every value is its entry bit for bit
        report = dominance_check(gamma, df, theta_grid, theta_t_grid)
        for theta_t, row in zip(report.theta_t_grid, report.h):
            for theta, h in zip(report.theta_grid, row):
                assert rejection_probability(theta, theta_t, gamma, df) == h


class TestMcRejectionRate:
    def test_size_of_matched_test(self, matched6):
        rate = mc_rejection_rate(matched6.theta_star, 0.0, matched6.gamma, 6.0,
                                 10**6, seed=11)
        assert abs(rate - 0.05) <= 0.001

    def test_within_binomial_envelope(self):
        rng = np.random.default_rng(5)
        for _ in range(3):
            df = float(rng.integers(1, 10))
            gamma = float(rng.uniform(1.6, 6.0))
            theta = float(rng.uniform(1.0, 12.0))
            theta_t = float(rng.uniform(0.0, 12.0))
            n = 200_000
            p = rejection_probability(theta, theta_t, gamma, df)
            rate = mc_rejection_rate(theta, theta_t, gamma, df, n, seed=123)
            envelope = 3.0 * math.sqrt(max(p * (1.0 - p), 1e-12) / n)
            assert abs(p - rate) <= envelope + 1e-9

    def test_seed_stability(self):
        a = mc_rejection_rate(2.0, 1.0, 3.0, 4.0, 50_000, seed=77)
        b = mc_rejection_rate(2.0, 1.0, 3.0, 4.0, 50_000, seed=77)
        assert a == b

    # three full 16,384-draw chunks plus a 5-draw tail; hit counts recorded
    # by evaluating every draw's log Bayes factor, over numpy's
    # noncentral_chisquare draws (the two seeds happen to tie)
    PINNED_DRAWS = 3 * 16384 + 5
    PINNED_HITS = {7: 8773, 2026: 8773}

    @pytest.mark.parametrize("seed", sorted(PINNED_HITS))
    def test_pinned_rate_with_partial_chunk(self, seed):
        rate = mc_rejection_rate(7.0, 3.5, 5.0, 6.0, self.PINNED_DRAWS, seed=seed)
        assert type(rate) is float
        assert rate == self.PINNED_HITS[seed] / self.PINNED_DRAWS

    @pytest.mark.parametrize("df, gammas", [
        (0.5, (1.01, 2.0)),
        (2.929, (3.0, 40.0)),
        (6.0, (3.46, 1e4)),
        (17.16, (22.53, 1.5)),
        (100.6, (87.33, 5.0)),
    ])
    @pytest.mark.parametrize("seed", [3, 2026])
    def test_rates_equal_per_draw_counts(self, df, gammas, seed):
        # every draw's log Bayes factor against gamma, with the same seeded
        # draws; the grids scale with df, so rates span 0 to 1
        thetas = np.array([0.1, 1.0, 10.0])[:, None] * (df + 2.0)
        theta_ts = np.array([0.0, 4.0 * (df + 2.0)])
        for i, n in enumerate([1, 2, 5, 3 * 16384 + 5, 65536]):
            gamma = gammas[i % len(gammas)]
            rates = mc_rejection_rate(thetas, theta_ts, gamma, df, n, seed=seed)
            for col, theta_t in enumerate(theta_ts):
                draws = special.sample_noncentral_chisq(
                    special.NoncentralChiSq(df, float(theta_t)), n, seed)
                for row, theta in enumerate(thetas[:, 0]):
                    log_bf = power._log_bf_core(draws, np.full(n, theta), df)
                    hits = np.count_nonzero(log_bf > math.log(gamma))
                    assert rates[row, col] == hits / n, (n, gamma, theta, theta_t)

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(df=st.floats(0.2, 200.0),
           theta=st.floats(0.0, 200.0, exclude_min=True),
           theta_t=st.floats(0.0, 200.0, exclude_min=True),
           gamma=st.floats(1.0, 1e4, exclude_min=True),
           n=st.integers(1, 4096), seed=st.integers(min_value=0))
    # log gamma below log g's rounding, where the bisection alone miscounted
    @example(df=196.1807746124643, theta=5e-324, theta_t=115.5,
             gamma=1.0000000000000002, n=2, seed=0)
    def test_rate_is_the_count_over_every_draw(self, df, theta, theta_t, gamma, n, seed):
        rate = mc_rejection_rate(theta, theta_t, gamma, df, n, seed)
        draws = np.random.default_rng(seed).noncentral_chisquare(df, theta_t, n)
        log_bf = power._log_bf_core(draws, np.full(n, theta), df)
        assert rate == np.count_nonzero(log_bf > math.log(gamma)) / n

    @pytest.mark.parametrize("n", [1, 2, 5, 3 * 16384 + 5, 65536])
    def test_log_bayes_factor_evaluations_bounded(self, monkeypatch, n):
        elems = [0]
        core = power._log_bf_core

        def counting_core(y, theta, df):
            elems[0] += np.size(y)
            return core(y, theta, df)

        monkeypatch.setattr(power, "_log_bf_core", counting_core)
        thetas = np.array([0.05, 2.5, 7.0, 60.0])[:, None]
        theta_ts = np.array([0.0, 3.5, 9.0])
        mc_rejection_rate(thetas, theta_ts, 5.0, 6.0, n, seed=7)
        rows = thetas.size * theta_ts.size
        assert 0 < elems[0] <= rows * (math.ceil(math.log2(n + 1)) + 1)

    @pytest.mark.parametrize("seed", [1, 4])
    def test_batched_rates_match_scalar_calls(self, monkeypatch, seed):
        # an unsorted theta grid with a duplicate against repeated, out-of-order
        # theta_t values: 16 pairs over 3 distinct draw sets
        thetas = np.array([7.0, 2.5, 11.0, 2.5])[:, None]
        theta_ts = np.array([3.5, 0.0, 9.0, 0.0])
        expected = np.array([[mc_rejection_rate(float(a), float(b), 5.0, 6.0,
                                                self.PINNED_DRAWS, seed=seed)
                              for b in theta_ts] for a in thetas[:, 0]])
        sampled, alive, peak = [], [], [0]

        def sampler(dist, n, seed):
            draws = special.sample_noncentral_chisq(dist, n, seed)
            sampled.append(dist.noncentrality)
            alive.append(weakref.ref(draws))
            peak[0] = max(peak[0], sum(ref() is not None for ref in alive))
            return draws

        monkeypatch.setattr(power, "sample_noncentral_chisq", sampler)
        rates = mc_rejection_rate(thetas, theta_ts, 5.0, 6.0,
                                  self.PINNED_DRAWS, seed=seed)
        assert rates.shape == (4, 4)
        assert np.array_equal(rates, expected)
        assert sorted(sampled) == [0.0, 3.5, 9.0]
        assert peak[0] == 1

    # the third column is the draw count, or the seed where name is "seed"
    @pytest.mark.parametrize("theta, theta_t, n_draws, name", [
        (2.0, 1.0, 0, "n_draws"),
        (2.0, 1.0, 2.5, "n_draws"),
        (2.0, 1.0, True, "n_draws"),
        (2.0, 1.0, "100", "n_draws"),
        (math.inf, 1.0, 100, "theta"),
        (math.nan, 1.0, 100, "theta"),
        ([2.0, 0.0], 1.0, 100, "theta"),
        (2.0, -1.0, 100, "theta_t"),
        (2.0, [0.0, math.inf], 100, "theta_t"),
        (2.0, math.nan, 100, "theta_t"),
        (2.0, 1.0, 1.5, "seed"),
        (2.0, 1.0, True, "seed"),
        (2.0, 1.0, -1, "seed"),
        # appended last: ids of list-valued rows carry their row index
        (2.0, 1.0, 2**30 + 1, "n_draws"),
        (2.0, 1.0, 10**14, "n_draws"),
    ])
    def test_validation_before_any_draw(self, monkeypatch, theta, theta_t,
                                        n_draws, name):
        def sampler(*args):
            raise AssertionError("drew before validating")

        n_draws, seed = (100, n_draws) if name == "seed" else (n_draws, 1)
        monkeypatch.setattr(power, "sample_noncentral_chisq", sampler)
        # theta and theta_t fail with their owners' messages
        message = {"theta": "noncentrality theta=",
                   "theta_t": "noncentrality theta_t must"}.get(name, f"{name} must be")
        with pytest.raises(DomainError, match=f"^{message}"):
            mc_rejection_rate(theta, theta_t, 3.0, 4.0, n_draws, seed=seed)

    def test_validation(self):
        with pytest.raises(DomainError):
            mc_rejection_rate(2.0, 1.0, 0.9, 4.0, 100, seed=1)

    def test_numpy_integer_draw_count(self):
        rate = mc_rejection_rate(7.0, 3.5, 5.0, 6.0, np.int64(self.PINNED_DRAWS), seed=7)
        assert rate == self.PINNED_HITS[7] / self.PINNED_DRAWS
