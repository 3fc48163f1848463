"""Power layer: rejection probabilities, dominance grids, Monte Carlo rates."""

import math
import weakref

import numpy as np
import pytest

from umpbt import power, special
from umpbt import (
    ChiSqTestSpec,
    DomainError,
    PowerCurve,
    dominance_check,
    match_gamma_to_alpha,
    mc_rejection_rate,
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
        keys = [(e[1], e[0]) for e in report.curve.entries]
        assert keys == sorted(keys)
        assert all(0.0 <= e[2] <= 1.0 for e in report.curve.entries)

    def test_empty_grid_rejected(self):
        with pytest.raises(DomainError):
            dominance_check(3.0, 2.0, theta_grid=[], theta_t_grid=[0.0])

    def test_power_curve_validates_probabilities(self):
        with pytest.raises(DomainError):
            PowerCurve(df=2.0, gamma=3.0, entries=((1.0, 0.0, 1.5),))


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
    # when every draw's log Bayes factor was evaluated, in 16,384-draw chunks
    PINNED_DRAWS = 3 * 16384 + 5
    PINNED_HITS = {7: 8732, 2026: 8603}

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
    ])
    def test_validation_before_any_draw(self, monkeypatch, theta, theta_t,
                                        n_draws, name):
        def sampler(*args):
            raise AssertionError("drew before validating")

        n_draws, seed = (100, n_draws) if name == "seed" else (n_draws, 1)
        monkeypatch.setattr(power, "sample_noncentral_chisq", sampler)
        with pytest.raises(DomainError, match=f"^{name} must be"):
            mc_rejection_rate(theta, theta_t, 3.0, 4.0, n_draws, seed=seed)

    def test_validation(self):
        with pytest.raises(DomainError):
            mc_rejection_rate(2.0, 1.0, 0.9, 4.0, 100, seed=1)

    def test_numpy_integer_draw_count(self):
        rate = mc_rejection_rate(7.0, 3.5, 5.0, 6.0, np.int64(self.PINNED_DRAWS), seed=7)
        assert rate == self.PINNED_HITS[7] / self.PINNED_DRAWS
