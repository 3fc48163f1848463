"""Power layer: rejection probabilities, dominance grids, Monte Carlo rates."""

import math
import sys
import threading

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
    # with the single-threaded chunk loop
    PINNED_DRAWS = 3 * 16384 + 5
    PINNED_HITS = {7: 8732, 2026: 8603}

    @pytest.mark.parametrize("seed", sorted(PINNED_HITS))
    def test_pinned_rate_with_partial_chunk(self, seed):
        rate = mc_rejection_rate(7.0, 3.5, 5.0, 6.0, self.PINNED_DRAWS, seed=seed)
        assert rate == self.PINNED_HITS[seed] / self.PINNED_DRAWS

    @pytest.mark.parametrize("cpus", [1, 4])
    def test_rate_independent_of_worker_count(self, monkeypatch, cpus):
        # the workers build the shared series tables at once and switch
        # every microsecond; any interference between them moves the count
        monkeypatch.setattr(power, "_usable_cpus", lambda: cpus)
        special._series_table.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            rate = mc_rejection_rate(7.0, 3.5, 5.0, 6.0, self.PINNED_DRAWS, seed=7)
        finally:
            sys.setswitchinterval(interval)
        assert rate == self.PINNED_HITS[7] / self.PINNED_DRAWS

    @pytest.mark.skipif(power._usable_cpus() < 2, reason="needs two usable CPUs")
    def test_chunks_run_on_several_threads(self, monkeypatch):
        # the first two chunks meet at a barrier, which one thread alone
        # cannot pass: it would wait inside its first chunk until the timeout
        barrier = threading.Barrier(2, timeout=30)
        lock = threading.Lock()
        threads = []
        core = power._log_bf_core

        def recording_core(y, theta, df):
            with lock:
                threads.append(threading.get_ident())
                first_two = len(threads) <= 2
            if first_two:
                barrier.wait()
            return core(y, theta, df)

        monkeypatch.setattr(power, "_log_bf_core", recording_core)
        rate = mc_rejection_rate(7.0, 3.5, 5.0, 6.0, self.PINNED_DRAWS, seed=7)
        assert rate == self.PINNED_HITS[7] / self.PINNED_DRAWS
        assert len(threads) == 4
        assert len(set(threads)) > 1

    def test_validation(self):
        with pytest.raises(DomainError):
            mc_rejection_rate(2.0, 1.0, 3.0, 4.0, 0, seed=1)
        with pytest.raises(DomainError):
            mc_rejection_rate(2.0, 1.0, 0.9, 4.0, 100, seed=1)
