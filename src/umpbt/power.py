"""Rejection probabilities, power-dominance verification, Monte Carlo oracle.

The rejection probability of the test with alternative ``theta`` under a
data-generating noncentrality ``theta_t`` is the noncentral chi-squared
survival function evaluated at the rejection boundary.  Dominance of the
derived alternative is verified on finite grids only; the report records
the grids used and never claims more than that.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .bayes import _TINIEST, ChiSqTestSpec, _check_gamma, _check_theta, _log_bf_core
from .errors import DomainError
# rejection_boundary is not called here; perfbench/tests/test_bench_trace.py
# asserts the binding power.rejection_boundary until ROADMAP Direction 1 drops it
from .solver import (_check_boundary_args, rejection_boundary,  # noqa: F401
                     rejection_boundary_grid, solve_umpbt_chisq)
from .special import (NoncentralChiSq, _check_df, _check_draws, noncentral_chisq_sf,
                      sample_noncentral_chisq)

__all__ = [
    "DominanceReport",
    "rejection_probability",
    "dominance_check",
    "mc_rejection_rate",
    "DOMINANCE_MARGIN_TOL",
]

# numerical slack allowed on H(theta) - H(theta*) before dominance fails
DOMINANCE_MARGIN_TOL = 1e-10


@dataclass(frozen=True)
class DominanceReport:
    """Outcome of a finite-grid power-dominance check.

    Both grids are sorted ascending, and ``h[i][j]`` is H(theta_grid[j];
    theta_t_grid[i]), the probability that the test with alternative
    theta_grid[j] rejects when the true noncentrality is theta_t_grid[i].
    ``max_margin`` is the largest H(theta; theta_t) - H(theta*; theta_t)
    over the grids; the check passes when it does not exceed
    ``DOMINANCE_MARGIN_TOL``.
    """

    df: float
    gamma: float
    theta_star: float
    boundary: float
    theta_grid: tuple[float, ...]
    theta_t_grid: tuple[float, ...]
    h: tuple[tuple[float, ...], ...]
    max_margin: float
    passed: bool


def rejection_probability(theta: float, theta_t: float, gamma: float,
                          df: float) -> float:
    """Probability that the test with alternative ``theta`` rejects the null
    when the true noncentrality is ``theta_t``.

    The boundary is :func:`rejection_boundary_grid` on one element, the
    root whose table ``dominance_check`` returns.
    """
    boundary = float(rejection_boundary_grid(np.array([theta], dtype=float), gamma, df)[0])
    return noncentral_chisq_sf(boundary, NoncentralChiSq(df, theta_t))


def dominance_check(gamma: float, df: float, theta_grid=None,
                    theta_t_grid=None) -> DominanceReport:
    """Verify on finite grids that no alternative beats the derived one.

    Solves for theta*, evaluates H(theta; theta_t) over the grids, and
    reports the worst margin against H(theta*; theta_t).  The boundary of
    theta* runs through the same vectorized root-solve as the grid so a
    grid containing theta* itself yields a margin of exactly zero.  The
    default grids are 50 log-spaced alternatives over [theta*/100, 100 theta*]
    and the noncentralities 0, theta*/2, theta*, 2 theta* and 5 theta*.
    """
    spec = ChiSqTestSpec(df=df, gamma=gamma)
    # given grids are checked before the solve: each for its size, each theta_t
    # by building its law, each theta by the boundary rule
    if any(grid is not None and np.size(grid) == 0 for grid in (theta_grid, theta_t_grid)):
        raise DomainError("dominance grids must be nonempty")
    if theta_t_grid is not None:
        dists = [NoncentralChiSq(df, float(t))
                 for t in np.sort(np.asarray(theta_t_grid, dtype=float))]
    if theta_grid is not None:
        theta_grid = np.sort(np.asarray(theta_grid, dtype=float))
        _check_boundary_args(theta_grid, gamma, df)
    theta_star = solve_umpbt_chisq(spec).theta_star

    if theta_grid is None:
        theta_grid = np.geomspace(theta_star / 100.0, theta_star * 100.0, 50)
    if theta_t_grid is None:
        dists = [NoncentralChiSq(df, k * theta_star) for k in (0.0, 0.5, 1.0, 2.0, 5.0)]

    boundaries = rejection_boundary_grid(np.append(theta_grid, theta_star), gamma, df)
    # H over [grid..., theta*], one row per theta_t; the survival function is
    # pure, so a grid holding theta* meets the last column bit for bit
    h = np.array([[noncentral_chisq_sf(float(bnd), dist) for bnd in boundaries]
                  for dist in dists])
    max_margin = float((h[:, :-1] - h[:, -1:]).max())
    return DominanceReport(
        df=df,
        gamma=gamma,
        theta_star=theta_star,
        boundary=float(boundaries[-1]),
        theta_grid=tuple(theta_grid.tolist()),
        theta_t_grid=tuple(dist.noncentrality for dist in dists),
        h=tuple(tuple(row) for row in h[:, :-1].tolist()),
        max_margin=max_margin,
        passed=max_margin <= DOMINANCE_MARGIN_TOL,
    )


def _first_rejection(draws: np.ndarray, thetas: np.ndarray, log_gamma: float,
                     df: float) -> np.ndarray:
    """Sort ``draws`` in place; per theta, the index of the first that rejects.

    log g increases in the statistic, so the rejecting draws are a tail of
    the sorted array, found by one bisection vectorized across ``thetas``.
    Its last steps evaluate the draws on either side of the cut.  Where one
    of them lies within log g's rounding of log gamma, rounding may break
    that order across log gamma, so that row counts over every draw instead.
    """
    draws.sort()
    lo = np.zeros(thetas.shape, dtype=np.intp)
    hi = np.full(thetas.shape, draws.size, dtype=np.intp)
    below = np.full(thetas.shape, -np.inf)  # log g at draws[lo - 1]
    above = np.full(thetas.shape, np.inf)   # log g at draws[hi]
    while (open_rows := np.flatnonzero(lo < hi)).size:
        mid = (lo[open_rows] + hi[open_rows]) // 2
        log_bf = _log_bf_core(draws[mid], thetas[open_rows], df)
        rejects = log_bf > log_gamma
        hi[open_rows[rejects]] = mid[rejects]
        above[open_rows[rejects]] = log_bf[rejects]
        lo[open_rows[~rejects]] = mid[~rejects] + 1
        below[open_rows[~rejects]] = log_bf[~rejects]
    # log g's terms are each below 2 |lgamma(b)| + theta + z
    # + 2 |b - 1| (|log z| + 1), largest at an end draw; the kernel holds
    # 1e-13 of them, so 1e-12 bounds the rounding
    b = df / 2.0
    z = np.sqrt(np.maximum(thetas[:, None] * draws[[0, -1]], _TINIEST))
    rounding = 1e-12 * (2.0 * abs(math.lgamma(b)) + thetas + z[:, 1]
                        + 2.0 * abs(b - 1.0) * (np.abs(np.log(z)).max(axis=1) + 1.0))
    for row in np.flatnonzero(np.minimum(above - log_gamma, log_gamma - below) <= rounding):
        lo[row] = draws.size - np.count_nonzero(
            _log_bf_core(draws, np.full(draws.size, thetas[row]), df) > log_gamma)
    return lo


def mc_rejection_rate(theta, theta_t, gamma: float, df: float, n_draws: int,
                      seed: int):
    """Empirical rejection rates from seeded noncentral chi-squared draws.

    Counts the draws under ``theta_t`` whose log Bayes factor at ``theta``
    exceeds log gamma, deterministically for a given seed.  ``theta`` and
    ``theta_t`` broadcast like a ufunc's arguments; two scalars give a float.

    Each distinct ``theta_t`` is drawn once, as a scalar call draws it, and
    its draws are sorted.  Every ``theta`` paired with it rejects on a tail
    of them, since log g increases in the statistic; a bisection over the
    draws finds the tail with ceil(log2(n_draws + 1)) evaluations of log g
    at actual draws, and no boundary solve.  One draw array is alive at a
    time, of at most 2**30 draws (8 GiB).
    """
    _check_df(df)
    _check_gamma(gamma)
    thetas, theta_ts = np.broadcast_arrays(np.asarray(theta, dtype=float),
                                           np.asarray(theta_t, dtype=float))
    _check_theta(thetas)
    _check_draws(n_draws, seed)
    n_draws = operator.index(n_draws)
    log_gamma = math.log(gamma)
    distinct_ts, t_index = np.unique(theta_ts.ravel(), return_inverse=True)
    dists = [NoncentralChiSq(df, float(value)) for value in distinct_ts]
    hits = np.zeros(thetas.shape, dtype=np.int64)
    for k, dist in enumerate(dists):
        rows = np.flatnonzero(t_index == k)
        first = _first_rejection(sample_noncentral_chisq(dist, n_draws, seed),
                                 thetas.flat[rows], log_gamma, df)
        hits.flat[rows] = n_draws - first
    return hits / n_draws if hits.ndim else float(hits / n_draws)
