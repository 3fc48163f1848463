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

from .bayes import ChiSqTestSpec, _log_bf_core
from .errors import DomainError
from .solver import rejection_boundary, rejection_boundary_grid, solve_umpbt_chisq
from .special import NoncentralChiSq, noncentral_chisq_sf, sample_noncentral_chisq

__all__ = [
    "PowerCurve",
    "DominanceReport",
    "rejection_probability",
    "dominance_check",
    "mc_rejection_rate",
    "DOMINANCE_MARGIN_TOL",
]

# numerical slack allowed on H(theta) - H(theta*) before dominance fails
DOMINANCE_MARGIN_TOL = 1e-10


@dataclass(frozen=True)
class PowerCurve:
    """Grid of rejection probabilities, sorted by (theta_t, theta).

    Entries are (theta, theta_t, h) triples with h in [0, 1].
    """

    df: float
    gamma: float
    entries: tuple[tuple[float, float, float], ...]

    def __post_init__(self) -> None:
        for theta, theta_t, h in self.entries:
            if not (0.0 <= h <= 1.0):
                raise DomainError(
                    f"rejection probability {h} outside [0, 1] at "
                    f"(theta={theta}, theta_t={theta_t})"
                )
        ordered = sorted(self.entries, key=lambda e: (e[1], e[0]))
        object.__setattr__(self, "entries", tuple(ordered))


@dataclass(frozen=True)
class DominanceReport:
    """Outcome of a finite-grid power-dominance check.

    ``max_margin`` is the largest H(theta; theta_t) - H(theta*; theta_t)
    over the recorded grids; the check passes when it does not exceed
    ``DOMINANCE_MARGIN_TOL``.
    """

    df: float
    gamma: float
    theta_star: float
    boundary: float
    theta_grid: tuple[float, ...]
    theta_t_grid: tuple[float, ...]
    max_margin: float
    passed: bool
    curve: PowerCurve


def rejection_probability(theta: float, theta_t: float, gamma: float,
                          df: float) -> float:
    """Probability that the test with alternative ``theta`` rejects the null
    when the true noncentrality is ``theta_t``."""
    boundary = rejection_boundary(theta, gamma, df)
    return noncentral_chisq_sf(boundary, NoncentralChiSq(df, theta_t))


def default_theta_grid(theta_star: float, points: int = 50) -> np.ndarray:
    """Log-spaced alternatives spanning [theta*/100, 100 theta*]."""
    return np.geomspace(theta_star / 100.0, theta_star * 100.0, points)


def default_theta_t_grid(theta_star: float) -> np.ndarray:
    """Data-generating noncentralities bracketing the interesting regimes."""
    return np.array([0.0, theta_star / 2.0, theta_star, 2.0 * theta_star,
                     5.0 * theta_star])


def dominance_check(gamma: float, df: float, theta_grid=None,
                    theta_t_grid=None) -> DominanceReport:
    """Verify on finite grids that no alternative beats the derived one.

    Solves for theta*, evaluates H(theta; theta_t) over the grids, and
    reports the worst margin against H(theta*; theta_t).  The boundary of
    theta* runs through the same vectorized root-solve as the grid so a
    grid containing theta* itself yields a margin of exactly zero.
    """
    solution = solve_umpbt_chisq(ChiSqTestSpec(df=df, gamma=gamma))
    theta_star = solution.theta_star

    if theta_grid is None:
        theta_grid = default_theta_grid(theta_star)
    theta_grid = np.asarray(theta_grid, dtype=float)
    if theta_t_grid is None:
        theta_t_grid = default_theta_t_grid(theta_star)
    theta_t_grid = np.asarray(theta_t_grid, dtype=float)
    if theta_grid.size == 0 or theta_t_grid.size == 0:
        raise DomainError("dominance grids must be nonempty")

    all_thetas = np.append(theta_grid, theta_star)
    boundaries = rejection_boundary_grid(all_thetas, gamma, df)
    grid_boundaries, boundary_star = boundaries[:-1], float(boundaries[-1])

    entries = []
    max_margin = -math.inf
    for theta_t in theta_t_grid:
        dist = NoncentralChiSq(df, float(theta_t))
        h_star = noncentral_chisq_sf(boundary_star, dist)
        for theta, bnd in zip(theta_grid, grid_boundaries):
            # self-comparison must come out exactly zero
            h = h_star if bnd == boundary_star else noncentral_chisq_sf(float(bnd), dist)
            entries.append((float(theta), float(theta_t), h))
            max_margin = max(max_margin, h - h_star)

    curve = PowerCurve(df=df, gamma=gamma, entries=tuple(entries))
    return DominanceReport(
        df=df,
        gamma=gamma,
        theta_star=theta_star,
        boundary=boundary_star,
        theta_grid=tuple(float(t) for t in theta_grid),
        theta_t_grid=tuple(float(t) for t in theta_t_grid),
        max_margin=float(max_margin),
        passed=bool(max_margin <= DOMINANCE_MARGIN_TOL),
        curve=curve,
    )


def _first_rejection(draws: np.ndarray, thetas: np.ndarray, log_gamma: float,
                     df: float) -> np.ndarray:
    """Sort ``draws`` in place; per theta, the index of the first that rejects.

    log g increases in the statistic, so the rejecting draws are a tail of
    the sorted array, found by one bisection vectorized across ``thetas``.
    """
    draws.sort()
    lo = np.zeros(thetas.shape, dtype=np.intp)
    hi = np.full(thetas.shape, draws.size, dtype=np.intp)
    while (open_rows := np.flatnonzero(lo < hi)).size:
        mid = (lo[open_rows] + hi[open_rows]) // 2
        rejects = _log_bf_core(draws[mid], thetas[open_rows], df) > log_gamma
        hi[open_rows[rejects]] = mid[rejects]
        lo[open_rows[~rejects]] = mid[~rejects] + 1
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
    time.
    """
    if not (gamma > 1) or not math.isfinite(gamma):
        raise DomainError(f"evidence threshold must exceed 1, got {gamma}")
    thetas, theta_ts = np.broadcast_arrays(np.asarray(theta, dtype=float),
                                           np.asarray(theta_t, dtype=float))
    bad = thetas[~((thetas > 0) & np.isfinite(thetas))]
    if bad.size:
        raise DomainError(f"theta must be finite and positive, got {bad[0]}")
    bad = theta_ts[~((theta_ts >= 0) & np.isfinite(theta_ts))]
    if bad.size:
        raise DomainError(f"theta_t must be finite and nonnegative, got {bad[0]}")
    if isinstance(n_draws, bool) or not hasattr(n_draws, "__index__") or n_draws < 1:
        raise DomainError(f"n_draws must be an integer of at least 1, got {n_draws!r}")
    if isinstance(seed, bool) or not hasattr(seed, "__index__") or seed < 0:
        raise DomainError(f"seed must be a nonnegative integer, got {seed!r}")
    n_draws = operator.index(n_draws)
    log_gamma = math.log(gamma)
    distinct_ts, t_index = np.unique(theta_ts.ravel(), return_inverse=True)
    hits = np.zeros(thetas.shape, dtype=np.int64)
    for k, value in enumerate(distinct_ts):
        rows = np.flatnonzero(t_index == k)
        dist = NoncentralChiSq(df, float(value))
        first = _first_rejection(sample_noncentral_chisq(dist, n_draws, seed),
                                 thetas.flat[rows], log_gamma, df)
        hits.flat[rows] = n_draws - first
    return hits / n_draws if hits.ndim else float(hits / n_draws)
