"""Rejection probabilities, power-dominance verification, Monte Carlo oracle.

The rejection probability of the test with alternative ``theta`` under a
data-generating noncentrality ``theta_t`` is the noncentral chi-squared
survival function evaluated at the rejection boundary.  Dominance of the
derived alternative is verified on finite grids only; the report records
the grids used and never claims more than that.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
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

_MC_CHUNK = 16384


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


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def mc_rejection_rate(theta: float, theta_t: float, gamma: float, df: float,
                      n_draws: int, seed: int) -> float:
    """Empirical rejection rate from seeded noncentral chi-squared draws.

    Counts draws whose log Bayes factor at ``theta`` exceeds log gamma;
    deterministic for a given seed.  Evaluation is chunked so arbitrarily
    many draws never materialize a large Bessel-series workspace at once.

    The draws come from one seeded stream; only the evaluation of log g is
    split.  The chunks run on a thread pool, one worker per usable CPU (numpy
    releases the GIL inside the Bessel series), and each chunk's log g does
    not depend on which thread computes it or when.  Each chunk yields an
    integer hit count, and an integer sum does not depend on the order of
    its terms, so the rate is bit for bit the same for any worker count.
    """
    if not (gamma > 1) or not math.isfinite(gamma):
        raise DomainError(f"evidence threshold must exceed 1, got {gamma}")
    if not (theta > 0):
        raise DomainError(f"noncentrality must be positive, got {theta}")
    if n_draws < 1:
        raise DomainError(f"draw count must be at least 1, got {n_draws}")
    draws = sample_noncentral_chisq(NoncentralChiSq(df, theta_t), n_draws, seed)
    log_gamma = math.log(gamma)
    theta_arr = np.array([float(theta)])

    def count_hits(start: int) -> int:
        chunk = draws[start:start + _MC_CHUNK]
        lbf = _log_bf_core(chunk, np.broadcast_to(theta_arr, chunk.shape), df)
        return int(np.count_nonzero(lbf > log_gamma))

    starts = range(0, n_draws, _MC_CHUNK)
    with ThreadPoolExecutor(max_workers=min(len(starts), _usable_cpus())) as pool:
        # map re-raises the first chunk's exception when its result is read
        hits = sum(pool.map(count_hits, starts))
    return hits / n_draws
