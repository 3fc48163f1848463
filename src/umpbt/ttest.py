"""One-sample t-test Bayes factor and the failure of a uniform alternative.

With an inverse-gamma prior on the unknown variance, the Bayes factor for a
simple mean alternative depends on the data through the sample mean y and
the scale statistic U = sum (x_i - xbar)^2 + 2 beta.  The evidence region
{BF > gamma} in y is a bounded interval whose endpoints move with the
alternative in a non-nested way, so no alternative's region covers all the
others and the most powerful alternative changes with the data-generating
mean.  This module quantifies that: it estimates, by seeded Monte Carlo
over full datasets, which alternative maximizes the rejection probability
for each data-generating mean, and flags the disagreement.

Common random numbers: for a fixed base seed, every alternative considered
for one data-generating mean is evaluated on the same simulated datasets,
which makes argmax comparisons stable and the whole report deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .solver import _golden_min

__all__ = [
    "TTestSetting",
    "QuadraticRegion",
    "TTestArgmax",
    "NonexistenceReport",
    "t_log_bf",
    "t_region",
    "t_rejection_prob",
    "nonexistence_demo",
]

_STATS_CHUNK = 100_000
_GRID_POINTS = 240
# grid spans theta0 + (0.02 .. 1.6) * (theta_t - theta0)
_GRID_OFFSETS = np.linspace(0.02, 1.6, _GRID_POINTS)


@dataclass(frozen=True)
class TTestSetting:
    """Configuration of the t-test demonstration.

    ``alpha_prior``/``beta_prior`` parametrize the inverse-gamma prior on
    the variance (zero values give the non-informative limit);
    ``sigma_true`` is the data-generating standard deviation.
    """

    n: int
    theta0: float = 0.0
    alpha_prior: float = 0.0
    beta_prior: float = 0.0
    gamma: float = 3.0
    sigma_true: float = 1.0

    def __post_init__(self) -> None:
        if int(self.n) != self.n or self.n < 2:
            raise DomainError(f"sample size must be an integer >= 2, got {self.n}")
        if not math.isfinite(self.theta0):
            raise DomainError(f"null mean must be finite, got {self.theta0}")
        if self.alpha_prior < 0 or self.beta_prior < 0:
            raise DomainError("inverse-gamma prior parameters must be nonnegative")
        if not (self.gamma > 1 and math.isfinite(self.gamma)):
            raise DomainError(f"evidence threshold must exceed 1, got {self.gamma}")
        if not (0 < self.sigma_true < math.inf):
            raise DomainError(f"sigma_true must be positive, got {self.sigma_true}")

    @property
    def gamma_n(self) -> float:
        """Threshold raised to 2/(n + 2 alpha); exceeds 1 whenever gamma does."""
        return self.gamma ** (2.0 / (self.n + 2.0 * self.alpha_prior))


@dataclass(frozen=True)
class QuadraticRegion:
    """Evidence interval (lower, upper) in the sample mean, possibly empty.

    Empty regions arise when the quadratic in y has negative discriminant;
    they are a value, not an error.
    """

    lower: float
    upper: float
    empty: bool


@dataclass(frozen=True)
class TTestArgmax:
    """Most powerful alternative found for one data-generating mean.

    When the empirical power surface attains its maximum on a plateau of
    grid cells (ties at Monte Carlo resolution), ``argmax_theta`` is the
    plateau midpoint and [plateau_lo, plateau_hi] records its extent.
    """

    theta_t: float
    argmax_theta: float
    max_prob: float
    plateau_lo: float
    plateau_hi: float


@dataclass(frozen=True)
class NonexistenceReport:
    """Per-theta_t argmax table plus the non-existence verdict."""

    setting: TTestSetting
    n_draws: int
    seed: int
    refine_tol: float
    rows: tuple[TTestArgmax, ...]
    nonexistence: bool


def t_log_bf(y: float, theta: float, u_stat: float, setting: TTestSetting) -> float:
    """Log Bayes factor (n/2 + alpha) log[(U + n(y-theta0)^2)/(U + n(y-theta)^2)]."""
    if not (u_stat > 0):
        raise DomainError(f"scale statistic U must be positive, got {u_stat}")
    return float(_t_log_bf_array(np.array([y]), np.array([u_stat]), theta, setting)[0])


def _t_log_bf_array(ybar: np.ndarray, u_stat: np.ndarray, theta: float,
                    setting: TTestSetting) -> np.ndarray:
    n, theta0 = setting.n, setting.theta0
    power = n / 2.0 + setting.alpha_prior
    return power * (
        np.log(u_stat + n * (ybar - theta0) ** 2)
        - np.log(u_stat + n * (ybar - theta) ** 2)
    )


def t_region(theta: float, u_stat: float, setting: TTestSetting) -> QuadraticRegion:
    """Evidence interval in the sample mean for the alternative ``theta``.

    Center (gamma_n theta - theta0)/(gamma_n - 1), half-width the square
    root of gamma_n (theta - theta0)^2 / (gamma_n - 1)^2 - U/n; a negative
    radicand means no sample mean reaches the threshold.
    """
    if not (u_stat > 0):
        raise DomainError(f"scale statistic U must be positive, got {u_stat}")
    g = setting.gamma_n
    center = (g * theta - setting.theta0) / (g - 1.0)
    disc = g * (theta - setting.theta0) ** 2 / (g - 1.0) ** 2 - u_stat / setting.n
    if disc < 0.0:
        return QuadraticRegion(lower=math.nan, upper=math.nan, empty=True)
    half = math.sqrt(disc)
    return QuadraticRegion(lower=center - half, upper=center + half, empty=False)


def _seed_for(seed: int, theta_t: float) -> list[int]:
    """Derive a per-theta_t stream: equal theta_t values share datasets."""
    if seed < 0:
        raise DomainError(f"seed must be non-negative, got {seed}")
    bits = int(np.array(float(theta_t), dtype=np.float64).view(np.uint64))
    return [int(seed), bits]


def _dataset_stats(theta_t: float, setting: TTestSetting, n_draws: int,
                   seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Sufficient statistics (xbar, U) of ``n_draws`` simulated datasets."""
    rng = np.random.default_rng(_seed_for(seed, theta_t))
    ybar = np.empty(n_draws)
    u_stat = np.empty(n_draws)
    for start in range(0, n_draws, _STATS_CHUNK):
        stop = min(start + _STATS_CHUNK, n_draws)
        x = rng.normal(theta_t, setting.sigma_true, size=(stop - start, setting.n))
        m = x.mean(axis=1)
        ybar[start:stop] = m
        u_stat[start:stop] = ((x - m[:, None]) ** 2).sum(axis=1)
    u_stat += 2.0 * setting.beta_prior
    return ybar, u_stat


def _rejection_rate(ybar: np.ndarray, u_stat: np.ndarray, theta: float,
                    setting: TTestSetting) -> float:
    log_gamma = math.log(setting.gamma)
    lbf = _t_log_bf_array(ybar, u_stat, theta, setting)
    return float(np.count_nonzero(lbf > log_gamma)) / ybar.size


def t_rejection_prob(theta: float, theta_t: float, setting: TTestSetting,
                     n_draws: int, seed: int) -> float:
    """Monte Carlo rejection probability over full simulated datasets.

    Draws ``n_draws`` datasets of ``setting.n`` normal observations with
    mean ``theta_t``, forms (xbar, U) for each, and counts datasets whose
    Bayes factor at ``theta`` exceeds the threshold.  Deterministic given
    the seed; the same seed and theta_t reuse the same datasets across
    different ``theta`` values.
    """
    if n_draws < 1:
        raise DomainError(f"draw count must be at least 1, got {n_draws}")
    ybar, u_stat = _dataset_stats(theta_t, setting, n_draws, seed)
    return _rejection_rate(ybar, u_stat, theta, setting)


def _argmax_for(theta_t: float, setting: TTestSetting, n_draws: int,
                seed: int) -> tuple[TTestArgmax, float]:
    ybar, u_stat = _dataset_stats(theta_t, setting, n_draws, seed)

    span = theta_t - setting.theta0
    if span == 0.0:
        span = 4.0 * setting.sigma_true
    grid = setting.theta0 + _GRID_OFFSETS * span
    rates = np.array([_rejection_rate(ybar, u_stat, t, setting) for t in grid])
    step = abs(float(grid[1] - grid[0]))

    peak = int(np.argmax(rates))
    v_max = float(rates[peak])
    lo_idx = peak
    while lo_idx > 0 and rates[lo_idx - 1] == v_max:
        lo_idx -= 1
    hi_idx = peak
    while hi_idx < len(grid) - 1 and rates[hi_idx + 1] == v_max:
        hi_idx += 1

    if lo_idx == hi_idx:
        # unique maximal cell: refine it on the common-random-number surface
        a = float(grid[max(lo_idx - 1, 0)])
        b = float(grid[min(hi_idx + 1, len(grid) - 1)])
        x, neg_max = _golden_min(lambda t: -_rejection_rate(ybar, u_stat, t, setting),
                                 a, b, step * 1e-3)
        row = TTestArgmax(theta_t=theta_t, argmax_theta=float(x),
                          max_prob=-float(neg_max), plateau_lo=float(x),
                          plateau_hi=float(x))
    else:
        # the empirical maximum is attained on a plateau of exact ties
        # (every dataset rejects there); report its midpoint
        lo, hi = float(grid[lo_idx]), float(grid[hi_idx])
        row = TTestArgmax(theta_t=theta_t, argmax_theta=0.5 * (lo + hi),
                          max_prob=v_max, plateau_lo=lo, plateau_hi=hi)
    return row, step


def nonexistence_demo(setting: TTestSetting, theta_t_list, n_draws: int,
                      seed: int) -> NonexistenceReport:
    """Locate the most powerful alternative for each data-generating mean.

    Flags non-existence of a uniformly most powerful alternative when the
    located argmaxes spread farther apart than the refinement tolerance
    (the coarsest grid step used).  Equal theta_t entries share their
    simulated datasets, so they report identical argmaxes.
    """
    theta_t_list = [float(t) for t in theta_t_list]
    if len(theta_t_list) < 2:
        raise DomainError("at least two data-generating means are required")
    if n_draws < 1:
        raise DomainError(f"draw count must be at least 1, got {n_draws}")

    rows = []
    refine_tol = 0.0
    for theta_t in theta_t_list:
        row, step = _argmax_for(theta_t, setting, n_draws, seed)
        rows.append(row)
        refine_tol = max(refine_tol, step)

    argmaxes = [r.argmax_theta for r in rows]
    spread = max(argmaxes) - min(argmaxes)
    return NonexistenceReport(
        setting=setting,
        n_draws=n_draws,
        seed=seed,
        refine_tol=refine_tol,
        rows=tuple(rows),
        nonexistence=bool(spread > refine_tol),
    )
