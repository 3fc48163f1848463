"""One-sample t-test Bayes factor and the failure of a uniform alternative.

With an inverse-gamma prior on the unknown variance, the Bayes factor for a
simple mean alternative depends on the data through the sample mean y and
the scale statistic U = sum (x_i - xbar)^2 + 2 beta.  The evidence region
{BF > gamma} in y is a bounded interval whose endpoints move with the
alternative in a non-nested way, so no alternative's region covers all the
others and the most powerful alternative changes with the data-generating
mean.  This module quantifies that: for each data-generating mean it finds
the alternative that minimizes the exact probability A that the test accepts
(one quadrature), as the root of dA/dtheta, and flags the disagreement.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy import special as _sp

from .bayes import _bessel_ratio, _check_gamma
from .errors import DomainError
from .special import _check_draws, _shown

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

# 240 alternatives spanning theta0 + (0.02 .. 1.6) * (theta_t - theta0)
_GRID_OFFSETS = np.linspace(0.02, 1.6, 240)
_CUT = 1e-13


def _check_mean(value: float, name: str) -> None:
    """The one rule for the t-test's means: finite, magnitude at most 1e100.
    The grid then stays within ~4.2e100, and n (ybar - theta)^2 in range."""
    if not abs(value) <= 1e100:
        raise DomainError(f"{name}={value} must lie in [-1e100, 1e100]")


def _check_scale(u_stat: float) -> None:
    """The one rule for the scale statistic U: positive and finite."""
    if not 0.0 < u_stat < math.inf:
        raise DomainError(f"scale statistic U={u_stat} must be positive and finite")


@dataclass(frozen=True)
class TTestSetting:
    """Configuration of the t-test demonstration.

    ``alpha_prior``/``beta_prior`` parametrize the inverse-gamma prior on
    the variance (zero values give the non-informative limit);
    ``sigma_true`` is the data-generating standard deviation.  With g =
    gamma^(2/(n + 2 alpha_prior)), the demo's alternatives lie within 6.4e100 of
    theta0, so |c - theta0| <= 6.4e100 g/(g - 1) and |theta_t - c| <= 8.4e100
    g/(g - 1): r <= n ((c - theta0)/sigma)^2 and mu^2 = n ((theta_t - c)/sigma)^2
    of :func:`_acceptance_prob` stay finite for sigma >= 1e-53 sqrt(n) g/(g - 1),
    and sigma <= 1e100 with beta_prior <= 1e300 keeps the Monte Carlo's
    U = sigma^2 chi2 + 2 beta_prior and n (ybar - theta)^2 in range.  Each
    prior parameter lies in [0, 1e300].
    """

    n: int
    theta0: float = 0.0
    alpha_prior: float = 0.0
    beta_prior: float = 0.0
    gamma: float = 3.0
    sigma_true: float = 1.0

    def __post_init__(self) -> None:
        # an exact comparison: an int past the largest double fails it too
        if not (2 <= self.n <= sys.float_info.max and int(self.n) == self.n):
            raise DomainError(f"sample size must be an integer >= 2 and at most the "
                              f"largest double, got n={_shown(self.n)}")
        _check_mean(self.theta0, "null mean theta0")
        for name in ("alpha_prior", "beta_prior"):
            if not 0.0 <= getattr(self, name) <= 1e300:
                raise DomainError(f"{name}={getattr(self, name)} must lie in [0, 1e300]")
        _check_gamma(self.gamma)
        g_minus_1, _ = _center_shift(self.theta0, self)
        sigma_lo = 1e-53 * math.sqrt(self.n) * (1.0 + g_minus_1) / g_minus_1
        if not sigma_lo <= self.sigma_true <= 1e100:
            raise DomainError(f"sigma_true={self.sigma_true} must lie in [{sigma_lo:g}, 1e100]")


def _center_shift(theta: float, setting: TTestSetting) -> tuple[float, float]:
    """(g - 1, c - theta0): g - 1 from expm1 stays positive where g rounds to 1,
    unless n + 2 alpha_prior overflows; c is the evidence interval's center."""
    g_minus_1 = math.expm1(2.0 * math.log(setting.gamma)
                           / (setting.n + 2.0 * setting.alpha_prior))
    if not g_minus_1 > 0.0:
        raise DomainError(f"gamma ** (2/(n + 2 alpha_prior)) rounds to 1 at "
                          f"n={setting.n}, alpha_prior={setting.alpha_prior}")
    return g_minus_1, (1.0 + g_minus_1) * (theta - setting.theta0) / g_minus_1


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
    """Most powerful alternative for one data-generating mean, with its exact
    rejection probability and a seeded Monte Carlo estimate of it.  Where the
    acceptance probability ties (underflows to 0) on several grid cells, the
    argmax is their midpoint and [plateau_lo, plateau_hi] their extent."""

    theta_t: float
    argmax_theta: float
    max_prob: float
    plateau_lo: float
    plateau_hi: float
    mc_prob: float


@dataclass(frozen=True)
class NonexistenceReport:
    """Per-theta_t argmax table plus the non-existence verdict.

    ``refine_tol`` is not a refinement tolerance: it is the largest grid
    step over the theta_t rows, and ``nonexistence`` is true when the
    argmaxes lie further apart than it.
    """

    setting: TTestSetting
    n_draws: int
    seed: int
    refine_tol: float
    rows: tuple[TTestArgmax, ...]
    nonexistence: bool


def t_log_bf(y: float, theta: float, u_stat: float, setting: TTestSetting) -> float:
    """Log Bayes factor (n/2 + alpha) log[(U + n(y-theta0)^2)/(U + n(y-theta)^2)]."""
    _check_mean(y, "sample mean y")
    _check_mean(theta, "alternative mean theta")
    _check_scale(u_stat)
    return float(_t_log_bf_array(y, u_stat, theta, setting))


def _t_log_bf_array(ybar: np.ndarray, u_stat: np.ndarray, theta: float,
                    setting: TTestSetting) -> np.ndarray:
    """Arrays, or floats with their bits: squares are products, as numpy's
    ``** 2`` of an array is, where a float's ``** 2`` calls pow."""
    n, theta0 = setting.n, setting.theta0
    power = n / 2.0 + setting.alpha_prior
    null, alt = ybar - theta0, ybar - theta
    return power * (np.log(u_stat + n * (null * null)) - np.log(u_stat + n * (alt * alt)))


def t_region(theta: float, u_stat: float, setting: TTestSetting) -> QuadraticRegion:
    """Evidence interval in the sample mean for the alternative ``theta``.

    Center c = theta0 + g (theta - theta0)/(g - 1), half-width the square
    root of (c - theta0)^2 / g - U/n; a negative radicand means no sample
    mean reaches the threshold.  The endpoint nearer theta0 is the roots'
    product (c - theta0)(theta - theta0) + U/n over the farther one, exact
    even where g rounds to 1.
    """
    _check_mean(theta, "alternative mean theta")
    _check_scale(u_stat)
    g_minus_1, shift = _center_shift(theta, setting)
    disc = shift * shift / (1.0 + g_minus_1) - u_stat / setting.n
    if disc < 0.0:
        return QuadraticRegion(lower=math.nan, upper=math.nan, empty=True)
    far = shift + math.copysign(math.sqrt(disc), shift)
    near = (shift * (theta - setting.theta0) + u_stat / setting.n) / far
    return QuadraticRegion(*sorted((setting.theta0 + near, setting.theta0 + far)), empty=False)


def _acceptance_law(theta: float, theta_t: float, setting: TTestSetting) -> tuple:
    """(r, mu, u, g - 1), u = (c - theta0)/sigma: the test accepts iff
    sum (x_i - c)^2 / sigma^2 ~ chi'2_n(mu^2) is at least r, and r is 0 where
    no dataset rejects."""
    n, sigma = setting.n, setting.sigma_true
    g_minus_1, shift = _center_shift(theta, setting)
    unit_shift = shift / sigma      # in units of sigma, so n shift^2 overflows only with r
    r = n * unit_shift * unit_shift / (1.0 + g_minus_1) - 2.0 * setting.beta_prior / sigma ** 2
    mu = math.sqrt(n) * (theta_t - setting.theta0 - shift) / sigma
    return max(r, 0.0), mu, unit_shift, g_minus_1


def _acceptance_prob(theta: float, theta_t: float, setting: TTestSetting) -> float:
    """Exact probability A that the test at ``theta`` accepts when the mean is ``theta_t``.

    With g = gamma_n and c - theta0 = g (theta - theta0)/(g - 1), the test
    rejects iff sum (x_i - c)^2 < R^2 = n (c - theta0)^2 / g - 2 beta, so it
    accepts iff V + Z^2 >= r = R^2 / sigma^2, with V = S / sigma^2 ~ chi2_{n-1}
    (density f, CDF F, tail Q) independent of Z ~ N(mu, 1), mu = sqrt(n) (theta_t - c) / sigma:

        A = Q(r) + int_0^r f(v) T(r - v) dv,  T(w) = Phi(mu - sqrt w) + Phi(-mu - sqrt w).

    A itself, not 1 - A, keeps its precision where the test almost surely
    rejects.  Each cut of [0, r] to [a, b] leaves out at most _CUT of A.  T
    rises with v, so the part below a, F(a) = _CUT F(r), is at most
    F(a) / (F(r) - F(a)) of the rest.  The part above b is at most
    Q(b) - Q(r) = _CUT max(Q(r), Q(m) T(r - m)), m = min(n - 1, r), and A
    exceeds that max, as V >= m and Z^2 >= r - m together accept.
    """
    from scipy.integrate import quad

    df = setting.n - 1.0
    r, mu, _, _ = _acceptance_law(theta, theta_t, setting)
    if not r > 0.0:
        return 1.0
    log_norm = -(df / 2.0) * math.log(2.0) - math.lgamma(df / 2.0)

    def z_tail(w: float) -> float:
        return float(_sp.ndtr(mu - math.sqrt(w)) + _sp.ndtr(-mu - math.sqrt(w)))

    def integrand(v: float) -> float:
        return math.exp(log_norm + (df / 2.0 - 1.0) * math.log(v) - v / 2.0) * z_tail(r - v)

    tail, m = float(_sp.chdtrc(df, r)), min(df, r)
    floor = max(tail, float(_sp.chdtrc(df, m)) * z_tail(r - m))
    lo = 2.0 * float(_sp.gammaincinv(df / 2.0, _CUT * float(_sp.chdtr(df, r))))
    hi = min(r, float(_sp.chdtri(df, min(1.0, tail + _CUT * floor))))
    if not hi > lo:
        return tail
    # full_output=1 returns, not warns, quad's roundoff reports (A < 1e-100, n ~ 3e4)
    return tail + quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-11, full_output=1)[0]


def _acceptance_slope(theta: float, theta_t: float, setting: TTestSetting) -> float:
    """dA/dtheta over f_n(r; mu^2) > 0, the chi'2_n(mu^2) density at r.

    As A = P(chi'2_n(mu^2) >= r), dA/dr = -f_n and dA/d(mu^2) = f_{n+2}, and
    f_{n+2}/f_n = r R(z)/z with z = |mu| sqrt(r), R = I_{n/2}/I_{n/2-1}, so

        dA/dtheta / f_n = -r' + 2 mu mu' r R(z)/z,

    r' = 2 n u/(sigma (g - 1)), mu' = -sqrt(n) g/(sigma (g - 1)).  Where no
    dataset rejects (r = 0), A is 1 and this is its limit r -> 0+, -r'.
    """
    n, sigma = setting.n, setting.sigma_true
    r, mu, unit_shift, g_minus_1 = _acceptance_law(theta, theta_t, setting)
    z = abs(mu) * math.sqrt(r)
    # R(z)/z = (1 - z^2/(n (n + 2)) + ...)/n: 1/n in double below z = 1e-8
    ratio = float(_bessel_ratio(z, n)) / z if z > 1e-8 else 1.0 / n
    return -2.0 * (n * unit_shift + math.sqrt(n) * (1.0 + g_minus_1) * mu * r * ratio) / (
        sigma * g_minus_1)


def _mc_rejection(theta: float, theta_t: float, setting: TTestSetting,
                  n_draws: int, seed: int) -> float:
    """:func:`t_rejection_prob` unchecked, for argmaxes up to ~4.2e100."""
    bits = int(np.array(float(theta_t), dtype=np.float64).view(np.uint64))
    rng = np.random.default_rng([int(seed), bits])
    n, sigma = setting.n, setting.sigma_true
    ybar = rng.normal(theta_t, sigma / math.sqrt(n), n_draws)
    u_stat = sigma ** 2 * rng.chisquare(n - 1, n_draws) + 2.0 * setting.beta_prior
    lbf = _t_log_bf_array(ybar, u_stat, theta, setting)
    return float(np.count_nonzero(lbf > math.log(setting.gamma))) / n_draws


def t_rejection_prob(theta: float, theta_t: float, setting: TTestSetting,
                     n_draws: int, seed: int) -> float:
    """Seeded Monte Carlo rejection probability over ``n_draws`` datasets.

    Each dataset enters only through its sufficient statistics, drawn
    directly: ybar ~ N(theta_t, sigma^2/n) and U ~ sigma^2 chi2_{n-1} + 2 beta.
    The same seed and theta_t reuse the same datasets for every ``theta``.
    """
    _check_mean(theta, "alternative mean theta")
    _check_mean(theta_t, "data-generating mean theta_t")
    _check_draws(n_draws, seed)
    return _mc_rejection(theta, theta_t, setting, n_draws, seed)


def _argmax_for(theta_t: float, setting: TTestSetting, n_draws: int,
                seed: int) -> tuple[TTestArgmax, float]:
    """(row, grid step) for one data-generating mean.

    Scans A over 240 alternatives.  A unique minimal cell k gives the root of
    :func:`_acceptance_slope` on [grid[k-1], grid[k+1]] where the slope runs
    from negative to positive there, and grid[k] otherwise (an end of the
    grid); ``max_prob`` is 1 - A at the argmax.
    """
    from scipy.optimize import brentq

    span = (theta_t - setting.theta0) or 4.0 * setting.sigma_true
    grid = setting.theta0 + _GRID_OFFSETS * span
    accept = np.array([_acceptance_prob(float(t), theta_t, setting) for t in grid])
    step = abs(float(grid[1] - grid[0]))
    ties = np.flatnonzero(accept == accept.min())
    # A ties only where it underflows to 0 (or no dataset rejects, A = 1): the
    # argmax is the run's midpoint
    lo, hi = sorted(float(grid[i]) for i in (ties[0], ties[-1]))
    x, min_accept = 0.5 * (lo + hi), float(accept[ties[0]])
    if ties.size == 1:
        a, b = sorted(map(float, grid[[max(ties[0] - 1, 0), min(ties[0] + 1, len(grid) - 1)]]))
        if _acceptance_slope(a, theta_t, setting) < 0.0 < _acceptance_slope(b, theta_t, setting):
            lo = hi = x = brentq(_acceptance_slope, a, b, args=(theta_t, setting), xtol=5e-324)
            min_accept = _acceptance_prob(x, theta_t, setting)
    row = TTestArgmax(theta_t=theta_t, argmax_theta=x, max_prob=1.0 - float(min_accept),
                      plateau_lo=lo, plateau_hi=hi,
                      mc_prob=_mc_rejection(x, theta_t, setting, n_draws, seed))
    return row, step


def nonexistence_demo(setting: TTestSetting, theta_t_list, n_draws: int,
                      seed: int) -> NonexistenceReport:
    """Locate the most powerful alternative for each data-generating mean.

    Scans the exact acceptance probability A over 240 alternatives from
    theta0 to 1.6 theta_t and takes the argmax in its minimal cell as the
    root of the first-order condition dA/dtheta = 0.  Flags
    non-existence of a uniformly most powerful alternative when the argmaxes
    spread farther apart than the coarsest grid step.  ``n_draws`` and
    ``seed`` drive only the Monte Carlo column.
    """
    theta_t_list = [float(t) for t in theta_t_list]
    if len(theta_t_list) < 2:
        raise DomainError("at least two data-generating means are required")
    for theta_t in theta_t_list:
        _check_mean(theta_t, "data-generating mean theta_t")
    _check_draws(n_draws, seed)

    rows, steps = zip(*[_argmax_for(t, setting, n_draws, seed) for t in theta_t_list])
    argmaxes = [r.argmax_theta for r in rows]
    return NonexistenceReport(setting=setting, n_draws=n_draws, seed=seed,
                              refine_tol=max(steps), rows=rows,
                              nonexistence=bool(max(argmaxes) - min(argmaxes) > max(steps)))
