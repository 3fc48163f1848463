"""Bayes factors for the noncentral chi-squared test and exponential families.

All Bayes factors are exposed on the log scale; ``LogValue.exp`` gives a
linear value with overflow detection.  The noncentral chi-squared Bayes
factor has a removable singularity at noncentrality 0 (its limit is 1), so
zero is excluded from the domain and callers use the limit value directly.
A zero statistic is in the domain and returns log g's limit, -theta/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import xlogy

from .errors import DomainError
from .special import _check_df, _check_statistic, log_bessel_i_array

__all__ = [
    "ChiSqTestSpec",
    "ExpFamilyModel",
    "EXPFAM_KINDS",
    "log_bf_ncchisq",
    "dlogbf_dy",
    "expfam_log_bf",
]

_TINIEST = 5e-324

# above it theta r(theta) ~ theta^2 / 4 nears overflow; the solve's grid
# ends at 10 (df + 2 log gamma), a dominance grid at 100 theta*
_THETA_MAX = 1e150


def _check_gamma(gamma: float) -> None:
    """The one evidence-threshold rule.  g tends to e^(-theta/2) < 1 as y -> 0
    and grows without bound, so only gamma > 1 gives every alternative an
    upper rejection interval."""
    if not (gamma > 1 and math.isfinite(gamma)):
        raise DomainError(f"evidence threshold must exceed 1, got {gamma}")


def _check_alpha(alpha: float) -> None:
    """The one rule for a classical size alpha: (0, 1)."""
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"significance level must lie in (0, 1), got {alpha}")


def _check_theta(theta) -> None:
    """The one rule for alternatives theta, a float or an array: each in (0, 1e150]."""
    inside = (theta > 0) & (theta <= _THETA_MAX)  # a bool for a float, else numpy's
    if not (inside if isinstance(inside, bool) else inside.all()):
        bad = np.asarray(theta, dtype=float)[~np.asarray(inside)]
        raise DomainError(f"noncentrality theta={float(bad[0])!r} must lie in "
                          f"(0, {_THETA_MAX:g}]")


@dataclass(frozen=True)
class ChiSqTestSpec:
    """Noncentral chi-squared test request.

    Exactly one of ``gamma`` (direct evidence threshold) and ``alpha``
    (classical size whose rejection region the Bayesian test should match)
    must be supplied.
    """

    df: float
    gamma: float | None = None
    alpha: float | None = None

    def __post_init__(self) -> None:
        _check_df(self.df)
        if (self.gamma is None) == (self.alpha is None):
            raise DomainError("exactly one of gamma and alpha must be set")
        if self.alpha is None:
            _check_gamma(self.gamma)
        else:
            _check_alpha(self.alpha)

EXPFAM_KINDS = (
    "binomial-proportion",
    "normal-mean-known-variance",
    "normal-variance-known-mean",
)


def _log_bf_core(y: np.ndarray, theta: np.ndarray, df: float) -> np.ndarray:
    """Unvalidated vector core of the noncentral chi-squared log Bayes factor.

    log g(y, theta) = log Gamma(df/2) - theta/2 + (df/2 - 1) log 2
                      + (1 - df/2) log z + log I_{df/2-1}(z),   z = sqrt(theta y)

    A product theta y that underflows to 0 is taken as the least subnormal,
    where the value is already -theta/2, the limit at z = 0.  Float y and
    theta return a float64 with the bits of one-element arrays: the same
    operations in the same order, sqrt being correctly rounded either way.
    """
    prod = theta * y
    z = (math.sqrt(max(prod, _TINIEST)) if isinstance(prod, float)
         else np.sqrt(np.maximum(prod, _TINIEST)))
    order = df / 2.0 - 1.0
    return (
        math.lgamma(df / 2.0)
        - theta / 2.0
        + (df / 2.0 - 1.0) * math.log(2.0)
        + (1.0 - df / 2.0) * np.log(z)
        + log_bessel_i_array(order, z)
    )


def _check_ncchisq_args(y: float, theta: float, df: float) -> None:
    _check_df(df)
    _check_theta(theta)
    _check_statistic(y)
    if not math.isfinite(theta * y):
        raise DomainError(f"statistic y={y} times noncentrality theta={theta} "
                          f"overflows double precision")


def log_bf_ncchisq(y: float, theta: float, df: float) -> float:
    """Log Bayes factor for H1: noncentrality = theta against H0: 0.

    Strictly increasing in ``y``; a zero statistic takes the limit at
    y = 0, exactly -theta/2, which the Bessel terms would only round to.
    """
    _check_ncchisq_args(y, theta, df)
    if y == 0.0:
        return -theta / 2.0
    return float(_log_bf_core(float(y), float(theta), df))


def dlogbf_dy(y: float, theta: float, df: float) -> float:
    """Derivative of the log Bayes factor with respect to the statistic.

    Equals 0.5 sqrt(theta/y) I_{df/2}(z) / I_{df/2-1}(z) with
    z = sqrt(theta y), and theta/(2 df) at y = 0; strictly positive, which
    makes the rejection region an upper interval for any threshold above 1.
    """
    _check_ncchisq_args(y, theta, df)
    if y == 0.0:
        return theta / (2.0 * df)
    return 0.5 * math.sqrt(theta / y) * float(_bessel_ratio(math.sqrt(theta * y), df))


def _bessel_ratio(z: np.ndarray, df: float) -> np.ndarray:
    """R(z) = I_{df/2}(z) / I_{df/2-1}(z) as a difference of logs (a plain
    ratio of the two is NaN where both under- or overflow, as at df 1e5)."""
    return np.exp(log_bessel_i_array(df / 2.0, z) - log_bessel_i_array(df / 2.0 - 1.0, z))


@dataclass(frozen=True)
class ExpFamilyModel:
    """One-parameter exponential family test model.

    The density is h(x) exp{eta(theta) T(x) - A(theta)} per observation and
    the sufficient statistic of a sample is y = sum_i T(x_i).  Three canned
    kinds are provided; ``nuisance`` is the per-observation trial count for
    the binomial kind, the known variance for the normal-mean kind and the
    known mean for the normal-variance kind.
    """

    kind: str
    theta0: float
    n: int
    side: str
    nuisance: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in EXPFAM_KINDS:
            raise DomainError(f"unknown model kind {self.kind!r}; choose from {EXPFAM_KINDS}")
        if self.side not in ("greater", "less"):
            raise DomainError(f"side must be 'greater' or 'less', got {self.side!r}")
        if self.nuisance is None:  # one trial, unit variance, zero mean
            object.__setattr__(self, "nuisance",
                               0.0 if self.kind == "normal-variance-known-mean" else 1.0)
        for name in ("n", "theta0", "nuisance"):  # the rules below assume finite values
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name}={getattr(self, name)} must be finite")
        if int(self.n) != self.n or self.n < 1:
            raise DomainError(f"sample size must be a positive integer, got {self.n}")
        if self.kind == "binomial-proportion":
            if not (0.0 < self.theta0 < 1.0):
                raise DomainError(f"null proportion must lie in (0, 1), got {self.theta0}")
            if self.nuisance != int(self.nuisance) or self.nuisance < 1:
                raise DomainError(f"trial count must be a positive integer, "
                                  f"got {self.nuisance}")
        elif self.kind == "normal-mean-known-variance" and not self.nuisance > 0:
            raise DomainError(f"known variance must be positive, got {self.nuisance}")
        elif self.kind == "normal-variance-known-mean" and not self.theta0 > 0:
            raise DomainError(f"null variance must be positive, got {self.theta0}")

    # -- family components ------------------------------------------------

    def eta(self, theta):
        """Natural parameter map; strictly increasing for every kind."""
        theta = np.asarray(theta, dtype=float)
        if self.kind == "binomial-proportion":
            return np.log(theta) - np.log1p(-theta)
        if self.kind == "normal-mean-known-variance":
            return theta / self.nuisance
        return -0.5 / theta

    def log_partition(self, theta):
        """Log-partition A(theta) of one observation."""
        theta = np.asarray(theta, dtype=float)
        if self.kind == "binomial-proportion":
            return -self.nuisance * np.log1p(-theta)
        if self.kind == "normal-mean-known-variance":
            return theta**2 / (2.0 * self.nuisance)
        return 0.5 * np.log(theta)

    def differences_from_null(self, theta: float) -> tuple[float, float]:
        """eta(theta) - eta(theta0) and A(theta) - A(theta0), formed from theta - theta0.

        Subtracting the two values instead would cancel when theta sits
        within a few ulps of theta0 on a large scale.
        """
        t0 = self.theta0
        d = theta - t0
        if self.kind == "binomial-proportion":
            log_fail_ratio = math.log1p(-d / (1.0 - t0))  # log((1-theta)/(1-theta0))
            return math.log1p(d / t0) - log_fail_ratio, -self.nuisance * log_fail_ratio
        if self.kind == "normal-mean-known-variance":
            return d / self.nuisance, d * (theta + t0) / (2.0 * self.nuisance)
        return 0.5 * d / theta / t0, 0.5 * math.log1p(d / t0)

    def mean_statistic(self, theta):
        """Mean E_theta[T(x)] of one observation's sufficient statistic."""
        theta = np.asarray(theta, dtype=float)
        if self.kind == "binomial-proportion":
            return self.nuisance * theta
        return theta

    def kl_divergence(self, theta):
        """KL(f_theta || f_theta0) of one observation; 0 at theta0, growing away."""
        theta = np.asarray(theta, dtype=float)
        t0 = self.theta0
        if self.kind == "binomial-proportion":
            return self.nuisance * (xlogy(theta, theta / t0)
                                    + xlogy(1.0 - theta, (1.0 - theta) / (1.0 - t0)))
        if self.kind == "normal-mean-known-variance":
            return (theta - t0) ** 2 / (2.0 * self.nuisance)
        r = theta / t0
        return 0.5 * (r - 1.0 - np.log(r))

    def parameter_interval(self) -> tuple[float, float]:
        """Open interval of admissible theta values for this kind."""
        if self.kind == "binomial-proportion":
            return (0.0, 1.0)
        if self.kind == "normal-mean-known-variance":
            return (-math.inf, math.inf)
        return (0.0, math.inf)

    def check_alternative(self, theta: float) -> None:
        """Raise unless theta is the null value or sits on the alternative side."""
        lo, hi = self.parameter_interval()
        if not (lo < theta < hi) or not math.isfinite(theta):
            raise DomainError(
                f"theta={theta} outside the parameter space ({lo}, {hi}) of {self.kind}"
            )
        on_side = theta >= self.theta0 if self.side == "greater" else theta <= self.theta0
        if not on_side:
            raise DomainError(
                f"theta={theta} is not on the {self.side!r} side of theta0={self.theta0}"
            )

    def direction_sign(self) -> int:
        """Sign of eta(theta) - eta(theta0) on the alternative side."""
        return 1 if self.side == "greater" else -1


def expfam_log_bf(y: float, theta: float, model: ExpFamilyModel) -> float:
    """Log Bayes factor n (A(theta0) - A(theta)) + y (eta(theta) - eta(theta0)).

    ``theta`` must lie on the model's alternative side; the null value
    itself is accepted and returns exactly 0 (identical hypotheses).
    """
    model.check_alternative(theta)
    if theta == model.theta0:
        return 0.0
    d_eta, d_a = model.differences_from_null(theta)
    return y * d_eta - model.n * d_a
