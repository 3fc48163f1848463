"""Bayes factors for the noncentral chi-squared test and exponential families.

All Bayes factors are exposed on the log scale; the linear-scale wrappers
exponentiate with overflow detection.  The noncentral chi-squared Bayes
factor has a removable singularity at noncentrality 0 (its limit is 1), so
zero is excluded from the domain and callers use the limit value directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import xlogy

from .errors import DomainError
from .special import LogValue, log_bessel_i_array

__all__ = [
    "ChiSqTestSpec",
    "ExpFamilyModel",
    "EXPFAM_KINDS",
    "log_bf_ncchisq",
    "log_bf_ncchisq_array",
    "bf_ncchisq",
    "dlogbf_dy",
    "expfam_log_bf",
]


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
        if not (self.df > 0) or not math.isfinite(self.df):
            raise DomainError(f"degrees of freedom must be positive, got {self.df}")
        if (self.gamma is None) == (self.alpha is None):
            raise DomainError("exactly one of gamma and alpha must be set")
        if self.gamma is not None and not (self.gamma > 1 and math.isfinite(self.gamma)):
            raise DomainError(f"evidence threshold must exceed 1, got {self.gamma}")
        if self.alpha is not None and not (0.0 < self.alpha < 1.0):
            raise DomainError(f"significance level must lie in (0, 1), got {self.alpha}")

EXPFAM_KINDS = (
    "binomial-proportion",
    "normal-mean-known-variance",
    "normal-variance-known-mean",
)


def _log_bf_core(y: np.ndarray, theta: np.ndarray, df: float) -> np.ndarray:
    """Unvalidated vector core of the noncentral chi-squared log Bayes factor.

    log g(y, theta) = log Gamma(df/2) - theta/2 + (df/2 - 1) log 2
                      + (1 - df/2) log z + log I_{df/2-1}(z),   z = sqrt(theta y)
    """
    z = np.sqrt(theta * y)
    order = df / 2.0 - 1.0
    return (
        math.lgamma(df / 2.0)
        - theta / 2.0
        + (df / 2.0 - 1.0) * math.log(2.0)
        + (1.0 - df / 2.0) * np.log(z)
        + log_bessel_i_array(order, z)
    )


def _check_ncchisq_args(y: float, theta: float, df: float) -> None:
    if not (df > 0):
        raise DomainError(f"degrees of freedom must be positive, got {df}")
    if not (theta > 0) or not math.isfinite(theta):
        raise DomainError(f"noncentrality must be positive, got {theta}")
    if not (y > 0) or not math.isfinite(y):
        raise DomainError(f"statistic must be positive, got {y}")


def log_bf_ncchisq(y: float, theta: float, df: float) -> float:
    """Log Bayes factor for H1: noncentrality = theta against H0: 0.

    Strictly increasing in ``y`` and tends to 1 in linear scale as
    ``theta * y`` tends to 0.
    """
    _check_ncchisq_args(y, theta, df)
    return float(_log_bf_core(np.array([float(y)]), np.array([float(theta)]), df)[0])


def log_bf_ncchisq_array(y: np.ndarray, theta, df: float) -> np.ndarray:
    """Elementwise :func:`log_bf_ncchisq` over arrays of y (and theta)."""
    y = np.asarray(y, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if not (df > 0):
        raise DomainError(f"degrees of freedom must be positive, got {df}")
    if np.any(y <= 0) or np.any(theta <= 0):
        raise DomainError("statistic and noncentrality must be positive")
    return _log_bf_core(y, np.broadcast_to(theta, y.shape), df)


def bf_ncchisq(y: float, theta: float, df: float) -> float:
    """Linear-scale Bayes factor; raises OverflowError beyond double range."""
    return LogValue(log_bf_ncchisq(y, theta, df)).exp()


def dlogbf_dy(y: float, theta: float, df: float) -> float:
    """Derivative of the log Bayes factor with respect to the statistic.

    Equals 0.5 sqrt(theta/y) I_{df/2}(z) / I_{df/2-1}(z) with
    z = sqrt(theta y); strictly positive on the whole domain, which makes
    the rejection region an upper interval for any threshold above 1.
    """
    _check_ncchisq_args(y, theta, df)
    z = np.array([math.sqrt(theta * y)])
    log_ratio = log_bessel_i_array(df / 2.0, z) - log_bessel_i_array(df / 2.0 - 1.0, z)
    return 0.5 * math.sqrt(theta / y) * float(np.exp(log_ratio[0]))


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
        if int(self.n) != self.n or self.n < 1:
            raise DomainError(f"sample size must be a positive integer, got {self.n}")
        if self.nuisance is None:
            defaults = {
                "binomial-proportion": 1.0,
                "normal-mean-known-variance": 1.0,
                "normal-variance-known-mean": 0.0,
            }
            object.__setattr__(self, "nuisance", defaults[self.kind])
        if self.kind == "binomial-proportion":
            if not (0.0 < self.theta0 < 1.0):
                raise DomainError(f"null proportion must lie in (0, 1), got {self.theta0}")
            m = self.nuisance
            if m != int(m) or m < 1:
                raise DomainError(f"trial count must be a positive integer, got {m}")
        elif self.kind == "normal-mean-known-variance":
            if not (self.nuisance > 0):
                raise DomainError(f"known variance must be positive, got {self.nuisance}")
        else:
            if not (self.theta0 > 0):
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

    def check_alternative(self, theta: float, allow_null: bool = False) -> None:
        """Raise unless theta sits on the model's alternative side."""
        lo, hi = self.parameter_interval()
        if not (lo < theta < hi) or not math.isfinite(theta):
            raise DomainError(
                f"theta={theta} outside the parameter space ({lo}, {hi}) of {self.kind}"
            )
        if theta == self.theta0:
            if allow_null:
                return
            raise DomainError("theta must differ from the null value")
        on_side = theta > self.theta0 if self.side == "greater" else theta < self.theta0
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
    model.check_alternative(theta, allow_null=True)
    if theta == model.theta0:
        return 0.0
    a0 = float(model.log_partition(model.theta0))
    a1 = float(model.log_partition(theta))
    e0 = float(model.eta(model.theta0))
    e1 = float(model.eta(theta))
    return model.n * (a0 - a1) + y * (e1 - e0)
