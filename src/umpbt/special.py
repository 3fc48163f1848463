"""Log-domain special functions and chi-squared distribution machinery.

Everything here is a pure function of its arguments.  Quantities that
overflow double precision in linear scale (modified Bessel functions of
large argument, Bayes factors along solver brackets) are carried as natural
logarithms; exponentiation is always an explicit caller decision via
:meth:`LogValue.exp`.

The random sampler takes an explicit seed and holds no state; there is no
global random stream anywhere in the package.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special as _sp

from .errors import DomainError, NoRootError, SeriesError

__all__ = [
    "LogValue",
    "NoncentralChiSq",
    "log_bessel_i",
    "log_bessel_i_array",
    "log_gamma_fn",
    "chisq_cdf",
    "chisq_quantile",
    "noncentral_chisq_sf",
    "sample_noncentral_chisq",
]

# exp() overflows double precision just above this
_MAX_EXP = 709.782712893384

# Power series is used up to this argument, the uniform asymptotic beyond
# (and at orders whose series would need more than _SERIES_TERM_CAP terms).
_SERIES_Z_MAX = 700.0
_SERIES_TERM_CAP = 1000
# Rows per block of the series workspace (about 2 MB at 250 terms).
_SERIES_BLOCK = 1024
_MIXTURE_TAIL = 1e-12


@dataclass(frozen=True)
class LogValue:
    """A nonnegative quantity represented by its natural logarithm.

    ``-inf`` encodes an exact zero.  Exponentiation never happens
    implicitly: call :meth:`exp` to opt in, which raises on overflow
    instead of silently returning ``inf``.
    """

    log_magnitude: float

    def exp(self) -> float:
        if self.log_magnitude > _MAX_EXP:
            raise OverflowError(
                f"linear value exp({self.log_magnitude:.6g}) overflows double precision"
            )
        return math.exp(self.log_magnitude)


@dataclass(frozen=True)
class NoncentralChiSq:
    """Noncentral chi-squared law with real degrees of freedom.

    ``noncentrality = 0`` reduces exactly to the central chi-squared
    distribution.
    """

    df: float
    noncentrality: float

    def __post_init__(self) -> None:
        if not (self.df > 0) or not math.isfinite(self.df):
            raise DomainError(f"degrees of freedom must be positive, got {self.df}")
        if self.noncentrality < 0 or not math.isfinite(self.noncentrality):
            raise DomainError(
                f"noncentrality must be nonnegative, got {self.noncentrality}"
            )


def _series_terms_needed(order: float, z_max: float) -> int:
    """Series length covering the peak term plus its sub-1e-17 tail."""
    j_peak = 0.5 * (math.hypot(order, z_max) - (order + 2.0))
    j_peak = max(j_peak, 0.0)
    return int(math.ceil(j_peak + 9.0 * math.sqrt(j_peak + abs(order) + 10.0) + 20.0))


@functools.lru_cache(maxsize=128)
def _series_table(order: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exponents 2j+order, log Gamma(order+j+1) and log j! for j < _SERIES_TERM_CAP.

    Built once per order; a prefix of the table holds exactly the values an
    ``arange`` of that length would give, because every entry is computed
    elementwise.  Read-only, since every caller shares it.

    A table is 24 KB, so the cache holds at most about 3 MB.  128 orders
    cover every benchmark workload: a round of items asks for 14 distinct
    orders on ``contingency``, 5 on ``power_mc``, 16 on ``power`` and 120
    on ``curve`` (df = 1..120, which 64 slots would rebuild on every call).
    """
    j = np.arange(_SERIES_TERM_CAP, dtype=float)
    table = (order + 2.0 * j, _sp.gammaln(order + j + 1.0), _sp.gammaln(j + 1.0))
    for column in table:
        column.setflags(write=False)
    return table


def _log_bessel_series(order: float, z: np.ndarray) -> np.ndarray:
    """log I_order(z) by the ascending power series, for a 1-D z in (0, 700].

    The series sum_j (z/2)^(2j+order) / (Gamma(order+j+1) j!) is evaluated
    entirely in log scale: each term's log is (2j+order) log(z/2) less the
    log-gamma factors, which come from the order's cached ``_series_table``,
    and a max-shifted log-sum-exp collapses them so the peak term (which
    exceeds linear range near z = 700) never materializes.

    The reduction runs in place over one workspace of ``_SERIES_BLOCK``
    rows, so a 16,384-draw Monte Carlo chunk never holds its full term
    matrix, and reproduces the arithmetic of ``scipy.special.logsumexp`` bit
    for bit: the terms equal to the row maximum leave the sum and come back
    as ``log(m)``.  The benchmark's correctness gate checks theta* at 1e-8
    relative against values recorded with that function, and a one-ulp
    change in log I moves theta* past it.  The term count is sized from
    ``z.max()`` of the whole array, so blocking does not change any value.
    """
    n_terms = _series_terms_needed(order, float(z.max()))
    if n_terms > _SERIES_TERM_CAP:
        raise SeriesError(
            f"Bessel series needs {n_terms} terms for z={z.max():.3g} "
            f"(budget {_SERIES_TERM_CAP})"
        )
    powers, log_gamma_order, log_factorial = (
        column[:n_terms] for column in _series_table(order)
    )
    log_half = np.log(z / 2.0)
    out = np.empty_like(log_half)
    work = np.empty((min(z.size, _SERIES_BLOCK), n_terms))
    for start in range(0, z.size, _SERIES_BLOCK):
        stop = min(start + _SERIES_BLOCK, z.size)
        terms = work[: stop - start]
        np.multiply(log_half[start:stop, None], powers, out=terms)
        terms -= log_gamma_order
        terms -= log_factorial
        peak = terms.max(axis=1)
        terms -= peak[:, None]
        top = terms == 0.0
        m = np.count_nonzero(top, axis=1).astype(float)
        np.exp(terms, out=terms)
        np.copyto(terms, 0.0, where=top)
        s = terms.sum(axis=1)
        s /= m  # logsumexp skips the division when s == 0; 0 / m is 0 too
        out[start:stop] = np.log1p(s) + np.log(m) + peak
    return out


def _log_bessel_uniform(order: float, z: np.ndarray) -> np.ndarray:
    """log I_order(z) by the uniform large-parameter expansion.

    Used for z > 700 and for orders above ~1.16e4.  Valid uniformly in the
    order because the expansion parameter is 1/sqrt(order^2 + z^2) <= 1/700
    there; four correction polynomials leave a truncation error below
    1e-13 on the log value.  Negative orders in
    (-1, 0) are mapped to |order|: the two functions differ by a
    K-Bessel term of relative size ~exp(-2z), invisible at z > 700.
    """
    nu = abs(order)
    kappa = np.hypot(nu, z)
    t2 = (nu / kappa) ** 2
    v1 = (3.0 - 5.0 * t2) / 24.0
    v2 = (81.0 - 462.0 * t2 + 385.0 * t2**2) / 1152.0
    v3 = (30375.0 - 369603.0 * t2 + 765765.0 * t2**2 - 425425.0 * t2**3) / 414720.0
    v4 = (
        4465125.0
        - 94121676.0 * t2
        + 349922430.0 * t2**2
        - 446185740.0 * t2**3
        + 185910725.0 * t2**4
    ) / 39813120.0
    # kappa**4 overflows above ~1e77, where its term is 0 either way
    with np.errstate(over="ignore"):
        correction = 1.0 + v1 / kappa + v2 / kappa**2 + v3 / kappa**3 + v4 / kappa**4
    exponent = kappa + nu * np.log(z / (nu + kappa))
    return exponent - 0.5 * np.log(2.0 * math.pi * kappa) + np.log(correction)


def log_bessel_i_array(order: float, z: np.ndarray) -> np.ndarray:
    """Vectorized log of the modified Bessel function of the first kind.

    Requires ``order > -1`` and elementwise ``z >= 0``.  ``z = 0`` maps to
    the series limit: 0 for order 0, ``-inf`` for positive order, ``+inf``
    for order in (-1, 0).
    """
    if not (order > -1.0):
        raise DomainError(f"Bessel order must exceed -1, got {order}")
    z = np.asarray(z, dtype=float)
    if z.size:
        lo, hi = z.min(), z.max()
        if not (lo >= 0.0 and math.isfinite(hi)):
            raise DomainError("Bessel argument must be finite and nonnegative")
        if lo > 0.0 and hi <= _SERIES_Z_MAX and (
            _series_terms_needed(order, hi) <= _SERIES_TERM_CAP
        ):
            # every element takes the series, which the masks below would
            # hand the same values in the same order
            return _log_bessel_series(order, z.ravel()).reshape(z.shape)

    out = np.empty_like(z)
    zero = z == 0.0
    if zero.any():
        if order == 0.0:
            out[zero] = 0.0
        elif order > 0.0:
            out[zero] = -np.inf
        else:
            out[zero] = np.inf
    small = (~zero) & (z <= _SERIES_Z_MAX)
    if _series_terms_needed(order, _SERIES_Z_MAX) > _SERIES_TERM_CAP:
        # Orders above ~1.16e4: the series outgrows its budget, but there
        # hypot(order, z) > 1e4 and the uniform expansion is exact in
        # double precision.  z is clamped at 700, past which the uniform
        # expansion runs anyway, so the term count fits a C long.
        capped = np.minimum(z, _SERIES_Z_MAX)
        needed = np.vectorize(_series_terms_needed, otypes=[int])(order, capped)
        small &= needed <= _SERIES_TERM_CAP
    if small.any():
        out[small] = _log_bessel_series(order, z[small])
    large = ~(zero | small)
    if large.any():
        out[large] = _log_bessel_uniform(order, z[large])
    return out


def log_bessel_i(order: float, z: float) -> LogValue:
    """log I_order(z) for real order > -1 and z >= 0, never overflowing."""
    value = log_bessel_i_array(order, np.array([float(z)]))
    return LogValue(float(value[0]))


def log_gamma_fn(x: float) -> float:
    """log Gamma(x) for x > 0.

    Thin wrapper over the C library ``lgamma``, which is accurate to a few
    ulp throughout the range used here (series denominators and chi-squared
    normalizing constants).
    """
    if not (x > 0) or not math.isfinite(x):
        raise DomainError(f"log-gamma argument must be positive, got {x}")
    return math.lgamma(x)


def chisq_cdf(y: float, df: float) -> float:
    """Central chi-squared CDF, P(Y <= y) for Y ~ chi2(df)."""
    if not (df > 0):
        raise DomainError(f"degrees of freedom must be positive, got {df}")
    if y < 0 or not math.isfinite(y):
        raise DomainError(f"chi-squared CDF argument must be nonnegative, got {y}")
    p = float(_sp.gammainc(df / 2.0, y / 2.0))
    return min(1.0, max(0.0, p))


def _chisq_log_pdf(y: float, df: float) -> float:
    return (
        (df / 2.0 - 1.0) * math.log(y)
        - y / 2.0
        - math.lgamma(df / 2.0)
        - (df / 2.0) * math.log(2.0)
    )


def chisq_quantile(p: float, df: float) -> float:
    """Inverse of :func:`chisq_cdf`: the y with P(Y <= y) = p.

    Bisection narrows the root to a 1e-8 bracket, then Newton steps polish
    it until the CDF residual drops below 1e-12 (falling back to bisection
    whenever a Newton step would leave the bracket).
    """
    if not (df > 0):
        raise DomainError(f"degrees of freedom must be positive, got {df}")
    if not (0.0 < p < 1.0):
        raise DomainError(f"quantile probability must lie in (0, 1), got {p}")

    lo = 0.0
    hi = df + 10.0 * math.sqrt(2.0 * df) + 30.0
    for _ in range(400):
        if chisq_cdf(hi, df) >= p:
            break
        lo, hi = hi, hi * 2.0
    else:  # pragma: no cover - cdf(hi) -> 1 long before this
        raise NoRootError("chi-squared quantile bracket expansion failed")

    while hi - lo > 1e-8:
        mid = 0.5 * (lo + hi)
        if chisq_cdf(mid, df) < p:
            lo = mid
        else:
            hi = mid

    y = 0.5 * (lo + hi)
    for _ in range(12):
        resid = chisq_cdf(y, df) - p
        if abs(resid) <= 1e-12:
            break
        if resid < 0:
            lo = y
        else:
            hi = y
        pdf = math.exp(_chisq_log_pdf(y, df)) if y > 0 else 0.0
        step_ok = pdf > 0
        if step_ok:
            y_new = y - resid / pdf
            step_ok = lo < y_new < hi
        y = y_new if step_ok else 0.5 * (lo + hi)
    return max(0.0, y)


def noncentral_chisq_sf(y: float, dist: NoncentralChiSq) -> float:
    """Survival function P(Y > y) of a noncentral chi-squared variable.

    Computed as a Poisson(noncentrality/2)-weighted mixture of central
    chi-squared survival functions.  The mixture window is centered on the
    Poisson mode and widened until the neglected weight is below 1e-12, so
    the truncation error never exceeds that mass.
    """
    if y < 0 or not math.isfinite(y):
        raise DomainError(f"survival-function argument must be nonnegative, got {y}")
    lam = dist.noncentrality / 2.0
    if lam == 0.0:
        # exact reduction to the central law
        return min(1.0, max(0.0, float(_sp.gammaincc(dist.df / 2.0, y / 2.0))))
    if y == 0.0:
        return 1.0

    half_width = 8.5 * math.sqrt(lam) + 25.0
    k_lo = max(0, int(math.floor(lam - half_width)))
    k_hi = int(math.ceil(lam + half_width))
    log_lam = math.log(lam)
    for _ in range(60):
        k = np.arange(k_lo, k_hi + 1, dtype=float)
        weights = np.exp(k * log_lam - lam - _sp.gammaln(k + 1.0))
        neglected = 1.0 - float(weights.sum())
        if neglected < _MIXTURE_TAIL:
            break
        k_lo = max(0, k_lo - 32)
        k_hi += 32
    else:  # pragma: no cover - coverage grows monotonically with the window
        raise SeriesError("Poisson mixture window failed to capture 1 - 1e-12 mass")

    sf_terms = _sp.gammaincc(dist.df / 2.0 + k, y / 2.0)
    total = float(weights @ sf_terms)
    return min(1.0, max(0.0, total))


def sample_noncentral_chisq(dist: NoncentralChiSq, n: int, seed: int) -> np.ndarray:
    """Draw ``n`` variates, deterministically for a given ``seed``.

    Uses the Poisson-gamma representation: K ~ Poisson(noncentrality/2),
    then Y | K ~ Gamma(df/2 + K, scale 2).  Works for any real df > 0.
    """
    if n < 1:
        raise DomainError(f"sample size must be at least 1, got {n}")
    if seed < 0:
        raise DomainError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    k = rng.poisson(dist.noncentrality / 2.0, size=n)
    return rng.gamma(dist.df / 2.0 + k, 2.0)
