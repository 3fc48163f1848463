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

# The one branch rule: the power series for 0 < z <= 700 at orders up to
# _SERIES_ORDER_MAX, the largest whose series at z = 700 fits
# _SERIES_TERM_CAP terms; the uniform expansion for every other z > 0.
_SERIES_Z_MAX = 700.0
_SERIES_TERM_CAP = 1000
_SERIES_ORDER_MAX = 11607.429237724386
# Rows per block of the series workspace (about 2 MB at 250 terms).
_SERIES_BLOCK = 1024
_MIXTURE_TAIL = 1e-17
_MAX_NONCENTRALITY = 1e8
# log g sums terms of the size of lgamma(df/2), whose rounding reaches log
# gamma's scale past this: at gamma 3, (r(theta*) - df) / sqrt(2 df) is
# 1.4824 at df 1e8 against its limit 1.4823, but 2.41 at 1e10
_DF_MAX = 1e8
# 100 times the largest df a sweep of chisq, bf and power saw fail, 8.9e-13;
# the Bessel order df/2 - 1 rounds to -1 below 1.1e-16
_DF_MIN = 1e-10
# most draws per call: an 8 GiB array of float64
_MAX_DRAWS = 2**30
# stirlerr(k) = log k! - (k + 1/2) log k + k - log(2 pi) / 2 for k = 1..35,
# where lgamma still resolves it (index 0 is unused)
_STIRLERR_HEAD = np.array([0.0] + [
    math.lgamma(k + 1.0) - (k + 0.5) * math.log(k) + k - 0.5 * math.log(2.0 * math.pi)
    for k in range(1, 36)])


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


def _check_df(df: float) -> None:
    """The one df rule of the chi-squared laws and of every test built on them."""
    if not (_DF_MIN <= df <= _DF_MAX):
        raise DomainError(f"degrees of freedom df={df} must lie in [1e-10, 1e8]")


def _check_statistic(y: float) -> None:
    """The one rule for a chi-squared statistic: nonnegative and finite."""
    if not (y >= 0) or not math.isfinite(y):
        raise DomainError(f"statistic must be nonnegative, got {y}")


@dataclass(frozen=True)
class NoncentralChiSq:
    """Noncentral chi-squared law with real degrees of freedom.

    ``noncentrality = 0`` reduces exactly to the central chi-squared
    distribution.  Above 1e8 (a 1.2e5-term survival-function window, ~0.5 s)
    it is a domain error; default power grids stay below 3e7 for df <= 1e10.
    """

    df: float
    noncentrality: float

    def __post_init__(self) -> None:
        _check_df(self.df)
        if not 0.0 <= self.noncentrality <= _MAX_NONCENTRALITY:
            raise DomainError(f"noncentrality theta_t must lie in [0, {_MAX_NONCENTRALITY:g}], "
                              f"got {self.noncentrality:g}")


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
    """log I_order(z) by the ascending power series, for a 1-D z in (0, 700]
    and an order up to ``_SERIES_ORDER_MAX``, where the row fits the table.

    The series sum_j (z/2)^(2j+order) / (Gamma(order+j+1) j!) is evaluated
    entirely in log scale: each term's log is (2j+order) log(z/2) less the
    log-gamma factors, which come from the order's cached ``_series_table``,
    and a max-shifted log-sum-exp collapses them so the peak term (which
    exceeds linear range near z = 700) never materializes.

    The reduction reproduces the arithmetic of ``scipy.special.logsumexp``
    bit for bit: the terms equal to the row maximum leave the sum and come
    back as ``log(m)``.  The benchmark's correctness gate checks theta* at
    1e-8 relative against values recorded with that function, and a
    one-ulp change in log I moves theta* past it.

    An array runs in place over one workspace of ``_SERIES_BLOCK`` rows, so
    a large array, which any caller of the public ``log_bessel_i_array``
    may pass, never holds its full term matrix.  The term count is sized
    from ``z.max()`` of the whole array, so blocking does not change any
    value.

    A single value, which each golden-section and root-finding step of the
    solver asks for, takes a lane of its own: a float z returns a float64
    from one 1-D row of terms reduced by ``np.maximum.reduce`` and
    ``np.add.reduce`` on numpy scalars, without the workspace, the 2-D
    broadcasts or the loop; a one-element array takes the lane too.  Its
    bits equal those of the blocked path: the elementwise ufuncs give the
    same result on a scalar, a row or a block, and the pairwise sum of one
    row is the sum the blocked path takes along each of its rows.
    """
    one = isinstance(z, float)
    if not one and z.size == 1:
        return _log_bessel_series(order, float(z[0])).reshape(1)
    z_max = z if one else float(z.max())
    n_terms = _series_terms_needed(order, z_max)
    powers, log_gamma_order, log_factorial = [
        column[:n_terms] for column in _series_table(order)
    ]
    if one:
        terms = np.log(z / 2.0) * powers
        terms -= log_gamma_order
        terms -= log_factorial
        peak = np.maximum.reduce(terms)
        terms -= peak
        top = terms == 0.0
        m = float(np.count_nonzero(top))
        np.exp(terms, out=terms)
        np.copyto(terms, 0.0, where=top)
        s = np.add.reduce(terms) / m
        return np.log1p(s) + np.log(m) + peak

    log_half = np.log(z / 2.0)
    out = np.empty_like(log_half)
    work = np.empty((min(z.size, _SERIES_BLOCK), n_terms))
    for start in range(0, z.size, _SERIES_BLOCK):
        stop = min(start + _SERIES_BLOCK, z.size)
        terms = work[: stop - start]
        np.multiply(log_half[start:stop, None], powers, out=terms)
        terms -= log_gamma_order
        terms -= log_factorial
        peak = np.maximum.reduce(terms, axis=1)
        terms -= peak[:, None]
        top = terms == 0.0
        m = np.add.reduce(top, axis=1, dtype=float)
        np.exp(terms, out=terms)
        np.copyto(terms, 0.0, where=top)
        s = np.add.reduce(terms, axis=1)
        s /= m  # logsumexp skips the division when s == 0; 0 / m is 0 too
        out[start:stop] = np.log1p(s) + np.log(m) + peak
    return out


def _log_bessel_uniform(order: float, z: np.ndarray) -> np.ndarray:
    """log I_order(z) by the uniform large-parameter expansion.

    Used for z > 700 and for orders above ``_SERIES_ORDER_MAX``.  Valid
    uniformly in the order because the expansion parameter is
    1/sqrt(order^2 + z^2) < 1/700 there; four correction polynomials
    leave a truncation error below 1e-13 on the log value.  Negative orders in
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

    Requires ``order > -1`` and elementwise ``z >= 0``; the branch rule is
    stated at ``_SERIES_ORDER_MAX``.  ``z = 0`` maps to the series limit:
    0 for order 0, ``-inf`` for positive order, ``+inf`` for order in (-1, 0).
    A float z returns a float64, as a numpy ufunc does, with the bits of a
    one-element array: the series takes it in its one-value lane, and any
    other branch as a one-element array.
    """
    if not (order > -1.0):
        raise DomainError(f"Bessel order must exceed -1, got {order}")
    one = isinstance(z, float)
    z = z if one else np.asarray(z, dtype=float)
    series_fits = order <= _SERIES_ORDER_MAX
    if one or z.size:
        lo, hi = (z, z) if one else (z.min(), z.max())
        if not (lo >= 0.0 and math.isfinite(hi)):
            raise DomainError("Bessel argument must be finite and nonnegative")
        if series_fits and lo > 0.0 and hi <= _SERIES_Z_MAX:
            # every element takes the series, which the masks below would
            # hand the same values in the same order
            return (_log_bessel_series(order, z) if one
                    else _log_bessel_series(order, z.ravel()).reshape(z.shape))
        if one:
            return log_bessel_i_array(order, np.array([z]))[0]

    out = np.empty_like(z)
    zero = z == 0.0
    if zero.any():
        if order == 0.0:
            out[zero] = 0.0
        elif order > 0.0:
            out[zero] = -np.inf
        else:
            out[zero] = np.inf
    small = (~zero) & (z <= _SERIES_Z_MAX) & series_fits
    if small.any():
        out[small] = _log_bessel_series(order, z[small])
    large = ~(zero | small)
    if large.any():
        out[large] = _log_bessel_uniform(order, z[large])
    return out


def log_bessel_i(order: float, z: float) -> LogValue:
    """log I_order(z) for real order > -1 and z >= 0, never overflowing."""
    return LogValue(float(log_bessel_i_array(order, float(z))))


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
    _check_df(df)
    _check_statistic(y)
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

    Bisection narrows the root to a 1e-8 bracket (one ulp above 2**26),
    then Newton steps polish it until the CDF residual drops below 1e-12
    (falling back to bisection whenever a Newton step would leave the bracket).
    """
    _check_df(df)
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
        if mid in (lo, hi):  # one ulp apart, above y = 2**26
            break
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


def _log_poisson_weights(k: np.ndarray, lam: float) -> np.ndarray:
    """log(lam^k e^-lam / k!) over an ascending arange k >= 0, to a few ulps
    of its size.

    Loader's saddle-point form -bd0 - stirlerr(k) - log(2 pi k) / 2 keeps
    k log lam, lam and log k!, each near 1e4 at lam = 2500, from cancelling:
    bd0 = k log(k / lam) + lam - k is summed from two terms of the size of
    k - lam, and stirlerr, the error of Stirling's formula for log k!, comes
    from its asymptotic series above k = 35 and from a table below.
    """
    k1 = np.maximum(k, 1.0)  # k = 0 has log weight -lam, set at the end
    d = k1 - lam
    inv2 = 1.0 / (k1 * k1)
    stirlerr = (((-1.0 / 1680) * inv2 + 1.0 / 1260) * inv2 - 1.0 / 360) * inv2 + 1.0 / 12
    stirlerr /= k1
    if k1[0] <= 35.0:
        head = int(np.searchsorted(k1, 35.5))
        stirlerr[:head] = _STIRLERR_HEAD[k1[:head].astype(np.intp)]
    log_w = d - k1 * np.log1p(d / lam) - stirlerr - 0.5 * np.log(2.0 * math.pi * k1)
    if k[0] == 0.0:
        log_w[0] = -lam
    return log_w


def _tail_negligible(edge: float, inner: float) -> bool:
    """Whether terms beyond ``edge`` sum below 1e-17 of the largest term.

    ``edge`` and its neighbour ``inner`` are relative to the largest term.
    The mixture terms are log-concave in k, so past the edge they fall at
    least by the ratio r = edge / inner per step and sum to at most
    edge r / (1 - r).  An edge term that underflows to 0 leaves a tail no
    larger than its central chi-squared factor, below 1e-308.
    """
    return edge == 0.0 or (edge < inner and edge * edge <= _MIXTURE_TAIL * (inner - edge))


def noncentral_chisq_sf(y: float, dist: NoncentralChiSq) -> float:
    """Survival function P(Y > y) of a noncentral chi-squared variable.

    Computed as the Poisson(noncentrality/2) mixture of central chi-squared
    survival functions, sum_k w_k Q(df/2 + k, y/2), in log scale and
    relative to its largest term.  The window starts around the k where the
    terms peak, which in the far upper tail is the peak of the Bessel
    series of the density at y rather than the Poisson mode, and widens on
    each side until the terms it leaves out sum below 1e-17 of the largest.
    So the value keeps its relative precision however far in the tail y
    lies, down to the underflow of double precision.
    """
    _check_statistic(y)
    lam = dist.noncentrality / 2.0
    if lam == 0.0:
        # exact reduction to the central law
        return min(1.0, max(0.0, float(_sp.gammaincc(dist.df / 2.0, y / 2.0))))
    if y == 0.0:
        return 1.0
    # Chernoff at t = 1/4: P(Y > y) <= exp(lam + (df/2) log 2 - y/4), which
    # below 2^-1075 rounds to 0, and a window sized from such a y can take
    # gigabytes
    if lam + 0.5 * dist.df * math.log(2.0) - 0.25 * y < -1075.0 * math.log(2.0):
        return 0.0

    a, x = dist.df / 2.0, y / 2.0
    centre = max(lam, 0.5 * (math.sqrt(a * a + 4.0 * lam * x) - a))
    half_width = int(math.ceil(8.5 * math.sqrt(centre) + 25.0))
    k_lo = max(0, int(centre) - half_width)
    k_hi = int(centre) + half_width
    for _ in range(60):
        k = np.arange(k_lo, k_hi + 1, dtype=float)
        q = _sp.gammaincc(a + k, x)
        # a factor that underflows to 0 gives a term of log -inf
        log_terms = _log_poisson_weights(k, lam) + np.log(q, out=np.full_like(q, -np.inf),
                                                          where=q > 0.0)
        peak = float(log_terms.max())
        if peak == -math.inf:
            return 0.0  # every term is below the smallest subnormal
        terms = np.exp(log_terms - peak)
        grow_lo = k_lo > 0 and not _tail_negligible(float(terms[0]), float(terms[1]))
        grow_hi = not _tail_negligible(float(terms[-1]), float(terms[-2]))
        if not (grow_lo or grow_hi):
            break
        k_lo = max(0, k_lo - half_width) if grow_lo else k_lo
        k_hi = k_hi + half_width if grow_hi else k_hi
    else:  # pragma: no cover - the terms fall faster than geometrically
        raise SeriesError("Poisson mixture window failed to reach a 1e-17 relative tail")
    return min(1.0, math.exp(peak) * float(terms.sum()))


def _check_draws(n: int, seed: int) -> None:
    """The one rule for a draw count and its seed, checked before any draw."""
    if isinstance(n, bool) or not hasattr(n, "__index__") or not 1 <= n <= _MAX_DRAWS:
        raise DomainError(f"n_draws must be an integer in [1, 2**30], got {n!r}")
    if isinstance(seed, bool) or not hasattr(seed, "__index__") or seed < 0:
        raise DomainError(f"seed must be a nonnegative integer, got {seed!r}")


def sample_noncentral_chisq(dist: NoncentralChiSq, n: int, seed: int) -> np.ndarray:
    """Draw ``n`` variates, deterministically for a given ``seed``.

    One call to numpy's ``Generator.noncentral_chisquare``, which works for
    any real df > 0.  For df > 1 each draw is chi2(df - 1) + (Z + sqrt(nc))^2,
    one gamma and one normal; for df <= 1 it is chi2(df + 2K) with
    K ~ Poisson(nc / 2).  At noncentrality 0 each draw is 2 Gamma(df / 2),
    the bits of ``default_rng(seed).gamma(df / 2, 2.0, n)``.
    """
    _check_draws(n, seed)
    return np.random.default_rng(seed).noncentral_chisquare(dist.df, dist.noncentrality, n)
