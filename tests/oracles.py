"""Independent numerical oracles used across the test suite.

These deliberately avoid the package's own evaluation paths: Bessel values
come from direct high-precision summation of the ascending series (mpmath),
central chi-squared probabilities from quadrature of the density, the
df = 1 Bayes factor and boundary from elementary closed forms, and
densities for normalization checks from scipy's independently implemented
scaled Bessel function.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
from scipy import integrate as _integrate
from scipy import special as _sp


def bessel_series_mp(order: float, z: float, terms: int = 500, dps: int = 60):
    """Direct summation of the ascending I_order series in extended precision."""
    with mp.workdps(dps):
        order_, z_ = mp.mpf(order), mp.mpf(z)
        total = mp.mpf(0)
        half = z_ / 2
        for j in range(terms):
            total += half ** (2 * j + order_) / (mp.gamma(order_ + j + 1) * mp.factorial(j))
        return total


def log_bessel_series_mp(order: float, z: float, terms: int = 500) -> float:
    with mp.workdps(60):
        return float(mp.log(bessel_series_mp(order, z, terms)))


def lgamma_by_recursion(x: float, steps: int) -> float:
    """log Gamma(x) from Gamma(t+1) = t Gamma(t), seeded by mpmath at x - steps."""
    base = x - steps
    with mp.workdps(50):
        acc = mp.log(mp.gamma(mp.mpf(base)))
        for k in range(steps):
            acc += mp.log(mp.mpf(base) + k)
        return float(acc)


def chisq_density(y: float, df: float) -> float:
    if y <= 0:
        return 0.0
    return math.exp(
        (df / 2 - 1) * math.log(y) - y / 2 - math.lgamma(df / 2) - (df / 2) * math.log(2)
    )


def chisq_cdf_by_quadrature(y: float, df: float) -> float:
    """Central chi-squared CDF by quadrature with a sqrt substitution.

    The u = sqrt(y) change of variables removes the integrable endpoint
    singularity that appears for df < 2.
    """
    value, _ = _integrate.quad(
        lambda u: chisq_density(u * u, df) * 2 * u, 0.0, math.sqrt(y), limit=200
    )
    return value


def noncentral_chisq_log_density(y: float, df: float, theta: float) -> float:
    """Log of the noncentral chi-squared density via scipy's scaled Bessel."""
    z = math.sqrt(theta * y)
    order = df / 2 - 1
    log_bessel = math.log(_sp.ive(order, z)) + z
    return (
        math.log(0.5)
        - (y + theta) / 2
        + (df / 4 - 0.5) * (math.log(y) - math.log(theta))
        + log_bessel
    )


def noncentral_chisq_mass_below(y_max: float, df: float, theta: float) -> float:
    """Integral of the noncentral density over (0, y_max) by quadrature."""
    def integrand(u: float) -> float:
        y = u * u
        if y == 0.0:
            return 0.0
        return math.exp(noncentral_chisq_log_density(y, df, theta)) * 2 * u

    value, _ = _integrate.quad(integrand, 0.0, math.sqrt(y_max), limit=400)
    return value


def nu1_log_bf(y: float, theta: float) -> float:
    """df = 1 closed form: g = exp(-theta/2) cosh(sqrt(theta y))."""
    z = math.sqrt(theta * y)
    # log cosh without overflow
    return -theta / 2 + (abs(z) + math.log1p(math.exp(-2 * abs(z))) - math.log(2))


def nu1_boundary(theta: float, gamma: float) -> float:
    """df = 1 closed-form rejection boundary arccosh(gamma e^{theta/2})^2 / theta."""
    return math.acosh(gamma * math.exp(theta / 2)) ** 2 / theta


def nu1_theta_star(gamma: float) -> float:
    """Minimize the df = 1 closed-form boundary by dense scan plus refinement."""
    thetas = np.geomspace(1e-4, 60.0, 50_000)
    values = np.array([nu1_boundary(t, gamma) for t in thetas])
    i = int(np.argmin(values))
    lo, hi = thetas[max(i - 1, 0)], thetas[min(i + 1, len(thetas) - 1)]
    invphi = (math.sqrt(5) - 1) / 2
    a, b = float(lo), float(hi)
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = nu1_boundary(c, gamma), nu1_boundary(d, gamma)
    while b - a > 1e-10:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = nu1_boundary(c, gamma)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = nu1_boundary(d, gamma)
    return 0.5 * (a + b)


def normal_mean_theta_star(theta0: float, sigma2: float, n: int, gamma: float,
                           side: str) -> float:
    """Closed-form alternative for the known-variance normal mean test."""
    shift = math.sqrt(2.0 * sigma2 * math.log(gamma) / n)
    return theta0 + shift if side == "greater" else theta0 - shift


def normal_variance_theta_star_mp(theta0: float, n: int, gamma: float,
                                  side: str) -> float:
    """Root of r - 1 - log r = 2 log(gamma) / n in r = theta / theta0 (mpmath).

    The root lies in [e^(-1-c), e^(-c)] below 1 and in [1 + c, 2 (1 + c)]
    above it, where c = 2 log(gamma) / n.
    """
    with mp.workdps(50):
        c = 2 * mp.log(mp.mpf(gamma)) / n
        if side == "greater":
            bracket = (1 + c, 2 * (1 + c))
        else:
            bracket = (mp.exp(-1 - c), mp.exp(-c))
        r = mp.findroot(lambda x: x - 1 - mp.log(x) - c, bracket, solver="anderson")
        return float(r * mp.mpf(theta0))


def binomial_theta_star_mp(theta0: float, trials: int, n: int, gamma: float,
                           side: str) -> float:
    """Root of n m KL(Bernoulli(theta) || Bernoulli(theta0)) = log gamma.

    Bisection in 50-digit mpmath between theta0 and the parameter edge; the
    caller keeps gamma below the edge bound so the root is interior.
    """
    with mp.workdps(50):
        t0, target = mp.mpf(theta0), mp.log(mp.mpf(gamma))

        def excess(t):
            kl = t * mp.log(t / t0) + (1 - t) * mp.log((1 - t) / (1 - t0))
            return n * trials * kl - target

        edge = mp.mpf(1) if side == "greater" else mp.mpf(0)
        lo, hi = t0, edge
        for _ in range(200):
            mid = (lo + hi) / 2
            if excess(mid) < 0:
                lo = mid
            else:
                hi = mid
        return float((lo + hi) / 2)
