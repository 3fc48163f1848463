"""Independent numerical oracles used across the test suite.

These deliberately avoid the package's own evaluation paths: Bessel values
come from direct high-precision summation of the ascending series (mpmath),
central chi-squared probabilities from quadrature of the density, the
df = 1 Bayes factor and boundary from elementary closed forms, and
densities for normalization checks from scipy's independently implemented
scaled Bessel function.
"""

from __future__ import annotations

import functools
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


def log_bessel_mp(order: float, z: float, dps: int = 40) -> float:
    """log I_order(z) from ``mpmath.besseli`` in ``dps`` digits."""
    with mp.workdps(dps):
        return float(mp.log(mp.besseli(order, z)))


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


def expfam_log_bf_mp(y: float, theta: float, kind: str, theta0: float, n: int,
                     nuisance: float) -> float:
    """y (eta(theta) - eta(theta0)) - n (A(theta) - A(theta0)) in 50-digit
    mpmath, with eta and A taken straight from their definitions."""
    with mp.workdps(50):
        def eta_and_a(t):
            t = mp.mpf(t)
            if kind == "binomial-proportion":
                return mp.log(t) - mp.log(1 - t), -nuisance * mp.log(1 - t)
            if kind == "normal-mean-known-variance":
                return t / nuisance, t**2 / (2 * mp.mpf(nuisance))
            return -1 / (2 * t), mp.log(t) / 2

        (e1, a1), (e0, a0) = eta_and_a(theta), eta_and_a(theta0)
        return float(mp.mpf(y) * (e1 - e0) - n * (a1 - a0))


def rejection_boundary_mp(theta: float, gamma: float, df: float, y0: float) -> float:
    """Root y of log g(y, theta) = log gamma in 30-digit mpmath.

    log g is taken from its definition with ``mpmath.besseli`` and solved
    by the secant method in u = log y, started from the float root ``y0``.
    The series budget is raised so orders near 1.5e4 still converge.
    """
    with mp.workdps(30):
        theta_, df_ = mp.mpf(theta), mp.mpf(df)
        nu, target = df_ / 2 - 1, mp.log(mp.mpf(gamma))

        def excess(u):
            z = mp.sqrt(theta_ * mp.exp(u))
            return (mp.loggamma(df_ / 2) - theta_ / 2 + nu * mp.log(2) - nu * mp.log(z)
                    + mp.log(mp.besseli(nu, z, maxterms=10**6)) - target)

        u0 = mp.log(mp.mpf(y0))
        return float(mp.exp(mp.findroot(excess, (u0, u0 + mp.mpf("1e-10")))))


def noncentral_chisq_sf_mp(y: float, df: float, theta: float) -> float:
    """P(Y > y) as the Poisson(theta/2) mixture of central chi-squared tails.

    Each term w_k Q(df/2 + k, y/2) is taken in 50-digit mpmath.  The sum
    starts at the largest term, found by walking uphill from k = theta/2
    (the terms are log-concave in k), and runs down to k = 0 or until the
    terms fall 1e-40 below it, then up until they do.
    """
    with mp.workdps(50):
        lam, a, x = mp.mpf(theta) / 2, mp.mpf(df) / 2, mp.mpf(y) / 2

        @functools.lru_cache(maxsize=None)
        def term(k):
            weight = mp.exp(k * mp.log(lam) - lam - mp.loggamma(k + 1))
            return weight * mp.gammainc(a + k, x, mp.inf, regularized=True)

        k = int(lam)
        while term(k + 1) > term(k):
            k += 1
        while k > 0 and term(k - 1) > term(k):
            k -= 1
        peak = term(k)
        total, j = peak, k - 1
        while j >= 0 and (t := term(j)) > peak * mp.mpf("1e-40"):
            total, j = total + t, j - 1
        j = k + 1
        while (t := term(j)) > peak * mp.mpf("1e-40"):
            total, j = total + t, j + 1
        return float(total)


def matched_theta_star_mp(y: float, df: float, z0: float) -> float:
    """theta* = z^2 / y at the root of z / R(z) = y in 40-digit mpmath.

    R = I_{df/2} / I_{df/2-1} comes from ``mpmath.besseli``.  The secant
    method starts from the float root ``z0``: started cold next to y = df,
    it does not converge.
    """
    with mp.workdps(40):
        y_, nu = mp.mpf(y), mp.mpf(df) / 2 - 1

        def excess(z):
            return z * mp.besseli(nu, z) / mp.besseli(nu + 1, z) - y_

        z0_ = mp.mpf(z0)
        z = mp.findroot(excess, (z0_, z0_ * (1 + mp.mpf("1e-10"))))
        return float(z**2 / y_)


def t_argmax_mp(theta_t: float, setting, x0: float) -> float:
    """The t-test's most powerful alternative: the root in theta of dA/dtheta,
    where A = P(chi'2_n(mu^2) >= r) is the probability that the test accepts.

    In 40-digit mpmath, g = gamma^(2/(n + 2 alpha_prior)), c - theta0 =
    g (theta - theta0)/(g - 1), r = n (c - theta0)^2/(sigma^2 g) -
    2 beta/sigma^2 and mu = sqrt(n) (theta_t - c)/sigma.  A is the
    Poisson(mu^2/2) mixture of Q(n/2 + k, r/2), summed term by term from
    k = 0: each Q comes from the one before as Q(s + 1, x) = Q(s, x) +
    x^s e^-x / Gamma(s + 1), a sum of positive terms, and the sum stops once,
    past the largest term, a term falls below the working epsilon of the
    total.  ``mpmath.diff`` differentiates A and ``mpmath.findroot`` takes
    the root by the secant method from the float argmax ``x0``.
    """
    with mp.workdps(40):
        n, sigma = mp.mpf(setting.n), mp.mpf(setting.sigma_true)
        theta0, beta = mp.mpf(setting.theta0), mp.mpf(setting.beta_prior)
        g = mp.mpf(setting.gamma) ** (2 / (n + 2 * mp.mpf(setting.alpha_prior)))

        def accept(theta):
            shift = g * (theta - theta0) / (g - 1)
            lam = n * (mp.mpf(theta_t) - theta0 - shift) ** 2 / (2 * sigma**2)
            a, x = n / 2, n * shift**2 / (2 * sigma**2 * g) - beta / sigma**2
            weight, tail = mp.exp(-lam), mp.gammainc(a, x, mp.inf, regularized=True)
            step = mp.exp(a * mp.log(x) - x - mp.loggamma(a + 1))
            total, k = mp.mpf(0), 0
            while True:
                term = weight * tail
                total += term
                if term < mp.eps * total:     # only past the largest term
                    return total
                k += 1
                weight *= lam / k
                tail += step
                step *= x / (a + k)

        x0_ = mp.mpf(x0)
        return float(mp.findroot(lambda t: mp.diff(accept, t),
                                 (x0_, x0_ * (1 + mp.mpf("1e-10")))))
