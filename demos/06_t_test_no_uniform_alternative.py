"""Why the one-sample t-test has no uniformly most powerful alternative.

With unknown variance (non-informative inverse-gamma prior), the evidence
region in the sample mean is a bounded interval whose endpoints move with
the alternative in a non-nested way: no alternative's interval contains
everyone else's.  Consequently the alternative maximizing the rejection
probability depends on the data-generating mean, so no single alternative
is uniformly best.

This script makes that concrete.  The probability A that the test accepts
is exact, one quadrature over the chi-squared law of the within-sample
scale, so it keeps its precision where the test almost surely rejects.
The most powerful alternative is the root of dA/dtheta, which is closed
form up to a Bessel-function ratio: the one for a true mean of 2 differs
from the one for a true mean of 4.  A seeded Monte Carlo over simulated
datasets checks the rejection rate at each.

Run:  python demos/06_t_test_no_uniform_alternative.py
"""

from umpbt import TTestSetting, nonexistence_demo, t_region

setting = TTestSetting(n=10, theta0=0.0, alpha_prior=0.0, beta_prior=0.0,
                       gamma=3.0, sigma_true=1.0)

print(f"configuration: n = {setting.n}, null mean 0, gamma = {setting.gamma}, "
      f"non-informative variance prior, data sigma = {setting.sigma_true}")
print()

# --- non-nested evidence intervals -----------------------------------------
u_stat = 9.0  # a typical within-sample scale statistic for these data
print(f"evidence intervals in the sample mean at U = {u_stat}:")
for theta in (0.8, 1.5, 3.0):
    region = t_region(theta, u_stat, setting)
    print(f"  alternative {theta:4.1f}: ({region.lower:7.3f}, {region.upper:7.3f})")
print("  each interval sticks out of the others on one side: none dominates")
print()

# --- the most powerful alternative moves with the truth ---------------------
report = nonexistence_demo(setting, [2.0, 4.0], n_draws=100_000, seed=20250808)
print("exact search over alternatives (Monte Carlo check with "
      f"{report.n_draws} datasets per true mean):")
for row in report.rows:
    plateau = ""
    if row.plateau_hi > row.plateau_lo:
        plateau = (f"  [acceptance underflows to 0 on "
                   f"({row.plateau_lo:.3f}, {row.plateau_hi:.3f})]")
    print(f"  true mean {row.theta_t:g}: most powerful alternative "
          f"{row.argmax_theta:.6f}, rejection probability {row.max_prob:.10f} "
          f"(simulated {row.mc_prob:.5f}){plateau}")
print()

spread = abs(report.rows[1].argmax_theta - report.rows[0].argmax_theta)
print(f"the two argmaxes differ by {spread:.2f} "
      f"(resolution {report.refine_tol:.3f}), so no single alternative is "
      f"uniformly most powerful: non-existence flag = {report.nonexistence}")
