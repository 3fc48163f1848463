"""Most powerful alternatives for one-parameter exponential families.

For a one-sided test of a point null in an exponential family, the
evidence region for any alternative theta is bounded by a closed-form
statistic value, and minimizing that boundary (signed by the direction of
the natural parameter) yields the most powerful alternative: the root of
n KL(f_theta* || f_theta0) = log gamma on the alternative side.  Three
canned models are exercised: a binomial proportion, a normal mean with
known variance, and a normal variance with known mean.

The normal-mean case has the closed form theta* = theta0 + sigma
sqrt(2 log(gamma) / n), against which the solver is checked below.

Run:  python demos/05_exponential_families.py
"""

import math

from umpbt import ExpFamilyModel, expfam_log_bf, solve_umpbt_expfam

GAMMA = 3.0

print(f"evidence threshold gamma = {GAMMA}")
print()

# --- binomial proportion ---------------------------------------------------
binom = ExpFamilyModel(kind="binomial-proportion", theta0=0.5, n=20,
                       side="greater", nuisance=1.0)
sol = solve_umpbt_expfam(binom, GAMMA)
print("is a coin biased upward?  (20 tosses, null p = 1/2)")
print(f"  most powerful alternative p* = {sol.theta_star:.4f}")
print(f"  reject when total successes exceed {sol.boundary:.2f}")
print()

# --- normal mean, known variance -------------------------------------------
mean = ExpFamilyModel(kind="normal-mean-known-variance", theta0=0.0, n=16,
                      side="greater", nuisance=4.0)
sol = solve_umpbt_expfam(mean, GAMMA)
closed = math.sqrt(2.0 * 4.0 * math.log(GAMMA) / 16)
print("is a normal mean positive?  (n = 16, known variance 4)")
print(f"  solver theta*      = {sol.theta_star:.6f}")
print(f"  closed form        = {closed:.6f}")
print(f"  reject when the sum of observations exceeds {sol.boundary:.3f}")
print()

# --- normal variance, known mean -------------------------------------------
var = ExpFamilyModel(kind="normal-variance-known-mean", theta0=1.0, n=12,
                     side="greater", nuisance=0.0)
sol = solve_umpbt_expfam(var, GAMMA)
print("is a normal variance above 1?  (n = 12, known mean 0)")
print(f"  most powerful alternative sigma^2* = {sol.theta_star:.4f}")
print(f"  reject when the sum of squares exceeds {sol.boundary:.3f}")
print()

# the boundary is exactly where the Bayes factor crosses the threshold
log_bf = expfam_log_bf(sol.boundary, sol.theta_star, var)
print(f"  BF at that boundary = {math.exp(log_bf):.6f} (= gamma)")
print()

# --- lower-sided test mirrors the upper-sided one ---------------------------
mean_less = ExpFamilyModel(kind="normal-mean-known-variance", theta0=0.0, n=16,
                           side="less", nuisance=4.0)
sol_less = solve_umpbt_expfam(mean_less, GAMMA)
print("the lower-sided mean test is the mirror image:")
print(f"  theta* = {sol_less.theta_star:.6f}, "
      f"reject when the sum falls below {sol_less.boundary:.3f} "
      f"(direction {sol_less.direction})")
