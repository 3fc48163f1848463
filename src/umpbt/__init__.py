"""Uniformly most powerful Bayesian tests.

Derives the alternative hypothesis that maximizes, uniformly over the
data-generating parameter, the probability that the Bayes factor exceeds a
chosen evidence threshold.  Covers noncentral chi-squared tests of
arbitrary degrees of freedom (hence Pearson independence tests on
contingency tables) and one-sided tests in one-parameter exponential
families, plus numerical power-dominance verification and a demonstration
that no such alternative exists for the one-sample t-test.
"""

from .bayes import (
    ChiSqTestSpec,
    ExpFamilyModel,
    EXPFAM_KINDS,
    dlogbf_dy,
    expfam_log_bf,
    log_bf_ncchisq,
)
from .contingency import (
    ContingencyTable,
    IndependenceResult,
    independence_bf,
    parse_table,
    pearson_statistic,
)
from .errors import (
    DegenerateMarginError,
    DomainError,
    NoRootError,
    ParseError,
    SeriesError,
    SolverError,
    UmpbtError,
    ValidationError,
)
from .power import (
    DOMINANCE_MARGIN_TOL,
    DominanceReport,
    dominance_check,
    mc_rejection_rate,
    rejection_probability,
)
from .solver import (
    CurvePoint,
    DEFAULT_CURVE_ALPHAS,
    UmpbtSolution,
    gamma_vs_df_curve,
    match_gamma_to_alpha,
    rejection_boundary,
    rejection_boundary_grid,
    solve_umpbt_chisq,
    solve_umpbt_expfam,
)
from .special import (
    LogValue,
    NoncentralChiSq,
    chisq_cdf,
    chisq_quantile,
    log_bessel_i,
    log_bessel_i_array,
    log_gamma_fn,
    noncentral_chisq_sf,
    sample_noncentral_chisq,
)
from .ttest import (
    NonexistenceReport,
    QuadraticRegion,
    TTestArgmax,
    TTestSetting,
    nonexistence_demo,
    t_log_bf,
    t_region,
    t_rejection_prob,
)

__version__ = "0.1.0"
