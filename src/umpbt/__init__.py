"""Uniformly most powerful Bayesian tests.

Derives the alternative hypothesis that maximizes, uniformly over the
data-generating parameter, the probability that the Bayes factor exceeds a
chosen evidence threshold.  Covers noncentral chi-squared tests of
arbitrary degrees of freedom (hence Pearson independence tests on
contingency tables) and one-sided tests in one-parameter exponential
families, plus numerical power-dominance verification and a demonstration
that no such alternative exists for the one-sample t-test.
"""

# each module's __all__ is the one list of what it publishes
from .bayes import *  # noqa: F401,F403
from .contingency import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .power import *  # noqa: F401,F403
from .solver import *  # noqa: F401,F403
from .special import *  # noqa: F401,F403
from .ttest import *  # noqa: F401,F403

__version__ = "0.1.0"
