"""README is held to the code.

Its Library tour runs as written: the ``>>>`` examples are doctests.  Each
bound of the Supported-domain table written in scientific notation or as a
power of 2 is its owner's constant, or, where the owner writes the number
inline, the end the owner accepts, one step short of a ``DomainError``.
Every test the Accuracy table names exists.
"""

import ast
import doctest
import math
import re
from pathlib import Path

import pytest

from umpbt import ChiSqTestSpec, DomainError, TTestSetting, match_gamma_to_alpha
from umpbt import bayes, cli, solver, special, ttest

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def test_library_tour(monkeypatch):
    monkeypatch.chdir(ROOT)  # the tour opens data/white.csv
    result = doctest.testfile(str(ROOT / "README.md"), module_relative=False)
    assert result.attempted >= 15
    assert result.failed == 0


def _table(heading):
    """The rows of the first table under ``## heading``, as lists of cells."""
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    lines = [line for line in section.splitlines() if line.startswith("|")]
    # a \| inside a cell is a literal bar; drop the header and the rule
    return [[cell.strip() for cell in re.split(r"(?<!\\)\|", line)[1:-1]]
            for line in lines[2:]]


_SUPERSCRIPT = str.maketrans("⁻⁰¹²³⁴⁵⁶⁷⁸⁹", "-0123456789")
# 1e8, 2.2250738585072014e-308, −1e100; 2³⁰, 2⁻⁵⁴
_BOUND = re.compile(r"[−-]?\d+(?:\.\d+)?e[−-]?\d+|2[⁻⁰¹²³⁴⁵⁶⁷⁸⁹]+")


def _bounds(text):
    numbers = []
    for token in _BOUND.findall(text):
        if token.startswith("2") and "e" not in token:
            numbers.append(2.0 ** int(token[1:].translate(_SUPERSCRIPT)))
        else:
            numbers.append(float(token.replace("−", "-")))
    return numbers


def _constant(value):
    def check(bound):
        assert bound == value
    return check


def _closed(owner, outward):
    """The owner accepts the bound and rejects the next double toward ``outward``."""
    def check(bound):
        owner(bound)
        with pytest.raises(DomainError):
            owner(math.nextafter(bound, outward))
    return check


def _open(owner, inward):
    """The owner rejects the bound and accepts the next double toward ``inward``."""
    def check(bound):
        with pytest.raises(DomainError):
            owner(bound)
        owner(math.nextafter(bound, inward))
    return check


def _match(alpha):
    match_gamma_to_alpha(ChiSqTestSpec(df=6.0, alpha=alpha))


def _mean(value):
    ttest._check_mean(value, "mean")


def _priors(bound):
    TTestSetting(n=10, beta_prior=bound)  # alpha_prior at 1e300 fails on sigma_true
    for name in ("alpha_prior", "beta_prior"):
        with pytest.raises(DomainError):
            TTestSetting(n=10, **{name: math.nextafter(bound, math.inf)})


def _sigma(value):
    TTestSetting(n=10, sigma_true=value)


def _sigma_floor(factor):
    """The floor factor * sqrt(n) gamma_n / (gamma_n - 1) at n 10, gamma 3."""
    g_minus_1 = math.expm1(2.0 * math.log(3.0) / 10)
    _closed(_sigma, 0.0)(factor * math.sqrt(10) * (1.0 + g_minus_1) / g_minus_1)


def _grid_count(bound):
    cli._parse_grid(f"1:2:{int(bound)}")
    with pytest.raises(DomainError):
        cli._parse_grid(f"1:2:{int(bound) + 1}")


# each row's input cell, and the checks of its bounds in the order its
# range cell gives them
DOMAIN_BOUNDS = {
    "df": ("df of a chi-squared test or law",
           [_constant(special._DF_MIN), _constant(special._DF_MAX)]),
    "alpha-of-a-match": ("α of a match", [_open(_match, 1.0)]),
    "theta": ("θ, an alternative", [_constant(bayes._THETA_MAX)]),
    "theta-of-a-boundary": ("θ of a boundary, lower end", [_constant(solver._BOUNDARY_MAX)]),
    "theta_t": ("θ_t, a data-generating noncentrality",
                [_constant(special._MAX_NONCENTRALITY)]),
    "t-test-means": ("t-test means θ0, θ, θ_t and the sample mean y of `t_log_bf`",
                     [_closed(_mean, -math.inf), _closed(_mean, math.inf)]),
    "t-test-priors": ("t-test priors `alpha_prior`, `beta_prior`", [_priors]),
    "t-test-sigma": ("t-test σ (`sigma_true`), with γ_n = γ^(2/(n + 2α))",
                     [_sigma_floor, _closed(_sigma, math.inf)]),
    "bessel-z": ("z of the log-Bessel kernel (`log_bessel_i_array`, `log_bessel_i`)",
                 [_constant(special._Z_MIN)]),
    "n_draws": ("n_draws (`--mc`, `--draws`)", [_constant(special._MAX_DRAWS)]),
    "grid-count": ("grid spec (`--theta-grid`, `--theta-t-grid`)", [_grid_count]),
    "curve-df-max": ("`curve --df-max`", [_constant(special._DF_MAX)]),
}


def test_domain_table_names_every_checked_row():
    rows = {row[0] for row in _table("Supported domain") if _bounds(row[1])}
    assert rows == {label for label, _ in DOMAIN_BOUNDS.values()}


@pytest.mark.parametrize("row", DOMAIN_BOUNDS)
def test_domain_bounds_are_the_code(row):
    label, checks = DOMAIN_BOUNDS[row]
    bounds = _bounds({cells[0]: cells[1] for cells in _table("Supported domain")}[label])
    assert len(bounds) == len(checks)
    for bound, check in zip(bounds, checks):
        check(bound)


def _accuracy_tests():
    """(file, class, test) of each Accuracy row's tests.  A name without a
    file is in test_solver.py; one that starts with :: continues the last."""
    names = []
    for row in _table("Accuracy"):
        path = None
        for name in re.findall(r"`([^`]+)`", row[-1]):
            if name.startswith("::"):
                path = path[:-1] + [name[2:]]
            else:
                path = name.split("::")
                if not path[0].endswith(".py"):
                    path.insert(0, "test_solver.py")
            names.append(tuple(path))
    return names


def _defined(path):
    """Whether tests/<file> defines the class and test ``path`` names."""
    body = ast.parse((ROOT / "tests" / path[0]).read_text(encoding="utf-8")).body
    for name in path[1:]:
        body = next((node.body for node in body
                     if isinstance(node, (ast.ClassDef, ast.FunctionDef))
                     and node.name == name), None)
        if body is None:
            return False
    return True


def test_accuracy_table_names_existing_tests():
    names = _accuracy_tests()
    assert len(names) >= 19
    assert [name for name in names if not _defined(name)] == []
