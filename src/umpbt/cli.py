"""Command-line surface over the solver, power, table and t-test engines.

Output contract: ``plain`` format is line-oriented ``key=value`` (tabular
payloads render one ``row ...`` line per entry), ``--json`` emits a single
document holding the same payload, and numbers are rounded to 10
significant digits before rendering so both formats agree byte for byte.
Identical argv (seeds included) always produces byte-identical output.

Exit status: 0 on success, 1 on domain/validation/usage errors, 2 on
solver failures.  Diagnostics go to stderr as ``error: <category>: <detail>``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .bayes import ChiSqTestSpec, ExpFamilyModel, EXPFAM_KINDS, log_bf_ncchisq
from .contingency import independence_bf, parse_table
from .errors import DomainError, SolverError, UmpbtError
from .power import dominance_check, mc_rejection_rate
from .solver import (
    DEFAULT_CURVE_ALPHAS,
    UmpbtSolution,
    gamma_vs_df_curve,
    match_gamma_to_alpha,
    solve_umpbt_chisq,
    solve_umpbt_expfam,
)
from .special import LogValue
from .ttest import TTestSetting, nonexistence_demo

__all__ = ["run", "main"]


class _UsageError(Exception):
    def __init__(self, parser: argparse.ArgumentParser, message: str):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reports usage problems instead of exiting."""

    def error(self, message: str):  # noqa: A003 - argparse API
        raise _UsageError(self, message)


def _round10(x) -> float:
    """Round to the 10 significant digits used by every output format."""
    return float(f"{float(x):.10g}")


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.10g}"
    return str(v)


def render_plain(payload: dict) -> list[str]:
    """Line-oriented rendering shared by the plain path and the JSON round trip."""
    lines = []
    for key, value in payload.items():
        if key == "rows":
            for row in value:
                lines.append("row " + " ".join(f"{k}={_fmt(v)}" for k, v in row.items()))
        else:
            lines.append(f"{key}={_fmt(value)}")
    return lines


def _parse_float_list(text: str, flag: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise DomainError(f"{flag} expects comma-separated numbers, got {text!r}") from None
    if not values:
        raise DomainError(f"{flag} expects at least one number, got {text!r}")
    return values


def _parse_grid(spec: str) -> np.ndarray:
    """Grid specification ``start:stop:count[:log]``."""
    parts = spec.split(":")
    if len(parts) not in (3, 4):
        raise DomainError(f"grid spec {spec!r} must be start:stop:count[:log]")
    try:
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError:
        raise DomainError(f"grid spec {spec!r} has non-numeric fields") from None
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise DomainError(f"grid spec {spec!r} needs finite endpoints")
    if count < 1:
        raise DomainError(f"grid spec {spec!r} needs at least one point")
    if len(parts) == 4:
        if parts[3] != "log":
            raise DomainError(f"grid spec {spec!r}: unknown mode {parts[3]!r}")
        if start <= 0 or stop <= 0:
            raise DomainError(f"grid spec {spec!r}: log spacing needs positive endpoints")
        return np.geomspace(start, stop, count)
    return np.linspace(start, stop, count)


def _solution_payload(solution: UmpbtSolution) -> dict:
    payload = {}
    if solution.df is not None:
        payload["df"] = _round10(solution.df)
    payload.update(
        gamma=_round10(solution.gamma),
        theta_star=_round10(solution.theta_star),
        boundary=_round10(solution.boundary),
        direction=solution.direction,
    )
    return payload


def _solve_spec(df: float, gamma, alpha) -> UmpbtSolution:
    if gamma is not None:
        return solve_umpbt_chisq(ChiSqTestSpec(df=df, gamma=gamma))
    return match_gamma_to_alpha(ChiSqTestSpec(df=df, alpha=alpha))


# -- subcommand handlers --------------------------------------------------


def _cmd_chisq(args) -> dict:
    solution = _solve_spec(args.df, args.gamma, args.alpha)
    payload = {}
    if args.alpha is not None:
        payload["alpha"] = _round10(args.alpha)
    payload.update(_solution_payload(solution))
    return payload


def _cmd_bf(args) -> dict:
    solution = _solve_spec(args.df, args.gamma, args.alpha)
    log_bf = log_bf_ncchisq(args.stat, solution.theta_star, args.df)
    payload = {"stat": _round10(args.stat)}
    if args.alpha is not None:
        payload["alpha"] = _round10(args.alpha)
    payload.update(_solution_payload(solution))
    payload["log_bf"] = _round10(log_bf)
    payload["bf"] = _round10(LogValue(log_bf).exp())
    return payload


def _cmd_contingency(args) -> dict:
    with open(args.path, "rb") as handle:
        table = parse_table(handle, has_header=args.header,
                            has_row_labels=args.row_labels)
    result = independence_bf(table, alpha=args.alpha)
    return {
        "rows_count": table.shape[0],
        "cols_count": table.shape[1],
        "grand_total": result.grand_total,
        "statistic": _round10(result.statistic),
        "df": result.df,
        "alpha": _round10(result.alpha),
        "gamma": _round10(result.gamma),
        "theta_star": _round10(result.theta_star),
        "log_bf": _round10(result.log_bf),
        "bf": _round10(result.bf),
        "min_expected": _round10(result.min_expected),
    }


def _cmd_expfam(args) -> dict:
    model = ExpFamilyModel(kind=args.model, theta0=args.theta0, n=args.n,
                           side=args.side, nuisance=args.nuisance)
    solution = solve_umpbt_expfam(model, args.gamma)
    payload = {
        "model": args.model,
        "theta0": _round10(args.theta0),
        "n": args.n,
        "side": args.side,
        "nuisance": _round10(model.nuisance),
    }
    payload.update(_solution_payload(solution))
    return payload


def _cmd_power(args) -> dict:
    theta_grid = _parse_grid(args.theta_grid) if args.theta_grid else None
    theta_t_grid = _parse_grid(args.theta_t_grid) if args.theta_t_grid else None
    report = dominance_check(args.gamma, args.df, theta_grid, theta_t_grid)
    rows = []
    for theta, theta_t, h in report.curve.entries:
        row = {"theta_t": _round10(theta_t), "theta": _round10(theta),
               "h": _round10(h)}
        if args.mc is not None:
            row["h_mc"] = _round10(mc_rejection_rate(
                theta, theta_t, args.gamma, args.df, args.mc, args.seed))
        rows.append(row)
    payload = {
        "df": _round10(args.df),
        "gamma": _round10(args.gamma),
        "theta_star": _round10(report.theta_star),
        "boundary": _round10(report.boundary),
        "max_margin": _round10(report.max_margin),
        "dominance": "pass" if report.passed else "fail",
        "rows": rows,
    }
    return payload


def _cmd_curve(args) -> dict:
    alphas = _parse_float_list(args.alphas, "--alphas")
    points = gamma_vs_df_curve(alphas, args.df_max)
    lines = ["df,alpha,gamma,theta_star"]
    for p in points:
        lines.append(",".join(_fmt(_round10(v))
                              for v in (p.df, p.alpha, p.gamma, p.theta_star)))
    with open(args.output, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")
    return {
        "points": len(points),
        "df_max": args.df_max,
        "max_gamma": _round10(max(p.gamma for p in points)),
        "output": args.output,
    }


def _cmd_ttest_demo(args) -> dict:
    theta_ts = _parse_float_list(args.theta_t, "--theta-t")
    setting = TTestSetting(n=args.n, theta0=0.0, alpha_prior=0.0, beta_prior=0.0,
                           gamma=args.gamma, sigma_true=1.0)
    report = nonexistence_demo(setting, theta_ts, args.draws, args.seed)
    rows = [
        {
            "theta_t": _round10(r.theta_t),
            "argmax_theta": _round10(r.argmax_theta),
            "max_prob": _round10(r.max_prob),
            "plateau_lo": _round10(r.plateau_lo),
            "plateau_hi": _round10(r.plateau_hi),
        }
        for r in report.rows
    ]
    return {
        "n": setting.n,
        "theta0": _round10(setting.theta0),
        "alpha_prior": _round10(setting.alpha_prior),
        "beta_prior": _round10(setting.beta_prior),
        "sigma": _round10(setting.sigma_true),
        "gamma": _round10(setting.gamma),
        "draws": report.n_draws,
        "seed": report.seed,
        "refine_tol": _round10(report.refine_tol),
        "rows": rows,
        "nonexistence": report.nonexistence,
    }


# -- parser construction ---------------------------------------------------


def _add_gamma_alpha(parser: _Parser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--gamma", type=float, help="evidence threshold (> 1)")
    group.add_argument("--alpha", type=float,
                       help="classical size whose rejection region to match")


@functools.cache
def build_parser() -> _Parser:
    """The parser :func:`run` reuses, built on first use and not at import.

    Parsing keeps no state in the parser.  Building it takes about 1.7 ms,
    which only repeated ``run()`` calls in one process save: the test suite
    and the benchmark's worker make them, while the ``umpbt`` console script
    calls ``run()`` once per process and builds one parser either way.
    """
    parser = _Parser(prog="umpbt", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("chisq", help="derive the chi-squared test alternative")
    p.add_argument("--df", type=float, required=True)
    _add_gamma_alpha(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_chisq)

    p = sub.add_parser("bf", help="Bayes factor of an observed statistic")
    p.add_argument("--df", type=float, required=True)
    p.add_argument("--stat", type=float, required=True)
    _add_gamma_alpha(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_bf)

    p = sub.add_parser("contingency", help="independence test on a CSV table")
    p.add_argument("path")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--header", action="store_true",
                   help="first row holds column labels")
    p.add_argument("--row-labels", action="store_true",
                   help="first column holds row labels")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_contingency)

    p = sub.add_parser("expfam", help="exponential-family alternative")
    p.add_argument("--model", required=True, choices=EXPFAM_KINDS)
    p.add_argument("--theta0", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--side", required=True, choices=("greater", "less"))
    p.add_argument("--nuisance", type=float, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_expfam)

    p = sub.add_parser("power", help="power grid and dominance verdict")
    p.add_argument("--df", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--theta-grid", help="start:stop:count[:log]")
    p.add_argument("--theta-t-grid", help="start:stop:count[:log]")
    p.add_argument("--mc", type=int, default=None,
                   help="add Monte Carlo column with this many draws")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_power)

    p = sub.add_parser("curve", help="threshold-versus-df curve as CSV")
    p.add_argument("--alphas", default=",".join(str(a) for a in DEFAULT_CURVE_ALPHAS))
    p.add_argument("--df-max", type=int, required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_curve)

    p = sub.add_parser("ttest-demo", help="t-test non-existence demonstration")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--theta-t", required=True,
                   help="comma-separated data-generating means")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--draws", type=int, default=100_000)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_ttest_demo)

    return parser


def run(argv=None, stdout=None, stderr=None) -> int:
    """Execute one CLI invocation; returns the exit status without exiting."""
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    try:
        args = build_parser().parse_args(argv)
        payload = args.handler(args)
    except _UsageError as exc:
        print(exc.parser.format_usage(), end="", file=err)
        print(f"error: usage: {exc}", file=err)
        return 1
    except UmpbtError as exc:
        print(f"error: {exc.category}: {exc}", file=err)
        return 2 if isinstance(exc, SolverError) else 1
    except OverflowError as exc:
        print(f"error: domain: {exc}", file=err)
        return 1
    except OSError as exc:
        print(f"error: io: {exc}", file=err)
        return 1

    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2), file=out)
    else:
        for line in render_plain(payload):
            print(line, file=out)
    return 0


def main() -> None:
    sys.exit(run())
