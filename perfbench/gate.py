"""Correctness gate: checks every CLI output against independent computations.

Nothing here imports ``umpbt``.  The Bayes factor, the rejection boundary
and the chi-squared law are recomputed with scipy (``ive``, ``brentq``,
``scipy.stats.chi2``), and gamma / theta* are compared with the reference
recorded in ``reference.json``.  Each ``check_*`` returns the list of
problems found in one call's output; an empty list means it passed.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np
from scipy import optimize, special, stats

from catalog import pair_key

REL_TOL = 1e-8          # gamma and theta* against the recorded reference
SIZE_TOL = 1e-6         # |chi2.sf(boundary, df) - alpha|
LOGBF_TOL = 1e-6        # recomputed log BF / log gamma, times max(1, |value|)
MARGIN_TOL = 1e-10      # dominance max_margin ceiling
MC_SIGMAS = 5.0
# Worked example for data/white.csv, each to +-0.01.
WHITE = {"statistic": 12.65, "gamma": 3.46, "theta_star": 7.31, "bf": 3.52}


def parse_plain(text: str) -> tuple[dict, list[dict]]:
    """``key=value`` lines into a dict, ``row ...`` lines into a list of dicts."""
    record, rows = {}, []
    for line in text.splitlines():
        if line.startswith("row "):
            rows.append(dict(tok.split("=", 1) for tok in line[4:].split()))
        elif "=" in line:
            key, value = line.split("=", 1)
            record[key] = value
    return record, rows


def log_bf(y: float, theta: float, df: float) -> float:
    """log g(y, theta) of the noncentral chi-squared test, via scipy's ive."""
    z = math.sqrt(theta * y)
    order = df / 2.0 - 1.0
    scaled = float(special.ive(order, z))
    if scaled > 1e-300:
        log_i = math.log(scaled) + z
    else:  # ive underflows only for z far below the order: leading series term
        log_i = order * math.log(z / 2.0) - math.lgamma(order + 1.0)
    return (math.lgamma(df / 2.0) - theta / 2.0 + order * math.log(2.0)
            - order * math.log(z) + log_i)


def boundary(gamma: float, theta: float, df: float) -> float:
    """The y with log g(y, theta) = log gamma (g increases in y)."""
    log_gamma = math.log(gamma)

    def f(log_y):
        return log_bf(math.exp(log_y), theta, df) - log_gamma

    lo, hi = math.log(1e-10), math.log(df + 10.0)
    while f(hi) < 0.0:
        hi += 1.0
    return math.exp(optimize.brentq(f, lo, hi, xtol=1e-14, rtol=1e-15, maxiter=500))


def _rel_close(value: float, ref: float, tol: float = REL_TOL) -> bool:
    return abs(value - ref) <= tol * abs(ref)


def _check_matched(df: float, alpha: float, gamma: float, theta: float,
                   reference: dict, where: str) -> list[str]:
    problems = []
    ref_gamma, ref_theta = reference["match"][pair_key(df, alpha)]
    if not _rel_close(gamma, ref_gamma):
        problems.append(f"{where}: gamma {gamma!r} differs from reference {ref_gamma!r}")
    if not _rel_close(theta, ref_theta):
        problems.append(f"{where}: theta* {theta!r} differs from reference {ref_theta!r}")
    size = float(stats.chi2.sf(boundary(gamma, theta, df), df))
    if not abs(size - alpha) <= SIZE_TOL:
        problems.append(f"{where}: size {size!r} of the implied boundary is not alpha={alpha}")
    return problems


def pearson(counts: np.ndarray) -> float:
    counts = counts.astype(float)
    expected = np.outer(counts.sum(axis=1), counts.sum(axis=0)) / counts.sum()
    return float(((counts - expected) ** 2 / expected).sum())


def check_contingency(out: str, expect: dict, reference: dict) -> list[str]:
    rec, _ = parse_plain(out)
    try:
        df, alpha = int(rec["df"]), float(rec["alpha"])
        stat, gamma, theta = (float(rec[k]) for k in ("statistic", "gamma", "theta_star"))
        log_bf_out, bf = float(rec["log_bf"]), float(rec["bf"])
    except (KeyError, ValueError) as exc:
        return [f"contingency: malformed output ({exc!r})"]
    problems = []
    if alpha != expect["alpha"]:
        problems.append(f"contingency: alpha {alpha} is not the requested {expect['alpha']}")
    if expect.get("white"):
        if df != 6:
            problems.append(f"white.csv: df {df} is not 6")
        for key, value in (("statistic", stat), ("gamma", gamma), ("theta_star", theta),
                           ("bf", bf)):
            if not abs(value - WHITE[key]) <= 0.01:
                problems.append(f"white.csv: {key} {value} is not {WHITE[key]} +- 0.01")
    else:
        counts = expect["counts"]
        r, c = counts.shape
        if df != (r - 1) * (c - 1):
            problems.append(f"contingency: df {df} for a {r}x{c} table")
        ref_stat = pearson(counts)
        if not abs(stat - ref_stat) <= 1e-9 * max(1.0, ref_stat):
            problems.append(f"contingency: statistic {stat!r}, expected {ref_stat!r}")
    if problems:
        return problems
    problems += _check_matched(float(df), alpha, gamma, theta, reference, "contingency")
    if stat > 0:
        ref_log_bf = log_bf(stat, theta, float(df))
        if not abs(log_bf_out - ref_log_bf) <= LOGBF_TOL * max(1.0, abs(ref_log_bf)):
            problems.append(f"contingency: log_bf {log_bf_out!r}, expected {ref_log_bf!r}")
    return problems


def check_curve(out: str, csv_text: str, expect: dict, reference: dict) -> list[str]:
    """Problems in one curve call; each bad (df, alpha) point is one entry."""
    alphas, df_max = expect["alphas"], expect["df_max"]
    rec, _ = parse_plain(out)
    rows = list(csv.reader(io.StringIO(csv_text)))
    wanted = [(df, a) for df in range(1, df_max + 1) for a in alphas]
    if (rec.get("points") != str(len(wanted)) or not rows
            or rows[0] != ["df", "alpha", "gamma", "theta_star"] or len(rows) != len(wanted) + 1):
        return [f"curve: malformed output ({len(rows)} csv lines)"] * len(wanted)
    problems = []
    for (df, alpha), row in zip(wanted, rows[1:]):
        where = f"curve df={df} alpha={alpha}"
        try:
            vals = [float(v) for v in row]
        except ValueError:
            problems.append(f"{where}: malformed row {row}")
            continue
        if vals[0] != df or vals[1] != alpha:
            problems.append(f"{where}: row is for df={vals[0]} alpha={vals[1]}")
            continue
        point = _check_matched(float(df), alpha, vals[2], vals[3], reference, where)
        if point:
            problems.append("; ".join(point))
    return problems


def _mc_envelope(h: float, draws: int) -> float:
    """5 sigma of a binomial rate plus 5 counts, so the Poisson-like regime
    h ~ 1/draws (where the normal approximation is poor) is covered too."""
    return (MC_SIGMAS * math.sqrt(draws * h * (1.0 - h)) + MC_SIGMAS) / draws


def check_power(out: str, expect: dict, reference: dict) -> list[str]:
    """Problems in one power call; ``expect['draws']`` marks a Monte Carlo run."""
    rec, rows = parse_plain(out)
    df, gamma = expect["df"], expect["gamma"]
    draws = expect.get("draws")
    try:
        theta, bnd, margin = (float(rec[k]) for k in ("theta_star", "boundary", "max_margin"))
        verdict = rec["dominance"]
    except (KeyError, ValueError) as exc:
        return [f"power: malformed output ({exc!r})"]
    where = f"power df={df} gamma={gamma}"
    problems = []
    ref_theta = reference["solve"][pair_key(df, gamma)]
    if not _rel_close(theta, ref_theta):
        problems.append(f"{where}: theta* {theta!r} differs from reference {ref_theta!r}")
    if verdict != "pass" or not margin <= MARGIN_TOL:
        problems.append(f"{where}: dominance={verdict} max_margin={margin!r}")
    if not abs(log_bf(bnd, theta, df) - math.log(gamma)) <= LOGBF_TOL * max(1.0, math.log(gamma)):
        problems.append(f"{where}: log g(boundary, theta*) is not log gamma")
    expected_rows = 4 if draws is not None else 250
    if len(rows) != expected_rows:
        problems.append(f"{where}: {len(rows)} rows, expected {expected_rows}")
    for row in rows:
        h = float(row["h"])
        if not 0.0 <= h <= 1.0:
            problems.append(f"{where}: h={h} outside [0, 1]")
        if draws is not None:
            h_mc = float(row["h_mc"])
            if not abs(h_mc - h) <= _mc_envelope(h, draws):
                problems.append(f"{where} theta={row['theta']} theta_t={row['theta_t']}: "
                                f"h_mc={h_mc} outside the envelope of h={h}")
    return problems


def failed_units(kind: str, units: int, rc: int, out: str, file_text: str | None,
                 expect: dict, reference: dict) -> tuple[int, list[str]]:
    """Work items of one call that failed, with the problems found.

    A nonzero exit fails every item of the call; a curve call fails one item
    per bad (df, alpha) point and a Monte Carlo call the draws of each bad row.
    """
    if rc != 0:
        return units, [f"{kind}: exit status {rc}"]
    if kind == "contingency":
        problems = check_contingency(out, expect, reference)
        return (units if problems else 0), problems
    if kind == "curve":
        problems = check_curve(out, file_text or "", expect, reference)
        return min(units, len(problems)), problems
    problems = check_power(out, expect, reference)
    if not problems:
        return 0, problems
    if kind == "power_mc":
        bad_rows = sum("outside the envelope" in p for p in problems)
        whole_call = len(problems) > bad_rows
        return (units if whole_call else bad_rows * expect["draws"]), problems
    return units, problems
