"""Seeded, deterministic input generation for the four workloads.

Everything the program sees is built here before timing starts: argv lists
and, for ``contingency``, CSV files written into the run's work directory.
Argv paths are relative to that directory (the worker runs there), so the
same seed yields byte-identical argv and files wherever the directory is.
Each ``Item`` also carries what the gate needs to check its output.
"""

from __future__ import annotations

import hashlib
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from catalog import (
    CONTINGENCY_ALPHAS,
    CURVE_ALPHAS,
    CURVE_DF_MAX,
    DF_LEVELS,
    GAMMA_LEVELS,
    load_reference,
    pair_key,
)

WORKLOADS = ("contingency", "curve", "power", "power_mc")

# Every table shape (r, c in 2..6) with each alpha, twice, plus white.csv:
# the seed draws the counts and the order, never the mix of (df, alpha),
# so the work in a round is the same on every seed.
CONTINGENCY_SHAPES = tuple((r, c) for r in range(2, 7) for c in range(2, 7))
CONTINGENCY_REPEATS = 2
CONTINGENCY_TABLES = len(CONTINGENCY_SHAPES) * len(CONTINGENCY_ALPHAS) * CONTINGENCY_REPEATS + 1
# Level index of each Monte Carlo stratum's df and gamma.
MC_STRATA = (0, 10, 20, 30)
# Draws per Monte Carlo row: four full 16,384-draw chunks of the sampler.
MC_DRAWS = 65536

# Items the traced run replays (a fixed prefix, so counts repeat exactly).
TRACE_ITEMS = {"contingency": 100, "curve": 2, "power": 6, "power_mc": 2}


@dataclass(frozen=True)
class Item:
    """One CLI invocation: its argv, the work items it completes, and what
    the gate needs (``kind`` selects the check)."""

    argv: tuple[str, ...]
    units: int
    kind: str
    expect: dict = field(default_factory=dict, compare=False)
    read_file: str | None = None


@dataclass(frozen=True)
class Plan:
    workload: str
    warmup: Item
    items: tuple[Item, ...]


def _table(rng: np.random.Generator, r: int, c: int) -> np.ndarray:
    """r x c counts, total log-uniform in [50, 5000]; half the tables
    independent, half with an association mixed in."""
    total = int(round(math.exp(rng.uniform(math.log(50.0), math.log(5000.0)))))
    probs = np.outer(rng.dirichlet(np.full(r, 2.0)), rng.dirichlet(np.full(c, 2.0)))
    if rng.random() < 0.5:
        weight = rng.uniform(0.2, 0.6)
        probs = (1.0 - weight) * probs + weight * rng.dirichlet(np.ones(r * c)).reshape(r, c)
    while True:
        counts = rng.multinomial(total, probs.ravel() / probs.sum()).reshape(r, c)
        if counts.sum(axis=0).all() and counts.sum(axis=1).all():
            return counts


def table_csv(counts: np.ndarray) -> bytes:
    header = "group," + ",".join(f"c{j + 1}" for j in range(counts.shape[1]))
    rows = [f"r{i + 1}," + ",".join(str(int(v)) for v in row)
            for i, row in enumerate(counts)]
    return ("\n".join([header, *rows]) + "\n").encode("utf-8")


def _contingency(rng, workdir: Path, white_csv: Path) -> tuple[Item, list[Item]]:
    shutil.copyfile(white_csv, workdir / "white.csv")

    def call(name: str, alpha: float, expect: dict) -> Item:
        return Item(("contingency", name, "--header", "--row-labels",
                     "--alpha", repr(alpha)), 1, "contingency",
                    dict(expect, alpha=alpha))

    white = call("white.csv", 0.05, {"white": True})
    specs = [(r, c, alpha) for r, c in CONTINGENCY_SHAPES for alpha in CONTINGENCY_ALPHAS
             for _ in range(CONTINGENCY_REPEATS)]
    items = []
    for k, index in enumerate(rng.permutation(len(specs))):
        r, c, alpha = specs[index]
        counts = _table(rng, r, c)
        name = f"t{k:04d}.csv"
        (workdir / name).write_bytes(table_csv(counts))
        items.append(call(name, alpha, {"counts": counts}))
    items.insert(int(rng.integers(len(items) + 1)), white)
    return white, items


def _curve(rng) -> tuple[Item, list[Item]]:
    """The four-size curve over df 1..120, one call per size in seeded
    order, so a round is four ~1 s calls rather than one long one."""
    def call(alphas, df_max, out):
        return Item(("curve", "--alphas", ",".join(repr(a) for a in alphas),
                     "--df-max", str(df_max), "-o", out), len(alphas) * df_max, "curve",
                    {"alphas": alphas, "df_max": df_max}, out)

    items = [call((alpha,), CURVE_DF_MAX, "curve.csv") for alpha in CURVE_ALPHAS]
    return call((0.05,), 1, "warmup.csv"), [items[i] for i in rng.permutation(len(items))]


def _power(rng) -> tuple[Item, list[Item]]:
    """Every other df level (the seed picks odd or even; both span the
    range) paired with a shuffled set of every other gamma level.  Sixteen
    configurations keep a round short enough for several rounds per run."""
    def call(df, gamma):
        return Item(("power", "--df", repr(df), "--gamma", repr(gamma)), 1, "power",
                    {"df": df, "gamma": gamma})

    dfs = DF_LEVELS[int(rng.integers(2))::2]
    gammas = rng.permutation(GAMMA_LEVELS[int(rng.integers(2))::2])
    items = [call(df, float(g)) for df, g in zip(dfs, gammas)]
    return call(DF_LEVELS[15], GAMMA_LEVELS[15]), [items[i] for i in rng.permutation(len(items))]


def _power_mc(rng) -> tuple[Item, list[Item]]:
    """One fixed configuration per stratum, df level k paired with gamma
    level k, spanning df from below 1 to about 100; the seed picks each
    Monte Carlo seed and the order.  Call cost and the Bessel workspace
    (which sets peak memory) grow with df and gamma, so fixing the levels
    keeps both the same on every seed."""
    solve = load_reference()["solve"]

    def call(df, gamma, draws, seed):
        theta_star = solve[pair_key(df, gamma)]
        thetas = f"{theta_star / 2:.6g}:{theta_star * 2:.6g}:2:log"
        theta_ts = f"0:{theta_star * 2:.6g}:2"
        return Item(("power", "--df", repr(df), "--gamma", repr(gamma),
                     "--theta-grid", thetas, "--theta-t-grid", theta_ts,
                     "--mc", str(draws), "--seed", str(seed)),
                    4 * draws, "power_mc", {"df": df, "gamma": gamma, "draws": draws})

    items = [call(DF_LEVELS[k], GAMMA_LEVELS[k], MC_DRAWS, int(rng.integers(2**31)))
             for k in MC_STRATA]
    return (call(DF_LEVELS[15], GAMMA_LEVELS[15], 1, 0),
            [items[i] for i in rng.permutation(len(items))])


def make_plan(workload: str, seed: int, workdir: Path, white_csv: Path) -> Plan:
    """Build the workload's inputs from ``seed``, writing files into ``workdir``."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "contingency":
        warmup, items = _contingency(rng, workdir, white_csv)
    elif workload == "curve":
        warmup, items = _curve(rng)
    elif workload == "power":
        warmup, items = _power(rng)
    elif workload == "power_mc":
        warmup, items = _power_mc(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return Plan(workload, warmup, tuple(items))


def inputs_digest(plan: Plan, workdir: Path) -> str:
    """SHA-256 over every argv and every file in the work directory."""
    digest = hashlib.sha256()
    for item in (plan.warmup, *plan.items):
        digest.update("\0".join(item.argv).encode("utf-8") + b"\n")
    for path in sorted(workdir.iterdir()):
        if path.is_file():
            digest.update(path.name.encode("utf-8") + b"\0" + path.read_bytes())
    return digest.hexdigest()
