"""Outside-in tracer: wraps the program's public layer functions from the
benchmark's own code, records spans in memory, and derives per-layer metrics.

Modules import functions by name (``solver`` binds ``_log_bf_core`` from
``bayes``, ``bayes`` binds ``log_bessel_i_array`` from ``special``, ...), so
each function is replaced at every ``umpbt`` module attribute bound to it,
not only where it is defined.  A span is (name, start_ns, end_ns, parent id,
request id, attr); ``attr`` is the element or draw count for functions that
have one and the (df, alpha) pair for ``match_gamma_to_alpha``.  Self time
is a span's duration minus the durations of its direct child spans; code
that is not wrapped (``brentq``, ``logsumexp``) counts toward the nearest
wrapped caller.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

import numpy as np

# layer -> (module, public functions timed in that layer)
LAYERS = {
    "cli": ("umpbt.cli", ("run",)),
    "contingency": ("umpbt.contingency",
                    ("parse_table", "pearson_statistic", "independence_bf")),
    "solver": ("umpbt.solver", ("solve_umpbt_chisq", "match_gamma_to_alpha",
                                "rejection_boundary", "rejection_boundary_grid")),
    "power": ("umpbt.power", ("dominance_check", "mc_rejection_rate")),
    "bayes": ("umpbt.bayes", ("_log_bf_core",)),
    "special": ("umpbt.special", ("log_bessel_i_array", "chisq_quantile", "chisq_cdf",
                                  "noncentral_chisq_sf", "sample_noncentral_chisq")),
}
SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, (_, fns) in LAYERS.items() for fn in fns)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# span name -> attr extractor (args, kwargs) -> int or list
_ATTRS = {
    "special.log_bessel_i_array": lambda a, k: int(np.size(_arg(a, k, 1, "z"))),
    "bayes._log_bf_core": lambda a, k: int(np.broadcast(_arg(a, k, 0, "y"),
                                                        _arg(a, k, 1, "theta")).size),
    "solver.rejection_boundary_grid": lambda a, k: int(np.size(_arg(a, k, 0, "thetas"))),
    "special.sample_noncentral_chisq": lambda a, k: int(_arg(a, k, 1, "n")),
    "power.mc_rejection_rate": lambda a, k: int(_arg(a, k, 4, "n_draws")),
    "solver.match_gamma_to_alpha": lambda a, k: [float(_arg(a, k, 0, "spec").df),
                                                  float(_arg(a, k, 0, "spec").alpha)],
}

# Cells of the workload x metric table predicted to move ("+"): each listed
# span must record calls on that workload, so a refactor that moves a binding
# fails loudly instead of reading as zero time.
EXPECTED_CALLS = {
    "contingency": ("special.log_bessel_i_array", "special.chisq_quantile",
                    "special.chisq_cdf", "bayes._log_bf_core",
                    "solver.match_gamma_to_alpha", "contingency.parse_table",
                    "contingency.pearson_statistic", "contingency.independence_bf",
                    "cli.run"),
    "curve": ("special.log_bessel_i_array", "special.chisq_quantile",
              "special.chisq_cdf", "bayes._log_bf_core", "solver.match_gamma_to_alpha",
              "cli.run"),
    "power": ("special.log_bessel_i_array", "special.noncentral_chisq_sf",
              "bayes._log_bf_core", "solver.solve_umpbt_chisq",
              "solver.rejection_boundary", "solver.rejection_boundary_grid",
              "power.dominance_check", "cli.run"),
    "power_mc": ("special.log_bessel_i_array", "special.sample_noncentral_chisq",
                 "bayes._log_bf_core", "power.dominance_check",
                 "power.mc_rejection_rate", "cli.run"),
}

_SOLVES = ("solver.solve_umpbt_chisq", "solver.match_gamma_to_alpha")


class Tracer:
    """Span recorder; ``install`` swaps the wrappers in, ``uninstall`` restores."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.request = -1
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        attr_of = _ATTRS.get(name)

        def wrapper(*args, **kwargs):
            sid = len(spans)
            span = [name, 0, 0, stack[-1], self.request,
                    attr_of(args, kwargs) if attr_of else None]
            spans.append(span)
            stack.append(sid)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self) -> dict[str, int]:
        """Wrap every layer function at each umpbt attribute bound to it;
        returns the number of bindings replaced per span name."""
        bindings = {}
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "umpbt" or n.startswith("umpbt."))]
        for layer, (module_name, fns) in LAYERS.items():
            module = importlib.import_module(module_name)
            for fn_name in fns:
                name = f"{layer}.{fn_name}"
                original = getattr(module, fn_name)
                wrapper = self._wrap(name, original)
                count = 0
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
                            count += 1
                bindings[name] = count
        return bindings

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "request",
                                  "attr"], "spans": self.spans}, handle)


def load_spans(path) -> list[list]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["spans"]


def layer_metrics(spans: list[list], untraced_ns: int, traced_ns: int) -> dict:
    """Per-layer metrics (name -> (value, unit)) derived from the spans.

    ``untraced_ns`` / ``traced_ns`` are the summed CLI call times of the same
    items run without and with the tracer; their difference over the
    untraced time is the tracing overhead.
    """
    n = len(spans)
    names = [s[0] for s in spans]
    dur = np.array([s[2] - s[1] for s in spans], dtype=np.int64)
    parent = np.array([s[3] for s in spans], dtype=np.int64)
    self_ns = dur.copy()
    has_parent = parent >= 0
    np.subtract.at(self_ns, parent[has_parent], dur[has_parent])

    calls = dict.fromkeys(SPAN_NAMES, 0)
    total = dict.fromkeys(SPAN_NAMES, 0)
    self_total = dict.fromkeys(SPAN_NAMES, 0)
    attr_total = dict.fromkeys(SPAN_NAMES, 0)
    seen_pairs: set[tuple] = set()
    repeats = 0
    solve_of = [-1] * n  # nearest enclosing solve/match span (parents precede children)
    logbf_in_solves = 0
    for i, span in enumerate(spans):
        name, attr, par = names[i], span[5], span[3]
        calls[name] += 1
        total[name] += int(dur[i])
        self_total[name] += int(self_ns[i])
        if name == "solver.match_gamma_to_alpha":
            repeats += tuple(attr) in seen_pairs
            seen_pairs.add(tuple(attr))
        elif attr is not None:
            attr_total[name] += attr
        solve_of[i] = i if name in _SOLVES else (solve_of[par] if par >= 0 else -1)
        if name == "bayes._log_bf_core" and solve_of[i] >= 0:
            logbf_in_solves += 1

    def s(name):
        return (self_total[name] / 1e9, "s")

    def c(value):
        return (value, "count")

    bessel = "special.log_bessel_i_array"
    match = "solver.match_gamma_to_alpha"
    solves = sum(calls[name] for name in _SOLVES)
    m = {
        f"{bessel}.calls": c(calls[bessel]),
        f"{bessel}.elems": c(attr_total[bessel]),
        f"{bessel}.self_s": s(bessel),
        f"{bessel}.ns_per_elem": (total[bessel] / max(attr_total[bessel], 1), "ns/elem"),
        "special.chisq_quantile.calls": c(calls["special.chisq_quantile"]),
        "special.chisq_quantile.self_s": s("special.chisq_quantile"),
        "special.chisq_cdf.calls": c(calls["special.chisq_cdf"]),
        "special.chisq_cdf.self_s": s("special.chisq_cdf"),
        "special.noncentral_chisq_sf.calls": c(calls["special.noncentral_chisq_sf"]),
        "special.noncentral_chisq_sf.self_s": s("special.noncentral_chisq_sf"),
        "special.sample_noncentral_chisq.draws": c(attr_total["special.sample_noncentral_chisq"]),
        "special.sample_noncentral_chisq.self_s": s("special.sample_noncentral_chisq"),
        "bayes._log_bf_core.calls": c(calls["bayes._log_bf_core"]),
        "bayes._log_bf_core.elems": c(attr_total["bayes._log_bf_core"]),
        "bayes._log_bf_core.self_s": s("bayes._log_bf_core"),
        "solver.solve_umpbt_chisq.calls": c(calls["solver.solve_umpbt_chisq"]),
        "solver.solve_umpbt_chisq.self_s": s("solver.solve_umpbt_chisq"),
        "solver.rejection_boundary.calls": c(calls["solver.rejection_boundary"]),
        "solver.rejection_boundary.self_s": s("solver.rejection_boundary"),
        "solver.rejection_boundary_grid.calls": c(calls["solver.rejection_boundary_grid"]),
        "solver.rejection_boundary_grid.elems": c(attr_total["solver.rejection_boundary_grid"]),
        "solver.rejection_boundary_grid.self_s": s("solver.rejection_boundary_grid"),
        f"{match}.calls": c(calls[match]),
        f"{match}.self_s": s(match),
        f"{match}.repeat_share": (repeats / calls[match] if calls[match] else 0.0, "ratio"),
        "solver.logbf_calls_per_solve": (logbf_in_solves / solves if solves else 0.0,
                                         "calls/solve"),
        "power.dominance_check.calls": c(calls["power.dominance_check"]),
        "power.dominance_check.self_s": s("power.dominance_check"),
        "power.mc_rejection_rate.calls": c(calls["power.mc_rejection_rate"]),
        "power.mc_rejection_rate.draws": c(attr_total["power.mc_rejection_rate"]),
        "power.mc_rejection_rate.self_s": s("power.mc_rejection_rate"),
        "contingency.parse_table.self_s": s("contingency.parse_table"),
        "contingency.pearson_statistic.self_s": s("contingency.pearson_statistic"),
        "contingency.independence_bf.self_s": s("contingency.independence_bf"),
        "cli.run.calls": c(calls["cli.run"]),
        "cli.run.self_s": s("cli.run"),
        "trace.overhead_share": ((traced_ns - untraced_ns) / untraced_ns, "ratio"),
    }
    return m


def missing_coverage(workload: str, spans: list[list]) -> list[str]:
    """Span names predicted to move on ``workload`` that recorded no calls."""
    called = {span[0] for span in spans}
    return [name for name in EXPECTED_CALLS[workload] if name not in called]
