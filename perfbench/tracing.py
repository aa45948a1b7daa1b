"""Per-layer tracing for the benchmark, done from outside the package.

``Tracer`` wraps the public functions of each sampdisc layer for the
duration of a ``with`` block. It replaces every binding of a wrapped
function in every loaded ``sampdisc`` module (``cli.certify`` and
``discretization.certify`` are the same object bound under two names),
and the ``basis_values`` method of both space classes, then puts the
originals back on exit.

Each wrapper records calls, inclusive seconds and self seconds (inclusive
time minus the time of wrapped calls made inside it), plus work counts
read from arguments and results. A function or count that a refactor
removed is reported in ``missing`` and reads 0, rather than crashing.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict


def _entries(args, kwargs, result):
    return {"entries": result.size}


def _rule_nodes(args, kwargs, result):
    return {"nodes": result[0].shape[0]}


def _grid_nodes(args, kwargs, result):
    return {"nodes": result.shape[0]}


def _optimizer(args, kwargs, result):
    report = result[2]
    return {"restarts": report["restarts"], "iterations": report["iterations"],
            "rows": args[0].shape[0]}


def _certificate_method(args, kwargs, result):
    return {f"n.{result.method}": 1}


def _search(args, kwargs, result):
    return {"probes": len(result.curve), "trials": sum(pt.trials for pt in result.curve)}


def _recovery_iterations(args, kwargs, result):
    return {"iterations": result.optimizer_report["iterations"]}


PACKAGE = "sampdisc"

# (module, attribute or Class.method, reported layer name, count reader)
TARGETS = (
    ("spaces", "TrigSpace.basis_values", "spaces.basis_values", _entries),
    ("spaces", "DiscreteSpace.basis_values", "spaces.basis_values", _entries),
    ("norms", "power_rule", "norms.power_rule", _rule_nodes),
    ("norms", "torus_grid", "norms.torus_grid", _grid_nodes),
    ("norms", "norm_p", "norms.norm_p", None),
    ("norms", "handle_norm_p", "norms.handle_norm_p", None),
    ("norms", "sup_argmax", "norms.sup_argmax", None),
    ("norms", "best_approx", "norms.best_approx", None),
    ("norms", "nikolskii_constant", "norms.nikolskii_constant", None),
    ("_optim", "extremize_ratio", "optim.extremize_ratio", _optimizer),
    ("discretization", "generate_points", "discretization.generate_points", None),
    ("discretization", "certify", "discretization.certify", _certificate_method),
    ("discretization", "brute_force_certificate", "discretization.brute_force_certificate", None),
    ("discretization", "minimal_m_search", "discretization.minimal_m_search", _search),
    ("recovery", "lpw_recover", "recovery.lpw_recover", _recovery_iterations),
    ("recovery", "verify_recovery", "recovery.verify_recovery", None),
    ("cli", "run_experiment", "cli.run_experiment", None),
)

# Reported stats per layer name; BENCHMARK.json's per_layer list is these,
# prefixed by the layer name, plus ``trace.overhead``.
STATS = {
    "spaces.basis_values": ("calls", "self_s", "entries"),
    "norms.power_rule": ("calls", "nodes", "s"),
    "norms.torus_grid": ("calls", "nodes"),
    "norms.norm_p": ("calls", "s"),
    "norms.handle_norm_p": ("calls", "s"),
    "norms.sup_argmax": ("calls", "s"),
    "norms.best_approx": ("calls", "self_s"),
    "norms.nikolskii_constant": ("calls", "self_s"),
    "optim.extremize_ratio": ("calls", "s", "restarts", "iterations", "rows"),
    "discretization.generate_points": ("calls", "s"),
    "discretization.certify": ("calls", "self_s", "exact_frac", "n.exact-eigen",
                               "n.exact-quadrature", "n.optimization-bound"),
    "discretization.brute_force_certificate": ("calls", "s"),
    "discretization.minimal_m_search": ("calls", "self_s", "probes", "trials"),
    "recovery.lpw_recover": ("calls", "s", "iterations"),
    "recovery.verify_recovery": ("calls", "self_s"),
    "cli.run_experiment": ("calls", "self_s"),
}

TIME_STATS = ("s", "self_s")


def metric_units() -> dict:
    """``{"<layer>.<stat>": unit}`` for every reported stat, in report order."""
    return {f"{layer}.{stat}": "s" if stat in TIME_STATS else "ratio" if stat == "exact_frac" else "count"
            for layer, stats in STATS.items() for stat in stats}


class Tracer:
    """Context manager that wraps the layer functions while it is active."""

    def __init__(self):
        self.totals = defaultdict(lambda: defaultdict(float))  # layer -> stat -> value
        self.missing: set[str] = set()
        self.sites: dict[str, int] = defaultdict(int)  # layer -> bindings replaced
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- patching -------------------------------------------------------

    def __enter__(self):
        modules = [mod for name, mod in list(sys.modules.items())
                   if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for mod_name, attr, layer, count in TARGETS:
            module = sys.modules.get(f"{PACKAGE}.{mod_name}")
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(fn_name) if owner is not None else None
            if not callable(original):
                self.missing.add(f"{layer} ({mod_name}.{attr})")
                continue
            wrapper = self._wrap(layer, original, count)
            if owner_name:
                self._patch(owner, fn_name, original, wrapper)
                self.sites[layer] += 1
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, original, wrapper)
                        self.sites[layer] += 1
        return self

    def _patch(self, owner, name, original, wrapper):
        setattr(owner, name, wrapper)
        self._patches.append((owner, name, original))

    def __exit__(self, *exc):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()
        return False

    # -- recording ------------------------------------------------------

    def _wrap(self, layer, fn, count):
        stack = self._stack
        totals = self.totals[layer]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                totals["calls"] += 1
                totals["s"] += elapsed
                totals["self_s"] += elapsed - children
            if count is not None:
                try:
                    for key, value in count(args, kwargs, result).items():
                        totals[key] += value
                except (AttributeError, KeyError, IndexError, TypeError) as exc:
                    self.missing.add(f"{layer} counts ({type(exc).__name__}: {exc})")
            return result

        return wrapper

    def snapshot(self) -> dict:
        """``{"<layer>.<stat>": value}`` for every reported stat."""
        out = {}
        for layer, stats in STATS.items():
            totals = self.totals.get(layer, {})
            for stat in stats:
                if stat == "exact_frac":
                    calls = totals.get("calls", 0)
                    exact = totals.get("n.exact-eigen", 0) + totals.get("n.exact-quadrature", 0)
                    value = exact / calls if calls else 0.0
                else:
                    value = totals.get(stat, 0)
                out[f"{layer}.{stat}"] = value if stat in TIME_STATS or stat == "exact_frac" else int(value)
        return out
