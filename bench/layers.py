"""Per-layer tracing from outside the program.

The layers are the modules of ``nonlocal_lab``. ``Tracer.install`` replaces
every public function a module defines, at every module binding that refers
to it (so ``search.solve_lp_max`` and calls inside ``rectangles`` to its own
``residue_counts`` are both seen), with a wrapper that times the call and
subtracts the time of nested wrapped calls to get the layer's self time.
Spans are folded into per-layer totals as they close instead of being kept,
so tracing a long run needs no more memory than a short one.

Per-element helpers and methods are left alone: wrapping a function that
runs once per (input, component) pair would cost more than the work it
measures. Element counts come from the arguments and return values of the
enclosing calls instead. Generator functions are counted when called, but
their iteration time stays with the caller.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import time
from collections import defaultdict
from typing import Any, Callable

LAYERS = (
    "cli", "cyclic", "ghz", "model", "protocol", "rectangles", "search", "serialize", "simplex",
)

#: run once per element of an enclosing call; see the module docstring
PER_ELEMENT = frozenset(
    {"model.all_click", "serialize.entry_to_json", "serialize.entry_from_json"}
)

#: counters derived from call arguments and results, with their units
COUNTERS = {
    "cyclic.convolutions": "count",
    "rectangles.residue_calls": "count",
    "rectangles.examined": "count",
    "simplex.pivots": "count",
    "simplex.tableau_cells": "count",
    "search.columns": "count",
    "search.strategies": "count",
    "model.pairs": "count",
    "protocol.execute_calls": "count",
    "protocol.detector_components": "count",
    "ghz.points": "count",
    "ghz.problems_built": "count",
    "serialize.bytes_in": "B",
    "serialize.bytes_out": "B",
}

def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    def __init__(self, package) -> None:
        self.patched: list[tuple[object, str, Callable]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, int] = defaultdict(int)
        self.sets_total = 0
        self.sets_distinct = 0
        self.request_vectors: set = set()
        self.distinct_vectors = 0
        self.used_columns = 0
        self._stack: list[float] = []
        #: hooks whose function changed shape; their counters stop counting
        self.broken_hooks: set[str] = set()
        self.modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        self.targets: dict[int, tuple[str, str, Callable]] = {}
        for mod in self.modules[1:]:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for name, obj in vars(mod).items():
                qualified = f"{layer}.{name}"
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not name.startswith("_")
                    and qualified not in PER_ELEMENT
                ):
                    self.targets[id(obj)] = (layer, qualified, obj)
        hooks = self._hooks()
        found = {qualified for _, qualified, _ in self.targets.values()}
        #: hooked functions the code under test no longer defines
        self.unmeasured = sorted(set(hooks) - found)
        self.wrappers = {
            key: self._wrap(layer, qualified, fn, hooks.get(qualified))
            for key, (layer, qualified, fn) in self.targets.items()
        }

    # -- lifecycle

    def install(self) -> None:
        for mod in self.modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in self.wrappers:
                    self.patched.append((mod, name, obj))
                    setattr(mod, name, self.wrappers[id(obj)])

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self.patched):
            setattr(mod, name, obj)
        self.patched.clear()

    def new_request(self, input_bytes: int) -> None:
        """Close the previous request's distinct-vector set; count its input."""
        self.distinct_vectors += len(self.request_vectors)
        self.request_vectors = set()
        self.counters["serialize.bytes_in"] += input_bytes

    # -- spans

    def _wrap(self, layer: str, qualified: str, fn: Callable, hook) -> Callable:
        stack = self._stack
        self_s, calls = self.self_s, self.calls
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                children = stack.pop()
                self_s[layer] += span - children
                calls[layer] += 1
                if stack:
                    stack[-1] += span
            if hook is not None and qualified not in self.broken_hooks:
                try:
                    hook(args, kwargs, result)
                except Exception:  # a refactor changed the arguments or result
                    self.broken_hooks.add(qualified)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- counters from arguments and results

    def _hooks(self) -> dict[str, Callable]:
        c = self.counters

        def bump(name: str, amount: Callable = lambda a, k, r: 1):
            def hook(args, kwargs, result):
                c[name] += amount(args, kwargs, result)

            return hook

        def subsets(args, kwargs, result):
            big_t = _arg(args, kwargs, 0, "big_t")
            sets = _arg(args, kwargs, 1, "sets")
            self.sets_total += len(sets)
            self.sets_distinct += len({frozenset(v % big_t for v in s) for s in sets})

        def residues(args, kwargs, result):
            c["rectangles.residue_calls"] += 1
            self.request_vectors.add(tuple(result.values()))

        def lp(args, kwargs, result):
            objective = _arg(args, kwargs, 0, "objective")
            eq = _arg(args, kwargs, 1, "eq_rows")
            ub = _arg(args, kwargs, 2, "ub_rows")
            c["simplex.pivots"] += result.iterations
            rows = len(eq) + len(ub) + 1
            c["simplex.tableau_cells"] += rows * (len(objective) + len(eq) + len(ub) + 1)

        def eta_star(args, kwargs, result):
            c["search.columns"] += result.enumerated
            self.used_columns += len(result.witness.components) if result.witness else 0

        def pairs(args, kwargs, result):
            m = _arg(args, kwargs, 0, "m")
            problem = _arg(args, kwargs, 1, "problem")
            c["model.pairs"] += len(problem.support) * len(m.components)

        def points(args, kwargs, result):
            inst = _arg(args, kwargs, 0, "inst")
            c["ghz.points"] += inst.valid_input_count() * 2**inst.n

        return {
            "cyclic.multiset_sum": bump("cyclic.convolutions"),
            "cyclic.verify_addition_theorem": subsets,
            "cyclic.verify_size2_sets": subsets,
            "rectangles.residue_counts": residues,
            "rectangles.scan_rectangles": bump("rectangles.examined", lambda a, k, r: r.examined),
            "simplex.solve_lp_max": lp,
            "search.eta_star_lp": eta_star,
            "search.best_deterministic_error": bump(
                "search.strategies", lambda a, k, r: r.enumerated
            ),
            "model.mixed_lhv_metrics": pairs,
            "model.evaluate_mixed_lhv": pairs,
            "protocol.execute": bump("protocol.execute_calls"),
            "protocol.to_detector_model": bump(
                "protocol.detector_components", lambda a, k, r: len(r.components)
            ),
            "ghz.equivalence_max_deviation": points,
            "ghz.ghz_problem": bump("ghz.problems_built"),
            "serialize.dumps": bump("serialize.bytes_out", lambda a, k, r: len(r)),
        }

    # -- results

    def metrics(self, scale: float) -> dict[str, dict]:
        """All per-layer figures; ``scale`` converts seconds to the
        reference speed."""
        self.new_request(0)
        out: dict[str, dict] = {}
        for layer in sorted(set(LAYERS) | set(self.calls)):
            out[f"{layer}.self_s"] = {"value": self.self_s[layer] * scale, "unit": "s"}
            out[f"{layer}.calls"] = {"value": self.calls[layer], "unit": "count"}
        for name, unit in COUNTERS.items():
            out[name] = {"value": self.counters[name], "unit": unit}

        def ratio(num: int, den: int) -> float:
            return num / den if den else 0.0

        residue_calls = self.counters["rectangles.residue_calls"]
        ratios = {
            "cyclic.distinct_set_ratio": ratio(self.sets_distinct, self.sets_total),
            "rectangles.distinct_vector_ratio": ratio(self.distinct_vectors, residue_calls),
            "search.used_column_ratio": ratio(self.used_columns, self.counters["search.columns"]),
        }
        for name, value in ratios.items():
            out[name] = {"value": value, "unit": "ratio"}
        return out
