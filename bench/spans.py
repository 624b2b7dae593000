"""Spans around countkernel's public functions, installed from outside.

``Tracer.install`` wraps every public module-level function of the
layers below (and ``LiftContext.to_json``/``from_json``) and rebinds
the wrapper under every module attribute that held the original, so a
call through ``from .graphs import parse_graph`` is traced as well as
one through ``graphs.parse_graph``.  Each call records a span: name,
start, end, parent, and the counters its ``COUNTERS`` entry derives
from the arguments and the result.  Spans stay in memory until the op
ends.

Self time is charged by stage.  A span whose name is a stage
(``stage_of`` returns a name) owns its own time minus that of its
children; a span that is not a stage (a helper such as
``graphs.induced_subgraph`` under ``vc_kernel.strip_isolated``) hands
its self time to the nearest enclosing stage.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from math import comb
from time import perf_counter

LAYERS = ("cli", "graphs", "vc_kernel", "framework", "compositions", "oracles", "verification")

# Called once per edge; a span there would cost more than the work it times.
UNTRACED = frozenset({"graphs.ordered"})

STAGES = frozenset({
    "graphs.parse_graph", "graphs.serialize_graph", "graphs.validate_tree_decomposition",
    "graphs.subdivide_all_edges", "graphs.false_twin_blowup",
    "vc_kernel.buss_reduce", "vc_kernel.strip_isolated", "vc_kernel.build_padded_blowup",
    "vc_kernel.lift_vertex_cover", "vc_kernel.blowup_cover_multiplicity",
    "compositions.exact_compose", "compositions.extract_counts",
    "compositions.mincut_to_oct_reduce", "compositions.oct_to_vc_reduce",
    "oracles.exact_treewidth", "oracles.min_cut_size", "oracles.count_min_st_cuts",
    "oracles.count_vertex_covers", "oracles.count_minimal_vertex_covers",
    "oracles.count_odd_cycle_transversals", "oracles.is_nice_oct_instance",
    "oracles.max_matching_size",
})

# Oracles that enumerate candidate subsets; their counters feed
# ``oracles.candidates_per_s``.
ENUMERATORS = (
    "oracles.count_min_st_cuts", "oracles.count_vertex_covers",
    "oracles.count_minimal_vertex_covers", "oracles.count_odd_cycle_transversals",
    "oracles.is_nice_oct_instance",
)


def stage_of(name: str) -> str | None:
    """The stage a span's self time belongs to, or None to pass it up."""
    if name.startswith("cli."):
        return "cli.main"
    if name.startswith("verification."):
        return "verification.sweep"
    if name.startswith("framework.LiftContext."):
        return "framework.LiftContext"
    return name if name in STAGES else None


def _subsets_up_to(n: int, k: int) -> int:
    return sum(comb(n, j) for j in range(min(n, k) + 1)) if k >= 0 else 0


def _budget_candidates(args, kwargs, result):
    g, k = args[0] if args else kwargs["g"], args[1] if len(args) > 1 else kwargs["k"]
    return {"candidates": _subsets_up_to(g.n, k)}


def _buss_deleted(args, kwargs, result):
    k = args[1] if len(args) > 1 else kwargs["k"]
    return {"deleted": k - result[1] if result is not None else max(k, 0)}


COUNTERS = {
    "graphs.parse_graph": lambda a, kw, r: {"edges": r.graph.m},
    "graphs.serialize_graph": lambda a, kw, r: {"bytes": len(r)},
    "graphs.validate_tree_decomposition":
        lambda a, kw, r: {"bags": len((a[1] if len(a) > 1 else kw["td"]).nodes)},
    "vc_kernel.buss_reduce": _buss_deleted,
    "vc_kernel.strip_isolated":
        lambda a, kw, r: {"isolated": (a[0] if a else kw["g1"]).n - r[0].n},
    "vc_kernel.build_padded_blowup": lambda a, kw, r: {"m_out": r[0].m},
    "compositions.exact_compose": lambda a, kw, r: {"n_out": r.graph.n},
    "compositions.mincut_to_oct_reduce": lambda a, kw, r: {"m_out": r.reduced.graph.m},
    "compositions.oct_to_vc_reduce": lambda a, kw, r: {"m_out": r.reduced.graph.m},
    "oracles.count_min_st_cuts":
        lambda a, kw, r: {"candidates": comb((a[0] if a else kw["g"]).m, r[1]) if r[1] else 0},
    "oracles.count_vertex_covers": _budget_candidates,
    "oracles.count_minimal_vertex_covers": _budget_candidates,
    "oracles.count_odd_cycle_transversals": _budget_candidates,
    "oracles.is_nice_oct_instance": _budget_candidates,
}


class Tracer:
    def __init__(self):
        # One record per call: [name, start, end, parent index, counters].
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, counter = self.spans, self._stack, COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if counter is not None:
                record[4] = counter(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the layers' public functions wherever a module names them."""
        package = importlib.import_module("countkernel")
        modules = [importlib.import_module(f"countkernel.{layer}") for layer in LAYERS]
        wrapped = {}
        for layer, module in zip(LAYERS, modules):
            for attr, value in list(vars(module).items()):
                name = f"{layer}.{attr}"
                if (inspect.isfunction(value) and value.__module__ == module.__name__
                        and not attr.startswith("_") and name not in UNTRACED
                        and not inspect.isgeneratorfunction(value)):
                    wrapped[value] = self.wrap(name, value)
        for module in [package, *modules]:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    setattr(module, attr, wrapped[value])
        context = modules[LAYERS.index("framework")].LiftContext
        context.to_json = self.wrap("framework.LiftContext.to_json", context.to_json)
        context.from_json = classmethod(
            self.wrap("framework.LiftContext.from_json", context.from_json.__func__))

    def summary(self) -> dict:
        """Per-stage self time, per-span call counts and counter sums."""
        child_time = [0.0] * len(self.spans)
        owner = [-1] * len(self.spans)
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        counters: dict[str, dict[str, int]] = {}
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            if parent >= 0:
                child_time[parent] += end - start
        # Spans are appended on entry, so a parent's owner is known before its children's.
        for i, (name, start, end, parent, counts) in enumerate(self.spans):
            stage = stage_of(name)
            owner[i] = i if stage is not None else (owner[parent] if parent >= 0 else -1)
            key = stage_of(self.spans[owner[i]][0]) if owner[i] >= 0 else "unattributed"
            self_s[key] = self_s.get(key, 0.0) + (end - start) - child_time[i]
            calls[name] = calls.get(name, 0) + 1
            if counts:
                bucket = counters.setdefault(name, {})
                for counter, value in counts.items():
                    bucket[counter] = bucket.get(counter, 0) + value
        return {"self_s": self_s, "calls": calls, "counters": counters}
