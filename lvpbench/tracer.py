"""Per-layer tracing from outside the program.

The tracer replaces each layer's public functions, at the names through which
other modules call them, with wrappers that record spans or counts, and puts
the originals back on exit.  A span has an id, the id of the span that caused
it, a layer name, and start and end times; a layer's self time is the length
of its spans minus the parts their child spans cover.  Counting wrappers only
bump a counter, so the hot arithmetic and arena lookups stay cheap to trace.
"""

from __future__ import annotations

import time

SPAN_LAYERS = (
    "tableau.solve",
    "semantics.oracle",
    "semantics.check",
    "gnn.eval",
    "gnn.load",
    "graph.build",
    "compile.compile",
    "formula.parse",
)
COUNTS = (
    "formula.expr_lookups",
    "arith.ops",
    "arith.preimage_ops",
    "gnn.eval_node_layers",
    "compile.dag_nodes",
)
ARITH_OPS = ("add_p", "mul_p", "div_p", "act_p", "fold_add")
PREIMAGE_OPS = ("act_preimage", "act_preimage_interval", "mul_preimage", "add_preimage", "sum_left_window", "div_preimage")


class Tracer:
    def __init__(self, p):
        self.p = p
        self.spans: list[tuple[int, int, str, float, float]] = []  # (id, parent, layer, start, end)
        self.self_time = dict.fromkeys(SPAN_LAYERS, 0.0)
        self.counts = dict.fromkeys(COUNTS, 0)
        self._stack: list[list] = []  # [span id, layer, start, child time]
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------------

    def _spanned(self, layer: str, fn, after=None):
        stack, spans, self_time = self._stack, self.spans, self.self_time
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else 0
            frame = [len(spans) + len(stack) + 1, layer, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[2]
                self_time[layer] += duration - frame[3]
                if stack:
                    stack[-1][3] += duration
                spans.append((frame[0], parent, layer, frame[2], end))
            if after is not None:
                after(args, result, stack)
            return result

        return wrapper

    def _counted(self, key: str, fn):
        counts = self.counts

        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    # -- counts computed at a boundary --------------------------------------------

    def _after_gnn_eval(self, args, result, stack):
        model, pointed = args[0], args[1]
        self.counts["gnn.eval_node_layers"] += len(pointed.graph.nodes) * len(model.layers)

    def _after_compile(self, args, result, stack):
        if any(frame[1] == "compile.compile" for frame in stack):
            return  # counted by the outermost compile call
        if isinstance(result, tuple):  # compile_gnn(arena, model) -> (root, outputs)
            self.counts["compile.dag_nodes"] += args[0].dag_size(result[0])
        else:  # compile_lvp(instance) -> CompiledInstance
            formula = result.formula
            self.counts["compile.dag_nodes"] += formula.arena.dag_size(formula.root)

    # -- install / restore ---------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper_for):
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper_for(original))

    def __enter__(self) -> "Tracer":
        p = self.p
        shared: dict[int, object] = {}  # one wrapper per function, whatever name it is reached by

        def span(layer, after=None):
            def make(fn):
                if id(fn) not in shared:
                    shared[id(fn)] = self._spanned(layer, fn, after)
                return shared[id(fn)]

            return make

        def count(key):
            return lambda fn: self._counted(key, fn)

        for owner in (p.tableau, p.fuzz):
            self._patch(owner, "solve", span("tableau.solve"))
        for owner in (p.semantics, p.fuzz):
            self._patch(owner, "brute_force_sat", span("semantics.oracle"))
        for owner in (p.semantics, p.tableau):
            self._patch(owner, "check", span("semantics.check"))
        for owner in (p.gnn, p.tableau):
            self._patch(owner, "gnn_eval", span("gnn.eval", self._after_gnn_eval))
        for attr in ("lvp_from_json", "gnn_from_json"):
            self._patch(p.gnn, attr, span("gnn.load"))
        self._patch(p.graph.LabeledGraph, "__init__", span("graph.build"))
        self._patch(p.graph, "load_json", span("graph.build"))
        for owner in (p.compile, p.tableau):
            self._patch(owner, "compile_lvp", span("compile.compile", self._after_compile))
        self._patch(p.compile, "compile_gnn", span("compile.compile", self._after_compile))
        self._patch(p.formula, "parse", span("formula.parse"))
        self._patch(p.formula.Arena, "expr", count("formula.expr_lookups"))
        for attr in ARITH_OPS:
            self._patch(p.arith.ArithmeticSpec, attr, count("arith.ops"))
        for attr in PREIMAGE_OPS:
            self._patch(p.arith.ArithmeticSpec, attr, count("arith.preimage_ops"))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
