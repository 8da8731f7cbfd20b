"""Direct semantics of formulas on pointed graphs, plus a brute-force oracle.

The oracle decides satisfiability by exhaustively enumerating all labeled
trees of bounded depth and arity.  Trees are enumerated bottom-up through the
profiles of values their roots can produce, which covers exactly the same
space as listing trees one by one but shares identical subtrees; the witness
reconstruction keeps the first tree in canonical order (arity ascending, then
labels ascending).

Evaluation is column-at-a-time: for each aggregation state (the values of the
aggregations at a node, given its children's profiles) every DAG node is
evaluated once, for all labels together, as a scalar when it is the same for
every label and otherwise as a column with one entry per label.  Nodes that do
not depend on an aggregation value are evaluated once per search.  The step
budget still counts one step per (state, label) pair and per child profile
folded into a state, charged a state at a time, and the first witness is the
one a label-by-label scan would find.
"""

from __future__ import annotations

import functools
import itertools
import operator
import time
from dataclasses import dataclass

from .arith import ArithmeticSpec
from .errors import UsageError
from .formula import Arena, Formula, agg_depth, features_of
from .graph import LabeledGraph, PointedGraph


@dataclass
class Sat:
    model: PointedGraph
    trace: dict[str, dict[int, int]] | None = None


@dataclass
class Unsat:
    pass


@dataclass
class Unknown:
    reason: str  # "timeout" | "node-limit" | "depth-limit"


Verdict = Sat | Unsat | Unknown


def eval_payload(graph: LabeledGraph, node: str, arena: Arena, eid: int, _memo=None) -> int:
    """Value (as payload) of an expression at a node.

    The pairs (graph node, expression) wait on an explicit stack and are
    evaluated in the order of a recursive evaluation: operands left to right,
    an aggregation's successors in order, each pair once.
    """
    memo = {} if _memo is None else _memo
    spec = arena.spec
    stack: list = [(node, eid, None)]  # None: not yet visited, else the expression node
    while stack:
        v, e, expr = stack.pop()
        if (v, e) in memo:
            continue
        if expr is None:
            expr = arena.expr(e)
            tag = expr[0]
            if tag == "const":
                memo[v, e] = expr[1]
            elif tag == "feat":
                memo[v, e] = graph.label_payload(v, expr[1])
            elif tag == "sum":
                stack += ((v, e, expr), (v, expr[2], None), (v, expr[1], None))
            elif tag == "agg":
                stack.append((v, e, expr))
                stack += ((s, expr[2], None) for s in reversed(graph.successors(v)))
            else:
                stack += ((v, e, expr), (v, expr[2], None))
            continue
        tag = expr[0]
        if tag == "act":
            out = spec.act_p(expr[1], memo[v, expr[2]])
        elif tag == "scale":
            out = spec.mul_p(expr[1], memo[v, expr[2]])
        elif tag == "sum":
            out = spec.add_p(memo[v, expr[1]], memo[v, expr[2]])
        else:  # agg
            kind, child, weights = expr[1], expr[2], expr[3]
            succs = graph.successors(v)
            if weights is not None and len(weights) < len(succs):
                raise UsageError(
                    f"weighted aggregation has {len(weights)} weights but node {v} has {len(succs)} successors"
                )
            acc = spec.fold_start(kind)
            for i, s in enumerate(succs):
                p = memo[s, child]
                acc = spec.fold_step(kind, acc, p if weights is None else spec.mul_p(weights[i], p))
            out = spec.fold_finish(kind, acc, len(succs))
        memo[v, e] = out
    return memo[node, eid]


def check(graph: LabeledGraph, node: str, f: Formula, fid: int | None = None) -> bool:
    """Truth of a formula at a pointed graph.

    A graph with a node of more successors than ``f.weight_cap`` is no model
    of f, nor of its negation: it raises UsageError before anything is
    evaluated, so the answer does not depend on which operands are reached.
    Connectives short-circuit left to right.  A connective waits on an
    explicit stack while its first operand is decided, then negates that
    truth, keeps it, or hands over to its second operand.
    """
    graph.require_arity(f.weight_cap)
    arena = f.arena
    memo: dict = {}
    truth = False
    stack = [(f.root if fid is None else fid, False)]
    while stack:
        g, resumed = stack.pop()
        fnode = arena.formula(g)
        tag = fnode[0]
        if resumed:
            if tag == "not":
                truth = not truth
            elif truth == (tag == "and"):  # a true left "and" operand, a false left "or" one
                stack.append((fnode[2], False))
        elif tag == "geq":
            truth = eval_payload(graph, node, arena, fnode[1], memo) >= fnode[2]
        elif tag == "eq":
            truth = eval_payload(graph, node, arena, fnode[1], memo) == fnode[2]
        else:
            stack += ((g, True), (fnode[1], False))
    return truth


# -- brute-force satisfiability oracle ----------------------------------------


def check_limits(time_limit: float | None, **counts: int | None) -> None:
    """Raise UsageError on a time limit that is NaN or negative (a NaN
    deadline never passes, so it would turn the limit off) or on a negative
    count limit, given by name."""
    if time_limit is not None and not time_limit >= 0:
        raise UsageError(f"time_limit must be a non-negative number of seconds, got {time_limit!r}")
    for name, value in counts.items():
        if value is not None and value < 0:
            raise UsageError(f"{name} must be >= 0, got {value!r}")


class _Budget:
    def __init__(self, max_steps: int | None, time_limit: float | None):
        self.max_steps = max_steps
        self.deadline = None if time_limit is None else time.monotonic() + time_limit
        self.steps = 0

    def tick(self, n: int) -> None:
        """Charge a batch of n steps.

        A batch that does not fit stops at its first step past the budget, so
        the count reads max_steps + 1, as if the steps were taken one by one.
        """
        if self.max_steps is not None and self.steps + n > self.max_steps:
            self.steps = self.max_steps + 1
            raise _OracleLimit("node-limit")
        self.steps += n
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise _OracleLimit("timeout")


class _OracleLimit(Exception):
    def __init__(self, reason: str):
        self.reason = reason


def _column_map(fn, x):
    """fn of a scalar, or of each entry of a column through a table over the
    distinct values in it."""
    if type(x) is not list:
        return fn(x)
    table = {v: fn(v) for v in set(x)}
    return list(map(table.__getitem__, x))


def _first_of_each(keys, values) -> dict:
    """Each distinct key with the value paired with its first occurrence, in
    the order of first occurrences."""
    first: dict = {}
    for k, v in zip(keys, values):
        if k not in first:
            first[k] = v
    return first


class _TreeSearch:
    """Profile enumeration whose node evaluation works on label columns.

    Labels are the rows of ``itertools.product`` over the value set.  Under
    one aggregation state a node's value is a scalar when it is the same for
    every label, else a column: a list with one entry per label.  Nodes that
    depend on no aggregation value are evaluated once per search, the others
    once per state.
    """

    def __init__(self, f: Formula, delta: int, budget: _Budget):
        self.arena = f.arena
        self.spec: ArithmeticSpec = f.arena.spec
        self.root_fid = f.root
        self.features = features_of(f)
        self.budget = budget
        fids, self.eids = f.fids, f.eids
        self.aggs = [
            (eid, *self.arena.expr(eid)[1:])  # (eid, kind, child, weights)
            for eid in self.eids
            if self.arena.expr(eid)[0] == "agg"
        ]
        self.delta = delta if f.weight_cap is None else min(delta, f.weight_cap)
        self.n_labels = self.spec.n_values ** len(self.features)
        # level 0 charges all labels in one batch: when they exceed the budget,
        # the search stops before it evaluates any
        fits = budget.max_steps is None or self.n_labels <= budget.max_steps
        rows = itertools.product(self.spec.values_p(), repeat=len(self.features)) if fits else ()
        self.labels = list(rows)
        # nodes that depend on no aggregation value are evaluated here, once
        self.static_exprs: dict[int, int | list[int]] = {}
        self.dyn_exprs: list[tuple[int, tuple]] = []
        for eid in self.eids:
            node = self.arena.expr(eid)
            tag = node[0]
            if tag == "agg":
                continue
            kids = (node[1], node[2]) if tag == "sum" else (node[2],) if tag in ("act", "scale") else ()
            if all(k in self.static_exprs for k in kids):
                self.static_exprs[eid] = self._expr_value(node, self.static_exprs)
            else:
                self.dyn_exprs.append((eid, node))
        self.static_formulas: dict[int, bool | list[bool]] = {}
        self.dyn_formulas: list[tuple[int, tuple]] = []
        for fid in fids:
            node = self.arena.formula(fid)
            if node[0] in ("geq", "eq"):
                static = node[1] in self.static_exprs
            else:
                static = all(k in self.static_formulas for k in node[1:])
            if static:
                self.static_formulas[fid] = self._formula_value(node, self.static_formulas, self.static_exprs)
            else:
                self.dyn_formulas.append((fid, node))
        self.static_profiles = all(child in self.static_exprs for _, _, child, _ in self.aggs)

    def _expr_value(self, node: tuple, ev: dict):
        tag = node[0]
        spec = self.spec
        if tag == "const":
            return node[1]
        if tag == "feat":
            j = self.features.index(node[1])
            return [label[j] for label in self.labels]
        if tag == "act":
            return _column_map(functools.partial(spec.act_p, node[1]), ev[node[2]])
        if tag == "scale":
            return _column_map(functools.partial(spec.mul_p, node[1]), ev[node[2]])
        a, b = ev[node[1]], ev[node[2]]  # sum
        if type(a) is not list:
            return _column_map(functools.partial(spec.add_p, a), b)
        if type(b) is not list:
            return _column_map(lambda v: spec.add_p(v, b), a)
        return list(map(spec.add_p, a, b))

    @staticmethod
    def _formula_value(node: tuple, fv: dict, ev: dict):
        tag = node[0]
        if tag in ("geq", "eq"):
            x, k = ev[node[1]], node[2]
            test = k.__le__ if tag == "geq" else k.__eq__  # k <= v is v >= k
            return list(map(test, x)) if type(x) is list else test(x)
        if tag == "not":
            x = fv[node[1]]
            return [not v for v in x] if type(x) is list else not x
        a, b = fv[node[1]], fv[node[2]]
        if type(a) is not list:
            a, b = b, a
        if type(b) is not list:  # a scalar operand decides, or passes the other through
            if tag == "and":
                return a if b else False
            return True if b else a
        return list(map(operator.and_ if tag == "and" else operator.or_, a, b))

    def _state_values(self, aggvals: dict[int, int]) -> dict:
        """Value of every expression under one aggregation state."""
        ev = dict(self.static_exprs)
        ev.update(aggvals)
        for eid, node in self.dyn_exprs:
            ev[eid] = self._expr_value(node, ev)
        return ev

    def _first_true(self, aggvals: dict[int, int]) -> int | None:
        """First label at which the root formula holds under one state."""
        ev = self._state_values(aggvals)
        fv = dict(self.static_formulas)
        for fid, node in self.dyn_formulas:
            fv[fid] = self._formula_value(node, fv, ev)
        t = fv[self.root_fid]
        if type(t) is not list:
            return 0 if t else None
        try:
            return t.index(True)
        except ValueError:
            return None

    def _profiles(self, aggvals: dict[int, int]) -> dict[tuple[int, ...], int]:
        """Distinct profiles under one state, with the first label giving each,
        in label order."""
        ev = self._state_values(aggvals)
        cols = [ev[child] for _, _, child, _ in self.aggs]
        if not any(type(c) is list for c in cols):
            return {tuple(cols): 0}
        n = self.n_labels
        rows = zip(*(c if type(c) is list else itertools.repeat(c, n) for c in cols))
        return _first_of_each(rows, itertools.count())

    def _step_fns(self, pos: int) -> list:
        """Per aggregation, the accumulator update by the successor at 1-based pos."""
        spec = self.spec
        fns = []
        for _, kind, _, weights in self.aggs:
            if weights is None:
                fns.append(functools.partial(spec.fold_step, kind))
            else:
                fns.append(lambda a, v, w=weights[pos - 1]: spec.fold_step("weighted", a, spec.mul_p(w, v)))
        return fns

    def _step_acc(self, acc: tuple, prof: tuple[int, ...], pos: int) -> tuple:
        """Advance all aggregation accumulators by one successor."""
        return tuple(fn(a, v) for fn, a, v in zip(self._step_fns(pos), acc, prof))

    def _init_acc(self) -> tuple:
        return tuple(self.spec.fold_start(kind) for _, kind, _, _ in self.aggs)

    def _finalize(self, acc: tuple, arity: int) -> dict[int, int]:
        fold_finish = self.spec.fold_finish
        return {eid: fold_finish(kind, a, arity) for (eid, kind, _, _), a in zip(self.aggs, acc)}

    def reachable_states(self, arity: int, prev_level: dict) -> dict:
        """Accumulator values reachable with `arity` ordered children, with first witnesses."""
        profs = list(prev_level)
        # per aggregation, its column of child values over the previous level
        cols = [list(col) for col in zip(*profs)]
        states: dict[tuple, tuple] = {self._init_acc(): ()}
        for pos in range(1, arity + 1):
            fns = self._step_fns(pos)
            nxt: dict[tuple, tuple] = {}
            for acc, kids in states.items():
                self.budget.tick(len(profs))
                stepped = [_column_map(functools.partial(fn, a), col) for fn, a, col in zip(fns, acc, cols)]
                news = zip(*stepped) if stepped else [()] * len(profs)
                for new, prof in _first_of_each(news, profs).items():
                    if new not in nxt:
                        nxt[new] = kids + (prof,)
            states = nxt
        return states

    def level_profiles(self, prev_level: dict | None) -> dict:
        """Profiles achievable at the root of a tree of the next depth.

        Each state charges one step per label.
        """
        out: dict[tuple[int, ...], tuple] = {}
        arities = [0] if prev_level is None else range(0, self.delta + 1)
        for arity in arities:
            states = {self._init_acc(): ()} if arity == 0 else self.reachable_states(arity, prev_level)
            for acc, kids in states.items():
                self.budget.tick(self.n_labels)
                if self.static_profiles and out:
                    continue  # every state gives the profiles of the first
                for prof, i in self._profiles(self._finalize(acc, arity)).items():
                    if prof not in out:
                        out[prof] = (i, arity, kids)
        return out

    def search(self, depth: int):
        """First (label index, arity, child profiles) whose root satisfies the
        formula; each state charges one step per label up to the one found."""
        levels: list[dict] = [self.level_profiles(None)]
        for _ in range(max(0, depth - 1)):
            levels.append(self.level_profiles(levels[-1]))
        prev = levels[depth - 1] if depth > 0 else None
        for arity in range(0, (self.delta if depth > 0 else 0) + 1):
            states = {self._init_acc(): ()} if arity == 0 else self.reachable_states(arity, prev)
            for acc, kids in states.items():
                i = self._first_true(self._finalize(acc, arity))
                if i is not None:
                    self.budget.tick(i + 1)  # stops here when label i lies past the budget
                    return (i, arity, kids), levels
                self.budget.tick(self.n_labels)
        return None, levels

    def build_tree(self, witness, levels, depth: int):
        nodes: list[str] = []
        edges: list[tuple[str, str]] = []
        labels: dict[str, dict[str, int]] = {}
        trace: dict[str, dict[int, int]] = {}
        # pre-order from an explicit stack: a node, then its children's
        # subtrees in order, each edge listed just before its child
        stack = [(None, "v", witness, depth)]
        while stack:
            parent, name, (i, arity, kids), level = stack.pop()
            if parent is not None:
                edges.append((parent, name))
            nodes.append(name)
            labels[name] = dict(zip(self.features, self.labels[i]))
            acc = self._init_acc()
            for pos, prof in enumerate(kids, start=1):
                acc = self._step_acc(acc, prof, pos)
            ev = self._state_values(self._finalize(acc, arity))
            trace[name] = {eid: ev[eid][i] if type(ev[eid]) is list else ev[eid] for eid in self.eids}
            for pos in range(len(kids), 0, -1):
                stack.append((name, f"{name}.{pos}", levels[level - 1][kids[pos - 1]], level - 1))
        graph = LabeledGraph(self.spec, self.features, tuple(nodes), tuple(edges), labels)
        return PointedGraph(graph, "v"), trace


def brute_force_sat(
    f: Formula,
    delta: int,
    depth: int | None = None,
    *,
    max_steps: int | None = 5_000_000,
    time_limit: float | None = None,
) -> Verdict:
    """Exhaustive satisfiability over labeled trees of bounded depth and arity.

    Complete for trees of depth agg_depth(f): a satisfiable formula always has
    such a tree model, so Unsat verdicts are decisive.  When an explicit lower
    depth is forced and no model is found the verdict is Unknown.
    """
    if delta < 0:
        raise UsageError(f"arity bound must be >= 0, got {delta}")
    check_limits(time_limit, max_steps=max_steps)
    needed = agg_depth(f)
    d = needed if depth is None else depth
    budget = _Budget(max_steps, time_limit)
    search = _TreeSearch(f, delta, budget)
    try:
        witness, levels = search.search(d)
    except _OracleLimit as hit:
        return Unknown(hit.reason)
    if witness is None:
        return Unsat() if d >= needed else Unknown("depth-limit")
    model, trace = search.build_tree(witness, levels, d)
    if not check(model.graph, model.point, f):
        raise RuntimeError("oracle produced a model that fails its own formula")
    return Sat(model, trace)
