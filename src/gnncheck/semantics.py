"""Direct semantics of formulas on pointed graphs, plus a brute-force oracle.

The oracle decides satisfiability by exhaustively enumerating all labeled
trees of bounded depth and arity.  Trees are enumerated bottom-up through the
profiles of values their roots can produce, which covers exactly the same
space as listing trees one by one but shares identical subtrees; the witness
reconstruction keeps the first tree in canonical order (arity ascending, then
labels ascending).

Evaluation is column-at-a-time: for each aggregation state (the values of the
aggregations at a node, given its children's profiles) every DAG node is
evaluated once, for all labels together.  A node's column spans only
its support, the features it reads without crossing an aggregation: a node
that reads no feature is a scalar, and one that reads x1 alone has one entry
per value of x1, however many features the formula has.  Nodes that do not
depend on an aggregation value are evaluated once per search.  The states
reachable with a successors extend those reachable with a - 1, so each
arity's states are built once per level.  The step budget still counts one
step per (state, label) pair and per child profile folded into a state, for
every arity, charged a state at a time, and the first witness is the one a
label-by-label scan would find.

Formula columns are bytes of truth values (0 or 1) on every value set.  On
a value set of at most 127 values (M = max_payload <= 63) expression columns
are bytes too, one lane of payload + M per entry, and every elementwise step
runs in C through translation tables cached for the process.  63 is the
largest M for which two lanes, each at most 2M, add to a byte (4M <= 252), so
that two columns add as big integers.  Wider value sets keep expression
columns as lists of payloads, mapped through the spec's tables
(``ArithmeticSpec.table``), which charge, find and return the same.
"""

from __future__ import annotations

import functools
import itertools
import operator
import time
from dataclasses import dataclass

from .arith import ArithmeticSpec, arity_bound
from .errors import UsageError
from .formula import Arena, Formula, agg_depth, features_of
from .graph import LabeledGraph, PointedGraph, tree


@dataclass
class Sat:
    model: PointedGraph


@dataclass
class Unsat:
    pass


@dataclass
class Unknown:
    reason: str  # "timeout" (the deadline passed) | "node-limit" (the ticks or steps ran out)


Verdict = Sat | Unsat | Unknown


def eval_payload(graph: LabeledGraph, node: str, arena: Arena, eid: int, _values=None) -> int:
    """Value (as payload) of an expression at a node.

    The pairs (graph node, expression) wait on an explicit stack and are
    evaluated in the order of a recursive evaluation: operands left to right,
    an aggregation's successors in order, each pair once, kept in ``_values``
    across the calls of one ``check``.
    """
    memo = {} if _values is None else _values
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


def check(graph: LabeledGraph, node: str, f: Formula) -> bool:
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
    stack = [(f.root, False)]
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
    deadline never passes, so it would turn the limit off) or on a count
    limit, given by name, that is not an int >= 0 (a NaN count is never
    exceeded, so it too would turn the limit off)."""
    if time_limit is not None and not time_limit >= 0:
        raise UsageError(f"time_limit must be a non-negative number of seconds, got {time_limit!r}")
    for name, value in counts.items():
        if value is not None and not (type(value) is int and value >= 0):
            raise UsageError(f"{name} must be >= 0 and an int, got {value!r}")


# The oracle's step limit when none is given.
ORACLE_STEPS = 5_000_000


class Budget:
    """A tick budget and a deadline, shared by every engine that charges it.

    ``ticks`` counts what was charged, up to ``limit`` (None: no limit).  The
    deadline is ``time_limit`` seconds after the budget is made; each engine
    asks ``expired`` as often as its own work allows.
    """

    def __init__(self, limit: int | None = None, time_limit: float | None = None):
        self.limit = limit
        self.deadline = None if time_limit is None else time.monotonic() + time_limit
        self.ticks = 0

    def fits(self, n: int) -> bool:
        """Whether n more ticks stay within the limit."""
        return self.limit is None or self.ticks + n <= self.limit

    def charge(self, n: int) -> None:
        """Charge a batch of n ticks.

        A batch that does not fit stops at its first tick past the limit, so
        the count reads limit + 1, as if the ticks were taken one by one.
        """
        if not self.fits(n):
            self.ticks = self.limit + 1
            raise LimitHit("node-limit")
        self.ticks += n

    def expired(self) -> bool:
        """Whether the deadline has passed."""
        return self.deadline is not None and time.monotonic() > self.deadline


class LimitHit(Exception):
    """An engine stopped at its budget: ``reason`` is "node-limit" or "timeout"."""

    def __init__(self, reason: str):
        self.reason = reason


# Value sets of payloads up to this bound M (at most 127 values) keep the
# oracle's columns as bytes, a lane of payload + M per entry.  Two lanes add
# to at most 4M = 252, which still fits a byte, so two columns add as big
# integers without a carry between lanes.
LANE_PAYLOAD = 63


@functools.lru_cache(maxsize=1024)
def _lane_table(spec: ArithmeticSpec, key: tuple) -> bytes:
    """The ``bytes.translate`` table of one step on byte lanes.

    key names an ArithmeticSpec method with its leading operands, say
    ``("mul_p", 2)``, which maps lane p + M to f(p) + M; ``("geq", k)`` and
    ``("eq", k)`` map it to 1 or 0; ``("not",)`` swaps 0 and 1, and
    ``("clamp",)`` maps the sum a + b + 2M of two lanes to add_p(a, b) + M.
    """
    m, name = spec.max_payload, key[0]
    if name == "clamp":
        out = [spec.add_p(s, 0) + m for s in range(-2 * m, 2 * m + 1)]
    elif name == "not":
        out = [1, 0]
    elif name in ("geq", "eq"):
        k = key[1]
        out = [p >= k if name == "geq" else p == k for p in spec.values_p()]
    else:
        fn = getattr(spec, name)
        out = [fn(*key[1:], p) + m for p in spec.values_p()]
    return bytes(out).ljust(256, b"\0")


def _spread_lanes(x: bytes, support: tuple[int, ...], union: tuple[int, ...], n: int) -> bytes:
    """The entries of a byte column over support, in the order of a column
    over union, a superset of it, for n values per feature.

    It is built innermost feature first, in blocks of one entry per
    assignment of the features done so far: a feature of support joins n
    blocks into one, any other repeats each block n times.
    """
    size = 1
    for f in reversed(union):
        if f not in support:
            if size == 1:
                out = bytearray(len(x) * n)
                for r in range(n):
                    out[r::n] = x
                x = bytes(out)
            else:
                x = b"".join(x[i : i + size] * n for i in range(0, len(x), size))
        size *= n
    return x


def _union(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The union of two supports, in label order."""
    if a == b or not b:
        return a
    return b if not a else tuple(sorted({*a, *b}))


class _TreeSearch:
    """Profile enumeration whose node evaluation works on label columns.

    Label i is row i of ``itertools.product`` over the value set, first
    feature slowest; it is decoded from i, never listed.  A node's support is
    the set of features it reaches without crossing an aggregation, fixed per
    formula.  Under one aggregation state a node's value is a scalar when its
    support is empty, else a column with one entry per assignment of its
    support, in label order.  Operands whose supports differ are spread to
    their union.  An index into a column maps to the first label with those
    support values: every other feature at its lowest value.  Nodes that
    depend on no aggregation value are evaluated once per search, checking
    the deadline after each column, the others once per state.  A static
    formula column that holds one truth value at every label is held as
    that scalar.  An and or an or that a static scalar operand decides
    (false for and, true for or) is static too, whatever its other operand;
    when that makes the root static, ``search`` answers it before it builds
    any level.

    A formula's column is ``bytes`` of 0 or 1 on every value set: not goes
    through a translation table, and and or are big-integer & and |.  With
    ``lanes`` (max_payload <= LANE_PAYLOAD) an expression's column is
    ``bytes`` too, of entries payload + M, and a profile holds such lane
    values.  ``bytes.translate`` does act, scale, a scalar sum and the
    tests; two columns add as big integers, then through a clamp table.
    These lane tables are immutable and cached per process and per (spec,
    step, operands).  Otherwise an expression's column is a list of
    payloads, the tests build bytes from it, and ``act``, ``scale``, a sum
    and the fold steps over profile payloads, on either column type, read
    the spec's tables (``ArithmeticSpec.table``).
    """

    def __init__(self, f: Formula, delta: int, budget: Budget):
        self.arena = f.arena
        self.spec: ArithmeticSpec = f.arena.spec
        self.root_fid = f.root
        self.features = features_of(f)
        self.budget = budget
        fids, self.eids = f.fids, f.eids
        self.aggs: list[tuple] = []  # (eid, kind, child, weights)
        self.delta = arity_bound(delta, f.weight_cap)
        self.n_labels = self.spec.n_values ** len(self.features)
        self.lanes = self.spec.max_payload <= LANE_PAYLOAD  # expression columns as bytes
        self.index_maps: dict[tuple, list[int]] = {}  # spreads and first labels, per supports
        # level 0 charges all labels in one batch: when they exceed the budget,
        # the search stops there, so nothing is evaluated
        fits = budget.fits(self.n_labels)
        position = {name: j for j, name in enumerate(self.features)}
        support = self.expr_support = {}
        # nodes that depend on no aggregation value are evaluated here, once
        static = self.static_exprs = {}
        self.dyn_exprs: list[tuple[int, tuple]] = []
        for eid in self.eids:
            node = self.arena.expr(eid)
            tag = node[0]
            if tag == "sum":
                support[eid] = _union(support[node[1]], support[node[2]])
                is_static = node[1] in static and node[2] in static
            elif tag in ("act", "scale"):
                support[eid] = support[node[2]]
                is_static = node[2] in static
            elif tag == "agg":
                support[eid] = ()
                self.aggs.append((eid, *node[1:]))
                continue
            else:
                support[eid] = (position[node[1]],) if tag == "feat" else ()
                is_static = True
            if fits and is_static:
                static[eid] = self._expr_value(eid, node, static)
                self._check_column(static[eid])
            else:
                self.dyn_exprs.append((eid, node))
        self.child_supports = [support[child] for _, _, child, _ in self.aggs]
        self.profile_support = functools.reduce(_union, self.child_supports, ())
        self.static_formulas: dict[int, bool | bytes] = {}
        self.static_supports: dict[int, tuple[int, ...]] = {}  # of their columns
        self.dyn_formulas: list[tuple[int, tuple]] = []
        for fid in fids:
            node = self.arena.formula(fid)
            tag = node[0]
            if tag in ("geq", "eq"):
                is_static = node[1] in static
            else:
                is_static = all(k in self.static_formulas for k in node[1:])
                # a static scalar operand decides an and when False and an
                # or when True, whatever the other operand's value
                if tag != "not" and any(self.static_formulas.get(k) is (tag == "or") for k in node[1:]):
                    self.static_formulas[fid] = tag == "or"
                    continue
            if fits and is_static:
                x = self._formula_value(fid, node, self.static_formulas, self.static_supports, static)
                self._check_column(x)
                # a column of one truth value at every label is that scalar
                if not isinstance(x, int) and x.count(x[0]) == len(x):
                    x = bool(x[0])
                self.static_formulas[fid] = x
            else:
                self.dyn_formulas.append((fid, node))

    def _check_column(self, x) -> None:
        """After a column evaluated once per search, check the deadline."""
        if not isinstance(x, int) and self.budget.expired():
            raise LimitHit("timeout")

    # -- labels and column indices ----------------------------------------------

    def label(self, i: int) -> tuple[int, ...]:
        """The payloads of label i, one per feature."""
        n, k, low = self.spec.n_values, len(self.features), -self.spec.max_payload
        return tuple(low + i // n ** (k - 1 - f) % n for f in range(k))

    def _first_labels(self, support: tuple[int, ...]) -> list[int]:
        """Per index of a column over support, the first label with the
        support values of that index: every other feature at its lowest."""
        n, k = self.spec.n_values, len(self.features)
        return self._index_map(("labels", support), support, {f: n ** (k - 1 - f) for f in support})

    def _spread(self, x, support: tuple[int, ...], union: tuple[int, ...]):
        """The entries of a column over support, in the order of a column over
        union; the column itself when the two supports are the same."""
        if support == union:
            return x
        n = self.spec.n_values
        if type(x) is bytes:
            return _spread_lanes(x, support, union, n)
        weight = {f: n ** (len(support) - 1 - p) for p, f in enumerate(support)}
        return map(x.__getitem__, self._index_map((support, union), union, weight))

    def _index_map(self, key: tuple, dims: tuple[int, ...], weight: dict[int, int]) -> list[int]:
        """For each assignment of the features dims in label order, the sum
        of each digit times its feature's weight (none: 0); kept under key
        for the rest of the search."""
        index = self.index_maps.get(key)
        if index is None:
            n = self.spec.n_values
            index = [0]
            for f in reversed(dims):  # innermost first: a feature without weight repeats the block
                w = weight.get(f)
                index = index * n if w is None else [digit * w + base for digit in range(n) for base in index]
            self.index_maps[key] = index
        return index

    # -- node evaluation -----------------------------------------------------------

    def _mapped(self, key: tuple, x):
        """An ArithmeticSpec method of one more operand, named with its leading
        operands by key (say ``("add_p", 3)``), applied to each entry of a
        column, or of a list of payloads: a byte column through its lane
        table, a list through the spec's table for key.  A list adds a
        scalar a as add_p(0, a + p), through the one ``("add_p", 0)`` table,
        not a table per addend."""
        if type(x) is bytes:
            return x.translate(_lane_table(self.spec, key))
        if key[0] == "add_p" and key[1] != 0:
            return self.spec.table("add_p", 0).at_each(map(operator.add, x, itertools.repeat(key[1])))
        return self.spec.table(*key).at_each(x)

    def _payloads(self, x):
        """The payloads of the values of a profile, or of one aggregation's
        values over a level's profiles; x itself without lanes."""
        if not self.lanes:
            return x
        m = self.spec.max_payload
        return [v - m for v in x]

    def _expr_value(self, eid: int, node: tuple, ev: dict):
        tag = node[0]
        if tag == "const":
            return node[1]
        spec = self.spec
        if tag == "feat":
            return bytes(range(spec.n_values)) if self.lanes else list(spec.values_p())
        if tag in ("act", "scale"):
            key, x = ("act_p" if tag == "act" else "mul_p", node[1]), ev[node[2]]
            return spec.table(*key)[x] if isinstance(x, int) else self._mapped(key, x)
        a, b = ev[node[1]], ev[node[2]]  # sum
        if isinstance(a, int):
            return spec.add_p(a, b) if isinstance(b, int) else self._mapped(("add_p", a), b)
        if isinstance(b, int):
            return self._mapped(("add_p", b), a)  # add_p is symmetric
        sa, sb = self.expr_support[node[1]], self.expr_support[node[2]]
        if sa != sb:
            union = self.expr_support[eid]
            a, b = self._spread(a, sa, union), self._spread(b, sb, union)
        if self.lanes:
            s = int.from_bytes(a, "big") + int.from_bytes(b, "big")
            return s.to_bytes(len(a), "big").translate(_lane_table(spec, ("clamp",)))
        return self._mapped(("add_p", 0), map(operator.add, a, b))  # the sums are made on the fly

    def _formula_value(self, fid: int, node: tuple, fv: dict, fs: dict, ev: dict):
        """The value of a formula node, given those of its operands.

        A scalar operand of "and" or "or" can decide the node or pass the
        other operand through, so the support of a formula's column is known
        only once it is evaluated: it is recorded in fs, or for a column of
        a node that depends on no aggregation value, in static_supports.
        """
        tag = node[0]
        if tag in ("geq", "eq"):
            x, k = ev[node[1]], node[2]
            test = k.__le__ if tag == "geq" else k.__eq__  # k <= v is v >= k
            if isinstance(x, int):
                return test(x)
            fs[fid] = self.expr_support[node[1]]
            return x.translate(_lane_table(self.spec, (tag, k))) if self.lanes else bytes(map(test, x))
        if tag == "not":
            x = fv[node[1]]
            if isinstance(x, int):
                return not x
            fs[fid] = self._formula_support(fs, node[1])
            return x.translate(_lane_table(self.spec, ("not",)))
        ga, gb = node[1], node[2]
        if isinstance(fv[ga], int):
            ga, gb = gb, ga
        a, b = fv[ga], fv[gb]
        if isinstance(b, int):  # a scalar operand decides, or passes the other through
            if (tag == "and") != bool(b):
                return tag == "or"
            if not isinstance(a, int):
                fs[fid] = self._formula_support(fs, ga)
            return a
        sa, sb = self._formula_support(fs, ga), self._formula_support(fs, gb)
        if sa != sb:
            union = _union(sa, sb)
            a, b = self._spread(a, sa, union), self._spread(b, sb, union)
            sa = union
        fs[fid] = sa
        n, a, b = len(a), int.from_bytes(a, "big"), int.from_bytes(b, "big")
        return (a & b if tag == "and" else a | b).to_bytes(n, "big")

    def _formula_support(self, fs: dict, fid: int) -> tuple[int, ...]:
        """The support of the column of formula fid."""
        return fs.get(fid) or self.static_supports[fid]

    def _state_values(self, aggvals: dict[int, int]) -> dict:
        """Value of every expression under one aggregation state."""
        ev = dict(self.static_exprs)
        ev.update(aggvals)
        for eid, node in self.dyn_exprs:
            ev[eid] = self._expr_value(eid, node, ev)
        return ev

    def _first_true(self, aggvals: dict[int, int]) -> int | None:
        """First label at which the root formula holds under one state."""
        ev = self._state_values(aggvals)
        fv, fs = dict(self.static_formulas), {}
        for fid, node in self.dyn_formulas:
            fv[fid] = self._formula_value(fid, node, fv, fs, ev)
        return self._first_label(fv[self.root_fid], fs)

    def _first_label(self, t, fs: dict) -> int | None:
        """First label at which the root formula, of value t, holds."""
        if isinstance(t, int):
            return 0 if t else None
        try:
            j = t.index(True)
        except ValueError:
            return None
        support = self._formula_support(fs, self.root_fid)
        return j if len(support) == len(self.features) else self._first_labels(support)[j]

    def _profiles(self, aggvals: dict[int, int]) -> dict[tuple[int, ...], int]:
        """Distinct profiles under one state, with the first label giving each,
        in label order."""
        ev = self._state_values(aggvals)
        m = self.spec.max_payload if self.lanes else 0  # a scalar's lane value is c + m
        cols = [ev[child] for _, _, child, _ in self.aggs]
        if all(isinstance(c, int) for c in cols):
            return {tuple(c + m for c in cols): 0}
        union = self.profile_support
        if self.lanes and len(cols) == 1:
            (c,) = cols  # each lane value at its first index
            first = {(c[j],): j for j in sorted(map(c.find, set(c)))}
        else:
            n = self.spec.n_values ** len(union)
            rows = zip(*(
                itertools.repeat(c + m, n) if isinstance(c, int) else self._spread(c, support, union)
                for c, support in zip(cols, self.child_supports)
            ))
            first = {}
            for j, row in enumerate(rows):
                if row not in first:
                    first[row] = j
        if len(union) == len(self.features):
            return first
        labels = self._first_labels(union)
        return {prof: labels[j] for prof, j in first.items()}

    # -- states and levels ---------------------------------------------------------

    def _charge(self, n: int) -> None:
        """Charge a batch of n steps; the deadline is checked after each batch."""
        self.budget.charge(n)
        if self.budget.expired():
            raise LimitHit("timeout")

    def _init_acc(self) -> tuple:
        return tuple(self.spec.fold_start(kind) for _, kind, _, _ in self.aggs)

    def _finalize(self, acc: tuple, arity: int) -> dict[int, int]:
        fold_finish = self.spec.fold_finish
        return {eid: fold_finish(kind, a, arity) for (eid, kind, _, _), a in zip(self.aggs, acc)}

    def _extend(self, states: dict, pos: int, profs: list, cols: list) -> dict:
        """The states after one more successor, at 1-based pos, with first
        witnesses; each state charges one step per child profile."""
        # a fold step adds the successor's contribution to the accumulator, or
        # keeps the larger for max; under weighted, the contribution is the
        # successor's value times the weight at pos
        steps = [("fold_step", "max") if kind == "max" else ("add_p",) for _, kind, _, _ in self.aggs]
        cols = [
            col if weights is None else self._mapped(("mul_p", weights[pos - 1]), col)
            for (_, _, _, weights), col in zip(self.aggs, cols)
        ]
        nxt: dict[tuple, tuple] = {}
        for acc, kids in states.items():
            self._charge(len(profs))
            stepped = [self._mapped((*step, a), col) for step, a, col in zip(steps, acc, cols)]
            news = zip(*stepped) if stepped else [()] * len(profs)
            for new, prof in zip(news, profs):
                if new not in nxt:
                    nxt[new] = kids + (prof,)
        return nxt

    def _states_by_arity(self, prev_level: dict | None, max_arity: int):
        """(arity, states) for arity 0..max_arity: the accumulator values
        reachable with that many ordered children, with first witnesses.

        The states after positions 1..a are the same for every arity >= a, so
        each arity extends those of the last by one position.  The positions
        it shares are charged again, in one batch per arity, so the budget
        sees the steps it would if every arity extended its states from none.
        """
        states: dict[tuple, tuple] = {self._init_acc(): ()}
        yield 0, states
        if max_arity == 0:
            return
        profs = list(prev_level)
        # per aggregation, its column of child values over the previous level
        cols = [list(self._payloads(col)) for col in zip(*profs)]
        shared: list[int] = []  # the number of states before each position so far
        for arity in range(1, max_arity + 1):
            if shared:
                self._charge(sum(shared) * len(profs))
            shared.append(len(states))
            states = self._extend(states, arity, profs, cols)
            yield arity, states

    def level_profiles(self, prev_level: dict | None) -> dict:
        """Profiles achievable at the root of a tree of the next depth.

        Each state charges one step per label.
        """
        out: dict[tuple[int, ...], tuple] = {}
        for arity, states in self._states_by_arity(prev_level, 0 if prev_level is None else self.delta):
            for acc, kids in states.items():
                self._charge(self.n_labels)
                for prof, i in self._profiles(self._finalize(acc, arity)).items():
                    if prof not in out:
                        out[prof] = (i, kids)
        return out

    def search(self, depth: int):
        """First (label index, child profiles) whose root satisfies the
        formula; each state charges one step per label up to the one found.

        A static root formula, one no aggregation value can change, is
        answered before any level is built, on a tree of one node, and
        charged as level 0's one state is: a step per label, then one per
        label up to the one found."""
        root = self.static_formulas.get(self.root_fid)
        if root is not None:
            self._charge(self.n_labels)
            i = self._first_label(root, {})
            self._charge(self.n_labels if i is None else i + 1)
            return (None if i is None else (i, ())), []
        levels: list[dict] = [self.level_profiles(None)]
        for _ in range(max(0, depth - 1)):
            levels.append(self.level_profiles(levels[-1]))
        prev = levels[depth - 1] if depth > 0 else None
        for arity, states in self._states_by_arity(prev, self.delta if depth > 0 else 0):
            for acc, kids in states.items():
                i = self._first_true(self._finalize(acc, arity))
                if i is not None:
                    self._charge(i + 1)  # stops here when label i lies past the budget
                    return (i, kids), levels
                self._charge(self.n_labels)
        return None, levels

    def build_tree(self, witness, levels, depth: int) -> PointedGraph:
        """The witness's tree (``graph.tree``): its nodes read breadth first,
        each a (label index, child profiles) pair of its level."""
        queue, counts, rows = [(witness, depth)], [], []
        for (i, kids), level in queue:  # the queue grows as it is read
            counts.append(len(kids))
            rows.append(self.label(i))
            queue += [(levels[level - 1][prof], level - 1) for prof in kids]
        return tree(self.spec, self.features, counts, rows)


def brute_force_sat(
    f: Formula,
    delta: int | None,
    *,
    max_steps: int | None = ORACLE_STEPS,
    time_limit: float | None = None,
) -> Verdict:
    """Exhaustive satisfiability over labeled trees of depth agg_depth(f)
    whose nodes have at most ``arity_bound(delta, f.weight_cap)`` successors;
    delta None bounds nothing, so the formula then needs a weight cap.

    A satisfiable formula always has such a tree model, so Unsat verdicts
    are decisive; Unknown says the steps or the time ran out.
    """
    check_limits(time_limit, delta=delta, max_steps=max_steps)
    if arity_bound(delta, f.weight_cap) is None:
        raise UsageError("the brute-force oracle needs a finite arity bound")
    depth = agg_depth(f)
    try:
        search = _TreeSearch(f, delta, Budget(max_steps, time_limit))
        witness, levels = search.search(depth)
    except LimitHit as hit:
        return Unknown(hit.reason)
    if witness is None:
        return Unsat()
    model = search.build_tree(witness, levels, depth)
    if not check(model.graph, model.point, f):
        raise RuntimeError("oracle produced a model that fails its own formula")
    return Sat(model)
