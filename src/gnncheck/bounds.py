"""Interval bounds on a compiled formula: ``dag_ranges``, the program's one
interval pass over a formula DAG, and ``BoxSplit``, the interval pre-check
of ``verify_lvp`` and its branch and bound.
"""

from __future__ import annotations

from .arith import ArithmeticSpec, arity_bound, intersect
from .compile import CompiledInstance
from .formula import _KIDS
from .gnn import GnnModel, LvpInstance
from .semantics import Budget

Box = list[tuple[int, int]]

# Boxes ``BoxSplit.run`` maps, at most, before it gives up.
MAX_BOXES = 2000


def dag_ranges(spec: ArithmeticSpec, nodes, order, cap: int | None, pins) -> dict[int, tuple[int, int]]:
    """The interval of each expression in order, children first, and of
    the (id, interval) pairs of pins, which order does not list.  A feature
    ranges over [-M, M], an aggregation over ``agg_hull`` of its child's
    range at arities 0 to cap (None: any)."""
    table = dict(pins)
    m = spec.max_payload
    sum_image, scale_image, act_image = spec.sum_image, spec.scale_image, spec.act_image
    for e in order:
        node = nodes[e]
        tag = node[0]
        if tag == "sum":
            table[e] = sum_image(table[node[1]], table[node[2]])
        elif tag == "scale":
            table[e] = scale_image(node[1], *table[node[2]])
        elif tag == "act":
            table[e] = act_image(node[1], *table[node[2]])
        elif tag == "const":
            table[e] = (node[1], node[1])
        elif tag == "feat":
            table[e] = (-m, m)
        else:
            table[e] = spec.agg_hull(node[1], *table[node[2]], cap, node[3])
    return table


def _reach(nodes, tops, stops) -> set[int]:
    """The expressions that tops reach without going below one in stops,
    stops among them."""
    seen, stack = set(), list(tops)
    while stack:
        e = stack.pop()
        if e not in seen:
            seen.add(e)
            if e not in stops:
                stack += (nodes[e][i] for i in _KIDS[nodes[e][0]])
    return seen


def input_box(instance: LvpInstance) -> Box | None:
    """Interval of each input feature at a point that meets L_in, or None when
    none does.  Only single-variable inequalities c*x >= k narrow the box
    (to ``mul_preimage(c, k, M)``); the others are left out, which is sound."""
    spec = instance.model.spec
    m = spec.max_payload
    box = dict.fromkeys(instance.model.input_features, (-m, m))
    for q in instance.l_in:
        if len(q.coeffs) != 1:
            continue
        ((var, c),) = q.coeffs
        box[var] = intersect(box[var], spec.mul_preimage(c, q.const, m))
        if box[var] is None:
            return None
    return list(box.values())


def box_price(model: GnnModel) -> int:
    """The ticks one box of ``BoxSplit.run`` costs: a tick per layer of
    the last FNNs (the last layer's comb and ``out``, or ``out`` alone)."""
    return len(model.out.layers) + (len(model.layers[-1].comb.layers) if model.layers else 0)


class BoxSplit:
    """Branch and bound over the box of the last FNNs' inputs of one
    instance, on the formula ``compile_lvp`` built for it.

    Its dimensions are the distinct expressions of
    ``CompiledInstance.inputs``.  The root box ranges them at the root word,
    the features pinned to ``input_box`` and each aggregation to its range
    at any word, at arities up to δ capped at the formula's weight cap
    (``arith.arity_bound``).  A box maps, with its dimensions pinned to it,
    to the ranges of the L_out atoms' expressions.  A box on which each
    starts at its atom's bound or above meets L_out and is done; one that
    does not is bisected at the middle of its widest read dimension (the
    first of the widest), depth first, lower half first.  A read dimension
    is one that the L_out atoms reach: the others leave their ranges as they
    are, so splitting them proves nothing.  The root is mapped once, when
    the split is built: ``proved`` is True when it meets L_out, or no point
    meets L_in, and then the instance is valid (False says nothing).
    ``run`` counts the root as its first box and reads its outcome from
    ``proved``.
    """

    def __init__(self, instance: LvpInstance, compiled: CompiledInstance):
        self.instance = instance
        formula = compiled.formula
        self.spec, self.nodes = spec, nodes = formula.spec, formula.arena._exprs
        self.dims = tuple(dict.fromkeys(compiled.inputs))
        self.atoms = [formula.arena.formula(atom)[1:] for atom in compiled.l_out]
        dims = set(self.dims)
        above = _reach(nodes, [e for e, _ in self.atoms], dims)
        self.order = sorted(above - dims)  # an arena numbers each node after its children
        self.read = [i for i, e in enumerate(self.dims) if e in above]
        point, self.root = input_box(instance), None
        if point is not None:
            # the ids up to the highest dimension hold all below them, children
            # first: ranged at any word, then at the root word
            below = range(max(self.dims, default=-1) + 1)
            cap = arity_bound(instance.delta.value, formula.weight_cap)
            anywhere, point = dag_ranges(spec, nodes, below, cap, ()), dict(zip(formula.features, point))
            leaves = [e for e in below if nodes[e][0] in ("agg", "feat")]
            pins = {e: anywhere[e] if nodes[e][0] == "agg" else point[nodes[e][1]] for e in leaves}
            table = dag_ranges(spec, nodes, [e for e in below if e not in pins], cap, pins.items())
            self.root = [table[e] for e in self.dims]
        self.proved = self.root is None or self._meets(self.root)

    def _meets(self, box: Box) -> bool:
        """Whether every L_out atom holds wherever the box maps: whether its
        expression's range there starts at its bound or above."""
        table = dag_ranges(self.spec, self.nodes, self.order, None, zip(self.dims, box))
        return all(table[e][0] >= k for e, k in self.atoms)

    def run(self, budget: Budget) -> tuple[bool, int]:
        """(proved, boxes mapped, the root among them).  Each box is charged
        ``box_price`` ticks to ``budget``.  Proved when every leaf meets
        L_out, or when no point meets L_in (with no box mapped).  Not proved
        at the first failing box of one value in every read dimension (at
        the first failing box when none is read), when more boxes remain and
        another no longer fits the budget or ``MAX_BOXES`` are mapped, or
        once the budget's deadline passes: the earlier layers' boxes
        over-approximate, so a failing leaf is no counterexample."""
        if self.root is None:
            return True, 0
        per_box = box_price(self.instance.model)
        stack, boxes = [self.root], 0
        while stack:
            if boxes == MAX_BOXES or not budget.fits(per_box) or budget.expired():
                return False, boxes
            budget.charge(per_box)
            box = stack.pop()
            boxes += 1
            if self._meets(box) if boxes > 1 else self.proved:  # box 1 is the root, mapped once
                continue
            if not self.read:
                return False, boxes
            dim = max(self.read, key=lambda i: box[i][1] - box[i][0])
            lo, hi = box[dim]
            if lo == hi:  # one value in every read dimension
                return False, boxes
            mid = (lo + hi) // 2
            stack.append(box[:dim] + [(mid + 1, hi)] + box[dim + 1 :])
            stack.append(box[:dim] + [(lo, mid)] + box[dim + 1 :])
        return True, boxes
