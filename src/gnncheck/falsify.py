"""Counterexample search by sampling, run ahead of the tableau.

``falsify`` draws ``SAMPLES`` random pointed trees for an LVP instance and
returns, among those whose outputs under ``gnn_eval`` violate L_out, the
first with the fewest nodes.  A tree of one node, the point alone, is
evaluated as soon as it is drawn, and a hit there ends the sampling: no
later tree can be smaller.  The larger trees are kept until every tree is
drawn, then built and evaluated smallest first up to the first hit, so the
trees evaluated, and their order, are those of evaluating every drawn tree
smallest first.  A tree is as deep as the network has layers (deeper nodes
cannot reach the point's output), and each node has at most ``arity_cap``
successors.  Labels favour the values where saturating arithmetic turns: 0,
±one, ±M and small multiples of one, next to uniform draws from the whole
domain.  The point's label is drawn again until it satisfies L_in.

The draws come from a ``random.Random`` seeded by a sha256 of the instance's
JSON, so an instance always gets the same trees, whatever PYTHONHASHSEED is.
The search is charged to the caller's tick budget at a fixed price per
drawn tree: its nodes times the layers, plus one for the output network.
The price is not a count of evaluations (trees past the first hit are not
evaluated, and ``gnn_eval`` skips the nodes that cannot reach the point's
output).  Without a hit, or with a hit of more than one node, every tree is
drawn and charged, so the ticks left to the tableau do not depend on the
samples' outputs; a one-node hit is charged only the trees drawn up to it.
A tree that grows past the ticks left ends the sampling as soon as a layer
shows it.
"""

from __future__ import annotations

import hashlib
import json
import random
import time

from . import gnn
from .arith import ArithmeticSpec, Value
from .gnn import LvpInstance, eval_linineq, lvp_to_json
from .graph import LabeledGraph, PointedGraph

# Samples per instance.  Every one is drawn and charged unless a one-node
# tree hits: after a larger hit a later, smaller tree makes a more readable
# counterexample, and when nothing hits the tableau gets the ticks left
# after all of them.  Only the trees up to the first smallest hit are
# evaluated, so an instance without a hit pays the most wall time, about a
# few hundred tableau ticks' worth per sample, and the number stays small.
SAMPLES = 32
# Successors per node when the arity bound allows more: trees grow as this
# number to the power of the layer count.
MAX_SAMPLED_ARITY = 4
# Draws of the point's label before a sample is given up as failing L_in.
POINT_DRAWS = 16

Hit = tuple[PointedGraph, list[Value]]


def instance_rng(instance: LvpInstance) -> random.Random:
    """A generator seeded by the instance alone."""
    doc = json.dumps(lvp_to_json(instance), sort_keys=True)
    return random.Random(int.from_bytes(hashlib.sha256(doc.encode()).digest(), "big"))


def arity_cap(instance: LvpInstance) -> int:
    """Largest arity sampled: within δ and the weight count of every weighted layer."""
    value = instance.delta.value
    cap = MAX_SAMPLED_ARITY if value is None else min(value, MAX_SAMPLED_ARITY)
    for layer in instance.model.layers:
        if layer.agg_weights is not None:
            cap = min(cap, len(layer.agg_weights))
    return cap


def draw_payload(rng: random.Random, spec: ArithmeticSpec) -> int:
    m = spec.max_payload
    pick = rng.randrange(5)
    if pick == 0:
        return 0
    if pick == 1:
        return rng.choice((spec.one, -spec.one))
    if pick == 2:
        return rng.choice((m, -m))
    if pick == 3:
        return spec.clamp(rng.randint(-3, 3) * spec.one)
    return rng.randint(-m, m)


def price(nodes: int, layers: int) -> int:
    """The ticks a sampled tree of ``nodes`` nodes costs: nodes × layers + 1."""
    return nodes * layers + 1


def grow_tree(
    rng: random.Random, layers: int, cap: int, room: int | None = None, deadline: float | None = None
) -> tuple[list[str], list[tuple[str, str]]] | None:
    """The nodes and edges of a random tree rooted at "v", ``layers`` deep,
    or None as soon as its price passes ``room`` ticks or
    ``time.monotonic()`` passes ``deadline``.  Both are checked before the
    first layer and after each one, so an oversized tree stops growing one
    layer past the budget.  Node names follow the tableau's models: "v1" is
    the root's first successor, "v1.2" that node's second."""
    nodes, edges, frontier = ["v"], [], ["v"]
    for depth in range(layers + 1):
        if (room is not None and price(len(nodes), layers) > room) or (
            deadline is not None and time.monotonic() > deadline
        ):
            return None
        if depth == layers:
            break
        grown = []
        for parent in frontier:
            for i in range(1, rng.randint(0, cap) + 1):
                child = f"v{i}" if parent == "v" else f"{parent}.{i}"
                edges.append((parent, child))
                grown.append(child)
        nodes += grown
        frontier = grown
    return nodes, edges


def draw_labels(rng: random.Random, instance: LvpInstance, nodes: list[str]) -> dict[str, dict[str, int]] | None:
    """Input labels for ``nodes``, or None when no drawn label of the point
    "v" satisfied L_in."""
    spec, features = instance.model.spec, instance.model.input_features
    labels = {n: {f: draw_payload(rng, spec) for f in features} for n in nodes}
    point = labels["v"]
    for _ in range(POINT_DRAWS):
        if all(eval_linineq(q, point, spec) for q in instance.l_in):
            return labels
        point.update((f, draw_payload(rng, spec)) for f in features)
    return None


def pointed_tree(instance: LvpInstance, nodes: list[str], edges: list[tuple[str, str]], labels: dict) -> PointedGraph:
    """The validated graph of a drawn tree, pointed at its root."""
    model = instance.model
    return PointedGraph(LabeledGraph(model.spec, model.input_features, tuple(nodes), tuple(edges), labels), "v")


def sample_tree(rng: random.Random, instance: LvpInstance, cap: int) -> PointedGraph | None:
    """One random tree pointed at its root "v", or None when no drawn point
    label satisfied L_in: the draws ``falsify`` makes for one sample."""
    nodes, edges = grow_tree(rng, len(instance.model.layers), cap)
    labels = draw_labels(rng, instance, nodes)
    return None if labels is None else pointed_tree(instance, nodes, edges, labels)


def falsify(instance: LvpInstance, max_ticks: int | None = None, deadline: float | None = None) -> tuple[Hit | None, int]:
    """Search for a tree whose outputs violate L_out.

    Returns the smallest counterexample drawn (the first of the smallest)
    with its outputs, or None, and the ticks spent.  A one-node tree is
    evaluated when it is drawn, and a hit there returns at once, charged
    the trees drawn so far.  The larger trees are drawn and charged first;
    then they are built and evaluated smallest first, in draw order among
    equals, up to the first hit.  Sampling stops before a tree whose price
    would take the ticks past ``max_ticks`` (as soon as its growth shows
    it), and once ``time.monotonic()`` passes ``deadline``.
    """
    rng = instance_rng(instance)
    cap = arity_cap(instance)
    layers = len(instance.model.layers)
    ticks = 0
    drawn = []
    for _ in range(SAMPLES):
        shape = grow_tree(rng, layers, cap, None if max_ticks is None else max_ticks - ticks, deadline)
        if shape is None:
            break
        nodes, edges = shape
        labels = draw_labels(rng, instance, nodes)
        if labels is None:
            continue
        ticks += price(len(nodes), layers)
        if len(nodes) > 1:
            drawn.append((nodes, edges, labels))
            continue
        # the smallest-first pass would evaluate this tree before every
        # larger one and after the one-node trees drawn before it, and no
        # later tree can be smaller: a hit here is its answer
        if deadline is not None and time.monotonic() > deadline:
            return None, ticks
        hit = _violation(instance, pointed_tree(instance, nodes, edges, labels))
        if hit is not None:
            return hit, ticks
    drawn.sort(key=lambda tree: len(tree[0]))  # stable: draw order among equals
    for nodes, edges, labels in drawn:
        if deadline is not None and time.monotonic() > deadline:
            break
        hit = _violation(instance, pointed_tree(instance, nodes, edges, labels))
        if hit is not None:
            return hit, ticks
    return None, ticks


def _violation(instance: LvpInstance, tree: PointedGraph) -> Hit | None:
    """The tree with its outputs when they violate L_out, else None."""
    model = instance.model
    # through the module attribute, so that a wrapper installed on
    # gnn.gnn_eval (a profiler, lvpbench's tracer) sees the call
    outputs = gnn.gnn_eval(model, tree)
    out_vals = dict(zip(model.output_features, (v.payload for v in outputs)))
    if all(eval_linineq(q, out_vals, model.spec) for q in instance.l_out):
        return None
    return tree, outputs
