"""Counterexample search by sampling, run ahead of the tableau.

``falsify`` draws ``SAMPLES`` random pointed trees for an LVP instance, runs
each through ``gnn_eval`` and returns, among those whose outputs violate
L_out, the one with the fewest nodes.  A tree is as deep as the network has
layers (deeper nodes cannot reach the point's output), and each node has at
most ``arity_cap`` successors.  Labels favour the values where saturating
arithmetic turns: 0, ±one, ±M and small multiples of one, next to uniform
draws from the whole domain.  The point's label is drawn again until it
satisfies L_in.

The draws come from a ``random.Random`` seeded by a sha256 of the instance's
JSON, so an instance always gets the same trees, whatever PYTHONHASHSEED is.
The search is charged to the caller's tick budget at a fixed price per tree:
its nodes times the layers, plus one for the output network.  The price is
not a count of evaluations (``gnn_eval`` skips the nodes that cannot reach
the point's output), so it does not move when the evaluator gets cheaper.
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

# Samples per instance.  Each costs about as much as a few hundred tableau
# ticks of wall time, and every instance pays for all of them, so the number
# stays small.  Sampling goes on after a hit: a later, smaller tree makes a
# more readable counterexample, and sampling costs the same whether and
# when a sample hits, so the time of a batch of instances does not swing
# with how many of them are Invalid.
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


def sample_tree(rng: random.Random, instance: LvpInstance, cap: int) -> PointedGraph | None:
    """One random tree pointed at its root "v", or None when no drawn point
    label satisfied L_in.  Node names follow the tableau's models: "v1" is
    the root's first successor, "v1.2" that node's second."""
    model = instance.model
    spec, features = model.spec, model.input_features
    nodes, edges = ["v"], []
    frontier = ["v"]
    for _ in model.layers:
        grown = []
        for parent in frontier:
            for i in range(1, rng.randint(0, cap) + 1):
                child = f"v{i}" if parent == "v" else f"{parent}.{i}"
                edges.append((parent, child))
                grown.append(child)
        nodes += grown
        frontier = grown
    labels = {n: {f: draw_payload(rng, spec) for f in features} for n in nodes}
    point = labels["v"]
    for _ in range(POINT_DRAWS):
        if all(eval_linineq(q, point, spec) for q in instance.l_in):
            return PointedGraph(LabeledGraph(spec, features, tuple(nodes), tuple(edges), labels), "v")
        point.update((f, draw_payload(rng, spec)) for f in features)
    return None


def falsify(instance: LvpInstance, max_ticks: int | None = None, deadline: float | None = None) -> tuple[Hit | None, int]:
    """Search for a tree whose outputs violate L_out.

    Returns the smallest counterexample drawn (the first of the smallest)
    with its outputs, or None, and the ticks spent.  Sampling stops before a
    tree that would take the ticks past ``max_ticks``, and once
    ``time.monotonic()`` passes ``deadline``.
    """
    model = instance.model
    rng = instance_rng(instance)
    cap = arity_cap(instance)
    layers = len(model.layers)
    ticks = 0
    best: Hit | None = None
    for _ in range(SAMPLES):
        if deadline is not None and time.monotonic() > deadline:
            break
        tree = sample_tree(rng, instance, cap)
        if tree is None:
            continue
        cost = len(tree.graph.nodes) * layers + 1
        if max_ticks is not None and ticks + cost > max_ticks:
            break
        ticks += cost
        # through the module attribute, so that a wrapper installed on
        # gnn.gnn_eval (a profiler, lvpbench's tracer) sees the call
        outputs = gnn.gnn_eval(model, tree)
        out_vals = dict(zip(model.output_features, (v.payload for v in outputs)))
        if not all(eval_linineq(q, out_vals, model.spec) for q in instance.l_out):
            if best is None or len(tree.graph.nodes) < len(best[0].graph.nodes):
                best = (tree, outputs)
    return best, ticks
