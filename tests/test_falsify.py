"""The counterexample sampler ahead of the tableau (gnncheck.falsify)."""

import dataclasses
import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import gnncheck
from gnncheck import falsify as falsify_mod
from gnncheck.arith import ArithmeticSpec, Value
from gnncheck.compile import compile_lvp
from gnncheck.falsify import (
    EXTRA_ROUNDS,
    MAX_SAMPLED_ARITY,
    POINT_DRAWS,
    SAMPLES,
    Sampler,
    _payloads,
    arity_cap,
    build_tree,
    grow_counts,
    instance_rng,
    label_payloads,
    price,
    tree_eval,
)
from gnncheck.gnn import (
    MAX_BOXES,
    BoxSplit,
    DeltaMode,
    Fnn,
    FnnLayer,
    GnnLayer,
    GnnModel,
    LinIneq,
    LvpInstance,
    box_price,
    eval_linineq,
    gnn_eval,
    lvp_from_json,
    lvp_to_json,
)
from gnncheck.graph import LabeledGraph, PointedGraph, save_json
from gnncheck.semantics import Budget, Unknown, Unsat, brute_force_sat
from gnncheck.tableau import Invalid, SolveLimits, Valid, _Search, verify_lvp

from test_compile import random_model
from test_gnn import all_nodes_eval, random_gnn

KINDS = ("sum", "mean", "max", "weighted")


def first_round(instance, budget=None):
    """The first ``Sampler`` round of an instance under ``budget`` (by
    default one without limits): its hit, or None, and the ticks it charged."""
    budget = Budget() if budget is None else budget
    return Sampler(instance, budget).round(), budget.ticks


def random_instance(rng, spec, delta, max_layers=3):
    """A GNN whose layers draw their aggregation kind, under random linear
    constraints on x1 and y1."""
    dims = [rng.randint(1, 2)]
    layers = []
    for _ in range(rng.randint(0, max_layers)):
        width = rng.randint(1, 2)
        rows = tuple(tuple(rng.randint(-2, 2) for _ in range(2 * dims[-1])) for _ in range(width))
        bias = tuple(rng.randint(-2, 2) for _ in range(width))
        comb = Fnn((FnnLayer(rows, bias, tuple(rng.choice(("relu", "id")) for _ in range(width))),))
        kind = rng.choice(KINDS)
        weights = tuple(rng.randint(-2, 2) for _ in range(rng.randint(1, 4))) if kind == "weighted" else None
        layers.append(GnnLayer(kind, comb, weights))
        dims.append(width)
    out = Fnn((FnnLayer((tuple(rng.randint(-2, 2) for _ in range(dims[-1])),), (rng.randint(-2, 2),), ("id",)),))
    model = GnnModel(spec, tuple(layers), out, tuple(f"x{i + 1}" for i in range(dims[0])), ("y1",))
    one = spec.one
    return LvpInstance(
        model,
        (LinIneq((("x1", one),), rng.randint(-2, 2) * one),),
        (LinIneq((("y1", one),), rng.randint(-2, 2) * one),),
        delta,
    )


# sizes of the integer draws: 2 and 5 (the sign and kind of a payload), 7
# (a multiple of one), 15 and 8191 (a uniform payload of satint:7 and
# fixed:13:1), and 131071, which needs 17 bits
DRAW_SIZES = (2, 5, 7, 15, 8191, 131071)


def stdlib_draw_payload(rng, spec):
    """A label payload drawn through randrange, choice and randint."""
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


def test_direct_draws_take_the_values_and_words_of_the_stdlib_calls():
    for n in DRAW_SIZES:
        for seed in range(200):
            ours, twin = random.Random(seed), random.Random(seed)
            # a count of successors under cap n - 1 is one integer below n
            for reference in (lambda: twin.randrange(n), lambda: twin.randint(0, n - 1), lambda: twin.choice(range(n))):
                assert grow_counts(ours.getrandbits, 1, n - 1, Budget()) == [reference()], (n, seed)
                assert ours.getstate() == twin.getstate(), (n, seed)


def test_direct_payload_draws_take_the_values_and_words_of_the_stdlib_calls():
    specs = [ArithmeticSpec.satint((n - 1) // 2) for n in DRAW_SIZES if n % 2]
    specs += [ArithmeticSpec.fixed(13, 1), ArithmeticSpec.fixed(17, 2)]
    for spec in specs:
        for seed in range(200):
            ours, twin = random.Random(seed), random.Random(seed)
            for _ in range(5):
                assert _payloads(ours.getrandbits, 1, spec) == [stdlib_draw_payload(twin, spec)], (spec, seed)
                assert ours.getstate() == twin.getstate(), (spec, seed)


def round_trees(instance):
    """The trees a ``Sampler`` round without a budget draws, built, in draw
    order, each None when no drawn label of its point satisfied L_in: every
    tree's successor counts, with a one-node tree's label drawn as soon as
    its counts are, then the larger trees' labels, smallest first and in
    draw order among equals.  A round draws these trees unless a hit ends
    it first."""
    bits = instance_rng(instance).getrandbits
    layers, cap = len(instance.model.layers), arity_cap(instance)
    shapes, labels = [], {}
    for i in range(SAMPLES):
        shapes.append(grow_counts(bits, layers, cap, Budget()))
        if sum(shapes[i]) == 0:
            labels[i] = label_payloads(bits, instance, 1)
    for i in sorted(range(SAMPLES), key=lambda i: sum(shapes[i])):
        if i not in labels:
            labels[i] = label_payloads(bits, instance, 1 + sum(shapes[i]))
    return [None if labels[i] is None else build_tree(instance, shapes[i], labels[i]) for i in range(SAMPLES)]


def depths(graph):
    """Depth of every node of a tree rooted at "v", by breadth-first search."""
    depth = {"v": 0}
    frontier = ["v"]
    while frontier:
        grown = []
        for node in frontier:
            for succ in graph.successors(node):
                assert succ not in depth, "not a tree"
                depth[succ] = depth[node] + 1
                grown.append(succ)
        frontier = grown
    return depth


def test_sampled_trees_respect_depth_arity_weights_and_l_in():
    rng = random.Random(11)
    deltas = (DeltaMode.unary(1), DeltaMode.unary(3), DeltaMode.binary(9), DeltaMode.infinite())
    trees = 0
    for i in range(60):
        spec = (ArithmeticSpec.satint(3), ArithmeticSpec.fixed(8, 1))[i % 2]
        instance = random_instance(rng, spec, deltas[i % 4])
        model = instance.model
        cap = arity_cap(instance)
        bounds = [MAX_SAMPLED_ARITY] + [len(l.agg_weights) for l in model.layers if l.agg_weights is not None]
        if instance.delta.value is not None:
            bounds.append(instance.delta.value)
        assert cap == min(bounds)
        for tree in round_trees(instance):
            if tree is None:
                continue
            trees += 1
            graph = tree.graph
            assert tree.point == "v"
            depth = depths(graph)
            assert set(depth) == set(graph.nodes)
            assert max(depth.values()) <= len(model.layers)
            assert all(graph.out_degree(n) <= cap for n in graph.nodes)
            point = {f: graph.label_payload("v", f) for f in model.input_features}
            assert all(eval_linineq(q, point, spec) for q in instance.l_in)
            gnn_eval(model, tree)  # a weighted layer never meets more successors than weights
    assert trees > 600


CORE_SPECS = tuple(ArithmeticSpec.satint(b) for b in range(3, 8)) + (ArithmeticSpec.fixed(5, 1), ArithmeticSpec.fixed(12, 1))


def random_counts(rng, layers, cap):
    """Successor counts of a random tree ``layers`` deep, in breadth-first
    order, each in [0, cap], a third of them 0, and the depth of every
    node."""
    counts, node_depths, width = [], [0], 1
    for depth in range(layers):
        grown = 0
        for _ in range(width):
            count = 0 if rng.random() < 1 / 3 else rng.randint(0, cap)
            counts.append(count)
            grown += count
        node_depths += [depth + 1] * grown
        width = grown
    return counts, node_depths


@pytest.mark.parametrize("first_kind", KINDS)
def test_tree_eval_matches_gnn_eval_and_all_nodes_eval(first_kind):
    """The sampler's forward pass on a compact tree gives the outputs of
    gnn_eval on the built tree and of the evaluation of every node at every
    layer, on trees with childless nodes at every depth above the last: a
    childless point, and childless nodes beside parents below it."""
    rng = random.Random(f"core:{first_kind}")
    childless = [0] * 3  # such trees, per depth
    for i in range(210):
        spec = CORE_SPECS[i % len(CORE_SPECS)]
        delta = DeltaMode.unary(rng.randint(2, 5))
        model = random_gnn(rng, spec, i % 4, first_kind, rng.randint(1, delta.value - 1))
        instance = LvpInstance(model, (), (), delta)
        counts, node_depths = random_counts(rng, len(model.layers), arity_cap(instance))
        m = spec.max_payload
        picks = (0, spec.one, -spec.one, m, -m)
        payloads = [rng.choice(picks + (rng.randint(-m, m),)) for _ in range(len(node_depths) * model.input_dim)]
        tree = build_tree(instance, counts, payloads)
        want = gnn_eval(model, tree)
        assert want == all_nodes_eval(model, tree), i
        assert tree_eval(instance, counts, payloads) == [v.payload for v in want], i
        for d in range(len(model.layers)):
            at = [c for c, nd in zip(counts, node_depths) if nd == d]
            childless[d] += 0 in at and (d == 0 or any(at))
    assert min(childless) >= 5


HASHSEED_SCRIPT = """
import json, random
from gnncheck.arith import ArithmeticSpec
from gnncheck.gnn import DeltaMode
from gnncheck.graph import save_json
from gnncheck.tableau import Invalid, SolveLimits, verify_lvp
from test_falsify import random_instance

rng = random.Random(5)
found = []
for i in range(40):
    spec = (ArithmeticSpec.satint(7), ArithmeticSpec.fixed(12, 1))[i % 2]
    v = verify_lvp(random_instance(rng, spec, DeltaMode.unary(2 + i % 2)), SolveLimits(max_terms=500))
    if isinstance(v, Invalid):
        cex = v.counterexample
        found.append([save_json(cex.graph, cex.point), [o.payload for o in v.outputs]])
print(json.dumps(found, sort_keys=True))
"""


def test_counterexamples_repeat_under_pythonhashseed():
    src = str(Path(gnncheck.__file__).resolve().parents[1])
    tests = str(Path(__file__).resolve().parent)
    runs = []
    for seed in ("0", "123"):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join((src, tests)), "PYTHONHASHSEED": seed}
        run = subprocess.run(
            [sys.executable, "-c", HASHSEED_SCRIPT], capture_output=True, text=True, env=env, timeout=120
        )
        assert run.returncode == 0, run.stderr
        runs.append(run.stdout)
    assert runs[0] == runs[1]
    assert len(json.loads(runs[0])) >= 10


def positive_instance():
    """y1 = relu(x1) + 1 >= 1 at every point: valid."""
    spec = ArithmeticSpec.satint(7)
    comb = Fnn((FnnLayer(((1, 0),), (0,), ("relu",)),))
    out = Fnn((FnnLayer(((1,),), (1,), ("id",)),))
    model = GnnModel(spec, (GnnLayer("sum", comb),), out, ("x1",), ("y1",))
    return LvpInstance(model, (), (LinIneq((("y1", 1),), 1),), DeltaMode.unary(2))


def split_instance():
    """y1 = relu(x1) - x1 >= 0 at every point: valid, but only through the
    relation between the two terms.  Interval bounds lose it (y1's box is
    [-7, 7]); splitting the last layer's input box down to single values of
    x1 recovers it."""
    spec = ArithmeticSpec.satint(7)
    comb = Fnn((FnnLayer(((1, 0), (1, 0)), (0, 0), ("relu", "id")),))
    out = Fnn((FnnLayer(((1, -1),), (0,), ("id",)),))
    model = GnnModel(spec, (GnnLayer("sum", comb),), out, ("x1",), ("y1",))
    return LvpInstance(model, (), (LinIneq((("y1", 1),), 0),), DeltaMode.unary(2))


def relational_instance():
    """``split_instance``'s relation through two layers: layer 1 computes
    relu(x1) and x1, layer 2 passes them on, and y1 is their difference.
    The last layer's input box holds them as two independent intervals, so
    the split fails at a box with relu(x1) = 0 and x1 = 1, and after the
    sampler finds nothing the tableau decides it."""
    spec = ArithmeticSpec.satint(7)
    first = Fnn((FnnLayer(((1, 0), (1, 0)), (0, 0), ("relu", "id")),))
    second = Fnn((FnnLayer(((1, 0, 0, 0), (0, 1, 0, 0)), (0, 0), ("id", "id")),))
    out = Fnn((FnnLayer(((1, -1),), (0,), ("id",)),))
    model = GnnModel(spec, (GnnLayer("sum", first), GnnLayer("sum", second)), out, ("x1",), ("y1",))
    return LvpInstance(model, (), (LinIneq((("y1", 1),), 0),), DeltaMode.unary(2))


def test_bounds_prove_positive_instance_before_any_sampling(monkeypatch):
    evaluated = recording_eval(monkeypatch)
    assert verify_lvp(positive_instance(), SolveLimits(max_terms=0)) == Valid("bounds")
    assert evaluated == []


def test_doctored_hit_trips_the_cross_check(monkeypatch):
    instance = relational_instance()
    assert isinstance(verify_lvp(instance), Valid)

    def doctored(instance, counts, payloads):
        return [-1]

    monkeypatch.setattr(falsify_mod, "tree_eval", doctored)
    hit, _ = first_round(instance)
    assert hit is not None  # the sampler believes the doctored outputs
    with pytest.raises(RuntimeError, match="semantics"):
        verify_lvp(instance)


def two_output_instance():
    """y1 = x1 and y2 = agg(x1); L_out reads y1 alone.  Invalid: x1 = 1
    meets L_in and gives y1 = 1 < 2."""
    spec = ArithmeticSpec.satint(7)
    comb = Fnn((FnnLayer(((1, 0), (0, 1)), (0, 0), ("id", "id")),))
    model = GnnModel(spec, (GnnLayer("sum", comb),), Fnn.identity(2, spec), ("x1",), ("y1", "y2"))
    return LvpInstance(model, (LinIneq((("x1", 1),), 1),), (LinIneq((("y1", 1),), 2),), DeltaMode.unary(2))


def wrong_second_output(payloads):
    """The payloads with the second output moved by one, the first kept."""
    y1, y2 = payloads
    return [y1, y2 - 1 if y2 == 7 else y2 + 1]


class NoSamples:
    """A sampler whose rounds find nothing, so that the tableau decides."""

    cut = True

    def __init__(self, instance, budget):
        pass

    def round(self):
        return None


@pytest.mark.parametrize("path", ["sampler", "tableau"])
def test_a_wrong_output_that_l_out_does_not_read_trips_the_cross_check(monkeypatch, path):
    # L_out still fails and the reduction's formula still holds on the
    # counterexample; only the comparison of the output expressions with the
    # reported outputs can see that y2 is wrong
    instance = two_output_instance()
    assert isinstance(verify_lvp(instance), Invalid)
    if path == "sampler":
        monkeypatch.setattr(falsify_mod, "tree_eval", lambda *args: wrong_second_output(tree_eval(*args)))
    else:

        def doctored(model, pointed):
            payloads = wrong_second_output([v.payload for v in gnn_eval(model, pointed)])
            return [Value(p, model.spec) for p in payloads]

        monkeypatch.setattr(gnncheck.tableau, "Sampler", NoSamples)
        monkeypatch.setattr(gnncheck.tableau, "gnn_eval", doctored)
    with pytest.raises(RuntimeError, match="semantics"):
        verify_lvp(instance)


def test_outputs_that_meet_l_out_trip_the_cross_check(monkeypatch):
    # the tableau's model is a counterexample; doctored outputs that meet
    # L_out are not
    instance = two_output_instance()
    monkeypatch.setattr(gnncheck.tableau, "Sampler", NoSamples)
    monkeypatch.setattr(gnncheck.tableau, "gnn_eval", lambda model, pointed: [Value(2, model.spec)] * 2)
    with pytest.raises(RuntimeError, match="satisfies the output constraints"):
        verify_lvp(instance)


def test_a_point_that_fails_l_in_trips_the_cross_check(monkeypatch):
    # a sampled tree whose point is relabelled to fail L_in after its
    # outputs were taken
    instance = two_output_instance()

    def relabelled(instance, counts, payloads):
        return build_tree(instance, counts, [0, *payloads[1:]])

    monkeypatch.setattr(falsify_mod, "build_tree", relabelled)
    with pytest.raises(RuntimeError, match="input constraints"):
        verify_lvp(instance)


def recording_eval(monkeypatch, outputs=None):
    """Route the sampler's evaluations (falsify.tree_eval) through a
    recorder of the trees they evaluate, built; with ``outputs``, every call
    returns those payloads instead of evaluating."""
    evaluated = []

    def recorded(instance, counts, payloads):
        evaluated.append(build_tree(instance, counts, payloads))
        return tree_eval(instance, counts, payloads) if outputs is None else outputs(instance.model)

    monkeypatch.setattr(falsify_mod, "tree_eval", recorded)
    return evaluated


def test_sampling_keeps_the_smallest_hit_and_stops_drawing_at_a_one_node_hit(monkeypatch):
    instance = positive_instance()
    evaluated = recording_eval(monkeypatch, lambda model: [-1])
    hit, ticks = first_round(instance)
    trees = round_trees(instance)
    sizes = [len(t.graph.nodes) for t in trees]
    first = sizes.index(1)
    assert first > 0  # a larger tree is drawn before it
    assert hit[0] == trees[first]
    # every sample hits, so the sampling ends at the first one-node tree
    assert ticks == sum(price(n, len(instance.model.layers)) for n in sizes[: first + 1])
    assert evaluated == [hit[0]]  # the larger trees are never evaluated


def test_a_one_node_hit_on_the_first_draw_grows_no_other_tree(monkeypatch):
    """y1 = relu(x1 + relu(x1 + Σ)) >= 4 fails at a lone point with x1 <= 1,
    the first tree this instance draws."""
    spec = ArithmeticSpec.satint(7)
    comb = Fnn((FnnLayer(((1, 1),), (0,), ("relu",)),))
    out = Fnn((FnnLayer(((1,),), (0,), ("id",)),))
    model = GnnModel(spec, (GnnLayer("sum", comb),) * 2, out, ("x1",), ("y1",))
    instance = LvpInstance(model, (), (LinIneq((("y1", 1),), 4),), DeltaMode.unary(4))
    first = round_trees(instance)[0]
    assert first.graph.nodes == ("v",)
    grown = []

    def counted(*args):
        grown.append(grow_counts(*args))
        return grown[-1]

    monkeypatch.setattr(falsify_mod, "grow_counts", counted)
    evaluated = recording_eval(monkeypatch)
    assert first_round(instance) == ((first, [Value(0, spec)]), price(1, 2))
    assert len(grown) == 1 and evaluated == [first]


def test_without_a_hit_every_drawn_tree_is_evaluated_once_smallest_first(monkeypatch):
    instance = positive_instance()
    evaluated = recording_eval(monkeypatch)
    assert first_round(instance)[0] is None
    drawn = [t for t in round_trees(instance) if t is not None]
    assert evaluated == sorted(drawn, key=lambda t: len(t.graph.nodes))


def deep_sum_instance(layers):
    """A ``layers``-deep sum network under δ = unary:4: its sampled trees
    grow about twice wider per layer."""
    spec = ArithmeticSpec.satint(7)
    comb = Fnn((FnnLayer(((1, 1),), (0,), ("relu",)),))
    out = Fnn((FnnLayer(((1,),), (1,), ("id",)),))
    model = GnnModel(spec, (GnnLayer("sum", comb),) * layers, out, ("x1",), ("y1",))
    return LvpInstance(model, (), (LinIneq((("y1", 1),), 1),), DeltaMode.unary(4))


def test_an_oversized_tree_stops_growing_at_the_budget():
    instance = deep_sum_instance(24)
    start = time.monotonic()
    _, ticks = first_round(instance, Budget(10_000))
    assert time.monotonic() - start < 1.0
    assert ticks <= 10_000
    assert first_round(instance, Budget(10_000, time_limit=-1)) == (None, 0)  # a deadline passed


class ExpiresAt(Budget):
    """A budget without limits whose deadline passes at the k-th call of
    ``expired`` and stays passed."""

    def __init__(self, k):
        super().__init__()
        self.k, self.calls = k, 0

    def expired(self):
        self.calls += 1
        return self.calls >= self.k


def test_a_deadline_that_passes_mid_round_cuts_it_before_the_next_labels(monkeypatch):
    """The round asks the deadline after a one-node shape is charged and
    before each deferred tree, and each time it draws that tree's labels
    next.  A deadline that passes at one of these asks cuts the round there:
    it returns None, is charged the shapes drawn so far, and draws no more
    labels."""
    instance = positive_instance()  # valid: no tree hits
    layers = len(instance.model.layers)
    labelled = []  # (the asks of the deadline so far, nodes) per label draw

    def counted(bits, instance, nodes):
        labelled.append((budget.calls, nodes))
        return label_payloads(bits, instance, nodes)

    monkeypatch.setattr(falsify_mod, "label_payloads", counted)
    shapes = recorded_shapes(monkeypatch)
    budget = ExpiresAt(float("inf"))
    assert Sampler(instance, budget).round() is None
    uncut = labelled[:]
    ones = [calls for calls, nodes in uncut if nodes == 1]
    deferred = [calls for calls, nodes in uncut if nodes > 1]
    assert len(ones) >= 2 and len(deferred) >= 2
    # the ask before the second one-node tree's label, then the ask before
    # the second deferred tree's
    for k, last_shape in ((ones[1], False), (deferred[1], True)):
        before = [nodes for calls, nodes in uncut if calls < k]
        labelled.clear()
        shapes.clear()
        budget = ExpiresAt(k)
        sampler = Sampler(instance, budget)
        assert sampler.round() is None and sampler.cut, k
        assert None not in shapes and (len(shapes) == SAMPLES) == last_shape, k
        assert budget.ticks == sum(price(1 + sum(c), layers) for c in shapes), k
        assert [nodes for _, nodes in labelled] == before, k


def stdlib_shape(rng, instance, cap, left):
    """The nodes and edges of a tree grown through ``randint``, node by
    node breadth first, as deep as the network has layers; None as soon as
    a layer shows that its price exceeds ``left`` ticks.  A later shape's
    labels come after the draws of the layers grown here, so the tree stops
    where the sampler's growth stops."""
    layers = len(instance.model.layers)
    nodes, edges, frontier = ["v"], [], ["v"]
    for depth in range(layers + 1):
        if left is not None and len(nodes) * layers + 1 > left:
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


def stdlib_labelled(rng, instance, nodes, edges):
    """The validated tree of ``nodes`` and ``edges`` with labels drawn node
    by node through the stdlib calls, and the point's drawn again until it
    satisfies L_in; None when ``POINT_DRAWS`` draws of it fail."""
    model = instance.model
    spec, features = model.spec, model.input_features
    labels = {n: {f: stdlib_draw_payload(rng, spec) for f in features} for n in nodes}
    point = labels["v"]
    for _ in range(POINT_DRAWS):
        if all(eval_linineq(q, point, spec) for q in instance.l_in):
            return PointedGraph(LabeledGraph(spec, features, tuple(nodes), tuple(edges), labels), "v")
        point.update((f, stdlib_draw_payload(rng, spec)) for f in features)
    return None


def violation(instance, tree):
    """``gnn_eval``'s outputs of the tree when they violate L_out, else None."""
    model = instance.model
    outputs = gnn_eval(model, tree)
    out_vals = dict(zip(model.output_features, (v.payload for v in outputs)))
    return None if all(eval_linineq(q, out_vals, model.spec) for q in instance.l_out) else outputs


def every_tree_falsify(instance, max_ticks=None):
    """Reference: draw the trees through the stdlib calls in the sampler's
    order, charging each when its shape is drawn: a one-node tree's label at
    once, the larger trees' labels after the last shape, smallest first.
    Then evaluate every tree and keep the first of the smallest hits in draw
    order.  A one-node hit ends the drawing, since no later tree can beat
    it, and so does a shape whose price exceeds the ticks left."""
    model = instance.model
    rng = instance_rng(instance)
    cap = arity_cap(instance)
    layers = len(model.layers)
    ticks, trees, larger = 0, [], []
    for _ in range(SAMPLES):
        shape = stdlib_shape(rng, instance, cap, None if max_ticks is None else max_ticks - ticks)
        if shape is None:
            break
        nodes, edges = shape
        ticks += len(nodes) * layers + 1
        if len(nodes) > 1:
            larger.append((len(trees), nodes, edges))
            trees.append(None)
            continue
        trees.append(stdlib_labelled(rng, instance, nodes, edges))
        if trees[-1] is not None and violation(instance, trees[-1]) is not None:
            break
    for i, nodes, edges in sorted(larger, key=lambda t: len(t[1])):
        trees[i] = stdlib_labelled(rng, instance, nodes, edges)
    hits = [(len(t.graph.nodes), i) for i, t in enumerate(trees) if t is not None and violation(instance, t)]
    if not hits:
        return None, ticks
    tree = trees[min(hits)[1]]
    return (tree, violation(instance, tree)), ticks


def smallest_first_falsify(instance, max_ticks=None):
    """Reference: draw and charge every tree's shape, with a one-node
    tree's label drawn as soon as its shape is, then take the trees
    smallest first, in draw order among equals, draw a larger tree's labels
    at its turn, and evaluate up to the first hit."""
    model = instance.model
    bits = instance_rng(instance).getrandbits
    cap = arity_cap(instance)
    layers = len(model.layers)
    budget, drawn = Budget(max_ticks), []
    for _ in range(SAMPLES):
        counts = grow_counts(bits, layers, cap, budget)
        if counts is None:
            break
        size = 1 + sum(counts)
        budget.charge(price(size, layers))
        drawn.append((size, counts, label_payloads(bits, instance, 1) if size == 1 else None))
    drawn.sort(key=lambda tree: tree[0])
    for size, counts, payloads in drawn:
        if size > 1:
            payloads = label_payloads(bits, instance, size)
        if payloads is None:
            continue
        outputs = falsify_mod.tree_eval(instance, counts, payloads)
        out_vals = dict(zip(model.output_features, outputs))
        if not all(eval_linineq(q, out_vals, model.spec) for q in instance.l_out):
            return (build_tree(instance, counts, payloads), [Value(p, model.spec) for p in outputs]), budget.ticks
    return None, budget.ticks


def comparison_cases():
    """240 random instances, each with no budget and two that may cut its
    sampling short: one tick below its full price, and a random one."""
    rng = random.Random(909)
    specs = (ArithmeticSpec.satint(3), ArithmeticSpec.fixed(8, 1), ArithmeticSpec.satint(7))
    deltas = (DeltaMode.unary(1), DeltaMode.unary(3), DeltaMode.binary(5), DeltaMode.infinite())
    for i in range(240):
        instance = random_instance(rng, specs[i % 3], deltas[i % 4])
        full = first_round(instance)[1]
        yield i, instance, (None, full - 1, rng.randint(0, full))


def test_smallest_first_matches_evaluating_every_tree():
    hits = cut = 0
    for i, instance, budgets in comparison_cases():
        full = every_tree_falsify(instance)
        hits += full[0] is not None
        for budget in budgets:
            reference = every_tree_falsify(instance, budget)
            assert first_round(instance, Budget(budget)) == reference, (i, budget)
            cut += reference[1] < full[1]
    assert hits >= 100 and cut >= 300


def test_the_early_stop_evaluates_the_trees_of_the_smallest_first_pass(monkeypatch):
    evaluated = recording_eval(monkeypatch)
    stopped = 0
    for i, instance, budgets in comparison_cases():
        for budget in budgets:
            evaluated.clear()
            hit, ticks = first_round(instance, Budget(budget))
            ours = evaluated[:]
            evaluated.clear()
            reference = smallest_first_falsify(instance, budget)
            assert hit == reference[0] and evaluated == ours, (i, budget)
            stopped += ticks < reference[1]
    assert stopped >= 100


def recorded_shapes(monkeypatch):
    """Route the sampler's growth (falsify.grow_counts) through a recorder
    of the successor counts it returns, None for a tree cut short."""
    shapes = []

    def recorded(*args):
        shapes.append(grow_counts(*args))
        return shapes[-1]

    monkeypatch.setattr(falsify_mod, "grow_counts", recorded)
    return shapes


def test_labels_are_drawn_only_for_the_trees_a_round_reaches(monkeypatch):
    """A round draws labels in the order it evaluates, once per tree, and
    evaluates each tree whose point meets L_in as soon as it is labelled;
    the larger trees past a hit are never labelled."""
    labelled = []

    def counted(bits, instance, nodes):
        payloads = label_payloads(bits, instance, nodes)
        labelled.append((nodes, payloads is not None))
        return payloads

    monkeypatch.setattr(falsify_mod, "label_payloads", counted)
    shapes = recorded_shapes(monkeypatch)
    evaluated = recording_eval(monkeypatch)
    unreached = 0
    for i, instance, budgets in comparison_cases():
        for budget in budgets:
            for recorded in (labelled, shapes, evaluated):
                recorded.clear()
            hit, _ = first_round(instance, Budget(budget))
            sizes = sorted(1 + sum(counts) for counts in shapes if counts is not None)
            assert [n for n, _ in labelled] == sizes[: len(labelled)], (i, budget)
            assert [n for n, ok in labelled if ok] == [len(t.graph.nodes) for t in evaluated], (i, budget)
            if hit is None:
                assert len(labelled) == len(sizes), (i, budget)
            unreached += len(sizes) - len(labelled)
    assert unreached >= 1000


def test_a_round_is_charged_the_price_of_the_shapes_it_draws(monkeypatch):
    shapes = recorded_shapes(monkeypatch)
    for i, instance, budgets in comparison_cases():
        layers = len(instance.model.layers)
        for budget in budgets:
            shapes.clear()
            _, ticks = first_round(instance, Budget(budget))
            assert ticks == sum(price(1 + sum(c), layers) for c in shapes if c is not None), (i, budget)
    # no point meets x1 >= 8 on satint:7: every tree is drawn and charged,
    # and none is evaluated
    instance = dataclasses.replace(positive_instance(), l_in=(LinIneq((("x1", 1),), 8),))
    evaluated = recording_eval(monkeypatch)
    shapes.clear()
    assert first_round(instance) == (None, sum(price(1 + sum(c), 1) for c in shapes))
    assert len(shapes) == SAMPLES and evaluated == []


def first_words(instance):
    rng = instance_rng(instance)
    return [rng.getrandbits(32) for _ in range(8)]


def test_the_seed_survives_json_and_tells_instances_apart():
    rng = random.Random(31)
    specs = (ArithmeticSpec.satint(7), ArithmeticSpec.fixed(12, 1))
    deltas = (DeltaMode.unary(1), DeltaMode.binary(3), DeltaMode.infinite())
    for i in range(60):
        instance = random_instance(rng, specs[i % 2], deltas[i % 3])
        rebuilt = lvp_from_json(json.loads(json.dumps(lvp_to_json(instance))))
        assert first_words(rebuilt) == first_words(instance), i
    instance = relational_instance()
    model = instance.model
    out = model.out.layers[0]
    changed = (
        dataclasses.replace(model, out=Fnn((dataclasses.replace(out, weights=((2, -1),)),))),
        dataclasses.replace(model, input_features=("z1",)),
    )
    others = [dataclasses.replace(instance, model=m) for m in changed] + [
        dataclasses.replace(instance, l_out=(LinIneq((("y1", 1),), 1),)),
        dataclasses.replace(instance, delta=DeltaMode.unary(3)),
    ]
    words = [first_words(other) for other in others]
    assert first_words(instance) not in words and len({tuple(w) for w in words}) == len(words)


def test_sampling_is_charged_to_the_tick_budget():
    instance = positive_instance()
    hit, ticks = first_round(instance, Budget(40))
    assert hit is None and 0 < ticks <= 40
    hit, ticks = first_round(instance)
    assert hit is None and ticks > 40
    assert first_round(instance, Budget(0)) == (None, 0)


def test_tableau_gets_the_ticks_sampling_leaves():
    """The tableau gets what the first round, the split and the extra
    rounds leave: one tick fewer than their sum and its own is Unknown."""
    instance = relational_instance()
    sampled, searched = Budget(), Budget()
    sampler = Sampler(instance, sampled)
    rounds = [sampler.round() for _ in range(1 + EXTRA_ROUNDS)]
    assert rounds == [None] * (1 + EXTRA_ROUNDS)
    proved, boxes = BoxSplit(instance).run(Budget())
    assert not proved and 1 < boxes < MAX_BOXES
    search = _Search(compile_lvp(instance).formula, instance.delta.value, searched)
    assert search.attempt(search.root_state()) is None
    needed = sampled.ticks + boxes * box_price(instance.model) + searched.ticks
    assert verify_lvp(instance, SolveLimits(max_terms=needed)) == Valid("tableau")
    assert verify_lvp(instance, SolveLimits(max_terms=needed - 1)) == Unknown("node-limit")


def test_hits_replay_and_never_meet_an_oracle_unsat():
    rng = random.Random(2024)
    hits = 0
    for i in range(240):
        spec = ArithmeticSpec.satint(2 + i % 2)
        model = random_model(rng, spec, max_layers=1, max_dim=2)
        one = spec.one
        instance = LvpInstance(
            model,
            (LinIneq((("x1", one),), rng.randint(-2, 2) * one),),
            (LinIneq((("y1", one),), rng.randint(-2, 2) * one),),
            DeltaMode.unary(1 + i % 2),
        )
        hit, _ = first_round(instance)
        if hit is None:
            continue
        hits += 1
        tree, outputs = hit
        assert gnn_eval(model, tree) == outputs
        assert isinstance(verify_lvp(instance), Invalid)
        oracle = brute_force_sat(compile_lvp(instance).formula, instance.delta.value, max_steps=200_000)
        assert not isinstance(oracle, Unsat), i
    assert hits >= 100


# (nodes of the hit, its output payloads, the first 16 hex digits of the
# sha256 of its JSON, ticks spent) for each instance of sampler_results, or
# None in the first three places when nothing was hit.  The draws, their
# order and the price of a tree must not depend on what the evaluator skips.
# The ticks are the price of every shape drawn, or of the shapes drawn up to
# a one-node hit.
SAMPLER_GOLDEN = [
    (None, None, None, 221),
    (1, [-1], '87f2e174bf72d428', 35),
    (2, [-3], '6c4f402c5ff1a7b6', 107),
    (1, [1], '5108985dcc60bd3a', 1),
    (1, [2], 'aacb4ceeaffadaac', 3),
    (1, [-3], '5108985dcc60bd3a', 5),
    (None, None, None, 32),
    (None, None, None, 476),
    (None, None, None, 209),
    (1, [-2], '4afa9b124426d6be', 1),
    (None, None, None, 576),
    (1, [-2], '4b983455c2f8610e', 314),
    (1, [-6], '1ad3dee26ebde290', 3),
    (None, None, None, 772),
    (1, [-3], '4b983455c2f8610e', 23),
    (None, None, None, 4812),
    (1, [-1], '033eabbf0ed02eb1', 15),
    (None, None, None, 198),
    (1, [-1], '1ad3dee26ebde290', 3),
    (1, [-249], '27b6aba70d405ad6', 2),
    (1, [-2], '927caa8ae5889dc0', 12),
    (1, [-2], 'c7f4326143de274a', 3),
    (1, [-1], '87f2e174bf72d428', 12),
    (1, [1], '50d29b9c1ae83214', 1),
    (None, None, None, 32),
    (None, None, None, 724),
    (1, [-2], '4b983455c2f8610e', 2),
    (None, None, None, 146),
    (None, None, None, 203),
    (3, [-2], '059e20ce7a7d416f', 256),
    (None, None, None, 1940),
    (None, None, None, 5172),
    (None, None, None, 79),
    (1, [-7], '206c542fb0a2036d', 2),
    (1, [1], 'e190c3bc2bb89559', 10),
    (1, [-2], '7ecd52b9c5f570c2', 34),
    (1, [-1], 'a2608137619897f0', 3),
    (1, [-1], '033eabbf0ed02eb1', 5),
    (1, [-1], '243db7bb34f1d3e3', 3),
    (None, None, None, 1289),
    (None, None, None, 209),
    (1, [-3], '5dbb68cb381ca86a', 14),
    (1, [-2], '869941225cbb01e2', 2),
    (None, None, None, 296),
    (None, None, None, 150),
    (1, [-7], '601873779d6f9610', 8),
    (1, [0], '67ca4334e142672a', 129),
    (None, None, None, 510),
    (None, None, None, 79),
    (1, [-1], '4b8d3fa4baeb306e', 11),
    (None, None, None, 848),
    (1, [-7], '1ad3dee26ebde290', 309),
    (None, None, None, 140),
    (1, [-2], 'e8263456efdda81b', 23),
    (1, [-1], '0efe1378b68d7c1c', 4),
    (1, [-404], 'cca36ee5a8a10783', 1),
    (1, [-3], 'c7f4326143de274a', 8),
    (1, [-5], '50d29b9c1ae83214', 32),
    (None, None, None, 482),
    (1, [-3], 'c7f2c052b5e8e978', 3),
    (1, [-2], 'b263ac919291eaf8', 8),
    (1, [-67], '2eb326525a7a1853', 1),
    (None, None, None, 220),
    (None, None, None, 1992),
    (None, None, None, 32),
    (1, [0], 'c063ae99852374e0', 2),
    (1, [0], '4ce6ab469e541024', 10),
    (None, None, None, 304),
    (1, [-2], '50d29b9c1ae83214', 18),
    (2, [-5], '5123aee2b5ff5956', 446),
    (1, [-2], '033eabbf0ed02eb1', 35),
    (1, [-3], '4b983455c2f8610e', 113),
    (None, None, None, 232),
    (1, [-117], '272356bb27ae27fb', 1),
    (1, [-3], '5108985dcc60bd3a', 11),
    (1, [-2], '54318b7893dacb0b', 68),
    (1, [2], '69cf3d7a5c3470b4', 3),
    (1, [-3], '4b983455c2f8610e', 1),
    (1, [-5], 'aba32e137f039a19', 212),
    (1, [2], 'cc1104be8857b1ed', 20),
    (1, [-2], '22e21b6096a6b2f6', 2),
    (1, [-1], 'ac511d489b6b92fd', 217),
    (None, None, None, 264),
    (1, [-1], '950a4d2c49f542e6', 2),
    (1, [-2], 'c1b294b2910fd7d5', 11),
    (1, [-43], 'a1c7846c576fb411', 44),
    (None, None, None, 32),
    (1, [-5], 'dfd1b788566c3560', 6),
    (1, [1], '83b3f9245eb3df73', 3),
    (1, [-3], '4b983455c2f8610e', 83),
    (1, [-7], 'dfd1b788566c3560', 1),
    (1, [-259], '12307cba7e01f0fa', 1),
    (1, [-1], 'c063ae99852374e0', 14),
    (1, [-2], '1ad3dee26ebde290', 195),
    (None, None, None, 839),
    (2, [-2], '082c2c6f360e186c', 127),
    (None, None, None, 240),
    (None, None, None, 212),
    (2, [0], '285e159e4c8dd3cf', 258),
    (1, [-5], 'a99380b89478ef2b', 1),
]


def sampler_results():
    specs = (ArithmeticSpec.satint(7), ArithmeticSpec.fixed(12, 1), ArithmeticSpec.satint(3))
    deltas = (DeltaMode.unary(1), DeltaMode.unary(2), DeltaMode.binary(3), DeltaMode.infinite())
    rng = random.Random(808)
    for i in range(len(SAMPLER_GOLDEN)):
        hit, ticks = first_round(random_instance(rng, specs[i % 3], deltas[i % 4], max_layers=4))
        if hit is None:
            yield (None, None, None, ticks)
            continue
        tree, outputs = hit
        doc = json.dumps(save_json(tree.graph, tree.point), sort_keys=True)
        digest = hashlib.sha256(doc.encode()).hexdigest()[:16]
        yield (len(tree.graph.nodes), [o.payload for o in outputs], digest, ticks)


def test_sampler_draws_and_prices_are_pinned():
    assert list(sampler_results()) == SAMPLER_GOLDEN
