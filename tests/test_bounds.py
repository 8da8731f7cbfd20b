"""The interval pre-check of ``verify_lvp``: ``ArithmeticSpec.agg_hull``,
``bounds.input_box``, ``bounds.BoxSplit``'s root box mapped up the compiled
formula by ``bounds.dag_ranges``, and ``bounds.BoxSplit.proved``.

Each bound is checked against the program's own point semantics: folds
through ``fold_start``/``fold_step``/``fold_finish``, outputs through
``gnn_eval``, the last layer's inputs and the L_out atoms through
``semantics.eval_payload``, verdicts through the brute-force oracle.
"""

import itertools
import random

from gnncheck.arith import ArithmeticSpec
from gnncheck.bounds import BoxSplit, _reach, dag_ranges, input_box
from gnncheck.compile import compile_lvp
from gnncheck.gnn import (
    DeltaMode,
    Fnn,
    FnnLayer,
    GnnLayer,
    GnnModel,
    LinIneq,
    LvpInstance,
    eval_linineq,
    gnn_eval,
)
from gnncheck.graph import LabeledGraph, PointedGraph
from gnncheck.semantics import Sat, Unsat, brute_force_sat, eval_payload
from gnncheck.tableau import Invalid, SolveLimits, Valid, solve, verify_lvp

from test_compile import random_model

KINDS = ("sum", "mean", "max", "weighted")


def fold(spec, kind, values, weights=None):
    """The aggregation's value over successors with these values."""
    acc = spec.fold_start(kind)
    for i, p in enumerate(values):
        acc = spec.fold_step(kind, acc, p if weights is None else spec.mul_p(weights[i], p))
    return spec.fold_finish(kind, acc, len(values))


def test_hull_holds_every_fold_on_satint3():
    spec = ArithmeticSpec.satint(3)
    m = spec.max_payload
    weight_sets = ((1, 2, -1), (-3, 3, 2), (0, -1, 3), (2,))
    checked = 0
    for lo in range(-m, m + 1):
        for hi in range(lo, m + 1):
            for cap in (0, 1, 2, 3, None):
                for kind in KINDS:
                    for weights in weight_sets if kind == "weighted" else (None,):
                        hull = spec.agg_hull(kind, lo, hi, cap, weights)
                        top = 3 if cap is None else cap
                        if weights is not None:
                            top = min(top, len(weights))
                        for arity in range(top + 1):
                            for values in itertools.product(range(lo, hi + 1), repeat=arity):
                                v = fold(spec, kind, values, weights)
                                assert hull[0] <= v <= hull[1], (kind, lo, hi, cap, weights, values, hull)
                                checked += 1
    assert checked > 25_000


def test_hull_holds_a_saturated_mean_below_lo():
    spec = ArithmeticSpec.satint(7)
    assert fold(spec, "mean", (5, 5)) == 4  # 5 + 5 saturates at 7, and 7 / 2 rounds to 4
    lo, hi = spec.agg_hull("mean", 5, 5, 2)
    assert lo <= 4 and hi >= 5


def test_hull_examples():
    spec = ArithmeticSpec.satint(7)
    assert spec.agg_hull("sum", -1, 2, None) == (-7, 7)
    assert spec.agg_hull("sum", 0, 2, None) == (0, 7)
    assert spec.agg_hull("sum", 1, 2, 3) == (0, 6)
    assert spec.agg_hull("max", 2, 3, None) == (0, 3)
    # at most one successor per weight, whatever δ
    assert spec.agg_hull("weighted", 1, 1, None, (1, 1)) == (0, 2)


def random_instance(rng, spec, delta, max_layers=3, max_dim=2):
    """A ``random_model`` whose layers draw their aggregation kind (and
    weights, clamped to the value set), under a random single-variable and,
    at width 2, a two-variable input constraint, and a random output
    constraint on y1."""
    base = random_model(rng, spec, max_layers, max_dim)
    one = spec.one
    layers = []
    for layer in base.layers:
        kind = rng.choice(KINDS)
        weights = None
        if kind == "weighted":
            weights = tuple(spec.clamp(rng.randint(-2 * one, 2 * one)) for _ in range(rng.randint(1, 4)))
        layers.append(GnnLayer(kind, layer.comb, weights))
    model = GnnModel(spec, tuple(layers), base.out, base.input_features, base.output_features)
    m = spec.max_payload
    l_in = [LinIneq((("x1", spec.clamp(rng.choice((-2, -1, 1, 2)) * one)),), rng.randint(-m, m))]
    if model.input_dim == 2 and rng.random() < 0.5:
        l_in.append(LinIneq((("x1", one), ("x2", -one)), rng.randint(-m, m)))
    l_out = (LinIneq((("y1", rng.choice((-1, 1)) * one),), rng.randint(-m, m)),)
    return LvpInstance(model, tuple(l_in), l_out, delta)


def draw_payload(rng, spec):
    m = spec.max_payload
    return rng.choice((-m, m, 0, spec.one, -spec.one, rng.randint(-m, m)))


def random_graph(rng, instance, max_nodes=6):
    """A random graph, with cycles and self-loops, whose nodes have at most δ
    successors and no more than any weighted layer has weights, pointed at a
    node whose label meets L_in; None when no drawn label met it."""
    model, spec = instance.model, instance.model.spec
    n = rng.randint(1, max_nodes)
    nodes = tuple(f"n{i}" for i in range(n))
    cap = n if instance.delta.value is None else min(n, instance.delta.value)
    for layer in model.layers:
        if layer.agg_weights is not None:
            cap = min(cap, len(layer.agg_weights))
    edges = tuple((a, b) for a in nodes for b in rng.sample(nodes, rng.randint(0, cap)))
    labels = {v: {f: draw_payload(rng, spec) for f in model.input_features} for v in nodes}
    point = rng.choice(nodes)
    for _ in range(30):
        if all(eval_linineq(q, labels[point], spec) for q in instance.l_in):
            return PointedGraph(LabeledGraph(spec, model.input_features, nodes, edges, labels), point)
        labels[point] = {f: draw_payload(rng, spec) for f in model.input_features}
    return None


SPECS = tuple(ArithmeticSpec.satint(a) for a in range(2, 8)) + (ArithmeticSpec.fixed(5, 1),)
DELTAS = (DeltaMode.unary(1), DeltaMode.unary(3), DeltaMode.binary(2), DeltaMode.binary(5), DeltaMode.infinite())


def test_input_box_is_exact_for_single_variable_constraints():
    rng = random.Random(31)
    for i in range(200):
        spec = SPECS[i % len(SPECS)]
        instance = random_instance(rng, spec, DeltaMode.unary(1))
        box = input_box(instance)
        single = [q for q in instance.l_in if len(q.coeffs) == 1]
        meets = [x for x in spec.values_p() if all(eval_linineq(q, {"x1": x}, spec) for q in single)]
        if box is None:
            assert meets == []
        else:
            assert meets == list(range(box[0][0], box[0][1] + 1))
            assert all(b == (-spec.max_payload, spec.max_payload) for b in box[1:])


def mapped(compiled, split, box, tops):
    """The ranges of the expressions tops, above the split's dimensions, on
    the box: the pass ``BoxSplit`` maps a box with, up to other tops."""
    nodes = compiled.formula.arena._exprs
    order = sorted(_reach(nodes, tops, set(split.dims)) - set(split.dims))
    table = dag_ranges(compiled.formula.spec, nodes, order, None, zip(split.dims, box))
    return [table[e] for e in tops]


def test_every_output_lies_in_the_box():
    rng = random.Random(7)
    graphs = boxes = 0
    for i in range(350):
        spec = SPECS[i % len(SPECS)]
        delta = DELTAS[i % len(DELTAS)]
        instance = random_instance(rng, spec, delta)
        compiled = compile_lvp(instance)
        split = BoxSplit(instance, compiled)
        if split.root is None:
            continue
        box = mapped(compiled, split, split.root, compiled.outputs)
        boxes += 1
        for _ in range(12):
            pointed = random_graph(rng, instance)
            if pointed is None:
                continue
            outputs = [v.payload for v in gnn_eval(instance.model, pointed)]
            assert all(lo <= p <= hi for p, (lo, hi) in zip(outputs, box)), (i, outputs, box)
            graphs += 1
    assert boxes >= 300 and graphs >= 3000


def test_the_box_mapping_holds_the_point_semantics():
    """At a point that meets L_in, of a graph with cycles and self-loops
    within the arity bound, the root box holds the value of each input of
    the last FNNs, and the range the root box, or any box in it that holds
    those values, maps an L_out atom's expression to holds its value."""
    rng = random.Random(13)
    specs = tuple(ArithmeticSpec.satint(a) for a in range(3, 8)) + (ArithmeticSpec.fixed(5, 1),)
    deltas = (DeltaMode.unary(1), DeltaMode.unary(2), DeltaMode.unary(3))
    points = boxes = 0
    kinds = set()
    for i in range(300):
        spec, delta = specs[i % len(specs)], deltas[(i // len(specs)) % len(deltas)]
        instance = random_instance(rng, spec, delta)
        if instance.model.output_dim == 2:
            instance = LvpInstance(
                instance.model, instance.l_in, instance.l_out + (LinIneq((("y1", 1), ("y2", -1)), 0),), delta
            )
        kinds.update(layer.agg_kind for layer in instance.model.layers)
        compiled = compile_lvp(instance)
        split = BoxSplit(instance, compiled)
        if split.root is None:
            continue
        arena = compiled.formula.arena
        exprs = [arena.formula(atom)[1] for atom in compiled.l_out]
        for _ in range(6):
            pointed = random_graph(rng, instance)
            if pointed is None:
                continue
            memo = {}
            at = [eval_payload(pointed.graph, pointed.point, arena, e, memo) for e in split.dims]
            assert all(lo <= v <= hi for v, (lo, hi) in zip(at, split.root)), (i, at, split.root)
            want = [eval_payload(pointed.graph, pointed.point, arena, e, memo) for e in exprs]
            points += 1
            for k in range(4):
                # the root, then boxes in it around the point's values
                box = [(rng.randint(lo, v), rng.randint(v, hi)) for v, (lo, hi) in zip(at, split.root)]
                box = split.root if k == 0 else box
                got = mapped(compiled, split, box, exprs)
                assert all(lo <= v <= hi for v, (lo, hi) in zip(want, got)), (i, box, want, got)
                boxes += 1
    assert kinds == set(KINDS) and points >= 1000 and boxes >= 4000


def test_oracle_never_satisfies_a_precheck_valid():
    rng = random.Random(99)
    deltas = (DeltaMode.unary(0), DeltaMode.unary(1), DeltaMode.unary(2), DeltaMode.binary(2))
    proved = unsat = 0
    for i in range(400):
        spec = ArithmeticSpec.satint(2 + i % 2)
        delta = deltas[i % len(deltas)]
        instance = random_instance(rng, spec, delta, max_layers=1)
        if not BoxSplit(instance, compile_lvp(instance)).proved:
            continue
        proved += 1
        verdict = brute_force_sat(compile_lvp(instance).formula, delta.value)
        assert not isinstance(verdict, Sat), i
        unsat += isinstance(verdict, Unsat)
    assert proved >= 100 and unsat == proved


def sum_sum_weighted_model():
    """y1 is the sum of t = truncrelu(x1), in [0, 1], over the successors of
    the point's one successor that its weighted(1) layer reads."""
    spec = ArithmeticSpec.satint(7)
    own = Fnn((FnnLayer(((1, 0),), (0,), ("truncrelu",)),))
    aggregated = Fnn((FnnLayer(((0, 1),), (0,), ("id",)),))
    return GnnModel(
        spec,
        (GnnLayer("sum", own), GnnLayer("sum", aggregated), GnnLayer("weighted", aggregated, (1,))),
        Fnn((FnnLayer(((1,),), (0,), ("id",)),)),
        ("x1",),
        ("y1",),
    )


def test_weighted_cap_is_per_layer():
    """The root box takes each aggregation's hull over arities up to its
    cap, or up to that aggregation's own weight count.  Given δ alone it
    bounds y1 by 3, though ``gnn_eval`` gives no node more successors than
    the weighted layer's one weight.  ``BoxSplit`` gives it δ capped at the
    formula's weight cap, the network's (``arith.arity_bound``), so the sum
    layers' hulls are over one successor and y1 <= 1 holds on the whole box."""
    model = sum_sum_weighted_model()
    instance = LvpInstance(model, (), (LinIneq((("y1", -1),), -1),), DeltaMode.unary(3))
    compiled = compile_lvp(instance)
    split = BoxSplit(instance, compiled)
    assert mapped(compiled, split, split.root, compiled.outputs) == [(0, 1)]
    assert split.proved
    # y1 is up to 3 when the successor may have 3 successors
    compiled.formula.weight_cap = None
    split = BoxSplit(instance, compiled)
    assert mapped(compiled, split, split.root, compiled.outputs) == [(0, 3)]
    assert not split.proved


def test_the_tableau_gives_no_node_more_successors_than_weights():
    """gnn_eval, and so the oracle, give no node more successors than the
    weighted layer's one weight, so y1 <= 1 holds.  verify_lvp's interval
    pass proves it over that bound; the tableau, called on the compiled
    formula under the instance's own δ, must not return a model whose
    successor has two."""
    model = sum_sum_weighted_model()
    for delta in (DeltaMode.unary(3), DeltaMode.binary(3), DeltaMode.infinite()):
        instance = LvpInstance(model, (), (LinIneq((("y1", -1),), -1),), delta)
        assert verify_lvp(instance, SolveLimits(max_terms=100_000)) == Valid("bounds"), delta
        assert solve(compile_lvp(instance).formula, delta, SolveLimits(max_terms=100_000)) == Unsat(), delta
    assert isinstance(brute_force_sat(compile_lvp(instance).formula, 3), Unsat)


def test_vacuous_and_proved_instances_are_valid_by_bounds():
    spec = ArithmeticSpec.satint(7)
    comb = Fnn((FnnLayer(((1, 1),), (0,), ("relu",)),))
    model = GnnModel(spec, (GnnLayer("max", comb),), Fnn((FnnLayer(((1,),), (0,), ("id",)),)), ("x1",), ("y1",))
    nonneg = (LinIneq((("y1", 1),), 0),)
    assert verify_lvp(LvpInstance(model, (), nonneg, DeltaMode.infinite())) == Valid("bounds")
    # x1 >= 3 and -x1 >= -2 meet no point
    empty = (LinIneq((("x1", 1),), 3), LinIneq((("x1", -1),), -2))
    positive = (LinIneq((("y1", 1),), 1),)
    assert verify_lvp(LvpInstance(model, empty, positive, DeltaMode.unary(1))) == Valid("bounds")
    # without L_in, relu(x1 + max) = 0 at x1 = -7
    verdict = verify_lvp(LvpInstance(model, (), positive, DeltaMode.unary(1)), SolveLimits(max_terms=10_000))
    assert isinstance(verdict, Invalid)
