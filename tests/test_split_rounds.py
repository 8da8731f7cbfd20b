"""What ``verify_lvp`` runs between the first sampling round and the
tableau: branch and bound over the last layer's input box
(``bounds.BoxSplit.run``), then ``EXTRA_ROUNDS`` more rounds of the sampler
(``falsify.Sampler``)."""

import dataclasses
import random
import tracemalloc

from gnncheck import bounds as bounds_mod
from gnncheck import falsify as falsify_mod
from gnncheck.arith import ArithmeticSpec
from gnncheck.bounds import MAX_BOXES, BoxSplit, box_price
from gnncheck.compile import compile_lvp
from gnncheck.falsify import EXTRA_ROUNDS, Sampler
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
from gnncheck.graph import LabeledGraph
from gnncheck.semantics import Budget, Sat, Unknown, Unsat, brute_force_sat, check
from gnncheck.tableau import Invalid, SolveLimits, Valid, verify_lvp

from test_bounds import mapped
from test_compile import random_model
from test_falsify import KINDS, deep_sum_instance, first_round, random_instance, relational_instance, split_instance


def oracle_cases(count):
    """``random_model`` GNNs over satint:3-7 with one or two layers, each
    layer of a drawn aggregation kind (a weighted one with fewer weights
    than δ where δ allows), under unary δ 1-3 and a random constraint on x1."""
    rng = random.Random(4711)
    for i in range(count):
        spec = ArithmeticSpec.satint(3 + i % 5)
        delta = DeltaMode.unary(1 + (i // 5) % 3)
        model = random_model(rng, spec, max_layers=2, max_dim=2)
        layers = []
        for j, layer in enumerate(model.layers):
            kind = KINDS[(i // 15 + j) % 4]
            weights = None
            if kind == "weighted":
                weights = tuple(rng.randint(-2, 2) for _ in range(rng.randint(1, max(1, delta.value - 1))))
            layers.append(GnnLayer(kind, layer.comb, weights))
        model = dataclasses.replace(model, layers=tuple(layers))
        yield LvpInstance(model, (LinIneq((("x1", 1),), rng.randint(-2, 2)),), (), delta)


def split_of(instance):
    return BoxSplit(instance, compile_lvp(instance))


def output_box(instance, box):
    """The range of each output on a box of the split's dimensions."""
    compiled = compile_lvp(instance)
    return mapped(compiled, BoxSplit(instance, compiled), box, compiled.outputs)


def tightest_split_bound(instance, y, c):
    """The largest k for which the split proves c*y >= k and the output box
    does not, or None."""
    box = output_box(instance, split_of(instance).root)
    lo, hi = dict(zip(instance.model.output_features, box))[y]
    base = k = lo if c > 0 else -hi
    while k < instance.model.spec.max_payload:
        stronger = dataclasses.replace(instance, l_out=(LinIneq(((y, c),), k + 1),))
        if not split_of(stronger).run(Budget())[0]:
            break
        k += 1
    return None if k == base else k


def test_the_oracle_never_satisfies_a_split_valid():
    """Each bound the split proves on an output, from below and from above,
    at its tightest: a point past it would be a counterexample."""
    proved = unsat = 0
    for i, instance in enumerate(oracle_cases(400)):
        for y in instance.model.output_features:
            for c in (1, -1):
                k = tightest_split_bound(instance, y, c)
                if k is None:
                    continue
                proved += 1
                formula = compile_lvp(dataclasses.replace(instance, l_out=(LinIneq(((y, c),), k),))).formula
                verdict = brute_force_sat(formula, instance.delta.value, max_steps=50_000)
                assert not isinstance(verdict, Sat), (i, y, c, k)
                unsat += isinstance(verdict, Unsat)
    assert proved >= 30 and unsat >= 15


def recorded_boxes(monkeypatch):
    """Route ``BoxSplit._meets`` through a recorder of the boxes it maps."""
    boxes = []
    meets = BoxSplit._meets

    def recorded(split, box):
        boxes.append(box)
        return meets(split, box)

    monkeypatch.setattr(BoxSplit, "_meets", recorded)
    return boxes


def test_the_split_bisects_the_widest_dimension_depth_first_lower_half_first(monkeypatch):
    instance = split_instance()
    boxes = recorded_boxes(monkeypatch)
    split = split_of(instance)
    assert split.run(Budget()) == (True, len(boxes))
    # x1 and the sum over two successors both span [-7, 7], but the last
    # comb reads the sum with weight 0, so L_out does not reach it and only
    # x1 is split; y1 >= 0 holds for x1 <= 0, and the upper half splits x1
    # again, lower half first
    assert boxes[0] == split.root == [(-7, 7), (-7, 7)]
    assert boxes[1:4] == [[(-7, 0), (-7, 7)], [(1, 7), (-7, 7)], [(1, 4), (-7, 7)]]
    assert all(box[1] == (-7, 7) for box in boxes)
    assert split.proved is False


def test_verify_lvp_maps_the_root_box_once(monkeypatch):
    """The bounds map the root box; the split that follows starts from
    that mapping, and still counts the root as its first box.  On
    ``split_instance`` the split proves it, on ``relational_instance`` it
    gives up and the tableau decides."""
    for instance in (split_instance(), relational_instance()):
        split = split_of(instance)
        _, needed = split.run(Budget())
        root = split.root
        with monkeypatch.context() as patched:
            boxes = recorded_boxes(patched)
            assert isinstance(verify_lvp(instance), Valid)
        assert boxes[0] == root and boxes.count(root) == 1
        assert len(boxes) == needed


def test_a_split_without_read_dimensions_gives_up_at_its_first_failing_box():
    """y1 = 0*x1 + 0*agg - 1 >= 0 fails everywhere, and no bisection can
    change the box the last comb sees."""
    spec = ArithmeticSpec.satint(7)
    comb = Fnn((FnnLayer(((0, 0),), (-1,), ("id",)),))
    model = GnnModel(spec, (GnnLayer("sum", comb),), Fnn.identity(1, spec), ("x1",), ("y1",))
    instance = LvpInstance(model, (), (LinIneq((("y1", 1),), 0),), DeltaMode.unary(2))
    assert split_of(instance).run(Budget()) == (False, 1)


def test_the_split_respects_its_box_cap(monkeypatch):
    split = split_of(split_instance())
    proved, needed = split.run(Budget())
    assert proved and 1 < needed < MAX_BOXES
    with monkeypatch.context() as patched:
        patched.setattr(bounds_mod, "MAX_BOXES", needed - 1)
        assert split.run(Budget()) == (False, needed - 1)
    per_box = box_price(split.instance.model)
    assert split.run(Budget(needed * per_box)) == (True, needed)
    assert split.run(Budget((needed - 1) * per_box)) == (False, needed - 1)
    assert split.run(Budget(0)) == (False, 0)
    assert split.run(Budget(None, time_limit=-1)) == (False, 0)  # a deadline passed


def test_the_split_is_charged_to_the_tick_budget():
    """One tick short of the first round and every box the split needs, the
    split stops a box early and the tableau gets at most one tick."""
    instance = split_instance()
    _, sampled = first_round(instance)
    _, needed = split_of(instance).run(Budget())
    budget = sampled + needed * box_price(instance.model)
    assert verify_lvp(instance, SolveLimits(max_terms=budget)) == Valid("split")
    assert verify_lvp(instance, SolveLimits(max_terms=budget - 1)) == Unknown("node-limit")


def test_the_split_gives_up_at_a_failing_single_value_box(monkeypatch):
    """relu(x1) and x1 reach the last layer as two independent intervals,
    so a box of single values with relu(x1) = 0 and x1 = 1 fails, and no
    box after it is mapped.  The last comb reads only those two (the
    aggregated ones with weight 0), so the others are never split."""
    instance = relational_instance()
    boxes = recorded_boxes(monkeypatch)
    proved, count = split_of(instance).run(Budget())
    assert not proved and count == len(boxes) < MAX_BOXES
    last = boxes[-1]
    assert last[:2] == [(0, 0), (1, 1)] and last[2:] == boxes[0][2:]
    assert output_box(instance, last)[0][0] < 0  # y1 >= 0 fails on it


def test_hits_of_later_rounds_replay_through_gnn_eval_and_check():
    """Instances are drawn until hits of rounds 2 and 4 have replayed, up to
    a fixed bound: about one instance in a hundred is first hit by a later
    round, and one in a thousand by the last."""
    rng = random.Random(7)
    rounds = []
    for i in range(10_000):
        if len(rounds) >= 3 and {2, 4} <= set(rounds):
            break
        spec = (ArithmeticSpec.satint(7), ArithmeticSpec.fixed(8, 1))[i % 2]
        instance = random_instance(rng, spec, DeltaMode.unary(1 + i % 3), max_layers=3)
        split = split_of(instance)
        if split.proved:
            continue
        sampler = Sampler(instance, Budget())
        if sampler.round() is not None or split.run(Budget())[0]:
            continue
        hits = [sampler.round() for _ in range(EXTRA_ROUNDS)]
        found = [(k, hit) for k, hit in enumerate(hits, start=2) if hit is not None]
        if not found:
            continue
        k, (tree, outputs) = found[0]
        rounds.append(k)
        verdict = verify_lvp(instance)
        assert verdict == Invalid(tree, outputs), i
        model = instance.model
        assert gnn_eval(model, tree) == outputs
        out_vals = dict(zip(model.output_features, (v.payload for v in outputs)))
        assert not all(eval_linineq(q, out_vals, spec) for q in instance.l_out)
        formula = compile_lvp(instance).formula
        graph = tree.graph
        labels = {
            n: {f: graph.labels[n].get(f, out_vals.get(f, 0) if n == tree.point else 0) for f in formula.features}
            for n in graph.nodes
        }
        assert check(LabeledGraph(spec, formula.features, graph.nodes, graph.edges, labels), tree.point, formula)
    assert len(rounds) >= 3 and {2, 4} <= set(rounds)


def test_rounds_without_a_budget_hold_one_round_of_trees(monkeypatch):
    """Each round drops its trees before the next is drawn: the peak of three
    extra rounds is that of one.  Evaluation is left out (every tree meets
    L_out), so the peaks are those of the trees the rounds keep."""
    monkeypatch.setattr(falsify_mod, "tree_eval", lambda instance, counts, payloads: [1])
    instance = deep_sum_instance(10)
    tracemalloc.start()
    try:
        first_round(instance)
        _, alone = tracemalloc.get_traced_memory()
        sampler = Sampler(instance, Budget())
        sampler.round()
        tracemalloc.reset_peak()
        for _ in range(EXTRA_ROUNDS):
            assert sampler.round() is None
        _, extra = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert extra <= 1.2 * alone
