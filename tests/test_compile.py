import dataclasses
import random

import pytest

from gnncheck.arith import ArithmeticSpec, arity_bound
from gnncheck.compile import compile_generalized, compile_gnn, compile_lvp, network_outputs, unfold_fnn
from gnncheck.errors import UsageError
from gnncheck.formula import Arena, Formula, parse, structural_expr_key, structural_key, to_text
from gnncheck.gnn import DeltaMode, Fnn, FnnLayer, GnnLayer, GnnModel, LinIneq, LvpInstance, gnn_eval
from gnncheck.graph import LabeledGraph, PointedGraph
from gnncheck.semantics import Sat, Unknown, Unsat, brute_force_sat, check, eval_payload
from gnncheck.tableau import solve

from conftest import message_instance, message_model, two_layer_instance

SAT15 = ArithmeticSpec.satint(15)
FIX32_4 = ArithmeticSpec.fixed(32, 4)


def example_two_layer():
    """Both layers share comb((x,x'),(a,a')) = (a(x+2x'-3a+4a'+5), a(6x+7x'+8a-9a'+10));
    output layer a(x1 + x2 - 2)."""
    comb = Fnn((FnnLayer(
        ((1, 2, -3, 4), (6, 7, 8, -9)),
        (5, 10),
        ("relu", "relu"),
    ),))
    out = Fnn((FnnLayer(((1, 1),), (-2,), ("relu",)),))
    return GnnModel(
        SAT15,
        (GnnLayer("sum", comb), GnnLayer("sum", comb)),
        out,
        ("x", "xp"),
        ("y",),
    )


class TestUnfold:
    def test_example_comb_row(self):
        arena = Arena(SAT15)
        inputs = [arena.feature(n) for n in ("x", "xp")]
        inputs += [arena.agg("sum", e) for e in inputs]
        comb = example_two_layer().layers[0].comb
        outs = unfold_fnn(arena, comb, inputs)
        want = parse("relu(x + 2*xp + -3*agg(x) + 4*agg(xp) + 5) >= 0", SAT15)
        want_expr = want.arena.formula(want.root)[1]
        assert structural_expr_key(arena, outs[0]) == structural_expr_key(want.arena, want_expr)

    def test_identity_fnn_unfolds_to_input(self):
        arena = Arena(SAT15)
        x = arena.feature("x")
        outs = unfold_fnn(arena, Fnn.identity(1, SAT15), [x])
        assert outs == [x]

    def test_message_row_two(self):
        arena = Arena(FIX32_4)
        x = arena.feature("x1")
        a = arena.agg("sum", x)
        comb = message_model().layers[0].comb
        outs = unfold_fnn(arena, comb, [x, a])
        want = parse("0.001*agg(x1) >= 0", FIX32_4)
        want_expr = want.arena.formula(want.root)[1]
        assert structural_expr_key(arena, outs[1]) == structural_expr_key(want.arena, want_expr)

    def test_dimension_mismatch(self):
        arena = Arena(SAT15)
        with pytest.raises(UsageError):
            unfold_fnn(arena, Fnn.identity(2, SAT15), [arena.feature("x")])


class TestCompileGnn:
    def test_example_recurrence_structure(self):
        arena = Arena(SAT15)
        fid, outputs = compile_gnn(arena, example_two_layer())
        assert outputs == ("y",)

        expected = Arena(SAT15)
        xi, xip = expected.feature("x"), expected.feature("xp")

        def layer_step(a, b):
            aggs = (expected.agg("sum", a), expected.agg("sum", b))
            nxt = expected.act(
                "relu",
                expected.add(
                    expected.add(
                        expected.add(expected.add(a, expected.scale(2, b)), expected.scale(-3, aggs[0])),
                        expected.scale(4, aggs[1]),
                    ),
                    expected.const(5),
                ),
            )
            nxtp = expected.act(
                "relu",
                expected.add(
                    expected.add(
                        expected.add(
                            expected.add(expected.scale(6, a), expected.scale(7, b)),
                            expected.scale(8, aggs[0]),
                        ),
                        expected.scale(-9, aggs[1]),
                    ),
                    expected.const(10),
                ),
            )
            return nxt, nxtp

        xi1, xip1 = layer_step(xi, xip)
        xi2, xip2 = layer_step(xi1, xip1)
        out = expected.act("relu", expected.add(expected.add(xi2, xip2), expected.const(-2)))
        want = expected.eq(expected.add(out, expected.scale(-1, expected.feature("y"))), 0)
        assert structural_key(arena, fid) == structural_key(expected, want)

    def test_dag_sharing_beats_tree_size(self):
        arena = Arena(SAT15)
        fid, _ = compile_gnn(arena, example_two_layer())
        _, eids = arena.reachable(fid)

        def tree_size(eid):
            node = arena.expr(eid)
            tag = node[0]
            if tag in ("const", "feat"):
                return 1
            if tag in ("act", "scale", "agg"):
                return 1 + tree_size(node[2])
            return 1 + tree_size(node[1]) + tree_size(node[2])

        atom = arena.formula(fid)[1]
        assert len(eids) < tree_size(atom)

    def test_message_conjuncts_as_printed(self):
        model = message_model()
        arena = Arena(FIX32_4)
        fid, _ = compile_gnn(arena, model)
        want = parse(
            "relu(0.008*x1) + -1*y1 = 0 and 0.001*agg(x1) + -1*y2 = 0",
            FIX32_4,
        )
        assert structural_key(arena, fid) == structural_key(want.arena, want.root)


class TestCompileLvp:
    def test_message_instance_shape(self):
        compiled = compile_lvp(message_instance())
        want = parse(
            "x1 >= 100 and not relu(0.008*x1) >= 0.9",
            FIX32_4,
        )
        assert structural_key(compiled.formula.arena, compiled.formula.root) == structural_key(
            want.arena, want.root
        )

    def test_named_features(self):
        spec = FIX32_4
        w = spec.parse_literal
        comb = Fnn((FnnLayer(((w("0.008"), 0),), (0,), ("relu",)),))
        model = GnnModel(
            spec, (GnnLayer("sum", comb),), Fnn.identity(1, spec), ("x_msg_count",), ("y",)
        )
        inst = LvpInstance(
            model,
            (LinIneq((("x_msg_count", spec.one),), w("100")),),
            (LinIneq((("y", spec.one),), w("0.6")),),
            DeltaMode.unary(2),
        )
        compiled = compile_lvp(inst)
        text = to_text(compiled.formula)
        assert "x_msg_count >= 100.0000" in text
        assert "not relu(0.0080*x_msg_count) >= 0.6000" in text
        assert compiled.formula.features == ("x_msg_count",)

    def test_empty_l_out_is_unsatisfiable(self):
        inst = message_instance()
        inst = LvpInstance(inst.model, inst.l_in, (), inst.delta)
        compiled = compile_lvp(inst)
        small = compile_lvp(
            LvpInstance(
                two_small_model(), (), (), DeltaMode.unary(1)
            )
        )
        assert isinstance(brute_force_sat(small.formula, delta=1), Unsat)
        # the conjunction ends with a negated tautology
        assert "not" in to_text(compiled.formula)

    def test_generalized_matches_lvp_on_single_atoms(self):
        rng = random.Random(11)
        for _ in range(10):
            spec = ArithmeticSpec.satint(5)
            model = random_model(rng, spec)
            cin = rng.randint(-3, 3)
            cout = rng.randint(-3, 3)
            inst = LvpInstance(
                model,
                (LinIneq(((model.input_features[0], spec.one),), cin),),
                (LinIneq(((model.output_features[0], spec.one),), cout),),
                DeltaMode.unary(2),
            )
            via_lvp = compile_lvp(inst)
            pre = parse(f"{model.input_features[0]} >= {cin}", spec)
            post = parse(f"{model.output_features[0]} >= {cout}", spec)
            via_gen = compile_generalized(model, pre, post)
            assert structural_key(via_lvp.formula.arena, via_lvp.formula.root) == structural_key(
                via_gen.formula.arena, via_gen.formula.root
            )

    def test_generalized_scoping(self):
        model = message_model()
        pre = parse("y1 >= 0", FIX32_4)
        post = parse("y1 >= 0", FIX32_4)
        with pytest.raises(UsageError):
            compile_generalized(model, pre, post)


def two_small_model(spec=ArithmeticSpec.satint(3)):
    comb = Fnn((FnnLayer(((spec.one, 0),), (0,), ("relu",)),))
    return GnnModel(spec, (GnnLayer("sum", comb),), Fnn.identity(1, spec), ("x1",), ("y1",))


def random_model(rng, spec, max_layers=2, max_dim=2):
    dims = [rng.randint(1, max_dim)]
    n_layers = rng.randint(1, max_layers)
    layers = []
    for _ in range(n_layers):
        out_dim = rng.randint(1, max_dim)
        rows = tuple(
            tuple(rng.randint(-2, 2) for _ in range(2 * dims[-1])) for _ in range(out_dim)
        )
        bias = tuple(rng.randint(-2, 2) for _ in range(out_dim))
        acts = tuple(rng.choice(["relu", "id"]) for _ in range(out_dim))
        layers.append(GnnLayer("sum", Fnn((FnnLayer(rows, bias, acts),))))
        dims.append(out_dim)
    out_dim = rng.randint(1, max_dim)
    rows = tuple(tuple(rng.randint(-2, 2) for _ in range(dims[-1])) for _ in range(out_dim))
    out = Fnn((FnnLayer(rows, tuple(rng.randint(-2, 2) for _ in range(out_dim)), ("id",) * out_dim),))
    return GnnModel(
        spec,
        tuple(layers),
        out,
        tuple(f"x{i + 1}" for i in range(dims[0])),
        tuple(f"y{i + 1}" for i in range(out_dim)),
    )


def exhaustive_small_instances():
    """Eight one-layer sum instances on satint:2, one input and one output."""
    spec = ArithmeticSpec.satint(2)
    rng = random.Random(3)
    for _ in range(8):
        model = random_model(rng, spec, max_layers=1, max_dim=1)
        yield LvpInstance(
            model,
            (LinIneq(((model.input_features[0], spec.one),), rng.randint(-2, 2)),),
            (LinIneq(((model.output_features[0], spec.one),), rng.randint(-2, 2)),),
            DeltaMode.unary(2),
        )


AGG_KINDS = ("sum", "mean", "max", "weighted")


def aggregation_instances():
    """Seeded instances on satint:2-3 with 1-2 layers of every aggregation
    kind, a weighted layer with 1..delta weights, delta 1-2, and L_in and
    L_out of one or two inequalities over up to two features."""
    rng = random.Random(41)
    for i in range(40):
        spec = ArithmeticSpec.satint(2 + i % 2)
        delta = 1 + (i // 2) % 2
        model = random_model(rng, spec)
        layers = []
        for j, layer in enumerate(model.layers):
            kind = AGG_KINDS[(i + j) % 4]
            weights = None
            if kind == "weighted":
                weights = tuple(rng.randint(-2, 2) for _ in range(rng.randint(1, delta)))
            layers.append(GnnLayer(kind, layer.comb, weights))
        model = dataclasses.replace(model, layers=tuple(layers))

        def ineqs(names):
            return tuple(
                LinIneq(
                    tuple((name, rng.choice((-1, 1))) for name in rng.sample(names, rng.randint(1, len(names)))),
                    rng.randint(-2, 2),
                )
                for _ in range(rng.randint(1, 2))
            )

        yield LvpInstance(model, ineqs(model.input_features), ineqs(model.output_features), DeltaMode.unary(delta))


def with_phi_n(inst):
    """The reduction with phi_N: L_in and compile_gnn's ties of fresh output
    features y to the output expressions and not L_out over y, declaring
    the inputs, the outputs and the network's weight cap."""
    model = inst.model
    arena = Arena(model.spec)
    phi_n, outputs = compile_gnn(arena, model)

    def atom(q):
        terms = [arena.scale(coeff, arena.feature(var)) for var, coeff in q.coeffs]
        expr = terms[0]
        for term in terms[1:]:
            expr = arena.add(expr, term)
        return arena.geq(expr, q.const)

    l_in = [atom(q) for q in inst.l_in]
    root = arena.conjoin([*l_in, phi_n, arena.disjoin([arena.not_(atom(q)) for q in inst.l_out])])
    f = Formula(arena, root, tuple(model.input_features) + outputs)
    f.weight_cap = arity_bound(f.weight_cap, model.weight_cap)
    return f


class TestBridges:
    def test_semantic_bridge_outputs_satisfy_phi_n(self):
        rng = random.Random(5)
        spec = ArithmeticSpec.satint(6)
        for _ in range(20):
            model = random_model(rng, spec)
            arena = Arena(spec)
            fid, outputs = compile_gnn(arena, model)
            n = rng.randint(1, 3)
            nodes = tuple(f"n{i}" for i in range(n))
            edges = []
            for a in range(n):
                for b in range(n):
                    if rng.random() < 0.4:
                        edges.append((nodes[a], nodes[b]))
            base_labels = {
                node: {f: rng.randint(-2, 2) for f in model.input_features} for node in nodes
            }
            point = nodes[0]
            plain = LabeledGraph(
                spec, tuple(model.input_features), nodes, tuple(edges), base_labels
            )
            outs = gnn_eval(model, PointedGraph(plain, point))
            features = tuple(model.input_features) + tuple(outputs)
            labels = {
                node: {**base_labels[node], **{y: 0 for y in outputs}} for node in nodes
            }
            for y, v in zip(outputs, outs):
                labels[point][y] = v.payload
            g = LabeledGraph(spec, features, nodes, tuple(edges), labels)
            f = Formula(arena, fid, features)
            assert check(g, point, f)
            # flipping any output value falsifies the conjunction
            for y in outputs:
                flipped = {n_: dict(l) for n_, l in labels.items()}
                old = flipped[point][y]
                flipped[point][y] = old - 1 if old == spec.max_payload else old + 1
                g2 = LabeledGraph(spec, features, nodes, tuple(edges), flipped)
                assert not check(g2, point, f)

    def test_output_expressions_evaluate_to_gnn_outputs(self):
        rng = random.Random(23)
        spec = ArithmeticSpec.satint(6)
        for _ in range(15):
            model = random_model(rng, spec)
            arena = Arena(spec)
            outs = network_outputs(arena, model)[0].values()
            n = rng.randint(1, 3)
            nodes = tuple(f"n{i}" for i in range(n))
            edges = tuple(
                (nodes[a], nodes[b]) for a in range(n) for b in range(n) if rng.random() < 0.4
            )
            labels = {
                node: {f: rng.randint(-2, 2) for f in model.input_features} for node in nodes
            }
            g = LabeledGraph(spec, tuple(model.input_features), nodes, edges, labels)
            outputs = gnn_eval(model, PointedGraph(g, nodes[0]))
            for eid, value in zip(outs, outputs):
                assert eval_payload(g, nodes[0], arena, eid) == value.payload

    def test_validity_bridge_exhaustive_small(self):
        for inst in exhaustive_small_instances():
            compiled = compile_lvp(inst)
            verdict = brute_force_sat(compiled.formula, delta=2)
            valid_directly = enumerate_validity(inst, delta=2)
            assert isinstance(verdict, Unsat) == valid_directly

    @pytest.mark.parametrize("instances", [exhaustive_small_instances, aggregation_instances], ids=lambda f: f.__name__)
    def test_same_verdicts_as_with_phi_n(self, instances):
        # L_out over the output expressions decides as L_in and phi_N and
        # not L_out over output features tied to them, for both engines
        for inst in instances():
            delta = inst.delta.value
            old, new = with_phi_n(inst), compile_lvp(inst).formula
            oracle = [brute_force_sat(f, delta) for f in (old, new)]
            assert not isinstance(oracle[0], Unknown)
            assert [type(v) for v in oracle] == [type(oracle[0])] * 2
            for f in (old, new):
                assert type(solve(f, inst.delta)) is type(oracle[0])

    def test_size_linear_in_parameters(self):
        rng = random.Random(9)
        spec = ArithmeticSpec.satint(8)
        for _ in range(15):
            model = random_model(rng, spec, max_layers=4, max_dim=3)
            inst = LvpInstance(model, (), (), DeltaMode.unary(2))
            inst = LvpInstance(
                model,
                (LinIneq(((model.input_features[0], spec.one),), 0),),
                (LinIneq(((model.output_features[0], spec.one),), 0),),
                DeltaMode.unary(2),
            )
            compiled = compile_lvp(inst)
            size = compiled.formula.arena.dag_size(compiled.formula.root)
            budget = model.size() + len(inst.l_in) + len(inst.l_out)
            assert size <= 8 * budget + 20


def enumerate_validity(inst, delta):
    """Direct check of the validity condition over all small pointed trees."""
    spec = inst.model.spec
    from gnncheck.gnn import eval_linineq

    for arity in range(delta + 1):
        import itertools

        for labels in itertools.product(spec.values_p(), repeat=arity + 1):
            nodes = ["u"] + [f"c{i}" for i in range(arity)]
            lab = {n: {"x1": labels[i]} for i, n in enumerate(nodes)}
            g = LabeledGraph(spec, ("x1",), tuple(nodes), tuple(("u", c) for c in nodes[1:]), lab)
            p = PointedGraph(g, "u")
            if all(eval_linineq(q, {"x1": labels[0]}, spec) for q in inst.l_in):
                outs = gnn_eval(inst.model, p)
                vals = dict(zip(inst.model.output_features, (o.payload for o in outs)))
                if not all(eval_linineq(q, vals, spec) for q in inst.l_out):
                    return False
    return True
