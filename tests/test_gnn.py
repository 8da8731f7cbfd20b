import json
import random

import pytest

from gnncheck import gnn as gnn_mod
from gnncheck.arith import ArithmeticSpec, Value
from gnncheck.errors import SchemaError, UsageError
from gnncheck.gnn import (
    _aggregate,
    DeltaMode,
    Fnn,
    FnnLayer,
    GnnLayer,
    GnnModel,
    LinIneq,
    eval_linineq,
    fnn_eval_p,
    gnn_eval,
    gnn_from_json,
    gnn_to_json,
    lvp_from_json,
    lvp_to_json,
)
from gnncheck.graph import LabeledGraph, PointedGraph

from conftest import (
    FIX32_4,
    SAT7,
    message_model,
    two_layer_instance,
    two_layer_model,
)


def payloads(spec, *literals):
    return [spec.parse_literal(s) for s in literals]


class TestFnnEval:
    def test_first_layer_on_ones(self, supp_model):
        comb = supp_model.layers[0].comb
        assert fnn_eval_p(comb, payloads(SAT7, "1", "1", "1", "1"), SAT7) == [0, 1]

    def test_zero_annihilation(self):
        layer = FnnLayer(((0, 0),), (0,), ("relu",))
        assert fnn_eval_p(Fnn((layer,)), payloads(SAT7, "3", "-2"), SAT7) == [0]

    def test_row_with_self_weight_variant(self):
        # comb rows as literally printed: second row keeps the 1/1000 self weight
        model = message_model(second_row_self_weight=True)
        out = fnn_eval_p(model.layers[0].comb, payloads(FIX32_4, "100", "1000"), FIX32_4)
        assert [FIX32_4.format_payload(p) for p in out] == ["0.8000", "1.1000"]

    def test_dimension_mismatch(self, supp_model):
        with pytest.raises(UsageError):
            fnn_eval_p(supp_model.layers[0].comb, payloads(SAT7, "1"), SAT7)


class TestGnnEval:
    def test_supp_forward_golden(self, supp_model, supp_graph_e):
        out = gnn_eval(supp_model, supp_graph_e)
        assert [v.payload for v in out] == [5, 0, 1]

    def test_supp_single_node(self, supp_model):
        g = LabeledGraph(SAT7, ("x1", "x2"), ("v",), (), {"v": {"x1": 0, "x2": 0}})
        out = gnn_eval(supp_model, PointedGraph(g, "v"))
        assert [v.payload for v in out] == [0, 2, 0]

    def test_message_counterexample_golden(self, msg_model, msg_counterexample):
        out = gnn_eval(msg_model, msg_counterexample)
        assert [str(v) for v in out] == ["0.8000", "1.0000"]

    def test_single_node_equals_layer_composition(self, supp_model):
        g = LabeledGraph(SAT7, ("x1", "x2"), ("v",), (), {"v": {"x1": 1, "x2": -1}})
        out = gnn_eval(supp_model, PointedGraph(g, "v"))
        state = [1, -1]
        from gnncheck.gnn import fnn_eval_p

        for layer in supp_model.layers:
            state = fnn_eval_p(layer.comb, state + [0, 0], SAT7)
        want = fnn_eval_p(supp_model.out, state, SAT7)
        assert [v.payload for v in out] == want

    def test_spec_mismatch_rejected(self, supp_model):
        g = LabeledGraph(ArithmeticSpec.satint(9), ("x1", "x2"), ("v",), (), {"v": {"x1": 0, "x2": 0}})
        with pytest.raises(UsageError):
            gnn_eval(supp_model, PointedGraph(g, "v"))

    def test_mean_max_weighted_layers(self):
        spec = ArithmeticSpec.satint(9)
        comb = Fnn((FnnLayer(((0, spec.one),), (0,), ("id",)),))  # state' = agg
        graph = LabeledGraph(
            spec, ("x1",), ("u", "a", "b"), (("u", "a"), ("u", "b")),
            {"u": {"x1": 0}, "a": {"x1": 3}, "b": {"x1": 4}},
        )
        p = PointedGraph(graph, "u")

        def run(kind, weights=None):
            model = GnnModel(
                spec, (GnnLayer(kind, comb, weights),), Fnn.identity(1, spec), ("x1",), ("y1",)
            )
            return gnn_eval(model, p)[0].payload

        assert run("sum") == 7
        assert run("mean") == 4  # 3.5 rounds away from zero
        assert run("max") == 4
        assert run("weighted", (2, -1)) == 2


def all_nodes_eval(model, pointed):
    """gnn_eval before it skipped nodes out of reach: every node at every layer."""
    graph, spec = pointed.graph, model.spec
    states = {n: [graph.label_payload(n, f) for f in model.input_features] for n in graph.nodes}
    for layer in model.layers:
        nxt = {}
        for n in graph.nodes:
            succ = [states[s] for s in graph.successors(n)]
            if layer.agg_weights is not None and len(layer.agg_weights) < len(succ):
                raise UsageError("more successors than weights")
            nxt[n] = fnn_eval_p(layer.comb, states[n] + _aggregate(layer, succ, spec), spec)
        states = nxt
    return [Value(p, spec) for p in fnn_eval_p(model.out, states[pointed.point], spec)]


AGG_KINDS = ("sum", "mean", "max", "weighted")
MAX_OUT_DEGREE = 4


def random_gnn(rng, spec, n_layers, first_kind, n_weights):
    top = min(spec.max_payload, 2 * spec.one)
    dims = [rng.randint(1, 2)]
    layers = []
    for l in range(n_layers):
        kind = first_kind if l == 0 else rng.choice(AGG_KINDS)
        width = rng.randint(1, 2)
        rows = tuple(tuple(rng.randint(-top, top) for _ in range(2 * dims[-1])) for _ in range(width))
        bias = tuple(rng.randint(-top, top) for _ in range(width))
        comb = Fnn((FnnLayer(rows, bias, tuple(rng.choice(("relu", "id", "truncrelu")) for _ in range(width))),))
        weights = tuple(rng.randint(-top, top) for _ in range(n_weights)) if kind == "weighted" else None
        layers.append(GnnLayer(kind, comb, weights))
        dims.append(width)
    out = Fnn((FnnLayer((tuple(rng.randint(-top, top) for _ in range(dims[-1])),), (0,), ("id",)),))
    return GnnModel(spec, tuple(layers), out, tuple(f"x{i + 1}" for i in range(dims[0])), ("y1",))


def random_graph(rng, spec, features):
    """A graph pointed at "p" with a cycle p -> a -> b -> a, a self-loop at b,
    b reachable at distances 1 and 2, nodes "u" and "w" out of reach of the
    point (u has an edge into it), and random extra nodes and edges."""
    extra = [f"e{i}" for i in range(rng.randint(0, 6))]
    nodes = ["p", "a", "b", "u", "w"] + extra
    edges = {("p", "a"), ("a", "b"), ("p", "b"), ("b", "b"), ("b", "a"), ("u", "p"), ("u", "w")}
    targets = [n for n in nodes if n not in ("u", "w")]
    for _ in range(rng.randint(0, 3 * len(nodes))):
        src, dst = rng.choice(nodes), rng.choice(targets)
        if sum(1 for e in edges if e[0] == src) < MAX_OUT_DEGREE:
            edges.add((src, dst))
    m = spec.max_payload
    labels = {n: {f: rng.choice((0, spec.one, -spec.one, m, -m, rng.randint(-m, m))) for f in features} for n in nodes}
    order = sorted(edges, key=lambda e: rng.random())
    return PointedGraph(LabeledGraph(spec, features, tuple(rng.sample(nodes, len(nodes))), tuple(order), labels), "p")


class TestReachPruning:
    @pytest.mark.parametrize("spec", [SAT7, ArithmeticSpec.fixed(5, 1)], ids=["satint:7", "fixed:5:1"])
    @pytest.mark.parametrize("first_kind", AGG_KINDS)
    def test_matches_all_nodes_evaluation(self, spec, first_kind):
        rng = random.Random(f"reach:{spec.spec_string()}:{first_kind}")
        for i in range(60):
            model = random_gnn(rng, spec, i % 5, first_kind, MAX_OUT_DEGREE + rng.randint(0, 1))
            pointed = random_graph(rng, spec, model.input_features)
            assert gnn_eval(model, pointed) == all_nodes_eval(model, pointed), i

    def test_layer_l_evaluates_the_nodes_within_L_minus_l(self, monkeypatch):
        # a path p -> n1 -> ... -> n5 under two layers: layer 1 needs p and
        # n1, layer 2 only p, then the output net at p
        spec = SAT7
        nodes = ("p",) + tuple(f"n{i}" for i in range(1, 6))
        graph = LabeledGraph(spec, ("x1",), nodes, tuple(zip(nodes, nodes[1:])), {n: {"x1": 1} for n in nodes})
        comb = Fnn((FnnLayer(((1, 1),), (0,), ("id",)),))
        model = GnnModel(spec, (GnnLayer("sum", comb), GnnLayer("sum", comb)), Fnn.identity(1, spec), ("x1",), ("y1",))
        calls = []

        def counted(fnn, inputs, spec):
            calls.append(fnn)
            return fnn_eval_p(fnn, inputs, spec)

        monkeypatch.setattr(gnn_mod, "fnn_eval_p", counted)
        assert gnn_eval(model, PointedGraph(graph, "p"))[0].payload == 4
        assert len(calls) == 2 + 1 + 1

    def test_weighted_arity_checked_beyond_reach(self):
        # u has two successors but a single weight, and cannot reach the point
        spec = SAT7
        graph = LabeledGraph(
            spec, ("x1",), ("p", "u", "x"), (("u", "p"), ("u", "x")), {n: {"x1": 1} for n in ("p", "u", "x")}
        )
        comb = Fnn((FnnLayer(((1, 1),), (0,), ("id",)),))
        model = GnnModel(spec, (GnnLayer("weighted", comb, (1,)),), Fnn.identity(1, spec), ("x1",), ("y1",))
        with pytest.raises(UsageError, match="1 weights for 2 successors"):
            gnn_eval(model, PointedGraph(graph, "p"))


class TestJson:
    def test_gnn_round_trip(self, supp_model):
        assert gnn_from_json(gnn_to_json(supp_model)) == supp_model

    def test_message_round_trip(self, msg_model):
        doc = json.loads(json.dumps(gnn_to_json(msg_model)))
        assert gnn_from_json(doc) == msg_model

    def test_lvp_round_trip(self, supp_instance):
        assert lvp_from_json(lvp_to_json(supp_instance)) == supp_instance

    def test_empty_lin_round_trips(self):
        inst = two_layer_instance()
        inst = type(inst)(inst.model, (), inst.l_out, inst.delta)
        assert lvp_from_json(lvp_to_json(inst)) == inst

    def test_schema_error_names_path(self):
        doc = gnn_to_json(two_layer_model())
        doc["layers"][0]["comb"]["weights"][0][1] = "99"
        with pytest.raises(SchemaError) as err:
            gnn_from_json(doc)
        assert "weights" in str(err.value)

    def test_unknown_activation_is_a_schema_error_at_load(self):
        doc = gnn_to_json(two_layer_model())
        doc["layers"][0]["comb"]["activation"] = ["sigmoid"] * len(doc["layers"][0]["comb"]["bias"])
        with pytest.raises(SchemaError, match="unknown activation 'sigmoid'") as err:
            gnn_from_json(doc)
        assert err.value.path == "$.layers[0].comb"
        with pytest.raises(UsageError, match="unknown activation"):
            FnnLayer(((1,),), (0,), ("sigmoid",))

    def test_shared_feature_name_rejected(self):
        # an output named like an input became the same formula feature, and
        # y1 = x1 + 1 >= 0 under x1 >= -7 was reported valid
        doc = gnn_to_json(message_model())
        doc["outputs"] = ["x1", "y2"]
        with pytest.raises(SchemaError):
            gnn_from_json(doc)
        with pytest.raises(UsageError):
            GnnModel(SAT7, (), Fnn.identity(2, SAT7), ("x1", "x1"), ("y1", "y2"))

    @pytest.mark.parametrize(
        "key, names, bad",
        [("features", ["and"], "and"), ("features", ["1x"], "1x"), ("features", [""], ""),
         ("outputs", ["y 1", "y2"], "y 1"), ("outputs", ["y1", "relu"], "relu"), ("outputs", ["y1", "y-2"], "y-2")],
    )
    def test_feature_name_that_does_not_parse_back_rejected(self, key, names, bad):
        # compile printed "and + -1*y 1 = 0 and not y 1 >= 0" for features
        # ["and"] and outputs ["y 1"], and sat could not read it back
        doc = gnn_to_json(message_model())
        doc[key] = names
        with pytest.raises(SchemaError, match=repr(bad)):
            gnn_from_json(doc)
        with pytest.raises(UsageError, match="not an identifier"):
            GnnModel(SAT7, (), Fnn.identity(3, SAT7), ("x1",), ("y1", "y2", bad))

    def test_feature_names_that_parse_back_accepted(self):
        model = GnnModel(SAT7, (), Fnn.identity(2, SAT7), ("_x", "feat_2"), ("y1", "out9"))
        assert model.input_features == ("_x", "feat_2")

    def test_default_feature_names(self):
        doc = gnn_to_json(message_model())
        del doc["features"]
        del doc["outputs"]
        model = gnn_from_json(doc)
        assert model.input_features == ("x1",)
        assert model.output_features == ("y1", "y2")

    @pytest.mark.parametrize("layers", [False, True])
    def test_input_dim_checked_against_the_network_before_naming(self, layers):
        # the default names x1 ... xN are made only for an N the network takes:
        # half the first combination's width, or the output network's width
        doc = gnn_to_json(message_model() if layers else GnnModel(SAT7, (), Fnn.identity(1, SAT7), ("x1",), ("y1",)))
        del doc["features"]
        doc["input_dim"] = 3
        with pytest.raises(SchemaError, match="input_dim 3 disagrees with the network's input width 1") as err:
            gnn_from_json(doc)
        assert err.value.path == "$.input_dim"


class TestLinIneq:
    def test_eval_in_declared_order(self):
        spec = SAT7
        ineq = LinIneq((("y1", 1), ("y2", -1)), 0)
        assert eval_linineq(ineq, {"y1": 3, "y2": 1}, spec)
        assert not eval_linineq(ineq, {"y1": 0, "y2": 1}, spec)

    def test_scoping_validated(self):
        model = message_model()
        with pytest.raises(UsageError):
            from gnncheck.gnn import LvpInstance

            LvpInstance(model, (LinIneq((("zz", 1),), 0),), (), DeltaMode.unary(1))

    def test_delta_parse(self):
        assert DeltaMode.parse("unary:5") == DeltaMode.unary(5)
        assert DeltaMode.parse("binary:8") == DeltaMode.binary(8)
        assert DeltaMode.parse("inf") == DeltaMode.infinite()
        with pytest.raises(UsageError):
            DeltaMode.parse("unary:-1")

    @pytest.mark.parametrize("value", [2.5, "2", True, -1])
    def test_delta_value_is_a_non_negative_int(self, value):
        # 2.5 used to pass, and then crash the sampler on int.bit_length
        with pytest.raises(UsageError):
            DeltaMode("unary", value)
