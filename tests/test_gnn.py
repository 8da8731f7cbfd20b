import json

import pytest

from gnncheck.arith import ArithmeticSpec, Value
from gnncheck.errors import SchemaError, UsageError
from gnncheck.gnn import (
    DeltaMode,
    Fnn,
    FnnLayer,
    GnnLayer,
    GnnModel,
    LinIneq,
    eval_linineq,
    fnn_eval,
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


def vals(spec, *literals):
    return [Value.of(spec, s) for s in literals]


class TestFnnEval:
    def test_first_layer_on_ones(self, supp_model):
        comb = supp_model.layers[0].comb
        out = fnn_eval(comb, vals(SAT7, "1", "1", "1", "1"), SAT7)
        assert [v.payload for v in out] == [0, 1]

    def test_zero_annihilation(self):
        layer = FnnLayer(((0, 0),), (0,), ("relu",))
        out = fnn_eval(Fnn((layer,)), vals(SAT7, "3", "-2"), SAT7)
        assert [v.payload for v in out] == [0]

    def test_row_with_self_weight_variant(self):
        # comb rows as literally printed: second row keeps the 1/1000 self weight
        model = message_model(second_row_self_weight=True)
        out = fnn_eval(model.layers[0].comb, vals(FIX32_4, "100", "1000"), FIX32_4)
        assert [str(v) for v in out] == ["0.8000", "1.1000"]

    def test_dimension_mismatch(self, supp_model):
        with pytest.raises(UsageError):
            fnn_eval(supp_model.layers[0].comb, vals(SAT7, "1"), SAT7)


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

    def test_shared_feature_name_rejected(self):
        # an output named like an input became the same formula feature, and
        # y1 = x1 + 1 >= 0 under x1 >= -7 was reported valid
        doc = gnn_to_json(message_model())
        doc["outputs"] = ["x1", "y2"]
        with pytest.raises(SchemaError):
            gnn_from_json(doc)
        with pytest.raises(UsageError):
            GnnModel(SAT7, (), Fnn.identity(2, SAT7), ("x1", "x1"), ("y1", "y2"))

    def test_default_feature_names(self):
        doc = gnn_to_json(message_model())
        del doc["features"]
        del doc["outputs"]
        model = gnn_from_json(doc)
        assert model.input_features == ("x1",)
        assert model.output_features == ("y1", "y2")


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
