import json
import random

import pytest

from gnncheck.arith import ArithmeticSpec
from gnncheck.errors import SchemaError, UsageError
from gnncheck.graph import LabeledGraph, PointedGraph, load_json, save_json, to_dot, tree

SAT7 = ArithmeticSpec.satint(7)


def supp_graph():
    """Three-node graph: v(1,1) -> v1(0,1), v -> v2(1,0), v2 -> v."""
    return LabeledGraph(
        SAT7,
        ("x1", "x2"),
        ("v", "v1", "v2"),
        (("v", "v1"), ("v", "v2"), ("v2", "v")),
        {"v": {"x1": 1, "x2": 1}, "v1": {"x1": 0, "x2": 1}, "v2": {"x1": 1, "x2": 0}},
    )


class TestConstruction:
    def test_successor_order_is_declaration_order(self):
        g = supp_graph()
        assert g.successors("v") == ("v1", "v2")
        assert g.out_degree("v") == 2
        assert g.out_degree("v1") == 0
        assert g.out_degree("v2") == 1

    def test_unknown_node_rejected(self):
        g = supp_graph()
        with pytest.raises(UsageError):
            g.successors("nope")

    def test_multi_edge_rejected(self):
        with pytest.raises(UsageError):
            LabeledGraph(SAT7, ("x1",), ("a", "b"), (("a", "b"), ("a", "b")), {"a": {"x1": 0}, "b": {"x1": 0}})

    def test_self_loop_allowed(self):
        g = LabeledGraph(SAT7, ("x1",), ("a",), (("a", "a"),), {"a": {"x1": 1}})
        assert g.successors("a") == ("a",)

    def test_partial_label_rejected(self):
        with pytest.raises(UsageError):
            LabeledGraph(SAT7, ("x1", "x2"), ("a",), (), {"a": {"x1": 0}})

    def test_point_must_exist(self):
        with pytest.raises(UsageError):
            PointedGraph(supp_graph(), "zz")


class TestTree:
    def test_root_only(self):
        for counts in ([], [0]):
            t = tree(SAT7, ("x1", "x2"), counts, [[3, -1]])
            assert t.point == "v"
            assert t.graph.nodes == ("v",)
            assert t.graph.edges == ()
            assert t.graph.labels == {"v": {"x1": 3, "x2": -1}}

    def test_breadth_first_names_edges_and_labels(self):
        # node i has counts[i] successors; v1 and v2.1 lie past the end of counts
        t = tree(SAT7, ("x1",), [2, 0, 1], [[0], [1], [2], [3]])
        assert t.point == "v"
        assert t.graph.nodes == ("v", "v1", "v2", "v2.1")
        assert t.graph.edges == (("v", "v1"), ("v", "v2"), ("v2", "v2.1"))
        assert t.graph.labels == {"v": {"x1": 0}, "v1": {"x1": 1}, "v2": {"x1": 2}, "v2.1": {"x1": 3}}
        assert t.graph.successors("v1") == ()
        assert t.graph.successors("v2.1") == ()


class TestJson:
    def test_round_trip_preserves_labels_and_order(self):
        g = supp_graph()
        loaded, point = load_json(save_json(g, "v"), SAT7)
        assert loaded == g
        assert point == "v"
        assert loaded.successors("v") == ("v1", "v2")

    def test_empty_graph_round_trips(self):
        g = LabeledGraph(SAT7, (), (), (), {})
        loaded, point = load_json(save_json(g), SAT7)
        assert loaded == g and point is None

    def test_schema_error_paths(self):
        with pytest.raises(SchemaError) as err:
            load_json({"features": ["x1"], "nodes": [{"id": "a", "label": {}}], "edges": []}, SAT7)
        assert "nodes[0]" in str(err.value)
        with pytest.raises(SchemaError) as err:
            load_json(
                {"features": ["x1"], "nodes": [{"id": "a", "label": {"x1": "99"}}], "edges": []},
                SAT7,
            )
        assert "x1" in str(err.value)

    def test_document_is_json_serializable(self):
        json.dumps(save_json(supp_graph(), "v"))

    def test_random_round_trip(self):
        rng = random.Random(7)
        for _ in range(25):
            n = rng.randint(0, 20)
            nodes = tuple(f"n{i}" for i in range(n))
            possible = [(a, b) for a in nodes for b in nodes]
            rng.shuffle(possible)
            edges = tuple(possible[: rng.randint(0, len(possible))])
            labels = {a: {"x1": rng.randint(-7, 7)} for a in nodes}
            g = LabeledGraph(SAT7, ("x1",), nodes, edges, labels)
            loaded, _ = load_json(save_json(g), SAT7)
            assert loaded == g
            for a in nodes:
                assert loaded.successors(a) == g.successors(a)


class TestDot:
    def test_single_node_statement(self):
        g = LabeledGraph(SAT7, ("x1",), ("a",), (), {"a": {"x1": 3}})
        dot = to_dot(g)
        assert dot.count('"a" [') == 1
        assert "x1=3" in dot

    def test_edges_present(self):
        dot = to_dot(supp_graph(), point="v")
        assert '"v" -> "v1";' in dot
        assert "doublecircle" in dot
