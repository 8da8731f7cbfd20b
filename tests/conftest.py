"""Shared model and graph fixtures used across the test suite."""

from contextlib import contextmanager

import pytest

from gnncheck import semantics
from gnncheck.arith import ArithmeticSpec
from gnncheck.gnn import DeltaMode, Fnn, FnnLayer, GnnLayer, GnnModel, LinIneq, LvpInstance
from gnncheck.graph import LabeledGraph, PointedGraph

SAT7 = ArithmeticSpec.satint(7)
FIX32_4 = ArithmeticSpec.fixed(32, 4)


@contextmanager
def recording_budgets(module=semantics):
    """Inside the block, every ``semantics.Budget`` that ``module`` makes
    records in ``batches`` the size of each batch charged to it; yields the
    list of those budgets, in the order they were made."""
    made = []

    class Recording(semantics.Budget):
        def __init__(self, *args):
            super().__init__(*args)
            self.batches = []
            made.append(self)

        def charge(self, n):
            self.batches.append(n)
            super().charge(n)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "Budget", Recording)
        yield made


def two_layer_model(spec=SAT7):
    """Two sum-aggregation layers with ReLU combinations and identity output.

    comb_1 rows: relu(2 x1 - x2 + a1 - a2 - 1), relu(x1 + 2 x2 - 2 a1 - a2 + 1)
    comb_2 rows: relu(x1 - x2 + 2 a1 + 2 a2 - 2), relu(2 x1 - 2 a1 - a2 + 2),
                 relu(-x1 + x2 - 2 a1 + a2 - 1)
    """
    comb1 = Fnn((FnnLayer(
        ((2, -1, 1, -1), (1, 2, -2, -1)),
        (-1, 1),
        ("relu", "relu"),
    ),))
    comb2 = Fnn((FnnLayer(
        ((1, -1, 2, 2), (2, 0, -2, -1), (-1, 1, -2, 1)),
        (-2, 2, -1),
        ("relu", "relu", "relu"),
    ),))
    return GnnModel(
        spec,
        (GnnLayer("sum", comb1), GnnLayer("sum", comb2)),
        Fnn.identity(3, spec),
        ("x1", "x2"),
        ("y1", "y2", "y3"),
    )


def two_layer_graph(spec=SAT7):
    """v(1,1) -> v1(0,1), v -> v2(1,0), v2 -> v."""
    return PointedGraph(
        LabeledGraph(
            spec,
            ("x1", "x2"),
            ("v", "v1", "v2"),
            (("v", "v1"), ("v", "v2"), ("v2", "v")),
            {"v": {"x1": 1, "x2": 1}, "v1": {"x1": 0, "x2": 1}, "v2": {"x1": 1, "x2": 0}},
        ),
        "v",
    )


def two_layer_instance(spec=SAT7, delta=DeltaMode.unary(2)):
    """L_in is the tautology 0 >= 0; L_out is y1 - y2 - y3 >= 0."""
    model = two_layer_model(spec)
    one = spec.one
    l_in = (LinIneq((), 0),)
    l_out = (LinIneq((("y1", one), ("y2", -one), ("y3", -one)), 0),)
    return LvpInstance(model, l_in, l_out, delta)


def message_model(spec=FIX32_4, second_row_self_weight=False):
    """One-layer message-count classifier.

    comb rows over (x1, a1): relu(1/125 x1 + 0 a1 + 0) and
    id(0 x1 + 1/1000 a1 + 0); identity output.  ``second_row_self_weight``
    switches the second row to id(1/1000 x1 + 1/1000 a1 + 0).
    """
    w = spec.parse_literal
    row2 = (w("0.001"), w("0.001")) if second_row_self_weight else (0, w("0.001"))
    comb = Fnn((FnnLayer(
        ((w("0.008"), 0), row2),
        (0, 0),
        ("relu", "id"),
    ),))
    return GnnModel(
        spec,
        (GnnLayer("sum", comb),),
        Fnn.identity(2, spec),
        ("x1",),
        ("y1", "y2"),
    )


def message_instance(threshold="0.9", spec=FIX32_4, delta=DeltaMode.unary(5)):
    model = message_model(spec)
    l_in = (LinIneq((("x1", spec.one),), spec.parse_literal("100")),)
    l_out = (LinIneq((("y1", spec.one),), spec.parse_literal(threshold)),)
    return LvpInstance(model, l_in, l_out, delta)


def message_counterexample(spec=FIX32_4):
    """Root x1=100 with four successors labelled x1=250."""
    lit = spec.parse_literal
    nodes = ("v", "c1", "c2", "c3", "c4")
    edges = tuple(("v", c) for c in nodes[1:])
    labels = {"v": {"x1": lit("100")}}
    for c in nodes[1:]:
        labels[c] = {"x1": lit("250")}
    return PointedGraph(LabeledGraph(spec, ("x1",), nodes, edges, labels), "v")


@pytest.fixture
def supp_model():
    return two_layer_model()


@pytest.fixture
def supp_graph_e():
    return two_layer_graph()


@pytest.fixture
def supp_instance():
    return two_layer_instance()


@pytest.fixture
def msg_model():
    return message_model()


@pytest.fixture
def msg_instance():
    return message_instance()


@pytest.fixture
def msg_counterexample():
    return message_counterexample()
