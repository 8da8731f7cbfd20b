"""The tableau's structural range table, where every range it reads starts.

``_Search.structural_ranges`` gives each expression an interval that holds
its value at any node of any graph within the search's arity cap.  The
containment tests check that on random graphs with cycles and self-loops
and at every node of the models the tableau and the oracle find.  The
differential test runs each search again with the table widened to
[-M, M], which cuts nothing: the shipped search must agree with every
decisive outcome of the widened one, find the same models, take no more
ticks on any case, and fewer in total.
"""

import random

import pytest

from gnncheck.arith import ArithmeticSpec
from gnncheck.formula import parse
from gnncheck.fuzz import random_formula
from gnncheck.gnn import DeltaMode
from gnncheck.graph import LabeledGraph
from gnncheck.semantics import Budget, Sat, brute_force_sat, eval_payload
from gnncheck.tableau import SolveLimits, _Search, solve

from test_search_golden import MAX_TICKS, formula_cases, gnn_cases, search_outcome

KINDS = ("sum", "mean", "max", "weighted")
SPECS = tuple(ArithmeticSpec.satint(a) for a in range(2, 8)) + (ArithmeticSpec.fixed(5, 1),)


def containment_cases(n):
    """Random formulas over every spec, aggregation kind and δ mode."""
    for i in range(n):
        rng = random.Random(f"ranges:{i}")
        spec = SPECS[i % len(SPECS)]
        k = 1 + i % 4
        delta = (DeltaMode.unary(k), DeltaMode.binary(k), DeltaMode("inf"))[(i // len(SPECS)) % 3]
        f = random_formula(rng, spec, agg_kinds=KINDS, delta=k, max_agg_nodes=3)
        yield rng, f, delta


def random_graph(rng, spec, features, max_degree):
    """Up to five nodes, each with at most max_degree successors drawn from
    all nodes: self-loops and cycles included."""
    nodes = tuple(f"n{i}" for i in range(rng.randint(1, 5)))
    edges = []
    for src in nodes:
        k = rng.randint(0, min(max_degree, len(nodes)))
        edges += ((src, dst) for dst in rng.sample(nodes, k))
    m = spec.max_payload
    labels = {n: {f: rng.randint(-m, m) for f in features} for n in nodes}
    return LabeledGraph(spec, features, nodes, tuple(edges), labels)


@pytest.mark.parametrize("i0", range(0, 420, 60))
def test_every_value_lies_in_its_structural_range(i0):
    checked = 0
    for rng, f, delta in list(containment_cases(i0 + 60))[i0:]:
        search = _Search(f, delta.value, Budget())
        table = search.structural_ranges()
        assert set(table) == set(f.eids)
        degree = search.arity_cap
        for node in search.nodes.values():
            if node[0] == "agg" and node[1] == "weighted":
                degree = min(degree, len(node[3]))
        for _ in range(3):
            graph = random_graph(rng, f.spec, f.features, min(degree, 5))
            for v in graph.nodes:
                for eid in f.eids:
                    lo, hi = table[eid]
                    assert lo <= eval_payload(graph, v, f.arena, eid) <= hi, (f, delta, eid)
                    checked += 1
    assert checked > 1000


def test_every_value_of_a_model_lies_in_its_structural_range():
    # every expression at every node of the models of both engines
    models = {"tableau": 0, "oracle": 0}
    for _, f, delta in containment_cases(300):
        if delta.kind == "inf":
            continue
        verdicts = {
            "tableau": solve(f, delta, SolveLimits(max_terms=MAX_TICKS)),
            "oracle": brute_force_sat(f, delta.value, max_steps=200_000),
        }
        table = None
        for engine, verdict in verdicts.items():
            if not isinstance(verdict, Sat):
                continue
            table = table or _Search(f, delta.value, Budget()).structural_ranges()
            graph = verdict.model.graph
            for v in graph.nodes:
                for eid in f.eids:
                    lo, hi = table[eid]
                    assert lo <= eval_payload(graph, v, f.arena, eid) <= hi, (engine, f, delta, v, eid)
            models[engine] += 1
    assert models["tableau"] > 50 and models["oracle"] > 50


def test_an_aggregation_ranges_over_its_hull():
    # the motivating case: the mean of relu(x2) cannot be negative
    f = parse("(-0.5*(x2 + -1.3) >= -0.7 or x1 = 0.2) and mean(relu(x2)) >= -1.4", ArithmeticSpec.fixed(5, 1))
    search = _Search(f, 3, Budget())
    agg = next(eid for eid, node in search.nodes.items() if node[0] == "agg")
    assert search.structural_ranges()[agg] == (0, 15)
    assert isinstance(solve(f, DeltaMode.unary(3), SolveLimits(max_terms=10)), Sat)


def fuzz_cases(n):
    for i in range(n):
        rng = random.Random(f"ranges-differential:{i}")
        spec = SPECS[i % len(SPECS)]
        k = 2 + i % 2
        f = random_formula(rng, spec, agg_kinds=KINDS, delta=k)
        yield f, (DeltaMode.unary(k) if i % 3 else DeltaMode.binary(k))


def test_structural_ranges_keep_outcomes_and_models(monkeypatch):
    cases = [*formula_cases(), *gnn_cases(), *fuzz_cases(300)]
    shipped = [search_outcome(f, delta) for f, delta in cases]

    def widened(search):
        m = search.spec.max_payload
        return dict.fromkeys(search.nodes, (-m, m))

    monkeypatch.setattr(_Search, "structural_ranges", widened)
    wide = [search_outcome(f, delta) for f, delta in cases]
    decisive = ("model", "exhausted")
    for i, ((outcome, ticks, digest), (w_outcome, w_ticks, w_digest)) in enumerate(zip(shipped, wide)):
        assert ticks <= w_ticks, i
        if w_outcome in decisive:
            assert outcome == w_outcome, i
        if digest is not None and w_digest is not None:
            assert digest == w_digest, i
    # the ranges must also matter: the searches fall in ticks in total
    assert sum(t for _, t, _ in shipped) < sum(t for _, t, _ in wide)
