"""Deep formulas: every DAG pass works from explicit stacks.

A formula gets one level deeper with every network layer and with every
conjunct of a left-folded conjunction.  These tests build a 3000-deep chain
through ``Arena.act`` and a 3000-conjunct ``Arena.conjoin``, far past the
interpreter's default recursion limit, and run every pass over them.
"""

import pytest

from gnncheck.arith import ArithmeticSpec
from gnncheck.compile import compile_generalized
from gnncheck.formula import (
    Arena,
    Formula,
    agg_depth,
    desugar_eq,
    features_of,
    import_formula,
    parse,
    rewrite_truncrelu,
    structural_key,
    to_text,
)
from gnncheck.gnn import DeltaMode, Fnn, GnnModel
from gnncheck.graph import LabeledGraph
from gnncheck.semantics import Budget, Sat, brute_force_sat, check
from gnncheck.tableau import _Search, solve

DEPTH = 3000
SPEC = ArithmeticSpec.satint(3)


def chain(arena: Arena, act: str = "relu", depth: int = DEPTH) -> int:
    """act(act(... act(x1) ...)), depth applications deep."""
    eid = arena.feature("x1")
    for _ in range(depth):
        eid = arena.act(act, eid)
    return eid


def deep_chain(act: str = "relu", depth: int = DEPTH) -> Formula:
    """act^depth(x1) = 1 and x1 = 1."""
    arena = Arena(SPEC)
    return Formula(arena, arena.and_(arena.eq(chain(arena, act, depth), 1), arena.eq(arena.feature("x1"), 1)))


def long_conjunction(feature: str = "x1", value: int = 1) -> Formula:
    """x + 0 >= 0 and x + 1 >= 0 and x + 2 >= 0 and x + 0 >= 0 ... and x = value.

    The atoms repeat, but every "and" of the left fold is a node of its own.
    """
    arena = Arena(SPEC)
    x = arena.feature(feature)
    atoms = [arena.geq(arena.add(x, arena.const(i % 3)), 0) for i in range(DEPTH - 1)]
    atoms.append(arena.eq(x, value))
    return Formula(arena, arena.conjoin(atoms))


def single_node(labels: dict[str, int]) -> LabeledGraph:
    return LabeledGraph(SPEC, tuple(labels), ("v",), (), {"v": labels})


DEEP = {"chain": deep_chain, "conjunction": long_conjunction}


@pytest.fixture(params=sorted(DEEP))
def build(request):
    return DEEP[request.param]


def test_agg_depth(build):
    f = build()
    assert agg_depth(f) == 0
    arena = f.arena
    top = arena.agg("max", arena.agg("sum", chain(arena)))
    assert agg_depth(Formula(arena, arena.geq(top, 0))) == 2


def test_structural_key_equal_across_arenas(build):
    f, g = build(), build()
    assert f.arena is not g.arena
    assert structural_key(f.arena, f.root) == structural_key(g.arena, g.root)


def test_structural_key_tells_depths_apart():
    f, g = deep_chain(depth=DEPTH), deep_chain(depth=DEPTH - 1)
    assert structural_key(f.arena, f.root) != structural_key(g.arena, g.root)


def test_import_formula(build):
    f = build()
    dst = Arena(SPEC)
    root = import_formula(dst, f.arena, f.root)
    assert structural_key(dst, root) == structural_key(f.arena, f.root)
    assert dst.dag_size(root) == f.arena.dag_size(f.root)


def test_check(build):
    f = build()
    assert check(single_node({"x1": 1}), "v", f)
    assert not check(single_node({"x1": 0}), "v", f)


def test_rewrite_truncrelu_on_a_deep_chain():
    f = deep_chain("truncrelu")
    g = rewrite_truncrelu(f)
    _, eids = g.arena.reachable(g.root)
    assert not any(g.arena.expr(e)[:2] == ("act", "truncrelu") for e in eids)
    for x in SPEC.values_p():
        graph = single_node({"x1": x})
        assert check(graph, "v", g) == check(graph, "v", f)


def test_rewrite_truncrelu_without_truncrelu_keeps_the_root():
    f = long_conjunction()
    assert rewrite_truncrelu(f).root == f.root


def test_desugar_eq(build):
    f = build()
    g = desugar_eq(f)
    fids, _ = g.arena.reachable(g.root)
    assert not any(g.arena.formula(fid)[0] == "eq" for fid in fids)
    for x in SPEC.values_p():
        graph = single_node({"x1": x})
        assert check(graph, "v", g) == check(graph, "v", f)


def test_compile_generalized_imports_deep_constraints():
    model = GnnModel(SPEC, (), Fnn.identity(1, SPEC), ("x1",), ("y1",))
    post = long_conjunction(feature="y1", value=2)
    compiled = compile_generalized(model, deep_chain(), post)
    f = compiled.formula
    assert features_of(f) == ("x1",)
    assert agg_depth(f) == 0
    # x1 = 1 meets the precondition, and the output y1 = x1 fails the
    # postcondition; x1 = 0 and x1 = 2 fail the precondition
    assert check(single_node({"x1": 1}), "v", f)
    assert not check(single_node({"x1": 0}), "v", f)
    assert not check(single_node({"x1": 2}), "v", f)


def test_solve_returns_a_checked_model(build):
    f = build()
    verdict = solve(f, DeltaMode.unary(1))
    assert isinstance(verdict, Sat)
    assert check(verdict.model.graph, verdict.model.point, f)


def test_brute_force_sat_returns_a_checked_model(build):
    f = build()
    verdict = brute_force_sat(f, 1)
    assert isinstance(verdict, Sat)
    assert check(verdict.model.graph, verdict.model.point, f)


def test_to_text():
    assert to_text(deep_chain()) == "relu(" * DEPTH + "x1" + ")" * DEPTH + " = 1 and x1 = 1"
    # the parser reads a conjunction in a loop, so this one parses back
    f = long_conjunction()
    g = parse(to_text(f), SPEC)
    assert structural_key(g.arena, g.root) == structural_key(f.arena, f.root)


def test_tableau_passes_on_a_deep_chain():
    arena = Arena(SPEC)
    top, x1 = chain(arena), arena.feature("x1")
    f = Formula(arena, arena.geq(top, 1))
    budget = Budget()
    search = _Search(f, 1, budget)
    st = search.root_state()
    assert search.forward(st, 0, top) is None
    assert search.stopped_at == ("feat", 0, x1)
    assert search.expr_range(st, 0, top) == (0, 3)
    assert search.tighten(st, 0, top, 1, 3)
    assert st.bounds[0 + x1] == (1, 3)
    search.assign(st, 0, x1, 2)
    assert search.forward(st, 0, top) == 2
    assert budget.ticks == 1 + DEPTH
