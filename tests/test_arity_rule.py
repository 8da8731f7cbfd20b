"""One arity rule for every engine: no node has more successors than the
fewest weights of any weighted aggregation in the formula (``weight_cap``).

The tableau (at δ and unbounded), the brute-force oracle and the formula
semantics must agree on which tree models exist, whatever the order of the
operands of ``and`` and ``or``.  ``fuzz.random_formula`` gives every weighted
aggregation exactly δ weights, so no cap binds on its formulas; the cases
here rebuild them with shorter weight vectors, a sum aggregation around each
weighted one, and every connective's operands swapped.

A compiled formula declares the network's weight cap as its own, so the rule
holds through compilation even where the compiler drops a weighted layer's
every product and leaves no weighted aggregation in the formula.
"""

import random

import pytest

from gnncheck import tableau
from gnncheck.arith import ArithmeticSpec, arity_bound
from gnncheck.compile import compile_generalized, compile_lvp
from gnncheck.errors import UsageError
from gnncheck.formula import Arena, Formula, _rebuild, parse, to_text
from gnncheck.fuzz import INF_TERMS, random_formula, run_differential
from gnncheck.gnn import DeltaMode, Fnn, FnnLayer, GnnLayer, GnnModel, LinIneq, LvpInstance
from gnncheck.graph import LabeledGraph
from gnncheck.semantics import Sat, Unknown, Unsat, brute_force_sat, check
from gnncheck.tableau import SolveLimits, Valid, solve, verify_lvp

SAT3 = ArithmeticSpec.satint(3)
SAT7 = ArithmeticSpec.satint(7)


def test_the_arity_bound_is_the_least_cap_given():
    # a cap of 0 is a bound, not a missing one
    assert arity_bound(0, None) == 0
    assert arity_bound(None, 0, 4) == 0
    assert arity_bound(3, None, 1) == 1
    assert arity_bound(None, None) is None
    assert arity_bound() is None


def verdicts(f, delta):
    """The verdicts of solve at δ and at unbounded δ, and of the oracle at δ.

    Unbounded, only the weight cap (and 2^n * |f|) bounds a node's
    successors, so a Sat at δ stays Sat there wherever that rung decides.
    """
    at_delta = solve(f, DeltaMode.unary(delta), SolveLimits(max_terms=20_000))
    at_inf = solve(f, DeltaMode.infinite(), SolveLimits(max_terms=INF_TERMS))
    assert not (isinstance(at_delta, Sat) and isinstance(at_inf, Unsat)), to_text(f)
    return [at_delta, at_inf, brute_force_sat(f, delta, max_steps=200_000)]


def outcome(graph, f):
    """check at the point "v", or "error" when the graph is no model of f's kind."""
    try:
        return check(graph, "v", f)
    except UsageError:
        return "error"


def star(spec, features, arity):
    """The point "v" with ``arity`` successors; every label is 0."""
    nodes = ("v",) + tuple(f"v{i}" for i in range(1, arity + 1))
    edges = tuple(("v", n) for n in nodes[1:])
    return LabeledGraph(spec, features, nodes, edges, {n: {x: 0 for x in features} for n in nodes})


REPRODUCTIONS = [
    ("agg(agg(1)) = 2 and wagg[1](x1) >= -3", 2),
    ("(x1 >= 0 or wagg[1](x1) >= 0) and agg(1) = 2", 2),
    ("(wagg[1](x1) >= 0 or x1 >= 0) and agg(1) = 2", 2),
    ("wagg[1](x1) = 2 and agg(1) = 2", 3),
]


@pytest.mark.parametrize("text,delta", REPRODUCTIONS)
def test_reproductions_are_unsat_for_every_engine(text, delta):
    f = parse(text, SAT3)
    assert f.weight_cap == 1
    assert all(isinstance(v, Unsat) for v in verdicts(f, delta)), verdicts(f, delta)


def test_check_refuses_a_node_past_the_cap_whatever_the_operand_order():
    first = parse("(x1 >= 0 or wagg[1](x1) >= 0) and agg(1) = 2", SAT3)
    swapped = parse("(wagg[1](x1) >= 0 or x1 >= 0) and agg(1) = 2", SAT3)
    for f in (first, swapped):
        # x1 >= 0 holds at v, so the weighted operand is never evaluated
        assert outcome(star(SAT3, ("x1",), 2), f) == "error"
        assert outcome(star(SAT3, ("x1",), 1), f) is False
        assert outcome(star(SAT3, ("x1",), 0), f) is False


def variant(f, seed, swap):
    """f rebuilt in a new arena: each weighted aggregation keeps 1..δ of its
    weights and is wrapped in a sum aggregation, and with ``swap`` every
    ``and`` and ``or`` has its operands swapped.  The cuts are drawn in walk
    order from ``seed``, so both orders get the same ones."""
    rng = random.Random(seed)
    dst = Arena(f.spec)

    def replace(node):
        if node[0] == "agg" and node[1] == "weighted":
            weights = node[3][: rng.randint(1, len(node[3]))]
            return dst.agg("sum", dst.agg("weighted", node[2], weights))
        if swap and node[0] == "and":
            return dst.and_(node[2], node[1])
        if swap and node[0] == "or":
            return dst.or_(node[2], node[1])
        return None

    return Formula(dst, _rebuild(dst, f.arena, f.root, replace), f.features)


def weight_counts(f):
    """The weight count of each weighted aggregation in f."""
    nodes = (f.arena.expr(e) for e in f.eids)
    return [len(node[3]) for node in nodes if node[0] == "agg" and node[1] == "weighted"]


def random_tree(rng, spec, features, depth, max_arity):
    """A random tree rooted at "v", ``depth`` deep, with 0..max_arity
    successors per node above the last level and random labels."""
    nodes, edges, frontier = ["v"], [], ["v"]
    for _ in range(depth):
        grown = []
        for parent in frontier:
            for i in range(1, rng.randint(0, max_arity) + 1):
                child = f"{parent}.{i}"
                edges.append((parent, child))
                grown.append(child)
        nodes += grown
        frontier = grown
    m = spec.max_payload
    labels = {n: {x: rng.randint(-m, m) for x in features} for n in nodes}
    return LabeledGraph(spec, features, tuple(nodes), tuple(edges), labels)


def test_rebuilt_fuzz_cases_agree_across_engines_and_operand_orders():
    delta = 2
    rng, trees = random.Random(16), random.Random(17)
    capped = decided = 0
    for i in range(800):
        f = random_formula(rng, SAT3, agg_kinds=("sum", "mean", "max", "weighted"), delta=delta, max_agg_depth=1)
        if not weight_counts(f):
            continue
        pair = variant(f, i, swap=False), variant(f, i, swap=True)
        capped += min(weight_counts(pair[0])) < delta
        found = [v for g in pair for v in verdicts(g, delta)]
        decisive = {type(v) for v in found if not isinstance(v, Unknown)}
        assert len(decisive) <= 1, (i, found)
        decided += bool(decisive)
        graphs = [v.model.graph for v in found if isinstance(v, Sat)]
        graphs += [random_tree(trees, SAT3, f.features, 2, delta + 1) for _ in range(4)]
        for graph in graphs:
            assert outcome(graph, pair[0]) == outcome(graph, pair[1]), i
    assert capped >= 10 and decided >= 30, (capped, decided)


def dropped_weighted_instance():
    """y1 is t = truncrelu(x1), in [0, 1], at the point plus the sum of t
    over the point's successors.  The first layer is weighted with one
    weight, and its combination ignores the aggregation, so compiling drops
    that layer's only aggregation.  gnn_eval still gives no node two
    successors, so y1 <= 2 holds (L_out is -y1 >= -2), while a point with
    two successors, which δ 2 allows, would reach y1 = 3.  The interval
    pass bounds the sum over the network's arity bound, one successor, so
    it proves y1 <= 2 before the tableau runs."""
    model = GnnModel(
        SAT7,
        (
            GnnLayer("weighted", Fnn((FnnLayer(((1, 0),), (0,), ("truncrelu",)),)), (1,)),
            GnnLayer("sum", Fnn((FnnLayer(((1, 1),), (0,), ("id",)),))),
        ),
        Fnn((FnnLayer(((1,),), (0,), ("id",)),)),
        ("x1",),
        ("y1",),
    )
    return LvpInstance(model, (), (LinIneq((("y1", -1),), -2),), DeltaMode.unary(2))


def test_a_compiled_formula_declares_the_networks_weight_cap():
    instance = dropped_weighted_instance()
    model = instance.model
    pre, post = parse("true", SAT7), parse("-1*y1 >= -2", SAT7)
    for formula in (compile_lvp(instance).formula, compile_generalized(model, pre, post).formula):
        nodes = (formula.arena.expr(e) for e in formula.eids)
        assert not any(node[0] == "agg" and node[1] == "weighted" for node in nodes)
        assert formula.weight_cap == model.weight_cap == 1
        assert brute_force_sat(formula, 2) == Unsat()
    assert verify_lvp(instance) == Valid("bounds")
    # verify_lvp no longer reaches the tableau here, so ask it directly
    for delta in (DeltaMode.unary(2), DeltaMode.infinite()):
        formula = compile_lvp(LvpInstance(model, (), instance.l_out, delta)).formula
        assert solve(formula, delta, SolveLimits(max_terms=100_000)) == Unsat(), delta
    formula = compile_lvp(instance).formula
    with pytest.raises(UsageError, match="1 weights for 2 successors"):
        check(star(SAT7, formula.features, 2), "v", formula)


def test_the_delta_ladder_catches_an_unbounded_rung_cut_short(monkeypatch):
    # run_differential solves each case at δ = 0, ..., 3 and unbounded, and a
    # verdict may only grow from Unsat to Sat up the ladder.  With the
    # tableau's unbounded cap cut to one successor, some formula that needs
    # two is Sat at δ 2 and Unsat at inf, which the ladder must flag
    def run():
        kinds = ("sum", "mean", "max", "weighted")
        return [r.index for r in run_differential(100, seed=1, spec=SAT3, delta=3, agg_kinds=kinds) if not r.agree]

    assert run() == []
    monkeypatch.setattr(tableau, "arity_bound", lambda delta, *caps: 1 if delta is None else arity_bound(delta, *caps))
    assert run(), "a tableau that caps unbounded δ at 1 passed the ladder"
