import itertools
import random

import pytest

from gnncheck import semantics
from gnncheck.arith import ArithmeticSpec
from gnncheck.cli import main
from gnncheck.errors import UsageError
from gnncheck.formula import features_of, parse, to_text
from gnncheck.fuzz import random_formula
from gnncheck.graph import LabeledGraph
from gnncheck.semantics import Sat, Unknown, Unsat, brute_force_sat, check, eval_payload

from conftest import recording_budgets

SAT15 = ArithmeticSpec.satint(15)
FIX32_4 = ArithmeticSpec.fixed(32, 4)


def star_graph(spec, features, root_label, child_labels):
    nodes = ["u"] + [f"c{i}" for i in range(len(child_labels))]
    edges = tuple(("u", f"c{i}") for i in range(len(child_labels)))
    labels = {"u": dict(root_label)}
    for i, lab in enumerate(child_labels):
        labels[f"c{i}"] = dict(lab)
    return LabeledGraph(spec, features, tuple(nodes), edges, labels)


class TestEvalExpr:
    def test_agg_counts_successors(self):
        g = star_graph(SAT15, ("x1",), {"x1": 0}, [{"x1": 0}] * 4)
        f = parse("agg(1) = 4", SAT15)
        expr = f.arena.formula(f.root)[1]
        assert eval_payload(g, "u", f.arena, expr) == 4

    def test_empty_agg_is_zero(self):
        g = star_graph(SAT15, ("x1",), {"x1": 5}, [])
        f = parse("agg(x1) = 0 and mean(x1) = 0 and maxagg(x1) = 0", SAT15)
        assert check(g, "u", f)

    def test_worked_counterexample_value(self):
        g = star_graph(FIX32_4, ("x1",), {"x1": FIX32_4.parse_literal("100")},
                       [{"x1": FIX32_4.parse_literal("250")}] * 4)
        f = parse("0.001*agg(x1) = 1.0", FIX32_4)
        expr = f.arena.formula(f.root)[1]
        assert eval_payload(g, "u", f.arena, expr) == FIX32_4.parse_literal("1.0")

    def test_mean_divides_and_max_picks(self):
        g = star_graph(SAT15, ("x1",), {"x1": 0}, [{"x1": 3}, {"x1": 4}])
        f = parse("mean(x1) = 4 and maxagg(x1) = 4", SAT15)  # 3.5 rounds away to 4
        assert check(g, "u", f)

    def test_weighted_fold(self):
        g = star_graph(SAT15, ("x1",), {"x1": 0}, [{"x1": 3}, {"x1": 4}])
        f = parse("wagg[2,-1](x1) = 2", SAT15)
        assert check(g, "u", f)

    def test_weighted_short_vector_errors(self):
        g = star_graph(SAT15, ("x1",), {"x1": 0}, [{"x1": 3}, {"x1": 4}])
        f = parse("wagg[2](x1) = 2", SAT15)
        with pytest.raises(UsageError):
            check(g, "u", f)

    def test_undeclared_feature_errors(self):
        g = star_graph(SAT15, ("x1",), {"x1": 0}, [])
        f = parse("zz >= 0", SAT15)
        with pytest.raises(UsageError):
            check(g, "u", f)

    def test_saturating_fold_in_order(self):
        # 9 + 9 clamps to 15, then -9 gives 6; order matters
        g = star_graph(SAT15, ("x1",), {"x1": 0}, [{"x1": 9}, {"x1": 9}, {"x1": -9}])
        f = parse("agg(x1) = 6", SAT15)
        assert check(g, "u", f)


class TestCheck:
    def test_example_atom(self):
        g = star_graph(SAT15, ("x1", "x2"), {"x1": 1, "x2": -2}, [])
        assert check(g, "u", parse("x1 + alpha(x2) >= 0", SAT15))

    def test_tautology(self):
        g = star_graph(SAT15, ("x1",), {"x1": -3}, [])
        assert check(g, "u", parse("x1 - x1 >= 0", SAT15))

    def test_boolean_connectives(self):
        g = star_graph(SAT15, ("x1",), {"x1": 2}, [])
        assert check(g, "u", parse("x1 >= 1 and (x1 = 2 or x1 = 3)", SAT15))
        assert not check(g, "u", parse("not x1 >= 1", SAT15))


class TestBruteForce:
    def test_unsatisfiable_aggregate(self):
        assert isinstance(brute_force_sat(parse("agg(3) = 10", SAT15), delta=5), Unsat)

    def test_four_successors(self):
        verdict = brute_force_sat(parse("agg(1) = 4", SAT15), delta=5)
        assert isinstance(verdict, Sat)
        assert verdict.model.graph.out_degree(verdict.model.point) == 4

    def test_arity_bound_blocks(self):
        assert isinstance(brute_force_sat(parse("agg(1) = 4", SAT15), delta=2), Unsat)

    def test_sat_models_validated_internally(self):
        verdict = brute_force_sat(parse("agg(x1) >= 2 and x1 = 0", ArithmeticSpec.satint(3)), delta=2)
        assert isinstance(verdict, Sat)
        assert check(verdict.model.graph, verdict.model.point, parse("agg(x1) >= 2 and x1 = 0", ArithmeticSpec.satint(3)))

    def test_node_limit_yields_unknown(self):
        verdict = brute_force_sat(parse("agg(agg(x1)) = 9", ArithmeticSpec.satint(9)), delta=3, max_steps=50)
        assert isinstance(verdict, Unknown)
        assert verdict.reason == "node-limit"

    @pytest.mark.parametrize(
        "limits",
        [
            {"max_steps": -5},
            {"max_steps": float("nan")},
            {"max_steps": 1.5},
            {"time_limit": float("nan")},
            {"time_limit": -1.0},
        ],
        ids=repr,
    )
    def test_nan_or_negative_limits_are_refused(self, limits):
        # SolveLimits refuses the same values, through the same validator
        with pytest.raises(UsageError):
            brute_force_sat(parse("agg(x1) >= 2", ArithmeticSpec.satint(3)), delta=2, **limits)

    def test_a_negative_arity_bound_is_refused(self):
        with pytest.raises(UsageError, match="must be >= 0"):
            brute_force_sat(parse("agg(x1) >= 2", ArithmeticSpec.satint(3)), -1)

    def test_an_unbounded_arity_needs_a_weight_cap(self):
        spec = ArithmeticSpec.satint(3)
        with pytest.raises(UsageError, match="needs a finite arity bound"):
            brute_force_sat(parse("agg(x1) >= 2", spec), None)
        # a weighted aggregation caps the arity at its number of weights
        assert isinstance(brute_force_sat(parse("wagg[1,1](x1) >= 2 and agg(x1) >= 2", spec), None), Sat)

    def test_a_zero_step_limit_is_a_budget(self):
        f = parse("agg(x1) >= 2", ArithmeticSpec.satint(3))
        assert brute_force_sat(f, delta=2, max_steps=0) == Unknown("node-limit")

    def test_deadline_is_checked_between_static_columns(self, monkeypatch):
        # satint:1000 has 2 001 values, so each column below that depends on
        # no aggregation is built once per search, before the first batch; with
        # no time at all, the search stops after the first of them
        spec = ArithmeticSpec.satint(1000)
        f = parse(
            "relu(x1 + x2) + relu(x2 + -3*x1) >= 7 and (x1 + 2*x2 >= 3 or relu(x1 + -1*x2) = 5) and agg(x1) >= 1",
            spec,
        )
        columns = []
        expr_value = semantics._TreeSearch._expr_value

        def counting(search, eid, node, ev):
            out = expr_value(search, eid, node, ev)
            if not isinstance(out, int):
                columns.append(eid)
            return out

        monkeypatch.setattr(semantics._TreeSearch, "_expr_value", counting)
        assert brute_force_sat(f, 2, time_limit=0) == Unknown("timeout")
        assert len(columns) <= 1

    def test_label_set_past_budget_stops_before_evaluating(self):
        # 2**32 - 1 labels: level 0 alone charges them all, past the default budget
        verdict = brute_force_sat(parse("x1 >= 0", FIX32_4), delta=1)
        assert isinstance(verdict, Unknown) and verdict.reason == "node-limit"

    def test_monotone_in_delta(self):
        spec = ArithmeticSpec.satint(3)
        texts = ["agg(1) = 2", "agg(x1) >= 2", "agg(x1) = 3 and x1 >= 1", "maxagg(x1) = 2"]
        for text in texts:
            f = parse(text, spec)
            for d in range(0, 3):
                if isinstance(brute_force_sat(f, delta=d), Sat):
                    assert isinstance(brute_force_sat(f, delta=d + 1), Sat)

    def test_deterministic(self):
        spec = ArithmeticSpec.satint(2)
        f = parse("agg(x1) = 2 or x1 >= 1", spec)
        a = brute_force_sat(f, delta=2)
        b = brute_force_sat(f, delta=2)
        assert isinstance(a, Sat) and isinstance(b, Sat)
        assert a.model.graph == b.model.graph and a.model.point == b.model.point

    def test_nested_aggregation(self):
        spec = ArithmeticSpec.satint(4)
        f = parse("agg(agg(1)) = 4", spec)
        verdict = brute_force_sat(f, delta=2)
        assert isinstance(verdict, Sat)
        assert check(verdict.model.graph, verdict.model.point, f)

    def test_exhaustive_against_naive_single_feature(self):
        # cross-check the level enumeration against naive tree listing
        spec = ArithmeticSpec.satint(2)
        texts = ["agg(x1) = 1", "agg(x1) = -2 and x1 = 1", "agg(x1 + 1) >= 2", "x1 < 0 and agg(x1) = 0"]
        for text in texts:
            f = parse(text, spec)
            got = brute_force_sat(f, delta=2)
            want = naive_sat_depth1(f, spec, delta=2)
            assert isinstance(got, Sat) == want, text

    def test_exhaustive_against_naive_two_features_all_kinds(self):
        spec = ArithmeticSpec.satint(1)
        texts = [
            "agg(x1 + x2) = 1 and x1 = -1",
            "agg(x1) = 1 and maxagg(x1) = 0",
            "mean(x1 + x2) = 1 and not x2 >= 0",
            "mean(x1) = -1 and agg(x2) = 1 and x1 - x2 >= 1",
            "maxagg(x2) = -1 and agg(x1) >= 1",
            "maxagg(relu(x1 - x2)) = 1 and x1 + x2 = -1",
            "wagg[1,-1](x1 + x2) >= 1 and x1 - x2 = 0",
            "wagg[1,1](x2) = 1 and maxagg(x1) < 0 and mean(x2) = 0",
        ]
        outcomes = set()
        for text in texts:
            f = parse(text, spec)
            got = brute_force_sat(f, delta=2)
            want = naive_sat_depth1(f, spec, delta=2)
            assert isinstance(got, Sat) == want, text
            outcomes.add(want)
        assert outcomes == {True, False}

    def test_exhaustive_against_naive_three_features_support_gap(self):
        # 125 labels.  Nodes read x1 and x3 but not x2, so their columns skip
        # the middle digit of a label: they are spread past it to meet x2,
        # and their first entries map back to labels with x2 at its lowest
        spec = ArithmeticSpec.satint(2)
        texts = [
            "x1 - x3 = 2 and x2 = 1",
            "x1 - x3 >= 1 and x3 - x1 >= 0 and x2 = 0",
            "agg(x1 - x3) = 2 and x2 = -1 and x3 >= 1",
            "agg(x1 - x3) >= 1 and maxagg(x3 - x1) >= 1 and x2 = 0",
            "maxagg(2*x1 + x3) = -1 and x2 - x1 >= 2",
            "(x1 - x3 = 1 or agg(x2) = 1) and not x2 >= 0 and x1 + x3 = -1",
            "mean(x3 - x1) = 1 and (agg(x1 + x2) >= 2 or x1 - x3 = 2)",
        ]
        outcomes = set()
        for text in texts:
            f = parse(text, spec)
            got = brute_force_sat(f, delta=1)
            want = naive_sat_depth1(f, spec, delta=1)
            assert isinstance(got, Sat) == want, text
            outcomes.add(want)
        assert outcomes == {True, False}


@pytest.fixture
def budgets():
    """Every oracle step budget created while the test runs, with the size of
    each batch charged to it."""
    with recording_budgets() as made:
        yield made


def budget_formulas():
    cases = []
    for arith, delta, kinds in (("satint:3", 2, ("sum", "max")), ("satint:5", 3, ("mean", "weighted"))):
        spec = ArithmeticSpec.parse(arith)
        rng = random.Random(f"budget:{arith}")
        for _ in range(8):
            cases.append((random_formula(rng, spec, agg_kinds=kinds, delta=delta), delta))
    # fixed:5:1 with two features: every state charges a batch of 961 labels
    fix = ArithmeticSpec.fixed(5, 1)
    for text, delta in (
        ("mean(x1) >= 1 and maxagg(x1) < 1 and x2 = 0.5", 2),
        ("mean(x1 - x2) = 1.5 and maxagg(x2) >= 0", 3),
        ("agg(x1 + x2) = 1 and x1 = 0.5", 2),
        ("agg(mean(1) + x2) >= 1.5 and x1 = -1", 2),
        ("maxagg(x1) = 1 and x1 + x2 >= 1.2 and x2 < 0.5", 2),
    ):
        cases.append((parse(text, fix), delta))
    return cases


def witness(verdict):
    return (verdict.model.graph, verdict.model.point) if isinstance(verdict, Sat) else None


class TestOracleBudget:
    def test_step_budget_boundary(self, budgets):
        # at b - 1 the last batch, a root state's labels up to the first
        # satisfying one (or all of them), is one step wider than the budget left
        for f, delta in budget_formulas():
            full = brute_force_sat(f, delta, max_steps=None)
            b = budgets[-1].ticks
            assert not isinstance(full, Unknown)
            low = brute_force_sat(f, delta, max_steps=b - 1)
            assert isinstance(low, Unknown) and low.reason == "node-limit", to_text(f)
            assert budgets[-1].ticks == b
            for max_steps in (b, b + 1):
                again = brute_force_sat(f, delta, max_steps=max_steps)
                assert type(again) is type(full) and witness(again) == witness(full), to_text(f)
                assert budgets[-1].ticks == b

    def test_every_batch_stops_at_its_first_step_past_the_budget(self, budgets):
        # level batches (the first is the 961 labels of level 0), successor
        # batches and root batches alike
        for f, delta in budget_formulas()[-3:]:
            brute_force_sat(f, delta, max_steps=None)
            ends = list(itertools.accumulate(budgets[-1].batches))
            assert ends[0] == 961
            for end in ends[:12]:
                verdict = brute_force_sat(f, delta, max_steps=end - 1)
                assert isinstance(verdict, Unknown) and verdict.reason == "node-limit"
                assert budgets[-1].ticks == end


class TestStaticRoot:
    """A root that no aggregation value can change is answered on a tree of
    one node before any level is built, charged as level 0's one state: a
    step per label, then one per label up to the first satisfying one."""

    def test_a_constant_conjunct_decides_before_any_level(self, budgets):
        # building the levels under it took more than 60 steps
        args = ["-2 + 2 = 3 and agg(mean(x1)) >= -2", "--arith", "satint:3", "--delta", "unary:2", "--term-limit", "60"]
        assert main(["oracle", "sat", *args]) == 1  # unsat
        assert budgets[-1].batches == [7, 7]

    @pytest.mark.parametrize(
        "text,x1,batches",
        [
            ("maxagg(agg(x1)) = 3 or not 1 >= 2", -3, [7, 1]),
            ("x1 >= 2 and (maxagg(agg(x1)) = 3 or 1 >= 0)", 2, [7, 6]),
            # relu(x1) >= 0 holds at every label: a column of one value
            ("relu(x1) >= 0 or agg(agg(x1)) = 3", -3, [7, 1]),
        ],
    )
    def test_a_static_disjunct_gives_the_one_node_model(self, budgets, text, x1, batches):
        v = brute_force_sat(parse(text, ArithmeticSpec.satint(3)), 2)
        assert isinstance(v, Sat)
        assert v.model.graph.nodes == ("v",) and v.model.graph.labels["v"] == {"x1": x1}
        assert budgets[-1].batches == batches

    def test_a_column_false_at_every_label_decides_a_conjunction(self, budgets):
        v = brute_force_sat(parse("truncrelu(x1) >= 2 and agg(x1) >= 0", ArithmeticSpec.satint(3)), 2)
        assert isinstance(v, Unsat)
        assert budgets[-1].batches == [7, 7]


def naive_sat_depth1(f, spec, delta):
    """Literal enumeration of all depth<=1 trees over the formula's features."""
    features = features_of(f)
    labels = [dict(zip(features, row)) for row in itertools.product(spec.values_p(), repeat=len(features))]
    for arity in range(delta + 1):
        for root in labels:
            for kids in itertools.product(labels, repeat=arity):
                nodes = ["u"] + [f"c{i}" for i in range(arity)]
                node_labels = {"u": root, **{f"c{i}": kids[i] for i in range(arity)}}
                edges = tuple(("u", f"c{i}") for i in range(arity))
                g = LabeledGraph(spec, features, tuple(nodes), edges, node_labels)
                if check(g, "u", f):
                    return True
    return False


def recursive_build_tree(search, witness, levels, depth):
    """The labels of the witness's tree, by a recursive pre-order walk, each
    keyed by its node's path of successor positions from the root, as a
    tuple."""
    labels = {}

    def emit(path, wit, level):
        i, kids = wit
        labels[path] = dict(zip(search.features, search.label(i)))
        for pos, prof in enumerate(kids, start=1):
            emit(path + (pos,), levels[level - 1][prof], level - 1)

    emit((), witness, depth)
    return labels


def tree_name(path):
    """The name ``graph.tree`` gives the node at path: "v", "v1", "v1.2"."""
    return "v" + ".".join(map(str, path))


def build_tree_cases():
    for i in range(300):
        rng = random.Random(f"build-tree:{i}")
        spec = (ArithmeticSpec.satint(3), ArithmeticSpec.fixed(5, 1))[i % 2]
        delta = 2 + i % 2
        yield random_formula(rng, spec, agg_kinds=("sum", "mean", "max", "weighted"), delta=delta, max_agg_depth=3), delta
    # few random formulas force a branching tree deeper than one level; these do
    sat7 = ArithmeticSpec.satint(7)
    yield parse("agg(agg(1)) = 3", sat7), 2
    yield parse("agg(agg(agg(1))) >= 5", sat7), 2


def test_build_tree_loop_matches_the_recursive_pre_order():
    """The oracle's model is the recursive walk's tree with its nodes listed
    breadth first, ordered by (depth, path), each edge listed as its child
    is, and named as every engine names a tree's nodes."""
    built = 0
    for i, (f, delta) in enumerate(build_tree_cases()):
        search = semantics._TreeSearch(f, delta, semantics.Budget(20_000))
        depth = semantics.agg_depth(f)
        try:
            wit, levels = search.search(depth)
        except semantics.LimitHit:
            continue
        if wit is None:
            continue
        model = search.build_tree(wit, levels, depth)
        labels = recursive_build_tree(search, wit, levels, depth)
        order = sorted(labels, key=lambda path: (len(path), path))
        graph = model.graph
        assert graph.nodes == tuple(map(tree_name, order)) and model.point == "v", i
        assert graph.edges == tuple((tree_name(p[:-1]), tree_name(p)) for p in order[1:]), i
        assert list(graph.labels.items()) == [(tree_name(p), labels[p]) for p in order], i
        built += 1
    assert built >= 100
