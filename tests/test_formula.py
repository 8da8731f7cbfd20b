import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnncheck.arith import ArithmeticSpec
from gnncheck.errors import FormulaSyntaxError
from gnncheck.formula import (
    Arena,
    Formula,
    _Parser,
    agg_depth,
    desugar_eq,
    features_of,
    import_formula,
    is_feature_name,
    parse,
    rewrite_truncrelu,
    structural_key,
    to_text,
)
from gnncheck.graph import LabeledGraph
from gnncheck.semantics import check, eval_payload

SAT8 = ArithmeticSpec.satint(8)
SAT15 = ArithmeticSpec.satint(15)
FIX32_4 = ArithmeticSpec.fixed(32, 4)


class TestArena:
    def test_hash_consing_returns_same_id(self):
        arena = Arena(SAT8)
        a = arena.add(arena.feature("x1"), arena.const(1))
        b = arena.add(arena.feature("x1"), arena.const(1))
        assert a == b

    def test_distinct_nodes_distinct_ids(self):
        arena = Arena(SAT8)
        assert arena.const(1) != arena.const(2)
        assert arena.feature("x1") != arena.feature("x2")

    @settings(max_examples=100)
    @given(st.lists(st.sampled_from(["c1", "c2", "x", "y", "sum", "relu", "agg"]), min_size=1, max_size=30))
    def test_random_construction_sequences_share(self, ops):
        arena = Arena(SAT8)
        seen: dict = {}
        stack = [arena.const(0)]
        for op in ops:
            if op == "c1":
                eid = arena.const(1)
            elif op == "c2":
                eid = arena.const(2)
            elif op == "x":
                eid = arena.feature("x")
            elif op == "y":
                eid = arena.feature("y")
            elif op == "sum":
                eid = arena.add(stack[-1], stack[0])
            elif op == "relu":
                eid = arena.act("relu", stack[-1])
            else:
                eid = arena.agg("sum", stack[-1])
            node = arena.expr(eid)
            if node in seen:
                assert seen[node] == eid
            seen[node] = eid
            stack.append(eid)


class TestParser:
    def test_simple_atom(self):
        f = parse("agg(x1) >= 1", SAT15)
        assert f.arena.formula(f.root)[0] == "geq"
        agg = f.arena.expr(f.arena.formula(f.root)[1])
        assert agg[0] == "agg" and agg[1] == "sum"

    def test_shared_subtree(self):
        f = parse("(x1 >= 2) and (-1*x1 + 2 >= 0)", SAT15)
        _, eids = f.arena.reachable(f.root)
        feats = [e for e in eids if f.arena.expr(e)[0] == "feat"]
        assert len(feats) == 1  # the two textual x1 occurrences share one node

    def test_example_eq_atom(self):
        f = parse("agg(3) = 10", SAT15)
        node = f.arena.formula(f.root)
        assert node[0] == "eq" and node[2] == 10

    def test_sugar_subtraction_and_lt(self):
        f = parse("x1 - x2 < 1", SAT15)
        node = f.arena.formula(f.root)
        assert node[0] == "not"
        inner = f.arena.formula(node[1])
        assert inner[0] == "geq"
        s = f.arena.expr(inner[1])
        assert s[0] == "sum"
        assert f.arena.expr(s[2])[0] == "scale"

    def test_true_sugar(self):
        f = parse("true", SAT15)
        assert check_on_single_node(f)

    def test_alpha_resolves_to_default(self):
        f = parse("alpha(x1) >= 0", SAT15, default_activation="truncrelu")
        atom = f.arena.formula(f.root)
        assert f.arena.expr(atom[1])[1] == "truncrelu"

    def test_syntax_error_position(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse("x1 >= ", SAT15)
        assert err.value.line == 1

    def test_out_of_range_literal(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse("x1 >= 99", SAT15)
        assert "99" in str(err.value)

    @pytest.mark.parametrize("depth", [400, 3000])
    def test_deep_nesting_is_a_syntax_error(self, depth):
        text = "relu(" * depth + "x1" + ")" * depth + " >= 1"
        with pytest.raises(FormulaSyntaxError, match="nested too deeply"):
            parse(text, SAT15)

    def test_deep_formula_parentheses_are_a_syntax_error(self):
        with pytest.raises(FormulaSyntaxError, match="nested too deeply"):
            parse("(" * 3000 + "x1 >= 1" + ")" * 3000, SAT15)

    def test_weighted_syntax(self):
        f = parse("wagg[1,2](x1) = 3", SAT15)
        agg = f.arena.expr(f.arena.formula(f.root)[1])
        assert agg[1] == "weighted" and agg[3] == (1, 2)

    def test_nested_formula_groups_read_the_atom_once(self, monkeypatch):
        # each "(" is read as a formula group straight away, since no "+",
        # "-" or comparison follows its ")": the one atom is entered once
        calls = []
        atom = _Parser.atom
        monkeypatch.setattr(_Parser, "atom", lambda self: calls.append(self.pos) or atom(self))
        f = parse("(" * 250 + "x1 >= 1" + ")" * 250, SAT15)
        assert f.arena.formula(f.root)[0] == "geq" and len(calls) == 1

    # (text, message, line, column); an arithmetic-looking group that does
    # not read as one is reported as the formula group it then is read as
    MALFORMED = [
        ("(x1 >= 1", "expected ')', found 'end of input'", 1, 9),
        ("((x1 >= 1) and x2 >= 0", "expected ')', found 'end of input'", 1, 23),
        ("x1 >= 1)", "trailing input starting at ')'", 1, 8),
        ("(x1 >= 1))", "trailing input starting at ')'", 1, 10),
        ("(x1 >= 1) + x2 >= 0", "trailing input starting at '+'", 1, 11),
        ("(x1 >= 1 or x2 >= 1) >= 0", "trailing input starting at '>='", 1, 22),
        ("(x1 >= 1 or x2 = 3) >= x1 = 1", "trailing input starting at '>='", 1, 21),
        ("(not x1 >= 1) + 1 >= 0", "trailing input starting at '+'", 1, 15),
        ("(not x1) = 2", "expected a comparison, found ')'", 1, 8),
        ("(x1 + not x2) >= 1", "keyword 'not' cannot be used as a feature", 1, 7),
        ("(x1 + x2 >= 1 or relu) >= 2", "expected '(', found ')'", 1, 22),
        ("relu(x1 >= 1", "expected ')', found '>='", 1, 9),
        ("x1 >= 1 and", "expected an expression, found 'end of input'", 1, 12),
        ("x1 + >= 1", "expected an expression, found '>='", 1, 6),
        ("x1 >= 1 or\n  x2 $ 1", "unexpected character '$'", 2, 6),
        ("x1 >= 1 and   ", "expected an expression, found 'end of input'", 1, 15),
    ]

    @pytest.mark.parametrize(("text", "message", "line", "column"), MALFORMED)
    def test_malformed_text_is_reported_where_it_goes_wrong(self, text, message, line, column):
        with pytest.raises(FormulaSyntaxError) as err:
            parse(text, SAT15)
        assert (str(err.value), err.value.line, err.value.column) == (
            f"{message} (line {line}, column {column})", line, column
        )

    def test_feature_names(self):
        names = ["x1", "_a", "x1 ", "1x", "and", "relu", "x²", "", None]
        assert [is_feature_name(name) for name in names] == [True, True, False, False, False, False, True, False, False]


def check_on_single_node(f, **feats):
    values = {name: feats.get(name, 0) for name in f.features} or {"x1": 0}
    graph = LabeledGraph(f.spec, tuple(values), ("u",), (), {"u": values})
    return check(graph, "u", f)


class TestPrinter:
    CASES = [
        "agg(x1) >= 1",
        "x1 + relu(x2) >= 0",
        "(x1 >= 2) and (-1*x1 + 2 >= 0)",
        "agg(3) = 10",
        "not (x1 >= 1 or x2 = 0) and true",
        "mean(x1 + x2) < 2",
        "maxagg(truncrelu(x1)) = 1",
        "wagg[1,-2](x1) = 3",
        "2*(3*x1) + -4*agg(x1 + (x2 + 1)) >= -5",
    ]
    PRINTED = [
        "agg(x1) >= 1",
        "x1 + relu(x2) >= 0",
        "x1 >= 2 and -1*x1 + 2 >= 0",
        "agg(3) = 10",
        "not (x1 >= 1 or x2 = 0) and x1 + -1*x1 >= 0",
        "not mean(x1 + x2) >= 2",
        "maxagg(truncrelu(x1)) = 1",
        "wagg[1,-2](x1) = 3",
        "2*(3*x1) + -4*agg(x1 + (x2 + 1)) >= -5",
    ]

    def test_canonical_text(self):
        assert [to_text(parse(text, SAT15)) for text in self.CASES] == self.PRINTED

    def test_deep_nesting_prints(self):
        arena = Arena(SAT15)
        chain = arena.feature("x1")
        for _ in range(3000):
            chain = arena.act("relu", chain)
        assert to_text(Formula(arena, arena.geq(chain, 1))) == "relu(" * 3000 + "x1" + ")" * 3000 + " >= 1"
        chain = arena.feature("x1")
        for _ in range(3000):
            chain = arena.add(arena.feature("x2"), chain)
        assert to_text(Formula(arena, arena.eq(chain, 0))) == "x2 + (" * 2999 + "x2 + x1" + ")" * 2999 + " = 0"

    @pytest.mark.parametrize("text", CASES)
    def test_round_trip_structural(self, text):
        f = parse(text, SAT15)
        again = parse(to_text(f), SAT15)
        assert structural_key(f.arena, f.root) == structural_key(again.arena, again.root)

    def test_round_trip_preserves_sharing(self):
        f = parse("(x1 >= 2) and (-1*x1 + 2 >= 0)", SAT15)
        again = parse(to_text(f), SAT15)
        _, eids = again.arena.reachable(again.root)
        feats = [e for e in eids if again.arena.expr(e)[0] == "feat"]
        assert len(feats) == 1

    def test_const_formatting(self):
        arena = Arena(FIX32_4)
        f = Formula(arena, arena.eq(arena.const(0), 0))
        assert to_text(f) == "0.0000 = 0.0000"

    def test_section_example_formula_round_trip(self):
        text = (
            "x1 >= 100 and relu(0.008*x1) + -1*y1 = 0 "
            "and 0.001*agg(x1) + -1*y2 = 0 and not y1 >= 0.9"
        )
        f = parse(text, FIX32_4)
        again = parse(to_text(f), FIX32_4)
        assert structural_key(f.arena, f.root) == structural_key(again.arena, again.root)

    def test_randomized_round_trips(self):
        import random

        from gnncheck.fuzz import random_formula

        rng = random.Random(407)
        for _ in range(200):
            f = random_formula(
                rng, SAT15, agg_kinds=("sum", "mean", "max", "weighted"), max_atoms=4
            )
            again = parse(to_text(f), SAT15)
            assert structural_key(f.arena, f.root) == structural_key(again.arena, again.root)


class TestQueries:
    def test_agg_depth(self):
        assert agg_depth(parse("x1 >= 0", SAT15)) == 0
        assert agg_depth(parse("agg(x1) >= 1", SAT15)) == 1
        assert agg_depth(parse("agg(agg(x1) + x2) = 0 and agg(x1) >= 0", SAT15)) == 2

    def test_features_of(self):
        assert features_of(parse("x1 + alpha(x2) >= 0", SAT15)) == ("x1", "x2")
        assert features_of(parse("agg(1) = 4", SAT15)) == ()

    def test_features_of_worked_example(self):
        f = parse("x1 >= 100 and relu(0.008*x1) + -1*y1 = 0 and not y1 >= 0.9", FIX32_4)
        assert features_of(f) == ("x1", "y1")

    def test_the_walk_kept_by_a_formula_outlives_the_arena_growing(self):
        import random

        from gnncheck.fuzz import random_formula

        def assert_walk(f):
            assert (f.fids, f.eids) == f.arena.reachable(f.root)
            assert features_of(f) == features_of(Formula(f.arena, f.root))

        rng = random.Random(61)
        for _ in range(100):
            f = random_formula(rng, SAT15, agg_kinds=("sum", "mean", "max", "weighted"), max_atoms=4)
            other = random_formula(rng, SAT15, n_features=3)
            grown = [
                Formula(f.arena, import_formula(f.arena, other.arena, other.root)),
                rewrite_truncrelu(f),
                desugar_eq(f),
                desugar_eq(rewrite_truncrelu(f)),
            ]
            for g in [f, *grown]:
                assert g.arena is f.arena
                assert_walk(g)


class TestRewrite:
    def test_truncrelu_shape(self):
        f = parse("truncrelu(x1) >= 0", SAT8)
        rewritten = rewrite_truncrelu(f)
        expected = parse("relu(relu(x1) + -1*relu(x1 + -1*1)) >= 0", SAT8)
        assert structural_key(rewritten.arena, rewritten.root) == structural_key(expected.arena, expected.root)

    def test_noop_without_truncrelu(self):
        f = parse("relu(x1) + agg(x2) >= 0", SAT8)
        assert rewrite_truncrelu(f).root == f.root

    def test_pointwise_equal_exhaustive(self):
        f = parse("truncrelu(x1 + x1) = 1", SAT8)
        g = rewrite_truncrelu(f)
        expr_f = f.arena.formula(f.root)[1]
        expr_g = g.arena.formula(g.root)[1]
        for p in SAT8.values_p():
            graph = LabeledGraph(SAT8, ("x1",), ("u",), (), {"u": {"x1": p}})
            assert eval_payload(graph, "u", f.arena, expr_f) == eval_payload(graph, "u", g.arena, expr_g)


class TestEqDesugar:
    @pytest.mark.parametrize("text", ["x1 = 2", "x1 + x2 = -1", "relu(x1) = 0"])
    def test_equivalent_on_all_single_nodes(self, text):
        spec = ArithmeticSpec.satint(3)
        f = parse(text, spec)
        g = desugar_eq(f)
        names = f.features
        import itertools

        for combo in itertools.product(spec.values_p(), repeat=len(names)):
            values = dict(zip(names, combo))
            graph = LabeledGraph(spec, names, ("u",), (), {"u": values})
            assert check(graph, "u", f) == check(graph, "u", g)

    def test_equivalent_on_all_one_child_trees(self):
        spec = ArithmeticSpec.satint(2)
        f = parse("agg(x1) = 2 or not agg(x1) = -1", spec)
        g = desugar_eq(f)
        for root in spec.values_p():
            for child in spec.values_p():
                graph = LabeledGraph(
                    spec, ("x1",), ("u", "c"), (("u", "c"),),
                    {"u": {"x1": root}, "c": {"x1": child}},
                )
                assert check(graph, "u", f) == check(graph, "u", g)
