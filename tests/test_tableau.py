import itertools
import random

import pytest

from gnncheck.arith import ArithmeticSpec
from gnncheck.errors import UsageError
from gnncheck.formula import Arena, Formula, parse, to_text
from gnncheck.fuzz import run_differential
from gnncheck.gnn import DeltaMode, LinIneq, LvpInstance, eval_linineq, gnn_eval
from gnncheck.graph import save_json
from gnncheck.semantics import Budget, Sat, Unknown, Unsat, brute_force_sat, check, eval_payload
from gnncheck.tableau import (
    Invalid,
    SolveLimits,
    Valid,
    _Search,
    _State,
    solve,
    verify_lvp,
    walk_window,
)

from conftest import FIX32_4, SAT7, message_instance, message_model, two_layer_instance
from test_search_golden import word_names

SAT15 = ArithmeticSpec.satint(15)


def phi_prime():
    return parse(
        "x1 >= 100 and (relu(0.008*x1) + -1*y1 = 0 and 0.001*agg(x1) + -1*y2 = 0) "
        "and not y1 >= 0.9",
        FIX32_4,
    )


class TestSolve:
    def test_worked_instance_is_sat_with_checked_model(self):
        f = phi_prime()
        verdict = solve(f, DeltaMode.unary(5), SolveLimits(time_limit=60))
        assert isinstance(verdict, Sat)
        assert check(verdict.model.graph, verdict.model.point, f)

    def test_unsat_aggregate_all_modes(self):
        f = parse("agg(3) = 10", SAT15)
        for mode in (DeltaMode.unary(5), DeltaMode.binary(5), DeltaMode.infinite()):
            assert isinstance(solve(f, mode), Unsat)

    def test_four_successors_found_at_ascending_arity(self):
        verdict = solve(parse("agg(1) = 4", SAT15), DeltaMode.unary(5))
        assert isinstance(verdict, Sat)
        assert verdict.model.graph.out_degree("v") == 4

    def test_arity_bound_unsat_agrees_with_oracle(self):
        f = parse("agg(1) = 4", SAT15)
        assert isinstance(solve(f, DeltaMode.unary(2)), Unsat)
        assert isinstance(brute_force_sat(f, delta=2), Unsat)

    def test_empty_arity_law(self):
        # with delta 0 an aggregate can only be 0
        assert isinstance(solve(parse("agg(x1) = 0", SAT15), DeltaMode.unary(0)), Sat)
        assert isinstance(solve(parse("agg(x1) = 1", SAT15), DeltaMode.unary(0)), Unsat)
        assert isinstance(solve(parse("mean(x1) = 1", SAT15), DeltaMode.unary(0)), Unsat)
        assert isinstance(solve(parse("maxagg(x1) = -2", SAT15), DeltaMode.unary(0)), Unsat)

    def test_mean_at_zero_arity_needs_zero_target(self):
        assert isinstance(solve(parse("mean(x1) = 0", SAT15), DeltaMode.unary(0)), Sat)

    def test_aggregation_variants(self):
        spec = ArithmeticSpec.satint(9)
        assert isinstance(solve(parse("mean(x1) = 4 and agg(1) = 2", spec), DeltaMode.unary(3)), Sat)
        assert isinstance(solve(parse("maxagg(x1) = 7", spec), DeltaMode.unary(2)), Sat)
        v = solve(parse("wagg[2,-1](x1) = 5 and agg(1) = 2", spec), DeltaMode.unary(2))
        assert isinstance(v, Sat)

    def test_weighted_arity_capped_by_vector(self):
        # wagg with 1 weight cannot support two successors
        spec = ArithmeticSpec.satint(9)
        f = parse("wagg[1](x1) = 2 and agg(1) = 2", spec)
        assert isinstance(solve(f, DeltaMode.unary(3)), Unsat)

    def test_limits_give_unknown(self):
        f = parse("agg(agg(x1)) = 7 and agg(x1) >= -6", ArithmeticSpec.satint(7))
        verdict = solve(f, DeltaMode.unary(2), SolveLimits(max_terms=5))
        assert isinstance(verdict, Unknown)
        assert verdict.reason == "node-limit"

    def test_timeout_gives_unknown(self):
        # the two occurrences of x1 are independent to interval reasoning, so
        # refuting this needs a sweep over x1; an immediate deadline trips first
        f = parse("x1 >= -3000 and not (x1 - x1 >= 0)", ArithmeticSpec.satint(3000))
        verdict = solve(f, DeltaMode.unary(1), SolveLimits(time_limit=1e-6))
        assert isinstance(verdict, Unknown)
        assert verdict.reason == "timeout"

    def test_deterministic_runs(self):
        f = parse("agg(x1) = 2 or (x1 >= 1 and agg(1) = 3)", ArithmeticSpec.satint(3))
        a = solve(f, DeltaMode.unary(3))
        b = solve(f, DeltaMode.unary(3))
        assert isinstance(a, Sat) and isinstance(b, Sat)
        assert save_json(a.model.graph, a.model.point) == save_json(b.model.graph, b.model.point)

    def test_boolean_branching(self):
        spec = ArithmeticSpec.satint(3)
        assert isinstance(solve(parse("x1 >= 2 or x1 = -3", spec), DeltaMode.unary(1)), Sat)
        assert isinstance(solve(parse("x1 >= 2 and not x1 >= 1", spec), DeltaMode.unary(1)), Unsat)
        assert isinstance(solve(parse("not (x1 >= -3)", spec), DeltaMode.unary(1)), Unsat)

    def test_negated_eq(self):
        spec = ArithmeticSpec.satint(2)
        v = solve(parse("not x1 = 0 and not relu(x1) = 0", spec), DeltaMode.unary(1))
        assert isinstance(v, Sat)

    def test_shared_subexpression_consistency(self):
        # both atoms constrain the same DAG node; a single value must serve both
        spec = ArithmeticSpec.satint(5)
        f = parse("relu(x1) = 3 and relu(x1) + x2 = 2", spec)
        v = solve(f, DeltaMode.unary(1))
        assert isinstance(v, Sat)
        g = v.model.graph
        assert g.label_payload("v", "x1") == 3
        assert g.label_payload("v", "x2") == -1

    def test_truncrelu_solving(self):
        spec = ArithmeticSpec.satint(4)
        v = solve(parse("truncrelu(x1) = 1 and x1 >= 2", spec), DeltaMode.unary(1))
        assert isinstance(v, Sat)
        assert isinstance(solve(parse("truncrelu(x1) = 2", spec), DeltaMode.unary(1)), Unsat)

    @pytest.mark.parametrize(
        "text,arith,delta",
        [
            ("maxagg(x1) >= -0.7 and maxagg(-1.4) >= -0.8 and 0.4*relu(x2) >= -0.1", "fixed:5:1", 2),
            ("mean(-4*maxagg(x1)) >= -2", "satint:5", 3),
            ("not agg(id(agg(1.5))) >= 1.1 or id(0.1) + id(0.3*x2) >= -1.2", "fixed:5:1", 3),
            ("not maxagg(x1 + x1) >= 0.8 and (not x2 >= -0.6 and x1 >= 0.5)", "fixed:5:1", 2),
            ("maxagg(1.2*0.2 + id(0.2)) = 1.0 and (id(agg(x2)) >= 0.2 and x1 >= -0.6)", "fixed:5:1", 2),
        ],
    )
    def test_arity_is_chosen_before_an_aggregation_value(self, text, arith, delta):
        # an open atom's evaluation stops at a word without an arity; guessing
        # the aggregation's value first took 5 000 ticks and more on each
        f = parse(text, ArithmeticSpec.parse(arith))
        expected = brute_force_sat(f, delta)
        assert isinstance(expected, (Sat, Unsat))
        assert type(solve(f, DeltaMode.unary(delta), SolveLimits(max_terms=100))) is type(expected)


    @pytest.mark.parametrize(
        "text,arith,delta,expected",
        [
            # an atom its expression's structural range cannot meet, under
            # the arity cap of δ = inf: each was Unknown at 50 000 ticks when
            # every branch of root and successor arities met it on its own
            ("relu(agg(mean(-1))) >= 1", "satint:3", None, Unsat),
            ("not agg(mean(3)) >= -1 and not x1 + x1 + (x1 + x2) + truncrelu(3*(-1)) = -3", "satint:3", None, Unsat),
            ("mean(agg(relu(x2))) >= 3 and (not x2 + 3 = 0 and x2 + -1 >= 3)", "satint:3", None, Unsat),
            ("agg(agg(-2)) >= 1 and x2 + -2*1 + x2 >= 0 or not 3*(x1 + 1*x2) >= 0", "satint:3", None, Sat),
            # a self-sum solved as the scale by 2, not by grounding
            ("x1 + x1 >= 3 and not 2*x1 + (x1 + x2) >= 0", "satint:5", 2, Unsat),
            # an unvalued aggregation starts at its structural range in
            # saturation too: each took more than 5 000 ticks at [-M, M]
            ("-1.4 + x2 + -0.1*x1 + wagg[0.4,-0.1](0.8*x1) >= 0.0 or 0.9*(-0.2) >= -1.1", "fixed:5:1", 2, Sat),
            ("wagg[-3,0,-3](x1 + 5) + agg(x1) = 5 or not 5*(-3) >= 0 and x2 >= 1", "satint:5", 3, Sat),
            # a stuck sum inverts its unknown operand: the last atom's sum
            # has a known left operand, so its window is maxagg(x1)'s, twelve
            # values wide, and the root's arity is chosen first; enumerating
            # (left, right) pairs guessed the aggregation's value first and
            # found no model in 2 000 000 ticks
            (
                "agg(truncrelu(x2) + (-0.6 + x1)) = -0.2 and not x2 = -1.0 and 1.5*id(-0.7) + maxagg(x1) = -1.5",
                "fixed:5:1",
                3,
                Sat,
            ),
        ],
    )
    def test_what_the_formula_fixes_is_settled_before_branching(self, text, arith, delta, expected):
        f = parse(text, ArithmeticSpec.parse(arith))
        mode = DeltaMode.infinite() if delta is None else DeltaMode.unary(delta)
        assert type(solve(f, mode, SolveLimits(max_terms=100))) is expected
        # an Unsat under every arity is Unsat at δ 3; a Sat at δ 2 is the oracle's
        if expected is Unsat or delta is not None:
            assert type(brute_force_sat(f, 3 if delta is None else delta)) is expected

    def test_a_one_value_window_opens_no_choice_point(self, monkeypatch):
        # both operands of the aggregated sum are unknown, and the first,
        # maxagg(0), ranges over (0, 0): its window is one value, which
        # saturation assigns, where an inversion choice took a tick for it
        picked = []
        pick_choice = _Search.pick_choice

        def recording(search, st):
            choice = pick_choice(search, st)
            picked.append(choice)
            return choice

        monkeypatch.setattr(_Search, "pick_choice", recording)
        f = parse("wagg[1,0,0](maxagg(0) + (x1 + x1)) = -4", ArithmeticSpec.satint(4))
        assert isinstance(solve(f, DeltaMode.unary(3), SolveLimits(max_terms=100)), Sat)
        assert picked and not any(choice is not None and choice[0] == "invert" for choice in picked)


class TestLimits:
    @pytest.mark.parametrize(
        "limits",
        [
            {"time_limit": float("nan")},
            {"time_limit": -1.0},
            {"max_terms": -5},
            {"max_terms": float("nan")},
            {"max_terms": 1.5},
        ],
        ids=repr,
    )
    def test_nan_or_negative_limits_are_refused(self, limits):
        with pytest.raises(UsageError):
            SolveLimits(**limits)

    def test_zero_limits_are_budgets(self):
        f = parse("x1 >= 0 and x2 >= 0", SAT7)
        assert solve(f, DeltaMode.unary(1), SolveLimits(max_terms=0)) == Unknown("node-limit")
        # saturation reads the clock at its first atom, as the oracle does at its first level
        assert solve(f, DeltaMode.unary(1), SolveLimits(time_limit=0.0)) == Unknown("timeout")

    @pytest.mark.parametrize("max_terms", range(0, 40, 3))
    def test_verify_leaves_the_tableau_valid_limits(self, msg_instance, max_terms):
        # the sampler never spends more than the budget, so the limits it
        # hands on are never negative
        result = verify_lvp(msg_instance, SolveLimits(max_terms=max_terms))
        assert isinstance(result, (Invalid, Unknown))


class TestExprRange:
    def test_empty_interval_passes_act_unchanged(self):
        arena = Arena(SAT7)
        inner = arena.add(arena.act("relu", arena.feature("x1")), arena.const(4))  # range [4, 7]
        outer = arena.act("relu", inner)
        negated = arena.scale(-1, inner)
        doubled = arena.scale(2, inner)
        atoms = [arena.geq(e, 0) for e in (outer, negated, doubled)]
        search = _Search(Formula(arena, arena.conjoin(atoms)), 1, Budget())
        st = _State()
        root = 0  # the root word's offset: its store keys are the eids themselves
        st.bounds[root + inner] = (1, 2)  # contradicts the range: the interval is empty
        assert search.expr_range(st, root, inner) == (4, 2)
        assert search.expr_range(st, root, outer) == (4, 2)
        # scale orders the ends of its image, whatever the sign of the weight
        assert search.expr_range(st, root, negated) == (-4, -2)
        assert search.expr_range(st, root, doubled) == (4, 7)

    def test_an_unvalued_aggregation_starts_at_its_structural_range(self):
        # the mean of relu(x2) cannot be negative, at any word
        f = parse("mean(relu(x2)) >= -1.4", ArithmeticSpec.fixed(5, 1))
        search = _Search(f, 3, Budget())
        agg = next(eid for eid, node in search.nodes.items() if node[0] == "agg")
        assert search.expr_range(_State(), 0, agg) == (0, 15)


class TestExtractModel:
    def test_unconstrained_features_default_to_zero(self):
        f = parse("agg(x1) = 2 and x2 + 0 >= -3", ArithmeticSpec.satint(3))
        v = solve(f, DeltaMode.unary(2))
        assert isinstance(v, Sat)
        for node in v.model.graph.nodes:
            assert set(v.model.graph.labels[node]) == {"x1", "x2"}

    def test_single_node_when_no_aggregation(self):
        v = solve(parse("x1 >= 3 and x1 < 5", SAT15), DeltaMode.unary(4))
        assert isinstance(v, Sat)
        assert len(v.model.graph.nodes) == 1

    def test_point_is_root(self):
        v = solve(parse("agg(1) = 2", SAT15), DeltaMode.unary(3))
        assert isinstance(v, Sat)
        assert v.model.point == "v"
        assert v.model.graph.out_degree("v") == 2

    def test_trace_values_match_model(self):
        # every value in the final store, at the node its word names, is the
        # value the evaluator gives the model there
        f = parse("agg(x1 + 1) = 3 and x1 = 2", ArithmeticSpec.satint(4))
        search = _Search(f, 3, Budget())
        final = search.attempt(search.root_state())
        assert final is not None
        graph = search.extract_model(final).graph
        assert len(graph.nodes) > 1
        names = word_names(search)
        for key, payload in final.values.items():
            eid = key % search.stride
            assert eval_payload(graph, names[key - eid], f.arena, eid) == payload


class TestVerifyLvp:
    def test_two_layer_instance_invalid(self, supp_instance):
        result = verify_lvp(supp_instance, SolveLimits(time_limit=60))
        assert isinstance(result, Invalid)
        spec = supp_instance.model.spec
        point = result.counterexample.point
        labels = {
            f: result.counterexample.graph.label_payload(point, f)
            for f in supp_instance.model.input_features
        }
        assert all(eval_linineq(q, labels, spec) for q in supp_instance.l_in)
        outs = dict(
            zip(supp_instance.model.output_features, (v.payload for v in result.outputs))
        )
        assert not all(eval_linineq(q, outs, spec) for q in supp_instance.l_out)

    def test_message_instance_invalid(self, msg_instance):
        result = verify_lvp(msg_instance, SolveLimits(time_limit=60))
        assert isinstance(result, Invalid)
        # the reported outputs come from re-running the network
        y = dict(zip(msg_instance.model.output_features, result.outputs))
        assert y["y1"].payload < FIX32_4.parse_literal("0.9")

    def test_empty_l_out_is_valid(self, msg_instance):
        inst = LvpInstance(msg_instance.model, msg_instance.l_in, (), msg_instance.delta)
        assert isinstance(verify_lvp(inst, SolveLimits(time_limit=30)), Valid)

    def test_unsatisfiable_input_side_is_valid(self):
        inst = message_instance()
        spec = inst.model.spec
        l_in = (
            LinIneq((("x1", spec.one),), spec.parse_literal("1")),
            LinIneq((("x1", -spec.one),), spec.parse_literal("1")),  # x1 <= -1
        )
        inst = LvpInstance(inst.model, l_in, inst.l_out, inst.delta)
        assert isinstance(verify_lvp(inst, SolveLimits(time_limit=30)), Valid)


class TestDifferential:
    def test_small_differential_agreement(self):
        results = run_differential(60, seed=77, spec=ArithmeticSpec.satint(3), delta=2)
        results += run_differential(
            150, seed=81, spec=ArithmeticSpec.satint(5), delta=3, agg_kinds=("sum", "mean", "max", "weighted")
        )
        assert all(r.agree for r in results), [r for r in results if not r.agree][:3]

    @pytest.mark.parametrize(
        "delta,kinds,message",
        [(-1, ("sum",), "delta must be >= 0"), (2, ("sum", ""), "unknown aggregation kind ''")],
    )
    def test_bad_delta_or_kind_is_refused_before_the_first_case(self, delta, kinds, message):
        # with 0 cases no aggregation is drawn, so the arguments are checked first
        with pytest.raises(UsageError, match=message):
            run_differential(0, seed=0, spec=ArithmeticSpec.satint(3), delta=delta, agg_kinds=kinds)

    @pytest.mark.parametrize("kind", ["mean", "max", "weighted"])
    def test_variant_differential_agreement(self, kind):
        results = run_differential(
            40, seed=31, spec=ArithmeticSpec.satint(2), delta=2, agg_kinds=(kind,), max_agg_depth=1
        )
        assert all(r.agree for r in results), [r for r in results if not r.agree][:3]


# walk_window is the tableau's one rule for which values the next successor
# of an aggregation walk may take.  It is checked four ways: against a linear
# scan of the same rule (for its binary search), by brute force over the
# later successors' values (exact for sum, mean and max; for weighted, where
# rounding skips products, it holds every reachable value), and against
# reference copies of the three rules it replaced: scan_weighted, the
# accumulator window of sum and mean (acc_window), and scan_max where the
# candidates lie in the later successors' range or none follows, as they do in
# the tableau (its candidates and the later successors' values are cut to the
# child's structural range).


def scan_max(acc, target, remaining, clo, chi, flo, fhi):
    if acc is not None and acc > target:
        return []
    reach_later = remaining >= 1 and flo <= target <= fhi
    out = []
    for v in range(clo, min(chi, target) + 1):
        current = v if acc is None else max(acc, v)
        if remaining == 0:
            if current == target:
                out.append(v)
        elif current == target or reach_later:
            out.append(v)
    return out


def scan_weighted(spec, acc, target, w, contribs, clo, chi):
    if not contribs:
        urange = spec.add_preimage(acc, target, target)
        if urange is None:
            return []
        pre = spec.mul_preimage(w, urange[0], urange[1])
        if pre is None:
            return []
        return list(range(max(pre[0], clo), min(pre[1], chi) + 1))
    out = []
    for v in range(clo, chi + 1):
        nxt = spec.add_p(acc, spec.mul_p(w, v))
        lo_chain, hi_chain = nxt, nxt
        for c_lo, c_hi in contribs:
            lo_chain = spec.add_p(lo_chain, c_lo)
            hi_chain = spec.add_p(hi_chain, c_hi)
        if lo_chain <= target <= hi_chain:
            out.append(v)
    return out


def acc_window(spec, t, remaining, flo, fhi):
    """Accumulator values from which t stays reachable when each of the
    remaining successors adds a value in [flo, fhi]."""
    m = spec.max_payload
    t_lo, t_hi = t
    hi = m if flo > 0 and t_hi == m else t_hi - remaining * flo
    lo = -m if fhi < 0 and t_lo == -m else t_lo - remaining * fhi
    return max(lo, -m), min(hi, m)


def scan_acc_window(spec, acc, t, remaining, clo, chi, flo, fhi):
    rng = spec.add_preimage(acc, *acc_window(spec, t, remaining, flo, fhi))
    return [] if rng is None else list(range(max(rng[0], clo), min(rng[1], chi) + 1))


def scan_rule(spec, kind, acc, t, contrib, later, clo, chi):
    """walk_window's rule, value by value."""
    out = []
    for v in range(clo, chi + 1):
        lo = hi = spec.fold_step(kind, acc, v if contrib is None else contrib[v])
        for c_lo, c_hi in later:
            lo, hi = spec.fold_step(kind, lo, c_lo), spec.fold_step(kind, hi, c_hi)
        if lo <= t[1] and hi >= t[0]:
            out.append(v)
    return out


def window(spec, kind, acc, t, contrib, later, clo, chi):
    rng = walk_window(spec, kind, acc, t, contrib, later, clo, chi)
    return [] if rng is None else list(range(rng[0], rng[1] + 1))


def new_max(spec, acc, target, remaining, clo, chi, flo, fhi):
    return window(spec, "max", acc, (target, target), None, [(flo, fhi)] * remaining, clo, chi)


def new_weighted(spec, acc, target, w, contribs, clo, chi):
    return window(spec, "weighted", acc, (target, target), spec.table("mul_p", w), contribs, clo, chi)


def reachable_values(spec, kind, acc, arity, target, weights, remaining, flo, fhi):
    """The next successor's values from which some values in [flo, fhi] of
    the remaining successors make the fold end at target."""
    out = set()
    for v in spec.values_p():
        for us in itertools.product(range(flo, fhi + 1), repeat=remaining):
            x = acc
            for i, u in enumerate((v, *us)):
                x = spec.fold_step(kind, x, u if weights is None else spec.mul_p(weights[i], u))
            if spec.fold_finish(kind, x, arity) == target:
                out.add(v)
                break
    return out


def intervals(values):
    return [(lo, hi) for lo in values for hi in values if lo <= hi]


def walk_inputs(spec, kind):
    """(acc, t, contrib) of a walk step: acc None only for max's first
    successor, t a target or, for mean, the sums that divide to one."""
    vals = list(spec.values_p())
    accs = [None] + vals if kind == "max" else vals
    if kind == "mean":
        ts = sorted({spec.div_preimage(k, n) for k in vals for n in (1, 2, 3)} - {None})
    else:
        ts = [(k, k) for k in vals]
    contribs = [spec.table("mul_p", w) for w in vals] if kind == "weighted" else [None]
    return list(itertools.product(accs, ts, contribs))


KINDS = ("sum", "mean", "max", "weighted")
SAT3 = ArithmeticSpec.satint(3)
FIX5_1 = ArithmeticSpec.fixed(5, 1)


class TestWalkWindows:
    def test_matches_linear_scan_satint3(self):
        vals = list(SAT3.values_p())
        spans = intervals(vals)
        later_sets = [[]] + [[c] for c in spans] + [[c, d] for c in spans[::5] for d in spans[::4]]
        for kind in KINDS:
            for (acc, t, contrib), later in itertools.product(walk_inputs(SAT3, kind), later_sets):
                for clo, chi in spans if not later else spans[::3] if len(later) == 1 else [(-3, 3), (-1, 2)]:
                    args = (SAT3, kind, acc, t, contrib, later, clo, chi)
                    assert window(*args) == scan_rule(*args), args[1:]

    def test_matches_linear_scan_fixed5_1_sampled(self):
        rng = random.Random(7)
        vals = list(FIX5_1.values_p())
        for kind in KINDS:
            inputs = walk_inputs(FIX5_1, kind)
            for _ in range(1500):
                acc, t, contrib = rng.choice(inputs)
                later = [tuple(sorted(rng.choices(vals, k=2))) for _ in range(rng.randint(0, 2))]
                clo, chi = sorted(rng.choices(vals, k=2))
                args = (FIX5_1, kind, acc, t, contrib, later, clo, chi)
                assert window(*args) == scan_rule(*args), args[1:]

    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_brute_force_over_later_values(self, kind):
        # later successors take every value in [flo, fhi]; their contributions
        # enter walk_window as the tableau builds them
        spec, m = SAT3, SAT3.max_payload
        vals = list(spec.values_p())
        weight_rows = [(w, *ws) for w in vals for ws in ((-3, 2), (1, -2))] if kind == "weighted" else [None]
        for acc, target, remaining, weights in itertools.product(
            [None] + vals if kind == "max" else vals, vals, (0, 1, 2), weight_rows
        ):
            arity = (acc is not None) + 1 + remaining
            t = spec.div_preimage(target, arity) if kind == "mean" else (target, target)
            for flo, fhi in intervals(vals)[:: 1 if remaining < 2 else 3]:
                reachable = reachable_values(spec, kind, acc, arity, target, weights, remaining, flo, fhi)
                if t is None:
                    assert not reachable
                    continue
                if weights is None:
                    contrib, later = None, [(flo, fhi)] * remaining
                else:
                    contrib = spec.table("mul_p", weights[0])
                    later = [tuple(sorted((spec.mul_p(w, flo), spec.mul_p(w, fhi)))) for w in weights[1 : 1 + remaining]]
                found = set(window(spec, kind, acc, t, contrib, later, -m, m))
                args = (kind, acc, target, remaining, flo, fhi, weights)
                if kind == "weighted":
                    assert reachable <= found, args
                else:
                    assert reachable == found, args

    @pytest.mark.parametrize("kind", ["sum", "mean"])
    def test_sum_and_mean_match_acc_window(self, kind):
        vals = list(SAT3.values_p())
        spans = intervals(vals)
        for (acc, t, _), remaining in itertools.product(walk_inputs(SAT3, kind), (0, 1, 2)):
            for flo, fhi in spans:
                for clo, chi in spans[::3] + [(flo, fhi)]:
                    args = (acc, t, remaining, clo, chi, flo, fhi)
                    assert window(SAT3, kind, acc, t, None, [(flo, fhi)] * remaining, clo, chi) == scan_acc_window(
                        SAT3, *args
                    ), args

    def test_max_matches_scan_satint3(self):
        vals = list(SAT3.values_p())
        for acc in [None] + vals:
            for target in vals:
                for remaining in (0, 1, 2):
                    for clo, chi in intervals(vals):
                        for flo, fhi in intervals(vals):
                            if remaining and not flo <= clo <= chi <= fhi:
                                continue
                            args = (acc, target, remaining, clo, chi, flo, fhi)
                            assert new_max(SAT3, *args) == scan_max(*args), args

    def test_max_matches_scan_fixed5_1(self):
        vals = list(FIX5_1.values_p())
        m = FIX5_1.max_payload
        spans = [(-m, m), (-m, -m), (m, m), (0, 0), (-4, 7)]
        for acc in [None] + vals:
            for target in vals:
                for remaining in (0, 1):
                    for clo, chi in spans + [(target, target), (target - 1, target + 1)]:
                        clo, chi = max(clo, -m), min(chi, m)
                        for flo, fhi in spans:
                            if remaining and not flo <= clo <= chi <= fhi:
                                continue
                            args = (acc, target, remaining, clo, chi, flo, fhi)
                            assert new_max(FIX5_1, *args) == scan_max(*args), args

    def test_weighted_matches_scan_satint3(self):
        # later successors enter the scan only through their contribution intervals
        vals = list(SAT3.values_p())
        m = SAT3.max_payload
        for acc in vals:
            for target in vals:
                for w in vals:
                    for clo, chi in intervals(vals):
                        args = (acc, target, w, [], clo, chi)
                        assert new_weighted(SAT3, *args) == scan_weighted(SAT3, *args), args
                    for contrib in intervals(vals):
                        args = (acc, target, w, [contrib], -m, m)
                        assert new_weighted(SAT3, *args) == scan_weighted(SAT3, *args), args

    def test_weighted_matches_scan_fixed5_1(self):
        vals = list(FIX5_1.values_p())
        m = FIX5_1.max_payload
        for acc in vals:
            for target in vals:
                for w in vals[::3]:
                    args = (acc, target, w, [(-2, 3)], -m, m)
                    assert new_weighted(FIX5_1, *args) == scan_weighted(FIX5_1, *args), args

    def test_weighted_matches_scan_sampled(self):
        rng = random.Random(5)
        for spec in (SAT3, FIX5_1):
            vals = list(spec.values_p())
            for _ in range(3000):
                contribs = [tuple(sorted(rng.choices(vals, k=2))) for _ in range(rng.randint(0, 3))]
                clo, chi = sorted(rng.choices(vals, k=2))
                args = (rng.choice(vals), rng.choice(vals), rng.choice(vals), contribs, clo, chi)
                assert new_weighted(spec, *args) == scan_weighted(spec, *args), args
