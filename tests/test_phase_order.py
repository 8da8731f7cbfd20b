"""``verify_lvp`` takes the first sampled tree before the interval pass, and
that moves nothing but the ticks of a ``Valid("bounds")``.

``reference_verify`` runs the same public phases in the other order: the
compiled formula, the interval pass on it, a sampling round, the box split,
the extra rounds and the tableau.  The interval pass draws nothing and charges
no ticks, and a proof by it means that no counterexample exists, so on every
instance and limit both orders give the same verdict, ``Valid.by``,
``Unknown`` reason, counterexample and outputs; every case that the bounds do
not prove is charged the same ticks, and one they prove is charged the
shapes drawn up to its first tree instead of nothing.  The instances are in
the style of the ``lvp-grid`` benchmark workload.
"""

import json
import random

import pytest

import gnncheck.falsify as falsify_mod
import gnncheck.tableau as tableau_mod
from gnncheck.arith import ArithmeticSpec
from gnncheck.bounds import BoxSplit
from gnncheck.compile import compile_lvp
from gnncheck.falsify import EXTRA_ROUNDS, Sampler
from gnncheck.gnn import gnn_eval, lvp_from_json
from gnncheck.graph import save_json
from gnncheck.semantics import Budget, Unknown, Unsat
from gnncheck.tableau import Invalid, SolveLimits, Valid, solve, verify_lvp

from test_falsify import relational_instance

ARITHS = ("satint:7", "fixed:5:1")
KINDS = ("sum", "mean", "max", "weighted")
CASES = 300
LIMITS = (
    SolveLimits(max_terms=0),
    SolveLimits(max_terms=1),
    SolveLimits(max_terms=40),
    SolveLimits(max_terms=10_000),
    SolveLimits(time_limit=0),
)


def grid_instance(i: int):
    """Instance ``i``: satint:7 or fixed:5:1, one to three layers, each of
    the four aggregations first, δ 2 or 3, weights in [-2, 2] (within the
    value range), one input and one output inequality."""
    rng = random.Random(f"phase-order:{i}")
    arith, first_kind = ARITHS[i % 2], KINDS[(i // 2) % 4]
    delta, n_layers = 2 + (i // 8) % 2, 1 + (i // 16) % 3
    spec = ArithmeticSpec.parse(arith)
    fmt, top = spec.format_payload, min(2 * spec.one, spec.max_payload)

    def weight() -> str:
        return fmt(rng.randint(-top, top))

    def const() -> str:
        return fmt(max(-top, min(top, rng.randint(-2, 2) * spec.one)))

    dims, layers = [rng.randint(1, 2)], []
    for layer in range(n_layers):
        kind = first_kind if layer == 0 else rng.choice(KINDS)
        agg = {"kind": "weighted", "weights": [weight() for _ in range(delta)]} if kind == "weighted" else kind
        width = rng.randint(1, 3)
        layers.append({
            "agg": agg,
            "comb": {
                "weights": [[weight() for _ in range(2 * dims[-1])] for _ in range(width)],
                "bias": [weight() for _ in range(width)],
                "activation": [rng.choice(("relu", "id")) for _ in range(width)],
            },
        })
        dims.append(width)
    one = fmt(spec.one)
    return lvp_from_json({
        "gnn": {
            "arith": arith,
            "input_dim": dims[0],
            "layers": layers,
            "out": {"weights": [[weight() for _ in range(dims[-1])]], "bias": [weight()], "activation": ["id"]},
        },
        "l_in": [{"coeffs": {"x1": one}, "const": const(), "rel": ">="}],
        "l_out": [{"coeffs": {"y1": one}, "const": const(), "rel": ">="}],
        "delta": {"mode": "unary", "value": delta},
    })


# with an instance that only the tableau proves valid: none of the grid's does
INSTANCES = [grid_instance(i) for i in range(CASES)] + [relational_instance()]


def reference_verify(instance, limits):
    """The verdict and the budget of the phases in the order compile,
    interval pass, round, box split, extra rounds, tableau."""
    budget = Budget(limits.max_terms, limits.time_limit)
    compiled = compile_lvp(instance)
    split = BoxSplit(instance, compiled)
    if split.proved:
        return Valid("bounds"), budget
    sampler = Sampler(instance, budget)
    hit = sampler.round()
    if hit is not None:
        return Invalid(*hit), budget
    if split.run(budget)[0]:
        return Valid("split"), budget
    for _ in range(EXTRA_ROUNDS):
        if sampler.cut:
            break
        hit = sampler.round()
        if hit is not None:
            return Invalid(*hit), budget
    verdict = solve(compiled.formula, instance.delta, limits, _budget=budget)
    if isinstance(verdict, Unknown):
        return verdict, budget
    if isinstance(verdict, Unsat):
        return Valid("tableau"), budget
    return Invalid(verdict.model, gnn_eval(instance.model, verdict.model)), budget


def outcome(v) -> tuple:
    """The verdict's class, ``Valid.by`` or ``Unknown.reason``, and a
    counterexample's graph JSON and outputs."""
    if isinstance(v, Invalid):
        cex = v.counterexample
        return ("Invalid", json.dumps(save_json(cex.graph, cex.point), sort_keys=True), [o.payload for o in v.outputs])
    return (type(v).__name__, getattr(v, "by", None) or getattr(v, "reason", None), None)


@pytest.fixture
def budgets(monkeypatch):
    """The budgets ``verify_lvp`` builds, in order."""
    made = []

    class Recorded(Budget):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(tableau_mod, "Budget", Recorded)
    return made


def test_the_order_moves_only_the_ticks_of_a_bounds_proof(budgets):
    seen = set()
    for i, instance in enumerate(INSTANCES):
        for limits in LIMITS:
            want, want_budget = reference_verify(instance, limits)
            got = verify_lvp(instance, limits)
            where = (i, limits)
            assert outcome(got) == outcome(want), where
            if got == Valid("bounds"):
                assert want_budget.ticks == 0, where
            else:
                assert budgets[-1].ticks == want_budget.ticks, where
            seen.add("Invalid" if isinstance(got, Invalid) else outcome(got)[:2])
    # the instances reach every phase's verdict and both limits
    assert {("Valid", "bounds"), ("Valid", "split"), ("Valid", "tableau"), "Invalid"} <= seen
    assert {("Unknown", "node-limit"), ("Unknown", "timeout")} <= seen


def test_each_artifact_is_built_at_its_first_use(monkeypatch):
    calls = dict.fromkeys(("BoxSplit", "compile_lvp", "tree_eval"), 0)

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(tableau_mod, "BoxSplit")
    counted(tableau_mod, "compile_lvp")
    counted(falsify_mod, "tree_eval")
    limits = SolveLimits(max_terms=10_000)
    first_hits = bounds = 0
    for i, instance in enumerate(INSTANCES):
        first = next(Sampler(instance, Budget(limits.max_terms)).tries(), None)
        calls.update(dict.fromkeys(calls, 0))
        v = verify_lvp(instance, limits)
        # every verdict compiles once, a Valid("bounds") too: the interval
        # pass runs on the compiled formula
        assert calls["BoxSplit"] <= 1 and calls["compile_lvp"] == 1, i
        if first is not None:
            first_hits += 1
            assert isinstance(v, Invalid), i
            assert calls == {"BoxSplit": 0, "compile_lvp": 1, "tree_eval": 1}, i
        else:
            assert calls["BoxSplit"] == 1, i
        if v == Valid("bounds"):
            bounds += 1
            assert calls["tree_eval"] <= 1, i
    assert first_hits >= 50 and bounds >= 20
