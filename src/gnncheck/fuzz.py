"""Seeded random formula generation and tableau-vs-oracle differential runs.

``run_differential`` solves each formula on a ladder of arity bounds, δ = 0,
1, ..., up to the asked δ, then unbounded.  The tableau runs at every rung and
the brute-force oracle at every finite one.  Besides the two engines agreeing
at each rung, the ladder checks that verdicts are monotone in δ: a bound that
admits a model admits it at every larger bound, so no rung is unsatisfiable
above a satisfiable one.  The unbounded rung is the tableau's alone; its arity
cap, 2^bits * |formula|, can be far above δ, so it has its own tick budget,
and running out of it there is no disagreement.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .arith import ACTIVATIONS, AGG_KINDS, ArithmeticSpec
from .errors import UsageError
from .formula import Arena, Formula, to_text
from .gnn import DeltaMode
from .semantics import Sat, Unknown, Unsat, brute_force_sat, check_limits
from .tableau import SolveLimits, solve

# Seconds each solver gets per case, and the tableau's tick budget at the
# finite rungs and at the unbounded one.
TIME_LIMIT = 20.0
MAX_TERMS = 2_000_000
INF_TERMS = 50_000


@dataclass
class FuzzCase:
    """One formula's verdict names: the tableau's at δ = 0, ..., delta, inf,
    the oracle's at δ = 0, ..., delta."""

    index: int
    text: str
    tableau: tuple[str, ...]
    oracle: tuple[str, ...]
    agree: bool


def _verdict_name(v) -> str:
    if isinstance(v, Sat):
        return "sat"
    if isinstance(v, Unsat):
        return "unsat"
    return f"unknown:{v.reason}"


def random_formula(
    rng: random.Random,
    spec: ArithmeticSpec,
    *,
    n_features: int = 2,
    max_agg_depth: int = 2,
    max_agg_nodes: int = 2,
    agg_kinds: tuple[str, ...] = ("sum",),
    activations: tuple[str, ...] = ACTIVATIONS,
    delta: int = 2,
    max_atoms: int = 3,
) -> Formula:
    """A small random formula; aggregation count and nesting are capped so the
    brute-force oracle stays feasible."""
    arena = Arena(spec)
    features = [f"x{i + 1}" for i in range(n_features)]
    budget = {"aggs": max_agg_nodes}

    def rand_value() -> int:
        return rng.randint(-spec.max_payload, spec.max_payload)

    def expr(depth: int, agg_depth: int) -> int:
        roll = rng.random()
        if depth <= 0 or roll < 0.25:
            if rng.random() < 0.4:
                return arena.const(rand_value())
            return arena.feature(rng.choice(features))
        if roll < 0.4:
            return arena.act(rng.choice(activations), expr(depth - 1, agg_depth))
        if roll < 0.55:
            return arena.scale(rand_value(), expr(depth - 1, agg_depth))
        if roll < 0.75 and agg_depth > 0 and budget["aggs"] > 0:
            budget["aggs"] -= 1
            kind = rng.choice(agg_kinds)
            weights = None
            if kind == "weighted":
                weights = tuple(rand_value() for _ in range(delta))
            return arena.agg(kind, expr(depth - 1, agg_depth - 1), weights)
        return arena.add(expr(depth - 1, agg_depth), expr(depth - 1, agg_depth))

    def atom() -> int:
        e = expr(rng.randint(1, 3), max_agg_depth)
        k = rand_value()
        return arena.eq(e, k) if rng.random() < 0.3 else arena.geq(e, k)

    def bool_tree(n: int) -> int:
        if n == 1:
            a = atom()
            return arena.not_(a) if rng.random() < 0.3 else a
        split = rng.randint(1, n - 1)
        left, right = bool_tree(split), bool_tree(n - split)
        return arena.and_(left, right) if rng.random() < 0.5 else arena.or_(left, right)

    return Formula(arena, bool_tree(rng.randint(1, max_atoms)))


def run_differential(
    cases: int,
    seed: int,
    spec: ArithmeticSpec,
    delta: int,
    *,
    agg_kinds: tuple[str, ...] = ("sum",),
    max_agg_depth: int = 2,
) -> list[FuzzCase]:
    """Solve each random formula on the δ ladder (module docstring).  A case
    agrees when both engines return the same decisive verdict at ``delta``,
    every decisive tableau verdict at a finite rung is the oracle's there,
    and no rung is Unsat above a Sat one."""
    check_limits(None, cases=cases, max_agg_depth=max_agg_depth, delta=delta)
    if delta is None:
        raise UsageError("the delta ladder needs a finite delta")
    for kind in agg_kinds:
        if kind not in AGG_KINDS:
            raise UsageError(f"unknown aggregation kind {kind!r}; known: {', '.join(AGG_KINDS)}")
    rng = random.Random(seed)
    results = []
    limits = SolveLimits(time_limit=TIME_LIMIT, max_terms=MAX_TERMS)
    inf_limits = SolveLimits(time_limit=TIME_LIMIT, max_terms=INF_TERMS)
    for i in range(cases):
        f = random_formula(rng, spec, max_agg_depth=max_agg_depth, agg_kinds=agg_kinds, delta=delta)
        tvs = [solve(f, DeltaMode.unary(d), limits) for d in range(delta + 1)]
        tvs.append(solve(f, DeltaMode.infinite(), inf_limits))
        ovs = [brute_force_sat(f, d, time_limit=TIME_LIMIT) for d in range(delta + 1)]
        agree = type(tvs[delta]) is type(ovs[delta]) and not isinstance(ovs[delta], Unknown)
        agree &= all(isinstance(tv, Unknown) or type(tv) is type(ov) for tv, ov in zip(tvs, ovs))
        # decisive verdicts in rung order: False (Unsat) may not follow True (Sat)
        sat = [isinstance(v, Sat) for rung in zip(tvs, [*ovs, None]) for v in rung if isinstance(v, (Sat, Unsat))]
        agree &= sat == sorted(sat)
        results.append(FuzzCase(i, to_text(f), tuple(map(_verdict_name, tvs)), tuple(map(_verdict_name, ovs)), agree))
    return results
