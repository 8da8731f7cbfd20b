"""Seeded random formula generation and tableau-vs-oracle differential runs."""

from __future__ import annotations

import random
from dataclasses import dataclass

from .arith import ArithmeticSpec
from .formula import Arena, Formula, to_text
from .gnn import DeltaMode
from .semantics import Sat, Unknown, Unsat, brute_force_sat, check_limits
from .tableau import SolveLimits, solve

# Seconds each solver gets per case, and the tableau's tick budget.
TIME_LIMIT = 20.0
MAX_TERMS = 2_000_000


@dataclass
class FuzzCase:
    index: int
    text: str
    tableau: str
    oracle: str
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
    activations: tuple[str, ...] = ("relu", "truncrelu", "id"),
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
    """Solve each random formula with the tableau and the brute-force oracle.

    A case agrees when both sides return the same decisive verdict and the
    binary-mode tableau concurs.
    """
    check_limits(None, cases=cases, max_agg_depth=max_agg_depth)
    rng = random.Random(seed)
    results = []
    limits = SolveLimits(time_limit=TIME_LIMIT, max_terms=MAX_TERMS)
    for i in range(cases):
        f = random_formula(rng, spec, max_agg_depth=max_agg_depth, agg_kinds=agg_kinds, delta=delta)
        tv = solve(f, DeltaMode.unary(delta), limits)
        ov = brute_force_sat(f, delta, time_limit=TIME_LIMIT)
        agree = type(tv) is type(ov) and not isinstance(tv, Unknown)
        if agree:
            bv = solve(f, DeltaMode.binary(delta), limits)
            agree = type(bv) is type(tv)
        results.append(FuzzCase(i, to_text(f), _verdict_name(tv), _verdict_name(ov), agree))
    return results
