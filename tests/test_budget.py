"""The tick budget and deadline that every engine charges (``semantics.Budget``).

Its own rules first; then ``verify_lvp`` across budgets, where the sampler,
the box split and the tableau charge one budget in turn: a smaller budget
may only turn a verdict into ``Unknown("node-limit")``, and nothing is
charged past the limit but the one tick that finds it.
"""

import random

import pytest

from gnncheck import tableau
from gnncheck.arith import ArithmeticSpec
from gnncheck.gnn import DeltaMode
from gnncheck.semantics import Budget, LimitHit, Unknown
from gnncheck.tableau import SolveLimits, verify_lvp

from conftest import recording_budgets
from test_falsify import random_instance

FULL = 20_000
BUDGETS = (*range(0, 60, 3), 100, 300, 1_000, 3_000)


def test_charging_past_the_limit_stops_at_limit_plus_one():
    budget = Budget(10)
    budget.charge(4)
    with pytest.raises(LimitHit) as hit:
        budget.charge(7)
    assert hit.value.reason == "node-limit"
    assert budget.ticks == 11
    exact = Budget(10)
    exact.charge(10)
    assert exact.ticks == 10
    with pytest.raises(LimitHit):
        exact.charge(1)
    assert exact.ticks == 11


def test_fits_exactly_the_ticks_left():
    budget = Budget(10)
    budget.charge(4)
    assert [n for n in range(12) if budget.fits(n)] == list(range(7))
    assert Budget(0).fits(0) and not Budget(0).fits(1)


def test_an_unbounded_budget_never_raises():
    budget = Budget()
    for n in (0, 1, 10**6, 10**12):
        assert budget.fits(n)
        budget.charge(n)
    assert budget.ticks == 1 + 10**6 + 10**12
    assert not budget.expired()


def test_a_passed_deadline_expires():
    assert Budget(None, time_limit=-1).expired()
    assert Budget(5, time_limit=-1).expired()
    assert not Budget(None, time_limit=3600).expired()


def instances():
    """150 random instances over three value sets and four δ, drawn from a
    seeded generator, so the same under any hash seed."""
    specs = (ArithmeticSpec.satint(7), ArithmeticSpec.fixed(12, 1), ArithmeticSpec.satint(3))
    deltas = (DeltaMode.unary(1), DeltaMode.unary(2), DeltaMode.binary(3), DeltaMode.infinite())
    rng = random.Random(2222)
    return [random_instance(rng, specs[i % 3], deltas[i % 4]) for i in range(150)]


def charged(instance, limit):
    """verify_lvp's verdict under ``limit`` ticks, and the ticks its one
    budget was charged."""
    with recording_budgets(tableau) as made:
        verdict = verify_lvp(instance, SolveLimits(max_terms=limit))
    (budget,) = made
    return verdict, budget.ticks


def test_a_smaller_budget_only_stops_at_node_limit():
    limited = kinds = 0
    for i, instance in enumerate(instances()):
        full, _ = charged(instance, FULL)
        kinds |= 1 << ("Valid", "Invalid", "Unknown").index(type(full).__name__)
        for limit in BUDGETS:
            verdict, ticks = charged(instance, limit)
            assert ticks <= limit + 1, (i, limit)
            if verdict == Unknown("node-limit"):
                limited += 1
            else:
                assert type(verdict) is type(full), (i, limit, verdict, full)
    assert limited >= 100 and kinds & 0b11 == 0b11
