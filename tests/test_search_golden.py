"""The tableau's search, pinned tick for tick.

GOLDEN holds (outcome, ticks) for seeded random formulas and compiled random
GNN instances under a tick budget.  It was generated before the tableau's
forward and interval evaluation were made table-driven; the search must
still take exactly the same branches and records, so every outcome and tick
count must repeat.  Regenerate it only for a change that means to alter the
search: ``PYTHONPATH=src python tests/test_search_golden.py``.
"""

import random
import sys

from gnncheck.arith import ArithmeticSpec
from gnncheck.compile import compile_lvp
from gnncheck.fuzz import random_formula
from gnncheck.gnn import DeltaMode, LinIneq, LvpInstance
from gnncheck.tableau import SolveLimits, _LimitHit, _Search, _State

from test_compile import random_model

MAX_TICKS = 4000
FORMULA_SPECS = (ArithmeticSpec.satint(3), ArithmeticSpec.satint(5), ArithmeticSpec.fixed(5, 1))
GNN_SPECS = (ArithmeticSpec.satint(7), ArithmeticSpec.fixed(8, 1))


def formula_cases():
    for i in range(150):
        rng = random.Random(f"golden-formula:{i}")
        delta = 2 + (i // 3) % 2
        f = random_formula(
            rng, FORMULA_SPECS[i % 3], agg_kinds=("sum", "mean", "max", "weighted"), delta=delta
        )
        yield f, DeltaMode.unary(delta)


def gnn_cases():
    for i in range(24):
        rng = random.Random(f"golden-gnn:{i}")
        spec = GNN_SPECS[i % 2]
        model = random_model(rng, spec, max_layers=1 + (i // 2) % 3, max_dim=2 + (i // 6) % 2)
        one = spec.one
        instance = LvpInstance(
            model,
            (LinIneq((("x1", one),), 0),),
            (LinIneq((("y1", one),), rng.randint(-2, 2) * one),),
            DeltaMode.unary(2 + (i // 12)),
        )
        yield compile_lvp(instance).formula, instance.delta


def search_outcome(formula, delta, max_terms=MAX_TICKS):
    """Run the search as ``solve`` does; return how it ended and its ticks."""
    search = _Search(formula, delta, SolveLimits(max_terms=max_terms))
    root = _State()
    root.bools.append(((), formula.root, True))
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 100_000))
    try:
        outcome = "model" if search.attempt(root) is not None else "exhausted"
    except _LimitHit as hit:
        outcome = hit.reason
    finally:
        sys.setrecursionlimit(old_limit)
    return outcome, search.ticks


def outcomes(cases):
    return [search_outcome(f, delta) for f, delta in cases]


GOLDEN_FORMULAS = [
    ('exhausted', 1), ('model', 1648), ('model', 10), ('model', 6), ('model', 62),
    ('model', 22), ('model', 2), ('model', 4), ('exhausted', 3), ('model', 3),
    ('model', 10), ('model', 17), ('model', 23), ('model', 5), ('model', 43),
    ('model', 14), ('model', 4), ('node-limit', 4001), ('exhausted', 2), ('model', 22),
    ('model', 49), ('model', 3), ('exhausted', 23), ('model', 9), ('model', 10),
    ('model', 2), ('model', 16), ('model', 6), ('model', 2), ('model', 2),
    ('exhausted', 2), ('model', 4), ('model', 6), ('model', 8), ('exhausted', 410),
    ('model', 60), ('model', 1), ('model', 7), ('exhausted', 70), ('model', 3),
    ('exhausted', 2146), ('model', 4), ('exhausted', 36), ('model', 6), ('exhausted', 2),
    ('model', 22), ('model', 18), ('model', 54), ('exhausted', 35), ('model', 9),
    ('exhausted', 7), ('model', 4), ('model', 8), ('model', 12), ('model', 3),
    ('exhausted', 1), ('exhausted', 25), ('model', 1), ('model', 8), ('model', 1),
    ('model', 121), ('model', 12), ('model', 33), ('model', 6), ('exhausted', 63),
    ('model', 2), ('model', 3), ('model', 4), ('model', 71), ('model', 12),
    ('model', 2), ('model', 6), ('model', 49), ('exhausted', 1), ('exhausted', 197),
    ('model', 11), ('model', 8), ('exhausted', 139), ('model', 4), ('model', 6),
    ('model', 151), ('model', 19), ('model', 3), ('model', 3), ('model', 20),
    ('model', 47), ('model', 1), ('model', 7), ('model', 3), ('model', 3),
    ('model', 7), ('exhausted', 0), ('model', 8), ('exhausted', 1), ('model', 6),
    ('model', 1), ('model', 4), ('model', 1369), ('model', 8), ('model', 3),
    ('model', 8), ('model', 7), ('exhausted', 1), ('model', 13), ('exhausted', 3),
    ('model', 29), ('exhausted', 2), ('model', 2), ('model', 2), ('exhausted', 6),
    ('model', 3), ('model', 4), ('model', 51), ('model', 363), ('model', 8),
    ('model', 9), ('model', 2), ('model', 3), ('model', 3), ('model', 28),
    ('model', 7), ('model', 2), ('model', 4), ('exhausted', 3), ('exhausted', 0),
    ('model', 6), ('model', 7), ('model', 5), ('model', 3), ('model', 6),
    ('exhausted', 2), ('model', 5), ('model', 11), ('model', 4), ('model', 6),
    ('exhausted', 563), ('model', 12), ('model', 8), ('model', 2), ('model', 24),
    ('model', 5), ('model', 3), ('model', 3), ('exhausted', 1), ('exhausted', 0),
    ('exhausted', 2), ('exhausted', 3), ('model', 4), ('model', 10), ('model', 3),
]

GOLDEN_GNNS = [
    ('model', 1168), ('model', 562), ('exhausted', 1), ('node-limit', 4001), ('exhausted', 2),
    ('model', 38), ('model', 1524), ('model', 554), ('node-limit', 4001), ('exhausted', 6),
    ('model', 166), ('model', 72), ('model', 33), ('model', 193), ('model', 109),
    ('exhausted', 2), ('model', 52), ('model', 2573), ('model', 41), ('model', 97),
    ('model', 113), ('exhausted', 3), ('model', 47), ('exhausted', 2),
]


def test_formula_searches_repeat_tick_for_tick():
    assert outcomes(formula_cases()) == GOLDEN_FORMULAS


def test_gnn_searches_repeat_tick_for_tick():
    assert outcomes(gnn_cases()) == GOLDEN_GNNS


if __name__ == "__main__":
    for name, cases in (("GOLDEN_FORMULAS", formula_cases()), ("GOLDEN_GNNS", gnn_cases())):
        found = outcomes(cases)
        print(f"{name} = [")
        for start in range(0, len(found), 5):
            print("    " + " ".join(f"{item!r}," for item in found[start:start + 5]))
        print("]\n")
