"""The oracle's byte-lane columns against its list columns, at the boundary.

Value sets of payloads up to ``semantics.LANE_PAYLOAD`` (63) keep the
oracle's columns as bytes; wider ones keep lists.  On the last value sets of
each kind with byte lanes (satint:63, fixed:7:1) and the first without
(satint:64, fixed:8:1), every run must repeat with the list path forced by
setting LANE_PAYLOAD to 0: the verdict, the steps, every batch charged and
the witness.
"""

import itertools
import random

import pytest

from gnncheck import semantics
from gnncheck.arith import ArithmeticSpec
from gnncheck.formula import parse
from gnncheck.fuzz import random_formula
from gnncheck.semantics import Budget

from test_oracle_golden import KINDS, oracle_run

SPECS = ("satint:63", "fixed:7:1", "satint:64", "fixed:8:1")
STEPS = 300_000


def both_paths(f, delta, max_steps):
    """oracle_run of f on the path its value set takes, then on lists."""
    first = oracle_run(f, delta, max_steps)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(semantics, "LANE_PAYLOAD", 0)
        return first, oracle_run(f, delta, max_steps)


@pytest.mark.parametrize("arith", SPECS)
def test_the_path_turns_at_63(arith):
    spec = ArithmeticSpec.parse(arith)
    search = semantics._TreeSearch(parse("x1 >= 0", spec), 1, Budget())
    assert search.lanes == (spec.max_payload == 63)


@pytest.mark.parametrize("arith", SPECS)
def test_random_formulas_repeat_on_lists(arith):
    spec = ArithmeticSpec.parse(arith)
    rng = random.Random(f"oracle-lanes:{arith}")
    names = set()
    for i in range(80):
        delta = 2 + i % 2
        f = random_formula(rng, spec, n_features=1 + i % 3, agg_kinds=KINDS, delta=delta)
        on_path, on_lists = both_paths(f, delta, STEPS)
        assert on_path == on_lists, i
        names.add(on_path[0])
    assert {"sat", "unsat"} <= names


def saturating_formulas(spec):
    """Column sums that reach ±M, so that two lanes add to 252 and to 0, and
    sums over x1 and x3 spread against x2, the feature between them."""
    m = spec.format_payload(spec.max_payload)
    return [
        (f"x1 + x2 >= {m}", 1),
        (f"x1 + x2 = -{m} and x2 = -{m}", 1),
        (f"not x1 + 2*x2 < {m} and relu(x1 + -1*x2) = 0", 1),
        (f"agg(x1 + x2) >= {m} and x1 + x2 = -{m}", 2),
        (f"maxagg(x1 + x2) = {m} and agg(x2) = -{m}", 2),
        (f"x1 + x3 + -1*x2 = {m}", 1),
        (f"x2 = -{m} or x1 + x3 >= {m}", 1),
    ]


@pytest.mark.parametrize("arith", SPECS[:2])
def test_saturated_sums_and_middle_spreads_repeat_on_lists(arith):
    spec = ArithmeticSpec.parse(arith)
    names = []
    for text, delta in saturating_formulas(spec):
        on_lanes, on_lists = both_paths(parse(text, spec), delta, semantics.ORACLE_STEPS)
        assert on_lanes == on_lists, text
        names.append(on_lanes[0])
    assert names == ["sat"] * 4 + ["unknown:node-limit"] + ["sat"] * 2


def test_byte_spread_is_the_index_gather(monkeypatch):
    # distinct entries, so any entry out of place shows
    monkeypatch.setattr(semantics, "LANE_PAYLOAD", 0)
    spec = ArithmeticSpec.satint(2)
    n = spec.n_values
    search = semantics._TreeSearch(parse("x1 + x2 + x3 >= 0", spec), 1, Budget())
    for k in (1, 2, 3):
        for union in itertools.combinations(range(3), k):
            for r in range(1, k + 1):
                for support in itertools.combinations(union, r):
                    x = bytes(range(n**r))
                    gathered = bytes(search._spread(list(x), support, union))
                    assert semantics._spread_lanes(x, support, union, n) == gathered, (support, union)


@pytest.mark.parametrize("arith", SPECS[2:])
def test_list_sums_read_one_add_table(arith):
    # a scalar plus a list column, and a sum's fold step over profile payloads,
    # shift the list and read the ("add_p", 0) table: no table per addend
    spec = ArithmeticSpec.parse(arith)
    before = set(spec._tables)
    f = parse(f"mean(agg(x1) + x1) = {spec.format_payload(7)} and agg(x1 + 3) >= 0", spec)
    semantics.brute_force_sat(f, 2, max_steps=50_000)
    added = set(spec._tables) - before
    assert not [key for key in added if key[0] == "add_p" and key[1] != 0], sorted(added)


@pytest.mark.parametrize("arith", SPECS[2:])
def test_formula_columns_are_bytes_past_the_lanes(arith, monkeypatch):
    # past LANE_PAYLOAD expression columns are lists, but every formula
    # column is bytes of 0 or 1 with one entry per assignment of its support
    spec = ArithmeticSpec.parse(arith)
    formula_value = semantics._TreeSearch._formula_value
    seen = set()

    def checked(search, fid, node, fv, fs, ev):
        x = formula_value(search, fid, node, fv, fs, ev)
        if not isinstance(x, int):
            assert type(x) is bytes and set(x) <= {0, 1}, node
            assert len(x) == spec.n_values ** len(fs[fid]), node
            seen.add(node[0])
        return x

    monkeypatch.setattr(semantics._TreeSearch, "_formula_value", checked)
    one = spec.format_payload(spec.one)
    texts = [
        f"not x1 >= {one} and (x2 = 0 or x1 + x2 >= 0)",
        f"agg(x1) >= {one} or not (x2 >= 0 and x1 = 0)",
    ]
    for text in texts:
        assert not isinstance(semantics.brute_force_sat(parse(text, spec), 2, max_steps=STEPS), semantics.Unknown)
    rng = random.Random(f"oracle-bytes:{arith}")
    for i in range(20):
        f = random_formula(rng, spec, n_features=1 + i % 2, agg_kinds=KINDS, delta=2)
        semantics.brute_force_sat(f, 2, max_steps=STEPS)
    assert seen == {"geq", "eq", "not", "and", "or"}
