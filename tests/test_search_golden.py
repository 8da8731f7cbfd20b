"""The tableau's search, pinned tick for tick.

GOLDEN holds (outcome, ticks) for seeded random formulas and compiled random
GNN instances under a tick budget.  It was generated before the tableau's
forward and interval evaluation were made table-driven; the search must
still take exactly the same branches and records, so every outcome and tick
count must repeat.  The MODELS dicts hold, for each case that ends in a
model, a digest of the extracted graph and of the final store by node (node
names and order, edges, labels, stored values in order); they were
generated before words became interned offsets in the tableau's store, when
the model carried that store as its trace.

GOLDEN_FORMULAS' tick column was regenerated once, when the candidate
streams were cut to the structural ranges (aggregations through
``agg_hull``): that drops only candidates no model can realise, so eleven
searches fell in ticks, case 17 went from node-limit to exhausted, and no
search gained a tick.  GOLDEN_GNNS, the MODELS dicts and WIDE_GOLDEN did not
move.  GOLDEN_FORMULAS, MODELS_FORMULAS and WIDE_GOLDEN were regenerated
again when the search began to choose the arity of a word on which an open
atom's evaluation stops before it guesses any atom's value: only the order of
the choice points changed, so 41 formula searches moved, none changed its
outcome, and their ticks fell from 5 323 to 3 713 in total.  The compiled
GNN formulas keep their aggregations in equalities that saturation assigns,
so GOLDEN_GNNS and MODELS_GNNS did not move.  GOLDEN_FORMULAS and
MODELS_FORMULAS were regenerated a third time when saturation began to clash
an atom its expression's structural range cannot meet and to solve a sum of
an expression with itself as the scale by 2: 23 formula searches fell in
ticks (3 713 to 3 444 in total), none gained one or changed its outcome, and
only case 19's model, of a formula with ``x1 + x1``, moved.  GOLDEN_GNNS,
MODELS_GNNS and WIDE_GOLDEN did not move.  GOLDEN_FORMULAS was regenerated
a fourth time when every (word, expression) pair began at its structural
range, in saturation as in the candidate streams, and ``ground`` began to
enumerate only the feature's range: 18 formula searches fell in ticks
(3 444 to 3 246 in total), none gained one or changed its outcome, and no
model moved.  GOLDEN_FORMULAS, GOLDEN_GNNS and both MODELS dicts were
regenerated a fifth time when one backward rule took over every act, scale,
self-sum and sum obligation: saturation now assigns a sum operand whose
window is one value also when both operands are unknown, and a stuck sum is
inverted by enumerating its first unknown operand's window, not (left,
right) pairs.  Formula cases 2 and 45 and GNN cases 13, 20 and 22 fell in
ticks (3 246 to 3 241 and 15 360 to 15 357 in total), none gained one or
changed its outcome, and the models of formula cases 2 and 45 and GNN cases
13 and 22 moved.  WIDE_GOLDEN did not move.  GOLDEN_GNNS and MODELS_GNNS
were regenerated a sixth time when the compiler began to write L_out over
the network's output expressions, without output features tied to them by
``e + -1*y = 0``: the GNN formulas changed, so their searches did.  No
outcome was lost: case 3 went from node-limit to a model, the others kept
theirs, and the ticks fell from 15 357 to 14 296 in total; case 13 rose
from 192 to 949 ticks and case 15 from 2 to 3 584, an exhaustion the tie's
equality had settled by saturation.  Regenerate them only for a
change that means to alter the search or the models:
``PYTHONPATH=src python tests/test_search_golden.py``.
"""

import hashlib
import json
import random

import pytest

from gnncheck.arith import ArithmeticSpec
from gnncheck.compile import compile_lvp
from gnncheck.formula import parse
from gnncheck.fuzz import random_formula
from gnncheck.gnn import DeltaMode, LinIneq, LvpInstance
from gnncheck.semantics import Budget, LimitHit
from gnncheck.tableau import _Search, solve

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


# a model with more than nine successors at depth 2: v1.10 sorts after v1.9
WIDE_FORMULA = "maxagg(agg(1)) >= 11 and maxagg(maxagg(x1)) >= 3 and agg(x2) = 2"
WIDE_SPEC, WIDE_DELTA = ArithmeticSpec.satint(15), DeltaMode.unary(12)


def word_names(search) -> dict[int, str]:
    """The node name of every word the search has reached, by offset: its
    path from the root (v, v1, v1.2), walked through the successor table."""
    names, queue = {0: "v"}, [0]
    for word in queue:  # grows while it is walked, breadth first
        prefix = names[word] + "." if word else "v"
        for i, succ in enumerate(search.succs[word // search.stride], start=1):
            names[succ] = f"{prefix}{i}"
            queue.append(succ)
    return names


def model_digest(search, final) -> str:
    """sha256 prefix of the JSON of the extracted model, in extraction order,
    and of the final store by node: per word, in the order the store first
    holds a value there, the node its path names and its values by
    expression, in the order the store holds them."""
    graph = search.extract_model(final).graph
    names = word_names(search)
    trace: dict[str, dict[int, int]] = {}
    for key, payload in final.values.items():
        trace.setdefault(names[key - key % search.stride], {})[key % search.stride] = payload
    doc = [list(graph.nodes), [list(edge) for edge in graph.edges], graph.labels, trace]
    return hashlib.sha256(json.dumps(doc, separators=(",", ":")).encode()).hexdigest()[:16]


def search_outcome(formula, delta, max_terms=MAX_TICKS):
    """Run the search as ``solve`` does; return how it ended, its ticks and
    the digest of its model (None when it found none)."""
    budget = Budget(max_terms)
    search = _Search(formula, delta.value, budget)
    try:
        final = search.attempt(search.root_state())
        outcome = "model" if final is not None else "exhausted"
    except LimitHit as hit:
        final, outcome = None, hit.reason
    return outcome, budget.ticks, None if final is None else model_digest(search, final)


def outcomes(cases):
    return [search_outcome(f, delta) for f, delta in cases]


def digests(runs) -> dict[int, str]:
    return {i: digest for i, (_, _, digest) in enumerate(runs) if digest is not None}


GOLDEN_FORMULAS = [
    ('exhausted', 0), ('model', 5), ('model', 6), ('model', 6), ('model', 5),
    ('model', 7), ('model', 2), ('model', 4), ('exhausted', 0), ('model', 3),
    ('model', 10), ('model', 17), ('model', 23), ('model', 5), ('model', 14),
    ('model', 4), ('model', 4), ('exhausted', 0), ('exhausted', 0), ('model', 15),
    ('model', 3), ('model', 3), ('exhausted', 2), ('model', 9), ('model', 2),
    ('model', 2), ('model', 10), ('model', 5), ('model', 2), ('model', 2),
    ('exhausted', 0), ('model', 4), ('model', 6), ('model', 4), ('exhausted', 0),
    ('model', 9), ('model', 1), ('model', 3), ('exhausted', 0), ('model', 3),
    ('exhausted', 2146), ('model', 4), ('exhausted', 36), ('model', 7), ('exhausted', 0),
    ('model', 16), ('model', 18), ('model', 55), ('exhausted', 35), ('model', 9),
    ('exhausted', 2), ('model', 4), ('model', 9), ('model', 13), ('model', 3),
    ('exhausted', 0), ('exhausted', 0), ('model', 1), ('model', 8), ('model', 1),
    ('model', 3), ('model', 12), ('model', 8), ('model', 6), ('exhausted', 2),
    ('model', 2), ('model', 3), ('model', 4), ('model', 71), ('model', 4),
    ('model', 2), ('model', 2), ('model', 56), ('exhausted', 0), ('exhausted', 10),
    ('model', 7), ('model', 9), ('exhausted', 0), ('model', 4), ('model', 6),
    ('model', 4), ('model', 22), ('model', 3), ('model', 3), ('model', 10),
    ('model', 48), ('model', 1), ('model', 7), ('model', 3), ('model', 3),
    ('model', 8), ('exhausted', 0), ('model', 4), ('exhausted', 0), ('model', 6),
    ('model', 1), ('model', 3), ('model', 8), ('model', 8), ('model', 3),
    ('model', 8), ('model', 7), ('exhausted', 0), ('model', 13), ('exhausted', 0),
    ('model', 29), ('exhausted', 0), ('model', 2), ('model', 2), ('exhausted', 2),
    ('model', 3), ('model', 4), ('model', 53), ('model', 2), ('model', 8),
    ('model', 8), ('model', 2), ('model', 3), ('model', 3), ('model', 28),
    ('model', 7), ('model', 2), ('model', 4), ('exhausted', 0), ('exhausted', 0),
    ('model', 6), ('model', 7), ('model', 5), ('model', 3), ('model', 4),
    ('exhausted', 0), ('model', 5), ('model', 12), ('model', 4), ('model', 6),
    ('exhausted', 0), ('model', 13), ('model', 5), ('model', 2), ('model', 27),
    ('model', 5), ('model', 3), ('model', 3), ('exhausted', 0), ('exhausted', 0),
    ('exhausted', 0), ('exhausted', 0), ('model', 4), ('model', 11), ('model', 3),
]

GOLDEN_GNNS = [
    ('model', 1165), ('model', 290), ('exhausted', 0), ('model', 1186), ('exhausted', 0),
    ('model', 3), ('model', 907), ('model', 487), ('node-limit', 4001), ('exhausted', 0),
    ('model', 157), ('model', 3), ('model', 17), ('model', 949), ('model', 109),
    ('exhausted', 3584), ('model', 39), ('model', 1192), ('model', 28), ('model', 31),
    ('model', 109), ('exhausted', 0), ('model', 39), ('exhausted', 0),
]


MODELS_FORMULAS = {
    1: '199d64c50dc5442f', 2: 'fadd2cdff7dfc934', 3: '30f4c20dd06439f1', 4: '0110d11cc3685458',
    5: '8686de92df98d593', 6: '1e99e100042750c7', 7: '6e1100fc4421f765', 9: '83dd6d862d05dacf',
    10: '5f56eb819859233d', 11: '35cce0796f2f334c', 12: '12d9855e53995de3', 13: '710f6c4f9b1aa026',
    14: 'c17b6a19a19a1df6', 15: '28a72b301f100044', 16: '1d1e5b498f753344', 19: '05e41637b2d26721',
    20: 'a9946856b9b2dc4f', 21: 'd111053003dab69a', 23: '6aae08d26e5f6154', 24: '712900611303ffdc',
    25: 'de93d7e1e59bef5e', 26: 'e808809de9c31f4b', 27: '173c5bcd3b7da073', 28: 'b3284ef56c763987',
    29: 'e50511c84adbbc65', 31: '59d4c2d67218c3da', 32: '6fba2d7e642120f5', 33: 'fac1de05a60a133f',
    35: '4dda28dfc19b2aa3', 36: '274fc46ad5d229f9', 37: 'fac1de05a60a133f', 39: '27f742ddf3482bfb',
    41: '7a597fabe6581bd4', 43: 'f9f4cb13fbbecfd2', 45: '98516fd334003498', 46: '77f1498720b8c017',
    47: '81a25fa00b5b4215', 49: '47806179eda75cdb', 51: '72c2ab8dc9becfd1', 52: 'afb6e17c188a06a7',
    53: '2a0530ddc988c111', 54: 'eaf085b938a01204', 57: '712900611303ffdc', 58: '79f1baf4a0157a55',
    59: '12bd2174d7fa7fdf', 60: '712900611303ffdc', 61: 'f3725192123d8622', 62: 'f6f2af4e7624b832',
    63: '916816cb65591643', 65: '5efd7a54a1b2e326', 66: '036c1c4a84f805ca', 67: '7dfe1c8fd3abcb49',
    68: 'd2cac57fa27efbef', 69: 'bf44a423b72f6678', 70: '095c938debb573b2', 71: 'a9946856b9b2dc4f',
    72: '307dc5619afc32c1', 75: 'c1cbaaf0670edd18', 76: '36d371f8ceadab3a', 78: '2cd5732220c1e8d8',
    79: 'f9b4a5be465cf169', 80: '264848a3f33fba6f', 81: '850046a1966a9cee', 82: 'febb077a7dab87a5',
    83: 'eceae2cd9e8b92dd', 84: '2dd0ae8596e818fb', 85: '224a242eb4d121f9', 86: '4016b7edf5f25405',
    87: '22e08d234d79536f', 88: '0d3a497323f7d427', 89: '7d8c0b90192717f8', 90: 'a6434250695efec9',
    92: 'b0e2e3e2eb5b10d8', 94: '4785e1a533ce76a6', 95: '898879ed322d1871', 96: '09b7e7d892435639',
    97: '6d3f990e8692c94e', 98: 'ca30520c5c6acf14', 99: 'a3df6e01814c6348', 100: 'd5c053d5fb709afb',
    101: 'e193b324bef45f8a', 103: 'be2d3b511eaabcc4', 105: '73ebd4ebd72bda13', 107: '83201fba8478c2de',
    108: '57591b6c467a0f4a', 110: '407db940297e6801', 111: '1a94e3b1b7d003da', 112: '50cede92d2918b9a',
    113: '7d768d8c99f70f61', 114: 'b22ffcaa86b8ebfb', 115: 'e32a67e4d1e543a9', 116: '8360cfd852583040',
    117: '8b2e00e5e7acf35b', 118: 'a138f710aa3dbb7f', 119: '4f305eb2a3c2feae', 120: '88136eaecfc48243',
    121: '93bff87aa02b07d1', 122: '90e6973667642cf2', 125: '3d9f2f77e98e6e11', 126: 'ddcd3761eb837609',
    127: '87fe552aba78f89e', 128: '577fb28a5b29e9f5', 129: '355cf7c33e3cd3d4', 131: 'f11c83048e83b6ce',
    132: 'f3b388b8c32d370b', 133: 'b69a020505cefbdd', 134: 'bca6684b24f33a51', 136: '9b26b30996f1a64f',
    137: 'b783b3869c4b70c2', 138: 'e2760b06ff779d69', 139: '635defc9db4ed275', 140: 'b4d60df8b6480795',
    141: 'a3df6e01814c6348', 142: '7d8c0b90192717f8', 147: 'fae561473f0f0504', 148: 'ba238daa2e86156c',
    149: '59215a5a7c85989c',
}

MODELS_GNNS = {
    0: '2225d84147c69edb', 1: '585b2837c63d74df', 3: '6aaedc55e4caf781', 5: '6c511bef84e9db73',
    6: 'e25240e987717e81', 7: '8da3753d7bbb39f7', 10: '537b3cada4f3a41b', 11: 'c1e954c62b50d7d9',
    12: 'baa966d47e0a1c40', 13: 'c54d7be4985bf108', 14: '811bdb68f66c6d07', 16: '7bff1d89b399f7eb',
    17: '82a879f703524cda', 18: '79c05a00585af302', 19: '741025069825ab21', 20: '66e399241019531a',
    22: 'c48a930f14e183d3',
}

WIDE_GOLDEN = ('model', 134, '343a1ce3e645b8e5')


@pytest.fixture(scope="module")
def formula_runs():
    return outcomes(formula_cases())


@pytest.fixture(scope="module")
def gnn_runs():
    return outcomes(gnn_cases())


def test_formula_searches_repeat_tick_for_tick(formula_runs):
    assert [run[:2] for run in formula_runs] == GOLDEN_FORMULAS


def test_gnn_searches_repeat_tick_for_tick(gnn_runs):
    assert [run[:2] for run in gnn_runs] == GOLDEN_GNNS


def test_formula_models_repeat(formula_runs):
    assert digests(formula_runs) == MODELS_FORMULAS


def test_gnn_models_repeat(gnn_runs):
    assert digests(gnn_runs) == MODELS_GNNS


def test_wide_model_repeats():
    assert search_outcome(parse(WIDE_FORMULA, WIDE_SPEC), WIDE_DELTA) == WIDE_GOLDEN
    verdict = solve(parse(WIDE_FORMULA, WIDE_SPEC), WIDE_DELTA)
    assert verdict.model.graph.nodes[-3:] == ("v1.9", "v1.10", "v1.11")


if __name__ == "__main__":
    for name, cases in (("FORMULAS", formula_cases()), ("GNNS", gnn_cases())):
        found = outcomes(cases)
        print(f"GOLDEN_{name} = [")
        for start in range(0, len(found), 5):
            print("    " + " ".join(f"{item[:2]!r}," for item in found[start:start + 5]))
        print("]\n")
        items = list(digests(found).items())
        print(f"MODELS_{name} = {{")
        for start in range(0, len(items), 4):
            print("    " + " ".join(f"{i}: {d!r}," for i, d in items[start:start + 4]))
        print("}\n")
    print(f"WIDE_GOLDEN = {search_outcome(parse(WIDE_FORMULA, WIDE_SPEC), WIDE_DELTA)!r}")
