"""``verify_lvp``'s outcomes, pinned case by case.

GOLDEN holds, for seeded random GNN instances (``random_model`` with drawn
aggregation kinds, satint:7 and fixed:8:1, 1-3 layers, unary and binary δ)
under a tick budget, the verdict with its detail: ``Valid.by``, or the
counterexample's digest and outputs, or the ``Unknown`` reason.  The
interval pre-check, the sampler's rounds, the box split and the tableau's
search all feed these outcomes, so a change that means to keep them byte-identical
must repeat every row.  Regenerate only for a change that means to alter
them: ``PYTHONPATH=src:tests python tests/test_verify_golden.py``.
"""

import dataclasses
import hashlib
import json
import random

from gnncheck.arith import ArithmeticSpec
from gnncheck.gnn import DeltaMode, GnnLayer, LinIneq, LvpInstance
from gnncheck.graph import save_json
from gnncheck.tableau import Invalid, SolveLimits, Valid, verify_lvp

from test_compile import random_model

MAX_TICKS = 4000
SPECS = (ArithmeticSpec.satint(7), ArithmeticSpec.fixed(8, 1))
KINDS = ("sum", "mean", "max", "weighted")


def verify_cases():
    for i in range(100):
        rng = random.Random(f"golden-verify:{i}")
        spec = SPECS[i % 2]
        one = spec.one
        model = random_model(rng, spec, max_layers=3, max_dim=2)
        layers = []
        for j, layer in enumerate(model.layers):
            kind = KINDS[(i // 2 + j) % 4]
            weights = tuple(rng.randint(-2, 2) * one for _ in range(rng.randint(1, 3))) if kind == "weighted" else None
            layers.append(GnnLayer(kind, layer.comb, weights))
        model = dataclasses.replace(model, layers=tuple(layers))
        delta = DeltaMode.unary(1 + (i // 8) % 3) if (i // 4) % 2 == 0 else DeltaMode.binary(2 + (i // 8) % 4)
        yield LvpInstance(
            model,
            (LinIneq((("x1", one),), rng.randint(-2, 2) * one),),
            (LinIneq((("y1", one),), rng.randint(-2, 2) * one),),
            delta,
        )


def outcome(instance) -> tuple:
    """(verdict, Valid.by or Unknown reason or counterexample digest, outputs)."""
    v = verify_lvp(instance, SolveLimits(max_terms=MAX_TICKS))
    if isinstance(v, Valid):
        return ("valid", v.by, None)
    if isinstance(v, Invalid):
        cex = v.counterexample
        doc = json.dumps(save_json(cex.graph, cex.point), sort_keys=True)
        return ("invalid", hashlib.sha256(doc.encode()).hexdigest()[:16], [o.payload for o in v.outputs])
    return ("unknown", v.reason, None)


GOLDEN = [
    ('valid', 'bounds', None),
    ('valid', 'bounds', None),
    ('invalid', 'ac511d489b6b92fd', [0, 2]),
    ('invalid', 'b1de65655d1881fd', [1]),
    ('invalid', '09261d812e77e3d5', [-3]),
    ('valid', 'bounds', None),
    ('valid', 'bounds', None),
    ('valid', 'bounds', None),
    ('invalid', 'c063ae99852374e0', [1, 1]),
    ('invalid', 'd9facfae9cc7058d', [1, 2]),
    ('valid', 'split', None),
    ('valid', 'bounds', None),
    ('invalid', 'f82d05bba5d1f6a0', [-3]),
    ('invalid', '6c3fdbddece29450', [-5]),
    ('invalid', '4b983455c2f8610e', [-1, 2]),
    ('invalid', '4351d01265d0ca8a', [0]),
    ('invalid', '5108985dcc60bd3a', [-1]),
    ('invalid', 'd2c308f2a321e407', [0]),
    ('invalid', '071484783c3f989f', [-5]),
    ('invalid', '05d0d14aa6e75c32', [-1, -1]),
    ('valid', 'bounds', None),
    ('invalid', '5cbd4148f8e5990e', [-2]),
    ('invalid', '3b37c4fcf3b990ba', [-6, 7]),
    ('valid', 'bounds', None),
    ('invalid', '5f9721f39e67e4cc', [-2, 0]),
    ('valid', 'bounds', None),
    ('valid', 'bounds', None),
    ('valid', 'bounds', None),
    ('valid', 'bounds', None),
    ('invalid', '0c66d0d4828b0063', [-2]),
    ('invalid', '930cf264c4fe7411', [0, -7]),
    ('valid', 'bounds', None),
    ('valid', 'bounds', None),
    ('invalid', '8b71b46135416777', [-2]),
    ('invalid', '1ad3dee26ebde290', [-4]),
    ('invalid', '8b71b46135416777', [5, -1]),
    ('invalid', '21322aa39ba55b9a', [-7]),
    ('invalid', 'b4ebeb7a947e973c', [-2, 1]),
    ('valid', 'bounds', None),
    ('valid', 'bounds', None),
    ('valid', 'bounds', None),
    ('valid', 'bounds', None),
    ('valid', 'bounds', None),
    ('valid', 'bounds', None),
    ('invalid', '329f2be06effd091', [0]),
    ('valid', 'bounds', None),
    ('valid', 'bounds', None),
    ('invalid', '6f273169cfacbb47', [-1, 1]),
    ('invalid', '50d29b9c1ae83214', [-2, 3]),
    ('invalid', 'cd89ca44dd70c5a7', [-5, -7]),
    ('invalid', '1ad3dee26ebde290', [0]),
    ('invalid', 'ac750b920d7e7a12', [-2, -2]),
    ('invalid', '927caa8ae5889dc0', [-7]),
    ('valid', 'bounds', None),
    ('invalid', 'dafd8e59dbe1b6d7', [-4]),
    ('invalid', 'b12e9b84389ce2fd', [-1]),
    ('valid', 'bounds', None),
    ('invalid', 'd9facfae9cc7058d', [2, -2]),
    ('invalid', 'c0cfbcf08daa8892', [1, 1]),
    ('invalid', '6c8510bf54208ce6', [1]),
    ('invalid', '09261d812e77e3d5', [-3]),
    ('invalid', '8b71b46135416777', [2]),
    ('invalid', 'c063ae99852374e0', [-1, 0]),
    ('valid', 'bounds', None),
    ('invalid', '50d29b9c1ae83214', [-7, 5]),
    ('valid', 'bounds', None),
    ('valid', 'bounds', None),
    ('invalid', '91a70d138c83a365', [-2, 1]),
    ('invalid', 'd0b1416f240c769e', [-2]),
    ('valid', 'bounds', None),
    ('valid', 'bounds', None),
    ('valid', 'bounds', None),
    ('valid', 'bounds', None),
    ('invalid', '4b1f6a5ff221ede8', [0]),
    ('valid', 'bounds', None),
    ('invalid', '7f9542c4360b553d', [-1]),
    ('invalid', 'a41559f0139860e6', [-2]),
    ('valid', 'bounds', None),
    ('valid', 'bounds', None),
    ('valid', 'bounds', None),
    ('valid', 'bounds', None),
    ('valid', 'bounds', None),
    ('invalid', 'a99380b89478ef2b', [-5]),
    ('invalid', '69cf3d7a5c3470b4', [-1]),
    ('invalid', 'c063ae99852374e0', [-4, 4]),
    ('invalid', '8b71b46135416777', [-2]),
    ('invalid', '71dddadc8db30811', [-6, 4]),
    ('invalid', '506340aa3adc8d77', [-1]),
    ('valid', 'bounds', None),
    ('invalid', '69cf3d7a5c3470b4', [2]),
    ('invalid', 'fda243d5b727535a', [-7]),
    ('invalid', 'b097752ce81b9516', [-1, 2]),
    ('valid', 'bounds', None),
    ('invalid', '87f2e174bf72d428', [-2, 1]),
    ('invalid', '81a57f977a126f0b', [-4]),
    ('valid', 'bounds', None),
    ('invalid', '4afa9b124426d6be', [-6]),
    ('invalid', '1377bbc33f9cca0a', [0]),
    ('invalid', '50d29b9c1ae83214', [-1]),
    ('invalid', '69cf3d7a5c3470b4', [-1]),
]


def test_verify_outcomes_are_pinned():
    assert [outcome(instance) for instance in verify_cases()] == GOLDEN


if __name__ == "__main__":
    found = [outcome(instance) for instance in verify_cases()]
    print("GOLDEN = [")
    for row in found:
        print(f"    {row!r},")
    print("]")
