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
    ('invalid', 'cdb48df7af140584', [0, 2]),
    ('invalid', 'e190c3bc2bb89559', [1]),
    ('invalid', 'b263ac919291eaf8', [0]),
    ('valid', 'bounds', None),
    ('valid', 'bounds', None),
    ('valid', 'bounds', None),
    ('invalid', 'c063ae99852374e0', [1, 1]),
    ('invalid', '69cf3d7a5c3470b4', [1, 2]),
    ('valid', 'split', None),
    ('valid', 'bounds', None),
    ('invalid', '5a6c70020f551062', [-1]),
    ('invalid', '6c3fdbddece29450', [-5]),
    ('invalid', '4b983455c2f8610e', [-1, 2]),
    ('invalid', '980696130cfbf435', [0]),
    ('invalid', '5108985dcc60bd3a', [-1]),
    ('invalid', '8b71b46135416777', [0]),
    ('invalid', '22e21b6096a6b2f6', [-4]),
    ('invalid', '6a34f11e90704b96', [-1, -1]),
    ('valid', 'bounds', None),
    ('invalid', 'fd3eb90ef44c2fc1', [-2]),
    ('invalid', '81a57f977a126f0b', [-2, 7]),
    ('valid', 'bounds', None),
    ('invalid', 'aace59ea4398611a', [-2, 0]),
    ('valid', 'bounds', None),
    ('valid', 'bounds', None),
    ('valid', 'bounds', None),
    ('valid', 'bounds', None),
    ('invalid', 'd9facfae9cc7058d', [-2]),
    ('invalid', '950a4d2c49f542e6', [0, -7]),
    ('valid', 'bounds', None),
    ('valid', 'bounds', None),
    ('invalid', 'd9facfae9cc7058d', [-2]),
    ('invalid', '4b983455c2f8610e', [-4]),
    ('invalid', '87f2e174bf72d428', [3, 1]),
    ('invalid', '54318b7893dacb0b', [1]),
    ('invalid', '69cf3d7a5c3470b4', [-2, 1]),
    ('valid', 'bounds', None),
    ('valid', 'bounds', None),
    ('valid', 'bounds', None),
    ('valid', 'bounds', None),
    ('valid', 'bounds', None),
    ('valid', 'bounds', None),
    ('invalid', 'c8888a6bbd44584e', [0]),
    ('valid', 'bounds', None),
    ('valid', 'bounds', None),
    ('invalid', '05d0d14aa6e75c32', [-1, -1]),
    ('invalid', '4b983455c2f8610e', [-5, 6]),
    ('invalid', '3ba77c0f0b9224f2', [-3, -3]),
    ('invalid', '4b983455c2f8610e', [0]),
    ('invalid', '7e92e926f1e16022', [-2, -2]),
    ('invalid', 'd1c6e3c1326651f1', [-2]),
    ('valid', 'bounds', None),
    ('invalid', 'c7aac956da704c82', [-4]),
    ('invalid', 'd9facfae9cc7058d', [-1]),
    ('valid', 'bounds', None),
    ('invalid', '033eabbf0ed02eb1', [2, -2]),
    ('invalid', '22e21b6096a6b2f6', [-4, -1]),
    ('invalid', 'f417ff90ca6c7262', [1]),
    ('invalid', 'c8888a6bbd44584e', [-5]),
    ('invalid', '8b71b46135416777', [2]),
    ('invalid', 'c063ae99852374e0', [-1, 0]),
    ('valid', 'bounds', None),
    ('invalid', 'c063ae99852374e0', [-4, 2]),
    ('valid', 'bounds', None),
    ('valid', 'bounds', None),
    ('invalid', 'b63eed29ad29b933', [-2, 1]),
    ('invalid', '9ded189be0bc0839', [-4]),
    ('valid', 'bounds', None),
    ('valid', 'bounds', None),
    ('valid', 'bounds', None),
    ('valid', 'bounds', None),
    ('invalid', 'c73035f52f4bfaab', [0]),
    ('valid', 'bounds', None),
    ('invalid', '49f0567623bfcc1f', [-1]),
    ('invalid', '873c34dc9ed53b41', [-2]),
    ('valid', 'bounds', None),
    ('valid', 'bounds', None),
    ('valid', 'bounds', None),
    ('valid', 'bounds', None),
    ('valid', 'bounds', None),
    ('invalid', '899dace79c4e2089', [-5]),
    ('invalid', 'e190c3bc2bb89559', [-1]),
    ('invalid', 'c063ae99852374e0', [-4, 4]),
    ('invalid', '8b71b46135416777', [-2]),
    ('invalid', 'b909cbe47f9a4f7a', [-6, 1]),
    ('invalid', '8b71b46135416777', [-1]),
    ('valid', 'bounds', None),
    ('invalid', '8b71b46135416777', [2]),
    ('invalid', '8f228631a9329dc4', [-7]),
    ('invalid', '0ea969da64cda224', [-1, 2]),
    ('valid', 'bounds', None),
    ('invalid', '8b71b46135416777', [-2, -1]),
    ('invalid', '02c57d09f7a85909', [-7]),
    ('valid', 'bounds', None),
    ('invalid', 'c1b294b2910fd7d5', [-6]),
    ('invalid', '3760cb748d95d7a2', [-1]),
    ('invalid', '1ad3dee26ebde290', [-1]),
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
