"""Print one sha256 per workload over the cases of its seeds: ``lvp-grid``
and ``fuzz-oracle`` on seeds 0-15, ``sum-chain`` on seeds 0-3.

Run from the root of a checkout:

    python3 tools/case_digest.py
    python3 tools/case_digest.py --against ../other-checkout

With ``--against PATH`` it also runs ``PATH/tools/case_digest.py`` in a
child process while it computes its own digests, prints that checkout's
lines after its own, and exits 1 when a line differs.

The cases are those ``lvpbench/workloads.py`` generates for a 20-second run
of ``lvpbench/run.py``, decided under the same limits.  Per ``lvp-grid`` case
the digest covers the verdict, ``Valid.by``, the ``Unknown`` reason, the
ticks the budget was charged, and the counterexample's graph JSON with its
outputs.  Per ``fuzz-oracle`` case it covers the tableau's and the oracle's
verdicts, the tableau's ticks, the oracle's steps and both models' graph
JSON.  Per ``sum-chain`` case it covers the verdict, the ``Unknown`` reason,
the ticks and the model's graph JSON.  Two checkouts that print the same
digests decide every case alike, with the same models, at the same cost in
ticks and steps.  It uses the standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import subprocess
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "lvpbench")]

from workloads import SAFETY_S, SAT7, WORKLOADS  # noqa: E402

SECONDS = 20  # the benchmark's run length; it sets the number of cases per seed
MODULES = ("arith", "formula", "graph", "semantics", "gnn", "compile", "tableau", "fuzz")


def import_program() -> types.SimpleNamespace:
    """The program's modules, with every budget they make recorded in order."""
    p = types.SimpleNamespace(**{name: importlib.import_module(f"gnncheck.{name}") for name in MODULES})
    p.budgets = []

    class RecordedBudget(p.semantics.Budget):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            p.budgets.append(self)

    p.semantics.Budget = p.tableau.Budget = RecordedBudget
    return p


def verdict(v) -> list:
    """The verdict's class with its reason or phase, if any."""
    return [type(v).__name__, getattr(v, "reason", None), getattr(v, "by", None)]


def graph_json(p, pointed) -> dict:
    return p.graph.save_json(pointed.graph, pointed.point)


def lvp_grid_case(p, w, case) -> list:
    inst = p.gnn.lvp_from_json(json.loads(case.text))
    v = p.tableau.verify_lvp(inst, p.tableau.SolveLimits(time_limit=SAFETY_S, max_terms=w.max_terms))
    record = [verdict(v), p.budgets[-1].ticks]
    if isinstance(v, p.tableau.Invalid):
        record += [graph_json(p, v.counterexample), [o.payload for o in v.outputs]]
    return record


def fuzz_oracle_case(p, w, case) -> list:
    spec = p.arith.ArithmeticSpec.parse(case.meta["arith"])
    delta = case.meta["delta"]
    f = p.formula.parse(case.text, spec)
    limits = p.tableau.SolveLimits(time_limit=SAFETY_S, max_terms=w.max_terms)
    record = []
    for solve in (
        lambda: p.tableau.solve(f, p.gnn.DeltaMode.unary(delta), limits),
        lambda: p.semantics.brute_force_sat(f, delta, max_steps=w.oracle_steps, time_limit=SAFETY_S),
    ):
        v = solve()
        record += [verdict(v), p.budgets[-1].ticks]
        if isinstance(v, p.semantics.Sat):
            record.append(graph_json(p, v.model))
    return record


def sum_chain_case(p, w, case) -> list:
    f = p.formula.parse(case.text, p.arith.ArithmeticSpec.satint(SAT7))
    limits = p.tableau.SolveLimits(time_limit=SAFETY_S, max_terms=w.max_terms)
    v = p.tableau.solve(f, p.gnn.DeltaMode.unary(1), limits)
    record = [verdict(v), p.budgets[-1].ticks]
    if isinstance(v, p.semantics.Sat):
        record.append(graph_json(p, v.model))
    return record


# each workload with its case digest and its seeds; sum-chain, whose cases
# take longer, on fewer
DIGESTS = (
    ("lvp-grid", lvp_grid_case, range(0, 16)),
    ("fuzz-oracle", fuzz_oracle_case, range(0, 16)),
    ("sum-chain", sum_chain_case, range(0, 4)),
)


def main() -> int:
    parser = argparse.ArgumentParser(description="Print one sha256 per workload.")
    parser.add_argument("--against", metavar="PATH", help="another checkout whose digests must be the same")
    args = parser.parse_args()
    other = None
    if args.against is not None:
        script = Path(args.against) / "tools" / "case_digest.py"
        if not script.is_file():
            parser.error(f"{script} does not exist")
        other = subprocess.Popen([sys.executable, str(script)], stdout=subprocess.PIPE, text=True)
    p = import_program()
    lines = []
    for name, decide, seeds in DIGESTS:
        w = WORKLOADS[name]
        digest, n = hashlib.sha256(), max(100, round(w.per_second * SECONDS))
        for seed in seeds:
            for i in range(n):
                case = w.make_case(p, seed, i)
                digest.update(json.dumps([seed, i, decide(p, w, case)], sort_keys=True).encode() + b"\n")
        lines.append(f"{name} {digest.hexdigest()} ({len(seeds)} seeds x {n} cases)")
        print(lines[-1], flush=True)
    if other is None:
        return 0
    theirs = other.communicate()[0].splitlines()
    print(f"against {args.against}:")
    print(*theirs, sep="\n")
    same = other.returncode == 0 and theirs == lines
    print("same digests" if same else "digests differ")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
