"""Print one sha256 per workload over the cases of its seeds: ``lvp-grid``
and ``fuzz-oracle`` on seeds 0-15, ``sum-chain`` on seeds 0-3.  Each line
also gives the ticks the tableau (``verify_lvp`` on ``lvp-grid``) was
charged, summed over the cases, and how many of its verdicts are decisive,
not ``Unknown``.

Run from the root of a checkout:

    python3 tools/case_digest.py
    python3 tools/case_digest.py --against ../other-checkout

With ``--against PATH`` it also digests the checkout at PATH, by the same
rules, in a child process while it computes its own digests.  It prints that
checkout's lines after its own, then one line per case whose tableau verdict
(``verify_lvp``'s on ``lvp-grid``) differs, as ``workload seed:index theirs
→ ours``, then, for each workload whose digests differ, one line per seed
whose count of decisive verdicts differs, as ``workload seed N: theirs →
ours``, and one line that says how its records moved where the verdict did
not, as ``workload: N records moved with no verdict move: ticks only K
(verdict k, …), models M``: K of them in their ticks alone, M in the rest of
the record.  Each of the K follows, as ``workload seed:index ticks theirs →
ours (verdict)``, at most 20 per workload, then ``… N more``.  It exits 1
when a digest differs.

The cases are those ``lvpbench/workloads.py`` generates for a 20-second run
of ``lvpbench/run.py``, decided under the same limits.  Per ``lvp-grid`` case
the digest covers the verdict, ``Valid.by``, the ``Unknown`` reason, the
ticks the budget was charged, and the counterexample's graph JSON with its
outputs.  Per ``fuzz-oracle`` case it covers the tableau's and the oracle's
verdicts, the tableau's ticks, the oracle's steps, both models' graph JSON,
and the arena the parser built from the case's text: its expression and
formula nodes in id order (``_exprs`` and ``_formulas``) and the root, so a
parser that numbers nodes otherwise changes the digest.  Per ``sum-chain``
case it covers the verdict, the ``Unknown`` reason, the ticks and the
model's graph JSON.  Two checkouts that print the same
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
SECONDS = 20  # the benchmark's run length; it sets the number of cases per seed
MODULES = ("arith", "formula", "graph", "semantics", "gnn", "compile", "tableau", "fuzz")


def import_program(root: Path) -> types.SimpleNamespace:
    """The modules of the program in the checkout at root, and its
    workloads as ``wl``, with every budget the program makes recorded in
    order."""
    sys.path[:0] = [str(root / "src"), str(root / "lvpbench")]
    p = types.SimpleNamespace(**{name: importlib.import_module(f"gnncheck.{name}") for name in MODULES})
    p.wl = importlib.import_module("workloads")
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
    v = p.tableau.verify_lvp(inst, p.tableau.SolveLimits(time_limit=p.wl.SAFETY_S, max_terms=w.max_terms))
    record = [verdict(v), p.budgets[-1].ticks]
    if isinstance(v, p.tableau.Invalid):
        record += [graph_json(p, v.counterexample), [o.payload for o in v.outputs]]
    return record


def fuzz_oracle_case(p, w, case) -> list:
    spec = p.arith.ArithmeticSpec.parse(case.meta["arith"])
    delta = case.meta["delta"]
    f = p.formula.parse(case.text, spec)
    parsed = [f.arena._exprs[:], f.arena._formulas[:], f.root]  # before solving adds nodes
    limits = p.tableau.SolveLimits(time_limit=p.wl.SAFETY_S, max_terms=w.max_terms)
    record = []
    for solve in (
        lambda: p.tableau.solve(f, p.gnn.DeltaMode.unary(delta), limits),
        lambda: p.semantics.brute_force_sat(f, delta, max_steps=w.oracle_steps, time_limit=p.wl.SAFETY_S),
    ):
        v = solve()
        record += [verdict(v), p.budgets[-1].ticks]
        if isinstance(v, p.semantics.Sat):
            record.append(graph_json(p, v.model))
    return record + parsed


def sum_chain_case(p, w, case) -> list:
    f = p.formula.parse(case.text, p.arith.ArithmeticSpec.satint(p.wl.SAT7))
    limits = p.tableau.SolveLimits(time_limit=p.wl.SAFETY_S, max_terms=w.max_terms)
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


def digests(root: Path, show: bool) -> tuple[list[str], dict[str, list]]:
    """The digest lines of the checkout at root, printed as they are made
    when show is set, and the outcome of each case by "workload
    seed:index": ``[verdict, ticks, rest]``, where the verdict is the first
    of its record, the tableau's or ``verify_lvp``'s, the ticks are those
    its budget was charged, and rest is a sha256 of the record without
    them."""
    p = import_program(root)
    lines, outcomes = [], {}
    for name, decide, seeds in DIGESTS:
        w = p.wl.WORKLOADS[name]
        digest, n = hashlib.sha256(), max(100, round(w.per_second * SECONDS))
        ticks = decisive = 0
        for seed in seeds:
            for i in range(n):
                record = decide(p, w, w.make_case(p, seed, i))
                digest.update(json.dumps([seed, i, record], sort_keys=True).encode() + b"\n")
                kind, reason, by = record[0]
                ticks += record[1]
                decisive += kind != "Unknown"
                detail = reason or by
                rest = hashlib.sha256(json.dumps(record[:1] + record[2:], sort_keys=True).encode()).hexdigest()
                verdict = kind if detail is None else f"{kind}({detail})"
                outcomes[f"{name} {seed}:{i}"] = [verdict, record[1], rest]
        lines.append(
            f"{name} {digest.hexdigest()} ({len(seeds)} seeds x {n} cases): {ticks} ticks, {decisive} decisive"
        )
        if show:
            print(lines[-1], flush=True)
    return lines, outcomes


def decisive_by_seed(outcomes: dict[str, list], name: str) -> dict[int, int]:
    """The number of decisive verdicts of the named workload, per seed."""
    counts: dict[int, int] = {}
    for case, (kind, _, _) in outcomes.items():
        workload, _, at = case.partition(" ")
        if workload == name:
            seed = int(at.partition(":")[0])
            counts[seed] = counts.get(seed, 0) + (not kind.startswith("Unknown"))
    return counts


def moved_records(name: str, ours: dict[str, list], theirs: dict[str, list]) -> str:
    """How the named workload's records moved where their verdicts did not:
    how many moved, how many of those in their ticks alone, by verdict (the
    most first), and how many in the rest of the record (its models and
    outputs, and on ``fuzz-oracle`` the oracle's verdict and steps too).
    The line names no case, so that no per-case verdict pattern can match
    it."""
    ticks_only: dict[str, int] = {}
    models = 0
    for case, (verdict, ticks, rest) in ours.items():
        if not case.startswith(f"{name} "):
            continue
        their_verdict, their_ticks, their_rest = theirs[case]
        if verdict != their_verdict:
            continue
        if rest != their_rest:
            models += 1
        elif ticks != their_ticks:
            ticks_only[verdict] = ticks_only.get(verdict, 0) + 1
    k = sum(ticks_only.values())
    kinds = ", ".join(f"{v} {n}" for v, n in sorted(ticks_only.items(), key=lambda t: (-t[1], t[0])))
    return f"{name}: {k + models} records moved with no verdict move: ticks only {k} ({kinds}), models {models}"


def tick_moves(name: str, ours: dict[str, list], theirs: dict[str, list], limit: int = 20) -> list[str]:
    """A line per record of the named workload that moved in its ticks
    alone, as ``workload seed:index ticks theirs → ours (verdict)``, the
    first limit of them, then ``… N more`` for the rest.  The word "ticks"
    after the case keeps each line off the per-case verdict pattern."""
    moved = [
        f"{case} ticks {theirs[case][1]} → {ticks} ({verdict})"
        for case, (verdict, ticks, rest) in ours.items()
        if case.startswith(f"{name} ") and theirs[case][0] == verdict and theirs[case][2] == rest
        and theirs[case][1] != ticks
    ]
    return moved[:limit] + [f"… {len(moved) - limit} more"] * (len(moved) > limit)


# the child process of --against: the digests of the checkout named by its
# one argument, as one JSON document on stdout
CHILD = "import case_digest, json, sys; print(json.dumps(case_digest.digests(case_digest.Path(sys.argv[1]), False)))"


def main() -> int:
    parser = argparse.ArgumentParser(description="Print one sha256 per workload.")
    parser.add_argument("--against", metavar="PATH", help="another checkout whose digests must be the same")
    args = parser.parse_args()
    other = None
    if args.against is not None:
        if not (Path(args.against) / "src" / "gnncheck").is_dir():
            parser.error(f"{args.against} is not a checkout of gnncheck")
        other = subprocess.Popen(
            [sys.executable, "-c", CHILD, str(Path(args.against).resolve())],
            stdout=subprocess.PIPE, text=True, cwd=Path(__file__).resolve().parent,
        )
    lines, outcomes = digests(ROOT, True)
    if other is None:
        return 0
    output = other.communicate()[0]
    if other.returncode != 0:
        print(f"digesting {args.against} failed")
        return 1
    theirs, their_outcomes = json.loads(output)
    print(f"against {args.against}:")
    print(*theirs, sep="\n")
    for case, (verdict, _, _) in outcomes.items():
        if their_outcomes[case][0] != verdict:
            print(f"{case} {their_outcomes[case][0]} → {verdict}")
    for ours, their_line in zip(lines, theirs):
        if ours != their_line:
            name = ours.split()[0]
            mine, other = decisive_by_seed(outcomes, name), decisive_by_seed(their_outcomes, name)
            for seed, count in mine.items():
                if other[seed] != count:
                    print(f"{name} seed {seed}: {other[seed]} → {count}")
            print(moved_records(name, outcomes, their_outcomes))
            for line in tick_moves(name, outcomes, their_outcomes):
                print(line)
    same = theirs == lines
    print("same digests" if same else "digests differ")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
