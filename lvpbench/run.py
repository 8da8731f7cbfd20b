"""LVP benchmark: one workload per process, end to end or traced per layer.

Run from the root of a checkout:

    python3 lvpbench/run.py --workload lvp-grid --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run
together with its tracing overhead.  Diagnostics go to standard error.

    python3 lvpbench/run.py --regenerate-fingerprints

rebuilds ``fingerprints.json`` from scratch (see README.md).
"""

from __future__ import annotations

import argparse
import difflib
import gc
import hashlib
import importlib
import json
import math
import resource
import statistics
import sys
import time
import tomllib
import types
from pathlib import Path

from tracer import Tracer
from workloads import WORKLOADS, Outcome

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
FINGERPRINTS = HERE / "fingerprints.json"
PROGRAM_MODULES = ("arith", "formula", "graph", "semantics", "gnn", "compile", "tableau", "fuzz")
FINGERPRINT_SEEDS = range(0, 16)
FINGERPRINT_SECONDS = 25  # covers runs of up to --seconds 25
# Every case runs in PASSES passes, each after a fresh import of the program
# and a fresh generation of the inputs; its time is the median over the passes.
# Set-up is timed in every pass, and setup_s is the median.
PASSES = 5
# On a shared 2-core VM, other tenants slowed interpreter-heavy code by up to
# 1.8x for minutes at a time, while a tight arithmetic loop barely slowed.  So
# every pass also times a fixed reference task with a code footprint like the
# program's (parse a TOML document, diff two token lists) after every
# REFERENCE_EVERY_S of case time, and the pass's times are scaled by
# REFERENCE_S / (the median reference time of the pass): all timings are
# reported at the speed at which the reference task takes REFERENCE_S.
REFERENCE_S = 0.004
REFERENCE_EVERY_S = 0.25
_REFERENCE_DOC = "\n".join(
    f'[t{i}]\nname = "n{i}"\nvals = [{i}, {i + 1}, {i + 2}]\nx = {i}.5\nflag = true\n' for i in range(12)
)
_REFERENCE_A = [f"tok{i % 17}" for i in range(120)]
_REFERENCE_B = [f"tok{i * 7 % 17}" for i in range(120)]


def import_program() -> types.SimpleNamespace:
    """Import gnncheck afresh from the checkout's src/ and return its modules."""
    for name in [m for m in sys.modules if m == "gnncheck" or m.startswith("gnncheck.")]:
        del sys.modules[name]
    mods = {name: importlib.import_module(f"gnncheck.{name}") for name in PROGRAM_MODULES}
    for mod in mods.values():
        if not Path(mod.__file__).resolve().is_relative_to(SRC):
            raise SystemExit(f"gnncheck was imported from {mod.__file__}, not from {SRC}")
    return types.SimpleNamespace(**mods)


def case_key(case) -> str:
    return hashlib.sha256(json.dumps([case.text, case.meta], sort_keys=True).encode()).hexdigest()[:20]


def n_cases(workload, seconds: int) -> int:
    # at least 100 cases, so that ten samples lie beyond the p90
    return max(100, round(workload.per_second * seconds))


def setup(workload, seed: int, n: int):
    """Import the program afresh and build the encoded inputs; return both
    and the time it took."""
    start = time.perf_counter()
    p = import_program()
    cases = [workload.make_case(p, seed, i) for i in range(n)]
    return p, cases, time.perf_counter() - start


def run_case(workload, p, case):
    try:
        return workload.run(p, case)
    except Exception as exc:  # a crash is a failed operation, reported below
        return Outcome("error", False, error=f"{type(exc).__name__}: {exc}")


def reference_time() -> float:
    """Best of three timings of the reference task, with the cyclic GC off so
    that the program's heap cannot make the reference slower."""
    best = math.inf
    gc.disable()
    try:
        for _ in range(3):
            start = time.perf_counter()
            tomllib.loads(_REFERENCE_DOC)
            difflib.SequenceMatcher(None, _REFERENCE_A, _REFERENCE_B).ratio()
            best = min(best, time.perf_counter() - start)
    finally:
        gc.enable()
    return best


def timed_pass(workload, p, cases) -> tuple[list, list[float], float]:
    """Run every case once; return the outcomes, the case times scaled to the
    reference speed, and the scale factor."""
    clock = time.perf_counter
    outcomes, times, references = [], [], [reference_time()]
    since_reference = 0.0
    for case in cases:
        start = clock()
        outcomes.append(run_case(workload, p, case))
        elapsed = clock() - start
        times.append(elapsed)
        since_reference += elapsed
        if since_reference >= REFERENCE_EVERY_S:
            references.append(reference_time())
            since_reference = 0.0
    scale = REFERENCE_S / statistics.median(references)
    return outcomes, [t * scale for t in times], scale


def median_times(passes_times: list[list[float]]) -> list[float]:
    return [statistics.median(per_case) for per_case in zip(*passes_times)]


def settle(workload, p, seed: int, cases, passes: list[list]) -> tuple[int, bool, list[str]]:
    """Apply the post-loop checks; return (failed operations, correct, messages).

    A case's later passes must repeat its first verdict.  Decisive verdicts
    that no independent check covers are compared with the fingerprint file.
    """
    first = list(passes[0])
    if hasattr(workload, "confirm"):
        for index, outcome in workload.confirm(p, seed, cases, first).items():
            first[index] = outcome
    known = json.loads(FINGERPRINTS.read_text()).get(workload.name, {})
    post_error: dict[int, str] = {}
    wrong = False
    for case, outcome in zip(cases, first):
        if outcome.error:
            wrong |= outcome.wrong
            post_error[case.index] = outcome.error
        elif outcome.decisive and not outcome.covered:
            expected = known.get(case_key(case))
            if expected is not None and expected != outcome.verdict:
                wrong = True
                post_error[case.index] = f"verdict {outcome.verdict} flipped from fingerprint {expected}"
    failed = 0
    messages = []
    for outcomes in passes:
        for case, outcome, base in zip(cases, outcomes, passes[0]):
            error = outcome.error or post_error.get(case.index)
            if error is None and outcome.verdict != base.verdict:
                error = f"verdict {outcome.verdict} differs from the first pass ({base.verdict})"
            if error is not None:
                failed += 1
                wrong |= outcome.wrong
                messages.append(f"case {case.index}: {error}")
    return failed, not wrong, messages


def end_to_end(workload, seed: int, seconds: int) -> dict:
    passes, passes_times, setups, scales = [], [], [], []
    for _ in range(PASSES):
        p, cases, setup_s = setup(workload, seed, n_cases(workload, seconds))
        gc.collect()
        outcomes, times, scale = timed_pass(workload, p, cases)
        setups.append(setup_s * scale)
        scales.append(scale)
        passes.append(outcomes)
        passes_times.append(times)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed, correct, messages = settle(workload, p, seed, cases, passes)
    per_case = median_times(passes_times)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "cases_per_s": (len(per_case) / sum(per_case), "1/s"),
        "verdict_s_p50": (statistics.median(per_case), "s"),
        "verdict_s_p90": (statistics.quantiles(per_case, n=10)[8], "s"),
        "decided": (sum(o.decisive for o in passes[0]), "count"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    summary = (
        f"{len(cases)} cases x {PASSES} passes; wall s per pass "
        + ", ".join(f"{sum(t) / k:.2f}" for t, k in zip(passes_times, scales))
        + "; scale "
        + ", ".join(f"{k:.3f}" for k in scales)
        + f"; {sum(per_case):.2f} s at reference speed; verdicts "
        + json.dumps(_tally(passes[0]), sort_keys=True)
    )
    return _result(correct, PASSES * len(cases), failed, metrics, messages, summary)


def traced(workload, seed: int, seconds: int) -> dict:
    passes, plain_times, traced_times = [], [], []
    self_times: dict[str, list[float]] = {}
    counts = spans = None
    for _ in range(PASSES):
        p, cases, _ = setup(workload, seed, math.ceil(n_cases(workload, seconds) / PASSES))
        gc.collect()
        outcomes, times, _ = timed_pass(workload, p, cases)
        passes.append(outcomes)
        plain_times.append(times)
        with Tracer(p) as tracer:
            outcomes, times, scale = timed_pass(workload, p, cases)
        passes.append(outcomes)
        traced_times.append(times)
        for layer, value in tracer.self_time.items():
            self_times.setdefault(layer, []).append(value * scale)
        if counts is None:
            counts, spans = dict(tracer.counts), list(tracer.spans)
        elif counts != tracer.counts:
            print(f"per-layer counts differ between passes: {counts} vs {tracer.counts}", file=sys.stderr)
    failed, correct, messages = settle(workload, p, seed, cases, passes)
    metrics = {f"{layer}_s": (statistics.median(v), "s") for layer, v in self_times.items()}
    metrics.update({key: (value, "count") for key, value in counts.items()})
    plain, traced_total = sum(median_times(plain_times)), sum(median_times(traced_times))
    metrics["trace.cases_per_s"] = (len(cases) / traced_total, "1/s")
    metrics["trace.overhead_pct"] = (100 * (traced_total / plain - 1), "%")
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"spans-{workload.name}-seed{seed}.jsonl", "w") as fh:
        for span_id, parent, layer, t0, t1 in spans:
            fh.write(json.dumps({"id": span_id, "parent": parent, "layer": layer, "start": t0, "end": t1}) + "\n")
    summary = f"{len(cases)} cases x {PASSES} plain/traced pass pairs, {plain:.2f} s plain, {traced_total:.2f} s traced"
    return _result(correct, len(cases) * len(passes), failed, metrics, messages, summary)


def _tally(outcomes) -> dict[str, int]:
    tally: dict[str, int] = {}
    for o in outcomes:
        tally[o.verdict] = tally.get(o.verdict, 0) + 1
    return tally


def _result(correct, attempted, failed, metrics, messages, summary) -> dict:
    print(summary, file=sys.stderr)
    for message in messages[:20]:
        print(message, file=sys.stderr)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def regenerate_fingerprints() -> None:
    """Decide every case of the fingerprint seeds and store the decisive
    verdicts that no independent check covers."""
    table: dict[str, dict[str, str]] = {}
    for workload in WORKLOADS.values():
        entries = table.setdefault(workload.name, {})
        for seed in FINGERPRINT_SEEDS:
            p, cases, _ = setup(workload, seed, n_cases(workload, FINGERPRINT_SECONDS))
            outcomes = [run_case(workload, p, case) for case in cases]
            if hasattr(workload, "confirm"):
                for index, outcome in workload.confirm(p, seed, cases, outcomes).items():
                    outcomes[index] = outcome
            for case, outcome in zip(cases, outcomes):
                if outcome.error:
                    raise SystemExit(f"{workload.name} seed {seed} case {case.index}: {outcome.error}")
                if outcome.decisive and not outcome.covered:
                    entries[case_key(case)] = outcome.verdict
            print(f"{workload.name} seed {seed}: {len(entries)} fingerprints", file=sys.stderr)
    FINGERPRINTS.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--regenerate-fingerprints", action="store_true")
    args = parser.parse_args()
    if not (SRC / "gnncheck" / "__init__.py").is_file():
        print(f"no gnncheck sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.regenerate_fingerprints:
        regenerate_fingerprints()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    workload = WORKLOADS[args.workload]
    result = (traced if args.trace else end_to_end)(workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
