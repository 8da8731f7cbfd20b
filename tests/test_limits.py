"""Limits that hold: a tableau run returns within its time limit.

Saturation walks unknown expressions without charging a tick, so on a deep
``relu`` chain or a long sum a run of 1 024 ticks can take seconds; it reads
the clock once per atom and once per obligation as well.  Each input here is
satisfiable and solved in a child process with ``time_limit=0.5``, timed
around the call.  It must give ``Sat`` or ``Unknown("timeout")`` within the
limit plus max(0.25 s, 20 %), and ``Unknown("timeout")`` where the search
takes seconds.  The CLI gets the same slack plus the start-up time of a
trivial ``sat`` run.  Each child's peak resident set (``ru_maxrss`` of
``RUSAGE_CHILDREN``) must stay under ``MAX_RSS_MB``; no rlimit is set.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gnncheck

LIMIT = 0.5
SLACK = max(0.25, 0.2 * LIMIT)
MAX_RSS_MB = 64
SRC = str(Path(gnncheck.__file__).resolve().parents[1])

# The child builds one input, solves it under δ unary:1 and a time limit, and
# prints the verdict and the seconds the call took: ``relu DEPTH`` is
# relu(...relu(x1)...) >= 1 on satint:3, built through Arena.act because it
# is past the parser's nesting limit; ``sum TEXT`` is a formula on satint:7.
CHILD = """
import json, sys, time
from gnncheck.arith import ArithmeticSpec
from gnncheck.formula import Arena, Formula, parse
from gnncheck.gnn import DeltaMode
from gnncheck.tableau import SolveLimits, solve

kind, arg, limit = sys.argv[1], sys.argv[2], float(sys.argv[3])
if kind == "relu":
    arena = Arena(ArithmeticSpec.satint(3))
    top = arena.feature("x1")
    for _ in range(int(arg)):
        top = arena.act("relu", top)
    f = Formula(arena, arena.geq(top, 1))
else:
    f = parse(arg, ArithmeticSpec.satint(7))
start = time.monotonic()
verdict = solve(f, DeltaMode.unary(1), SolveLimits(time_limit=limit))
print(json.dumps([[type(verdict).__name__, getattr(verdict, "reason", None)], time.monotonic() - start]))
"""


def sum_chain(n: int) -> str:
    return " + ".join(f"x{i}" for i in range(n)) + " >= 3"


# Runs argv, the process's only child, and prints its exit code, stdout,
# wall seconds and peak resident set in MB.  On Linux a child's ru_maxrss
# starts from the resident set of the process it was spawned from, so a
# child spawned from the test process would report at least the test
# process's size; spawned from this small one, at least about 14 MB.
DRIVER = """
import json, resource, subprocess, sys, time
start = time.monotonic()
run = subprocess.run(sys.argv[1:], stdout=subprocess.PIPE, text=True)
wall = time.monotonic() - start
print(json.dumps([run.returncode, run.stdout, wall, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024]))
"""


def run_child(*argv: str) -> tuple[int, str, float, float]:
    """Run argv with the package importable; its exit code, stdout, wall
    seconds and peak resident set in MB."""
    env = {**os.environ, "PYTHONPATH": SRC}
    run = subprocess.run([sys.executable, "-c", DRIVER, *argv], stdout=subprocess.PIPE, text=True, env=env, check=True)
    return tuple(json.loads(run.stdout))


# (kind, size, whether the search runs for seconds): relu ``size`` deep, or
# ``sum_chain(size)``.  Without a limit, on one core of an Intel Xeon, relu
# 3000 takes 9.5 s and the sums 0.2, 0.7 and 2.9 s; all four are Sat.
INPUTS = [("relu", 3000, True), ("sum", 400, False), ("sum", 800, False), ("sum", 1600, True)]


@pytest.mark.parametrize("kind,n,slow", INPUTS)
def test_solve_returns_within_its_time_limit(kind, n, slow):
    arg = str(n) if kind == "relu" else sum_chain(n)
    code, out, _, rss = run_child(sys.executable, "-c", CHILD, kind, arg, str(LIMIT))
    assert code == 0
    verdict, elapsed = json.loads(out)
    assert verdict == ["Unknown", "timeout"] or (not slow and verdict == ["Sat", None]), verdict
    assert elapsed <= LIMIT + SLACK, elapsed
    assert rss < MAX_RSS_MB, rss


def test_cli_sat_returns_within_its_time_limit():
    cli = (sys.executable, "-m", "gnncheck.cli", "sat", "--arith", "satint:7", "--delta", "unary:1")
    code, _, startup, _ = run_child(*cli, "x1 >= 0")
    assert code == 0
    code, out, elapsed, rss = run_child(*cli, "--time-limit", str(LIMIT), sum_chain(1600))
    assert (code, out) == (3, "unknown (timeout)\n")
    assert elapsed <= LIMIT + SLACK + startup, (elapsed, startup)
    assert rss < MAX_RSS_MB, rss
