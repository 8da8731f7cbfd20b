"""``tools/case_digest.py``'s summary of the records that moved while their
verdicts did not, and its lines of the records that moved in ticks alone, on
synthetic outcomes."""

import importlib.util
import re
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "case_digest.py"
_spec = importlib.util.spec_from_file_location("case_digest", TOOL)
case_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(case_digest)

# the per-case pattern of the workflow step "No decisive verdict flips
# against the base commit"
DECISIVE = r"(Valid(\([a-z]+\))?|Sat) → (Invalid|Unsat)|(Invalid|Unsat) → (Valid(\([a-z]+\))?|Sat)"
FLIP = re.compile(rf"^[^ ]+ [0-9]+:[0-9]+ ({DECISIVE})$")

THEIRS = {
    "lvp-grid 0:0": ["Valid(bounds)", 0, "a"],
    "lvp-grid 0:1": ["Valid(bounds)", 0, "b"],
    "lvp-grid 0:2": ["Invalid", 12, "c"],
    "lvp-grid 0:3": ["Invalid", 12, "d"],
    "lvp-grid 1:0": ["Unknown(node-limit)", 10_001, "e"],
    "lvp-grid 1:1": ["Valid(split)", 40, "f"],
    "lvp-grid 1:2": ["Invalid", 7, "g"],
    "fuzz-oracle 0:0": ["Sat", 3, "h"],
}
OURS = {
    "lvp-grid 0:0": ["Valid(bounds)", 37, "a"],  # ticks only
    "lvp-grid 0:1": ["Valid(bounds)", 21, "b"],  # ticks only
    "lvp-grid 0:2": ["Invalid", 9, "c"],  # ticks only
    "lvp-grid 0:3": ["Invalid", 12, "x"],  # another counterexample
    "lvp-grid 1:0": ["Invalid", 55, "y"],  # a verdict move: not counted here
    "lvp-grid 1:1": ["Valid(split)", 40, "f"],  # unmoved
    "lvp-grid 1:2": ["Invalid", 8, "z"],  # ticks and counterexample
    "fuzz-oracle 0:0": ["Sat", 4, "h"],  # another workload
}


def test_records_moved_with_no_verdict_move_are_counted_by_how_they_moved():
    line = case_digest.moved_records("lvp-grid", OURS, THEIRS)
    assert line == (
        "lvp-grid: 5 records moved with no verdict move: ticks only 3 (Valid(bounds) 2, Invalid 1), models 2"
    )
    assert case_digest.moved_records("fuzz-oracle", OURS, THEIRS) == (
        "fuzz-oracle: 1 records moved with no verdict move: ticks only 1 (Sat 1), models 0"
    )
    assert case_digest.moved_records("sum-chain", OURS, THEIRS) == (
        "sum-chain: 0 records moved with no verdict move: ticks only 0 (), models 0"
    )


def test_the_summary_never_reads_as_a_case_line():
    for name in ("lvp-grid", "fuzz-oracle", "sum-chain"):
        line = case_digest.moved_records(name, OURS, THEIRS)
        assert not FLIP.search(line) and not re.match(r"^[^ ]+ [0-9]+:[0-9]+ ", line)
    # the pattern does catch a flip
    assert FLIP.search("lvp-grid 1:0 Valid(bounds) → Invalid")


def test_records_moved_in_ticks_alone_are_listed_one_a_line():
    assert case_digest.tick_moves("lvp-grid", OURS, THEIRS) == [
        "lvp-grid 0:0 ticks 0 → 37 (Valid(bounds))",
        "lvp-grid 0:1 ticks 0 → 21 (Valid(bounds))",
        "lvp-grid 0:2 ticks 12 → 9 (Invalid)",
    ]
    assert case_digest.tick_moves("lvp-grid", OURS, THEIRS, limit=2)[2:] == ["… 1 more"]
    assert case_digest.tick_moves("sum-chain", OURS, THEIRS) == []


def test_tick_lines_never_read_as_a_flip():
    theirs = {f"lvp-grid 0:{i}": [v, 5, "a"] for i, v in enumerate(("Valid(bounds)", "Invalid", "Sat", "Unsat"))}
    ours = {case: [v, 7, "a"] for case, (v, _, _) in theirs.items()}
    lines = case_digest.tick_moves("lvp-grid", ours, theirs)
    assert len(lines) == 4
    assert not any(FLIP.search(line) for line in lines)
