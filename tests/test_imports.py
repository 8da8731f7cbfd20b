"""The runtime depends on the standard library alone."""

import os
import subprocess
import sys
from pathlib import Path

import gnncheck

PROBE = """
import sys
before = set(sys.modules)
import gnncheck, gnncheck.cli, gnncheck.fuzz, gnncheck.falsify
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(" ".join(sorted(loaded - set(sys.stdlib_module_names) - {"gnncheck"})))
"""


def test_imports_load_only_standard_library_modules():
    # modules loaded before the imports (site hooks, say) do not count
    src = str(Path(gnncheck.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == []
