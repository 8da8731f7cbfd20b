"""The runtime depends on the standard library alone, and each of its modules
imports only names it references."""

import ast
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


def imported_names(tree):
    """Each name an import statement of the module binds, but for
    ``__future__`` imports, with its line."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_every_imported_name_is_referenced():
    # __init__.py imports names only to re-export them
    package = Path(gnncheck.__file__).resolve().parent
    unused = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported_names(tree) if name not in used]
    assert unused == []
