"""The package's line budget: growing src/abinitio past it fails here, so
that growth is a deliberate edit of the budget.  ROADMAP tracks the line
count next to speed.  Also the public name list, which the package derives
from its imports, and the modules importing the package loads."""

import ast
import subprocess
import sys
from pathlib import Path

import abinitio

BUDGET = 3572


def test_the_package_source_stays_within_its_line_budget():
    src = Path(__file__).resolve().parent.parent / "src" / "abinitio"
    counts = {path.name: len(path.read_text(encoding="utf-8").splitlines())
              for path in src.glob("*.py")}
    lines = sum(counts.values())
    by_size = ", ".join(f"{name} {n}" for name, n in
                        sorted(counts.items(), key=lambda item: (-item[1], item[0])))
    assert lines <= BUDGET, (
        f"src/abinitio has {lines} lines, over its budget of {BUDGET}: {by_size}")


def test_the_public_names_are_the_names_the_package_imports():
    # __all__ is derived from __init__'s imports: every name they bind but
    # the submodules, sorted, read here from the source
    init = Path(abinitio.__file__).read_text(encoding="utf-8")
    imported = {alias.asname or alias.name for node in ast.parse(init).body
                if isinstance(node, ast.ImportFrom) and node.level
                for alias in node.names}
    assert abinitio.__all__ == sorted(imported) and len(imported) == 60


def test_importing_the_package_loads_no_dataclasses_or_inspect():
    # every process that imports the package pays for what the import loads;
    # -S keeps site from loading any of these first
    src = Path(__file__).resolve().parent.parent / "src"
    script = (f"import sys; sys.path.insert(0, {str(src)!r}); import abinitio; "
              "print([m for m in ('dataclasses', 'inspect', 'ast', 'dis') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
