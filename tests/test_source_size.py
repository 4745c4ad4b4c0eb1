"""The package's line budget: growing src/abinitio past it fails here, so
that growth is a deliberate edit of the budget.  ROADMAP tracks the line
count next to speed.  Also the public name list, which the package derives
from its imports and its table of names loaded on first use, and the modules
importing the package and using its core load."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import abinitio

BUDGET = 3578


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
    # __all__ is derived from __init__'s imports and its lazy table: every
    # name the imports bind but the submodules, and every lazy name, sorted;
    # the imports are read here from the source
    init = Path(abinitio.__file__).read_text(encoding="utf-8")
    imported = {alias.asname or alias.name for node in ast.parse(init).body
                if isinstance(node, ast.ImportFrom) and node.level
                for alias in node.names}
    names = imported | set(abinitio._LAZY)
    assert not imported & set(abinitio._LAZY)
    assert abinitio.__all__ == sorted(names) and len(names) == 60


def _run_isolated(script: str) -> str:
    # a fresh interpreter that imports the package from this checkout; -S
    # keeps site from loading any module first
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-S", "-c",
                           f"import sys; sys.path.insert(0, {str(src)!r}); {script}"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_importing_the_package_loads_no_dataclasses_or_inspect():
    # every process that imports the package pays for what the import loads,
    # so neither these nor the modules loaded on first use load with it
    out = _run_isolated(
        "import abinitio; print([m for m in ('dataclasses', 'inspect', 'ast', 'dis', "
        "'abinitio.extension', 'abinitio.verifier', 'abinitio.amalgam', 'abinitio.cli', "
        "'abinitio.oracles') if m in sys.modules])")
    assert out == "[]\n"


def test_the_core_loads_no_module_after_the_import():
    # a profiler that patches the modules loaded at import sees every call
    # of these; a module loaded later by one of them would go unseen
    out = _run_isolated("""
import abinitio as ab
before = set(sys.modules)
k5 = ab.Graph(2, 'abcde', [(u, v) for u in 'abcde' for v in 'abcde' if u < v])
ab.decompose(k5)
ab.uniform_algebraicity_report(k5, 1)
ab.closure(k5, {'a'})
ab.dimension(k5, {'a', 'b'})
ab.geometric_closure_bounded(k5, {'a'})
ab.orientation_witness(k5)
path = ab.Graph(2, 'xyz', [('x', 'y'), ('y', 'z')])
final = ab.build_approximation(path, 1, 4).stages[-1]
grown, _ = ab.extend_partial_iso(final, ab.PartialIso.build(final, {'x': 'z', 'z': 'x'}))
ab.add_generic_point(grown, path.vertices, 1)
print(sorted(m for m in set(sys.modules) - before if m.startswith('abinitio')))
""")
    assert out == "[]\n"


def test_a_lazy_name_is_the_object_its_module_defines():
    for name, module in abinitio._LAZY.items():
        assert getattr(abinitio, name) is getattr(sys.modules[f"abinitio.{module}"], name)
    assert abinitio.ep_extend is abinitio.extension.ep_extend
    with pytest.raises(AttributeError, match="no_such_name"):
        abinitio.no_such_name  # noqa: B018
    star: dict = {}
    exec("from abinitio import *", star)
    assert sorted(name for name in star if name != "__builtins__") == abinitio.__all__
    assert all(star[name] is getattr(abinitio, name) for name in abinitio.__all__)
