"""The package's line budget: growing src/abinitio past it fails here, so
that growth is a deliberate edit of the budget.  ROADMAP tracks the line
count next to speed."""

from pathlib import Path

BUDGET = 3654


def test_the_package_source_stays_within_its_line_budget():
    src = Path(__file__).resolve().parent.parent / "src" / "abinitio"
    counts = {path.name: len(path.read_text(encoding="utf-8").splitlines())
              for path in src.glob("*.py")}
    lines = sum(counts.values())
    by_size = ", ".join(f"{name} {n}" for name, n in
                        sorted(counts.items(), key=lambda item: (-item[1], item[0])))
    assert lines <= BUDGET, (
        f"src/abinitio has {lines} lines, over its budget of {BUDGET}: {by_size}")
