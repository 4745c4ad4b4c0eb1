"""The benchmark's own checks.

Two traced runs of one seed give identical per-layer counts, and tracing on
or off gives identical outputs and the stored certificate digest.

    python3 -m pytest -q perfbench/test_perfbench.py

About three minutes on two cores; the repository's own suite does not
collect this file.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import tail_rank  # noqa: E402

EXACT_UNITS = ("count", "ratio")


def _run(workload, trace, cwd=ROOT, seed=3):
    out = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600, check=True)
    lines = out.stdout.splitlines()
    digests = dict(line.split() for line in lines
                   if line.startswith(("outputs_sha256", "certificates_sha256")))
    return json.loads(lines[-1]), digests


def _counts(result):
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] in EXACT_UNITS}


@pytest.mark.parametrize("workload", ["ep-corpus", "zero-audit", "k0-scale",
                                      "approx-chain"])
def test_traced_counts_repeat_and_tracing_changes_no_output(workload):
    first, first_digests = _run(workload, 1)
    second, second_digests = _run(workload, 1)
    plain, plain_digests = _run(workload, 0)
    for result in (first, second, plain):
        assert result["correct"] and result["failed"] == 0
    assert _counts(first) == _counts(second)
    assert first_digests == second_digests == plain_digests
    if workload == "ep-corpus":
        stored = (HERE / "corpus_certificates.sha256").read_text().split()[0]
        assert plain_digests["certificates_sha256"] == stored


def test_tail_percentile_leaves_ten_samples_above():
    assert tail_rank(51) == (80, 41)
    assert tail_rank(40) == (75, 30)
    for n in range(40, 200):
        p, rank = tail_rank(n)
        assert n - rank >= 10 and n - tail_rank_above(n, p + 1) < 10


def tail_rank_above(n, p):
    return -(-p * n // 100)


def test_refuses_to_run_without_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "zero-audit",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and out.stdout == ""
