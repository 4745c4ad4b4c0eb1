"""Benchmark of the abinitio package: one workload per run, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-digest

A run builds the workload's inputs, then times whole rounds of its
operations in this process (closed loop, one caller, no threads).  The
number of rounds is ``--seconds`` over the workload's nominal round time,
fixed before timing starts, so that every run of one setting computes the
same statistic however fast the machine is at the moment.  Each operation's
time is the best of its rounds.  After timing it checks every output and
prints a report whose last line is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` one round runs under the
span tracer and the metrics are the per-layer ones.  ``--write-digest``
rebuilds the 51 corpus certificates and stores their digest.

Exit codes: 0 after a finished run (``correct`` tells whether the checks
passed), 2 when the package sources or the arguments are unusable.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (stdlib only; the package is imported later)

SETUP_SAMPLES = 7
VERIFY_PASSES = 20
# The reference kernel's time at the full speed of the 2-vCPU machine the
# README's figures come from.  Every reported time is scaled by this over the
# kernel's median time measured in the same run, next to the work.
REFERENCE_SECONDS = 0.004
TRACE_DIR = HERE / "out"
FAILED = object()  # output slot of an operation that raised
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text()) \
    if (HERE.parent / "BENCHMARK.json").exists() else None


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def _require_sources() -> None:
    for rel in ("src/abinitio/__init__.py", "tests/test_acceptance.py"):
        if not (workloads.ROOT / rel).is_file():
            _fail(f"{rel} not found under {workloads.ROOT}; run from a checkout")


def reference_kernel() -> float:
    """Seconds for one pass of fixed pure-Python work shaped like the
    package's: frozensets, set intersections, dict lookups, sorted tuples.

    The speed of the machine the benchmark was built on drifts by up to 40%
    within minutes, and it slows this kernel and the package alike: over 39
    approx-chain rounds, round times varied by 17% (coefficient of
    variation) and round times over the kernel's median time by 5%."""
    t0 = time.perf_counter()
    names = [f"v{i:03d}" for i in range(120)]
    adj = {v: frozenset(names[(i * 7 + j) % 120] for j in range(1, 6))
           for i, v in enumerate(names)}
    total = 0
    for k in range(30):
        window = frozenset(names[k:k + 60])
        for v in names:
            total += len(adj[v] & window)
        total += len(sorted((u, w) for u in window for w in adj[u] if u < w))
    return time.perf_counter() - t0


def speed_scale(samples) -> float:
    """REFERENCE_SECONDS over the median kernel time: multiplies a time
    measured at that speed into a time at the reference speed."""
    return REFERENCE_SECONDS / statistics.median(samples)


def _setup(name: str, seed: int):
    """Import the package and build the inputs; returns the workload and the
    set-up time scaled to the reference speed."""
    t0 = time.perf_counter()
    wl = workloads.build(name, seed)
    seconds = time.perf_counter() - t0
    return wl, seconds * speed_scale([reference_kernel() for _ in range(5)])


def _setup_probe(name: str, seed: int) -> float:
    """One set-up in a fresh interpreter, so its import is a first import."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.split()[-1])


def tail_rank(n: int) -> tuple[int, int]:
    """The highest whole percentile with at least ten samples above it, and
    the 1-based rank of its nearest-rank value (p80 and rank 41 for 51)."""
    p = math.floor(100 * (n - 10) / n)
    return p, math.ceil(p * n / 100)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _memo_info(ab):
    memo = getattr(ab.predimension, "_self_sufficient_cached", None)
    info = getattr(memo, "cache_info", None)
    return info() if info else None


def run(args) -> dict:
    wl, own_setup = _setup(args.workload, args.seed)
    ab = wl.ab
    setups = [own_setup] + [_setup_probe(args.workload, args.seed)
                            for _ in range(SETUP_SAMPLES - 1)]

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install(ab)
    memo_before = _memo_info(ab)

    ops = wl.operations()
    attempted = failed = 0
    errors: list[str] = []
    times: list[list[float]] = []
    outputs: dict = {}

    def timed(label, thunk):
        nonlocal attempted, failed
        attempted += 1
        t0 = time.perf_counter()
        try:
            out = thunk()
        except Exception as exc:  # a failed operation is counted, not fatal
            seconds = time.perf_counter() - t0
            failed += 1
            errors.append(f"{label}: {type(exc).__name__}: {exc}")
            return seconds, FAILED
        return time.perf_counter() - t0, out

    rounds = 1 if tracer else max(1, round(args.seconds / wl.round_seconds))
    scales: list[float] = []
    gc.collect()
    for _ in range(rounds):
        row, kernel = [], []
        for label, thunk in ops:
            kernel.append(reference_kernel())
            seconds, out = timed(label, thunk)
            row.append(seconds)
            if not times:
                outputs[label] = out
        scales.append(speed_scale(kernel))
        times.append([seconds * scales[-1] for seconds in row])

    gc.collect()
    extra = wl.after_rounds(outputs, timed, 1 if tracer else VERIFY_PASSES,
                            statistics.median(scales))
    peak_rss = _peak_rss_mb()
    memo_after = _memo_info(ab)
    if tracer:
        tracer.uninstall()

    best = [min(col) for col in zip(*times)]
    ordered = sorted(best)
    p_tail, rank = tail_rank(len(best))
    run_s = sum(best)
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": len(times), "operations": len(ops),
        "setup_samples": setups, "speed_scales": scales, "errors": errors,
        "slowest": sorted(zip(best, (label for label, _ in ops)), reverse=True)[:5],
    }

    succeeded = {k: v for k, v in outputs.items() if v is not FAILED}
    problems = wl.check(succeeded) if len(succeeded) == len(ops) else \
        ["skipped: an operation failed"]
    digest = hashlib.sha256()
    for label, _ in ops:
        out = outputs[label]
        digest.update(workloads.canonical(
            None if out is FAILED else wl.fingerprint(label, out)).encode())
    report.update(problems=problems, outputs_sha256=digest.hexdigest())
    if args.workload == "ep-corpus" and len(succeeded) == len(ops):
        report["certificates_sha256"] = workloads.certificates_digest(
            wl.certificates(outputs))

    if tracer:
        totals = tracer.layer_totals()
        totals.update(wl.output_counts(succeeded))
        if memo_before and memo_after:
            hits = memo_after.hits - memo_before.hits
            calls = hits + memo_after.misses - memo_before.misses
            totals["predimension.memo_hit_ratio"] = hits / calls if calls else 0.0
        tracer.write(TRACE_DIR / args.workload)
        report["traced_run_s"] = run_s
        metrics = {}
        for spec in BENCHMARK["per_layer"]:
            value = totals.get(spec["name"], 0)
            if spec["unit"] == "s":
                value *= scales[0]
            metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        notes = {"extension.sweep_passes": "report calls under build_level_stage"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "run_s": {"value": run_s, "unit": "s"},
            "op_p50_ms": {"value": 1e3 * statistics.median(best), "unit": "ms"},
            "op_tail_ms": {"value": 1e3 * ordered[rank - 1], "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss, "unit": "MB"},
        }
        notes = {
            "setup_s": f"median of {len(setups)} set-ups, each in a fresh interpreter",
            "run_s": f"sum of {len(best)} per-operation bests over {len(times)} rounds",
            "op_p50_ms": f"median of {len(best)} per-operation bests",
            "op_tail_ms": f"p{p_tail} of {len(best)} per-operation bests",
            "peak_rss_mb": "ru_maxrss of this process after the timed phases",
        }
    report.update(metrics=metrics, notes=notes, extra=extra,
                  seconds_per_round=dict(zip((label for label, _ in ops), zip(*times))))
    TRACE_DIR.mkdir(exist_ok=True)
    (TRACE_DIR / f"{args.workload}-trace{args.trace}.report.json").write_text(
        json.dumps(report, indent=1))
    return {"report": report, "correct": not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def _print(result: dict) -> None:
    rep = result["report"]
    print(f"workload {rep['workload']} seed {rep['seed']} trace {rep['trace']}: "
          f"{rep['rounds']} rounds of {rep['operations']} operations, "
          f"{result['attempted']} attempted, {result['failed']} failed")
    print(f"  reference kernel took {1 / statistics.median(rep['speed_scales']):.3f}x "
          f"its reference time; every time below is scaled by the inverse")
    for name, m in rep["metrics"].items():
        note = rep["notes"].get(name, "")
        print(f"  {name:<58} {m['value']:>14.6g} {m['unit']:<6} {note}")
    for name, (value, unit, note) in rep["extra"].items():
        print(f"  {name:<58} {value:>14.6g} {unit:<6} {note} (report only)")
    print("  slowest operations: " + ", ".join(
        f"{label} {1e3 * seconds:.0f} ms" for seconds, label in rep["slowest"]))
    if "traced_run_s" in rep:
        print(f"  traced run_s {rep['traced_run_s']:.6g} s (one round under the tracer)")
    for line in rep["errors"][:10] + rep["problems"][:20]:
        print(f"  problem: {line}")
    print(f"outputs_sha256 {rep['outputs_sha256']}")
    if "certificates_sha256" in rep:
        print(f"certificates_sha256 {rep['certificates_sha256']}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))


def write_digest() -> None:
    wl, _ = _setup("ep-corpus", 0)
    certs = [(label, wl.ab.ep_extend(p)) for label, p in wl.corpus]
    digest = workloads.certificates_digest(certs)
    workloads.DIGEST_FILE.write_text(digest + "\n")
    print(f"{digest}  written to {workloads.DIGEST_FILE.name}")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-digest", action="store_true",
                        help="rebuild the corpus certificates and store their sha256")
    args = parser.parse_args(argv)
    _require_sources()
    if args.write_digest:
        write_digest()
        return
    if args.workload is None:
        _fail("--workload is required")
    if args.setup_probe:
        print(_setup(args.workload, args.seed)[1])
        return
    if BENCHMARK is None:
        _fail("BENCHMARK.json not found next to perfbench/")
    if args.seconds <= 0:
        _fail("--seconds must be positive")
    _print(run(args))


if __name__ == "__main__":
    main()
