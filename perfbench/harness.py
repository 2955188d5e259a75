"""One workload in one process: set up, run whole rounds for the given time,
then check every round's outputs. ``run.py`` starts this script; it prints
one JSON object as its last line.

    python3 perfbench/harness.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/harness.py --probe T0

``--probe`` only sets up (imports chaostomo from ``src/`` and builds the d = 21
operator basis) and prints the seconds since ``T0``, a ``time.monotonic()``
reading taken by the parent just before it started this process.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / "perfbench" / "out"
SETUP_SPIN = 10

# Spans reported as total seconds per round; self time is reported for the
# three that do substantial work of their own between calls into other layers.
SPANS = (
    "spin_algebra.hermitian_basis",
    "kicked_top.floquet_pair",
    "kicked_top.operator_trajectory",
    "tomography.fidelity_matrix",
    "tomography.simulate_record",
    "tomography.design_matrix",
    "tomography.covariance",
    "tomography.ml_estimate",
    "tomography.psd_project",
    "tomography.reconstruct",
    "tomography.fidelity",
    "chaos_metrics.loschmidt_echo",
    "chaos_metrics.relative_entropy_series",
    "chaos_metrics.operator_incompatibility",
    "bloch_analysis.perturbed_basis",
    "bloch_analysis.ideal_fidelity_curve",
    "experiments.write_series",
    "linalg.eigh_batch",
    "linalg.eigh_gram",
    "linalg.eigh_small",
)
SELF_SPANS = ("tomography.fidelity_matrix", "tomography.psd_project", "experiments.run")
CALL_COUNTS = ("linalg.eigh_batch", "linalg.eigh_gram", "linalg.eigh_small")
WORK_COUNTS = (
    ("kicked_top.operator_trajectory.steps", "count"),
    ("tomography.fidelity_matrix.estimates", "count"),
    ("experiments.write_series.bytes", "bytes"),
    ("linalg.eigh_batch.matrices", "count"),
)


def setup():
    """Import chaostomo from the checkout's ``src/`` and build the d = 21 basis."""
    src = ROOT / "src"
    if not (src / "chaostomo" / "__init__.py").is_file():
        raise SystemExit(f"no chaostomo package under {src}")
    sys.path.insert(0, str(src))
    import chaostomo

    chaostomo.hermitian_basis(chaostomo.SpinParams(SETUP_SPIN))
    return chaostomo


def latency_summary(samples) -> dict:
    """Median and sample count, plus the highest of p75, p90 and p99 that has
    at least ten samples beyond it. Below 40 samples that is the median alone."""
    n = len(samples)
    out = {"n": n, "p50": statistics.median(samples)}
    for p in (99, 90, 75):
        if n * (100 - p) >= 1000:
            out[f"p{p}"] = statistics.quantiles(samples, n=100, method="inclusive")[p - 1]
            break
    return out


def per_layer_metrics(tracer, passes: int, estimates: int, overhead_s: float, coverage: float) -> dict:
    """Per-layer figures per traced round, as ``name -> (value, unit)``."""
    out = {}
    for span in SPANS:
        if span in CALL_COUNTS:
            out[f"{span}.calls"] = (tracer.calls[span] / passes, "count")
        out[f"{span}.s"] = (tracer.total_s[span] / passes, "s")
    for span in SELF_SPANS:
        out[f"{span}.self_s"] = (tracer.self_s[span] / passes, "s")
    for name, unit in WORK_COUNTS:
        out[name] = (tracer.counts[name] / passes, unit)
    matrices = tracer.counts["linalg.eigh_batch.matrices"] / passes
    out["linalg.eigh_batch.matrices_per_estimate"] = (matrices / estimates if estimates else 0.0, "ratio")
    out["trace.overhead_s"] = (overhead_s, "s")
    out["trace.coverage"] = (coverage, "ratio")
    return out


def measure(workload, ct, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    """Run whole rounds until ``seconds`` have passed, then check them all.

    Round r uses master seed 1000 * seed + r. With ``trace`` every round runs
    twice on the same inputs, untraced then traced, so the difference of the
    two times is the tracing overhead.
    """
    ctx = workload.prepare(ct)
    tracer = Tracer(workload.d)
    walls, traced_walls, outputs = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - start < seconds:
        master = 1000 * seed + r
        for traced in (False, True) if trace else (False,):
            round_dir = out_dir / f"{master}{'-traced' if traced else ''}"
            if traced:
                tracer.install()
            t0 = time.perf_counter()
            try:
                output = workload.run_round(ct, ctx, master, round_dir)
            except Exception:  # one failed round: counted, and the run goes on
                traceback.print_exc()
                output = None
            finally:
                elapsed = time.perf_counter() - t0
                if traced:
                    tracer.uninstall()
            (traced_walls if traced else walls).append(elapsed)
            outputs.append((master, output))
            attempted += workload.ops_per_round
        r += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems = []
    correct = True
    for master, output in outputs:
        if output is None:
            found = ["exception, see stderr"]
        else:
            found = workload.check(master, output)
            correct = correct and not found
        if found:
            failed += workload.ops_per_round
            problems += [f"master seed {master}: {p}" for p in found]

    info = {"rounds": r, "problems": problems[:10]}
    if isinstance(ctx, dict) and ctx.get("latency_s"):
        info["reconstruct_ms"] = latency_summary([t * 1000 for t in ctx["latency_s"]])
    if trace:
        passes = len(traced_walls)
        overhead = (sum(traced_walls) - sum(walls)) / passes
        coverage = tracer.top_level_s / sum(traced_walls)
        metrics = per_layer_metrics(tracer, passes, workload.estimates_per_round, overhead, coverage)
        if tracer.calls["linalg.eigh_other"]:
            info["eigh_other_calls"] = tracer.calls["linalg.eigh_other"] / passes
    else:
        metrics = {"wall_s": (statistics.median(walls), "s"), "peak_rss_mb": (peak_rss_mb, "MB")}
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "info": info,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--probe", type=float)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.probe is not None:
        setup()
        print(time.monotonic() - args.probe)
        return 0

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    ct = setup()
    out_dir = OUT_ROOT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(out_dir, ignore_errors=True)
    try:
        result = measure(workload, ct, args.seed, args.seconds, bool(args.trace), out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
