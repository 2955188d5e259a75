"""Benchmark command for chaostomo.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (or, with ``--workload all``, the default, each in turn)
in a process of its own with BLAS pinned to one thread, checks its outputs,
and prints its metrics by name with their units. The last line of a
single-workload run is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics are
the end-to-end ones; with ``--trace 1`` the per-layer ones from a traced run.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep_batched", "sweep_resampled", "single_shot", "diagnostics")
# Set-up is timed in this many fresh processes; the median is reported.
SETUP_PROBES = 5
# One BLAS thread: at two threads the package's projection takes a different
# path on hard inputs, and the machine has two cores (see README.md).
BLAS_THREADS = "1"
DEADLINE_S = 170.0


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _harness(args: list[str], env: dict, deadline: float) -> str:
    done = subprocess.run(
        [sys.executable, str(HERE / "harness.py"), *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(deadline - time.monotonic(), 1.0), check=True,
    )
    return done.stdout.strip().splitlines()[-1]


def setup_seconds(env: dict, deadline: float) -> float:
    """Median time from process start through import and the d = 21 basis."""
    samples = []
    for _ in range(SETUP_PROBES):
        samples.append(float(_harness(["--probe", repr(time.monotonic())], env, deadline)))
    return statistics.median(samples)


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    env = _child_env()
    metrics = {}
    if not trace:
        metrics["setup_s"] = {"value": setup_seconds(env, deadline), "unit": "s"}
    result = json.loads(
        _harness(["--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                 env, deadline)
    )
    metrics.update(result["metrics"])
    info = result["info"]
    verdict = "outputs correct" if result["correct"] else "OUTPUTS WRONG"
    print(f"{name} seed {seed}{' traced' if trace else ''}: {info['rounds']} rounds, "
          f"{result['attempted']} operations attempted, {result['failed']} failed, {verdict}")
    for problem in info["problems"]:
        print(f"  problem: {problem}")
    for metric, entry in metrics.items():
        print(f"  {metric:45s} {entry['value']:.6g} {entry['unit']}")
    if "reconstruct_ms" in info:
        summary = info["reconstruct_ms"]
        tail = ", ".join(f"{k} {v:.1f} ms" for k, v in summary.items() if k != "n")
        print(f"  reconstruct latency: {tail} (n = {summary['n']})")
    if "eigh_other_calls" in info:
        print(f"  eigh calls of other shapes per round: {info['eigh_other_calls']}")
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "chaostomo" / "__init__.py").is_file():
        print(f"run.py: no chaostomo package under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, args.trace)
            print(json.dumps(result), flush=True)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"run.py: workload failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
