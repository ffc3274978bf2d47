"""Benchmark of the nlfaraday package; run from the repository root.

    python3 bench/run.py --workload nonlinear-probe --seed 1 --seconds 20 --trace 0

Workloads: nonlinear-probe, linear-probe, calibration-pipeline (see
README.md).  With ``--trace 0`` the last stdout line is the JSON result
with the end-to-end metrics (setup_s, op_s.p50, ops_per_s, peak_rss_mb);
with ``--trace 1`` it holds the per-layer metrics of a traced run, whose
spans go to ``.bench_out/trace-<workload>-seed<seed>.jsonl``.

This process only starts others: ``SETUP_SAMPLES - 1`` set-up-only
workers, then the workload worker.  ``setup_s`` is the median of their
start-to-ready times.  Every worker gets the package from ``src/`` and a
fixed BLAS thread count.
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

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("nonlinear-probe", "linear-probe", "calibration-pipeline")
SETUP_SAMPLES = 3
BLAS_THREADS = 1      # the RHS works on 24x24 blocks; more threads only add noise
DEADLINE_S = 170.0    # the whole run, set-up workers included


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _worker(args, deadline, extra=()):
    """Run one worker; return (start time, its JSON result)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    cmd = [
        sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), *extra,
    ]
    started = _now()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        sys.exit(f"bench: worker still running after {DEADLINE_S:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"bench: worker exited with {proc.returncode}")
    return started, json.loads(lines[-1])


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = _now() + DEADLINE_S
    if not (ROOT / "src" / "nlfaraday" / "__init__.py").is_file():
        sys.exit(f"bench: no package source under {ROOT / 'src'}")

    setup = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            started, probe = _worker(args, deadline, ["--setup-only"])
            setup.append(probe["ready_at"] - started)
    started, result = _worker(args, deadline)
    metrics = result["metrics"]
    if not args.trace:
        setup.append(result["ready_at"] - started)
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": dict(sorted(metrics.items())),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
