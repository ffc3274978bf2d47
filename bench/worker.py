"""One workload process: set up, run whole rounds in a closed loop, check.

Started by ``run.py`` with the BLAS thread count already fixed in its
environment.  Prints one JSON object as its last stdout line.  With
``--setup-only`` it stops once it is ready for the first operation, so
``run.py`` can time set-up more than once per run.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(BENCH))
from spans import Tracer  # noqa: E402  (stdlib only; loaded before numpy)

# per-layer metric -> (unit, span name, per-op aggregate; see Tracer.per_op)
OP_LAYERS = {
    "cli.simulate.s": ("s", "cli.simulate", "self"),
    "dynamics.detected_stokes.s": ("s", "dynamics.detected_stokes", "total"),
    "dynamics.solver.s": ("s", "dynamics.solver", "total"),
    "dynamics.solver.calls": ("count", "dynamics.solver", "calls"),
    "dynamics.rhs_calls": ("count", "dynamics.solver", "nfev"),
    "dynamics.assembly.s": ("s", "dynamics.detected_stokes", "self"),
    "geometry.nodes": ("count", "dynamics.detected_stokes", "nodes"),
    "cli.campaign.s": ("s", "cli.campaign", "self"),
    "cli.analyze.s": ("s", "cli.analyze", "self"),
    "cli.reproduce-fig2.s": ("s", "cli.reproduce-fig2", "self"),
    "cli.reproduce-fig3.s": ("s", "cli.reproduce-fig3", "self"),
    "cli.control-run.s": ("s", "cli.control-run", "self"),
    "experiment.generate_correlation_campaign.s": ("s", "experiment.generate_correlation_campaign", "total"),
    "experiment.generate_correlation_campaign.calls": ("count", "experiment.generate_correlation_campaign", "calls"),
    "experiment.write_campaign_csv.s": ("s", "experiment.write_campaign_csv", "total"),
    "experiment.write_campaign_csv.bytes": ("B", "experiment.write_campaign_csv", "bytes"),
    "experiment.read_campaign_csv.s": ("s", "experiment.read_campaign_csv", "total"),
    "experiment.read_campaign_csv.records": ("count", "experiment.read_campaign_csv", "records"),
    "analysis.linear_regression.calls": ("count", "analysis.linear_regression", "calls"),
    "analysis.fit_saturation.s": ("s", "analysis.fit_saturation", "total"),
    "config.write_manifest.s": ("s", "config.write_manifest", "total"),
    "trace.spans": ("count", None, "spans"),
}
# every per-layer metric -> unit, including the set-up ones
LAYER_UNITS = {
    "import.s": "s", "atom.build.s": "s", "setup.rss_mb": "MB", "traced.op_s.p50": "s",
    **{name: unit for name, (unit, _, _) in OP_LAYERS.items()},
}
UNITS = {"op_s.p50": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB", **LAYER_UNITS}


def _now():
    # CLOCK_MONOTONIC is system-wide on Linux, so run.py can compare it
    # with its own reading taken just before it started this process
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _install_spans(tracer, mods):
    """Wrap each layer's public functions; return the span names wrapped."""
    atom, cli, dynamics, experiment, analysis = mods

    def nodes(counters, res):
        counters["nodes"] = int(res.grid.r.size)

    def nfev(counters, sol):
        counters["nfev"] = int(sol.nfev)

    def nbytes(counters, text):
        counters["bytes"] = len(text.encode())

    def records(counters, res):
        counters["records"] = len(res[0])

    wraps = [
        (cli, "main", lambda argv, *_: f"cli.{argv[0]}", None),
        (cli, "write_manifest", "config.write_manifest", None),  # as cli calls it
        (atom, "build_level_scheme", "atom.build", None),
        (atom, "build_dipole_operators", "atom.build", None),
        (dynamics, "detected_stokes", "dynamics.detected_stokes", nodes),
        (dynamics, "solve_ivp", "dynamics.solver", nfev),
        (experiment, "generate_correlation_campaign", "experiment.generate_correlation_campaign", None),
        (experiment, "write_campaign_csv", "experiment.write_campaign_csv", nbytes),
        (experiment, "read_campaign_csv", "experiment.read_campaign_csv", records),
        (analysis, "linear_regression", "analysis.linear_regression", None),
        (analysis, "fit_saturation", "analysis.fit_saturation", None),
    ]
    cli_spans = [span for _, span, _ in OP_LAYERS.values() if span and span.startswith("cli.")]
    wrapped = set()
    for module, attr, name, hook in wraps:
        if tracer.wrap(module, attr, name, hook):
            wrapped.update(cli_spans if callable(name) else [name])
    return wrapped


def per_layer(tracer, wrapped, ops, op_s):
    """Median over the run's operations of each layer's per-op value.

    A layer whose hook point no longer exists in the package is left out
    (absent), not reported as zero.
    """
    metrics = {"traced.op_s.p50": statistics.median(op_s)}
    spans_per_op = {}
    for s in tracer.spans:
        spans_per_op[s[2]] = spans_per_op.get(s[2], 0) + 1
    for name, (_, span, kind) in OP_LAYERS.items():
        if kind == "spans":
            by_op = spans_per_op
        elif span in wrapped:
            by_op = tracer.per_op(span, kind)
        else:
            continue
        metrics[name] = statistics.median(by_op.get(op, 0) for op in ops)
    return metrics


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    tracer = Tracer()
    t_import = time.perf_counter()
    import numpy as np
    import scipy
    import sympy  # noqa: F401  (atom's coupling coefficients)
    from nlfaraday import analysis, atom, cli, dynamics, experiment
    from nlfaraday.exceptions import NlfaradayError
    import workloads
    import_s = time.perf_counter() - t_import
    src = ROOT / "src"
    if src not in Path(atom.__file__).resolve().parents:
        sys.exit(f"bench: nlfaraday imported from {atom.__file__}, not from {src}")

    wrapped = set()
    if args.trace:
        wrapped = _install_spans(tracer, (atom, cli, dynamics, experiment, analysis))
    ops = atom.build_dipole_operators(atom.build_level_scheme())
    work = workloads.make(args.workload, ops)
    round_inputs = work.make_round(np.random.default_rng(args.seed))
    ready_at = _now()
    setup_rss = _rss_mb()
    if args.setup_only:
        print(json.dumps({"ready_at": ready_at}))
        return 0

    print(
        f"bench: {args.workload} seed={args.seed} python={platform.python_version()} "
        f"numpy={np.__version__} scipy={scipy.__version__} nproc={os.cpu_count()} "
        f"blas_threads={os.environ.get('OPENBLAS_NUM_THREADS')}",
        file=sys.stderr,
    )
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    op_s, pairs, problems, op_ids = [], [], [], []
    attempted = failed = 0
    t_start = time.perf_counter()
    try:
        while True:
            for inp in round_inputs:
                out = workdir / f"op{attempted}"
                tracer.op = attempted
                attempted += 1
                t0 = time.perf_counter()
                try:
                    result = work.run(inp, out)
                except (workloads.OpFailed, NlfaradayError) as exc:
                    failed += 1
                    print(f"bench: operation {attempted - 1} failed: {exc}", file=sys.stderr)
                    continue
                finally:
                    tracer.op = None
                op_s.append(time.perf_counter() - t0)
                op_ids.append(attempted - 1)
                res = work.collect(inp, out, result)
                problems += work.check(inp, res)
                if hasattr(work, "check_run"):
                    pairs.append((inp, res))
                shutil.rmtree(out, ignore_errors=True)
                # SciPy's solver objects sit in reference cycles (~15 MB per
                # 9x9 solve); free them now, untimed, so the next operation
                # and the peak RSS do not depend on when the collector runs
                gc.collect()
            if time.perf_counter() - t_start >= args.seconds:
                break
        if hasattr(work, "check_run"):
            problems += work.check_run(pairs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for msg in problems:
        print(f"bench: check failed: {msg}", file=sys.stderr)
    if not op_s:
        sys.exit(f"bench: all {attempted} operations failed")

    if args.trace:
        metrics = per_layer(tracer, wrapped, op_ids, op_s)
        metrics["import.s"] = import_s
        metrics["setup.rss_mb"] = setup_rss
        if "atom.build" in wrapped:
            metrics["atom.build.s"] = tracer.per_op("atom.build", "total").get(None, 0.0)
        tracer.write(
            OUT / f"trace-{args.workload}-seed{args.seed}.jsonl",
            {"workload": args.workload, "seed": args.seed, "ops": len(op_s),
             "python": platform.python_version(), "numpy": np.__version__,
             "scipy": scipy.__version__, "nproc": os.cpu_count(),
             "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")},
        )
    else:
        metrics = {
            "op_s.p50": statistics.median(op_s),
            "ops_per_s": len(op_s) / sum(op_s),
            "peak_rss_mb": _rss_mb(),
        }
    print(json.dumps({
        "ready_at": ready_at,
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
