"""Benchmark of csviu: one command per workload, results as one JSON line.

    python3 perfbench/run.py --workload synthesis --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The load is a closed loop: one caller in this process makes pass
after pass over the workload's seeded inputs until ``--seconds`` have gone
by (at least two passes, so the outputs can be compared bit for bit).
BLAS runs on one thread.

With ``--trace 0`` the last line of standard output carries the end-to-end
metrics; with ``--trace 1`` untraced and traced passes alternate and it
carries the per-layer metrics.  Any failed operation or check makes the
exit code 1; a checkout without the package makes it 2.
"""

from __future__ import annotations

import os

# pin BLAS before numpy is first imported, in this process and in the
# import-timing subprocesses that inherit the environment
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3  # before the first pass; one more follows every pass
MIN_PASSES = 2
IMPORT_PROBE = (
    "import time, sys\n"
    "t = time.perf_counter()\n"
    "import csviu\n"
    "sys.stdout.write(repr(time.perf_counter() - t))\n"
)

sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import timing  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402



def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="problem sizes; tiny is for the self-test")
    parser.add_argument("--spans", default=None,
                        help="write the last traced pass's spans to this JSON-lines file")
    return parser.parse_args(argv)


def import_seconds() -> float:
    """Time ``import csviu`` in a fresh interpreter (numpy included)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout)


def machine_record(args, size) -> dict:
    blas = {}
    try:
        config = np.show_config(mode="dicts")
        blas = {k: config["Build Dependencies"]["blas"].get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        pass
    record = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "seed": args.seed,
        "workload": args.workload,
        "size": args.size,
    }
    if args.workload == "synthesis":
        record["jobs"] = [{"n": n, "m": max(1, n // 4)} for n in size.synthesis_sizes] + [
            {"n": 1, "m": 1, "case": c} for c in ("marginal-a", "marginal-b", "infeasible")]
    elif args.workload == "montecarlo":
        record["jobs"] = [
            {"job": "optimal_norms", "n": 2, "m": 1, "paths": size.mc_paths, "alpha": 0.95},
            {"job": "optimal_norms", "n": 2, "m": 1, "paths": size.mc_paths, "alpha": 1.0},
            {"job": "optimal_norms", "n": 6, "m": 3, "paths": size.mc_paths_n6, "alpha": 0.95},
            {"job": "estimate_energy x2", "n": 2, "m": 1, "paths": size.energy_paths,
             "stages": workloads._energy_horizon(0.95)},
            {"job": "overtaking_compare", "n": 2, "m": 1, "paths": size.overtake_paths,
             "stages": max(size.overtake_grid)},
            {"job": "cli simulate", "n": 2, "m": 1, "paths": size.cli_sim_paths,
             "stages": size.cli_sim_kappa},
        ]
    else:
        record["jobs"] = [
            {"job": "optimal_control", "n": 2, "m": 1, "states": size.control_states},
            {"job": "optimal_control", "n": 6, "m": 3, "states": size.control_states},
            {"job": "sor_solve", "m": "1..6", "instances": size.sor_instances,
             "omegas": list(workloads.OMEGAS)},
            {"job": "cli region", "n": 2, "m": 1, "cells": size.region_res ** 2},
        ]
    return record


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "csviu" / "__init__.py").is_file():
        print(f"error: no csviu package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    size = inputs.TINY if args.size == "tiny" else inputs.FULL
    prepare, run_pass, _ = workloads.WORKLOADS[args.workload]

    scratch_root = HERE / ".tmp"
    scratch_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=scratch_root))
    try:
        # set-up: import the package, then build the inputs, several times
        lib = importlib.import_module("csviu")
        cli = importlib.import_module("csviu.cli")
        ctx = workloads.Context(lib=lib, cli=cli, tmp=tmp, size=size, seed=args.seed)
        import_s, setups = [], []

        def set_up():
            imp = import_seconds()
            start = time.perf_counter()
            data = prepare(ctx)
            setups.append(imp + time.perf_counter() - start)
            import_s.append(imp)
            return data

        for _ in range(SETUP_REPEATS):
            data = set_up()

        kernel = timing.ReferenceKernel()
        passes, traced = [], []
        need = MIN_PASSES * (2 if args.trace else 1)
        deadline = time.perf_counter() + args.seconds
        count = 0
        while True:
            trace_this = args.trace == 1 and count % 2 == 1
            tracer = tracing.Tracer() if trace_this else None
            rec = timing.Pass(tracer, None if trace_this else kernel)
            if tracer is not None:
                tracer.install()
            try:
                run_pass(ctx, data, rec)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            rec.close()
            set_up()  # spreads the set-up samples over the run
            (traced if trace_this else passes).append(rec)
            count += 1
            if count >= need and time.perf_counter() >= deadline:
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass

    every = passes + traced
    failures = [f for rec in every for f in rec.failures]
    reference = dict(every[0].fingerprints)
    for rec in every[1:]:
        for name, digest in rec.fingerprints:
            if name in reference and reference[name] != digest:
                failures.append(f"{name}: output differs between passes")
    attempted = sum(rec.attempted for rec in every)
    failed = len(failures)

    med = statistics.median
    if args.trace == 0:
        values = workloads.summarize(args.workload, timing.median_pass(passes, in_ref=True))
        values["setup_s"] = med(setups)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        layers = [tracing.layer_metrics(rec.tracer) for rec in traced]
        values = {key: med([layer[key] for layer in layers]) for key in layers[0]}
        values.update(workloads.job_figures(args.workload, timing.median_pass(passes)))
        values["import_s"] = med(import_s)
        values["ref_s"] = med([r for rec in passes for r in rec.refs])
        values["fail_frac"] = failed / attempted
        values["trace.wall_s"] = timing.median_pass(traced).wall
        values["trace.overhead_s"] = values["trace.wall_s"] - timing.median_pass(passes).wall
        if args.spans:
            traced[-1].tracer.write_spans(args.spans)

    record = machine_record(args, size)
    record["pass_wall_s"] = [rec.wall for rec in passes]
    record["traced_pass_wall_s"] = [rec.wall for rec in traced]
    record["group_s"] = {g: [rec.groups[g] for rec in passes] for g in passes[0].groups}
    record["ref_s"] = [med(rec.refs) for rec in passes]
    record["failures"] = failures[:20]
    record["notes"] = every[0].notes[:20]
    print(json.dumps({"run": record}), file=sys.stderr)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(values):
        raise SystemExit(f"metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(values))}")
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
