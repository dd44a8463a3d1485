"""Benchmark worker: one fresh interpreter per setup sample or measured run.

Usage (started by run.py, with src/ on PYTHONPATH):

    python3 perfbench/worker.py '<json spec>'

The worker imports hankellab, runs the workload's warm-up, prints ``READY``
and, unless the spec's mode is ``setup``, runs the measured iterations.  Its
last stdout line is one JSON object with the iteration times, the digests of
the CSV rows each iteration wrote, any experiment errors, ``ru_maxrss`` and
the run environment.  Modes:

    setup   stop after READY
    e2e     repeat the workload until ``seconds`` would be exceeded
    trace   one untraced and one traced iteration at the seed, plus one
            untraced iteration at the default seed for the row digests
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import sys
import time
import traceback

import workloads

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "HANKELLAB_THREADS")


def run_iteration(experiments, calls, seed, out_dir):
    """Run the call list once.

    Returns (wall seconds, {experiment: seconds}, {experiment: error})."""
    errors, times = {}, {}
    t0 = time.perf_counter()
    for name, params in calls:
        started = time.perf_counter()
        try:
            config = experiments.ExperimentConfig(name, seed=seed,
                                                  params=params)
            experiments.run_experiment(config).write(out_dir)
        except Exception as exc:    # the benchmark counts the rows as failed
            errors[name] = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        times[name] = time.perf_counter() - started
    return time.perf_counter() - t0, times, errors


def row_digests(calls, out_dir):
    digests = {}
    for name, _ in calls:
        path = os.path.join(out_dir, name + "_rows.csv")
        if os.path.exists(path):
            with open(path, "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def environment(seed):
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version",
                                         "openblas configuration")}
    except (TypeError, KeyError):   # older numpy has no dict mode
        blas = None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "machine": platform.machine(),
        "seed": seed,
    }


def main(argv):
    spec = json.loads(argv[1])
    from hankellab import experiments

    workload, seed, out_dir = spec["workload"], spec["seed"], spec["out_dir"]
    # the warm-up inputs are fixed, so set-up time does not depend on --seed
    _, _, warm_errors = run_iteration(
        experiments, workloads.calls(workload, "warmup"),
        workloads.DEFAULT_SEED, os.path.join(out_dir, "warmup"))
    if warm_errors:
        raise RuntimeError(f"warm-up failed: {warm_errors}")
    print("READY", flush=True)
    if spec["mode"] == "setup":
        return 0

    calls = workloads.calls(workload, spec["size"])
    result = {"walls": [], "experiment_walls": [], "minor_faults": [],
              "digests": [], "errors": []}

    def iteration(run_seed, run_dir):
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        wall, times, errors = run_iteration(experiments, calls, run_seed,
                                            run_dir)
        result["minor_faults"].append(
            resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults)
        result["walls"].append(wall)
        result["experiment_walls"].append(times)
        result["errors"].append(errors)
        result["digests"].append(row_digests(calls, run_dir))
        return wall

    if spec["mode"] == "e2e":
        began = time.perf_counter()
        while True:
            wall = iteration(seed, out_dir)
            if time.perf_counter() - began + wall > spec["seconds"]:
                break
    elif spec["mode"] == "trace":
        import tracer
        untraced = iteration(seed, out_dir)
        trace = tracer.Tracer()
        trace.install()
        try:
            traced = iteration(seed, out_dir)
        finally:
            trace.uninstall()
        trace.write_spans(os.path.join(out_dir, "spans.csv"))
        result["trace"] = {
            name: list(value) for name, value in trace.metrics(
                traced, untraced, experiments.EXPERIMENT_NAMES).items()}
        if seed == workloads.DEFAULT_SEED:
            result["default_digests"] = result["digests"][0]
        else:
            default_dir = os.path.join(out_dir, "default_seed")
            _, _, errors = run_iteration(experiments, calls,
                                         workloads.DEFAULT_SEED, default_dir)
            result["default_digests"] = (
                {} if errors else row_digests(calls, default_dir))
    else:
        raise ValueError(f"unknown mode {spec['mode']!r}")

    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["env"] = environment(seed)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
