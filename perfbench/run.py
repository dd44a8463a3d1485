"""hankellab benchmark entry point.

Run from the repository root:

    python3 perfbench/run.py --workload section_sweep --seed 7 \
        --seconds 25 --trace 0

It measures set-up (median over several fresh interpreters that import
hankellab from src/ and run the workload's warm-up), then runs the
workload in one more fresh interpreter for --seconds, checks every CSV row
the workload wrote (perfbench/checks.py) and prints the metrics by name with
their units.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics of a traced run (perfbench/tracer.py) with
--trace 1.  attempted and failed count checked rows; failed_frac is their
ratio.  Outputs go to .perfbench_out/ under the current directory.

    python3 perfbench/run.py --write-reference

stores the row digests of every workload at the default seed in
perfbench/reference.json; traced runs compare against them.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")
SETUP_SAMPLES = 5
RUN_TIMEOUT = 170.0     # seconds for all workers of one run together


class BenchError(RuntimeError):
    pass


def spawn(root, spec, deadline):
    """Start a worker; return (seconds from start to READY, result or None).

    The worker is killed if it outlives `deadline` (a time.monotonic()
    value), and always waited for."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(spec)],
        stdout=subprocess.PIPE, text=True, env=env, cwd=root)
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if line.strip() != "READY" or code != 0:
        raise BenchError(f"worker {spec['mode']} exited with code {code}")
    lines = rest.strip().splitlines()
    return ready, (json.loads(lines[-1]) if lines else None)


def load_reference():
    try:
        with open(REFERENCE) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def count_rows(result, out_dir, expected):
    """(attempted, failed, reasons) over every iteration's rows.

    The rows written last are checked; an earlier iteration whose rows are
    byte-identical shares their verdicts, one that differs or raised counts
    all its rows as failed."""
    import checks
    final = result["digests"][-1]
    verdicts = {}
    attempted = failed = 0
    reasons = []
    for errors, digests in zip(result["errors"], result["digests"]):
        for name, rows in expected.items():
            attempted += rows
            if name in errors:
                failed += rows
                reasons.append(f"{name} raised: {errors[name]}")
            elif name not in digests or digests[name] != final.get(name):
                failed += rows
                reasons.append(f"{name}: rows differ between iterations")
            else:
                if name not in verdicts:
                    verdicts[name] = checks.check_experiment(out_dir, name,
                                                             rows)
                    reasons.extend(verdicts[name][1])
                failed += verdicts[name][0]
    return attempted, failed, reasons


def metric_units(root, key):
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[key]}


def run(args, root):
    reference = load_reference().get(args.size, {}).get(args.workload)
    if reference is None:
        raise BenchError(f"no reference rows for {args.workload} at size "
                         f"{args.size}; run --write-reference first")
    expected = {name: ref["rows"] for name, ref in reference.items()}
    out_dir = os.path.join(root, ".perfbench_out", args.workload)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    spec = {"workload": args.workload, "seed": args.seed,
            "size": args.size, "seconds": args.seconds, "out_dir": out_dir,
            "mode": "setup"}
    deadline = time.monotonic() + RUN_TIMEOUT
    setups = [spawn(root, spec, deadline)[0]
              for _ in range(SETUP_SAMPLES - 1)]
    spec["mode"] = "trace" if args.trace else "e2e"
    ready, result = spawn(root, spec, deadline)
    setups.append(ready)

    sys.path.insert(0, os.path.join(root, "src"))
    attempted, failed, reasons = count_rows(result, out_dir, expected)
    for reason in reasons[:20]:
        print(f"check failed: {reason}")

    if args.trace:
        metrics = {name: value for name, (value, _)
                   in result["trace"].items()}
        metrics["process.peak_rss_mb"] = result["rss_kb"] / 1024.0
        metrics["experiments.rows_identical"] = int(
            result["digests"][0] == result["digests"][1]
            and result["default_digests"]
            == {name: ref["sha256"] for name, ref in reference.items()})
        units = metric_units(root, "per_layer")
    else:
        metrics = {
            "wall_s": statistics.median(result["walls"]),
            "setup_s": statistics.median(setups),
        }
        units = metric_units(root, "end_to_end")
    missing = set(units) - set(metrics)
    if missing:
        raise BenchError(f"metrics not measured: {sorted(missing)}")

    summary = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "trace": args.trace, "iterations": len(result["walls"]),
        "walls_s": result["walls"],
        "experiment_walls_s": result["experiment_walls"],
        "minor_faults": result["minor_faults"],
        "setup_samples_s": setups, "peak_rss_mb": result["rss_kb"] / 1024.0,
        "failed_frac": failed / attempted, "env": result["env"],
    }
    with open(os.path.join(out_dir, "result.json"), "w") as fh:
        json.dump({**summary, "metrics": metrics}, fh, indent=1)
    print("env " + json.dumps(result["env"], sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} size {args.size} "
          f"iterations {len(result['walls'])}")
    for name in units:
        print(f"{name} {metrics[name]} {units[name]}")
    if not args.trace:
        print(f"peak_rss_mb {summary['peak_rss_mb']} MB")
    print(f"failed_frac {failed / attempted} ratio "
          f"({failed} of {attempted} checked rows)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))


def write_reference(root):
    """Digest and count the rows of every workload at the default seed."""
    reference = {}
    for size in workloads.SIZES:
        for workload in workloads.WORKLOADS:
            out_dir = os.path.join(root, ".perfbench_out", "reference",
                                   size, workload)
            shutil.rmtree(out_dir, ignore_errors=True)
            spec = {"workload": workload, "seed": workloads.DEFAULT_SEED,
                    "size": size, "seconds": 0, "out_dir": out_dir,
                    "mode": "e2e"}
            result = spawn(root, spec, time.monotonic() + RUN_TIMEOUT)[1]
            if result["errors"][0]:
                raise BenchError(f"{workload}: {result['errors'][0]}")
            entry = reference.setdefault(size, {}).setdefault(workload, {})
            for name, _ in workloads.calls(workload, size):
                with open(os.path.join(out_dir, name + "_rows.csv")) as fh:
                    rows = sum(1 for _ in fh) - 1
                entry[name] = {"rows": rows,
                               "sha256": result["digests"][0][name]}
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help="tiny is for the smoke test")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "hankellab",
                                       "__init__.py")):
        print("perfbench: src/hankellab not found; run from the repository "
              "root", file=sys.stderr)
        return 2
    try:
        if args.write_reference:
            write_reference(root)
        elif args.workload is None:
            parser.error("--workload is required")
        else:
            run(args, root)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
