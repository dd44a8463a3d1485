"""Smoke test of the benchmark at tiny sizes.

Run from the repository root, either way:

    python3 perfbench/test_perfbench.py
    python3 -m pytest -q perfbench/test_perfbench.py

It checks that every metric named in BENCHMARK.json is printed with its
unit on every workload, that a deliberately perturbed row is counted as
failed, and that the benchmark refuses to run without the library.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".perfbench_out", "smoke")
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks       # noqa: E402
import workloads    # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(workload, trace, seed=5):
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds",
                 "0.5", "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


def test_every_metric_is_reported_with_its_unit():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            stdout, result = result_of(workload, trace)
            assert sorted(result) == ["attempted", "correct", "failed",
                                      "metrics"]
            assert result["correct"] and result["failed"] == 0
            assert result["attempted"] > 0
            units = {m["name"]: m["unit"] for m in spec[key]}
            assert {name: m["unit"] for name, m in result["metrics"].items()} \
                == units
            for name, unit in units.items():
                assert f"\n{name} " in stdout and f" {unit}\n" in stdout
            assert "\nfailed_frac 0.0 ratio" in stdout
            if trace:
                assert result["metrics"]["experiments.rows_identical"][
                    "value"] == 1


def _perturbed_failures(workload, experiment, pick, change):
    """Failed-row count after rewriting one row of a tiny run's output."""
    result_of(workload, 0)
    out_dir = os.path.join(SCRATCH, workload)
    shutil.rmtree(out_dir, ignore_errors=True)
    shutil.copytree(os.path.join(ROOT, ".perfbench_out", workload), out_dir)
    _, rows = checks.read_rows(out_dir, experiment)
    expected = len(rows)
    clean, _ = checks.check_experiment(out_dir, experiment, expected)
    path = os.path.join(out_dir, experiment + "_rows.csv")
    with open(path) as fh:
        lines = fh.read().splitlines()
    index = pick(rows)
    cells = lines[index + 1].split(",")
    cells[-1] = repr(change(float(cells[-1])))
    lines[index + 1] = ",".join(cells)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    failed, reasons = checks.check_experiment(out_dir, experiment, expected)
    return clean, failed, reasons


def test_perturbed_rows_are_counted_as_failed():
    # a sampled section ratio, 1% off: caught by the dense-norm oracle
    clean, failed, reasons = _perturbed_failures(
        "section_sweep", "truncation_uniformity",
        lambda rows: next(i for i, r in enumerate(rows)
                          if r[0] == "ratio" and r[3] == 0 and r[4] != 1.0),
        lambda v: v * 1.01)
    assert clean == 0 and failed == 1, reasons
    # an identity residual above the experiment's own gate
    clean, failed, reasons = _perturbed_failures(
        "bilinear_check", "identity_suite", lambda rows: 3,
        lambda v: 1e-6)
    assert clean == 0 and failed == 1, reasons
    # a Lipschitz ratio 2% off: caught by the fine-grid block norms
    clean, failed, reasons = _perturbed_failures(
        "norm_sweep", "lemma_lipschitz_sweep", lambda rows: 0,
        lambda v: v * 1.02)
    assert clean == 0 and failed == 1, reasons


def test_row_counts_do_not_depend_on_the_seed():
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)["tiny"]
    for workload in workloads.WORKLOADS:
        result_of(workload, 0, seed=11)
        out_dir = os.path.join(ROOT, ".perfbench_out", workload)
        for name, ref in reference[workload].items():
            assert len(checks.read_rows(out_dir, name)[1]) == ref["rows"]


def test_refuses_to_run_without_the_library():
    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "bilinear_check", "--seed", "1", "--seconds",
                 "1", "--trace", "0", cwd=bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print(f"{name} ok")
