"""Outside-in tracer for the traced benchmark run.

The tracer changes nothing under src/.  It rebinds every public function of
the library's layer modules, plus ``TruncationSpec.weights``,
``run_experiment`` and ``ExperimentReport.write``, to a timing wrapper.  It
does so at every import site: each ``hankellab.*`` module attribute (and the
package namespace) that is bound to an original function is rebound to the
wrapper, so calls from ``experiments``, from ``opnorm`` into ``spaces`` and
from inside a module itself are all seen.  ``_RUNNERS`` holds the runner
functions directly, so the experiment layer is timed at ``run_experiment``.

Each call becomes one span ``[name, start, end, parent, extra]`` kept in
memory; ``write_spans`` writes them out after the run.  A span's self time is
its duration minus the time its child spans cover.  Minor page faults are
read with ``getrusage`` only around the large-array kernels.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import resource
import sys
import threading
import time

LAYERS = ("experiments", "reporting", "opnorm", "hankel", "spaces",
          "trigpoly", "bilinear")
# modules whose public functions are all traced
TRACED_MODULES = ("trigpoly", "hankel", "spaces", "bilinear", "opnorm",
                  "reporting")
FAULT_KERNELS = frozenset({"trigpoly.eval_grid", "bilinear.pv_quadrature",
                           "opnorm.section_norm_2_2"})
COMPLEX_BYTES = 16


def _span_of(poly):
    return max(int(poly.span), 1)


def _section_norm(args, kwargs, result):
    section = args[0] if args else kwargs["section"]
    entries = getattr(section, "entries", section)
    # bytes computed from the array shape as complex128, not measured
    nbytes = int(entries.size) * COMPLEX_BYTES
    return (result.iterations, not result.converged,
            result.iterations * 2 * nbytes)


def _ratio_search(args, kwargs, result):
    return result.iterations


def _weights(args, kwargs, result):
    return int(result.size)


def _sup_norm(args, kwargs, result):
    f = args[0] if args else kwargs["f"]
    _, grid, converged = result
    return grid / _span_of(f), not converged


def _hardy_norm(args, kwargs, result):
    f = args[0] if args else kwargs["f"]
    return result.grid_size / _span_of(f)


def _eval_grid(args, kwargs, result):
    grid = args[1] if len(args) > 1 else kwargs["grid"]
    return grid.size


def _pv_quadrature(args, kwargs, result):
    return int(args[3] if len(args) > 3 else kwargs["G"])


def _run_experiment(args, kwargs, result):
    config = args[0] if args else kwargs["config"]
    return config.experiment


def _report_write(args, kwargs, result):
    report, out_dir = args[0], args[1] if len(args) > 1 else kwargs["out_dir"]
    prefix = report.experiment + "_"
    return sum(entry.stat().st_size for entry in os.scandir(out_dir)
               if entry.name.startswith(prefix))


COLLECTORS = {
    "opnorm.section_norm_2_2": _section_norm,
    "opnorm.ratio_search_qp": _ratio_search,
    "hankel.TruncationSpec.weights": _weights,
    "spaces.sup_norm": _sup_norm,
    "spaces.hardy_norm": _hardy_norm,
    "trigpoly.eval_grid": _eval_grid,
    "bilinear.pv_quadrature": _pv_quadrature,
    "experiments.run_experiment": _run_experiment,
    "reporting.ExperimentReport.write": _report_write,
}


class Tracer:
    """Install with ``install()``, run the workload, then ``uninstall()``."""

    def __init__(self):
        self.spans = []
        self.faults = {}            # span index -> minor faults inside it
        self._local = threading.local()
        self._undo = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        spans = self.spans
        faults = self.faults
        stack_of = self._stack
        collect = COLLECTORS.get(name)
        count_faults = name in FAULT_KERNELS
        clock = time.perf_counter
        getrusage = resource.getrusage
        self_usage = resource.RUSAGE_SELF

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            index = len(spans)
            spans.append(record)
            stack.append(index)
            if count_faults:
                before = getrusage(self_usage).ru_minflt
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if count_faults:
                faults[index] = getrusage(self_usage).ru_minflt - before
            if collect is not None:
                record[4] = collect(args, kwargs, result)
            return result

        return traced

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        wrappers = {}           # id(original) -> (original, wrapper)
        for short in TRACED_MODULES:
            module = importlib.import_module("hankellab." + short)
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[id(fn)] = (fn, self._wrap(f"{short}.{attr}", fn))
        experiments = importlib.import_module("hankellab.experiments")
        fn = experiments.run_experiment
        wrappers[id(fn)] = (fn, self._wrap("experiments.run_experiment", fn))

        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "hankellab"
                                      or modname.startswith("hankellab.")):
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    self._undo.append((module, attr, value))

        hankel = importlib.import_module("hankellab.hankel")
        for cls, attr, name in (
                (hankel.TruncationSpec, "weights",
                 "hankel.TruncationSpec.weights"),
                (experiments.ExperimentReport, "write",
                 "reporting.ExperimentReport.write")):
            original = cls.__dict__[attr]
            setattr(cls, attr, self._wrap(name, original))
            self._undo.append((cls, attr, original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------------

    def self_times(self):
        """Per-span self time: duration minus the time child spans cover."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i]
                for i, (_, start, end, _, _) in enumerate(self.spans)]

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            t0 = self.spans[0][1] if self.spans else 0.0
            for i, (name, start, end, parent, _) in enumerate(self.spans):
                fh.write(f"{i},{name},{start - t0!r},{end - t0!r},{parent}\n")

    def metrics(self, traced_wall, untraced_wall, experiment_names):
        """Per-layer metrics of the traced run, keyed as in BENCHMARK.json."""
        selfs = self.self_times()
        calls, self_s, total_s = {}, {}, {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        exp_wall = dict.fromkeys(experiment_names, 0.0)
        sweeps = nonconv_sections = section_bytes = evals = entries = 0
        sup_ratio, sup_nonconv, hardy_ratio = [], 0, []
        grid_points = pv_points = report_bytes = 0
        faults = dict.fromkeys(FAULT_KERNELS, 0)
        for i, (name, start, end, _, extra) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + selfs[i]
            total_s[name] = total_s.get(name, 0.0) + (end - start)
            layer_self[name.split(".", 1)[0]] += selfs[i]
            if i in self.faults:
                faults[name] += self.faults[i]
            if extra is None:
                continue
            if name == "opnorm.section_norm_2_2":
                sweeps += extra[0]
                nonconv_sections += extra[1]
                section_bytes += extra[2]
            elif name == "opnorm.ratio_search_qp":
                evals += extra
            elif name == "hankel.TruncationSpec.weights":
                entries += extra
            elif name == "spaces.sup_norm":
                sup_ratio.append(extra[0])
                sup_nonconv += extra[1]
            elif name == "spaces.hardy_norm":
                hardy_ratio.append(extra)
            elif name == "trigpoly.eval_grid":
                grid_points += extra
            elif name == "bilinear.pv_quadrature":
                pv_points += extra
            elif name == "reporting.ExperimentReport.write":
                report_bytes += extra
            elif name == "experiments.run_experiment":
                exp_wall[extra] = exp_wall.get(extra, 0.0) + (end - start)

        def per_call(values):
            return sum(values) / len(values) if values else 0.0

        def ratio(num, den):
            return num / den if den else 0.0

        def c(name):
            return calls.get(name, 0)

        def s(name):
            return self_s.get(name, 0.0)

        sec, grid, pv = ("opnorm.section_norm_2_2", "trigpoly.eval_grid",
                         "bilinear.pv_quadrature")
        out = {
            "opnorm.section_norm_2_2.calls": (c(sec), "count"),
            "opnorm.section_norm_2_2.self_s": (s(sec), "s"),
            "opnorm.section_norm_2_2.sweeps": (sweeps, "count"),
            "opnorm.section_norm_2_2.us_per_sweep":
                (ratio(1e6 * s(sec), sweeps), "us"),
            "opnorm.section_norm_2_2.gb_per_s_computed":
                (ratio(section_bytes / 1e9, s(sec)), "GB/s"),
            "opnorm.section_norm_2_2.nonconverged":
                (nonconv_sections, "count"),
            "opnorm.section_norm_2_2.minor_faults": (faults[sec], "count"),
            "opnorm.ratio_search_qp.calls":
                (c("opnorm.ratio_search_qp"), "count"),
            "opnorm.ratio_search_qp.self_s":
                (s("opnorm.ratio_search_qp"), "s"),
            "opnorm.ratio_search_qp.evals": (evals, "count"),
            "hankel.TruncationSpec.weights.calls":
                (c("hankel.TruncationSpec.weights"), "count"),
            "hankel.TruncationSpec.weights.self_s":
                (s("hankel.TruncationSpec.weights"), "s"),
            "hankel.TruncationSpec.weights.entries": (entries, "count"),
            "hankel.matrix_section.self_s": (s("hankel.matrix_section"), "s"),
            "spaces.sup_norm.calls": (c("spaces.sup_norm"), "count"),
            "spaces.sup_norm.self_s": (s("spaces.sup_norm"), "s"),
            "spaces.sup_norm.grid_per_span": (per_call(sup_ratio), "ratio"),
            "spaces.sup_norm.nonconverged": (sup_nonconv, "count"),
            "spaces.hardy_norm.calls": (c("spaces.hardy_norm"), "count"),
            "spaces.hardy_norm.self_s": (s("spaces.hardy_norm"), "s"),
            "spaces.hardy_norm.grid_per_span":
                (per_call(hardy_ratio), "ratio"),
            "spaces.lipschitz_norm.calls":
                (c("spaces.lipschitz_norm"), "count"),
            "spaces.lipschitz_norm.self_s": (s("spaces.lipschitz_norm"), "s"),
            "trigpoly.eval_grid.calls": (c(grid), "count"),
            "trigpoly.eval_grid.self_s": (s(grid), "s"),
            "trigpoly.eval_grid.points": (grid_points, "count"),
            "trigpoly.eval_grid.ns_per_point":
                (ratio(1e9 * s(grid), grid_points), "ns"),
            "trigpoly.eval_grid.minor_faults": (faults[grid], "count"),
            "bilinear.pv_quadrature.calls": (c(pv), "count"),
            "bilinear.pv_quadrature.self_s": (s(pv), "s"),
            "bilinear.pv_quadrature.points": (pv_points, "count"),
            "bilinear.pv_quadrature.minor_faults": (faults[pv], "count"),
            "hankel.hankel_apply.calls": (c("hankel.hankel_apply"), "count"),
            "hankel.hankel_apply.self_s": (s("hankel.hankel_apply"), "s"),
            "hankel.truncated_apply.calls":
                (c("hankel.truncated_apply"), "count"),
            "hankel.truncated_apply.self_s":
                (s("hankel.truncated_apply"), "s"),
            "hankel.multilinear_truncated_apply.self_s":
                (s("hankel.multilinear_truncated_apply"), "s"),
            "bilinear.bht_mu_fourier.self_s":
                (s("bilinear.bht_mu_fourier"), "s"),
            "bilinear.link_identity_check.self_s":
                (s("bilinear.link_identity_check"), "s"),
            "reporting.write_s":
                (total_s.get("reporting.ExperimentReport.write", 0.0), "s"),
            "reporting.bytes": (report_bytes, "bytes"),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (layer_self[layer], "s")
        for name in sorted(exp_wall):
            out[f"experiments.{name}.wall_s"] = (exp_wall[name], "s")
        out["trace.spans"] = (len(self.spans), "count")
        out["trace.wall_s"] = (traced_wall, "s")
        out["trace.accounted_frac"] = (
            ratio(sum(layer_self.values()), traced_wall), "ratio")
        out["trace.overhead_frac"] = (
            ratio(traced_wall, untraced_wall) - 1.0, "ratio")
        return out
