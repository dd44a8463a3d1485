"""Reproducible experiment drivers.

Each experiment is a pure function of its configuration: every random
stream is named by a `[config seed, tag, point indices]` list that
`random_stream` reduces mod 2^32, rows are emitted in fixed loop order,
and the summary is a pure function of the rows (recomputed from them in
the tests).  Reruns therefore produce byte-identical CSV output.

Every experiment is declared once, as an `Experiment` record in the
`EXPERIMENTS` registry at the end of this module.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import yaml

from . import reporting
from .bilinear import (BHTParams, bht_fourier, bht_mu_family,
                       bht_mu_fourier, link_identity_check, pv_quadrature,
                       translation_covariance_check)
from .errors import NonAnalyticError, ParameterError
from .hankel import (TruncationSpec, hankel_apply, matrix_section,
                     multilinear_truncated_apply, truncated_apply,
                     column_truncation_apply, beta_zero_identity_check,
                     beta_minus_one_identity_check)
from .opnorm import (lebesgue_constant, ratio_search_qp, section_norm_2_2,
                     sn_extremal_lower_bound)
from .spaces import (hardy_norms, modulated_norm_ratios, random_symbol,
                     random_symbols)
from .trigpoly import (PRUNE_TOL, Grid, TrigPoly, coeff_distance, eval_grid,
                       flip, multiply, random_poly, random_stream,
                       tail_projection)

__all__ = [
    "Experiment",
    "ExperimentConfig",
    "ExperimentReport",
    "EXPERIMENTS",
    "EXPERIMENT_NAMES",
    "run_experiment",
]

LEBESGUE_TARGET = 4.0 / np.pi ** 2


@dataclass(frozen=True)
class Experiment:
    """Everything the drivers know about one experiment.

    `run(config)` returns the rows, each aligned with `columns`;
    `summarize(params, rows)` returns (summary dict, passed);
    `charts(base, rows)` writes SVGs next to the report files at path prefix
    `base`; `validate(params)` raises ParameterError on values the defaults
    merge cannot catch.
    """
    defaults: dict
    columns: tuple
    run: Callable
    summarize: Callable
    charts: Callable | None = None
    validate: Callable | None = None


_KINDS = {int: ((int, np.integer), "an integer"),
          float: ((int, float, np.integer, np.floating), "a number"),
          str: (str, "a string"),
          list: ((list, tuple), "a list"),
          dict: (dict, "a mapping")}


def _check_type(key, value, default):
    """Return `value` converted to the type of the config default `default`,
    or raise ParameterError: an int key takes an integer, a float key an
    integer, a float or a string that `float` parses (YAML 1.1 reads `1e-6`,
    with no dot, as a string), but not NaN, which no gate compares true
    with; list elements are converted as the default's first element, and
    must have its length when it is a list (a (k, l) pair, a spot point),
    and mapping values as its first value."""
    if isinstance(default, float) and isinstance(value, str):
        try:
            value = float(value)
        except ValueError:
            pass
    kinds, what = _KINDS[type(default)]
    if not isinstance(value, kinds) or isinstance(value, bool):
        raise ParameterError(f"config key {key!r} must be {what}, "
                             f"got {value!r}")
    if isinstance(default, dict) and default:
        first = next(iter(default.values()))
        return {k: _check_type(key, v, first) for k, v in value.items()}
    if isinstance(default, list) and default:
        items = [_check_type(key, item, default[0]) for item in value]
        if isinstance(default[0], list) and \
                any(len(item) != len(default[0]) for item in items):
            raise ParameterError(f"config key {key!r} needs entries of "
                                 f"length {len(default[0])}, got {value!r}")
        return items
    try:
        value = type(default)(value)
    except OverflowError:
        raise ParameterError(
            f"config key {key!r} is too large for a float") from None
    if value != value:
        raise ParameterError(f"config key {key!r} must not be NaN")
    return value


@dataclass
class ExperimentConfig:
    """A fully-defaulted, validated experiment configuration; each value
    has the type of its default, and `seed` is any integer."""
    experiment: str
    seed: int = 2026
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        spec = EXPERIMENTS.get(self.experiment)
        if spec is None:
            raise ParameterError(
                f"unknown experiment {self.experiment!r}; "
                f"choose from {', '.join(EXPERIMENT_NAMES)}")
        unknown = set(self.params) - set(spec.defaults)
        if unknown:
            raise ParameterError(
                f"unknown config keys for {self.experiment}: "
                f"{', '.join(sorted(unknown))}")
        self.params = {**spec.defaults,
                       **{key: _check_type(key, value, spec.defaults[key])
                          for key, value in self.params.items()}}
        self.seed = _check_type("seed", self.seed, 0)
        if spec.validate is not None:
            spec.validate(self.params)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        d = dict(d)
        name = d.pop("experiment", None)
        if name is None:
            raise ParameterError("config needs an 'experiment' key")
        seed = d.pop("seed", cls.seed)
        return cls(name, seed=seed, params=d)

    @classmethod
    def from_yaml(cls, path) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                data = yaml.safe_load(fh) or {}
        except (OSError, yaml.YAMLError) as exc:
            raise ParameterError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ParameterError("config file must hold a mapping")
        return cls.from_dict(data)

    def to_dict(self) -> dict:
        return {"experiment": self.experiment, "seed": self.seed,
                **self.params}


@dataclass
class ExperimentReport:
    experiment: str
    config: dict
    columns: tuple
    rows: list
    summary: dict
    passed: bool
    wall_clock: float

    def write(self, out_dir):
        os.makedirs(out_dir, exist_ok=True)
        base = os.path.join(out_dir, self.experiment)
        reporting.write_rows_csv(base + "_rows.csv", self.columns, self.rows)
        reporting.write_summary_json(base + "_summary.json", {
            "experiment": self.experiment,
            "config": self.config,
            "summary": self.summary,
            "passed": self.passed,
            "wall_clock_seconds": self.wall_clock,
        })
        charts = EXPERIMENTS[self.experiment].charts
        if charts is not None:
            try:
                charts(base, self.rows)
            except (OSError, ValueError):
                pass    # charts are best-effort; rows and summary are the record
        return base + "_summary.json"


def _max_nan(*xs):
    """max(xs), but NaN if any x is NaN: the built-in max drops a NaN that
    is not first, which would let a NaN residual pass a gate."""
    return math.nan if any(x != x for x in xs) else max(xs)


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    spec = EXPERIMENTS[config.experiment]
    t0 = time.perf_counter()
    rows = spec.run(config)
    summary, passed = spec.summarize(config.params, rows)
    return ExperimentReport(
        experiment=config.experiment,
        config=config.to_dict(),
        columns=spec.columns,
        rows=rows,
        summary=summary,
        passed=passed,
        wall_clock=time.perf_counter() - t0,
    )


def _validate_kl_pairs(*groups):
    for pairs in groups:
        for pair in pairs:
            BHTParams(*pair, 0)    # raises on bad pairs


def _require_at_least(p, **bounds):
    """Raise ParameterError unless each named key, or every entry of a list
    key, is at least its bound."""
    for key, bound in bounds.items():
        entries = p[key] if isinstance(p[key], list) else [p[key]]
        if any(v < bound for v in entries):
            raise ParameterError(f"{key} must be at least {bound}, got "
                                 f"{p[key]!r}")


# ---------------------------------------------------------------------------
# identity_suite
# ---------------------------------------------------------------------------

def _validate_identity_suite(p):
    _require_at_least(p, max_degree=1)
    _validate_kl_pairs(p["kl_pairs"])
    if not any(k + l > 0 for k, l in p["kl_pairs"]):
        raise ParameterError("kl_pairs needs a pair with k + l > 0 for the "
                             "link identity")
    if not p["nu_grid"] or not p["gamma_grid"]:
        raise ParameterError("nu_grid and gamma_grid must be nonempty")


def identity_suite_rows(config: ExperimentConfig) -> list:
    p = config.params
    rows = []
    kl = p["kl_pairs"]
    link_kl = [(k, l) for k, l in kl if k + l > 0 and l != 0]

    for s in range(p["seeds"]):
        rng = random_stream([config.seed, 11, s])
        deg_b = int(rng.integers(1, p["max_degree"] + 1))
        deg_f = int(rng.integers(1, p["max_degree"] + 1))
        b = random_poly(rng, deg_b)
        f = random_poly(rng, deg_f)

        N = int(rng.integers(0, deg_b + deg_f + 2))
        rows.append(("beta_zero", s, f"N={N}",
                     beta_zero_identity_check(b, N, f)))

        N1 = int(rng.integers(1, deg_b + 3))
        rows.append(("beta_minus_one", s, f"N={N1}",
                     beta_minus_one_identity_check(b, N1, f)))

        Nc = int(rng.integers(0, deg_f + 2))
        lhs = column_truncation_apply(b, Nc, f)
        rhs = hankel_apply(b, tail_projection(f, Nc))
        rows.append(("column", s, f"N={Nc}", coeff_distance(lhs, rhs)))

        arity = 2 if s % 2 == 0 else 3
        nu = p["nu_grid"][s % len(p["nu_grid"])]
        gamma = p["gamma_grid"][s % len(p["gamma_grid"])]
        fs = [random_poly(rng, int(rng.integers(1, 11)))
              for _ in range(arity)]
        spec_multi = TruncationSpec((nu,) * arity, gamma)
        spec_lin = TruncationSpec((nu,), gamma)
        prod = fs[0]
        for g in fs[1:]:
            prod = multiply(prod, g)
        lhs = multilinear_truncated_apply(b, spec_multi, fs)
        rhs = truncated_apply(b, spec_lin, prod)
        rows.append(("multilinear_reduction", s,
                     f"n={arity},nu={nu},gamma={gamma}",
                     coeff_distance(lhs, rhs)))

        k, l = link_kl[s % len(link_kl)]
        gl = int(rng.integers(-4, 5))
        rows.append(("link", s, f"k={k},l={l},gamma_l={gl}",
                     link_identity_check(b, f, k, l, gl)))

        k2, l2 = kl[s % len(kl)]
        mu = int(rng.integers(-abs(l2), abs(l2) + 1))
        y = float(rng.uniform(0.0, 2.0 * np.pi))
        b_gen = random_poly(rng, deg_b, min_freq=-deg_b)
        rows.append(("translation", s, f"k={k2},l={l2},mu={mu}",
                     translation_covariance_check(
                         b_gen, f, BHTParams(k2, l2, mu), y)))
    return rows


def summarize_identity_suite(params, rows):
    tol = params["residual_tol"]
    per = {}
    for identity, _, _, residual in rows:
        per[identity] = _max_nan(per.get(identity, 0.0), float(residual))
    max_res = _max_nan(*per.values()) if per else 0.0
    passed = bool(per) and max_res <= tol
    return ({"per_identity": per, "max_residual": max_res,
             "residual_tol": tol, "rows": len(rows)}, passed)


# ---------------------------------------------------------------------------
# bht_consistency
# ---------------------------------------------------------------------------

def _validate_bht_consistency(p):
    _require_at_least(p, max_degree=4, cross_degree=0)
    _validate_kl_pairs(p["kl_pairs"])


def _rel_sup_error(values, reference):
    scale = max(float(np.abs(reference).max()), 1.0)
    return float(np.abs(values - reference).max()) / scale


def bht_consistency_rows(config: ExperimentConfig) -> list:
    p = config.params
    G = p["grid"]
    rows = []
    cases = []
    for k, l in p["kl_pairs"]:
        cases.append(("plain_kl", k, l, 0))
        mus = range(-abs(l), abs(l) + 1) if p["mu_policy"] == "all" else (0,)
        for mu in mus:
            cases.append(("mu_form", k, l, mu))

    for variant, k, l, mu in cases:
        for s in range(p["seeds"]):
            rng = random_stream([config.seed, 23, k, l, mu,
                                 0 if variant == "plain_kl" else 1, s])
            deg_b = int(rng.integers(4, p["max_degree"] + 1))
            deg_f = int(rng.integers(4, p["max_degree"] + 1))
            b = random_poly(rng, deg_b, min_freq=-deg_b)
            params = BHTParams(k, l, mu)
            if variant == "plain_kl":
                f = random_poly(rng, deg_f, min_freq=-deg_f)
                four = bht_fourier(b, f, k, l)
            else:
                f = random_poly(rng, deg_f)
                four = bht_mu_fourier(b, f, params)
            quad = pv_quadrature(b, f, params, G, variant=variant)
            ref = eval_grid(four, Grid(G))
            rows.append((variant, k, l, mu, s, G,
                         _rel_sup_error(quad, ref)))

    # fft vs direct cross-validation at a small grid
    Gs, deg = p["cross_grid"], p["cross_degree"]
    for idx, (k, l) in enumerate(p["kl_pairs"][:2]):
        rng = random_stream([config.seed, 29, idx])
        b = random_poly(rng, deg, min_freq=-deg)
        f = random_poly(rng, deg)
        params = BHTParams(k, l, min(1, abs(l)))
        qf = pv_quadrature(b, f, params, Gs, variant="mu_form", method="fft")
        qd = pv_quadrature(b, f, params, Gs, variant="mu_form",
                           method="direct")
        rows.append(("fft_vs_direct", k, l, params.mu, idx, Gs,
                     _rel_sup_error(qd, qf)))
    return rows


def summarize_bht_consistency(params, rows):
    rel_tol, cross_tol = params["rel_tol"], params["cross_tol"]
    per = {}
    for variant, *_rest, err in rows:
        per[variant] = _max_nan(per.get(variant, 0.0), float(err))
    main_max = _max_nan(per.get("plain_kl", 0.0), per.get("mu_form", 0.0))
    cross_max = per.get("fft_vs_direct", 0.0)
    passed = (bool(per) and main_max <= rel_tol and cross_max <= cross_tol
              and "plain_kl" in per and "mu_form" in per)
    return ({"per_variant": per, "max_rel_error": main_max,
             "cross_check_max": cross_max, "rel_tol": rel_tol,
             "cross_tol": cross_tol, "rows": len(rows)}, passed)


# ---------------------------------------------------------------------------
# truncation_uniformity
# ---------------------------------------------------------------------------

def _validate_truncation_uniformity(p):
    for b in p["beta_grid"]:
        if abs(b) < 0.1 or abs(b + 1.0) < 0.1:
            raise ParameterError(
                "beta grid must avoid the excluded neighborhoods of "
                f"0 and -1 (radius 0.1); got beta={b}")
    if not p["beta_grid"]:
        raise ParameterError("beta grid must be nonempty")
    _require_at_least(p, seeds=1)
    if p["gamma_min"] > p["gamma_max"]:
        raise ParameterError(f"the sweep needs gamma_min <= gamma_max; got "
                             f"{p['gamma_min']} > {p['gamma_max']}")


def _section_sweep(H, beta, offsets, buf):
    """For each offset gamma, H masked by Pi_{beta,gamma} in the "include"
    boundary (the only one these sweeps use), or None when the truncation
    keeps every entry.

    The masked section is written into `buf`, a writable array of H's
    shape, and the same `buf` is yielded at every offset, so it must be
    read before the next one.  The integer cutoffs of each offset are
    computed as section_weights computes them, clipped to [0, rows]; when
    none went down since the last masked offset, only the entries between
    the old and the new cutoffs are zeroed, else `buf` is rebuilt from H.
    """
    rows, cols = H.shape
    m = np.arange(rows)[:, None]
    col = np.arange(cols)
    t = beta * col.astype(np.float64)
    prev = None
    for gamma in offsets:
        lo = TruncationSpec.cutoffs(t + float(gamma))[0]
        lo = np.clip(lo, 0, rows).astype(np.intp)
        if not lo.any():
            yield None
            continue
        if prev is None or (lo < prev).any():
            np.multiply(H, m >= lo, out=buf)
        else:
            # rows prev[j] .. lo[j] - 1 of every column j
            step = lo - prev
            end = np.cumsum(step)
            buf[np.arange(end[-1]) + np.repeat(prev - end + step, step),
                np.repeat(col, step)] = 0
        prev = lo
        yield buf


def _section_ratio(A, full, tol, v0):
    """(||A|| / full.value, next warm start) for a swept section A, or
    (1.0, v0) for None: A starts from `v0`, and its witness is the next
    start only when its norm is positive."""
    if A is None:
        return 1.0, v0      # identical matrices; nothing to iterate
    est = section_norm_2_2(A, tol=tol, v0=v0)
    return est.value / full.value, est.witness if est.value > 0 else v0


def truncation_uniformity_rows(config: ExperimentConfig) -> list:
    p = config.params
    S = p["section_size"]
    betas = p["beta_grid"]
    gammas = list(range(p["gamma_min"], p["gamma_max"] + 1))
    bz_gammas = p["beta_zero_gammas"]
    norm_tol = p["norm_tol"]

    def per_seed(s):
        b = random_symbol(p["alpha"], p["max_block"], [config.seed, 31, s])
        H = matrix_section(b, None, S, S)
        full = section_norm_2_2(H, tol=norm_tol, seed=[config.seed, 37, s])
        buf = np.empty_like(H)
        out = []
        for beta in betas:
            v = full.witness
            sweep = _section_sweep(H, beta, gammas, buf)
            for gamma, A in zip(gammas, sweep):
                ratio, v = _section_ratio(A, full, p["sweep_tol"], v)
                out.append(("ratio", beta, gamma, s, ratio))
        for gamma, A in zip(bz_gammas, _section_sweep(H, 0.0, bz_gammas, buf)):
            ratio, _ = _section_ratio(A, full, norm_tol, full.witness)
            out.append(("beta_zero", 0.0, gamma, s, ratio))
        return out

    # interleave rows in (beta, gamma, seed) order for stable output
    collected = [r for s in range(p["seeds"]) for r in per_seed(s)]
    order = {("ratio", b): i for i, b in enumerate(betas)}
    rows = sorted(
        collected,
        key=lambda r: (0 if r[0] == "ratio" else 1,
                       order.get((r[0], r[1]), 0), r[2], r[3]))

    # lower-bound spot checks for the (2/3, 2) pairing, alpha = 1 symbols
    for idx, (beta, gamma) in enumerate(p["spot_points"]):
        b = random_symbol(p["spot_alpha"], 5, [config.seed, 41, idx])
        spec = TruncationSpec((beta,), gamma)
        for kind, op in (("spot_truncated",
                          lambda f: truncated_apply(b, spec, f)),
                         ("spot_full", lambda f: hankel_apply(b, f))):
            est = ratio_search_qp(op, 2.0 / 3.0, 2.0, p["spot_degree"],
                                  samples=p["spot_samples"],
                                  seed=[config.seed, 43, idx])
            rows.append((kind, beta, gamma, idx, est.value))
    return rows


def summarize_truncation_uniformity(params, rows):
    slope_tol, bz_tol = params["slope_tol"], params["beta_zero_tol"]
    per_beta = {}
    data = {}
    for kind, beta, gamma, seed, value in rows:
        if kind == "ratio":
            data.setdefault(beta, []).append(
                (math.log1p(abs(gamma)), float(value)))
    all_pass = bool(data)
    for beta, pts in sorted(data.items()):
        xs = np.array([x for x, _ in pts])
        ys = np.array([y for _, y in pts])
        slope, intercept, r2 = reporting.linear_fit(xs, ys)
        resid = ys - slope * xs - intercept
        sxx = float(np.sum((xs - xs.mean()) ** 2)) or math.nan
        dof = max(len(xs) - 2, 1)
        stderr = math.sqrt(float(np.sum(resid ** 2)) / dof / sxx)
        ok = abs(slope) <= slope_tol
        all_pass = all_pass and ok
        per_beta[repr(beta)] = {
            "sup_ratio": float(ys.max()),
            "min_ratio": float(ys.min()),
            "slope": slope,
            "intercept": intercept,
            "r2": r2,
            "slope_stderr": stderr,
            "slope_ci95": [slope - 1.96 * stderr, slope + 1.96 * stderr],
            "passed": ok,
        }
    bz = [float(v) for kind, _, _, _, v in rows if kind == "beta_zero"]
    bz_max = _max_nan(*bz) if bz else 1.0
    bz_ok = bool(bz) and bz_max <= 1.0 + bz_tol
    all_pass = all_pass and bz_ok
    spots = {f"{kind}:beta={beta},gamma={gamma}": float(v)
             for kind, beta, gamma, _, v in rows
             if kind.startswith("spot_")}
    return ({"per_beta": per_beta, "slope_tol": slope_tol,
             "beta_zero_max_ratio": bz_max, "beta_zero_tol": bz_tol,
             "beta_zero_passed": bz_ok, "spot_lower_bounds": spots,
             "rows": len(rows)}, all_pass)


def truncation_uniformity_charts(base, rows):
    ratios = [r for r in rows if r[0] == "ratio"]
    for b in sorted({r[1] for r in ratios}):
        pts = {}
        for _, beta, gamma, _, value in ratios:
            if beta == b:
                pts.setdefault(gamma, []).append(value)
        gs = sorted(pts)
        ys = [float(np.mean(pts[g])) for g in gs]
        tag = repr(b).replace("-", "m").replace(".", "p")
        reporting.write_svg_line(
            f"{base}_beta_{tag}.svg",
            [math.log1p(abs(g)) for g in gs], ys,
            title=f"mean section ratio, beta={b}",
            xlabel="log(1+|gamma|)", ylabel="ratio")


# ---------------------------------------------------------------------------
# log_growth
# ---------------------------------------------------------------------------

def log_growth_rows(config: ExperimentConfig) -> list:
    p = config.params
    rows = []
    for n in range(1, p["extremal_n_max"] + 1):
        N = 4 * (1 << n)
        rows.append(("extremal", N, sn_extremal_lower_bound(N, p["alpha"]),
                     0.0))
    for j in p["lebesgue_powers"]:
        N = 1 << j
        L = lebesgue_constant(N)
        rows.append(("lebesgue", N, L, L / math.log(N)))
    # exploratory: Pi_{-1,N} section-norm decay for one fixed symbol
    S = p["section_size"]
    b = random_symbol(p["section_symbol_alpha"],
                      p["section_symbol_max_block"], [config.seed, 47])
    H = matrix_section(b, None, S, S)
    full = section_norm_2_2(H, tol=1e-9, seed=[config.seed, 53])
    v = full.witness
    Ns = range(0, S + 1, p["section_N_step"])
    for N, A in zip(Ns, _section_sweep(H, -1.0, Ns, np.empty_like(H))):
        ratio, v = _section_ratio(A, full, 1e-9, v)
        rows.append(("pi_minus1", N, ratio, 0.0))
    return rows


def summarize_log_growth(params, rows):
    r2_min, rel_tol = params["r2_min"], params["ratio_rel_tol"]
    ext = [(n, v) for kind, n, v, _ in rows if kind == "extremal"]
    leb = [(n, v, e) for kind, n, v, e in rows if kind == "lebesgue"]
    out = {}
    ok_a = ok_b = ok_c = False
    if len(ext) >= 2:
        slope, intercept, r2 = reporting.linear_fit(
            [math.log(n) for n, _ in ext], [v for _, v in ext])
        ok_a = slope > 0 and r2 >= r2_min
        out["extremal"] = {"slope": slope, "intercept": intercept,
                           "r2": r2, "r2_min": r2_min, "passed": ok_a}
    if leb:
        slope, intercept, _ = reporting.linear_fit(
            [math.log(n) for n, _, _ in leb], [v for _, v, _ in leb]) \
            if len(leb) >= 2 else (0.0, 0.0, 0.0)
        n_max, L_max, ratio_max = max(leb)
        rel_err = abs(ratio_max - LEBESGUE_TARGET) / LEBESGUE_TARGET
        ok_b = rel_err <= rel_tol
        l1_closed = 1.0 / 3.0 + 2.0 * math.sqrt(3.0) / math.pi
        l1_err = abs(lebesgue_constant(1) - l1_closed)
        ok_c = l1_err <= params["l1_tol"]
        out["lebesgue"] = {
            "fitted_slope": slope,
            "target": LEBESGUE_TARGET,
            "N_max": n_max,
            "ratio_at_N_max": ratio_max,
            "ratio_rel_error": rel_err,
            "ratio_rel_tol": rel_tol,
            "ratio_passed": ok_b,
            "L1_abs_error": l1_err,
            "L1_passed": ok_c,
        }
    pim = [(n, v) for kind, n, v, _ in rows if kind == "pi_minus1"]
    if pim:
        out["pi_minus1"] = {"max_ratio": max(v for _, v in pim),
                            "min_ratio": min(v for _, v in pim)}
    passed = ok_a and ok_b and ok_c
    return (out, passed)


def log_growth_charts(base, rows):
    ext = [(r[1], r[2]) for r in rows if r[0] == "extremal"]
    if len(ext) >= 2:
        reporting.write_svg_line(
            base + "_extremal.svg",
            [math.log(n) for n, _ in ext], [v for _, v in ext],
            title="partial-sum lower bound vs ln N",
            xlabel="ln N", ylabel="ratio")
    leb = [(r[1], r[2]) for r in rows if r[0] == "lebesgue"]
    if len(leb) >= 2:
        reporting.write_svg_line(
            base + "_lebesgue.svg",
            [math.log(n) for n, _ in leb], [v for _, v in leb],
            title="Lebesgue constant vs ln N",
            xlabel="ln N", ylabel="L_N")


# ---------------------------------------------------------------------------
# constant_stability
# ---------------------------------------------------------------------------

# pairs per bht_mu_family call: bounds the padded (pair, p, q) arrays
_FAMILY_BLOCK = 64


def _row_hardy_norms(coeffs, lo, p):
    """hardy_norm(g, p).value of g = TrigPoly(row, lo) for every row of the
    (mu, pair, W) array coeffs, as nested lists, with g flipped when it lies
    at non-positive frequencies (k + l < 0 puts the output there; |g| on the
    circle is flip-invariant).

    At p = 2 no g is built: each row is pruned at PRUNE_TOL, trimmed to its
    nonzero window, reversed where g is flipped, and reduced by the 1-D
    np.linalg.norm that hardy_norm applies to g.coeffs.  The summation
    order fixes the last bits, hence the reversal.  The general path gives
    the same values in about three times the time.
    """
    if p != 2:
        gs = [[TrigPoly(row, lo) for row in rows] for rows in coeffs]
        gs = [[g if g.is_analytic else flip(g) for g in rows] for rows in gs]
        return [[h.value for h in hardy_norms(rows, p)] for rows in gs]
    pruned = np.where(np.abs(coeffs) <= PRUNE_TOL, 0.0, coeffs)
    nonzero = pruned != 0
    firsts = nonzero.argmax(axis=-1).tolist()
    lasts = (nonzero.shape[-1] - 1
             - nonzero[..., ::-1].argmax(axis=-1)).tolist()
    norms = [[0.0] * len(rows) for rows in firsts]
    for j, i in zip(*np.nonzero(nonzero.any(axis=-1))):
        first, last = firsts[j][i], lasts[j][i]
        row = pruned[j, i, first:last + 1]
        if lo + first < 0:
            if lo + last > 0:
                raise NonAnalyticError(
                    "hardy_norm requires an analytic polynomial")
            row = row[::-1].copy()
        norms[j][i] = float(np.linalg.norm(row))
    return norms


def _validate_constant_stability(p):
    _require_at_least(p, f_degree=0)
    _validate_kl_pairs(*p["bands"].values(), p["exploratory"])


def constant_stability_rows(config: ExperimentConfig) -> list:
    p = config.params
    seeds = range(p["seeds"])

    # random_symbols scales every symbol to Lipschitz norm 1, so the ratio
    # ||H_{k,l,mu}(b, f)||_{H^p} / (||b||_{Lambda_alpha} ||f||_{H^q})
    # divides by ||f||_{H^q} alone
    symbols = random_symbols(p["alpha"], p["symbol_max_block"],
                             [[config.seed, 61, s] for s in seeds])
    fs = [random_poly(random_stream([config.seed, 67, s]), p["f_degree"])
          for s in seeds]
    dens = [h.value for h in hardy_norms(fs, p["q"])]

    cases = [(band, k, l) for band, pairs in sorted(p["bands"].items())
             for k, l in pairs]
    cases += [("exploratory", k, l) for k, l in p["exploratory"]]

    rows = []
    for band, k, l in cases:
        mus = range(-abs(l), abs(l) + 1)
        ratios = [[] for _ in mus]
        for start in range(0, len(fs), _FAMILY_BLOCK):
            block = slice(start, start + _FAMILY_BLOCK)
            coeffs, lo = bht_mu_family(symbols[block], fs[block], k, l)
            nums = _row_hardy_norms(coeffs, lo, p["p"])
            for j in range(len(mus)):
                for num, den in zip(nums[j], dens[block]):
                    ratios[j].append(num / den)
        for j, mu in enumerate(mus):
            for s, ratio in enumerate(ratios[j]):
                rows.append((band, k, l, mu, s, ratio))
    return rows


def summarize_constant_stability(params, rows):
    spread_tol = params["spread_tol"]
    sups = {}
    for band, k, l, mu, _s, ratio in rows:
        key = (band, k, l)
        sups.setdefault(key, {})
        sups[key][mu] = _max_nan(sups[key].get(mu, 0.0), float(ratio))
    per_kl = {}
    bands = {}
    all_ok = bool(sups)
    for (band, k, l), per_mu in sorted(sups.items()):
        vals = list(per_mu.values())
        spread = (_max_nan(*vals) - min(vals)) / min(vals) if min(vals) > 0 \
            else math.inf
        ok = spread <= spread_tol
        if band != "exploratory":
            all_ok = all_ok and ok
        per_kl[f"{band}:k={k},l={l}"] = {
            "sup_per_mu": {str(m): v for m, v in sorted(per_mu.items())},
            "mu_spread": spread,
            "passed": ok if band != "exploratory" else None,
        }
        if band != "exploratory":
            bands.setdefault(band, []).append((k / l, _max_nan(*vals)))
    band_summary = {}
    for band, pts in sorted(bands.items()):
        mx = max(v for _, v in pts)
        mn = min(v for _, v in pts)
        trend = 0.0
        if len(pts) >= 2:
            trend, _, _ = reporting.linear_fit([x for x, _ in pts],
                                               [v for _, v in pts])
        band_summary[band] = {"max_sup": mx, "min_sup": mn,
                              "band_ratio": mx / mn if mn > 0 else math.inf,
                              "trend_slope": trend}
    return ({"per_kl": per_kl, "bands": band_summary,
             "spread_tol": spread_tol, "rows": len(rows)}, all_ok)


# ---------------------------------------------------------------------------
# lemma_lipschitz_sweep
# ---------------------------------------------------------------------------

def lemma_lipschitz_sweep_rows(config: ExperimentConfig) -> list:
    p = config.params
    rows = []
    pairs = [(N, round(fac * N)) for N in p["N_grid"]
             for fac in p["M_factors"]]
    for alpha in p["alphas"]:
        symbols = random_symbols(alpha, p["symbol_max_block"],
                                 [[config.seed, 71, s]
                                  for s in range(p["seeds"])])
        ratios = [modulated_norm_ratios(b, alpha, pairs) for b in symbols]
        for i, (N, M) in enumerate(pairs):
            for s in range(p["seeds"]):
                rows.append((alpha, N, M, s, ratios[s][i]))
    return rows


def summarize_lemma_lipschitz_sweep(params, rows):
    ratio_tol, trend_tol = params["ratio_tol"], params["trend_tol"]
    sup = 0.0
    argmax = None
    per_n = {}
    xs_n, ys, xs_m = [], [], []
    for alpha, N, M, seed, ratio in rows:
        ratio = float(ratio)
        if not (ratio <= sup or math.isnan(sup)):
            sup = ratio
            argmax = {"alpha": alpha, "N": N, "M": M, "seed": seed}
        per_n[N] = _max_nan(per_n.get(N, 0.0), ratio)
        xs_n.append(math.log(N))
        xs_m.append(math.log1p(abs(M)))
        ys.append(ratio)
    slope_n = slope_m = 0.0
    if len(ys) >= 2:
        slope_n, _, _ = reporting.linear_fit(xs_n, ys)
        slope_m, _, _ = reporting.linear_fit(xs_m, ys)
    ok = (bool(rows) and sup <= ratio_tol
          and slope_n <= trend_tol and slope_m <= trend_tol)
    return ({"sup_ratio": sup, "argmax": argmax,
             "sup_per_N": {str(n): v for n, v in sorted(per_n.items())},
             "trend_slope_ln_N": slope_n, "trend_slope_ln_M": slope_m,
             "ratio_tol": ratio_tol, "trend_tol": trend_tol,
             "rows": len(rows)}, ok)


def lemma_lipschitz_sweep_charts(base, rows):
    per_n = {}
    for alpha, N, M, seed, ratio in rows:
        per_n[N] = max(per_n.get(N, 0.0), ratio)
    ns = sorted(per_n)
    if len(ns) >= 2:
        reporting.write_svg_line(
            base + "_sup.svg",
            [math.log(n) for n in ns], [per_n[n] for n in ns],
            title="modulated norm ratio sup vs ln N",
            xlabel="ln N", ylabel="sup ratio")


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

EXPERIMENTS = {
    "identity_suite": Experiment(
        defaults={
            "seeds": 50,
            "max_degree": 32,
            "residual_tol": 1e-10,
            "kl_pairs": [[1, 2], [2, 1], [-1, 2], [3, -1]],
            "nu_grid": [-2.5, -0.5, 0.5, 1.0, 2.0],
            "gamma_grid": [-4.0, -1.5, 0.0, 2.0, 3.5],
        },
        columns=("identity", "seed", "params", "residual"),
        run=identity_suite_rows,
        summarize=summarize_identity_suite,
        validate=_validate_identity_suite,
    ),
    "bht_consistency": Experiment(
        defaults={
            "grid": 1 << 14,
            "seeds": 3,
            "max_degree": 32,
            "kl_pairs": [[1, 1], [1, 2], [2, 1], [-1, 2], [3, -1], [-2, 3]],
            "mu_policy": "all",
            "rel_tol": 1e-6,
            "cross_grid": 512,
            "cross_degree": 8,
            "cross_tol": 1e-11,
        },
        columns=("variant", "k", "l", "mu", "seed", "grid", "rel_error"),
        run=bht_consistency_rows,
        summarize=summarize_bht_consistency,
        validate=_validate_bht_consistency,
    ),
    "truncation_uniformity": Experiment(
        defaults={
            "section_size": 512,
            "seeds": 20,
            "alpha": 0.005,
            "max_block": 9,
            "beta_grid": [-3.0, -2.0, -0.5, 0.5, 1.0, 2.0],
            "gamma_min": -64,
            "gamma_max": 64,
            "slope_tol": 0.05,
            "beta_zero_gammas": [-64, -32, -16, 0, 1, 4, 16, 32, 64],
            "beta_zero_tol": 1e-10,
            "norm_tol": 1e-9,
            "sweep_tol": 1e-6,
            "spot_points": [[1.0, 8.0], [-2.0, 8.0]],
            "spot_alpha": 1.0,
            "spot_degree": 16,
            "spot_samples": 24,
        },
        columns=("kind", "beta", "gamma", "seed", "value"),
        run=truncation_uniformity_rows,
        summarize=summarize_truncation_uniformity,
        charts=truncation_uniformity_charts,
        validate=_validate_truncation_uniformity,
    ),
    "log_growth": Experiment(
        defaults={
            "alpha": 0.5,
            "extremal_n_max": 8,          # N = 4 * 2^n for n = 1..n_max
            "lebesgue_powers": [4, 5, 6, 7, 8, 9, 10, 11, 12],
            "ratio_rel_tol": 0.05,
            "r2_min": 0.9,
            "l1_tol": 1e-6,
            "section_symbol_alpha": 0.5,
            "section_symbol_max_block": 8,
            "section_size": 256,
            "section_N_step": 32,
        },
        columns=("kind", "N", "value", "extra"),
        run=log_growth_rows,
        summarize=summarize_log_growth,
        charts=log_growth_charts,
        validate=lambda p: _require_at_least(p, lebesgue_powers=1,
                                             section_N_step=1),
    ),
    "constant_stability": Experiment(
        defaults={
            "alpha": 0.5,
            "q": 1.0,
            "p": 2.0,
            "seeds": 20,
            "f_degree": 24,
            "symbol_max_block": 5,
            "bands": {
                "A": [[1, 1], [2, 1], [3, 1], [1, 2], [1, 3], [3, 2]],
                "B": [[-1, 2], [-1, 3], [-2, 5], [-3, 5]],
                "C": [[-2, 1], [-3, 1], [-3, 2], [-5, 3]],
            },
            "exploratory": [[-9, 8], [-8, 9]],
            "spread_tol": 0.10,
        },
        columns=("band", "k", "l", "mu", "seed", "ratio"),
        run=constant_stability_rows,
        summarize=summarize_constant_stability,
        validate=_validate_constant_stability,
    ),
    "lemma_lipschitz_sweep": Experiment(
        defaults={
            "N_grid": [8, 16, 32, 64, 128, 256, 512, 1024],
            "M_factors": [0.0, 0.5, 1.0, 4.0],
            "seeds": 20,
            "alphas": [0.5, 1.0],
            "symbol_max_block": 10,
            "ratio_tol": 10.0,
            "trend_tol": 0.1,
        },
        columns=("alpha", "N", "M", "seed", "ratio"),
        run=lemma_lipschitz_sweep_rows,
        summarize=summarize_lemma_lipschitz_sweep,
        charts=lemma_lipschitz_sweep_charts,
        validate=lambda p: _require_at_least(p, N_grid=1),
    ),
}

EXPERIMENT_NAMES = tuple(sorted(EXPERIMENTS))
