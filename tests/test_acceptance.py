"""Acceptance suite: one test and one printed verdict line per criterion.

Each test measures the stated quantity at its stated tolerance and runtime
budget, appends a `criterion N: PASS/FAIL (detail)` line to the shared log
(printed as a terminal summary block), and asserts the verdict.

Criteria 4, 7 and 8 are structurally unattainable as stated; each carries a
strict xfail marker whose reason records the measured obstruction, so the
suite stays green exactly while those facts remain true and flags any change.
"""

import math
from time import perf_counter

import numpy as np
import pytest

from hankellab import reporting
from hankellab.experiments import ExperimentConfig, run_experiment
from hankellab.hankel import hankel_apply, matrix_section
from hankellab.opnorm import (lebesgue_constant, section_norm_2_2,
                              sn_extremal_lower_bound)
from hankellab.spaces import (hardy_norm, lipschitz_norm, lipschitz_norm_diff,
                              random_symbol, reduce_symbol)
from hankellab.trigpoly import (Grid, TrigPoly, coeff_distance, eval_grid,
                                random_poly, tail_projection)


def _record(log, num, ok, detail):
    line = f"criterion {num:>2}: {'PASS' if ok else 'FAIL'} ({detail})"
    log.append(line)
    print(line)


def test_criterion_01_identity_suite(acceptance_log):
    cfg = ExperimentConfig("identity_suite")
    assert cfg.params["seeds"] >= 50 and cfg.params["max_degree"] <= 32
    rep = run_experiment(cfg)
    res = rep.summary["max_residual"]
    ok = rep.passed and res <= 1e-10 and rep.wall_clock < 60.0
    _record(acceptance_log, 1, ok,
            f"max residual {res:.2e} <= 1e-10 over {cfg.params['seeds']} "
            f"seeds x 6 identities, wall {rep.wall_clock:.1f}s < 60s")
    assert ok


def test_criterion_02_bht_oracle_equivalence(acceptance_log):
    cfg = ExperimentConfig("bht_consistency")
    assert cfg.params["grid"] == 1 << 14
    assert cfg.params["max_degree"] <= 32
    assert [tuple(p) for p in cfg.params["kl_pairs"]] == [
        (1, 1), (1, 2), (2, 1), (-1, 2), (3, -1), (-2, 3)]
    assert cfg.params["mu_policy"] == "all"
    rep = run_experiment(cfg)
    err = rep.summary["max_rel_error"]
    ok = rep.passed and err <= 1e-6 and rep.wall_clock < 120.0
    _record(acceptance_log, 2, ok,
            f"Fourier vs quadrature rel sup {err:.2e} <= 1e-6 at G=2^14, "
            f"6 (k,l) pairs, all mu, wall {rep.wall_clock:.1f}s < 120s")
    assert ok


def test_criterion_03_dual_path_and_parseval(acceptance_log):
    t0 = perf_counter()
    worst_pair = 0.0
    worst_parseval = 0.0
    for s in range(100):
        rng = np.random.default_rng((3, s))
        b = random_poly(rng, int(rng.integers(1, 33)))
        f = random_poly(rng, int(rng.integers(1, 33)))
        d = coeff_distance(hankel_apply(b, f, method="direct"),
                           hankel_apply(b, f, method="projection"))
        worst_pair = max(worst_pair, d)
        # hardy_norm(f, 2) sums coefficients (Parseval); the oracle is the
        # boundary mean of |f|^2 on a grid above the span
        G = 1 << (2 * f.span).bit_length()
        l2 = math.sqrt(float(np.mean(np.abs(eval_grid(f, Grid(G))) ** 2)))
        worst_parseval = max(worst_parseval,
                             abs(hardy_norm(f, 2.0).value - l2) / l2)
    ok = worst_pair <= 1e-12 and worst_parseval <= 1e-8
    _record(acceptance_log, 3, ok,
            f"dual-path distance {worst_pair:.2e} <= 1e-12 and Parseval "
            f"error {worst_parseval:.2e} <= 1e-8 over 100 instances, "
            f"wall {perf_counter() - t0:.1f}s")
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="the Lebesgue constant is (4/pi^2) ln N + 1.27... + o(1); the "
           "additive term keeps L_N/ln N near 0.558 at N = 4096, and the "
           "5% band around 4/pi^2 = 0.405 is first reached near N ~ e^63")
def test_criterion_04_lebesgue_closed_form_and_ratio(acceptance_log):
    t0 = perf_counter()
    closed = 1.0 / 3.0 + 2.0 * math.sqrt(3.0) / math.pi
    err1 = abs(lebesgue_constant(1) - closed)
    N = 1 << 12
    ratio = lebesgue_constant(N) / math.log(N)
    target = 4.0 / math.pi ** 2
    rel = abs(ratio - target) / target
    wall = perf_counter() - t0
    ok = err1 <= 1e-6 and rel <= 0.05 and wall < 30.0
    _record(acceptance_log, 4, ok,
            f"N=1 closed-form error {err1:.1e} <= 1e-6; L(4096)/ln 4096 = "
            f"{ratio:.4f} vs 4/pi^2 = {target:.4f}, off by {rel:.0%} > 5%, "
            f"wall {wall:.1f}s < 30s")
    assert ok


def test_criterion_05_log_growth_regression(acceptance_log):
    t0 = perf_counter()
    ns = [4 * (1 << n) for n in range(1, 9)]           # 8 .. 1024
    ratios = [sn_extremal_lower_bound(N, 0.5) for N in ns]
    slope, _, r2 = reporting.linear_fit([math.log(N) for N in ns], ratios)
    wall = perf_counter() - t0
    ok = slope > 0 and r2 >= 0.9 and wall < 120.0
    _record(acceptance_log, 5, ok,
            f"extremal lower bound vs ln N: slope {slope:.4f} > 0, "
            f"R^2 {r2:.4f} >= 0.9 over N = 8..1024, wall {wall:.1f}s < 120s")
    assert ok


def test_criterion_06_gamma_uniformity(acceptance_log):
    cfg = ExperimentConfig("truncation_uniformity")
    assert cfg.params["section_size"] == 512
    assert [float(v) for v in cfg.params["beta_grid"]] == [
        -3.0, -2.0, -0.5, 0.5, 1.0, 2.0]
    assert (cfg.params["gamma_min"], cfg.params["gamma_max"]) == (-64, 64)
    rep = run_experiment(cfg)
    worst = max(abs(d["slope"]) for d in rep.summary["per_beta"].values())
    bz = rep.summary["beta_zero_max_ratio"]
    ok = (rep.passed and worst <= 0.05 and bz <= 1.0 + 1e-10
          and rep.wall_clock < 300.0)
    _record(acceptance_log, 6, ok,
            f"max |slope| {worst:.4f} <= 0.05 over 6 betas x gamma in "
            f"-64..64 at 512^2, beta=0 max ratio {bz} <= 1+1e-10, "
            f"wall {rep.wall_clock:.0f}s < 300s")
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="for mu != 0 the transform keeps the constant mode "
           "(-i sign(-mu) b_0 a_0) that mu = 0 annihilates, so empirical sup "
           "ratios split by ~2x across mu on any random corpus — a shared "
           "upper bound across mu does not make the sups match to 10%; "
           "worst gated spread measured 4.11")
def test_criterion_07_mu_independence(acceptance_log):
    rep = run_experiment(ExperimentConfig("constant_stability"))
    gated = {k: d["mu_spread"] for k, d in rep.summary["per_kl"].items()
             if d["passed"] is not None}
    worst = max(gated.values())
    failing = sum(v > 0.10 for v in gated.values())
    bands = rep.summary["bands"]
    band_txt = ", ".join(f"{b} x{d['band_ratio']:.2f}"
                         for b, d in sorted(bands.items()))
    ok = rep.passed and worst <= 0.10 and rep.wall_clock < 180.0
    _record(acceptance_log, 7, ok,
            f"mu spread > 0.10 on {failing}/{len(gated)} gated (k,l) pairs "
            f"(worst {worst:.2f}); band sup max/min: {band_txt}; "
            f"wall {rep.wall_clock:.1f}s < 180s")
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="at N = 16, M = 4N = 64, alpha = 1 the modulation moves the "
           "symbol's unimodular constant block to frequency 64, where the "
           "dyadic block weight is 2^6 = 64 while the allowed factor "
           "(|M|/(N+1)+1)^alpha is only ~4.8; the recorded sup is 16.8 > 10 "
           "(the bound holds, but not with constant 10)")
def test_criterion_08_modulated_norm_sweep(acceptance_log):
    cfg = ExperimentConfig("lemma_lipschitz_sweep")
    assert cfg.params["N_grid"] == [8, 16, 32, 64, 128, 256, 512, 1024]
    assert cfg.params["M_factors"] == [0.0, 0.5, 1.0, 4.0]
    assert cfg.params["seeds"] == 20 and cfg.params["alphas"] == [0.5, 1.0]
    rep = run_experiment(cfg)
    sup = rep.summary["sup_ratio"]
    am = rep.summary["argmax"]
    # reduced symbols must keep every high-frequency coefficient exactly
    eq_ok = True
    for alpha in (0.5, 1.0):
        for s in range(5):
            b = random_symbol(alpha, 10, [8, 79, s])
            for N in cfg.params["N_grid"]:
                thr = 1 << (N.bit_length() - 3) if N > 16 else 0
                if coeff_distance(
                        tail_projection(reduce_symbol(b, N), thr),
                        tail_projection(b, thr)) != 0.0:
                    eq_ok = False
    ok = sup <= 10.0 and eq_ok
    _record(acceptance_log, 8, ok,
            f"sup ratio {sup:.2f} > 10 at alpha={am['alpha']}, N={am['N']}, "
            f"M={am['M']}; high-frequency coefficient equality "
            f"{'exact' if eq_ok else 'BROKEN'}")
    assert ok


def test_criterion_09_hilbert_sections(acceptance_log):
    t0 = perf_counter()
    b = TrigPoly.from_pairs([(n, 1.0 / (n + 1.0)) for n in range(4095)])
    vals = []
    v = None
    for size in (2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048):
        v0 = None
        if v is not None:
            v0 = np.zeros(size, dtype=complex)
            v0[:v.size] = v
        est = section_norm_2_2(matrix_section(b, None, size, size),
                               tol=1e-10, v0=v0)
        v = est.witness
        vals.append(est.value)
    golden = section_norm_2_2(np.array([[1.0, 1.0], [1.0, 0.0]])).value
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    wall = perf_counter() - t0
    ok = (all(y > x for x, y in zip(vals, vals[1:]))
          and vals[-1] <= math.pi + 1e-9
          and abs(golden - phi) <= 1e-7
          and wall < 60.0)
    _record(acceptance_log, 9, ok,
            f"11 nested Hilbert sections strictly increasing to "
            f"{vals[-1]:.4f} <= pi + 1e-9 at 2048^2, golden 2x2 error "
            f"{abs(golden - phi):.1e} <= 1e-7, wall {wall:.1f}s < 60s")
    assert ok


def test_criterion_10_norm_equivalence(acceptance_log):
    t0 = perf_counter()
    worst = 0.0
    for alpha in (0.25, 0.5, 0.75):
        for s in range(100):
            b = random_symbol(alpha, 8, [9, 73, s])
            r = (lipschitz_norm(b, alpha).value
                 / lipschitz_norm_diff(b, alpha).value)
            worst = max(worst, r, 1.0 / r)
    ok = worst <= 10.0
    _record(acceptance_log, 10, ok,
            f"block vs difference-quotient equivalence constant "
            f"{worst:.2f} <= 10 over 100 symbols x alpha in "
            f"{{1/4, 1/2, 3/4}}, wall {perf_counter() - t0:.1f}s")
    assert ok
