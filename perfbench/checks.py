"""Correctness checks on the CSV rows a workload wrote.

Every row is checked, outside the timed region, against the experiment's own
per-row gate or a sanity rule, and a fixed sample of rows is recomputed by an
oracle on a separate code path:

* section ratios: dense ``np.linalg.norm(W * H, 2)`` on the same section;
* Lipschitz ratios: block sup norms by numpy FFT on a grid of at least 256
  times each block's span (no refinement loop, no ``sup_norm``);
* Hardy norms: boundary means on the same fixed fine grid;
* Lebesgue constants: a midpoint rule for the mean of |D_N|.

Only the experiments' input generators (``random_symbol``, ``random_poly``)
and the exact Fourier form ``bht_mu_fourier`` are reused from the library.
The tolerances pass the errors the library is known to make today (3e-5 for
power iteration at sweep_tol 1e-6, 1.6e-3 for ``sup_norm``) and are far
tighter than a wrong answer.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

SECTION_RTOL = 5e-4
LIPSCHITZ_RTOL = 5e-3
LEBESGUE_RTOL = 1e-5
BOUNDARY_TOL = 1e-8
GRID_FACTOR = 256
SECTION_SAMPLES = 6
NORM_SAMPLES = 8


# -- oracles -----------------------------------------------------------------

def _pow2_at_least(n):
    return 1 << max(int(n) - 1, 0).bit_length()


def _grid_values(coeffs, points):
    """Values of sum_k c_k e^{ikt} (k = 0..len-1) at t_j = 2 pi j / points.
    A frequency shift only multiplies by a unimodular factor, so moduli of a
    polynomial on any window are moduli of this."""
    return np.fft.ifft(coeffs, n=points) * points


def _fine_grid(span):
    return _pow2_at_least(max(GRID_FACTOR * (span + 1), 1024))


def sup_oracle(coeffs):
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    return float(np.abs(_grid_values(coeffs, _fine_grid(coeffs.size))).max())


def hardy_oracle(coeffs, p):
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    v = np.abs(_grid_values(coeffs, _fine_grid(coeffs.size)))
    return float(np.mean(v ** p)) ** (1.0 / p)


def _lp_weight(j, n):
    """Weight of the dyadic window j at frequencies n (see trigpoly)."""
    n = np.asarray(n, dtype=np.float64)
    if j == 0:
        return (n == 0).astype(np.float64)
    if j == 1:
        return np.where((n >= 1) & (n <= 2), 1.0,
                        np.where((n > 2) & (n < 4), (4.0 - n) / 2.0, 0.0))
    lo, peak, hi = 2.0 ** (j - 1), 2.0 ** j, 2.0 ** (j + 1)
    w = np.where(n <= peak, (n - lo) / lo, (hi - n) / peak)
    return np.where((n > lo) & (n < hi), w, 0.0)


def lipschitz_oracle(coeffs, min_freq, alpha):
    """sup_j 2^{j alpha} ||b_j||_inf for b = sum c_k e^{i(min_freq+k)t}."""
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    freqs = np.arange(min_freq, min_freq + coeffs.size)
    best = 0.0
    for j in range(int(freqs[-1]).bit_length() + 2):
        block = coeffs * _lp_weight(j, freqs)
        nz = np.flatnonzero(block)
        if nz.size:
            best = max(best, 2.0 ** (j * alpha)
                       * sup_oracle(block[nz[0]:nz[-1] + 1]))
    return best


def section_norm_oracle(H, mask=None):
    return float(np.linalg.norm(H if mask is None else mask * H, 2))


def hankel_section(b, size):
    idx = np.arange(size)
    return b.window(0, 2 * size - 2)[idx[:, None] + idx[None, :]]


def lebesgue_oracle(N):
    """(1/2pi) int |D_N| by the midpoint rule on a grid of 256(2N+1)."""
    G = _pow2_at_least(GRID_FACTOR * (2 * N + 1))
    t = 2.0 * np.pi * (np.arange(G) + 0.5) / G
    return float(np.mean(np.abs(np.sin((N + 0.5) * t) / np.sin(0.5 * t))))


def _rel(value, reference):
    return abs(value - reference) / max(abs(reference), 1e-300)


def _sample(indices, k):
    """A fixed, evenly spread sample of k entries."""
    indices = list(indices)
    if len(indices) <= k:
        return indices
    return [indices[round(i * (len(indices) - 1) / (k - 1))]
            for i in range(k)]


def _rng(*parts):
    # the experiments' per-point generator
    return np.random.default_rng([int(p) % (1 << 32) for p in parts])


# -- per-experiment checks -----------------------------------------------------
# Each takes (config, rows of floats/strings) and returns {row index: reason}.

def _finite_positive(rows, col, allow_zero=False):
    bad = {}
    for i, row in enumerate(rows):
        v = row[col]
        if not math.isfinite(v) or v < 0 or (v == 0 and not allow_zero):
            bad[i] = f"value {v!r} is not finite and positive"
    return bad


def check_identity_suite(cfg, rows):
    tol = float(cfg["residual_tol"])
    return {i: f"residual {r[3]!r} > {tol}" for i, r in enumerate(rows)
            if not r[3] <= tol}


def check_bht_consistency(cfg, rows):
    bad = {}
    for i, r in enumerate(rows):
        tol = float(cfg["cross_tol"] if r[0] == "fft_vs_direct"
                    else cfg["rel_tol"])
        if not r[6] <= tol:
            bad[i] = f"{r[0]} error {r[6]!r} > {tol}"
    return bad


def check_truncation_uniformity(cfg, rows):
    from hankellab.spaces import random_symbol
    bad = _finite_positive(rows, 4)
    bz_tol = float(cfg["beta_zero_tol"])
    for i, r in enumerate(rows):
        if r[0] == "beta_zero" and not r[4] <= 1.0 + bz_tol:
            bad[i] = f"beta_zero ratio {r[4]!r} > 1 + {bz_tol}"
    sample = _sample([i for i, r in enumerate(rows)
                      if r[0] == "ratio" and r[3] in (0, 1) and r[4] != 1.0],
                     SECTION_SAMPLES)
    sample += [i for i, r in enumerate(rows)
               if r[0] == "beta_zero" and r[3] == 0 and r[2] > 0][:1]
    S = int(cfg["section_size"])
    m = np.arange(S, dtype=np.float64)[:, None]
    n = np.arange(S, dtype=np.float64)[None, :]
    sections = {}
    for i in sample:
        kind, beta, gamma, s, value = rows[i]
        s = int(s)
        if s not in sections:
            b = random_symbol(float(cfg["alpha"]), int(cfg["max_block"]),
                              [cfg["seed"], 31, s])
            H = hankel_section(b, S)
            sections[s] = (H, section_norm_oracle(H))
        H, full = sections[s]
        W = (m - beta * n - gamma >= -BOUNDARY_TOL).astype(np.float64)
        ref = section_norm_oracle(H, W) / full
        if _rel(value, ref) > SECTION_RTOL:
            bad[i] = f"section ratio {value!r} vs dense {ref!r}"
    return bad


def check_log_growth(cfg, rows):
    from hankellab.spaces import random_symbol
    bad = {}
    S = int(cfg["section_size"])
    H = full = None
    for i, (kind, N, value, extra) in enumerate(rows):
        N = int(N)
        if not (math.isfinite(value) and value > 0):
            bad[i] = f"value {value!r} is not finite and positive"
        elif kind == "lebesgue":
            ref = lebesgue_oracle(N)
            if _rel(value, ref) > LEBESGUE_RTOL or \
                    _rel(extra, value / math.log(N)) > 1e-12:
                bad[i] = f"Lebesgue constant {value!r} vs midpoint {ref!r}"
        elif kind == "pi_minus1":
            if H is None:
                b = random_symbol(float(cfg["section_symbol_alpha"]),
                                  int(cfg["section_symbol_max_block"]),
                                  [cfg["seed"], 47])
                H = hankel_section(b, S)
                full = section_norm_oracle(H)
            idx = np.arange(S)
            W = (idx[:, None] + idx[None, :] >= N).astype(np.float64)
            ref = section_norm_oracle(H, W) / full
            if _rel(value, ref) > SECTION_RTOL:
                bad[i] = f"section ratio {value!r} vs dense {ref!r}"
    return bad


def check_constant_stability(cfg, rows):
    from hankellab.bilinear import BHTParams, bht_mu_fourier
    from hankellab.spaces import random_symbol
    from hankellab.trigpoly import random_poly
    bad = _finite_positive(rows, 5, allow_zero=True)
    alpha, q, p = float(cfg["alpha"]), float(cfg["q"]), float(cfg["p"])
    corpus = {}
    for i in _sample(range(len(rows)), NORM_SAMPLES):
        band, k, l, mu, s, value = rows[i]
        s = int(s)
        if s not in corpus:
            b = random_symbol(alpha, int(cfg["symbol_max_block"]),
                              [cfg["seed"], 61, s])
            f = random_poly(_rng(cfg["seed"], 67, s), int(cfg["f_degree"]))
            corpus[s] = (b, f, lipschitz_oracle(b.coeffs, b.min_freq, alpha)
                         * hardy_oracle(f.coeffs, q))
        b, f, den = corpus[s]
        g = bht_mu_fourier(b, f, BHTParams(int(k), int(l), int(mu)))
        ref = 0.0 if g.is_zero else hardy_oracle(g.coeffs, p) / den
        if _rel(value, ref) > LIPSCHITZ_RTOL:
            bad[i] = f"norm ratio {value!r} vs fine-grid {ref!r}"
    return bad


def check_lemma_lipschitz_sweep(cfg, rows):
    from hankellab.spaces import random_symbol
    bad = _finite_positive(rows, 4)
    for i in _sample(range(len(rows)), NORM_SAMPLES):
        alpha, N, M, s, value = rows[i]
        N, M = int(N), int(M)
        b = random_symbol(alpha, int(cfg["symbol_max_block"]),
                          [cfg["seed"], 71, int(s)])
        coeffs = b.window(0, b.max_freq)
        if N > 16:
            coeffs[:1 << (N.bit_length() - 3)] = 0.0
        num = lipschitz_oracle(coeffs, M, alpha)
        den = lipschitz_oracle(b.coeffs, b.min_freq, alpha)
        ref = num / ((abs(M) / (N + 1.0) + 1.0) ** alpha * den)
        if _rel(value, ref) > LIPSCHITZ_RTOL:
            bad[i] = f"modulated ratio {value!r} vs fine-grid {ref!r}"
    return bad


CHECKS = {
    "identity_suite": check_identity_suite,
    "bht_consistency": check_bht_consistency,
    "truncation_uniformity": check_truncation_uniformity,
    "log_growth": check_log_growth,
    "constant_stability": check_constant_stability,
    "lemma_lipschitz_sweep": check_lemma_lipschitz_sweep,
}


def _parse(value):
    try:
        return float(value)
    except ValueError:
        return value


def read_rows(out_dir, experiment):
    """(config, rows) from a written report; numbers parsed as floats."""
    base = os.path.join(out_dir, experiment)
    with open(base + "_summary.json") as fh:
        config = json.load(fh)["config"]
    with open(base + "_rows.csv", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        rows = [[_parse(v) for v in row] for row in reader]
    return config, rows


def check_experiment(out_dir, experiment, expected_rows):
    """Number of failed rows among the expected ones, and reasons.

    Rows missing from the CSV, or a report that cannot be read, count as
    failed."""
    try:
        config, rows = read_rows(out_dir, experiment)
    except (OSError, ValueError, KeyError, StopIteration) as exc:
        return expected_rows, [f"{experiment}: report unreadable ({exc})"]
    try:
        bad = CHECKS[experiment](config, rows)
    except (ValueError, IndexError, TypeError) as exc:
        return expected_rows, [f"{experiment}: rows malformed ({exc})"]
    reasons = [f"{experiment} row {i}: {why}" for i, why in sorted(bad.items())]
    missing = abs(expected_rows - len(rows))
    if missing:
        reasons.append(f"{experiment}: {len(rows)} rows, "
                       f"expected {expected_rows}")
    return min(len(bad) + missing, expected_rows), reasons
