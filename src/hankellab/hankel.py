"""Hankel operators, multilinear variants, and their (beta, gamma) truncations.

For an analytic symbol b = sum_k b_k e^{ikt} and analytic f = sum_n a_n e^{int},

    (H_b f)(e^{imx}) carries coefficient  c_m = sum_n a_n b_{m+n},  m >= 0,

equivalently H_b f = analytic_part(b * flip(f)).  The multilinear version
feeds the pointwise product f_1 ... f_n to H_b.

The truncation Pi_{beta,gamma} keeps the matrix entry (m, n) (output
frequency m, input frequency n) when m >= beta*n + gamma; the multilinear
truncation keeps the coefficient tuple (i_0; i_1..i_n) when
beta . (i_1..i_n) + gamma <= i_0.  Two boundary conventions are supported:
"include" gives weight 1 on the boundary m = beta*n + gamma, and "half"
gives weight 1/2 there, so that 2*Pi - I realizes the multiplier
sign(m - beta*n - gamma) with sign(0) = 0.

One rule, TruncationSpec.weights, decides the boundary for every truncation,
linear or multilinear: output index m is kept against the threshold
t = beta . n + gamma when m >= ceil(t - 1e-8), and for "half" the kept indices
m <= floor(t + 1e-8) lie on the boundary.  The tolerance absorbs the rounding
of t, below ~1e-11 at the index ranges the guards allow (|m|, |n| <= 4096,
moderate beta and gamma), while a threshold of the rational beta = k/l sweeps
that is not an integer stays at least 1/|l| away from one, many orders larger.
The multilinear truncation takes these integer cutoffs once per call and
weighs every output index with them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (CostGuardError, NonAnalyticError, ParameterError,
                     SectionSizeError)
from .trigpoly import (TrigPoly, analytic_part, analytic_partial_sum,
                       coeff_distance, flip, multiply, partial_sum)

BOUNDARY_TOL = 1e-8
SECTION_GUARD = 4096
MULTILINEAR_COST_GUARD = 10 ** 8
_BLOCK_ENTRIES = 1 << 16

__all__ = [
    "TruncationSpec",
    "hankel_apply",
    "truncated_apply",
    "multilinear_truncated_apply",
    "column_truncation_apply",
    "beta_zero_identity_check",
    "beta_minus_one_identity_check",
    "matrix_section",
    "section_weights",
]


@dataclass(frozen=True)
class TruncationSpec:
    """Slope vector beta (length n for an n-linear operator), offset gamma,
    and boundary convention ("include" or "half")."""
    beta: tuple
    gamma: float
    boundary: str = "include"

    def __post_init__(self):
        beta = self.beta
        if isinstance(beta, (int, float)):
            beta = (float(beta),)
        else:
            beta = tuple(float(x) for x in beta)
        if not beta:
            raise ParameterError("beta must have at least one component")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "gamma", float(self.gamma))
        if self.boundary not in ("include", "half"):
            raise ParameterError(
                f"boundary must be 'include' or 'half', got {self.boundary!r}")

    @property
    def arity(self) -> int:
        return len(self.beta)

    def weights(self, m, t) -> np.ndarray:
        """Weights of output indices m against thresholds t = beta . n +
        gamma, broadcast together.

        Index m is kept when m >= ceil(t - BOUNDARY_TOL).  For "include" the
        result is that boolean mask; for "half" it is a float array with 1/2
        on the kept indices m <= floor(t + BOUNDARY_TOL), which lie on the
        boundary.
        """
        return self.cutoff_weights(m, self.cutoffs(t))

    # kept: weights(i0, t) per output index made multilinear calls 22% slower
    @staticmethod
    def cutoffs(t):
        """Integer cutoffs (ceil(t - BOUNDARY_TOL), floor(t + BOUNDARY_TOL))
        of thresholds t, computed once to weigh many m."""
        return np.ceil(t - BOUNDARY_TOL), np.floor(t + BOUNDARY_TOL)

    def cutoff_weights(self, m, cuts) -> np.ndarray:
        """weights(m, t) from cuts = cutoffs(t)."""
        lo, hi = cuts
        keep = m >= lo
        if self.boundary == "include":
            return keep
        w = keep.astype(np.float64)
        w[keep & (m <= hi)] = 0.5
        return w


def _ensure_analytic(f: TrigPoly, what: str) -> None:
    if not f.is_analytic:
        raise NonAnalyticError(f"Hankel {what} must be analytic")


def section_weights(spec: TruncationSpec, rows: int,
                    cols: int) -> np.ndarray:
    """Weights of a linear truncation on the rows x cols grid (output m,
    input n): spec.weights with one threshold beta*n + gamma per column."""
    if spec.arity != 1:
        raise ParameterError("linear truncation requires a length-1 beta")
    t = spec.beta[0] * np.arange(cols, dtype=np.float64) + spec.gamma
    return spec.weights(np.arange(rows, dtype=np.float64)[:, None], t)


def _section(b: TrigPoly, spec: TruncationSpec | None, rows: int,
             cols: int) -> np.ndarray:
    """The rows x cols array (b_{m+n}), masked by the truncation weights of
    a linear spec when one is given."""
    B = b.window(0, rows + cols - 2)
    H = B[np.arange(rows)[:, None] + np.arange(cols)[None, :]]
    if spec is None:
        return H
    return section_weights(spec, rows, cols) * H


def hankel_apply(b: TrigPoly, f: TrigPoly, method: str = "direct") -> TrigPoly:
    """H_b f, coefficient c_m = sum_n a_n b_{m+n}.

    method "direct" computes the correlation sums; method "projection"
    computes analytic_part(b * flip(f)).  The two agree exactly and are kept
    as independent code paths for cross-validation.
    """
    _ensure_analytic(b, "symbols")
    _ensure_analytic(f, "input")
    if b.is_zero or f.is_zero:
        return TrigPoly.zero()
    if method == "projection":
        return analytic_part(multiply(b, flip(f)))
    if method != "direct":
        raise ParameterError(f"unknown method {method!r}")
    B = b.window(0, b.max_freq)
    A = f.window(0, f.max_freq)
    conv = np.convolve(B, A[::-1])
    # conv[len(A)-1 + m] = sum_n B[m+n] A[n]
    return TrigPoly(conv[A.size - 1:], 0)


def truncated_apply(b: TrigPoly, spec: TruncationSpec, f: TrigPoly) -> TrigPoly:
    """Pi_{beta,gamma}(H_b) f for a linear truncation (arity 1)."""
    if spec.arity != 1:
        raise ParameterError("linear truncation requires a length-1 beta")
    _ensure_analytic(b, "symbols")
    _ensure_analytic(f, "input")
    if b.is_zero or f.is_zero:
        return TrigPoly.zero()
    D = f.max_freq
    c = _section(b, spec, b.max_freq + 1, D + 1) @ f.window(0, D)
    return TrigPoly(c, 0)


def multilinear_truncated_apply(b: TrigPoly, spec: TruncationSpec,
                                fs) -> TrigPoly:
    """Pi_{beta,gamma}(H_b^{(n)})(f_1, ..., f_n): keeps the coefficient
    product a^1_{i_1} ... a^n_{i_n} b_{i_0 + i_1 + ... + i_n} at output
    frequency i_0 when beta . (i_1, ..., i_n) + gamma <= i_0."""
    fs = list(fs)
    if len(fs) != spec.arity:
        raise ParameterError(
            f"arity mismatch: beta has length {spec.arity}, "
            f"got {len(fs)} inputs")
    _ensure_analytic(b, "symbols")
    for f in fs:
        _ensure_analytic(f, "input")
    if b.is_zero or any(f.is_zero for f in fs):
        return TrigPoly.zero()
    K = b.max_freq
    degs = [f.max_freq for f in fs]
    cost = (K + 1) * math.prod(d + 1 for d in degs)
    if cost > MULTILINEAR_COST_GUARD:
        raise CostGuardError(
            f"multilinear evaluation cost {cost} exceeds the guard "
            f"{MULTILINEAR_COST_GUARD}")
    shape = tuple(d + 1 for d in degs)
    index_sum = np.zeros(shape, dtype=np.int64)
    slope_dot = np.zeros(shape, dtype=np.float64)
    amp = np.ones(shape, dtype=np.complex128)
    for g, beta_j, f in zip(np.indices(shape), spec.beta, fs):
        index_sum += g
        slope_dot += beta_j * g
        amp = amp * f.window(0, f.max_freq)[g]
    B = b.window(0, K + sum(degs))
    out = np.zeros(K + 1, dtype=np.complex128)
    # a block of output indices i0 per pass, about _BLOCK_ENTRIES entries:
    # W is 0, 1/2 or 1, so W * amp is exact, and the row-wise sum of the
    # C-contiguous block is the per-row np.sum bit for bit
    cuts = tuple(c.ravel() for c in spec.cutoffs(slope_dot + spec.gamma))
    amp, index_sum = amp.ravel(), index_sum.ravel()
    step = max(1, _BLOCK_ENTRIES // amp.size)
    for start in range(0, K + 1, step):
        i0 = np.arange(start, min(start + step, K + 1))[:, None]
        W = spec.cutoff_weights(i0, cuts)
        out[start:start + step] = np.sum(W * amp * B[i0 + index_sum], axis=1)
    return TrigPoly(out, 0)


def column_truncation_apply(b: TrigPoly, N: int, f: TrigPoly) -> TrigPoly:
    """The beta = infinity (column) truncation: keep input frequencies
    n >= N.  Computed as an independently masked sum; equals
    hankel_apply(b, tail_projection(f, N))."""
    _ensure_analytic(b, "symbols")
    _ensure_analytic(f, "input")
    if b.is_zero or f.is_zero:
        return TrigPoly.zero()
    D = f.max_freq
    W = (np.arange(D + 1)[None, :] >= int(N)).astype(np.float64)
    c = (W * _section(b, None, b.max_freq + 1, D + 1)) @ f.window(0, D)
    return TrigPoly(c, 0)


def beta_zero_identity_check(b: TrigPoly, N: int, f: TrigPoly) -> float:
    """Residual of Pi_{0, N+1}(H_b) f = (I - S_N)(H_b f)."""
    lhs = truncated_apply(b, TruncationSpec((0.0,), N + 1), f)
    h = hankel_apply(b, f)
    rhs = h - partial_sum(h, N)
    return coeff_distance(lhs, rhs)


def beta_minus_one_identity_check(b: TrigPoly, N: int, f: TrigPoly) -> float:
    """Residual of (I - Pi_{-1, N})(H_b) f = H_{S_{N-1} b} f."""
    h = hankel_apply(b, f)
    lhs = h - truncated_apply(b, TruncationSpec((-1.0,), N), f)
    rhs = hankel_apply(analytic_partial_sum(b, N - 1), f)
    return coeff_distance(lhs, rhs)


def matrix_section(b: TrigPoly, spec: TruncationSpec | None,
                   rows: int, cols: int) -> np.ndarray:
    """The read-only rows x cols complex array (b_{m+n})_{0<=m<rows,
    0<=n<cols}, masked by the truncation weights of a linear spec when one
    is given."""
    _ensure_analytic(b, "symbols")
    rows, cols = int(rows), int(cols)
    if rows <= 0 or cols <= 0:
        raise SectionSizeError("section dimensions must be positive")
    if max(rows, cols) > SECTION_GUARD:
        raise SectionSizeError(
            f"section dimension {max(rows, cols)} exceeds the guard "
            f"{SECTION_GUARD}")
    H = _section(b, spec, rows, cols)
    H.setflags(write=False)
    return H
