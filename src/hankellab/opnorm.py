"""Operator-norm estimation: finite sections, ratio search, model constants.

section_norm_2_2 runs Lanczos on A*A over one basis from a seeded or warm
start; its tridiagonal is B*B for Golub-Kahan's bidiagonal B, so it stops on
Golub-Kahan's Ritz-residual error estimate, and its value is a certified
lower bound.  ratio_search_qp produces lower bounds for q -> p operator
norms by sampling structured inputs and running a short coordinate ascent.
lebesgue_constant and sn_extremal_lower_bound provide the two classical
log N growth quantities, both from one closed form for the Fourier
coefficients of sign(D_N).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .serialize import poly_to_triples
from .spaces import hardy_norm, lipschitz_norm
from .trigpoly import TrigPoly, analytic_partial_sum, multiply, random_stream

ASCENT_ROUNDS = 3
# Lanczos on A*A: Ritz extraction cadence, breakdown threshold relative to
# the largest entry of the tridiagonal T, the norm drop that triggers a
# second Gram-Schmidt pass, and the initial row capacity of the basis
RITZ_EVERY = 2
BREAKDOWN_RTOL = 1e-13
REORTH_DROP = 0.3
# kept: exact-size bases made section_sweep 0.3-1.6 s slower per ~5 s run
BASIS_ROWS = 16

__all__ = [
    "NormEstimate",
    "section_norm_2_2",
    "ratio_search_qp",
    "lebesgue_constant",
    "sn_extremal_lower_bound",
]


@dataclass(frozen=True)
class NormEstimate:
    """An operator-norm estimate with its witness.

    value      ||A x|| for the unit witness x (golub_kahan), a lower bound
               up to rounding; or the best evaluated ratio (ratio_search), a
               lower bound only up to the refinement error of its hardy_norm
               values
    method     "golub_kahan" or "ratio_search"
    iterations matvec/adjoint pairs or ratio evaluations spent
    residual   estimated relative error of value (0 when the Krylov space
               became invariant and the value is exact up to rounding)
    witness    unit vector (golub_kahan) or TrigPoly (ratio search)
    converged  whether the error estimate met tol before the iteration cap
               (golub_kahan), or whether every hardy_norm value the ratio
               search divided converged (ratio_search)
    """
    value: float
    method: str
    iterations: int
    residual: float
    witness: object = None
    converged: bool = True

    def to_json_dict(self):
        w = self.witness
        if isinstance(w, TrigPoly):
            wit = poly_to_triples(w)
        elif w is None:
            wit = None
        else:
            arr = np.asarray(w)
            wit = [[float(z.real), float(z.imag)] for z in arr]
        return {
            "value": self.value,
            "method": self.method,
            "iterations": self.iterations,
            "residual": self.residual,
            "converged": self.converged,
            "witness": wit,
        }


def _start_vector(n, seed, v0):
    """`v0` normalized when it has length n and a nonzero norm, else a
    seeded complex Gaussian unit vector."""
    if v0 is not None:
        v = np.asarray(v0, dtype=np.complex128)
        nv = np.linalg.norm(v)
        if v.shape == (n,) and nv > 0:
            return v / nv
    rng = random_stream(seed)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def _orthogonalize(w, Q):
    """(w', ||w'||): w minus its components along the orthonormal rows of
    Q by classical Gram-Schmidt, with a second pass only when the first
    removes more than REORTH_DROP of the norm (Daniel, Gragg, Kaufman &
    Stewart 1976)."""
    before = np.linalg.norm(w)
    for _ in range(2):
        w = w - np.conj(Q @ np.conj(w)) @ Q
        after = float(np.linalg.norm(w))
        if after > (1.0 - REORTH_DROP) * before:
            break
        before = after
    return w, after


def _store(basis, k, row):
    """basis[k] = row, doubling the row capacity when it is full."""
    if k == basis.shape[0]:
        basis = np.concatenate([basis, np.empty_like(basis)])
    basis[k] = row
    return basis


def section_norm_2_2(section, tol: float = 1e-12, max_iter: int = 20000,
                     seed=0, v0=None) -> NormEstimate:
    """Largest singular value of a matrix section by Lanczos on A*A with
    full reorthogonalization, the one-basis form of Golub-Kahan-Lanczos
    bidiagonalization (Golub & Kahan 1965; Simon & Zha 2000).

    Step k reads A twice in place (A v_k, then conj(conj(A v_k) @ A)) and
    makes beta_k v_{k+1} = A*A v_k - alpha_k v_k - beta_{k-1} v_{k-1},
    alpha_k = ||A v_k||^2, orthogonal to v_<=k in one Gram-Schmidt pass.
    The tridiagonal T (diagonal alpha, off-diagonal beta) is B*B for
    Golub-Kahan's bidiagonal B.  Every RITZ_EVERY steps its top eigenpair
    (sigma^2, y) gives the Ritz vector x = sum y_j v_j and Golub-Kahan's
    residual r = ||A*A x - sigma^2 x|| / sigma = beta_k |y_k| / sigma.  The
    loop stops once the relative error estimate
    min(r / sigma, r^2 / (sigma * gap)) is at most `tol`, gap being sigma
    minus the second Ritz value (Parlett, The Symmetric Eigenvalue
    Problem).  A vanishing beta (below BREAKDOWN_RTOL times the largest
    entry of T), n basis vectors, or k = m (A*A has rank at most m) means
    the Krylov space is invariant: the value is exact, the estimate 0.

    The value is ||A x|| for the unit Ritz vector x, computed with one more
    product, so it is a lower bound up to rounding.  `v0` warm-starts the
    iteration when it has the right length and a nonzero norm (sweeps whose
    neighbouring sections share their top singular vector); otherwise the
    start is a complex Gaussian vector from `random_stream(seed)` (any
    integer or integers).  Missing `tol` after max_iter steps is reported
    through converged=False and a warning, with the last estimate recorded.
    """
    A = np.asarray(section, dtype=np.complex128)
    if A.ndim != 2:
        raise ParameterError("section must be a 2-D array")
    if max_iter < 1:
        raise ParameterError(f"max_iter must be positive, got {max_iter}")
    m, n = A.shape
    if A.size == 0:
        return NormEstimate(0.0, "golub_kahan", 0, 0.0,
                            np.zeros(n, dtype=np.complex128), True)
    V = np.empty((min(BASIS_ROWS, n), n), dtype=np.complex128)
    V[0] = _start_vector(n, seed, v0)
    alpha, beta = [], []
    floor = 0.0
    for k in range(max_iter):
        Av = A @ V[k]
        a = float(np.linalg.norm(Av)) ** 2
        alpha.append(a)
        floor = max(floor, BREAKDOWN_RTOL * a)
        b = 0.0
        if k < m and k + 1 < n:
            w = np.conj(np.conj(Av) @ A) - a * V[k]
            if k:
                w -= beta[-1] * V[k - 1]
            w, b = _orthogonalize(w, V[:k + 1])
        exact = b <= floor
        beta.append(b)
        if not exact:
            floor = max(floor, BREAKDOWN_RTOL * b)
            V = _store(V, k + 1, w / b)
        last = exact or k + 1 == max_iter
        if not (last or (k + 1) % RITZ_EVERY == 0):
            continue
        # eigh reads the lower triangle of T
        theta, Y = np.linalg.eigh(np.diag(alpha) + np.diag(beta[:k], -1))
        s = np.sqrt(np.maximum(theta[::-1], 0.0))
        rel = 0.0
        if not exact:
            sigma = float(s[0])
            r = b * abs(float(Y[k, -1])) / sigma
            rel = r / sigma
            if k and sigma > s[1]:
                rel = min(rel, r * r / (sigma * (sigma - float(s[1]))))
        if last or rel <= tol:
            break
    x = Y[:, -1] @ V[:k + 1]
    x /= np.linalg.norm(x)
    value = float(np.linalg.norm(A @ x))
    converged = rel <= tol
    if not converged:
        warnings.warn(
            f"Lanczos on A*A did not meet tol={tol} after {max_iter} "
            f"steps (last error estimate {rel:.3e})", RuntimeWarning,
            stacklevel=2)
    return NormEstimate(value, "golub_kahan", k + 1, rel, x, converged)


def _candidate_inputs(degree: int, samples: int, rng):
    """Structured candidate profiles: flat random, lacunary, single
    frequency, and products of random low-degree factors."""
    cands = []
    for n in range(degree + 1):
        cands.append(TrigPoly.character(n))
    powers = [1 << j for j in range((degree).bit_length()) if 1 << j <= degree]
    while len(cands) < samples + degree + 1:
        kind = len(cands) % 3
        if kind == 0:
            c = rng.standard_normal(degree + 1) \
                + 1j * rng.standard_normal(degree + 1)
            cands.append(TrigPoly(c, 0))
        elif kind == 1 and powers:
            c = rng.standard_normal(len(powers) + 1) \
                + 1j * rng.standard_normal(len(powers) + 1)
            cands.append(TrigPoly.from_pairs(
                [(0, c[0])] + [(p, c[j + 1]) for j, p in enumerate(powers)]))
        else:
            prod = TrigPoly.constant(1.0)
            while prod.max_freq < degree:
                u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
                prod = multiply(prod, TrigPoly(u, 0))
            prod = analytic_partial_sum(prod, degree)
            cands.append(prod)
    return cands


def ratio_search_qp(op, q: float, p: float, degree: int, samples: int = 64,
                    seed=0) -> NormEstimate:
    """Lower bound for the H^q -> H^p norm of `op` over inputs of bounded
    degree: hardy_norm(op(f), p) / hardy_norm(f, q) maximized over structured
    samples from `random_stream(seed)` (any integer or integers), then
    improved by ASCENT_ROUNDS rounds of coordinate ascent on the best one.

    The value is a lower bound up to the hardy_norm refinement error.
    converged is True only if every hardy_norm the search divided reported
    converged.  A degenerate operator (all candidates annihilated) yields
    value 0 with converged=False.
    """
    if degree < 0:
        raise ParameterError("degree must be nonnegative")
    rng = random_stream(seed)
    evals = 0
    converged = True

    def ratio(f):
        nonlocal evals, converged
        den = hardy_norm(f, q)
        if den.value <= 1e-13:
            return 0.0
        g = op(f)
        evals += 1
        if g.is_zero:
            return 0.0
        num = hardy_norm(g, p)
        converged = converged and num.converged and den.converged
        return num.value / den.value

    best_val = 0.0
    best_f = None
    for f in _candidate_inputs(degree, samples, rng):
        r = ratio(f)
        if r > best_val:
            best_val, best_f = r, f
    if best_f is None or best_val == 0.0:
        return NormEstimate(0.0, "ratio_search", evals, 0.0, None, False)

    coeffs = best_f.window(0, degree)
    step = 0.5 * float(np.abs(coeffs).max())
    for _ in range(ASCENT_ROUNDS):
        for idx in range(degree + 1):
            for delta in (step, -step, 1j * step, -1j * step):
                trial = coeffs.copy()
                trial[idx] += delta
                r = ratio(TrigPoly(trial, 0))
                if r > best_val:
                    best_val = r
                    coeffs = trial
        step *= 0.5
    witness = TrigPoly(coeffs, 0)
    return NormEstimate(best_val, "ratio_search", evals, 0.0, witness,
                        converged)


def _sign_dirichlet_weights(M: int, top: int) -> np.ndarray:
    """w_v = tan(pi v/(2M+1)) / (pi v) for v = -top..top, w_0 = 1/(2M+1):
    the Fourier coefficients of sign(D_M), which is (-1)^k on
    (t_k, t_{k+1}), t_k = 2 pi k/(2M+1) (Fejer 1910; Zygmund,
    Trigonometric Series I, ch. II).

    Each tangent is taken at its smallest angle, so none is evaluated near
    a pole: with K = 2M+1 and a = 2v reduced exactly into [-K, K),
    tan(pi v/K) is sign(a) tan(pi |a|/(2K)) when 2|a| <= K, and
    sign(a) cot(pi (K - |a|)/(2K)) otherwise; both angles are at most
    pi/4."""
    K = 2 * M + 1
    v = np.arange(1, top + 1)
    a = (2 * v + K) % (2 * K) - K
    r = np.abs(a)
    near = 2 * r <= K
    t = np.tan(np.pi * np.where(near, r, K - r) / (2 * K))
    np.divide(1.0, t, out=t, where=~near)
    w = np.sign(a) * t / (np.pi * v)
    return np.concatenate([w[::-1], [1.0 / K], w])


def lebesgue_constant(N: int) -> float:
    """L_N = (1/2pi) int D_N sign(D_N), the sum over |v| <= N of the Fourier
    coefficients of sign(D_N): Fejer's closed form 1/(2N+1) + (2/pi)
    sum_{k=1}^{N} tan(pi k/(2N+1))/k."""
    N = int(N)
    if N < 0:
        raise ParameterError("N must be nonnegative")
    return float(np.sum(_sign_dirichlet_weights(N, N)))


def _sign_dirichlet_coeffs(M: int) -> TrigPoly:
    """sign(D_M) truncated to |v| <= 2M, from _sign_dirichlet_weights."""
    return TrigPoly(_sign_dirichlet_weights(M, 2 * M), -2 * M)


def sn_extremal_lower_bound(N: int, alpha: float) -> float:
    """Lower-bound ratio for the analytic partial sum on Lambda_alpha.

    Requires N = 4 * 2^n for an integer n >= 1.  With M = N/4, builds the
    Fejer mean g of order 2M of sign(D_M) (degree 2M, ||g||_inf <= 1 by
    positivity of the Fejer kernel), modulates f = e^{i (3N/4) t} g so the
    spectrum of f sits in [N/4, 5N/4] subset {2^n, ..., 2^{n+3}}, and returns

        lipschitz_norm(S_N^+ f, alpha) / lipschitz_norm(f, alpha),

    which grows like c log N along the admissible N.
    """
    N = int(N)
    M, rem = divmod(N, 4)
    if rem != 0 or M < 2 or (M & (M - 1)) != 0:
        raise ParameterError(
            f"N must be 4 * 2^n with n >= 1, got N={N}")
    w = _sign_dirichlet_coeffs(M)
    fej = 1.0 - np.abs(w.frequencies()) / (2 * M + 1.0)
    g = TrigPoly(w.coeffs * fej, w.min_freq)
    f = multiply(g, TrigPoly.character(3 * M))
    num = lipschitz_norm(analytic_partial_sum(f, N), alpha).value
    den = lipschitz_norm(f, alpha).value
    return num / den
