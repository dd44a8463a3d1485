"""Periodic bilinear Hilbert transforms and their principal-value quadrature.

All operators below normalize the singular integral by 1/(2pi), so that the
elementary building block is the conjugate-function pairing

    (1/2pi) p.v. int_T e^{ist} cot((x - t)/2) dt = -i sign(s) e^{isx},

with sign(0) = 0.  Two operator families are implemented coefficientwise:

  plain (k,l) form, for b = sum_p b_p e^{ipu} and f = sum_q a_q e^{iqt}:

      H_{k,l}(b, f)(x) = (1/2pi) p.v. int b(kx + lt) f(t) cot((x-t)/2) dt
                       = sum_{p,q} (-i) sign(pl + q) b_p a_q e^{i((k+l)p+q)x}

  mu form (f analytic, L = k + l):

      H_{k,l,mu}(b, f)(x)
        = (1/2pi) p.v. int [b(kx+lt) e^{i mu (x-t)} - b(Lx)] f(Lt) cot((x-t)/2) dt
        = sum_{p,q} (-i) [sign(pl + qL - mu) - sign(qL)] b_p a_q e^{i(p+q)Lx}

so the mu-form output spectrum lies in L*Z.  Both formulas are validated
against pv_quadrature on staggered midpoint grids, which integrate the
cotangent pairing exactly for every frequency |s| <= G/2.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NonAnalyticError, ParameterError
from .hankel import TruncationSpec, hankel_apply, truncated_apply
from .trigpoly import (Grid, TrigPoly, analytic_part, coeff_distance,
                       eval_grid, stretch, translate)

__all__ = [
    "BHTParams",
    "bht_fourier",
    "bht_mu_fourier",
    "pv_quadrature",
    "link_identity_check",
    "translation_covariance_check",
    "real_line_bht",
]


@dataclass(frozen=True)
class BHTParams:
    """Integer parameters (k, l, mu) with l != 0, k != -l, |mu| <= |l|."""
    k: int
    l: int
    mu: int = 0

    def __post_init__(self):
        for name in ("k", "l", "mu"):
            v = getattr(self, name)
            if int(v) != v:
                raise ParameterError(f"{name} must be an integer, got {v!r}")
            object.__setattr__(self, name, int(v))
        if self.l == 0:
            raise ParameterError("l must be nonzero")
        if self.k == -self.l:
            raise ParameterError("k = -l is excluded (k + l must be nonzero)")
        if abs(self.mu) > abs(self.l):
            raise ParameterError(
                f"mu must satisfy |mu| <= |l|, got mu={self.mu}, l={self.l}")

    @property
    def L(self) -> int:
        return self.k + self.l


def _pairing(x_freqs, t_freqs, amps) -> TrigPoly:
    """sum A e^{irx} (1/2pi) p.v. int e^{ist} cot((x-t)/2) dt
       = sum (-i) sign(s) A e^{i(r+s)x}, accumulated coefficientwise."""
    r = np.asarray(x_freqs, dtype=np.int64).ravel()
    s = np.asarray(t_freqs, dtype=np.int64).ravel()
    a = np.asarray(amps, dtype=np.complex128).ravel()
    vals = -1j * np.sign(s) * a
    out = r + s
    lo, hi = int(out.min()), int(out.max())
    buf = np.zeros(hi - lo + 1, dtype=np.complex128)
    np.add.at(buf, out - lo, vals)
    return TrigPoly(buf, lo)


def bht_fourier(b: TrigPoly, f: TrigPoly, k: int, l: int) -> TrigPoly:
    """Coefficientwise H_{k,l}(b, f); b and f arbitrary trig polynomials."""
    params = BHTParams(k, l, 0)
    if b.is_zero or f.is_zero:
        return TrigPoly.zero()
    p = b.frequencies()[:, None]
    q = f.frequencies()[None, :]
    amps = b.coeffs[:, None] * f.coeffs[None, :]
    return _pairing(params.k * p + 0 * q, params.l * p + q, amps)


def bht_mu_fourier(b: TrigPoly, f: TrigPoly, params: BHTParams) -> TrigPoly:
    """Coefficientwise H_{k,l,mu}(b, f); f must be analytic."""
    if not f.is_analytic:
        raise NonAnalyticError("the mu form requires analytic f")
    if b.is_zero or f.is_zero:
        return TrigPoly.zero()
    k, l, mu, L = params.k, params.l, params.mu, params.L
    p = b.frequencies()[:, None]
    q = f.frequencies()[None, :]
    amps = b.coeffs[:, None] * f.coeffs[None, :]
    zeros = np.zeros_like(p * q)
    first = _pairing(k * p + mu + zeros, l * p - mu + L * q, amps)
    second = _pairing(L * p + zeros, L * q + zeros, -amps)
    return first + second


def _cot_kernel(G: int) -> np.ndarray:
    """K[d] = (1/G) cot(pi (d - 1/2)/G), the midpoint samples of the kernel
    (1/2pi) cot((x-t)/2) at x - t = (2pi/G)(d - 1/2)."""
    d = np.arange(G, dtype=np.float64)
    return (1.0 / G) / np.tan(np.pi * (d - 0.5) / G)


def pv_quadrature(b: TrigPoly, f: TrigPoly, params: BHTParams, G: int,
                  variant: str = "mu_form", method: str = "fft") -> np.ndarray:
    """Midpoint-rule principal-value quadrature of the bilinear transforms.

    Output values are taken at x_i = 2pi i/G while the integration nodes are
    staggered at t_j = 2pi (j + 1/2)/G, so the singularity is never sampled
    and the rule is exact for integrand frequencies up to G/2.

    variant "plain_kl" integrates b(kx + lt) f(t) against the cot kernel;
    variant "mu_form" integrates [b(kx+lt) e^{i mu (x-t)} - b((k+l)x)] f((k+l)t).
    method "fft" uses one circular convolution per symbol frequency; method
    "direct" forms the chunked O(G^2) double sum.  Both are rearrangements of
    the same finite sums.
    """
    nodes = Grid(G, staggered=True)
    G = nodes.size
    if variant not in ("plain_kl", "mu_form"):
        raise ParameterError(f"unknown variant {variant!r}")
    if method not in ("fft", "direct"):
        raise ParameterError(f"unknown method {method!r}")
    if variant == "mu_form" and not f.is_analytic:
        raise NonAnalyticError("the mu form requires analytic f")
    if b.is_zero or f.is_zero:
        return np.zeros(G, dtype=np.complex128)

    k, l, mu, L = params.k, params.l, params.mu, params.L
    grid = Grid(G)
    x = grid.points()
    t = nodes.points()
    if variant == "plain_kl":
        fvals = eval_grid(f, nodes)                 # f(t_j)
        t_extra = 0
    else:
        fvals = eval_grid(stretch(f, L), nodes)     # f(L t_j)
        t_extra = abs(mu)
    max_t_freq = abs(l) * b.degree + t_extra + \
        (f.degree if variant == "plain_kl" else abs(L) * f.degree)
    if 2 * max_t_freq > G:
        warnings.warn(
            f"quadrature grid G={G} is below the exactness threshold "
            f"{2 * max_t_freq} for these degrees; results are approximate",
            RuntimeWarning, stacklevel=2)

    if method == "fft":
        khat = np.fft.fft(_cot_kernel(G))

        def conv(h):
            return np.fft.ifft(np.fft.fft(h) * khat)

        out = np.zeros(G, dtype=np.complex128)
        ps = b.frequencies()
        cs = b.coeffs
        if variant == "plain_kl":
            for p, bp in zip(ps, cs):
                out += bp * np.exp(1j * k * p * x) * \
                    conv(np.exp(1j * l * p * t) * fvals)
        else:
            base = conv(fvals)
            for p, bp in zip(ps, cs):
                out += bp * np.exp(1j * (k * p + mu) * x) * \
                    conv(np.exp(1j * (l * p - mu) * t) * fvals)
                out -= bp * np.exp(1j * L * p * x) * base
        return out

    # direct: chunked double sums over the kernel matrix
    out = np.zeros(G, dtype=np.complex128)
    # b(k x_i + l t_j) = bvals[(k i + l j) mod G] with a fixed offset l*pi/G
    bvals = eval_grid(translate(b, np.pi * l / G), grid)
    if variant == "mu_form":
        bL = eval_grid(stretch(b, L), grid)
    chunk = max(1, (1 << 22) // G)
    j = np.arange(G)
    for start in range(0, G, chunk):
        stop = min(G, start + chunk)
        i = np.arange(start, stop)
        kern = (1.0 / G) / np.tan(
            np.pi * (i[:, None] - j[None, :] - 0.5) / G)
        barg = bvals[(k * i[:, None] + l * j[None, :]) % G]
        if variant == "plain_kl":
            integ = barg * fvals[None, :]
        else:
            phase = np.exp(1j * mu * (x[i][:, None] - t[None, :]))
            integ = (barg * phase - bL[i][:, None]) * fvals[None, :]
        out[start:stop] = np.sum(integ * kern, axis=1)
    return out


def link_identity_check(b: TrigPoly, f: TrigPoly, k: int, l: int,
                        gamma_l: int) -> float:
    """Residual of the link between the modulated singular integral and the
    sign-multiplier truncation of H_b.

    Side A is the analytic part of the pairing

        (1/2pi) p.v. int b(kx + lt) e^{i gamma_l (x-t)} f((k+l)(-t))
                cot((x-t)/2) dt,

    expanded coefficientwise.  Side B is

        (-i) sign(l) (2 Pi_{beta,gamma} - I)(H_b f)   at frequency scale k+l,

    with beta = k/l, gamma = gamma_l/l and half-weight boundary, i.e. the
    multiplier sign(l(m - beta n - gamma)) applied to the Hankel sums.
    Requires l != 0, k + l > 0, analytic b and f.  The two sides agree
    exactly (coefficient by coefficient) up to rounding.
    """
    if l == 0 or k + l <= 0:
        raise ParameterError("need l != 0 and k + l > 0")
    if not (b.is_analytic and f.is_analytic):
        raise NonAnalyticError("link identity requires analytic b and f")
    gamma_l = int(gamma_l)
    L = k + l
    if b.is_zero or f.is_zero:
        return 0.0

    # Side A: b contributes e^{ipk x} e^{ipl t}; the modulation contributes
    # e^{i gamma_l x} e^{-i gamma_l t}; f((k+l)(-t)) contributes e^{-i n L t}.
    p = b.frequencies()[:, None]
    n = f.frequencies()[None, :]
    amps = b.coeffs[:, None] * f.coeffs[None, :]
    side_a = analytic_part(_pairing(k * p + gamma_l + 0 * n,
                                    l * p - gamma_l - L * n, amps))

    spec = TruncationSpec((k / l,), gamma_l / l, boundary="half")
    half = truncated_apply(b, spec, f)
    full = hankel_apply(b, f)
    comb = 2.0 * half - full
    sgn = 1.0 if l > 0 else -1.0
    side_b = stretch((-1j * sgn) * comb, L)
    return coeff_distance(side_a, side_b)


def translation_covariance_check(b: TrigPoly, f: TrigPoly, params: BHTParams,
                                 y: float) -> float:
    """Residual of the translation covariance of the mu form.

    The consistent direction, fixed by the coefficient formula and verified
    empirically, is: translating BOTH inputs by L*y (L = k+l) translates the
    output by y,

        H_{k,l,mu}(b(.+Ly), f(.+Ly)) = H_{k,l,mu}(b, f)(.+y).

    (Translating the inputs by y itself is NOT an identity: the two sides
    would differ by e^{iq(L-1)y} phases on each f frequency q.)
    """
    L = params.L
    lhs = bht_mu_fourier(translate(b, L * y), translate(f, L * y), params)
    rhs = translate(bht_mu_fourier(b, f, params), y)
    return coeff_distance(lhs, rhs)


def real_line_bht(b, f, beta: float, x, support,
                  nodes: int = 4096) -> np.ndarray:
    """Midpoint quadrature of the real-line model operator

        (H^beta b f)(x) = p.v. int [b(x + beta(s - x)) - b(x)] f(s)/(x - s) ds

    for callables b, f, with f supported in `support` = (lo, hi).  The
    bracket removes the singularity for Lipschitz b; nodes within h/2 of x
    are dropped (h the node spacing), which converges for the principal
    value by symmetry of the midpoint rule.

    beta = 0 gives identically zero; b(u) = u gives -beta * int f.
    """
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    lo, hi = float(support[0]), float(support[1])
    if not hi > lo:
        raise ParameterError("support must be a nondegenerate interval")
    nodes = int(nodes)
    if nodes <= 0:
        raise ParameterError("nodes must be positive")
    if beta == 0:
        return np.zeros(x.shape, dtype=np.complex128)
    h = (hi - lo) / nodes
    s = lo + (np.arange(nodes) + 0.5) * h
    fs = np.asarray(f(s), dtype=np.complex128)
    out = np.empty(x.shape, dtype=np.complex128)
    for i, xi in enumerate(x):
        d = xi - s
        keep = np.abs(d) > 0.5 * h
        u = xi + beta * (s[keep] - xi)
        vals = (np.asarray(b(u), dtype=np.complex128) - complex(b(xi))) \
            * fs[keep] / d[keep]
        out[i] = h * np.sum(vals)
    return out
