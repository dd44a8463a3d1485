"""Periodic bilinear Hilbert transforms and their principal-value quadrature.

All operators below normalize the singular integral by 1/(2pi), so that the
elementary building block is the conjugate-function pairing

    (1/2pi) p.v. int_T e^{ist} cot((x - t)/2) dt = -i sign(s) e^{isx},

with sign(0) = 0.  Both transforms belong to one family of integrals,

    (1/2pi) p.v. int [b(kx + lt) e^{i mu (x-t)} - base b(Lx)] f(scale t)
                     cot((x-t)/2) dt,        L = k + l,

expanded coefficientwise for b = sum_p b_p e^{ipu} and f = sum_q a_q e^{iqt}:
the first term pairs the x-frequency kp + mu with the t-frequency
lp - mu + scale q, and the base term pairs Lp with scale q.  The two forms
fix (scale, mu, base):

  plain (k,l) form, b and f arbitrary, (scale, mu, base) = (1, 0, 0):

      H_{k,l}(b, f)(x) = sum_{p,q} (-i) sign(pl + q) b_p a_q e^{i((k+l)p+q)x}

  mu form, f analytic, (scale, mu, base) = (L, mu, 1):

      H_{k,l,mu}(b, f)(x)
        = sum_{p,q} (-i) [sign(pl + qL - mu) - sign(qL)] b_p a_q e^{i(p+q)Lx}

so the mu-form output spectrum lies in L*Z.  Both formulas are validated
against pv_quadrature on staggered midpoint grids, which integrate the
cotangent pairing exactly for every frequency |s| < G.

The quadrature takes outputs at x_i = 2pi i/G and nodes at
t_j = 2pi (j + 1/2)/G, so in the DFT of length G two shift identities hold
exactly: multiplying the nodes' samples by e^{iat_j} shifts their DFT by a
and multiplies it by e^{i pi a/G}, and multiplying the output by e^{icx_i}
shifts its DFT by c.  Each symbol frequency p is then one product of shifted
kernel and input transforms, and a whole quadrature is one forward FFT and
one inverse, plus one kernel FFT per grid size.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NonAnalyticError, ParameterError
from .hankel import TruncationSpec, hankel_apply, truncated_apply
from .trigpoly import (PRUNE_TOL, Grid, TrigPoly, coeff_distance,
                       eval_grid, stretch, translate)

__all__ = [
    "BHTParams",
    "bht_fourier",
    "bht_mu_fourier",
    "bht_mu_family",
    "pv_quadrature",
    "link_identity_check",
    "translation_covariance_check",
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
            try:
                integral = int(v) == v
            except (TypeError, ValueError, OverflowError):
                integral = False
            if not integral:
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


def _form(variant: str, f: TrigPoly, params: BHTParams):
    """(scale, mu, base) of the named form, after its admissibility checks:
    "plain_kl" is (1, 0, False) and needs mu = 0; "mu_form" is
    (L, mu, True) and needs analytic f."""
    if variant == "plain_kl":
        if params.mu != 0:
            raise ParameterError(
                f"the plain (k,l) form has no modulation, got mu={params.mu}")
        return 1, 0, False
    if variant == "mu_form":
        if not f.is_analytic:
            raise NonAnalyticError("the mu form requires analytic f")
        return params.L, params.mu, True
    raise ParameterError(f"unknown variant {variant!r}")


def _bht_coeffs(bs, fs, k: int, l: int, mus, scale: int, base: bool):
    """Coefficients of the transforms of the (scale, mu, base) family for
    every pair (bs[i], fs[i]) and every mu in `mus`, as (rows, lo): rows[j, i]
    holds the coefficients of the transform of pair i at mus[j] from
    frequency lo on, untrimmed.

    Each product b_p a_q pairs the x-frequency kp + mu with the t-frequency
    lp - mu + scale*q, so it lands on the output frequency Lp + scale*q
    whatever mu is; base subtracts the pairing of Lp with scale*q, which
    does not involve mu.  The pairs are zero-padded to common (p, q) extents
    and share one output window of width W, pair i owning the slots
    i*W .. i*W + W - 1, so a single np.add.at per mu accumulates all of
    them, each coefficient in the raveled (p, q) order of its own pair.
    A padded product is an exact zero, and adding a zero to a slot that
    starts at +0.0 never changes its bits.  The first and the base pairing
    are each pruned at PRUNE_TOL before they are summed, as in
    TrigPoly + TrigPoly, so every row is the one-pair result bit for bit.
    """
    n = len(bs)
    width_b = max((b.coeffs.size for b in bs), default=0)
    width_f = max((f.coeffs.size for f in fs), default=0)
    if not (width_b and width_f):
        return np.zeros((len(mus), n, 0), dtype=np.complex128), 0
    B = np.zeros((n, width_b), dtype=np.complex128)
    F = np.zeros((n, width_f), dtype=np.complex128)
    for i, (b, f) in enumerate(zip(bs, fs)):
        B[i, :b.coeffs.size] = b.coeffs
        F[i, :f.coeffs.size] = f.coeffs
    p = (np.array([b.min_freq for b in bs])[:, None]
         + np.arange(width_b))[:, :, None]
    sq = scale * (np.array([f.min_freq for f in fs])[:, None]
                  + np.arange(width_f))[:, None, :]
    amps = B[:, :, None] * F[:, None, :]
    out = (k + l) * p + sq
    lo = int(out.min())
    W = int(out.max()) - lo + 1
    slot = (out + (W * np.arange(n) - lo)[:, None, None]).ravel()
    t = l * p + sq
    rows = np.zeros((len(mus), n * W), dtype=np.complex128)
    for j, mu in enumerate(mus):
        np.add.at(rows[j], slot, (-1j * np.sign(t - mu) * amps).ravel())
    if base:
        rows_base = np.zeros(n * W, dtype=np.complex128)
        np.add.at(rows_base, slot, (-1j * np.sign(sq) * -amps).ravel())
        for r in (rows, rows_base):
            r[np.abs(r) <= PRUNE_TOL] = 0.0
        rows += rows_base
    return rows.reshape(len(mus), n, W), lo


def bht_fourier(b: TrigPoly, f: TrigPoly, k: int, l: int) -> TrigPoly:
    """Coefficientwise H_{k,l}(b, f); b and f arbitrary trig polynomials."""
    params = BHTParams(k, l, 0)
    scale, mu, base = _form("plain_kl", f, params)
    rows, lo = _bht_coeffs([b], [f], params.k, params.l, [mu], scale, base)
    return TrigPoly(rows[0, 0], lo)


def bht_mu_fourier(b: TrigPoly, f: TrigPoly, params: BHTParams) -> TrigPoly:
    """Coefficientwise H_{k,l,mu}(b, f); f must be analytic."""
    scale, mu, base = _form("mu_form", f, params)
    rows, lo = _bht_coeffs([b], [f], params.k, params.l, [mu], scale, base)
    return TrigPoly(rows[0, 0], lo)


def bht_mu_family(bs, fs, k: int, l: int):
    """H_{k,l,mu}(bs[i], fs[i]) for every pair i and every mu in -|l|..|l|,
    by one accumulation per mu over all pairs; every fs[i] must be
    analytic.

    Returns (rows, lo): rows has shape (2|l| + 1, len(bs), W) and
    TrigPoly(rows[mu + |l|, i], lo) equals bht_mu_fourier(bs[i], fs[i],
    BHTParams(k, l, mu)) bit for bit.
    """
    if len(bs) != len(fs):
        raise ParameterError(
            f"need one input per symbol, got {len(bs)} and {len(fs)}")
    params = BHTParams(k, l, 0)
    for f in fs:
        _form("mu_form", f, params)
    m = abs(params.l)
    return _bht_coeffs(bs, fs, params.k, params.l, range(-m, m + 1),
                       params.L, True)


@functools.lru_cache(maxsize=4)
def _doubled_kernel_transform(G: int) -> np.ndarray:
    """Read-only [khat, khat] for khat the DFT of K[d] = (1/G) cot(pi (d -
    1/2)/G), the midpoint samples of the kernel (1/2pi) cot((x-t)/2) at
    x - t = (2pi/G)(d - 1/2); computed once per G, on first use."""
    d = np.arange(G, dtype=np.float64)
    kk = np.tile(np.fft.fft((1.0 / G) / np.tan(np.pi * (d - 0.5) / G)), 2)
    kk.setflags(write=False)
    return kk


def pv_quadrature(b: TrigPoly, f: TrigPoly, params: BHTParams, G: int,
                  variant: str = "mu_form", method: str = "fft") -> np.ndarray:
    """Midpoint-rule principal-value quadrature of the bilinear transforms.

    Output values are taken at x_i = 2pi i/G while the integration nodes are
    staggered at t_j = 2pi (j + 1/2)/G, so the singularity is never sampled
    and the rule is exact for every integrand frequency |s| < G: the DFT of
    the kernel samples is -i sign(s) there.  It warns when the integrand
    may reach frequency G.

    variant "plain_kl" integrates b(kx + lt) f(t) against the cot kernel
    (mu must be 0); variant "mu_form" integrates
    [b(kx+lt) e^{i mu (x-t)} - b((k+l)x)] f((k+l)t).

    method "fft" sums the output's DFT.  With g_j = f(scale t_j),
    ghat = fft(g), khat = fft of the kernel samples, a = lp - mu and
    c = kp + mu (a + c = Lp), the shift identities give, indices mod G,

        Y[u] = sum_p b_p e^{i pi a/G} khat[u - c] ghat[u - Lp]
               - base sum_p b_p (khat ghat)[u - Lp],

    and the result is ifft(Y): one forward FFT and one inverse per call,
    plus one kernel FFT per grid size (cached) and a few length-G
    multiply-adds per symbol frequency.  Method "direct"
    forms the chunked O(G^2) double sum.  Both are rearrangements of the
    same finite sums.
    """
    nodes = Grid(G, staggered=True)
    G = nodes.size
    scale, mu, base = _form(variant, f, params)
    if method not in ("fft", "direct"):
        raise ParameterError(f"unknown method {method!r}")
    if b.is_zero or f.is_zero:
        return np.zeros(G, dtype=np.complex128)

    k, l, L = params.k, params.l, params.L
    g = eval_grid(stretch(f, scale), nodes)         # f(scale t_j)
    max_t_freq = abs(l) * b.degree + abs(mu) + abs(scale) * f.degree
    if max_t_freq >= G:
        warnings.warn(
            f"quadrature grid G={G} does not exceed the integrand frequency "
            f"{max_t_freq} for these degrees; results are approximate",
            RuntimeWarning, stacklevel=2)

    if method == "fft":
        # the DFT sum Y of the docstring; each shift is a view into a
        # doubled copy
        kk = _doubled_kernel_transform(G)
        gg = np.tile(np.fft.fft(g), 2)
        kgkg = kk * gg

        def shifted(doubled, s):
            # entry u is entry (u - s) mod G of the array that was doubled
            s %= G
            return doubled[G - s:2 * G - s]

        Y = np.zeros(G, dtype=np.complex128)
        term = np.empty(G, dtype=np.complex128)
        for p, bp in zip(b.frequencies().tolist(), b.coeffs):
            np.multiply(shifted(kk, k * p + mu), shifted(gg, L * p), out=term)
            term *= bp * np.exp(1j * np.pi * (l * p - mu) / G)
            Y += term
            if base:
                np.multiply(shifted(kgkg, L * p), bp, out=term)
                Y -= term
        return np.fft.ifft(Y)

    # direct: chunked double sums over the kernel matrix
    # b(k x_i + l t_j) = bvals[(k i + l j) mod G] with a fixed offset l*pi/G
    grid = Grid(G)
    x = grid.points()
    t = nodes.points()
    out = np.zeros(G, dtype=np.complex128)
    bvals = eval_grid(translate(b, np.pi * l / G), grid)
    if base:
        bL = eval_grid(stretch(b, L), grid)
    chunk = max(1, (1 << 22) // G)
    j = np.arange(G)
    for start in range(0, G, chunk):
        stop = min(G, start + chunk)
        i = np.arange(start, stop)
        kern = (1.0 / G) / np.tan(
            np.pi * (i[:, None] - j[None, :] - 0.5) / G)
        integ = bvals[(k * i[:, None] + l * j[None, :]) % G] * \
            np.exp(1j * mu * (x[i][:, None] - t[None, :]))
        if base:
            integ = integ - bL[i][:, None]
        out[start:stop] = np.sum(integ * g[None, :] * kern, axis=1)
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
    # e^{i gamma_l x} e^{-i gamma_l t}; f((k+l)(-t)) contributes e^{-i n L t}:
    # the family with (scale, mu, base) = (-L, gamma_l, off).
    rows, lo = _bht_coeffs([b], [f], k, l, [gamma_l], -L, False)
    side_a = TrigPoly(rows[0, 0][max(0, -lo):], max(lo, 0))   # n >= 0 part

    spec = TruncationSpec((k / l,), gamma_l / l, boundary="half")
    half = truncated_apply(b, spec, f)
    full = hankel_apply(b, f)
    sgn = 1.0 if l > 0 else -1.0
    # stretch((-1j*sgn) * (2.0*half - full), L) in one construction, with the
    # same complex scalars; the rotation keeps every modulus, so the skipped
    # prunes drop nothing more
    K = max(half.max_freq, full.max_freq)
    comb = complex(2.0) * half.window(0, K) - full.window(0, K)
    side_b = np.zeros(L * K + 1, dtype=np.complex128)
    side_b[::L] = complex(-1j * sgn) * comb
    return coeff_distance(side_a, TrigPoly(side_b, 0))


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
    scale, mu, base = _form("mu_form", f, params)
    Ly = params.L * y
    # one accumulation for both pairs; each row is its one-pair result
    rows, lo = _bht_coeffs([translate(b, Ly), b], [translate(f, Ly), f],
                           params.k, params.l, [mu], scale, base)
    return coeff_distance(TrigPoly(rows[0, 0], lo),
                          translate(TrigPoly(rows[0, 1], lo), y))
