"""Computable Hardy and Lipschitz norms for analytic trigonometric polynomials.

Hardy quasi-norms ||f||_{H^p} (p > 0, p = inf allowed) are boundary L^p means
on progressively refined grids, except at p = 2, where Parseval gives the
norm in closed form as the l^2 norm of the coefficients.  The norms of many
polynomials are refined as one stack: polynomials that share a start grid
share one FFT per doubling.  The canonical
Lipschitz norm Lambda_alpha is the Littlewood-Paley block norm
sup_j 2^{j alpha} ||b_j||_inf, which works for every alpha > 0; the
classical difference-quotient norm is implemented for 0 < alpha < 1 as an
equivalence cross-check only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NonAnalyticError, ParameterError, UndefinedRatioError
from .trigpoly import (TrigPoly, Grid, eval_grid, eval_grids, lp_decompose,
                       multiply, tail_projection)

GRID_CAP = 1 << 20
REFINE_REL_TOL = 1e-8

__all__ = [
    "HardyNorm",
    "LipschitzNorm",
    "sup_norm",
    "hardy_norm",
    "hardy_norms",
    "lipschitz_norm",
    "lipschitz_norms",
    "lipschitz_norm_diff",
    "random_symbol",
    "random_symbols",
    "reduction_index",
    "reduce_symbol",
    "modulated_norm_ratios",
]


@dataclass(frozen=True)
class HardyNorm:
    """Result of a Hardy quasi-norm evaluation.

    `grid_size` is the last grid the value was measured on; 0 means closed
    form, no grid (p = 2, by Parseval).
    """
    p: float
    value: float
    grid_size: int
    converged: bool


@dataclass(frozen=True)
class LipschitzNorm:
    """Result of a Lambda_alpha norm evaluation.

    `certificates` lists (block index j, 2^{j alpha} * ||b_j||_inf) for the
    block method, or (dyadic gap, quotient) pairs for the difference method.
    """
    alpha: float
    value: float
    method: str
    certificates: tuple = field(default_factory=tuple)


def _start_grid(span: int) -> int:
    """Initial refinement grid for a polynomial of frequency span `span`:
    8*span rounded up to a power of two, at least 16, at most GRID_CAP."""
    G = 16
    target = 8 * max(int(span), 1)
    while G < target:
        G *= 2
    return min(G, GRID_CAP)


# rows x grid points per stacked transform: bounds the (rows, G) buffer
_STACK_POINTS = 1 << 21


def _fold_grid(fs, grid: Grid, p: float) -> list:
    """max |f| (p = inf) or sum |f|^p over grid, for each f in fs,
    evaluating at most _STACK_POINTS points at a time."""
    out = []
    step = max(1, _STACK_POINTS // grid.size)
    for start in range(0, len(fs), step):
        v = np.abs(eval_grids(fs[start:start + step], grid))
        folded = v.max(axis=-1) if math.isinf(p) else np.sum(v ** p, axis=-1)
        out += folded.tolist()
    return out


def _refine_stack(fs, p: float) -> list:
    """(value, grid_size, converged) for each f in fs: the grid maximum of
    |f| (p = inf) or the grid mean ((1/G) sum |f(t_j)|^p)^{1/p}, doubling G
    from _start_grid(f.span) until two successive values agree to
    REFINE_REL_TOL, or G reaches GRID_CAP.  The zero polynomial gives
    (0.0, 16, True).

    Grid(2G) is Grid(G) plus Grid(G, staggered=True), since
    2pi(2j+1)/(2G) = 2pi(j+1/2)/G, so each doubling evaluates only the G new
    staggered nodes and folds them into a running max of |f| or a running
    sum of |f|^p: a polynomial that stops at grid G costs G points in all.
    Polynomials with the same start grid double together, one stacked FFT
    per doubling over those not yet converged; each value is bit for bit
    the one the polynomial gets alone.
    """
    sup = math.isinf(p)

    def value(acc, G):
        return acc if sup else (acc / G) ** (1.0 / p)

    out = [(0.0, 16, True)] * len(fs)
    groups = {}
    for i, f in enumerate(fs):
        if not f.is_zero:
            groups.setdefault(_start_grid(f.span), []).append(i)
    for G, live in groups.items():
        acc = dict(zip(live, _fold_grid([fs[i] for i in live], Grid(G), p)))
        prev = {i: value(acc[i], G) for i in live}
        while live and G < GRID_CAP:
            new = _fold_grid([fs[i] for i in live], Grid(G, True), p)
            G *= 2
            pending = []
            for i, a in zip(live, new):
                acc[i] = max(acc[i], a) if sup else acc[i] + a
                cur = value(acc[i], G)
                if abs(cur - prev[i]) <= REFINE_REL_TOL * max(cur, 1e-300):
                    out[i] = (cur, G, True)
                else:
                    prev[i] = cur
                    pending.append(i)
            live = pending
        for i in live:
            out[i] = (prev[i], G, False)
    return out


def sup_norm(f: TrigPoly):
    """(value, grid_size, converged): refined-grid maximum of |f|."""
    return _refine_stack([f], math.inf)[0]


def hardy_norms(fs, p: float) -> list:
    """hardy_norm(f, p) for each f in fs, refined as one stack."""
    if not all(f.is_analytic for f in fs):
        raise NonAnalyticError("hardy_norm requires an analytic polynomial")
    if not p > 0:
        raise ParameterError(f"p must be positive, got {p}")
    if p == 2:
        return [HardyNorm(2.0, float(np.linalg.norm(f.coeffs)), 0, True)
                for f in fs]
    return [HardyNorm(p, value, G, ok)
            for value, G, ok in _refine_stack(fs, p)]


def hardy_norm(f: TrigPoly, p: float) -> HardyNorm:
    """Boundary L^p quasi-norm ((1/G) sum |f(t_j)|^p)^{1/p}, p = inf allowed.

    Defined for analytic polynomials only.  At p = 2 the norm is exact by
    Parseval, ||f||_{H^2} = (sum |c_n|^2)^{1/2}, and is returned with
    grid_size 0 (closed form, no grid).  For every other p the grid is
    refined (doubled) until the value is stable to 1e-8 relative, capped at
    2^20 nodes.
    """
    return hardy_norms([f], p)[0]


def lipschitz_norms(bs, alpha: float) -> list:
    """lipschitz_norm(b, alpha) for each b in bs, with the sup norms of all
    their Littlewood-Paley blocks refined as one stack."""
    if not all(b.is_analytic for b in bs):
        raise NonAnalyticError("lipschitz_norm requires an analytic symbol")
    if not alpha > 0:
        raise ParameterError(f"alpha must be positive, got {alpha}")
    blocks = [[(j, bj) for j, bj in enumerate(lp_decompose(b))
               if not bj.is_zero] for b in bs]
    sups = iter(_refine_stack([bj for bl in blocks for _, bj in bl],
                              math.inf))
    norms = []
    for bl in blocks:
        certs = tuple((j, (2.0 ** (j * alpha)) * next(sups)[0])
                      for j, _ in bl)
        value = max(c for _, c in certs) if certs else 0.0
        norms.append(LipschitzNorm(alpha, value, "lp_block", certs))
    return norms


def lipschitz_norm(b: TrigPoly, alpha: float) -> LipschitzNorm:
    """Canonical Lambda_alpha norm: sup_j 2^{j alpha} ||b_j||_inf."""
    return lipschitz_norms([b], alpha)[0]


def lipschitz_norm_diff(b: TrigPoly, alpha: float) -> LipschitzNorm:
    """Classical difference norm ||b||_inf + sup |b(x)-b(y)|/|x-y|^alpha,
    estimated over dyadic grid gaps.  Cross-check only; needs 0 < alpha < 1.
    """
    if not 0 < alpha < 1:
        raise ParameterError(
            "difference quotient norm supports 0 < alpha < 1 only "
            "(use the lp_block method otherwise)")
    if b.is_zero:
        return LipschitzNorm(alpha, 0.0, "difference", ())
    G = max(256, _start_grid(b.span))
    v = eval_grid(b, Grid(G))
    certs = []
    best = 0.0
    d = 1
    while d <= G // 2:
        gap = 2.0 * np.pi * d / G
        quot = float(np.abs(np.roll(v, -d) - v).max()) / gap ** alpha
        certs.append((d, quot))
        best = max(best, quot)
        d *= 2
    value = float(np.abs(v).max()) + best
    return LipschitzNorm(alpha, value, "difference", tuple(certs))


def random_symbols(alpha: float, max_block: int, seeds) -> list:
    """random_symbol(alpha, max_block, seed) for each seed in seeds, with the
    sup norms of block j of every symbol refined as one stack."""
    if not alpha > 0:
        raise ParameterError(f"alpha must be positive, got {alpha}")
    if max_block < 0:
        raise ParameterError("max_block must be nonnegative")
    consts, blocks = [], []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        consts.append(TrigPoly.constant(np.exp(2j * np.pi * rng.random())))
        for j in range(1, max_block + 1):
            lo = 1 if j == 1 else 1 << j
            hi = 4 if j == 1 else 1 << (j + 1)   # exclusive
            c = (rng.standard_normal(hi - lo)
                 + 1j * rng.standard_normal(hi - lo))
            blocks.append(TrigPoly(c, lo))
    sups = iter(_refine_stack(blocks, math.inf))
    bj = iter(blocks)
    totals = []
    for total in consts:
        for j in range(1, max_block + 1):
            total = total + (2.0 ** (-j * alpha) / next(sups)[0]) * next(bj)
        totals.append(total)
    return [(1.0 / scale.value) * total
            for scale, total in zip(lipschitz_norms(totals, alpha), totals)]


def random_symbol(alpha: float, max_block: int, seed) -> TrigPoly:
    """Random analytic symbol b = sum_{j <= max_block} b_j.

    Block j draws complex-Gaussian coefficients on the sharp frequency
    range [2^j, 2^{j+1}) ([1, 4) for j = 1), rescaled so that
    ||b_j||_inf = 2^{-j alpha}; block 0 is a unimodular constant.  The sum
    is then divided by its own Lipschitz norm, so lipschitz_norm(b, alpha)
    is 1 up to rounding.  Deterministic for a fixed seed.
    """
    return random_symbols(alpha, max_block, [seed])[0]


def reduction_index(beta: float, gamma: float):
    """The index n^{beta,gamma} below which symbol coefficients are immaterial
    to the truncation Pi_{beta,gamma}, by sign case:

        gamma < 0, beta > 0  ->  [-gamma/beta]
        gamma > 0, beta > 0  ->  [gamma]
        gamma > 0, beta < 0  ->  min([gamma], [-gamma/beta])
        gamma < 0, beta < 0  ->  None  (the truncation is the identity)
        beta = 0, gamma < 0  ->  0
        gamma = 0            ->  0

    [x] is truncation of the (always positive) quantity.
    """
    beta = float(beta)
    gamma = float(gamma)
    if gamma == 0:
        return 0
    if gamma < 0:
        if beta > 0:
            return int(math.floor(-gamma / beta))
        return None if beta < 0 else 0
    if beta > 0 or beta == 0:
        return int(math.floor(gamma))
    return min(int(math.floor(gamma)), int(math.floor(-gamma / beta)))


def reduce_symbol(b: TrigPoly, N: int) -> TrigPoly:
    """The modified symbol with the same high-frequency content as b.

    For N <= 16 returns b unchanged.  For N > 16, with N0 such that
    2^{N0} <= N < 2^{N0+1}, returns the sharp tail projection of b onto
    frequencies >= 2^{N0-2} (not b minus its overlapping Littlewood-Paley
    blocks j < N0 - 2): every coefficient at frequency > N is untouched,
    and the operation is idempotent for fixed N.
    """
    if not b.is_analytic:
        raise NonAnalyticError("reduce_symbol requires an analytic symbol")
    N = int(N)
    if N < 0:
        raise ParameterError("N must be nonnegative")
    if N <= 16:
        return b
    n0 = N.bit_length() - 1          # 2^{n0} <= N < 2^{n0+1}
    return tail_projection(b, 1 << (n0 - 2))


def modulated_norm_ratios(b: TrigPoly, alpha: float, pairs) -> list:
    """For each (N, M) in pairs, in order,
    lipschitz_norm(reduce_symbol(b,N) * zeta^M, alpha) divided by
    (|M|/(N+1) + 1)^alpha * lipschitz_norm(b, alpha).

    The denominator norm lipschitz_norm(b, alpha) is computed once, and all
    the norms as one stack."""
    shifted = []
    for N, M in pairs:
        bt = multiply(reduce_symbol(b, N), TrigPoly.character(int(M)))
        if not bt.is_analytic:
            raise NonAnalyticError(
                "modulation pushed the symbol outside the analytic range; "
                "|M| must not exceed the reduced symbol's lowest frequency")
        shifted.append(bt)
    den, *nums = lipschitz_norms([b] + shifted, alpha)
    if den.value == 0.0:
        raise UndefinedRatioError("zero symbol has no modulated norm ratio")
    ratios = []
    for num, (N, M) in zip(nums, pairs):
        scale = (abs(int(M)) / (int(N) + 1.0) + 1.0) ** alpha
        ratios.append(num.value / (scale * den.value))
    return ratios
