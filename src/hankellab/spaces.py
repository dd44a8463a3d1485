"""Computable Hardy and Lipschitz norms for analytic trigonometric polynomials.

Hardy quasi-norms ||f||_{H^p} (p > 0, p = inf allowed) are boundary L^p means
on progressively refined grids, except at p = 2, where Parseval gives the
norm in closed form as the l^2 norm of the coefficients.  The norms of many
polynomials are refined as one stack, whole grids by FFT and live
midpoints by direct sums: at finite p every doubling is a whole grid, and
at p = inf only the nodes in cells where a bound on |f|^2 (Bernstein's
inequality plus the linear-interpolation error) can still reach the
running maximum are live.  A skipped node cannot change that maximum, so
the values, grid sizes and stopping decisions are those of the every-node
loop up to rounding.  The canonical Lipschitz norm Lambda_alpha is the
Littlewood-Paley block norm sup_j 2^{j alpha} ||b_j||_inf, which works
for every alpha > 0; the classical difference-quotient norm is
implemented for 0 < alpha < 1 as an equivalence cross-check only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NonAnalyticError, ParameterError, UndefinedRatioError
from .trigpoly import (TrigPoly, Grid, eval_grid, eval_grids, lp_decompose,
                       multiply, random_stream, tail_projection)

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
# a cell whose bound on |f|^2 is below (running max)^2 * _DEAD cannot hold a
# node that raises the running max; the margin absorbs rounding of the values
_DEAD = 1.0 - 1e-12
# coefficients per block of a direct sum
_BLOCK = 32


def _eval_chunks(fs, grid: Grid):
    """(start, eval_grids(fs[start:stop], grid)) over fs, at most
    _STACK_POINTS grid points per chunk."""
    step = max(1, _STACK_POINTS // grid.size)
    for start in range(0, len(fs), step):
        yield start, eval_grids(fs[start:start + step], grid)


@functools.cache
def _root_tables():
    """cos and sin of 2 pi m / (2 GRID_CAP) at m = 64 a (coarse) and m = b
    < 64 (fine), so that every 2 GRID_CAP-th root of unity is one product
    of two entries.  Built on first use."""
    M = 2 * GRID_CAP
    coarse = 2.0 * np.pi * np.arange(0, M, 64) / M
    fine = 2.0 * np.pi * np.arange(64) / M
    tables = (np.cos(coarse), np.sin(coarse), np.cos(fine), np.sin(fine))
    for t in tables:
        t.setflags(write=False)
    return tables


def _roots(m):
    """(cos, sin) of 2 pi m / (2 GRID_CAP) for integer arrays m, reduced
    exactly modulo 2 GRID_CAP and looked up as m = 64 a + b."""
    cos_a, sin_a, cos_b, sin_b = _root_tables()
    m = m & (2 * GRID_CAP - 1)
    a, b = m >> 6, m & 63
    ca, sa, cb, sb = cos_a[a], sin_a[a], cos_b[b], sin_b[b]
    return ca * cb - sa * sb, sa * cb + ca * sb


def _eval_staggered(re, im, first, count, nodes, grids) -> np.ndarray:
    """|f_i| at the staggered node pi (2 k + 1) / G of Grid(G), for each
    (first, count, k, G) in zip(first, count, nodes, grids), by direct sums.

    Blocks first, ..., first + count - 1 of re + 1j im hold the
    coefficients of f_i, B = _BLOCK per block, the lowest frequency first
    (a common frequency shift leaves |f| unchanged).  With
    z = e^{i pi (2k+1)/G}, f(z) = sum_u z^{Bu} sum_v c_{Bu+v} z^v, so a
    node needs B + count roots of unity, not B count.  The sums are in real
    arithmetic, each operation rounded on its own, and each value depends
    only on its own blocks and node, never on the other nodes evaluated
    with it."""
    q = (2 * nodes + 1) * (GRID_CAP // grids)
    zr, zi = _roots(q[:, None] * np.arange(_BLOCK))          # z^v
    heads = np.cumsum(count) - count
    owner = np.repeat(np.arange(nodes.size), count)
    u = np.arange(owner.size) - heads[owner]
    cre, cim = re[first[owner] + u], im[first[owner] + u]
    zr, zi = zr[owner], zi[owner]
    sr = (cre * zr - cim * zi).sum(axis=-1)
    si = (cre * zi + cim * zr).sum(axis=-1)
    wr, wi = _roots(q[owner] * (_BLOCK * u))                 # z^{Bu}
    return np.hypot(np.add.reduceat(sr * wr - si * wi, heads),
                    np.add.reduceat(sr * wi + si * wr, heads))


def _refine_sup(fs) -> list:
    """_refine_stack(fs, inf) for nonzero polynomials.

    Cell j of Grid(G) is [t_j, t_{j+1}].  With g = |f|^2 and s = span(f),
    g is a real trigonometric polynomial of degree s, so Bernstein's
    inequality gives |g''| <= s^2 ||g||_inf, and linear interpolation
    bounds g on a cell of width h by max(g(t_j), g(t_{j+1})) + s^2 h^2
    ||g||_inf / 8.  On the start grid (G >= 8s, so s^2 h^2 / 8 < 1) the
    same bound gives ||g||_inf <= max_j g(t_j) / (1 - s^2 h^2 / 8).  A cell
    whose bound is below the running max of g holds no node that can raise
    that max, so its nodes are never evaluated (the cell is dead).  Each
    doubling evaluates the midpoints of the live cells only, which are the
    staggered nodes the full loop would add there, splits those cells in
    two and divides the bound term by 4.  The running max after each
    doubling is therefore the full loop's, up to rounding of the node
    values, and so are the stopping rule, grid_size and converged.

    The start grids are stacked eval_grids FFTs, and every later node is a
    direct sum (_eval_staggered) that depends on its own row and node
    alone, so each result is bit for bit the one-element result.
    """
    R = len(fs)
    spans = np.array([f.span for f in fs])
    grids = np.array([_start_grid(s) for s in spans])
    count = spans // _BLOCK + 1                 # blocks per row
    first = np.cumsum(count) - count
    flat = np.zeros(count.sum() * _BLOCK, dtype=np.complex128)
    for f, at in zip(fs, first * _BLOCK):
        flat[at:at + f.coeffs.size] = f.coeffs
    re = flat.real.reshape(-1, _BLOCK).copy()
    im = flat.imag.reshape(-1, _BLOCK).copy()
    sh = (spans * (2.0 * np.pi) / grids) ** 2 / 8.0      # s^2 h^2 / 8
    acc = np.empty(R)
    term = np.empty(R)
    parts = []                     # (row, j, |f(t_j)|, |f(t_{j+1})|)
    for G in sorted(set(grids.tolist())):
        idx = np.flatnonzero(grids == G)
        for start, v in _eval_chunks([fs[i] for i in idx], Grid(G)):
            a = np.abs(v)
            r = idx[start:start + len(a)]
            top = a.max(axis=-1)
            acc[r] = top
            term[r] = sh[r] * top * top / (1.0 - sh[r])
            # a cell is live when g at one of its ends reaches top^2 - term
            hot = a >= np.sqrt(top * top * _DEAD - term[r])[:, None]
            i = np.flatnonzero(hot | np.roll(hot, -1, axis=-1))
            a = a.ravel()
            parts.append((r[i // G], i % G, a[i], a[i - i % G + (i + 1) % G]))
    rows, nodes, a_left, a_right = (np.concatenate(c) for c in zip(*parts))
    prev = acc.copy()
    active = np.ones(R, dtype=bool)
    out = [None] * R
    while True:
        capped = active & (grids == GRID_CAP)
        for i in np.flatnonzero(capped):
            out[i] = (float(prev[i]), GRID_CAP, False)
        active &= ~capped
        if not active.any():
            break
        # chunks of about _STACK_POINTS / 64 coefficients, which stay in cache
        chunk = np.cumsum(count[rows]) * _BLOCK // (_STACK_POINTS >> 6)
        cuts = np.flatnonzero(np.diff(chunk)) + 1
        mid = np.concatenate([
            _eval_staggered(re, im, first[r], count[r], k, grids[r])
            for r, k in zip(np.split(rows, cuts), np.split(nodes, cuts))])
        np.maximum.at(acc, rows, mid)
        grids[active] *= 2
        done = active & (np.abs(acc - prev)
                         <= REFINE_REL_TOL * np.maximum(acc, 1e-300))
        for i in np.flatnonzero(done):
            out[i] = (float(acc[i]), int(grids[i]), True)
        active &= ~done
        prev[active] = acc[active]
        keep = active[rows]
        # cell (j; left, mid, right) splits into (2j; left, mid) and
        # (2j + 1; mid, right)
        ends = np.array([a_left[keep], mid[keep], a_right[keep]]).T
        a_left, a_right = ends[:, :2].ravel(), ends[:, 1:].ravel()
        nodes = (2 * nodes[keep, None] + (0, 1)).ravel()
        rows = np.repeat(rows[keep], 2)
        term /= 4.0
        floor = np.sqrt(acc * acc * _DEAD - term)[rows]
        live = (a_left >= floor) | (a_right >= floor)
        rows, nodes = rows[live], nodes[live]
        a_left, a_right = a_left[live], a_right[live]
    return out


def _refine_mean(fs, G: int, p: float) -> list:
    """_refine_stack(fs, p) for finite p and nonzero polynomials that all
    start at G: each doubling evaluates all G new staggered nodes of the
    rows not yet converged, one stacked FFT per chunk."""

    def fold(live, grid):
        sums = []
        for _, v in _eval_chunks([fs[i] for i in live], grid):
            sums += np.sum(np.abs(v) ** p, axis=-1).tolist()
        return sums

    def value(acc, G):
        return (acc / G) ** (1.0 / p)

    live = list(range(len(fs)))
    out = [None] * len(fs)
    acc = fold(live, Grid(G))
    prev = [value(a, G) for a in acc]
    while live and G < GRID_CAP:
        new = fold(live, Grid(G, True))
        G *= 2
        pending = []
        for i, a in zip(live, new):
            acc[i] += a
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


def _refine_stack(fs, p: float) -> list:
    """(value, grid_size, converged) for each f in fs: the grid maximum of
    |f| (p = inf) or the grid mean ((1/G) sum |f(t_j)|^p)^{1/p}, doubling G
    from _start_grid(f.span) until two successive values agree to
    REFINE_REL_TOL, or G reaches GRID_CAP.  The zero polynomial gives
    (0.0, 16, True).

    Grid(2G) is Grid(G) plus Grid(G, staggered=True), since
    2pi(2j+1)/(2G) = 2pi(j+1/2)/G, so each doubling adds only the G new
    staggered nodes to a running max of |f| or a running sum of |f|^p.  At
    finite p every node is evaluated by FFT: a polynomial that stops at
    grid G costs G points in all.  At p = inf only the start grid is an
    FFT, and a later node is a direct sum, evaluated only in the live cells
    of _refine_sup.  Polynomials double together (at finite p, those with
    the same start grid), and each value is bit for bit the one the
    polynomial gets alone.
    """
    out = [(0.0, 16, True)] * len(fs)
    live = [i for i, f in enumerate(fs) if not f.is_zero]
    if math.isinf(p):
        got = _refine_sup([fs[i] for i in live]) if live else []
        for i, res in zip(live, got):
            out[i] = res
        return out
    groups = {}
    for i in live:
        groups.setdefault(_start_grid(fs[i].span), []).append(i)
    for G, idx in groups.items():
        for i, res in zip(idx, _refine_mean([fs[i] for i in idx], G, p)):
            out[i] = res
    return out


def sup_norm(f: TrigPoly):
    """(value, grid_size, converged): refined-grid maximum of |f|.

    The grid doubles from _start_grid(f.span) until one doubling raises the
    maximum by at most REFINE_REL_TOL relative, or reaches GRID_CAP.  The
    start grid is one FFT; a doubling sums directly only the new nodes in
    cells whose interpolation bound on |f|^2 reaches the running maximum,
    as the others cannot change the value, grid_size or converged.
    converged means only that the last doubling found no higher node, not
    that the value is within REFINE_REL_TOL of sup |f|.
    """
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
        rng = random_stream(seed)
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
    is 1 up to rounding.  Drawn from `random_stream(seed)`: any integer(s).
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
