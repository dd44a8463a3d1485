"""Hardy and Lipschitz norms, symbol generation, and symbol reduction."""

import math

import numpy as np
import pytest

from hankellab import spaces
from hankellab.errors import (NonAnalyticError, ParameterError,
                              UndefinedRatioError)
from hankellab.spaces import (hardy_norm, lipschitz_norm, lipschitz_norm_diff,
                              lipschitz_norms, modulated_norm_ratios,
                              random_symbol, random_symbols, reduce_symbol,
                              reduction_index, sup_norm)
from hankellab.trigpoly import (Grid, TrigPoly, coeff_distance, eval_grid,
                                lp_decompose, random_poly, tail_projection,
                                translate)


# -- hardy_norm ---------------------------------------------------------------

def test_hardy_norm_characters_and_constants():
    for p in [0.5, 1.0, 2.0, 3.7, math.inf]:
        for n in [0, 1, 17]:
            h = hardy_norm(TrigPoly.character(n), p)
            assert abs(h.value - 1.0) <= 1e-10
        c = hardy_norm(TrigPoly.constant(-2.0j), p)
        assert abs(c.value - 2.0) <= 1e-10


def test_hardy_norm_one_plus_z():
    f = TrigPoly([1.0, 1.0], 0)
    h = hardy_norm(f, 2.0)
    assert abs(h.value - math.sqrt(2.0)) <= 1e-8
    assert h.converged


def grid_h2(f):
    """sqrt(mean |f|^2) on a power-of-two grid above the span: the boundary
    mean computed from values, independent of the coefficient formula."""
    G = 1 << (2 * f.span).bit_length()
    return math.sqrt(float(np.mean(np.abs(eval_grid(f, Grid(G))) ** 2)))


def test_hardy_norm_parseval():
    rng = np.random.default_rng(7)
    polys = [TrigPoly.zero(), TrigPoly.constant(1.0),
             TrigPoly.constant(-2.5 + 0.5j), TrigPoly.character(4000)]
    polys += [random_poly(rng, int(rng.integers(0, 60))) for _ in range(25)]
    polys += [random_poly(rng, d, int(rng.integers(0, 100)))
              for d in (511, 1024, 2047, 4095)]
    polys.append(random_poly(rng, 4096))       # span 4096
    for f in polys:
        h = hardy_norm(f, 2.0)
        ref = grid_h2(f)
        assert abs(h.value - ref) <= 1e-8 * max(ref, 1.0)
        assert h.converged and h.grid_size == 0


def test_hardy_norm_homogeneity_and_triangle():
    rng = np.random.default_rng(9)
    for p in [1.0, 2.0, 4.0]:
        for _ in range(5):
            f = random_poly(rng, 12)
            g = random_poly(rng, 12)
            lam = complex(rng.standard_normal(), rng.standard_normal())
            assert abs(hardy_norm(lam * f, p).value
                       - abs(lam) * hardy_norm(f, p).value) <= 1e-9
            assert (hardy_norm(f + g, p).value
                    <= hardy_norm(f, p).value + hardy_norm(g, p).value + 1e-9)


def test_hardy_norm_infinity_is_sup():
    f = TrigPoly([1.0, 1.0], 0)
    h = hardy_norm(f, math.inf)
    assert abs(h.value - 2.0) <= 1e-8     # max |1 + e^{it}| = 2


def test_hardy_norm_guards():
    with pytest.raises(NonAnalyticError):
        hardy_norm(TrigPoly.character(-1), 2.0)
    with pytest.raises(ParameterError):
        hardy_norm(TrigPoly.character(1), 0.0)


# -- lipschitz norms ----------------------------------------------------------

def test_lipschitz_norm_constant_and_homogeneity():
    c = TrigPoly.constant(1.5j)
    assert abs(lipschitz_norm(c, 0.7).value - 1.5) <= 1e-12
    rng = np.random.default_rng(13)
    b = random_poly(rng, 30)
    v = lipschitz_norm(b, 0.5).value
    assert abs(lipschitz_norm(3.0 * b, 0.5).value - 3.0 * v) <= 1e-10


def test_lipschitz_norm_character_ratio_bounds():
    for n in [2, 3, 7, 16, 90, 513]:
        v = lipschitz_norm(TrigPoly.character(n), 0.5).value
        ratio = v / n ** 0.5
        assert 0.25 <= ratio <= 4.0


def test_lipschitz_norm_certificates():
    b = random_symbol(0.5, 5, 123)
    ln = lipschitz_norm(b, 0.5)
    assert ln.method == "lp_block"
    assert ln.certificates
    assert abs(ln.value - max(v for _, v in ln.certificates)) <= 1e-15


def test_lipschitz_norm_diff_examples():
    c = TrigPoly.constant(2.0)
    assert abs(lipschitz_norm_diff(c, 0.5).value - 2.0) <= 1e-10
    e = TrigPoly.character(1)
    lb = lipschitz_norm(e, 0.5).value
    ld = lipschitz_norm_diff(e, 0.5).value
    assert ld > 0
    assert 0.1 <= lb / ld <= 10.0
    b = random_poly(np.random.default_rng(4), 20)
    v = lipschitz_norm_diff(b, 0.5).value
    assert abs(lipschitz_norm_diff(0.5j * b, 0.5).value - 0.5 * v) <= 1e-9


def test_lipschitz_norm_diff_alpha_range():
    b = TrigPoly.character(2)
    with pytest.raises(ParameterError):
        lipschitz_norm_diff(b, 1.0)
    with pytest.raises(ParameterError):
        lipschitz_norm_diff(b, 0.0)


# -- random_symbol ------------------------------------------------------------

def test_random_symbol_deterministic():
    a = random_symbol(0.5, 6, 42)
    b = random_symbol(0.5, 6, 42)
    assert a == b                          # bitwise-identical coefficients


def test_random_symbol_norm_in_range():
    for s in range(10):
        for alpha in [0.25, 0.5, 1.0]:
            b = random_symbol(alpha, 6, [5, s])
            v = lipschitz_norm(b, alpha).value
            assert 0.25 <= v <= 4.0


def test_random_symbol_degenerate_and_guards():
    b = random_symbol(0.5, 0, 9)
    assert b.max_freq == 0 and not b.is_zero
    with pytest.raises(ParameterError):
        random_symbol(0.0, 3, 1)
    with pytest.raises(ParameterError):
        random_symbol(0.5, -1, 1)
    # Lambda_alpha needs a finite alpha: 2^{j alpha} is inf at j >= 1 and
    # 2^{0 * inf} is NaN, so no block could be scaled or weighed
    for alpha in (math.inf, -math.inf, math.nan):
        with pytest.raises(ParameterError):
            random_symbol(alpha, 3, 1)
        with pytest.raises(ParameterError):
            lipschitz_norm(TrigPoly.character(2), alpha)


# -- reduction_index ----------------------------------------------------------

def test_reduction_index_cases():
    assert reduction_index(2.0, -6.0) == 3          # [-gamma/beta]
    assert reduction_index(1.0, 5.7) == 5           # [gamma]
    assert reduction_index(-2.0, 7.0) == 3          # min{[7], [3.5]}
    assert reduction_index(-1.0, -2.0) is None      # nothing to reduce
    assert reduction_index(0.0, -3.0) == 0
    assert reduction_index(0.0, 3.7) == 3
    assert reduction_index(2.0, 0.0) == 0
    assert reduction_index(-2.0, 0.0) == 0


# -- reduce_symbol ------------------------------------------------------------

def test_reduce_symbol_small_N_is_identity():
    b = random_symbol(0.5, 6, 77)
    for N in [0, 1, 10, 16]:
        assert reduce_symbol(b, N) == b


def test_reduce_symbol_tail_equality():
    b = random_symbol(0.5, 9, 31)
    for N in [17, 64, 100, 500]:
        bt = reduce_symbol(b, N)
        n0 = N.bit_length() - 1
        # promised range
        cut = 1 << (n0 + 2)
        assert coeff_distance(tail_projection(bt, cut),
                              tail_projection(b, cut)) == 0.0
        # the realization is exact from 2^{n0-2} on
        cut2 = 1 << (n0 - 2)
        assert coeff_distance(tail_projection(bt, cut2),
                              tail_projection(b, cut2)) == 0.0
        assert bt.is_zero or bt.min_freq >= cut2


def test_reduce_symbol_idempotent():
    b = random_symbol(0.5, 9, 15)
    for N in [10, 17, 64, 300]:
        once = reduce_symbol(b, N)
        assert reduce_symbol(once, N) == once


def test_reduce_symbol_high_spectrum_untouched():
    N = 64                      # N0 = 6, cut at 2^4 = 16
    b = tail_projection(random_symbol(0.5, 9, 3), 1 << 8)
    assert reduce_symbol(b, N) == b


# -- modulated_norm_ratio -----------------------------------------------------

def test_modulated_ratio_trivial_case():
    b = random_symbol(0.5, 4, 21)
    [r] = modulated_norm_ratios(b, 0.5, [(10, 0)])
    assert abs(r - 1.0) <= 1e-12


def test_modulated_ratio_zero_symbol_error():
    with pytest.raises(UndefinedRatioError):
        modulated_norm_ratios(TrigPoly.zero(), 0.5, [(8, 8)])


def test_modulated_ratio_scale_invariant():
    b = random_symbol(0.5, 6, 33)
    [r1] = modulated_norm_ratios(b, 0.5, [(32, 64)])
    [r2] = modulated_norm_ratios(5.0j * b, 0.5, [(32, 64)])
    assert abs(r1 - r2) <= 1e-9 * max(r1, 1.0)


def test_modulated_ratio_example_sweep():
    # M = N over 50 seeds stays below the recorded constant
    worst = 0.0
    for s in range(50):
        b = random_symbol(0.5, 8, [7, s])
        worst = max(worst, *modulated_norm_ratios(b, 0.5, [(64, 64)]))
    assert worst <= 10.0


def test_sup_norm_refinement_converges():
    f = TrigPoly([1.0, 1.0], 0)
    v, grid, converged = sup_norm(f)
    assert abs(v - 2.0) <= 1e-7
    assert converged and grid >= 16


def full_grid_refine(f, measure):
    """The refinement loop that evaluates every node of each doubled grid
    afresh: the reference for the nested-grid loop of spaces._refine_stack."""
    G = spaces._start_grid(f.span)
    prev = measure(G)
    while G < spaces.GRID_CAP:
        G *= 2
        cur = measure(G)
        if abs(cur - prev) <= spaces.REFINE_REL_TOL * max(cur, 1e-300):
            return cur, G, True
        prev = cur
    return prev, G, False


def test_nested_refinement_matches_full_grid_loop():
    # the Littlewood-Paley blocks of the symbols of the sup_norm xfail below
    # (and 20 more), and random analytic polynomials of degree below 60
    blocks = [bj for s in range(60)
              for bj in lp_decompose(random_symbol(0.5, 10, [11, 71, s]))
              if not bj.is_zero]
    rng = np.random.default_rng(23)
    polys = [random_poly(rng, int(rng.integers(0, 60))) for _ in range(200)]

    def check(got, ref):
        assert got[1:] == ref[1:]
        assert abs(got[0] - ref[0]) <= 1e-14 * ref[0]

    for f in blocks + polys:
        check(sup_norm(f), full_grid_refine(
            f, lambda G: float(np.abs(eval_grid(f, Grid(G))).max())))
    for p in (2.0 / 3.0, 1.0, 3.0):
        for f in polys:
            h = hardy_norm(f, p)
            check((h.value, h.grid_size, h.converged), full_grid_refine(
                f, lambda G: float(np.mean(
                    np.abs(eval_grid(f, Grid(G))) ** p)) ** (1.0 / p)))


def one_row_refine(f, p):
    """The one-row nested-grid loop that the stacked refinement replaced:
    eval_grid on Grid(G0), then on each staggered half grid, folding a
    running max of |f| or sum of |f|^p.  The reference for
    spaces._refine_stack."""
    sup = math.isinf(p)

    def fold(acc, grid):
        v = np.abs(eval_grid(f, grid))
        return max(acc, float(v.max())) if sup else acc + float(np.sum(v ** p))

    def value(acc, G):
        return acc if sup else (acc / G) ** (1.0 / p)

    G = spaces._start_grid(f.span)
    acc = fold(0.0, Grid(G))
    prev = value(acc, G)
    while G < spaces.GRID_CAP:
        acc = fold(acc, Grid(G, staggered=True))
        G *= 2
        cur = value(acc, G)
        if abs(cur - prev) <= spaces.REFINE_REL_TOL * max(cur, 1e-300):
            return cur, G, True
        prev = cur
    return prev, G, False


@pytest.mark.parametrize("stack_points", [None, 1 << 12])
def test_stack_matches_one_row_loop_bitwise(stack_points, monkeypatch):
    # None keeps the default chunk; 2^12 points splits every stack into
    # chunks of at most 2^12 / G rows, down to one row per eval_grids call
    if stack_points is not None:
        monkeypatch.setattr(spaces, "_STACK_POINTS", stack_points)
    shapes = []
    evaluate = spaces.eval_grids

    def recording_eval_grids(fs, grid):
        shapes.append((len(fs), grid.size))
        return evaluate(fs, grid)

    monkeypatch.setattr(spaces, "eval_grids", recording_eval_grids)
    rng = np.random.default_rng(31)
    mixed = [random_poly(rng, int(d))
             for d in rng.integers(0, 300, size=40)]     # start grids 16..4096
    assert len({spaces._start_grid(f.span) for f in mixed}) >= 6
    # block j of all twelve symbols shares one start grid; seeds 1 and 4
    # each have a block that ends at GRID_CAP unconverged
    blocks = [bj for s in range(12)
              for bj in lp_decompose(random_symbol(0.5, 10, [11, 71, s]))
              if not bj.is_zero]
    unconverged = 0
    for stack in (mixed, blocks):
        for p in (math.inf, 2.0 / 3.0, 1.0, 3.0):
            got = spaces._refine_stack(stack, p)
            ref = [one_row_refine(f, p) for f in stack]
            if math.isinf(p):
                # the pruned sup loop sums some nodes directly: bit for bit
                # its own one-element result, and the every-node loop's up
                # to rounding
                assert got == [spaces._refine_stack([f], p)[0]
                               for f in stack]
                for g, r in zip(got, ref):
                    assert g[1:] == r[1:]
                    assert abs(g[0] - r[0]) <= 1e-14 * r[0]
            else:
                assert got == ref, p
            unconverged += sum(not ok for _, _, ok in got)
    assert unconverged > 0
    assert all(rows * G <= spaces._STACK_POINTS or rows == 1
               for rows, G in shapes)
    assert max(rows for rows, _ in shapes) > 1


def test_stack_of_zero_polynomials():
    f = TrigPoly([1.0, 1.0], 0)
    got = spaces._refine_stack([TrigPoly.zero(), f, TrigPoly.zero()], 1.0)
    assert got[0] == got[2] == (0.0, 16, True)
    assert got[1] == one_row_refine(f, 1.0)
    assert sup_norm(TrigPoly.zero()) == (0.0, 16, True)
    assert hardy_norm(TrigPoly.zero(), 0.5) == spaces.HardyNorm(
        0.5, 0.0, 16, True)


def test_batched_symbols_match_one_element_calls():
    for max_block in (5, 10):
        seeds = [[17, max_block, s] for s in range(50)]
        symbols = random_symbols(0.5, max_block, seeds)
        assert symbols == [random_symbol(0.5, max_block, s) for s in seeds]
        assert lipschitz_norms(symbols, 0.5) == [lipschitz_norm(b, 0.5)
                                                 for b in symbols]
    assert random_symbols(0.5, 3, []) == [] == lipschitz_norms([], 0.5)


def test_refinement_evaluates_final_grid_size_points(monkeypatch):
    # at finite p every grid value comes from eval_grids, one row per
    # stacked polynomial: a one-row call that ends at grid G evaluates G
    # points, and a stack evaluates the sum of its rows' final grids.  At
    # p = inf eval_grids evaluates the start grids only, and every later
    # node is a direct sum at a live cell
    points = []
    fft_points = []
    evaluate = spaces.eval_grids
    direct = spaces._eval_staggered

    def counting_eval_grids(fs, grid):
        points.append(len(fs) * grid.size)
        fft_points.append(len(fs) * grid.size)
        return evaluate(fs, grid)

    def counting_eval_staggered(*args):
        values = direct(*args)
        points.append(values.size)
        return values

    monkeypatch.setattr(spaces, "eval_grids", counting_eval_grids)
    monkeypatch.setattr(spaces, "_eval_staggered", counting_eval_staggered)
    rng = np.random.default_rng(29)
    polys = [random_poly(rng, d) for d in (0, 1, 7, 40, 300)]
    blocks = [bj for bj in lp_decompose(random_symbol(0.5, 10, [11, 71, 3]))
              if not bj.is_zero]
    for f in polys + blocks:
        for p in (2.0 / 3.0, 3.0):
            points.clear()
            assert hardy_norm(f, p).grid_size == sum(points)
        points.clear()
        fft_points.clear()
        assert sup_norm(f)[1] >= sum(points)
        assert sum(fft_points) == spaces._start_grid(f.span)
        points.clear()
        assert hardy_norm(f, math.inf).grid_size >= sum(points)
    points.clear()
    got = spaces._refine_stack(polys + blocks, 1.0)
    assert sum(G for _, G, _ in got) == sum(points)
    points.clear()
    fft_points.clear()
    spaces._refine_stack(polys + blocks, math.inf)
    assert sum(fft_points) == sum(spaces._start_grid(f.span)
                                  for f in polys + blocks)
    points.clear()
    got = spaces._refine_stack(blocks, math.inf)
    assert 4 * sum(points) <= sum(G for _, G, _ in got)


def test_pruned_sup_edge_cases_match_full_grid_loop(monkeypatch):
    # span 0 (a constant, and a monomial at frequency 500) keeps every cell
    # live; 1 + e^{16it} has 16 equal peaks; the lemma block ends at
    # GRID_CAP unconverged
    capped = next(bj for s in (1, 4)
                  for bj in lp_decompose(random_symbol(0.5, 10, [11, 71, s]))
                  if not bj.is_zero and not sup_norm(bj)[2])
    cases = [TrigPoly.constant(-2.5j), TrigPoly.character(500, 0.75),
             TrigPoly.from_pairs([(0, 1.0), (16, 1.0)]), capped]
    got = [sup_norm(f) for f in cases]
    for (value, G, ok), f in zip(got, cases):
        ref = full_grid_refine(
            f, lambda G: float(np.abs(eval_grid(f, Grid(G))).max()))
        assert (G, ok) == ref[1:]
        assert abs(value - ref[0]) <= 1e-14 * ref[0]
    assert [r[1:] for r in got] == [(32, True), (32, True), (256, True),
                                    (spaces.GRID_CAP, False)]
    # the zero polynomial keeps its closed-form result, also in a stack, and
    # a stack split into chunks of at most 2^12 points (and direct sums of
    # one or two nodes) is bit for bit the one-element calls
    monkeypatch.setattr(spaces, "_STACK_POINTS", 1 << 12)
    zero = TrigPoly.zero()
    assert sup_norm(zero) == (0.0, 16, True)
    assert spaces._refine_stack([zero] + cases + [zero], math.inf) == \
        [(0.0, 16, True)] + got + [(0.0, 16, True)]


def test_pruned_sup_evaluates_exactly_the_live_cells(monkeypatch):
    # with every live node summed directly, the nodes a doubling evaluates
    # are the ones passed to _eval_staggered.  They must be the midpoints of
    # the live cells of the reference pruning below (Bernstein plus
    # interpolation bound, on values from full grids), and no skipped node
    # may exceed the running max after its doubling
    evaluated = []
    direct = spaces._eval_staggered

    def recording_eval_staggered(re, im, first, count, nodes, grids):
        evaluated.extend(zip(grids.tolist(), nodes.tolist()))
        return direct(re, im, first, count, nodes, grids)

    monkeypatch.setattr(spaces, "_eval_staggered", recording_eval_staggered)
    blocks = [bj for s in range(12)
              for bj in lp_decompose(random_symbol(0.5, 10, [11, 71, s]))
              if not bj.is_zero]
    rng = np.random.default_rng(37)
    polys = [random_poly(rng, int(rng.integers(1, 60))) for _ in range(60)]
    # two Fejer peaks at 0 and near pi, the second higher by a relative
    # 1e-6 .. 3e-3 and off the start grid: the running max starts on the
    # lower peak, and only the bound keeps the cells of the higher one live
    n = 20
    fejer = TrigPoly(1.0 - np.abs(np.arange(-n, n + 1)) / (n + 1), -n)
    h = 2 * np.pi / spaces._start_grid(fejer.span)
    peaks = [fejer + (1 + 10 ** rng.uniform(-6, -2.5))
             * translate(fejer, -(np.pi + rng.random() * h))
             for _ in range(200)]
    skipped_total = 0
    for f in blocks + polys + peaks:
        evaluated.clear()
        _, end, _ = sup_norm(f)
        G = spaces._start_grid(f.span)
        a = np.abs(eval_grid(f, Grid(G)))
        acc = float(a.max())
        sh = (f.span * 2 * np.pi / G) ** 2 / 8
        term = sh * acc * acc / (1 - sh)
        live = np.ones(G, dtype=bool)
        while G < end:
            hot = a >= math.sqrt(acc * acc * spaces._DEAD - term)
            live &= hot | np.roll(hot, -1)
            assert sorted(k for g, k in evaluated if g == G) == \
                np.flatnonzero(live).tolist()
            mid = np.abs(eval_grid(f, Grid(G, staggered=True)))
            acc = max(acc, float(mid[live].max()))
            assert mid[~live].max(initial=0.0) <= acc * (1 + 1e-13)
            skipped_total += int((~live).sum())
            a = np.stack([a, mid], axis=-1).ravel()
            live = np.repeat(live, 2)
            term /= 4
            G *= 2
    assert skipped_total > 0


SUP_ORACLE_GRID = 1 << 22


@pytest.mark.xfail(
    strict=True,
    reason="sup_norm stops when one doubling of its nested grids finds no "
           "higher peak, which does not bound the error: 373 of the 480 "
           "blocks report converged=True with a relative error above "
           "1e-6, the worst 3.1e-3 too low")
def test_sup_norm_converged_means_accurate():
    # every Littlewood-Paley block of these symbols that sup_norm reports
    # converged must match the maximum of |b_j| on 2^22 equispaced points
    # (an FFT of its coefficient window; a frequency shift leaves |b_j|
    # unchanged)
    for s in range(40):
        for bj in lp_decompose(random_symbol(0.5, 10, [11, 71, s])):
            if bj.is_zero:
                continue
            value, _, converged = sup_norm(bj)
            if not converged:
                continue
            oracle = SUP_ORACLE_GRID * float(np.abs(
                np.fft.ifft(bj.coeffs, n=SUP_ORACLE_GRID)).max())
            assert abs(value - oracle) <= 1e-6 * oracle, (s, bj.min_freq)
