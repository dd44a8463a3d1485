"""Core trigonometric-polynomial layer: representation, transforms,
projections, and the dyadic block decomposition."""

import numpy as np
import pytest

from hankellab.errors import (DegreeOverflowError, GridSizeError,
                              NonAnalyticError)
from hankellab.trigpoly import (Grid, TrigPoly, analytic_part,
                                analytic_partial_sum, coeff_distance,
                                eval_grid, eval_grids, flip, lp_block,
                                lp_decompose, lp_window_weight, multiply,
                                partial_sum, random_poly, random_stream,
                                stretch, tail_projection, top_block_index,
                                translate)


# -- construction and canonical form ----------------------------------------

def test_zero_polynomial_is_canonical():
    z = TrigPoly.zero()
    assert z.is_zero
    assert z.coeffs.size == 0
    assert z.min_freq == 0 and z.max_freq == 0
    assert z.degree == 0
    assert TrigPoly([0.0, 0.0], -5) == z


def test_edge_trimming_and_pruning():
    f = TrigPoly([0.0, 1.0, 1e-17, 2.0, 0.0], -1)
    assert f.min_freq == 0
    assert f.max_freq == 2
    assert f.coeff(1) == 0.0
    np.testing.assert_allclose(f.coeffs, [1.0, 0.0, 2.0])


def test_character_and_constant():
    c = TrigPoly.constant(3.0 - 1.0j)
    assert c.min_freq == 0 and c.max_freq == 0
    e = TrigPoly.character(-4, amplitude=2.0)
    assert e.min_freq == -4 and e.max_freq == -4
    assert e.coeff(-4) == 2.0
    assert e.coeff(0) == 0.0


def test_from_pairs_and_to_pairs_round_trip():
    pairs = [(3, 1.0 + 2.0j), (-2, 0.5j), (0, -1.0)]
    f = TrigPoly.from_pairs(pairs)
    back = dict((n, c) for n, c in f.to_pairs())
    assert back[3] == 1.0 + 2.0j
    assert back[-2] == 0.5j
    assert back[0] == -1.0


def test_degree_guard():
    with pytest.raises(DegreeOverflowError):
        TrigPoly.character(1 << 17)


def test_arithmetic_matches_pointwise_values():
    rng = np.random.default_rng(11)
    f = random_poly(rng, 9, min_freq=-4)
    g = random_poly(rng, 6, min_freq=-6)
    grid = Grid(64)
    fv, gv = eval_grid(f, grid), eval_grid(g, grid)
    np.testing.assert_allclose(eval_grid(f + g, grid), fv + gv, atol=1e-12)
    np.testing.assert_allclose(eval_grid(f - g, grid), fv - gv, atol=1e-12)
    np.testing.assert_allclose(eval_grid(2.5j * f, grid), 2.5j * fv,
                               atol=1e-12)
    np.testing.assert_allclose(eval_grid(multiply(f, g), grid), fv * gv,
                               atol=1e-12)


def test_eval_and_coeffs_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(20):
        deg = int(rng.integers(0, 40))
        lo = int(rng.integers(-deg - 3, 1))
        f = random_poly(rng, deg, min_freq=lo)
        grid = Grid(128, staggered=bool(rng.integers(0, 2)))
        vals = eval_grid(f, grid)
        # invert by the forward FFT: hat[n mod G] = c_n, after removing the
        # phase e^{i pi n/G} of the staggered nodes t_j = 2pi (j + 1/2)/G
        n = f.frequencies()
        c = (np.fft.fft(vals) / grid.size)[n % grid.size]
        if grid.staggered:
            c = c * np.exp(-1j * np.pi * n / grid.size)
        g = TrigPoly(c, f.min_freq)
        assert coeff_distance(f, g) <= 1e-10 * max(
            1.0, float(np.abs(f.coeffs).max()))


def scaled_inverse(f, G, staggered):
    """G * ifft of f's coefficients placed at n mod G, after the phase
    e^{i pi n/G} of the staggered nodes: the 1-D reference for eval_grid."""
    n = f.frequencies()
    c = f.coeffs
    if staggered:
        c = c * np.exp(1j * np.pi * n / G)
    buf = np.zeros(G, dtype=np.complex128)
    np.add.at(buf, n % G, c)
    return G * np.fft.ifft(buf)


def test_eval_grid_forward_norm_is_bitwise_the_scaled_inverse():
    # ifft(norm="forward") skips ifft's 1/G and the caller's G; both are
    # powers of two, so the values equal G * ifft(buf) bit for bit, also
    # row by row of a stack
    rng = np.random.default_rng(17)
    for _ in range(400):
        deg = int(rng.integers(0, 300))
        lo = int(rng.integers(-deg - 3, 1))
        f = random_poly(rng, deg, min_freq=lo)
        G = 1 << int(rng.integers((2 * f.span).bit_length(), 13))
        for staggered in (False, True):
            assert np.array_equal(eval_grid(f, Grid(G, staggered)),
                                  scaled_inverse(f, G, staggered))
    stack = [random_poly(rng, int(d), min_freq=-int(d) // 3)
             for d in rng.integers(0, 300, size=12)]
    stack.insert(5, TrigPoly.zero())
    assert len({f.span for f in stack}) > 10
    for staggered in (False, True):
        vals = eval_grids(stack, Grid(1024, staggered))
        assert vals.shape == (len(stack), 1024)
        for f, row in zip(stack, vals):
            assert np.array_equal(row, scaled_inverse(f, 1024, staggered))


def test_eval_grid_too_small_raises():
    rng = np.random.default_rng(0)
    f = random_poly(rng, 40)
    with pytest.raises(GridSizeError):
        eval_grid(f, Grid(64))
    # one row too wide fails the whole stack
    with pytest.raises(GridSizeError):
        eval_grids([random_poly(rng, 10), f, TrigPoly.zero()], Grid(64))


def test_multiply_convolution_oracle():
    f = TrigPoly([1.0, 2.0], 0)          # 1 + 2z
    g = TrigPoly([3.0, 0.0, 1.0], -1)    # 3/z + z
    h = multiply(f, g)
    assert h.coeff(-1) == 3.0
    assert h.coeff(0) == 6.0
    assert h.coeff(1) == 1.0
    assert h.coeff(2) == 2.0


# -- projections and mapped operations ---------------------------------------

def test_analytic_part_and_flip():
    f = TrigPoly([1.0, 2.0, 3.0, 4.0], -2)
    a = analytic_part(f)
    assert a.min_freq == 0
    assert a.coeff(0) == 3.0 and a.coeff(1) == 4.0
    fl = flip(f)
    assert fl.coeff(2) == 1.0 and fl.coeff(-1) == 4.0


def test_projection_decomposition_reconstructs():
    rng = np.random.default_rng(3)
    for _ in range(25):
        f = random_poly(rng, 12, min_freq=-12)
        pos = analytic_part(f)
        neg = flip(analytic_part(flip(f)))
        # f = pos + neg - constant (the constant is counted twice)
        recon = pos + neg - TrigPoly.constant(f.coeff(0))
        assert coeff_distance(recon, f) <= 1e-14


def test_partial_sums_and_tail():
    f = TrigPoly([1.0, 2.0, 3.0, 4.0, 5.0], -2)   # freqs -2..2
    s1 = partial_sum(f, 1)
    assert s1.coeff(-2) == 0.0 and s1.coeff(-1) == 2.0 and s1.coeff(1) == 4.0
    a1 = analytic_partial_sum(f, 1)
    assert a1.min_freq == 0 and a1.coeff(-1) == 0.0 and a1.coeff(1) == 4.0
    t = tail_projection(f, 1)
    assert t.coeff(0) == 0.0 and t.coeff(1) == 4.0 and t.coeff(2) == 5.0
    assert coeff_distance(analytic_partial_sum(f, 1) + tail_projection(f, 2),
                          analytic_part(f)) == 0.0


def test_translate_group_law_and_phase():
    f = TrigPoly.character(1)
    g = translate(f, np.pi)
    assert abs(g.coeff(1) + 1.0) <= 1e-15      # e^{i pi} = -1
    rng = np.random.default_rng(2)
    h = random_poly(rng, 7, min_freq=-5)
    a, b = 0.7, -1.9
    assert coeff_distance(translate(translate(h, a), b),
                          translate(h, a + b)) <= 1e-12
    assert translate(h, 0.0) == h


def test_stretch():
    f = TrigPoly([1.0, 2.0], 1)           # z + 2z^2
    g = stretch(f, 3)
    assert g.coeff(3) == 1.0 and g.coeff(6) == 2.0
    gm = stretch(f, -2)
    assert gm.coeff(-2) == 1.0 and gm.coeff(-4) == 2.0
    with pytest.raises(ValueError):
        stretch(f, 0)


# -- dyadic blocks ------------------------------------------------------------

def test_window_partition_of_unity_is_exact():
    n = np.arange(0, 3000)
    total = np.zeros(n.size)
    for j in range(0, 13):
        w = lp_window_weight(j, n)
        assert np.all(w >= 0.0) and np.all(w <= 1.0)
        total += w
    assert np.abs(total - 1.0).max() == 0.0


def test_window_examples_and_supports():
    assert lp_window_weight(2, [4])[0] == 1.0           # weight 1 at n = 4
    assert lp_window_weight(1, [1])[0] == 1.0
    for j in range(2, 10):
        n = np.arange(0, 1 << (j + 2))
        w = lp_window_weight(j, n)
        support = n[w > 0]
        assert support.min() > (1 << (j - 1))
        assert support.max() < (1 << (j + 1))           # inside [2^{j-1}, 2^{j+2})
        assert w[1 << j] == 1.0                         # full weight at 2^j


def test_block_indices():
    assert top_block_index(4) == 2      # w_3(4) = 0: tent opens above 4
    assert top_block_index(5) == 3
    assert top_block_index(1) == 1


def test_lp_decompose_reconstructs_exactly():
    rng = np.random.default_rng(23)
    for deg in [0, 1, 3, 9, 40, 300]:
        f = random_poly(rng, deg)
        total = TrigPoly.zero()
        for b in lp_decompose(f):
            total = total + b
        assert coeff_distance(total, f) <= 1e-12


def test_lp_block_constant_and_split():
    c = TrigPoly.constant(2.0 + 1.0j)
    blocks = lp_decompose(c)
    assert blocks[0] == c
    f = TrigPoly.character(4)
    assert lp_block(f, 2) == f            # weight exactly 1
    assert lp_block(f, 3).is_zero
    g = TrigPoly.character(6)             # mid-ramp: split between blocks 2, 3
    assert abs(lp_block(g, 2).coeff(6) - 0.5) <= 1e-15
    assert abs(lp_block(g, 3).coeff(6) - 0.5) <= 1e-15


def test_lp_block_requires_analytic():
    with pytest.raises(NonAnalyticError):
        lp_block(TrigPoly.character(-1), 1)
    with pytest.raises(NonAnalyticError):
        lp_decompose(TrigPoly.character(-2))


def test_linear_ops_commute_with_translate():
    rng = np.random.default_rng(31)
    f = random_poly(rng, 20)
    y = 1.234
    for op in [lambda h: partial_sum(h, 7),
               lambda h: tail_projection(h, 5),
               lambda h: lp_block(h, 3)]:
        assert coeff_distance(op(translate(f, y)),
                              translate(op(f), y)) <= 1e-12


# -- random streams ----------------------------------------------------------

def _draws(rng):
    return rng.integers(0, 1 << 62, 8).tolist()


def test_random_stream_reduces_every_integer_mod_2_32():
    # a seed in [0, 2^32) keeps numpy's own stream, alone or in a list
    for s in (0, 7, 2026, (1 << 32) - 1):
        ref = _draws(np.random.default_rng(s))
        assert _draws(random_stream(s)) == ref
        assert _draws(random_stream([s])) == ref
        assert _draws(random_stream(np.int64(s))) == ref
    assert _draws(random_stream(-1)) == _draws(random_stream((1 << 32) - 1))
    assert _draws(random_stream((1 << 32) + 3)) == _draws(random_stream(3))
    # entries of every size and sign, mixed: each is reduced on its own
    ref = _draws(np.random.default_rng([3, 41, 0]))
    for seed in ([(1 << 64) + 3, 41, 0], [3 - (1 << 32), 41, 0],
                 np.array([3, 41, 0])):
        assert _draws(random_stream(seed)) == ref
    assert _draws(random_stream([1 << 63, 1])) \
        == _draws(np.random.default_rng([0, 1]))
    rng = np.random.default_rng(5)
    assert random_stream(rng) is rng
    for bad in (1.5, 7.0, [7.0, 1], np.float64(2.0)):
        with pytest.raises(TypeError):
            random_stream(bad)
