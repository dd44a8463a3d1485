"""Hankel operators, skewed truncations, and the exact reduction
identities."""

import numpy as np
import pytest

from hankellab import hankel
from hankellab.errors import (CostGuardError, NonAnalyticError,
                              ParameterError, SectionSizeError)
from hankellab.hankel import (BOUNDARY_TOL, TruncationSpec,
                              beta_minus_one_identity_check,
                              beta_zero_identity_check,
                              column_truncation_apply, hankel_apply,
                              matrix_section, multilinear_truncated_apply,
                              section_weights, truncated_apply)
from hankellab.spaces import reduction_index
from hankellab.trigpoly import (TrigPoly, coeff_distance, multiply,
                                random_poly, tail_projection)


# -- plain application --------------------------------------------------------

def test_hankel_apply_hand_oracle():
    # b = 1 + 2z + 3z^2, f = a0 + a1 z: c_m = sum_n a_n b_{m+n}
    b = TrigPoly([1.0, 2.0, 3.0], 0)
    f = TrigPoly([5.0, 7.0], 0)
    h = hankel_apply(b, f)
    assert h.coeff(0) == 5.0 * 1.0 + 7.0 * 2.0     # 19
    assert h.coeff(1) == 5.0 * 2.0 + 7.0 * 3.0     # 31
    assert h.coeff(2) == 5.0 * 3.0                 # 15
    assert h.max_freq == 2


def test_hankel_apply_dual_paths_agree():
    rng = np.random.default_rng(19)
    for _ in range(100):
        b = random_poly(rng, int(rng.integers(0, 33)))
        f = random_poly(rng, int(rng.integers(0, 33)))
        direct = hankel_apply(b, f, method="direct")
        proj = hankel_apply(b, f, method="projection")
        assert coeff_distance(direct, proj) <= 1e-12


def test_hankel_apply_guards():
    b = TrigPoly.character(1)
    with pytest.raises(NonAnalyticError):
        hankel_apply(TrigPoly.character(-1), b)
    with pytest.raises(NonAnalyticError):
        hankel_apply(b, TrigPoly.character(-2))
    with pytest.raises(ParameterError):
        hankel_apply(b, b, method="nope")


# -- truncation specs and masks -----------------------------------------------

def test_truncation_spec_validation():
    spec = TruncationSpec(0.5, 1.0)
    assert spec.beta == (0.5,) and spec.arity == 1
    with pytest.raises(ParameterError):
        TruncationSpec((), 0.0)
    with pytest.raises(ParameterError):
        TruncationSpec((1.0,), 0.0, boundary="open")


def test_boundary_weights_include_vs_half():
    spec_i = TruncationSpec((1.0,), 0.0, boundary="include")
    spec_h = TruncationSpec((1.0,), 0.0, boundary="half")
    # output index 3 against thresholds at residual 3 - t = -1, -1e-12, 0,
    # 1e-12, 1: the three within BOUNDARY_TOL of the boundary count as on it
    t = 3.0 - np.array([-1.0, -1e-12, 0.0, 1e-12, 1.0])
    np.testing.assert_array_equal(spec_i.weights(3, t),
                                  [False, True, True, True, True])
    np.testing.assert_array_equal(spec_h.weights(3, t),
                                  [0, 0.5, 0.5, 0.5, 1])


def _residual_weights(boundary, residual):
    """The boundary rule evaluated on the float residual m - beta*n - gamma,
    an independent reference for the integer cutoffs of TruncationSpec."""
    if boundary == "include":
        return (residual >= -BOUNDARY_TOL).astype(np.float64)
    w = (residual > BOUNDARY_TOL).astype(np.float64)
    w[np.abs(residual) <= BOUNDARY_TOL] = 0.5
    return w


@pytest.mark.parametrize("boundary", ["include", "half"])
def test_section_weights_match_residual_weights(boundary):
    # rational beta = k/l puts lattice gammas exactly on boundary rows, where
    # BOUNDARY_TOL decides between the integer cutoff and its neighbour
    rows, cols = 45, 38
    m = np.arange(rows, dtype=np.float64)[:, None]
    n = np.arange(cols, dtype=np.float64)[None, :]
    betas = sorted({k / l for k in range(-7, 8) for l in range(1, 8)})
    assert 0.0 in betas and -1.0 in betas
    for beta in betas:
        for gamma in [-9.0, -2.0 / 3.0, 0.0, 1.0 / 7.0, 0.37, 2.5, 11.0,
                      -4.2]:
            spec = TruncationSpec((beta,), gamma, boundary=boundary)
            ref = _residual_weights(boundary, m - beta * n - gamma)
            got = section_weights(spec, rows, cols)
            assert np.array_equal(got, ref), (beta, gamma)
    with pytest.raises(ParameterError):
        section_weights(TruncationSpec((1.0, 1.0), 0.0), rows, cols)


def test_truncated_apply_mask_semantics():
    # beta=1, gamma=0 keeps entries with m >= n
    b = TrigPoly([1.0, 1.0, 1.0, 1.0, 1.0], 0)
    f = TrigPoly([1.0, 1.0], 0)
    spec = TruncationSpec((1.0,), 0.0)
    h = truncated_apply(b, spec, f)
    # c_m = sum_{n <= m} b_{m+n} a_n
    assert h.coeff(0) == 1.0           # only n=0
    assert h.coeff(1) == 2.0           # n=0 and n=1
    assert h.coeff(4) == 1.0           # b_5 = 0, only n=0 at b_4


def test_half_boundary_realizes_signed_mean():
    # 2*Pi(half) - I acts as sign(m - beta n - gamma) on each entry
    rng = np.random.default_rng(41)
    b = random_poly(rng, 16)
    f = random_poly(rng, 8)
    beta, gamma = 2.0, 3.0
    spec = TruncationSpec((beta,), gamma, boundary="half")
    lhs = 2.0 * truncated_apply(b, spec, f) - hankel_apply(b, f)
    B = np.zeros(40, dtype=complex)
    B[: b.coeffs.size] = b.coeffs
    out = np.zeros(28, dtype=complex)
    for m in range(28):
        for n in range(f.coeffs.size):
            out[m] += np.sign(m - beta * n - gamma) * B[m + n] * f.coeffs[n]
    ref = TrigPoly(out, 0)
    assert coeff_distance(lhs, ref) <= 1e-12


def test_beta_zero_identity():
    rng = np.random.default_rng(43)
    for _ in range(30):
        b = random_poly(rng, int(rng.integers(1, 33)))
        f = random_poly(rng, int(rng.integers(1, 33)))
        N = int(rng.integers(0, 40))
        assert beta_zero_identity_check(b, N, f) <= 1e-12


def test_beta_minus_one_identity():
    rng = np.random.default_rng(47)
    for _ in range(30):
        b = random_poly(rng, int(rng.integers(1, 33)))
        f = random_poly(rng, int(rng.integers(1, 33)))
        N = int(rng.integers(1, 40))
        assert beta_minus_one_identity_check(b, N, f) <= 1e-12


def test_column_truncation_is_input_projection():
    rng = np.random.default_rng(53)
    for _ in range(30):
        b = random_poly(rng, 20)
        f = random_poly(rng, 15)
        N = int(rng.integers(0, 18))
        lhs = column_truncation_apply(b, N, f)
        rhs = hankel_apply(b, tail_projection(f, N))
        assert coeff_distance(lhs, rhs) <= 1e-12


def test_reduction_identity_coefficientwise():
    # for gamma < 0 < beta: (I - Pi)H_b = (I - Pi)H_{P_n(b)}, n = [-gamma/beta]
    rng = np.random.default_rng(59)
    for beta, gamma in [(2.0, -6.0), (1.0, -3.5), (0.5, -10.0)]:
        n_red = reduction_index(beta, gamma)
        spec = TruncationSpec((beta,), gamma)
        for _ in range(10):
            b = random_poly(rng, 24)
            f = random_poly(rng, 12)
            b_red = tail_projection(b, n_red)
            lhs = hankel_apply(b, f) - truncated_apply(b, spec, f)
            rhs = hankel_apply(b_red, f) - truncated_apply(b_red, spec, f)
            assert coeff_distance(lhs, rhs) <= 1e-12


# -- multilinear truncation ---------------------------------------------------

def test_multilinear_truncated_matches_direct_loops():
    rng = np.random.default_rng(61)
    b = random_poly(rng, 10)
    f1 = random_poly(rng, 3)
    f2 = random_poly(rng, 4)
    beta, gamma = (0.5, -1.5), 1.0
    spec = TruncationSpec(beta, gamma)
    got = multilinear_truncated_apply(b, spec, [f1, f2])
    B = np.zeros(32, dtype=complex)
    B[: b.coeffs.size] = b.coeffs
    out = np.zeros(20, dtype=complex)
    for i0 in range(20):
        for i1 in range(f1.coeffs.size):
            for i2 in range(f2.coeffs.size):
                if beta[0] * i1 + beta[1] * i2 + gamma <= i0 + 1e-9:
                    s = i0 + i1 + i2
                    if s < B.size:
                        out[i0] += B[s] * f1.coeffs[i1] * f2.coeffs[i2]
    assert coeff_distance(got, TrigPoly(out, 0)) <= 1e-12


def test_multilinear_half_boundary_matches_sign_loop():
    # 2 Pi - I acts as sign(i0 - beta . (i1, i2) - gamma) on each tuple; the
    # dyadic beta and gamma make every residual exact in floating point, so
    # the tuples on the boundary get sign 0 there and weight 1/2 here
    rng = np.random.default_rng(71)
    b = random_poly(rng, 14)
    f1 = random_poly(rng, 6)
    f2 = random_poly(rng, 5)
    beta, gamma = (0.5, -0.25), 0.75
    got = multilinear_truncated_apply(
        b, TruncationSpec(beta, gamma, boundary="half"), [f1, f2])
    out = np.zeros(15, dtype=complex)
    on_boundary = 0
    for i0 in range(15):
        for i1 in range(f1.coeffs.size):
            for i2 in range(f2.coeffs.size):
                sign = np.sign(i0 - beta[0] * i1 - beta[1] * i2 - gamma)
                on_boundary += sign == 0
                out[i0] += (0.5 * (1.0 + sign) * b.coeff(i0 + i1 + i2)
                            * f1.coeffs[i1] * f2.coeffs[i2])
    assert on_boundary > 0
    assert coeff_distance(got, TrigPoly(out, 0)) <= 1e-12


def test_multilinear_diagonal_reduces_to_scalar():
    rng = np.random.default_rng(67)
    for nu, gamma in [(0.5, 2.0), (-2.5, -4.0), (1.0, 0.0)]:
        b = random_poly(rng, 16)
        fs = [random_poly(rng, 5), random_poly(rng, 6)]
        lhs = multilinear_truncated_apply(
            b, TruncationSpec((nu, nu), gamma), fs)
        rhs = truncated_apply(b, TruncationSpec((nu,), gamma),
                              multiply(fs[0], fs[1]))
        assert coeff_distance(lhs, rhs) <= 1e-12


def _multilinear_loop_oracle(b, spec, fs):
    """The per-output-index loop: one np.sum over the input grid per i0."""
    degs = [f.max_freq for f in fs]
    K = b.max_freq
    grids = np.meshgrid(*[np.arange(d + 1) for d in degs], indexing="ij")
    index_sum = np.zeros(grids[0].shape, dtype=np.int64)
    slope_dot = np.zeros(grids[0].shape)
    amp = np.ones(grids[0].shape, dtype=complex)
    for g, beta_j, f in zip(grids, spec.beta, fs):
        index_sum += g
        slope_dot += beta_j * g
        amp = amp * f.window(0, f.max_freq)[g]
    B = b.window(0, K + sum(degs))
    cuts = spec.cutoffs(slope_dot + spec.gamma)
    out = np.zeros(K + 1, dtype=complex)
    for i0 in range(K + 1):
        W = spec.cutoff_weights(i0, cuts)
        out[i0] = np.sum(W * amp * B[i0 + index_sum])
    return TrigPoly(out, 0)


@pytest.mark.parametrize("boundary", ["include", "half"])
@pytest.mark.parametrize("degs", [(7,), (5, 9), (3, 4, 6), (60, 70),
                                  (300, 299)])
def test_multilinear_matches_per_index_loop_bitwise(boundary, degs):
    rng = np.random.default_rng(sum(degs))
    b = random_poly(rng, 30)
    fs = [random_poly(rng, d) for d in degs]
    # dyadic slopes put tuples exactly on the boundary
    beta = (0.5, -0.25, 1.0)[:len(degs)]
    spec = TruncationSpec(beta, 0.75, boundary=boundary)
    if sum(degs) > 100:
        # several blocks of output indices: 15, 15 and 1 rows at (60, 70),
        # one row each at (300, 299)
        assert 31 * np.prod([d + 1 for d in degs]) > hankel._BLOCK_ENTRIES
    got = multilinear_truncated_apply(b, spec, fs)
    assert got == _multilinear_loop_oracle(b, spec, fs)


def test_multilinear_cost_guard():
    b = TrigPoly.character(1 << 12)
    fs = [TrigPoly.character(1 << 12) for _ in range(3)]
    with pytest.raises(CostGuardError):
        multilinear_truncated_apply(b, TruncationSpec((1.0,) * 3, 0.0), fs)


def test_multilinear_arity_mismatch():
    b = TrigPoly.character(2)
    with pytest.raises(ParameterError):
        multilinear_truncated_apply(b, TruncationSpec((1.0, 1.0), 0.0),
                                    [TrigPoly.character(1)])


# -- matrix sections ----------------------------------------------------------

def test_matrix_section_entries():
    b = TrigPoly([1.0, 2.0, 3.0, 4.0], 0)
    sec = matrix_section(b, None, 3, 2)
    expect = np.array([[1.0, 2.0], [2.0, 3.0], [3.0, 4.0]])
    assert isinstance(sec, np.ndarray) and sec.dtype == np.complex128
    assert not sec.flags.writeable
    np.testing.assert_allclose(sec, expect)


def test_matrix_section_truncated():
    b = TrigPoly([1.0, 1.0, 1.0, 1.0], 0)
    spec = TruncationSpec((1.0,), 0.0)      # keep m >= n
    sec = matrix_section(b, spec, 2, 2)
    np.testing.assert_allclose(sec, [[1.0, 0.0], [1.0, 1.0]])


def test_matrix_section_guards():
    b = TrigPoly.character(0)
    with pytest.raises(SectionSizeError):
        matrix_section(b, None, 5000, 2)
    with pytest.raises(SectionSizeError):
        matrix_section(b, None, 0, 2)
    with pytest.raises(ParameterError):
        matrix_section(b, TruncationSpec((1.0, 1.0), 0.0), 2, 2)
