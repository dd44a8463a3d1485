"""Operator-norm estimators: power iteration on sections, ratio search
lower bounds, Lebesgue constants, and the extremal partial-sum ratio."""

import numpy as np
import pytest

from hankellab.errors import ParameterError
from hankellab.hankel import MatrixSection, TruncationSpec, matrix_section
from hankellab.opnorm import (lebesgue_constant, ratio_search_qp,
                              section_norm_2_2, sn_extremal_lower_bound)
from hankellab.spaces import hardy_norm, random_symbol
from hankellab.trigpoly import TrigPoly, analytic_partial_sum

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


# -- section_norm_2_2 ----------------------------------------------------------

def test_golden_ratio_section():
    est = section_norm_2_2(np.array([[1.0, 1.0], [1.0, 0.0]]), tol=1e-14)
    assert est.converged
    assert abs(est.value - GOLDEN) <= 1e-10


def test_zero_section():
    est = section_norm_2_2(np.zeros((4, 4)))
    assert est.value == 0.0 and est.converged
    # one sweep finds A*A v = 0 and returns the unit start vector as witness
    assert est.iterations == 1
    assert abs(np.linalg.norm(est.witness) - 1.0) <= 1e-12


def test_power_iteration_matches_svd():
    rng = np.random.default_rng(7)
    for _ in range(10):
        A = rng.standard_normal((17, 11)) + 1j * rng.standard_normal((17, 11))
        est = section_norm_2_2(A, tol=1e-14, seed=5)
        ref = np.linalg.svd(A, compute_uv=False)[0]
        assert abs(est.value - ref) <= 1e-10 * ref


def test_accepts_matrix_section_objects():
    b = TrigPoly.from_pairs([(n, 1.0 / (n + 1.0)) for n in range(31)])
    sec = matrix_section(b, None, 16, 16)
    est = section_norm_2_2(sec, tol=1e-13)
    ref = np.linalg.svd(np.asarray(sec.entries), compute_uv=False)[0]
    assert abs(est.value - ref) <= 1e-10


def test_warm_start_converges_to_same_value():
    rng = np.random.default_rng(11)
    A = rng.standard_normal((40, 40))
    cold = section_norm_2_2(A, tol=1e-13)
    warm = section_norm_2_2(A, tol=1e-13, v0=cold.witness)
    assert abs(cold.value - warm.value) <= 1e-9 * cold.value
    assert warm.iterations <= cold.iterations


def test_witness_achieves_the_value():
    rng = np.random.default_rng(13)
    A = rng.standard_normal((25, 19)) + 1j * rng.standard_normal((25, 19))
    est = section_norm_2_2(A, tol=1e-13)
    v = np.asarray(est.witness)
    achieved = np.linalg.norm(A @ v) / np.linalg.norm(v)
    assert abs(achieved - est.value) <= 1e-8 * est.value


def test_nested_sections_are_monotone():
    b = TrigPoly.from_pairs([(n, 1.0 / (n + 1.0)) for n in range(63)])
    vals = [section_norm_2_2(matrix_section(b, None, s, s), tol=1e-13).value
            for s in (4, 8, 16, 32)]
    assert all(y > x for x, y in zip(vals, vals[1:]))
    assert vals[-1] <= np.pi + 1e-9


def _reference_power_iteration(A, tol, seed=0, v0=None):
    """The sweep loop with the adjoint formed as A.conj().T, which copies
    the matrix; section_norm_2_2 must reproduce its value, sweep count and
    residual bit for bit and its witness entry for entry."""
    A = np.asarray(A, dtype=np.complex128)
    if v0 is not None:
        v = np.asarray(v0, dtype=np.complex128).copy()
        v /= np.linalg.norm(v)
    else:
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(A.shape[1]) \
            + 1j * rng.standard_normal(A.shape[1])
        v /= np.linalg.norm(v)
    prev = 0.0
    for it in range(1, 20001):
        w = A.conj().T @ (A @ v)
        sigma = float(np.sqrt(max(np.real(np.vdot(v, w)), 0.0)))
        v = w / np.linalg.norm(w)
        rel = abs(sigma - prev) / max(sigma, 1e-300)
        if rel <= tol:
            return sigma, it, rel, v
        prev = sigma
    raise AssertionError("reference loop did not converge")


def test_power_iteration_is_bit_identical_to_copying_adjoint():
    rng = np.random.default_rng(23)

    def cplx(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    spec = TruncationSpec((2.0 / 3.0,), -3.0)
    sections = {
        "tall": cplx((70, 33)),
        "wide": cplx((21, 64)),
        "real": rng.standard_normal((48, 48)),
        "section": matrix_section(random_symbol(0.5, 6, 29), spec, 96, 96),
    }
    for name, sec in sections.items():
        A = sec.entries if isinstance(sec, MatrixSection) else sec
        for kwargs in ({"seed": [5, 7]}, {"v0": cplx(A.shape[1])}):
            est = section_norm_2_2(sec, tol=1e-10, **kwargs)
            value, its, rel, v = _reference_power_iteration(A, 1e-10,
                                                            **kwargs)
            assert est.converged, name
            assert (est.value, est.iterations, est.residual) == \
                (value, its, rel), name
            # every entry equal; an exact zero may differ in its sign
            assert np.array_equal(est.witness, v), name


def test_non_convergence_is_flagged():
    rng = np.random.default_rng(17)
    A = rng.standard_normal((30, 30))
    with pytest.warns(RuntimeWarning):
        est = section_norm_2_2(A, tol=0.0, max_iter=3)
    assert not est.converged and est.iterations == 3


def test_norm_estimate_json_dict():
    est = section_norm_2_2(np.array([[2.0]]), tol=1e-14)
    d = est.to_json_dict()
    assert d["method"] == "power_iteration" and d["converged"]
    assert abs(d["value"] - 2.0) <= 1e-12
    assert isinstance(d["witness"], list)


# -- ratio_search_qp -----------------------------------------------------------

def test_ratio_search_identity_operator():
    est = ratio_search_qp(lambda f: f, 2.0, 2.0, degree=4, samples=8, seed=3)
    assert abs(est.value - 1.0) <= 1e-12
    assert est.method == "ratio_search" and est.converged


def test_ratio_search_partial_sum_projection():
    est = ratio_search_qp(lambda f: analytic_partial_sum(f, 0), 2.0, 2.0,
                          degree=3, samples=8, seed=4)
    assert abs(est.value - 1.0) <= 1e-12       # constants are fixed points


def test_ratio_search_golden_hankel():
    # H_b with b = 1 + z on degree <= 2 inputs is exactly the 3x3 section
    # [[1,1,0],[1,0,0],[0,0,0]]; its 2->2 norm is the golden ratio.
    from hankellab.hankel import hankel_apply
    b = TrigPoly([1.0, 1.0], 0)
    est = ratio_search_qp(lambda f: hankel_apply(b, f), 2.0, 2.0, degree=2,
                          samples=32, seed=6)
    assert est.value <= GOLDEN + 1e-9          # certified lower bound
    assert est.value >= 0.95 * GOLDEN
    # the witness reproduces the reported ratio
    w = est.witness
    got = hardy_norm(hankel_apply(b, w), 2.0).value / hardy_norm(w, 2.0).value
    assert abs(got - est.value) <= 1e-12


def test_ratio_search_degenerate_operator():
    est = ratio_search_qp(lambda f: TrigPoly.zero(), 2.0, 2.0, degree=3,
                          samples=8, seed=8)
    assert est.value == 0.0 and not est.converged


def test_ratio_search_guards():
    with pytest.raises(ParameterError):
        ratio_search_qp(lambda f: f, 2.0, 2.0, degree=-1)


# -- Lebesgue constants --------------------------------------------------------

def test_lebesgue_constant_values():
    assert lebesgue_constant(0) == 1.0
    closed = 1.0 / 3.0 + 2.0 * np.sqrt(3.0) / np.pi
    assert abs(lebesgue_constant(1) - closed) <= 1e-6
    with pytest.raises(ParameterError):
        lebesgue_constant(-1)


def test_lebesgue_constant_monotone():
    vals = [lebesgue_constant(N) for N in (1, 2, 4, 8, 16)]
    assert all(y > x for x, y in zip(vals, vals[1:]))


# -- extremal partial-sum ratio ------------------------------------------------

def test_sn_extremal_rejects_bad_N():
    for bad in (12, 6, 7, 0, 20):
        with pytest.raises(ParameterError):
            sn_extremal_lower_bound(bad, 0.5)


def test_sn_extremal_ratios_grow():
    vals = [sn_extremal_lower_bound(N, 0.5) for N in (8, 16, 32, 64)]
    assert all(v >= 1.0 for v in vals)
    assert vals[-1] > vals[0]


def test_sign_dirichlet_coefficients_against_quadrature():
    # independent oracle: panel Gauss quadrature of sign(D_M) e^{-i nu t}
    from hankellab.opnorm import _sign_dirichlet_coeffs
    M = 3
    w = _sign_dirichlet_coeffs(M)
    xg, wg = np.polynomial.legendre.leggauss(64)
    t_nodes = 2.0 * np.pi * np.arange(2 * M + 2) / (2 * M + 1)
    t_nodes[-1] = 2.0 * np.pi
    for nu in (0, 1, -1, 3, -5, 2 * M):
        total = 0.0 + 0.0j
        for k in range(2 * M + 1):
            a, bb = t_nodes[k], t_nodes[k + 1]
            tt = 0.5 * (a + bb) + 0.5 * (bb - a) * xg
            sgn = (-1.0) ** k
            total += 0.5 * (bb - a) * np.sum(wg * sgn * np.exp(-1j * nu * tt))
        total /= 2.0 * np.pi
        assert abs(w.coeff(nu) - total) <= 1e-12
