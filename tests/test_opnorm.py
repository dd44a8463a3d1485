"""Operator-norm estimators: Lanczos on A*A for sections, ratio search
lower bounds, Lebesgue constants, and the extremal partial-sum ratio."""

import dataclasses
import json

import numpy as np
import pytest

from hankellab.errors import ParameterError
from hankellab.hankel import TruncationSpec, matrix_section, section_weights
from hankellab.opnorm import (BREAKDOWN_RTOL, RITZ_EVERY, _orthogonalize,
                              _start_vector, lebesgue_constant,
                              ratio_search_qp, section_norm_2_2,
                              sn_extremal_lower_bound)
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


def test_section_norm_matches_svd():
    rng = np.random.default_rng(7)
    for _ in range(10):
        A = rng.standard_normal((17, 11)) + 1j * rng.standard_normal((17, 11))
        est = section_norm_2_2(A, tol=1e-14, seed=5)
        ref = np.linalg.svd(A, compute_uv=False)[0]
        assert abs(est.value - ref) <= 1e-10 * ref


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


def _dense_norm(A):
    """The oracle: the top singular value from a dense SVD."""
    return np.linalg.svd(np.asarray(A), compute_uv=False)[0]


def _golub_kahan(A, tol, seed=0, v0=None, max_iter=20000):
    """The oracle for the iteration: two-basis Golub-Kahan-Lanczos with
    full reorthogonalization of both bases and the Ritz SVD of the upper
    bidiagonal B, the loop section_norm_2_2 ran before it kept one basis.
    Returns (value, iterations, converged)."""
    A = np.asarray(A, dtype=np.complex128)
    m, n = A.shape
    V = np.empty((n, n), dtype=np.complex128)
    U = np.empty((m, m), dtype=np.complex128)
    V[0] = _start_vector(n, seed, v0)
    alpha, beta = [], []
    floor = 0.0
    for k in range(max_iter):
        # alpha_k u_k = A v_k - beta_{k-1} u_{k-1}, made orthogonal to u_<k
        a = 0.0
        if k < m:
            w = A @ V[k]
            if k:
                w, a = _orthogonalize(w - beta[-1] * U[k - 1], U[:k])
            else:
                a = float(np.linalg.norm(w))
        exact = a <= floor
        alpha.append(0.0 if exact else a)
        if not exact:
            floor = max(floor, BREAKDOWN_RTOL * a)
            U[k] = w / a
            # beta_k v_{k+1} = A* u_k - alpha_k v_k, made orthogonal to v_<=k
            b = 0.0
            if k + 1 < n:
                w, b = _orthogonalize(np.conj(np.conj(U[k]) @ A) - a * V[k],
                                      V[:k + 1])
            exact = b <= floor
            beta.append(b)
            if not exact:
                floor = max(floor, BREAKDOWN_RTOL * b)
                V[k + 1] = w / b
        last = exact or k + 1 == max_iter
        if not (last or (k + 1) % RITZ_EVERY == 0):
            continue
        Y, s, Qh = np.linalg.svd(np.diag(alpha) + np.diag(beta[:k], 1))
        rel = 0.0
        if not exact:
            sigma, r = float(s[0]), beta[k] * abs(float(Y[k, 0]))
            rel = r / sigma
            if k and sigma > s[1]:
                rel = min(rel, r * r / (sigma * (sigma - float(s[1]))))
        if last or rel <= tol:
            break
    x = Qh[0] @ V[:k + 1]
    value = float(np.linalg.norm(A @ (x / np.linalg.norm(x))))
    return value, k + 1, rel <= tol


def _assert_same_as_golub_kahan(est, A, tol, **kwargs):
    """Lanczos on A*A takes Golub-Kahan's steps and reaches its value."""
    value, iterations, converged = _golub_kahan(A, tol, **kwargs)
    assert (est.iterations, est.converged) == (iterations, converged)
    assert abs(est.value - value) <= 1e-13 * value


def test_value_is_a_lower_bound_within_tol_of_dense_svd():
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
        ref = _dense_norm(sec)
        for tol in (1e-6, 1e-10):
            for kwargs in ({"seed": [5, 7]}, {"v0": cplx(sec.shape[1])}):
                est = section_norm_2_2(sec, tol=tol, **kwargs)
                _assert_same_as_golub_kahan(est, sec, tol, **kwargs)
                assert est.method == "golub_kahan", name
                assert est.value <= ref * (1.0 + 1e-14), name
                if est.converged:
                    assert (ref - est.value) / ref <= tol, (name, tol)


def test_error_estimate_and_warm_start_on_512_sections():
    # sections as truncation_uniformity builds them at its default config:
    # the reported residual bounds the true relative error within a factor
    # of 10 (above rounding), starting from the full section's witness
    # never takes more steps than the seeded start, and both take the steps
    # of the two-basis Golub-Kahan loop
    S = 512
    for s in range(2):
        b = random_symbol(0.005, 9, [0, 31, s])
        H = matrix_section(b, None, S, S)
        full = section_norm_2_2(H, tol=1e-9, seed=[0, 37, s])
        for beta in (0.5, -2.0):
            for gamma in (4, 16, 64):
                A = section_weights(TruncationSpec((beta,), gamma), S, S) * H
                ref = _dense_norm(A)
                cold = section_norm_2_2(A, tol=1e-6, seed=[0, 37, s])
                warm = section_norm_2_2(A, tol=1e-6, v0=full.witness)
                _assert_same_as_golub_kahan(cold, A, 1e-6, seed=[0, 37, s])
                _assert_same_as_golub_kahan(warm, A, 1e-6, v0=full.witness)
                for est in (cold, warm):
                    assert est.converged
                    err = (ref - est.value) / ref
                    assert -1e-14 <= err <= 10.0 * est.residual + 1e-14
                assert warm.iterations <= cold.iterations, (s, beta, gamma)


def test_rank_one_breakdown_is_exact():
    # the second step finds A*A v_1 inside span(v_0, v_1): the Krylov space
    # is invariant, the value is exact and the error estimate is 0
    rng = np.random.default_rng(31)
    a = rng.standard_normal(30) + 1j * rng.standard_normal(30)
    c = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    A = np.outer(a, np.conj(c))
    exact = np.linalg.norm(a) * np.linalg.norm(c)
    est = section_norm_2_2(A, tol=0.0)
    assert est.converged and est.residual == 0.0 and est.iterations == 2
    assert abs(est.value - exact) <= 1e-14 * exact


@pytest.mark.parametrize("shape,rank,steps", [
    ((21, 64), None, 22),       # wide: stops at k = m, past A*A's range
    ((5, 40), None, 6),
    ((40, 5), None, 5),         # tall: stops on a full basis, k + 1 = n
    ((30, 20), 2, 3),           # low rank: beta vanishes at k = rank
    ((30, 20), 3, 4),
], ids=["wide_21x64", "wide_5x40", "tall_40x5", "rank_2", "rank_3"])
def test_invariant_krylov_spaces_end_exact(shape, rank, steps):
    # at tol 0 only an invariant Krylov space stops the loop: each section
    # ends converged with estimate 0, after the two-basis loop's steps
    rng = np.random.default_rng(37)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    m, n = shape
    A = cplx(m, n) if rank is None else cplx(m, rank) @ cplx(rank, n)
    est = section_norm_2_2(A, tol=0.0, seed=3)
    assert est.converged and est.residual == 0.0
    assert est.iterations == steps
    assert est.iterations == _golub_kahan(A, 0.0, seed=3)[1]
    ref = _dense_norm(A)
    assert abs(est.value - ref) <= 1e-13 * ref


def test_non_convergence_is_flagged():
    rng = np.random.default_rng(17)
    A = rng.standard_normal((30, 30))
    with pytest.warns(RuntimeWarning):
        est = section_norm_2_2(A, tol=0.0, max_iter=3)
    assert not est.converged and est.iterations == 3


def test_norm_estimate_json_dict():
    est = section_norm_2_2(np.array([[2.0]]), tol=1e-14)
    d = est.to_json_dict()
    assert d["method"] == "golub_kahan" and d["converged"]
    assert abs(d["value"] - 2.0) <= 1e-12
    assert isinstance(d["witness"], list)


def test_iterated_estimate_serializes():
    # stopped by the error estimate, not by breakdown: the reported numbers
    # are plain Python floats and bools, so the CLI can write them as JSON
    A = np.random.default_rng(19).standard_normal((40, 40))
    est = section_norm_2_2(A, tol=1e-6)
    assert est.converged and 0.0 < est.residual <= 1e-6
    d = json.loads(json.dumps(est.to_json_dict()))
    assert d["converged"] is True and d["residual"] == est.residual


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


def test_ratio_search_converged_only_if_every_hardy_norm_converged(
        monkeypatch):
    # H^{2/3} norms are refined on grids; with GRID_CAP at 64 no
    # refinement of a degree-4 input can meet its tolerance
    from hankellab.hankel import hankel_apply
    b = random_symbol(1.0, 5, [2026, 41, 0])

    def search():
        return ratio_search_qp(lambda f: hankel_apply(b, f), 2.0 / 3.0, 2.0,
                               degree=4, samples=8, seed=1)

    assert search().converged
    monkeypatch.setattr("hankellab.spaces.GRID_CAP", 64)
    est = search()
    assert est.value > 0.0 and est.converged is False
    assert json.loads(json.dumps(est.to_json_dict()))["converged"] is False


@pytest.mark.xfail(strict=True, reason=(
    "ratio_search_qp keeps a trial only if r > best_val, and the first "
    "trials from the constant-1 candidate only rescale it, so their ratios "
    "tie up to rounding: scaling every hardy_norm(., 2) value by 1 + 2^-52 "
    "moves the truncated spot bound at beta = 1, gamma = 8 (streams [2026, "
    "41, 0] and [2026, 43, 0]) from 0.10476594618900487 to "
    "0.11241725805607303 (+7.3%) and the search from 0.06 s to 0.41 s; "
    "1 - 2^-52, 1 +- 4 * 2^-52 and a correctly rounded math.fsum H^2 norm "
    "move it by less than 1e-15"))
def test_spot_search_ignores_one_ulp(monkeypatch):
    from hankellab.hankel import truncated_apply
    b = random_symbol(1.0, 5, np.random.default_rng([2026, 41, 0]))
    spec = TruncationSpec((1.0,), 8.0)

    def search():
        return ratio_search_qp(lambda f: truncated_apply(b, spec, f),
                               2.0 / 3.0, 2.0, 16, samples=24,
                               seed=np.random.default_rng([2026, 43, 0]))

    base = search().value

    def one_ulp_up(f, p):
        h = hardy_norm(f, p)
        if p != 2:
            return h
        return dataclasses.replace(h, value=h.value * (1.0 + 2.0 ** -52))

    monkeypatch.setattr("hankellab.opnorm.hardy_norm", one_ulp_up)
    assert abs(search().value - base) <= 1e-12 * base


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

    # independent oracle: the mean of |D_N| at the G staggered nodes
    # pi (2j + 1) / G.  With G a multiple of 2N + 1 the roots of D_N are
    # cell edges, so |D_N| is smooth on every cell and the midpoint error
    # is a series in even powers of 1/G; one Richardson step on G and 2G
    # removes its 1/G^2 term (about 4e-6 relative at G = 256 (2N + 1))
    def midpoint_mean(N, G):
        t = np.pi * (2 * np.arange(G) + 1) / G
        return float(np.mean(np.abs(np.sin((N + 0.5) * t) / np.sin(t / 2))))

    for N in (1, 2, 5, 16, 64, 256):
        G = 256 * (2 * N + 1)
        ref = (4 * midpoint_mean(N, 2 * G) - midpoint_mean(N, G)) / 3
        assert abs(lebesgue_constant(N) - ref) <= 1e-10 * ref, N


def test_lebesgue_constant_against_40_digit_references():
    # Fejer's sum in 60-digit arithmetic (mpmath); at N = 64 it agrees
    # with a panel quadrature of (1/pi) int_0^pi |D_N| to all 40 digits.
    # The largest tangents sit next to the pole at pi/2, where the weights
    # take cotangents of small angles instead
    for N, ref in ((64, "2.959039774806267630742025027340292506536"),
                   (1024, "4.079770803324312697649137235960180910845"),
                   (4096, "4.641466368404145638606497503616898769321")):
        ref = float(ref)
        assert abs(lebesgue_constant(N) - ref) <= 1e-15 * ref, N


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
