"""Bilinear Hilbert transforms: coefficient formulas, pv quadrature, and the
link to sign-multiplier truncations."""

import warnings

import numpy as np
import pytest

from hankellab.bilinear import (BHTParams, bht_fourier, bht_mu_family,
                                bht_mu_fourier, link_identity_check,
                                pv_quadrature, translation_covariance_check)
from hankellab.errors import (GridSizeError, NonAnalyticError, ParameterError)
from hankellab.trigpoly import (Grid, TrigPoly, eval_grid, random_poly,
                                stretch, translate)

RNG = np.random.default_rng


# -- parameters ---------------------------------------------------------------

def test_params_validation():
    p = BHTParams(1, 2, -1)
    assert (p.k, p.l, p.mu, p.L) == (1, 2, -1, 3)
    with pytest.raises(ParameterError):
        BHTParams(1, 0)
    with pytest.raises(ParameterError):
        BHTParams(-2, 2)
    with pytest.raises(ParameterError):
        BHTParams(1, 2, 3)
    with pytest.raises(ParameterError):
        BHTParams(1.5, 2)


# -- single-character oracles ---------------------------------------------------

def test_plain_fourier_single_character():
    # b = e^{ipu}, f = e^{iqt}:
    #   output = -i sign(pl + q) e^{i((k+l)p + q)x}
    for (p, q, k, l) in [(2, 3, 1, 2), (1, -5, 2, 1), (3, -3, 1, 1),
                         (0, 4, 2, -1), (-2, 1, 3, -1)]:
        out = bht_fourier(TrigPoly.character(p), TrigPoly.character(q), k, l)
        s = np.sign(p * l + q)
        freq = (k + l) * p + q
        if s == 0:
            assert out.is_zero
        else:
            assert out.max_freq == out.min_freq == freq
            assert abs(out.coeff(freq) - (-1j * s)) <= 1e-15


def test_mu_fourier_single_character():
    # coefficient -i [sign(pl + qL - mu) - sign(qL)] at frequency (p+q)L
    for (p, q, k, l, mu) in [(2, 1, 1, 2, -1), (1, 0, 2, 1, 1),
                             (4, 2, -1, 3, 2), (0, 1, 1, 1, -1)]:
        params = BHTParams(k, l, mu)
        L = k + l
        out = bht_mu_fourier(TrigPoly.character(p), TrigPoly.character(q),
                             params)
        val = -1j * (np.sign(p * l + q * L - mu) - np.sign(q * L))
        freq = (p + q) * L
        if val == 0:
            assert out.is_zero
        else:
            assert abs(out.coeff(freq) - val) <= 1e-15


def test_mu_form_on_constants():
    # p = q = 0: coefficient -i [sign(-mu) - 0] b_0 a_0 at frequency 0
    out = bht_mu_fourier(TrigPoly.constant(3.0), TrigPoly.constant(2.0),
                         BHTParams(1, 2, 1))
    assert abs(out.coeff(0) - 6.0j) <= 1e-15
    out0 = bht_mu_fourier(TrigPoly.constant(3.0), TrigPoly.constant(2.0),
                          BHTParams(1, 2, 0))
    assert out0.is_zero


def test_mu_form_requires_analytic_f():
    with pytest.raises(NonAnalyticError):
        bht_mu_fourier(TrigPoly.character(1), TrigPoly.character(-1),
                       BHTParams(1, 1))


# -- pv quadrature vs the coefficient formulas ----------------------------------

def test_quadrature_matches_plain_fourier():
    rng = RNG(101)
    b = random_poly(rng, 6)
    f = random_poly(rng, 5, min_freq=-5)
    for (k, l) in [(1, 1), (1, 2), (2, -1), (-1, 2)]:
        G = 128
        vals = pv_quadrature(b, f, BHTParams(k, l), G, variant="plain_kl")
        ref = eval_grid(bht_fourier(b, f, k, l), Grid(G))
        assert np.max(np.abs(vals - ref)) <= 1e-11


def test_quadrature_matches_mu_fourier():
    rng = RNG(102)
    b = random_poly(rng, 5)
    f = random_poly(rng, 4)
    for (k, l, mu) in [(1, 1, 0), (1, 2, -2), (2, 1, 1), (-1, 2, 2),
                       (3, -1, 1)]:
        G = 256
        vals = pv_quadrature(b, f, BHTParams(k, l, mu), G, variant="mu_form")
        ref = eval_grid(bht_mu_fourier(b, f, BHTParams(k, l, mu)), Grid(G))
        assert np.max(np.abs(vals - ref)) <= 1e-11


def test_quadrature_fft_vs_direct():
    rng = RNG(103)
    b = random_poly(rng, 4)
    f = random_poly(rng, 4)
    for variant, params in (("plain_kl", BHTParams(1, 2, 0)),
                            ("mu_form", BHTParams(1, 2, -1))):
        a = pv_quadrature(b, f, params, 128, variant=variant, method="fft")
        d = pv_quadrature(b, f, params, 128, variant=variant,
                          method="direct")
        assert np.max(np.abs(a - d)) <= 1e-11


# -- the one-family code path, pinned to the two-branch reference ---------------
#
# In-test copies of the earlier implementation, which kept the plain (k,l)
# form and the mu form as separate branches and ran the "fft" quadrature as
# one circular convolution per symbol frequency.  The library evaluates both
# forms as one family with (scale, mu, base): its Fourier coefficients and
# "direct" quadrature must not move by one bit.  Its "fft" quadrature sums
# shifted DFTs instead, the same finite sum in another order, so it must
# agree with the per-frequency loop to rounding.

FFT_REL_TOL = 1e-12


def _rel_sup_diff(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


def _pairing_ref(r, s, amps):
    r, s = r.ravel(), s.ravel()
    vals = -1j * np.sign(s) * amps.ravel()
    out = r + s
    lo = int(out.min())
    buf = np.zeros(int(out.max()) - lo + 1, dtype=np.complex128)
    np.add.at(buf, out - lo, vals)
    return TrigPoly(buf, lo)


def _fourier_ref(b, f, params, variant):
    k, l, mu, L = params.k, params.l, params.mu, params.L
    p = b.frequencies()[:, None]
    q = f.frequencies()[None, :]
    amps = b.coeffs[:, None] * f.coeffs[None, :]
    if variant == "plain_kl":
        return _pairing_ref(k * p + 0 * q, l * p + q, amps)
    zeros = np.zeros_like(p * q)
    first = _pairing_ref(k * p + mu + zeros, l * p - mu + L * q, amps)
    second = _pairing_ref(L * p + zeros, L * q + zeros, -amps)
    return first + second


def _quadrature_ref(b, f, params, G, variant, method):
    k, l, mu, L = params.k, params.l, params.mu, params.L
    nodes, grid = Grid(G, staggered=True), Grid(G)
    x, t = grid.points(), nodes.points()
    if variant == "plain_kl":
        fvals = eval_grid(f, nodes)
    else:
        fvals = eval_grid(stretch(f, L), nodes)
    if method == "fft":
        d = np.arange(G, dtype=np.float64)
        khat = np.fft.fft((1.0 / G) / np.tan(np.pi * (d - 0.5) / G))

        def conv(h):
            return np.fft.ifft(np.fft.fft(h) * khat)

        out = np.zeros(G, dtype=np.complex128)
        if variant == "plain_kl":
            for p, bp in zip(b.frequencies(), b.coeffs):
                out += bp * np.exp(1j * k * p * x) * \
                    conv(np.exp(1j * l * p * t) * fvals)
        else:
            base = conv(fvals)
            for p, bp in zip(b.frequencies(), b.coeffs):
                out += bp * np.exp(1j * (k * p + mu) * x) * \
                    conv(np.exp(1j * (l * p - mu) * t) * fvals)
                out -= bp * np.exp(1j * L * p * x) * base
        return out
    out = np.zeros(G, dtype=np.complex128)
    bvals = eval_grid(translate(b, np.pi * l / G), grid)
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


# (k, l): l < 0, k + l < 0 (L = -1, -2) and mu at +-|l| all occur
MERGE_KL = [(1, 1), (1, 2), (2, -1), (-2, 1), (3, -1), (1, -3), (-1, 3)]


def test_one_family_matches_two_branch_reference_bitwise():
    rng = RNG(108)
    for (k, l) in MERGE_KL:
        b = random_poly(rng, 4, min_freq=-4)
        f_any = random_poly(rng, 3, min_freq=-3)
        f_ana = random_poly(rng, 3)
        cases = [("plain_kl", BHTParams(k, l, 0), f_any)]
        cases += [("mu_form", BHTParams(k, l, mu), f_ana)
                  for mu in sorted({-abs(l), 0, abs(l)})]
        for variant, params, f in cases:
            lib = (bht_fourier(b, f, k, l) if variant == "plain_kl"
                   else bht_mu_fourier(b, f, params))
            ref = _fourier_ref(b, f, params, variant)
            assert lib.min_freq == ref.min_freq
            assert np.array_equal(lib.coeffs, ref.coeffs)
            for G in (64, 256):
                got = pv_quadrature(b, f, params, G, variant=variant,
                                    method="direct")
                want = _quadrature_ref(b, f, params, G, variant, "direct")
                assert np.array_equal(got, want), (variant, params, G)
                got = pv_quadrature(b, f, params, G, variant=variant)
                want = _quadrature_ref(b, f, params, G, variant, "fft")
                assert _rel_sup_diff(got, want) <= FFT_REL_TOL, (
                    variant, params, G)

    # an integrand frequency |s| >= G aliases, so the rule is no longer
    # exact; both orders of summation still compute the same finite sum
    b = random_poly(rng, 20, min_freq=-20)
    f = random_poly(rng, 10, min_freq=-10)
    params = BHTParams(1, 3, 0)         # |s| up to 3*20 + 10 = 70 > 64
    with pytest.warns(RuntimeWarning):
        got = pv_quadrature(b, f, params, 64, variant="plain_kl")
    want = _quadrature_ref(b, f, params, 64, "plain_kl", "fft")
    assert _rel_sup_diff(got, want) <= FFT_REL_TOL
    ref = eval_grid(bht_fourier(b, f, 1, 3), Grid(512))[::8]
    assert _rel_sup_diff(got, ref) > 1e-3       # genuinely under-resolved


def test_family_matches_reference_and_lone_calls_bitwise():
    # one block with different windows, a zero b and a zero f; MERGE_KL
    # has l < 0 and k + l < 0
    rng = RNG(109)
    # pair 1 at (k, l, mu) = (-1, 3, 2): at frequency 2 the first pairing
    # is -1j * b_1 a_0 = -1e-15j, pruned to zero before the base pairing
    # 1j * b_0 a_1 = 1j is added
    bs = [random_poly(rng, 6, min_freq=-3), TrigPoly([1.0, 1e-7], 0),
          TrigPoly.zero(), random_poly(rng, 9, min_freq=4),
          random_poly(rng, 3, min_freq=-7)]
    fs = [random_poly(rng, 4), TrigPoly([1e-8, 1.0], 0),
          random_poly(rng, 3), random_poly(rng, 2), TrigPoly.zero()]
    for (k, l) in MERGE_KL:
        rows, lo = bht_mu_family(bs, fs, k, l)
        mus = range(-abs(l), abs(l) + 1)
        assert rows.shape[:2] == (len(mus), len(bs))
        for j, mu in enumerate(mus):
            params = BHTParams(k, l, mu)
            for i, (b, f) in enumerate(zip(bs, fs)):
                got = TrigPoly(rows[j, i], lo)
                wants = [bht_mu_fourier(b, f, params)]
                if b.is_zero or f.is_zero:
                    assert got.is_zero
                else:
                    wants.append(_fourier_ref(b, f, params, "mu_form"))
                for want in wants:
                    assert got.min_freq == want.min_freq, (k, l, mu, i)
                    assert np.array_equal(got.coeffs, want.coeffs), (
                        k, l, mu, i)


def test_family_matches_lone_calls_bitwise_at_workload_size():
    # b with 64 coefficients and f with 25, as in constant_stability; L > 0
    # and L < 0, and the share of output slots whose terms reach a
    # t-frequency in -|l|..|l| (re-summed per mu) runs from 2 of 88 at
    # (1, 3) to 74 of 88 at (-3, 1)
    rng = RNG(2026)
    bs = [random_poly(rng, 63) for _ in range(3)]
    fs = [random_poly(rng, 24) for _ in range(3)]
    for (k, l) in [(1, 3), (-8, 9), (-3, 1), (-9, 8)]:
        rows, lo = bht_mu_family(bs, fs, k, l)
        for j, mu in enumerate(range(-abs(l), abs(l) + 1)):
            for i, (b, f) in enumerate(zip(bs, fs)):
                got = TrigPoly(rows[j, i], lo)
                want = bht_mu_fourier(b, f, BHTParams(k, l, mu))
                assert got.min_freq == want.min_freq, (k, l, mu, i)
                assert np.array_equal(got.coeffs, want.coeffs), (k, l, mu, i)


def test_family_guards():
    b, f = TrigPoly([1.0, 2.0], 0), TrigPoly([1.0], -1)
    with pytest.raises(NonAnalyticError):
        bht_mu_family([b], [f], 1, 2)
    with pytest.raises(ParameterError):
        bht_mu_family([b], [b, b], 1, 2)
    with pytest.raises(ParameterError):
        bht_mu_family([b], [b], 2, -2)
    rows, lo = bht_mu_family([], [], 1, 2)
    assert rows.shape == (5, 0, 0) and lo == 0


def test_quadrature_under_resolved_warns():
    # G = 64 can hold the stretched samples (span 20) but the integrand
    # reaches t-frequency l*44 + L*10 = 64 >= G, so the result is flagged
    rng = RNG(104)
    b = random_poly(rng, 44)
    f = random_poly(rng, 10)
    params = BHTParams(1, 1)
    with pytest.warns(RuntimeWarning):
        vals = pv_quadrature(b, f, params, 64, variant="mu_form")
    # the output spans 86 frequencies; evaluate it on a finer grid
    ref = eval_grid(bht_mu_fourier(b, f, params), Grid(256))[::4]
    assert np.max(np.abs(vals - ref)) > 1e-3 * np.abs(ref).max()


def test_quadrature_is_exact_below_G_without_warning():
    # integrand t-frequencies up to l*20 + L*10 = 40, between G/2 and G:
    # the staggered rule is exact there, so no warning and formula agreement
    rng = RNG(104)
    b = random_poly(rng, 20)
    f = random_poly(rng, 10)
    params = BHTParams(1, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals = pv_quadrature(b, f, params, 64, variant="mu_form")
    # the output spans 38 frequencies; evaluate it on a finer grid
    ref = eval_grid(bht_mu_fourier(b, f, params), Grid(128))[::2]
    assert np.max(np.abs(vals - ref)) <= 1e-12 * np.abs(ref).max()


def test_quadrature_guards():
    b = TrigPoly.character(1)
    with pytest.raises(GridSizeError):
        pv_quadrature(b, b, BHTParams(1, 1), 100)     # not a power of two
    with pytest.raises(ParameterError):
        pv_quadrature(b, b, BHTParams(1, 1), 64, variant="bogus")
    with pytest.raises(ParameterError):
        pv_quadrature(b, b, BHTParams(1, 1), 64, method="bogus")
    with pytest.raises(NonAnalyticError):
        pv_quadrature(b, TrigPoly.character(-1), BHTParams(1, 1), 64,
                      variant="mu_form")


def test_plain_form_rejects_modulation():
    # the plain (k,l) form has no mu; a nonzero one is an error, not ignored
    b = TrigPoly.character(1)
    for method in ("fft", "direct"):
        with pytest.raises(ParameterError):
            pv_quadrature(b, b, BHTParams(1, 2, -1), 64, variant="plain_kl",
                          method=method)


# -- structural identities -------------------------------------------------------

def test_link_identity_random():
    rng = RNG(105)
    for (k, l) in [(1, 1), (1, 2), (2, 1), (-1, 2), (3, -1)]:
        for gamma_l in (-3, 0, 2):
            b = random_poly(rng, 12)
            f = random_poly(rng, 9)
            assert link_identity_check(b, f, k, l, gamma_l) <= 1e-12


def test_link_identity_guards():
    b = TrigPoly.character(1)
    with pytest.raises(ParameterError):
        link_identity_check(b, b, 1, -1, 0)           # k + l = 0
    with pytest.raises(NonAnalyticError):
        link_identity_check(TrigPoly.character(-1), b, 1, 1, 0)


def test_translation_covariance_random():
    rng = RNG(106)
    for (k, l, mu) in [(1, 1, 0), (1, 2, -1), (2, -1, 1), (-1, 3, 2)]:
        b = random_poly(rng, 10)
        f = random_poly(rng, 7)
        y = float(rng.uniform(-np.pi, np.pi))
        res = translation_covariance_check(b, f, BHTParams(k, l, mu), y)
        assert res <= 1e-11


def test_one_pass_checks_match_composed_forms_bitwise():
    # link_identity_check builds side B in one construction and
    # translation_covariance_check accumulates both pairs at once; each
    # residual equals its composition from public calls bit for bit
    from hankellab.bilinear import _bht_coeffs
    from hankellab.hankel import (TruncationSpec, hankel_apply,
                                  truncated_apply)
    from hankellab.trigpoly import analytic_part, coeff_distance
    rng = RNG(108)
    for (k, l) in [(1, 1), (1, 2), (2, 1), (-1, 2), (3, -1)]:
        L, gamma_l = k + l, int(rng.integers(-4, 5))
        b = random_poly(rng, int(rng.integers(1, 20)))
        f = random_poly(rng, int(rng.integers(1, 20)))
        rows, lo = _bht_coeffs([b], [f], k, l, [gamma_l], -L, False)
        side_a = analytic_part(TrigPoly(rows[0, 0], lo))
        spec = TruncationSpec((k / l,), gamma_l / l, boundary="half")
        comb = 2.0 * truncated_apply(b, spec, f) - hankel_apply(b, f)
        side_b = stretch((-1j * (1.0 if l > 0 else -1.0)) * comb, L)
        assert link_identity_check(b, f, k, l, gamma_l) == \
            coeff_distance(side_a, side_b)

        mu = int(rng.integers(-abs(l), abs(l) + 1))
        params, y = BHTParams(k, l, mu), float(rng.uniform(0.0, 6.0))
        b_gen = random_poly(rng, 8, min_freq=-8)
        lhs = bht_mu_fourier(translate(b_gen, L * y), translate(f, L * y),
                             params)
        rhs = translate(bht_mu_fourier(b_gen, f, params), y)
        assert translation_covariance_check(b_gen, f, params, y) == \
            coeff_distance(lhs, rhs)


def test_kernel_transform_is_cached_read_only_and_bitwise_stable():
    from hankellab.bilinear import _doubled_kernel_transform
    rng = RNG(109)
    b = random_poly(rng, 6, min_freq=-6)
    f = random_poly(rng, 5)
    params = BHTParams(1, 2, 1)
    _doubled_kernel_transform.cache_clear()
    first = pv_quadrature(b, f, params, 256)
    kk = _doubled_kernel_transform(256)
    assert _doubled_kernel_transform(256) is kk
    assert not kk.flags.writeable
    with pytest.raises(ValueError):
        kk[0] = 0.0
    d = np.arange(256.0)
    fresh = np.fft.fft((1.0 / 256) / np.tan(np.pi * (d - 0.5) / 256))
    assert np.array_equal(kk, np.concatenate([fresh, fresh]))
    # other grid sizes in between, or an emptied cache, change no bit
    pv_quadrature(b, f, params, 128)
    pv_quadrature(b, f, params, 512)
    assert np.array_equal(pv_quadrature(b, f, params, 256), first)
    _doubled_kernel_transform.cache_clear()
    assert np.array_equal(pv_quadrature(b, f, params, 256), first)


def test_translation_by_plain_y_is_not_covariant():
    # translating the inputs by y (not Ly) must fail for L != 1
    rng = RNG(107)
    from hankellab.trigpoly import coeff_distance
    b = random_poly(rng, 8)
    f = random_poly(rng, 6)
    params = BHTParams(1, 2)     # L = 3
    y = 0.7
    lhs = bht_mu_fourier(translate(b, y), translate(f, y), params)
    rhs = translate(bht_mu_fourier(b, f, params), y)
    assert coeff_distance(lhs, rhs) > 1e-3
