"""Property tests for the TrigPoly canonical form, its exact ring laws on
small-integer coefficients, the one-pass difference and coefficient
distance, the truncation boundary at exact rational thresholds, and the
serialize round-trip.  They need hypothesis and are skipped without it; each
shrunk counterexample is kept as a fixed regression test in the test module
of its layer."""

import math

import numpy as np
import pytest

from hankellab.hankel import TruncationSpec
from hankellab.serialize import poly_from_triples, poly_to_triples
from hankellab.trigpoly import PRUNE_TOL, TrigPoly, coeff_distance, multiply

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given = hypothesis.given
# one fixed example set per test, and no example database on disk
settings = hypothesis.settings(derandomize=True, database=None,
                               deadline=None, max_examples=200)

# parts near PRUNE_TOL exercise the pruning; the rest are ordinary floats
_part = st.one_of(
    st.sampled_from([0.0, -0.0, PRUNE_TOL, 0.5 * PRUNE_TOL, 2 * PRUNE_TOL]),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))
_small = st.integers(-4, 4).map(float)


def _polys(part):
    coeffs = st.lists(st.builds(complex, part, part), max_size=8)
    return st.builds(TrigPoly, coeffs, st.integers(-20, 20))


def _canonical(f):
    if f.is_zero:
        return f.min_freq == 0 and f.coeffs.size == 0
    return abs(f.coeffs[0]) > PRUNE_TOL and abs(f.coeffs[-1]) > PRUNE_TOL


@settings
@given(_polys(_part), _polys(_part))
def test_canonical_form(f, g):
    assert _canonical(f)
    assert _canonical(f + g) and _canonical(multiply(f, g))
    again = TrigPoly(f.coeffs, f.min_freq)
    assert again == f and again.min_freq == f.min_freq


@settings
@given(_polys(_small), _polys(_small), _polys(_small))
def test_exact_ring_laws(f, g, h):
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert multiply(f, g) == multiply(g, f)
    assert (f - f).is_zero


@settings
@given(_polys(_part))
def test_triples_round_trip(f):
    assert poly_from_triples(poly_to_triples(f)) == f


def _distance_by_sum(f, g):
    """coeff_distance's definition: the largest modulus of the canonical
    f + (-g), 0.0 when that is zero."""
    d = f + (-g)
    return 0.0 if d.is_zero else float(np.abs(d.coeffs).max())


@settings
@given(_polys(_part), _polys(_part))
def test_difference_and_distance_match_negated_sum(f, g):
    for a, b in ((f, g), (g, f), (f, f)):
        d = a - b
        assert d == a + (-b) and d.min_freq == (a + (-b)).min_freq
        assert coeff_distance(a, b) == _distance_by_sum(a, b)


def test_distance_of_nan_coefficient_is_nan():
    f = TrigPoly([1.0, float("nan"), 2.0], -1)
    g = TrigPoly([1.0, 3.0], 0)
    assert math.isnan(coeff_distance(f, g))
    assert math.isnan(coeff_distance(g, f))


@settings
@given(st.integers(-64, 64), st.integers(1, 64), st.sampled_from([1, -1]),
       st.integers(0, 4096), st.integers(-4096, 4096))
def test_weights_at_exact_rational_boundaries(k, l, sign_l, n, m):
    # beta = k/l and gamma = g/l with k*n + g = l*m put the threshold
    # beta*n + gamma exactly on the integer m, up to the rounding of the
    # threshold that BOUNDARY_TOL absorbs; moving gamma by 1/|l| moves the
    # threshold off m by far more than BOUNDARY_TOL
    l *= sign_l
    g = l * m - k * n
    for shift, include, half in ((0, True, 0.5), (1, False, 0.0),
                                 (-1, True, 1.0)):
        # shift * sign_l / l = shift / |l|
        for boundary, want in (("include", include), ("half", half)):
            spec = TruncationSpec((k / l,), (g + shift * sign_l) / l,
                                  boundary=boundary)
            t = spec.beta[0] * np.array([float(n)]) + spec.gamma
            assert spec.weights(np.array([float(m)]), t)[0] == want
