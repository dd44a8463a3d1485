"""Property tests for the TrigPoly canonical form, its exact ring laws on
small-integer coefficients, and the serialize round-trip.  They need
hypothesis and are skipped without it; each shrunk counterexample is kept
as a fixed regression test in the test module of its layer."""

import pytest

from hankellab.serialize import poly_from_triples, poly_to_triples
from hankellab.trigpoly import PRUNE_TOL, TrigPoly, multiply

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
