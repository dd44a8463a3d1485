"""JSON serialization for polynomials and norm estimates.

The interchange format for a polynomial is a JSON array of
[frequency, real, imag] triples, sorted by frequency.
"""

from __future__ import annotations

import json

from .errors import HankelLabError
from .trigpoly import TrigPoly

__all__ = ["poly_to_triples", "poly_from_triples", "save_poly", "load_poly"]


def poly_to_triples(f: TrigPoly):
    return [[int(n), float(c.real), float(c.imag)] for n, c in f.to_pairs()]


def poly_from_triples(triples) -> TrigPoly:
    pairs = []
    for item in triples:
        if len(item) != 3:
            raise ValueError(f"expected [freq, re, im], got {item!r}")
        n, re, im = item
        pairs.append((int(n), complex(float(re), float(im))))
    return TrigPoly.from_pairs(pairs)


def save_poly(path, f: TrigPoly):
    """Write f as JSON triples; an unwritable path raises HankelLabError."""
    try:
        with open(path, "w") as fh:
            json.dump(poly_to_triples(f), fh)
            fh.write("\n")
    except OSError as exc:
        raise HankelLabError(
            f"cannot write a polynomial to {path}: {exc}") from exc


def load_poly(path) -> TrigPoly:
    """Read a polynomial saved by save_poly; an unreadable file, invalid
    JSON or a malformed triple raises HankelLabError naming the path."""
    try:
        with open(path) as fh:
            return poly_from_triples(json.load(fh))
    except (OSError, ValueError, TypeError) as exc:
        raise HankelLabError(
            f"cannot read a polynomial from {path}: {exc}") from exc
