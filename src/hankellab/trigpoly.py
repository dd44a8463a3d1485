"""Finite trigonometric polynomials with exact coefficient bookkeeping.

A polynomial is f(t) = sum_n c_n e^{int} with finitely many nonzero complex
coefficients c_n, n in Z.  "Analytic" means c_n = 0 for every n < 0, i.e. f
is the boundary value of a polynomial on the unit disc.  Everything in this
module is exact coefficient arithmetic plus FFT evaluation on uniform grids;
no norms live here (see spaces.py).

The Littlewood-Paley blocks (lp_window_weight) are overlapping linear
ramps, not sharp dyadic blocks: block j >= 2 rises from 0 at 2^{j-1} to 1
at 2^j and falls to 0 at 2^{j+1}.  The windows sum to exactly 1 at every
n >= 0 and block j >= 1 lies inside [2^{j-1}, 2^{j+2}), but for
f = sum_{n<32} e^{int} block 3 spans 5..15 with weight 0.25 at 5 and block
4 spans 9..31, so the blocks j >= J do not sum to the sharp tail projection
onto frequencies >= 2^J.
"""

from __future__ import annotations

import numpy as np

from .errors import DegreeOverflowError, GridSizeError, NonAnalyticError

PRUNE_TOL = 1e-14
MAX_DEGREE = 1 << 16

__all__ = [
    "TrigPoly",
    "Grid",
    "eval_grid",
    "eval_grids",
    "multiply",
    "analytic_part",
    "flip",
    "partial_sum",
    "analytic_partial_sum",
    "tail_projection",
    "translate",
    "stretch",
    "lp_window_weight",
    "lp_block",
    "lp_decompose",
    "top_block_index",
    "coeff_distance",
    "random_stream",
    "random_poly",
]


class TrigPoly:
    """Dense complex coefficients over a frequency window [min_freq, max_freq].

    The representation is canonical: coefficients with modulus at or below
    PRUNE_TOL are flushed to exact zero and the window is trimmed so both
    endpoint coefficients are nonzero.  The zero polynomial is the empty
    window with min_freq = 0.  A window with max(|min_freq|, |max_freq|)
    above MAX_DEGREE raises DegreeOverflowError.

    Parameters
    ----------
    coeffs : array_like of complex
        Coefficients c_{min_freq}, c_{min_freq+1}, ... in frequency order.
    min_freq : int
        Frequency of the first entry of `coeffs`.
    """

    __slots__ = ("_coeffs", "_min_freq")

    def __init__(self, coeffs, min_freq=0):
        arr = np.array(coeffs, dtype=np.complex128)
        if arr.ndim != 1:
            raise ValueError("coefficients must be one-dimensional")
        # one mask: the entries left nonzero by the flush are exactly ~small
        # (NaN included); argmin on it and on its reverse finds the first and
        # last of them
        small = np.abs(arr) <= PRUNE_TOL
        first = int(small.argmin()) if arr.size else 0
        if arr.size and not small[first]:
            arr[small] = 0.0
            last = arr.size - int(small[::-1].argmin()) if small[-1] \
                else arr.size
            arr = arr[first:last]
            min_freq = int(min_freq) + first
            hi = min_freq + arr.size - 1
            if max(abs(min_freq), abs(hi)) > MAX_DEGREE:
                raise DegreeOverflowError(
                    f"frequency window [{min_freq}, {hi}] exceeds the degree "
                    f"bound {MAX_DEGREE}")
        else:
            arr = arr[:0]
            min_freq = 0
        arr.setflags(write=False)
        self._coeffs = arr
        self._min_freq = int(min_freq)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "TrigPoly":
        return cls(np.zeros(0))

    @classmethod
    def constant(cls, c) -> "TrigPoly":
        return cls(np.array([c]), 0)

    @classmethod
    def character(cls, n: int, amplitude=1.0) -> "TrigPoly":
        """amplitude * e^{int}."""
        return cls(np.array([amplitude]), int(n))

    @classmethod
    def from_pairs(cls, pairs) -> "TrigPoly":
        """Build from an iterable of (frequency, coefficient) pairs."""
        pairs = [(int(n), complex(c)) for n, c in pairs]
        if not pairs:
            return cls.zero()
        lo = min(n for n, _ in pairs)
        hi = max(n for n, _ in pairs)
        arr = np.zeros(hi - lo + 1, dtype=np.complex128)
        for n, c in pairs:
            arr[n - lo] += c
        return cls(arr, lo)

    # -- basic queries -----------------------------------------------------

    @property
    def coeffs(self) -> np.ndarray:
        """Read-only coefficient array (frequency order)."""
        return self._coeffs

    @property
    def min_freq(self) -> int:
        return self._min_freq

    @property
    def max_freq(self) -> int:
        """Largest frequency of the window (0 for the zero polynomial)."""
        if not self._coeffs.size:
            return 0
        return self._min_freq + self._coeffs.size - 1

    @property
    def is_zero(self) -> bool:
        return self._coeffs.size == 0

    @property
    def is_analytic(self) -> bool:
        return self.is_zero or self._min_freq >= 0

    @property
    def degree(self) -> int:
        """max(|min_freq|, |max_freq|), 0 for the zero polynomial."""
        if self.is_zero:
            return 0
        return max(abs(self._min_freq), abs(self.max_freq))

    @property
    def span(self) -> int:
        """Width of the frequency window, max_freq - min_freq (0 if zero)."""
        if self.is_zero:
            return 0
        return self._coeffs.size - 1

    def frequencies(self) -> np.ndarray:
        return np.arange(self._min_freq, self._min_freq + self._coeffs.size)

    def coeff(self, n: int) -> complex:
        """Coefficient at frequency n (0 outside the window)."""
        i = int(n) - self._min_freq
        if 0 <= i < self._coeffs.size:
            return complex(self._coeffs[i])
        return 0.0 + 0.0j

    def window(self, lo: int, hi: int) -> np.ndarray:
        """Dense coefficients over frequencies lo..hi inclusive."""
        lo, hi = int(lo), int(hi)
        if lo == self._min_freq and hi - lo + 1 == self._coeffs.size:
            return self._coeffs.copy()
        out = np.zeros(hi - lo + 1, dtype=np.complex128)
        if self._coeffs.size:
            a = max(lo, self._min_freq)
            b = min(hi, self._min_freq + self._coeffs.size - 1)
            if a <= b:
                out[a - lo:b - lo + 1] = \
                    self._coeffs[a - self._min_freq:b - self._min_freq + 1]
        return out

    def to_pairs(self):
        """List of (frequency, coefficient) pairs for nonzero entries."""
        return [(int(n), complex(c))
                for n, c in zip(self.frequencies(), self._coeffs) if c != 0]

    # -- arithmetic --------------------------------------------------------

    def _combine(self, other, op):
        """self + other or self - other (op np.add or np.subtract) in one
        union buffer; x - y is x + (-y) exactly."""
        if not isinstance(other, TrigPoly):
            return NotImplemented
        if other.is_zero:
            return self
        if self.is_zero:
            return other if op is np.add else -other
        lo = min(self._min_freq, other._min_freq)
        hi = max(self.max_freq, other.max_freq)
        buf = np.zeros(hi - lo + 1, dtype=np.complex128)
        a = buf[self._min_freq - lo:self._min_freq - lo + self._coeffs.size]
        a += self._coeffs
        b = buf[other._min_freq - lo:other._min_freq - lo + other._coeffs.size]
        op(b, other._coeffs, out=b)
        return TrigPoly(buf, lo)

    def __add__(self, other):
        return self._combine(other, np.add)

    def __sub__(self, other):
        return self._combine(other, np.subtract)

    def __neg__(self):
        return TrigPoly(-self._coeffs, self._min_freq) \
            if self._coeffs.size else TrigPoly.zero()

    def __mul__(self, other):
        if isinstance(other, TrigPoly):
            return multiply(self, other)
        try:
            lam = complex(other)
        except (TypeError, ValueError):
            return NotImplemented
        if self.is_zero:
            return TrigPoly.zero()
        return TrigPoly(self._coeffs * lam, self._min_freq)

    __rmul__ = __mul__

    def __eq__(self, other):
        """Exact structural equality (same window, identical coefficients)."""
        if not isinstance(other, TrigPoly):
            return NotImplemented
        return (self._min_freq == other._min_freq
                and self._coeffs.shape == other._coeffs.shape
                and bool(np.all(self._coeffs == other._coeffs)))

    __hash__ = None

    def __repr__(self):
        if self.is_zero:
            return "TrigPoly(0)"
        terms = self.to_pairs()
        if len(terms) > 4:
            shown = ", ".join(f"{n}: {c:.3g}" for n, c in terms[:4])
            return f"TrigPoly({{{shown}, ...}}, {len(terms)} terms)"
        shown = ", ".join(f"{n}: {c:.3g}" for n, c in terms)
        return f"TrigPoly({{{shown}}})"


# -- grids and evaluation --------------------------------------------------

class Grid:
    """Uniform grid on [0, 2pi): t_j = 2pi (j + 1/2 stagger)/size.

    `size` must be a positive power of two.  A staggered grid places nodes at
    half-integers, avoiding t = 0; it is the natural grid for principal-value
    quadrature against the cotangent kernel.
    """

    __slots__ = ("size", "staggered")

    def __init__(self, size: int, staggered: bool = False):
        size = int(size)
        if size <= 0 or (size & (size - 1)) != 0:
            raise GridSizeError(f"grid size must be a positive power of two, "
                                f"got {size}")
        self.size = size
        self.staggered = bool(staggered)

    def points(self) -> np.ndarray:
        j = np.arange(self.size, dtype=np.float64)
        if self.staggered:
            j = j + 0.5
        return 2.0 * np.pi * j / self.size

    def __repr__(self):
        tag = ", staggered" if self.staggered else ""
        return f"Grid({self.size}{tag})"


def eval_grids(fs, grid: Grid) -> np.ndarray:
    """Values of each f in fs at the grid nodes, one row per polynomial,
    computed by one FFT over the stack.

    Requires grid.size >= 2*span(f) + 1 for every f so that distinct
    frequencies of f occupy distinct FFT bins with margin for downstream
    products.
    """
    G = grid.size
    buf = np.zeros((len(fs), G), dtype=np.complex128)
    for row, f in zip(buf, fs):
        if G < 2 * f.span + 1:
            raise GridSizeError(
                f"grid size {G} too small for frequency span {f.span} "
                f"(need >= {2 * f.span + 1})")
        n = f.frequencies()
        c = f.coeffs
        if grid.staggered:
            c = c * np.exp(1j * np.pi * n / G)
        row[n % G] = c
    return np.fft.ifft(buf, axis=-1, norm="forward")


def eval_grid(f: TrigPoly, grid: Grid) -> np.ndarray:
    """Values of f at the grid nodes: the one-row eval_grids."""
    return eval_grids([f], grid)[0]


# -- coefficient operations ------------------------------------------------

def multiply(f: TrigPoly, g: TrigPoly) -> TrigPoly:
    """Pointwise product, i.e. convolution of coefficient sequences."""
    if f.is_zero or g.is_zero:
        return TrigPoly.zero()
    conv = np.convolve(f.coeffs, g.coeffs)
    return TrigPoly(conv, f.min_freq + g.min_freq)


def analytic_part(f: TrigPoly) -> TrigPoly:
    """Projection onto frequencies n >= 0 (Riesz/Szego projection)."""
    if f.is_zero or f.min_freq >= 0:
        return f
    cut = -f.min_freq
    return TrigPoly(f.coeffs[cut:], 0)


def flip(f: TrigPoly) -> TrigPoly:
    """f(t) -> f(-t): coefficient at n moves to -n."""
    if f.is_zero:
        return f
    return TrigPoly(f.coeffs[::-1], -f.max_freq)


def partial_sum(f: TrigPoly, N: int) -> TrigPoly:
    """S_N f: keep frequencies |n| <= N."""
    if N < 0:
        return TrigPoly.zero()
    return TrigPoly(f.window(-N, N), -N)


def analytic_partial_sum(f: TrigPoly, N: int) -> TrigPoly:
    """S_N^+ f: keep frequencies 0 <= n <= N."""
    if N < 0:
        return TrigPoly.zero()
    return TrigPoly(f.window(0, N), 0)


def tail_projection(f: TrigPoly, N: int) -> TrigPoly:
    """P_N f: keep frequencies n >= N."""
    if f.is_zero or f.max_freq < N:
        return TrigPoly.zero()
    lo = max(f.min_freq, int(N))
    return TrigPoly(f.window(lo, f.max_freq), lo)


def translate(f: TrigPoly, y: float) -> TrigPoly:
    """(translate f)(t) = f(t + y): coefficient c_n gains e^{iny}."""
    if f.is_zero:
        return f
    return TrigPoly(f.coeffs * np.exp(1j * f.frequencies() * y), f.min_freq)


def stretch(f: TrigPoly, factor: int) -> TrigPoly:
    """f(t) -> f(factor*t): coefficient at n moves to factor*n.

    `factor` is a nonzero integer (negative factors compose with flip).
    """
    factor = int(factor)
    if factor == 0:
        raise ValueError("stretch factor must be a nonzero integer")
    if f.is_zero:
        return f
    n = f.frequencies() * factor
    lo, hi = int(n.min()), int(n.max())
    buf = np.zeros(hi - lo + 1, dtype=np.complex128)
    buf[n - lo] = f.coeffs
    return TrigPoly(buf, lo)


# -- Littlewood-Paley blocks -------------------------------------------------

def lp_window_weight(j: int, freqs) -> np.ndarray:
    """Weight of the block-j dyadic window at the given frequencies.

    The windows form a piecewise-linear partition of unity on n >= 1:

    * j = 0 covers only the constant term (weight 1 at n = 0);
    * j = 1 has weight 1 on [1, 2] and ramps down linearly to 0 at 4;
    * j >= 2 ramps up linearly from 0 at 2^{j-1} to 1 at 2^j, then down
      linearly to 0 at 2^{j+1} (so block j is supported in (2^{j-1},
      2^{j+1}), inside the admissible range [2^{j-1}, 2^{j+2})).

    Adjacent ramps are complementary, and every weight is an integer
    divided by a power of two, so the partition of unity is exact even in
    floating point: the weights over all j sum to exactly 1.0 at every
    n >= 0.
    """
    if j < 0:
        raise ValueError("block index must be nonnegative")
    n = np.asarray(freqs, dtype=np.float64)
    if j == 0:
        return (n == 0).astype(np.float64)
    if j == 1:
        w = np.where(n > 2, (4.0 - n) / 2.0, 1.0)
        return np.where((n >= 1) & (n < 4), w, 0.0)
    lo = float(1 << (j - 1))        # 2^{j-1}
    peak = 2.0 * lo                 # 2^j
    hi = 4.0 * lo                   # 2^{j+1}
    up = (n - lo) / lo
    down = (hi - n) / peak
    w = np.where(n <= peak, up, down)
    return np.where((n > lo) & (n < hi), w, 0.0)


def lp_block(f: TrigPoly, j: int) -> TrigPoly:
    """Littlewood-Paley block b_j of an analytic polynomial."""
    if not f.is_analytic:
        raise NonAnalyticError("lp_block requires an analytic polynomial")
    if f.is_zero:
        return f
    w = lp_window_weight(j, f.frequencies())
    return TrigPoly(f.coeffs * w, f.min_freq)


def top_block_index(n: int) -> int:
    """The largest j whose window is nonzero at frequency n (n >= 0)."""
    n = int(n)
    if n < 0:
        raise ValueError("frequency must be nonnegative")
    if n == 0:
        return 0
    if n <= 2:
        return 1
    # largest j with 2^{j-1} < n
    return (n - 1).bit_length()


def lp_decompose(f: TrigPoly):
    """All blocks b_0, ..., b_J covering the spectrum of f; they sum to f
    exactly (the windows are an exact partition of unity in floating
    point)."""
    if not f.is_analytic:
        raise NonAnalyticError("lp_decompose requires an analytic polynomial")
    if f.is_zero:
        return [f]
    J = top_block_index(f.max_freq)
    return [lp_block(f, j) for j in range(J + 1)]


# -- misc helpers ------------------------------------------------------------

def coeff_distance(f: TrigPoly, g: TrigPoly) -> float:
    """max_n |f_n - g_n| over the union of the frequency windows, and 0.0
    when that is at most PRUNE_TOL (then the canonical f - g is zero).  A NaN
    difference gives NaN."""
    lo = min(f.min_freq, g.min_freq)
    hi = max(f.max_freq, g.max_freq)
    d = float(np.abs(f.window(lo, hi) - g.window(lo, hi)).max())
    return 0.0 if d <= PRUNE_TOL else d


def random_stream(seed) -> np.random.Generator:
    """`seed` if it is a Generator, else numpy's stream for its integers,
    each reduced mod 2^32 as a Python int (an int64 and uint64 mix would
    become floats), so s and [s] agree for 0 <= s < 2^32.  Floats raise."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(np.ravel(np.array(seed, object)) % (1 << 32))


def random_poly(rng, degree: int, min_freq: int = 0) -> TrigPoly:
    """Random polynomial with standard complex Gaussian coefficients on
    [min_freq, degree].  Plumbing for tests and experiment corpora."""
    size = int(degree) - int(min_freq) + 1
    if size <= 0:
        raise ValueError("empty frequency window")
    c = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return TrigPoly(c, int(min_freq))
