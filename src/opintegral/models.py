"""Toeplitz and Hankel models with known principal functions.

A trigonometric-polynomial symbol f on the unit circle yields the truncated
Toeplitz matrix (T_f)_{jk} = fhat(j - k).  Real symbol pairs (f, g) give
almost commuting self-adjoint pairs: the commutator [T_f, T_g] equals
H*_{conj(g)} H_f - H*_{conj(f)} H_g with finite-rank Hankel matrices, so its
trace norm is controlled by the symbol degrees, uniformly in the truncation
size.  The index convention (H_f)_{jk} = fhat(-(j + k + 1)) is the one that
makes this identity hold entrywise on truncation windows (regression-tested
by verify_hankel_identity).

For T = T_f the essential spectrum is the symbol curve f(T); off the curve,
the principal function attached to (Re T, Im T) is the winding number of
f - lambda around a fine discretization of the curve, computed on a grid by
signed crossing counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CURVE_POINTS = 2 ** 14


@dataclass(frozen=True)
class Symbol:
    """Trigonometric polynomial on the circle: coeffs[k + deg] = fhat(k)."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=np.complex128))
        if c.size % 2 == 0:
            raise ValueError("coefficients must cover k = -deg..deg (odd count)")
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return self.coeffs.size // 2

    def __call__(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        ks = np.arange(-self.degree, self.degree + 1)
        return np.exp(1j * np.multiply.outer(theta, ks)) @ self.coeffs

    def curve(self, points: int = CURVE_POINTS) -> np.ndarray:
        return self(np.linspace(0.0, 2.0 * np.pi, points, endpoint=False))

    def conjugate(self) -> "Symbol":
        return Symbol(np.conj(self.coeffs[::-1]))

    def real_part(self) -> "Symbol":
        return Symbol(0.5 * (self.coeffs + np.conj(self.coeffs[::-1])))

    def imag_part(self) -> "Symbol":
        return Symbol((self.coeffs - np.conj(self.coeffs[::-1])) / 2j)

    @classmethod
    def from_dict(cls, entries: dict, degree: int | None = None) -> "Symbol":
        deg = degree if degree is not None else max(abs(k) for k in entries)
        c = np.zeros(2 * deg + 1, dtype=np.complex128)
        for k, v in entries.items():
            if abs(k) > deg:
                raise ValueError(f"coefficient index {k} lies outside -{deg}..{deg}")
            c[k + deg] = v
        return cls(c)


def toeplitz_matrix(f: Symbol, n: int) -> np.ndarray:
    """(T_f)_{jk} = fhat(j - k) on the n-dimensional truncation."""
    j = np.arange(n)
    return _coefficient_matrix(f, n, j[:, None] - j[None, :])


def hankel_matrix(f: Symbol, n: int) -> np.ndarray:
    """(H_f)_{jk} = fhat(-(j + k + 1)); finite rank = deg f for trig polynomials."""
    j = np.arange(n)
    return _coefficient_matrix(f, n, -(j[:, None] + j[None, :] + 1))


def _coefficient_matrix(f: Symbol, n: int, index: np.ndarray) -> np.ndarray:
    """n x n matrix of fhat(index), zero where |index| > deg f."""
    if n <= f.degree:
        raise ValueError(f"truncation {n} must exceed the symbol degree {f.degree}")
    out = np.zeros((n, n), dtype=np.complex128)
    mask = np.abs(index) <= f.degree
    out[mask] = f.coeffs[index[mask] + f.degree]
    return out


def verify_hankel_identity(f: Symbol, g: Symbol, n: int, window: int) -> float:
    """Max-entry residual of [T_f, T_g] = H*_{conj g} H_f - H*_{conj f} H_g
    on the top-left window x window block, where truncation effects vanish."""
    if n < 2 * (f.degree + g.degree):
        raise ValueError(f"need n >= 2 (deg f + deg g) = {2 * (f.degree + g.degree)}")
    if window > n - f.degree - g.degree:
        raise ValueError(
            f"window {window} too large; need <= n - deg f - deg g = "
            f"{n - f.degree - g.degree}")
    tf = toeplitz_matrix(f, n)
    tg = toeplitz_matrix(g, n)
    lhs = tf @ tg - tg @ tf
    hf = hankel_matrix(f, n)
    hg = hankel_matrix(g, n)
    hgbar = hankel_matrix(g.conjugate(), n)
    hfbar = hankel_matrix(f.conjugate(), n)
    rhs = hgbar.conj().T @ hf - hfbar.conj().T @ hg
    return float(np.abs((lhs - rhs)[:window, :window]).max())


def winding_grid(f: Symbol, xs, ys, points: int = CURVE_POINTS) -> np.ndarray:
    """Winding numbers of the curve of f on the ascending axes xs, ys, shape
    (len(ys), len(xs)), as the transpose of a C-contiguous (x, y) array.

    One pass of signed crossing counts over the closed polyline's segments:
    a segment crosses row y0 when min(y1, y2) <= y0 < max(y1, y2), and counts
    +1 upward, -1 downward, at every grid point strictly left of the crossing.
    """
    xs, ys = (np.asarray(a, dtype=float) for a in (xs, ys))
    if any(a.ndim != 1 or not np.isfinite(a).all() or (np.diff(a) < 0).any() for a in (xs, ys)):
        raise ValueError("grid axes xs and ys must be finite 1-d arrays sorted ascending")
    curve = f.curve(points)
    x1, y1 = curve.real, curve.imag
    x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
    lo, hi = np.searchsorted(ys, [np.minimum(y1, y2), np.maximum(y1, y2)])
    n = hi - lo                       # the rows lo, ..., hi - 1 each segment crosses
    seg = np.repeat(np.arange(curve.size), n)
    rows = (lo - np.cumsum(n) + n)[seg] + np.arange(seg.size)
    t = (ys[rows] - y1[seg]) / (y2[seg] - y1[seg])
    xc = x1[seg] + t * (x2[seg] - x1[seg])
    sign = np.where(y2[seg] > y1[seg], 1, -1)
    # +sign at column 0 and -sign at the first column with x >= xc, summed
    # along x row by row (contiguous adds; np.cumsum(axis=0) reads with a stride)
    counts = np.zeros((xs.size + 1, ys.size), dtype=np.int64)
    np.add.at(counts, (0, rows), sign)
    np.add.at(counts, (np.searchsorted(xs, xc, side="left"), rows), -sign)
    for j in range(1, xs.size):
        counts[j] += counts[j - 1]
    return counts[:-1].T


@dataclass(frozen=True)
class PrincipalFunction:
    """Integer-valued function on the plane attached to the pair
    (T_{Re f}, T_{Im f}) of a symbol f: the winding number of the symbol
    curve, computed per grid.  Values vanish on the unbounded component; on
    each complement component of the curve the value is minus the Fredholm
    index of T - lambda.
    """

    symbol: Symbol

    def on_grid(self, xs, ys) -> np.ndarray:
        """Values g(x, y), shape (len(ys), len(xs)): the transpose of a
        C-contiguous (x, y) array, so .T is in eval_grid's layout without a
        copy."""
        return winding_grid(self.symbol, xs, ys)

    def bounding_box(self) -> tuple[float, float, float, float]:
        """(xmin, xmax, ymin, ymax) covering the support of g."""
        curve = self.symbol.curve()
        pad = 1e-6 + 1e-3 * (np.abs(curve).max() + 1.0)
        return (float(curve.real.min() - pad), float(curve.real.max() + pad),
                float(curve.imag.min() - pad), float(curve.imag.max() + pad))


def principal_function(f: Symbol) -> PrincipalFunction:
    """Principal function of the pair (T_{Re f}, T_{Im f}): winding of f - lambda."""
    return PrincipalFunction(symbol=f)
