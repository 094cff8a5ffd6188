"""Divided differences of two-variable functions and their structured
representations.

For phi differentiable in x, the first divided difference is

    (x1, x2, y) -> (phi(x1, y) - phi(x2, y)) / (x1 - x2),

with the partial derivative where the arguments coincide to 1e-7 times
their span (divided_quotient, the one quotient).  Two constructive routes turn
it into a representation a triple operator integral can consume:

* band-limited phi (spectrum in a ball of radius sigma): sample on the
  lattice j pi / sigma against shifted sinc factors; the doubly-indexed
  factor is the lattice sample matrix of divided differences, and the
  identity sum_j sinc^2(x - j pi) = 1 keeps the sinc column norms at 1.
* polynomial phi: an exact finite decomposition obtained by telescoping
  x1^j - x2^j, with no truncation tail at all.

A function with finite dyadic-band norm is handled band by band: each
Littlewood-Paley piece is band-limited with sigma_n = 2^(n+1), so the band
representations sum to a representation of the whole divided difference.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .besov import DEFAULT_GRID_2D, bandlimit_check, default_band_range, lp_decompose
from .functions import Function2D, UniformGrid
from .toi import SLOTS, HaagerupRep, _double_norm, _LazyFloat, rep_norm_certificate

#: bands whose sup norm is below this fraction of the largest band's are
#: dropped from a band representation as numerically zero
BAND_DROP_RTOL = 1e-12


def divided_quotient(f, df, z1, z2) -> np.ndarray:
    """(f(z1) - f(z2)) / (z1 - z2), broadcast, with df at the midpoint (called
    only then) where |z1 - z2| <= 1e-7 times the span of z1, z2."""
    span = max(np.max(z1), np.max(z2)) - min(np.min(z1), np.min(z2))
    tol = 1e-7 * max(float(span), 1e-300)
    diff = z1 - z2
    near = np.abs(diff) <= tol
    safe = np.where(near, 1.0, diff)
    vals = (f(z1) - f(z2)) / safe
    if near.any():
        vals = np.where(near, df(0.5 * (z1 + z2)), vals)
    return vals


@dataclass(frozen=True)
class DividedDifference:
    """Callable divided difference with a diagonal (derivative) convention:
    arguments closer than 1e-7 times the span of the same-axis arguments of
    each call (the spectral diameter when evaluated on spectra) coincide.
    """

    source: Function2D
    axis: int
    _partial: Function2D = field(repr=False, default=None)

    def __call__(self, u, v, w):
        """axis 1: arguments (x1, x2, y); axis 2: arguments (x, y1, y2)."""
        u, v, w = np.broadcast_arrays(*(np.asarray(z, dtype=float) for z in (u, v, w)))
        z1, z2, fixed = (u, v, w) if self.axis == 1 else (v, w, u)

        def at(z):
            return (z, fixed) if self.axis == 1 else (fixed, z)

        return divided_quotient(lambda z: self.source(*at(z)),
                                lambda z: self._partial(*at(z)), z1, z2)


def divided_difference(phi: Function2D, axis: int) -> DividedDifference:
    """Divided difference of phi along axis 1 (x) or 2 (y).

    Below the coincidence tolerance (1e-7 times the argument span) the
    quotient switches to the exact (polynomial, closed-form) or
    spectral (sampled) partial derivative.
    """
    if axis not in (1, 2):
        raise ValueError("axis must be 1 or 2")
    return DividedDifference(source=phi, axis=axis, _partial=phi.partial(axis))


# ---------------------------------------------------------------------------
# sinc-lattice representations for band-limited functions


def sinc_partition_deficit(x, j_max: int) -> np.ndarray:
    """1 - sum_{|j| <= J} sinc^2(x/pi - j); decays like 1/J."""
    x = np.asarray(x, dtype=float)
    js = np.arange(-j_max, j_max + 1)
    s = np.sinc(x[..., None] / np.pi - js)
    return 1.0 - (s * s).sum(axis=-1)


@dataclass(frozen=True)
class SincRep:
    """Sinc-sampling representation of a divided difference.

    The lattice is j pi / sigma, |j| <= J.  rep is first_kind for axis 1
    (doubly-indexed lattice samples as functions of y) and second_kind for
    axis 2; all its families are float64 for a real band.  delta_norm is the
    measured sup (over probe points) operator norm of the lattice sample
    matrix, symmetric for a real band (see _double_norm); tail_bound, also
    rep.tail_bound, is the recorded truncation bound, valid for evaluation
    points within domain_radius.  Both are computed on first read and cached.
    """

    sigma: float
    j_max: int
    axis: int
    lattice: np.ndarray
    rep: HaagerupRep
    domain_radius: float
    delta_norm: float = _LazyFloat()
    tail_bound: float = _LazyFloat()


def _lattice_double(phi: Function2D, axis: int, lattice: np.ndarray):
    """points -> (npts, J, J) lattice divided differences of phi at the points.

    A sampled phi's lattice evaluator is built here, once per representation.
    """
    if phi.kind == "sampled":
        values = phi.lattice_evaluator(axis, lattice)
    else:
        dphi = phi.partial(axis)

        def values(points):
            if axis == 1:
                return phi.eval_grid(lattice, points), dphi.eval_grid(lattice, points)
            return phi.eval_grid(points, lattice).T, dphi.eval_grid(points, lattice).T

    step = lattice[1] - lattice[0] if lattice.size > 1 else 1.0
    diff = lattice[:, None] - lattice[None, :]
    safe = np.where(np.abs(diff) < 0.5 * step, 1.0, diff)
    idx = np.arange(lattice.size)

    def double(points):
        vals, dvals = values(np.asarray(points, dtype=float))   # (J, npts) each
        v = vals.T
        out = v[:, :, None] - v[:, None, :]
        out /= safe                    # in place: no second (npts, J, J) tensor
        out[:, idx, idx] = dvals.T
        return out
    return double


def sinc_representation(phi: Function2D, axis: int, sigma: float, j_max: int = 256,
                        domain_radius: float | None = None,
                        skip_bandlimit_check: bool = False) -> SincRep:
    """Sinc-sampling representation of the divided difference of phi.

    phi must be band-limited to |xi| <= sigma (checked on its own grid when
    sampled, else on DEFAULT_GRID_2D, unless skip_bandlimit_check).  The
    recorded tail_bound combines the measured sample-matrix norm with the
    sinc l^2 tail outside |j| <= J, so evaluations inside domain_radius
    agree with the divided difference to within it.
    """
    if axis not in (1, 2):
        raise ValueError("axis must be 1 or 2")
    if not (np.isfinite(sigma) and sigma > 0):
        raise ValueError(f"band radius must be positive and finite, got {sigma!r}")
    _check_lattice_args(j_max, domain_radius)
    if not skip_bandlimit_check:
        if phi.kind == "sampled":
            samples, grid = phi.data, phi.grid
        else:
            grid = DEFAULT_GRID_2D
            samples = phi.sample(grid).data
        ok, leakage = bandlimit_check(samples, grid, sigma)
        if not ok:
            raise ValueError(
                f"function is not band-limited to {sigma:g}: relative spectral "
                f"leakage {leakage:.3g}")
    js = np.arange(-j_max, j_max + 1)
    lattice = np.pi / sigma * js
    if domain_radius is None:
        domain_radius = 0.5 * lattice[-1]

    def sincs(x):
        return np.sinc(sigma * np.asarray(x, dtype=float) / np.pi - js[:, None])

    double = _lattice_double(phi, axis, lattice)

    # measured operator norm of the sample matrix at probe points (on first read)
    probes = np.linspace(-domain_radius, domain_radius, 5)
    delta_norm = functools.cache(lambda: _double_norm(double, probes))
    slack = max(j_max - sigma * domain_radius / np.pi - 1.0, 0.5)
    tail = functools.cache(
        lambda: 3.0 * max(delta_norm(), 1e-300) * np.sqrt(2.0) / (np.pi * np.sqrt(slack)))

    rep = _axis_rep(axis, sincs, js.size, double, tail_bound=tail)
    return SincRep(sigma=sigma, j_max=j_max, axis=axis, lattice=lattice, rep=rep,
                   domain_radius=float(domain_radius), delta_norm=delta_norm,
                   tail_bound=tail)


def _check_lattice_args(j_max, domain_radius) -> None:
    if not isinstance(j_max, (int, np.integer)) or j_max < 0:
        raise ValueError(f"j_max must be a non-negative integer, got {j_max!r}")
    if domain_radius is not None and not (np.isfinite(domain_radius) and domain_radius >= 0):
        raise ValueError(f"domain radius must be finite and non-negative, got {domain_radius!r}")


def _axis_rep(axis: int, family, size: int, double, tail_bound=0.0) -> HaagerupRep:
    """Representation of an axis divided difference from its single-index
    family of size factors (in both differenced variables) and its doubly-
    indexed family (in the other variable): axis 1 first, axis 2 second kind."""
    kind = "first_kind" if axis == 1 else "second_kind"
    families = [None if i == SLOTS[kind] else family for i in range(3)]
    return HaagerupRep(kind, *families, double=double, shape=(size, size),
                       tail_bound=tail_bound)


# ---------------------------------------------------------------------------
# exact representations for polynomials


def polynomial_dd_rep(phi: Function2D, axis: int) -> HaagerupRep:
    """Exact kind-structured representation of a polynomial divided difference.

    Telescoping x1^j - x2^j = (x1 - x2) sum_l x1^l x2^(j-1-l) gives, for
    axis 1, a first_kind representation with alpha_l = x1^l, beta_m = x2^m
    and gamma_{lm}(y) = sum_k a_{l+m+1,k} y^k; axis 2 the symmetric
    second_kind one.
    """
    if phi.kind != "polynomial":
        raise ValueError("exact path expects a polynomial")
    # row l + m of table: coefficients of the fixed variable at power l + m + 1
    # of the differenced one
    table = (phi.data if axis == 1 else phi.data.T)[1:]
    n_idx = max(len(table), 1)

    def double(points):
        pts = np.asarray(points, dtype=float)
        out = np.zeros((pts.size, n_idx, n_idx), dtype=np.complex128)
        for l in range(n_idx):
            for m in range(n_idx - l):
                if l + m < len(table) and np.any(table[l + m]):
                    out[:, l, m] = np.polynomial.polynomial.polyval(pts, table[l + m])
        return out

    def powers(x):
        return np.array([np.asarray(x, dtype=np.complex128) ** p for p in range(n_idx)])

    return _axis_rep(axis, powers, n_idx, double)


# ---------------------------------------------------------------------------
# dyadic-band assembly


@dataclass(frozen=True)
class BandRepList:
    """Per-band sinc representations of a divided difference.

    items maps band index n to its SincRep (band radius 2^(n+1)); the
    aggregate certificate is the sum of per-band certificates, reported next
    to band_norm, the dyadic-band norm sum_n 2^n sup|f_n| of the source over
    the band range of its decomposition on grid.
    """

    axis: int
    items: dict
    grid: UniformGrid
    uncovered_mass: float
    band_range: tuple[int, int]
    band_norm: float

    def aggregate_certificate(self, s1, s2, s3) -> float:
        total = 0.0
        for n in sorted(self.items):
            total += rep_norm_certificate(self.items[n].rep, s1, s2, s3).value
        return total


def besov_representation(phi: Function2D, axis: int,
                         band_range: tuple[int, int] | None = None,
                         j_max: int = 256, grid: UniformGrid | None = None,
                         domain_radius: float | None = None) -> BandRepList:
    """Split phi into dyadic bands and represent each band by sinc sampling.

    Polynomials have zero band content (their dyadic norm vanishes modulo
    polynomials) and return an empty list; use the exact polynomial path
    instead.  Bands whose sup norm falls below BAND_DROP_RTOL relative to
    the largest band are dropped as numerically zero.
    """
    return band_representations(phi, (axis,), band_range=band_range, j_max=j_max,
                                grid=grid, domain_radius=domain_radius)[axis]


def band_representations(phi: Function2D, axes=(1, 2),
                         band_range: tuple[int, int] | None = None,
                         j_max: int = 256, grid: UniformGrid | None = None,
                         domain_radius: float | None = None) -> dict:
    """{axis: besov_representation(phi, axis, ...)} for each axis in axes.

    One LP decomposition of phi serves every axis, and the axes share the
    band functions, so each band's spectrum is computed once.
    """
    if any(axis not in (1, 2) for axis in axes):
        raise ValueError("axis must be 1 or 2")
    _check_lattice_args(j_max, domain_radius)
    if phi.kind == "polynomial":
        grid = grid or DEFAULT_GRID_2D
        return {axis: BandRepList(axis=axis, items={}, grid=grid, uncovered_mass=0.0,
                                  band_range=band_range or default_band_range(grid),
                                  band_norm=0.0) for axis in axes}
    grid = grid or (phi.grid if phi.kind == "sampled" else DEFAULT_GRID_2D)
    # uncovered spectral mass is carried on the result instead of warning
    dec = lp_decompose(phi.sample(grid).data, grid, band_range, warn=False)
    peak = max(dec.sup_norms.values(), default=0.0)
    bands = {n: Function2D.from_spectrum(np.fft.fft2(dec.bands[n]), grid,
                                         real=np.isrealobj(dec.bands[n]))
             for n in sorted(dec.bands)
             if dec.sup_norms[n] > BAND_DROP_RTOL * max(peak, 1e-300)}
    fields = {"grid": grid, "uncovered_mass": dec.uncovered_mass,
              "band_range": dec.band_range, "band_norm": dec.besov_norm().value}
    del dec  # the band samples are not needed past this point
    return {axis: BandRepList(axis=axis, items={
        n: sinc_representation(band_fn, axis, sigma=2.0 ** (n + 1), j_max=j_max,
                               domain_radius=domain_radius, skip_bandlimit_check=True)
        for n, band_fn in bands.items()}, **fields) for axis in axes}
