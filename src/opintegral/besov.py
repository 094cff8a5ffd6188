"""Dyadic Littlewood-Paley analysis on periodic grids and Besov norms.

The window w is a fixed C^infinity bump supported on [1/2, 2] satisfying
w(s) = 1 - w(s/2) on [1, 2], so the dilates w(|xi| / 2^n) sum to 1 for every
xi != 0.  Band n of a sampled function keeps the annulus
2^(n-1) <= |xi| <= 2^(n+1) of its discrete spectrum.  Norms computed here are
homogeneous: the zero-frequency bin is ignored, so constants (and, in exact
arithmetic, polynomials) have norm zero.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .functions import Function2D, UniformGrid

#: default analysis grids: generous period so compactly supported test
#: functions are effectively periodic, resolution limited by desk-scale FFTs
DEFAULT_GRID_1D = UniformGrid(dim=1, period=64.0 * np.pi, points=4096)
DEFAULT_GRID_2D = UniformGrid(dim=2, period=64.0 * np.pi, points=512)


def smooth_step(t):
    """C^infinity step: 0 for t <= 0, 1 for t >= 1, exp(-1/t) glue between."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    out[t >= 1.0] = 1.0
    mid = (t > 0.0) & (t < 1.0)
    tm = t[mid]
    a = np.exp(-1.0 / tm)
    b = np.exp(-1.0 / (1.0 - tm))
    out[mid] = a / (a + b)
    return out


def window_eval(s):
    """The dyadic window w: supported on [1/2, 2], w(1) = 1, w = 1 - w(./2) on [1, 2]."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    lo = (s > 0.5) & (s < 1.0)
    hi = (s >= 1.0) & (s < 2.0)
    out[lo] = smooth_step(np.log2(s[lo]) + 1.0)
    out[hi] = 1.0 - smooth_step(np.log2(s[hi]))
    return out


def plateau(r, inner: float, outer: float):
    """Smooth radial plateau: 1 for |r| <= inner, 0 for |r| >= outer."""
    r = np.abs(np.asarray(r, dtype=float))
    return smooth_step((outer - r) / (outer - inner))


@dataclass(frozen=True)
class LPDecomposition:
    """Dyadic band pieces f_n of a grid-sampled function.

    spectra maps each band n whose window has a nonzero bin to its half-plane
    spectra: rfftn of the samples (of their real, then imaginary part for
    complex samples) times w(|xi|/2^n), cut after the window's last nonzero
    column.  sup_norms holds the grid sup of every band of band_range (0 for
    a band with no window).  uncovered_mass is the relative spectral mass
    (squared modulus, zero bin excluded) falling outside the union of
    covered annuli.  real marks real samples, whose bands are float64; the
    bands of samples with a nonzero imaginary part are complex128.
    """

    grid: UniformGrid
    band_range: tuple[int, int]
    spectra: dict
    sup_norms: dict
    uncovered_mass: float
    real: bool

    @cached_property
    def bands(self) -> "_BandSamples":
        """{n: the sampled band function} over band_range."""
        return _BandSamples(self.spectra, self.sup_norms, self.grid, self.real)

    def besov_norm(self, s: float = 1.0, p: float = np.inf,
                   q: float = 1.0) -> "BesovNorm":
        """Homogeneous Besov norm ||{2^(ns) ||f_n||_p}||_{l^q} of these bands,
        for finite s and p, q in (0, inf]."""
        if not np.isfinite(s):
            raise ValueError(f"Besov smoothness s must be finite, got {s!r}")
        for name, v in (("p", p), ("q", q)):
            if not v > 0:
                raise ValueError(f"Besov exponent {name} must lie in (0, inf], got {v!r}")
        terms = {}
        for n in sorted(self.sup_norms):
            lp = self.sup_norms[n] if np.isinf(p) else _grid_lp_norm(self.bands[n], self.grid, p)
            if lp:  # an empty band contributes 0 and computes no weight
                try:
                    lp = 2.0 ** (n * s) * lp
                except OverflowError:
                    raise ValueError(f"Besov weight 2^(n s) overflows at s = {s:g} "
                                     f"on band {n}") from None
            terms[n] = lp
        vals = np.array([terms[n] for n in sorted(terms)])
        top = float(vals.max()) if vals.size else 0.0
        if np.isinf(q) or top == 0.0:
            value = top
        elif q == 1:
            value = float(np.sum(vals))
        else:
            # scaled by the largest term, so that finite terms whose q-th
            # powers overflow still give the finite norm
            value = top * float(np.sum((vals / top) ** q) ** (1.0 / q))
        return BesovNorm(s=s, p=p, q=q, value=value, band_terms=terms,
                         uncovered_mass=self.uncovered_mass)


class _BandSamples(Mapping):
    """LPDecomposition.bands: each band's samples computed from its half-plane
    spectra on first read, by the irfftn lp_decompose took its sup norm from,
    and kept; the bands with no window share one read-only zero array."""

    def __init__(self, spectra: dict, sup_norms: dict, grid: UniformGrid, real: bool):
        self._spectra, self._keys, self._kept = spectra, sup_norms.keys(), {}
        self._shape = (grid.points,) * grid.dim
        self._empty = np.zeros(self._shape, dtype=np.float64 if real else np.complex128)
        self._empty.flags.writeable = False

    def __getitem__(self, n) -> np.ndarray:
        if n not in self._keys:
            raise KeyError(n)
        if n not in self._spectra:
            return self._empty
        if n not in self._kept:
            self._kept[n] = _band_samples(self._spectra[n], self._shape)
        return self._kept[n]

    def __iter__(self):
        return iter(self._keys)

    def __len__(self) -> int:
        return len(self._keys)


def max_band(grid: UniformGrid) -> int:
    """Largest n whose annulus [2^(n-1), 2^(n+1)] the grid resolves."""
    return int(np.floor(np.log2(grid.nyquist))) - 1


def default_band_range(grid: UniformGrid) -> tuple[int, int]:
    """The band range lp_decompose uses when none is given."""
    return -10, max_band(grid)


@lru_cache(maxsize=4)
def _band_windows(grid: UniformGrid, band_range: tuple[int, int]):
    """lp_decompose's half-plane arrays, once per grid and band range, read-only:
    each band's window w(|xi|/2^n), cut after its last nonzero column (bands
    with no nonzero bin left out, unevaluated below the grid's lowest nonzero
    |xi|), each column's weight (2 for a column that also stands for its
    conjugate, else 1) and 1 - min(sum of the windows, 1)."""
    radii = grid.radial_frequencies()[..., :grid.points // 2 + 1]
    weight = np.ones(radii.shape[-1])
    weight[1:(grid.points + 1) // 2] = 2.0
    windows, covered = {}, np.zeros_like(radii)
    for n in range(band_range[0], band_range[1] + 1):
        if 2.0 ** (n + 1) <= radii.flat[1]:     # annulus below the lowest nonzero |xi|
            continue
        w = window_eval(radii / 2.0 ** n)
        if (cols := np.flatnonzero(w.reshape(-1, w.shape[-1]).any(axis=0))).size:
            covered += w
            windows[n] = w[..., :cols[-1] + 1].copy()
    leak = 1.0 - np.minimum(covered, 1.0)
    for a in (*windows.values(), weight, leak):
        a.flags.writeable = False
    return windows, weight, leak


def lp_decompose(values, grid: UniformGrid,
                 band_range: tuple[int, int] | None = None) -> LPDecomposition:
    """Littlewood-Paley band decomposition of samples on a periodic grid.

    band_range defaults to default_band_range(grid), [-10, max_band(grid)].
    Requesting a band above the grid's Nyquist limit is rejected with the
    resolution that would be needed.  Spectral mass that no covered annulus
    captures is measured and reported as uncovered_mass, never silently
    dropped.  Real samples (a real dtype, or an imaginary part exactly
    zero everywhere) take real transforms and give float64 bands.
    """
    values = np.asarray(values, dtype=np.complex128 if np.iscomplexobj(values) else np.float64)
    if band_range is None:
        band_range = default_band_range(grid)
    n_min, n_max = band_range
    if n_min > n_max:
        raise ValueError(f"empty band range {band_range}")
    if n_min < -1022:
        raise ValueError(f"band {n_min} is below band -1022, the lowest whose "
                         f"scale 2^n is a normal double")
    if 2.0 ** (n_max + 1) > grid.nyquist * (1.0 + 1e-12):
        need = int(np.ceil(2.0 ** (n_max + 1) * grid.period / np.pi))
        raise ValueError(
            f"band {n_max} needs spectrum up to {2.0 ** (n_max + 1):g} but the grid "
            f"resolves only |xi| <= {grid.nyquist:g}; need >= {need} points per axis"
        )

    # real samples take real transforms on the half plane of their Hermitian
    # spectrum; complex samples are split into real and imaginary parts
    parts = (values.real, values.imag) if values.imag.any() else (values.real,)
    windows, weight, leak = _band_windows(grid, (n_min, n_max))
    with np.errstate(over="ignore", invalid="ignore"):
        specs = [np.fft.rfftn(part) for part in parts]
        mass = sum(np.abs(spec) ** 2 for spec in specs) * weight
        total = float(mass.sum() - mass.flat[0])  # zero bin excluded (norm mod constants)
    if not np.isfinite(total):
        raise ValueError("non-finite spectral mass: the samples contain NaN or "
                         "infinite values, or are too large")

    # a band with no window gets no spectrum and no transform; the others keep
    # only their window's columns, which irfftn zero-pads
    spectra, sup_norms = {}, {}
    for n in range(n_min, n_max + 1):
        if (w := windows.get(n)) is None:
            sup_norms[n] = 0.0
            continue
        spectra[n] = tuple(spec[..., :w.shape[-1]] * w for spec in specs)
        sup_norms[n] = float(np.abs(_band_samples(spectra[n], values.shape)).max())

    leaked = float((mass * leak).sum() - mass.flat[0])
    uncovered = leaked / total if total > 0 else 0.0
    return LPDecomposition(grid=grid, band_range=(n_min, n_max), spectra=spectra,
                           sup_norms=sup_norms, uncovered_mass=uncovered,
                           real=len(parts) == 1)


def _band_samples(halves, shape) -> np.ndarray:
    """Samples of a band from its half-plane spectra (LPDecomposition.spectra):
    the irfftn of each, the second one the imaginary part."""
    re, *im = [np.fft.irfftn(h, shape, tuple(range(len(shape)))) for h in halves]
    return re + 1j * im[0] if im else re


@dataclass(frozen=True)
class BesovNorm:
    s: float
    p: float
    q: float
    value: float
    band_terms: dict
    uncovered_mass: float


def _grid_lp_norm(band: np.ndarray, grid: UniformGrid, p: float) -> float:
    """Grid l^p norm of a band for finite p, each sample weighted by its cell."""
    cell = grid.spacing ** grid.dim
    return float((np.sum(np.abs(band) ** p) * cell) ** (1.0 / p))


def analysis_samples(f: Function2D, grid: UniformGrid | None):
    """(samples, grid) of f on its analysis grid: grid if given, else a
    sampled f's own grid, else DEFAULT_GRID_2D."""
    grid = grid or (f.grid if f.kind == "sampled" else DEFAULT_GRID_2D)
    return f.sample(grid).data, grid


def besov_norm(f, grid: UniformGrid | None = None, s: float = 1.0, p: float = np.inf,
               q: float = 1.0, band_range: tuple[int, int] | None = None) -> BesovNorm:
    """Homogeneous Besov norm ||{2^(ns) ||f_n||_p}||_{l^q} over the band range.

    f may be a sample array (with its grid), a sampled or closed-form
    Function2D (sampled on its analysis grid, analysis_samples), or a
    polynomial Function2D, whose homogeneous norm is zero by definition and
    short-circuits the grid path.
    """
    if isinstance(f, Function2D):
        if f.kind == "polynomial":
            # no bands, through the one parameter check of the band sum
            return LPDecomposition(grid, band_range, {}, {}, 0.0, True).besov_norm(s, p, q)
        f, grid = analysis_samples(f, grid)
    elif grid is None:
        raise ValueError("sample arrays need an explicit grid")
    return lp_decompose(f, grid, band_range).besov_norm(s, p, q)
