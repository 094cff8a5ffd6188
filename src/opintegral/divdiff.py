"""Divided differences of two-variable functions and their structured
representations.

For phi differentiable in x, the first divided difference is

    (x1, x2, y) -> (phi(x1, y) - phi(x2, y)) / (x1 - x2),

with the partial derivative where the arguments coincide to 1e-7 times
their span (divided_quotient, the one quotient).  Two constructive routes turn
it into a representation a triple operator integral can consume:

* band-limited phi (spectrum in a ball of radius sigma): sample on the
  lattice j pi / sigma against shifted sinc factors; the doubly-indexed
  factor is the lattice sample matrix of divided differences (a Loewner
  matrix, contracted without being formed), and the identity
  sum_j sinc^2(x - j pi) = 1 keeps the sinc column norms at 1.
* polynomial phi: an exact finite decomposition obtained by telescoping
  x1^j - x2^j, with no truncation tail at all.

A function with finite dyadic-band norm is handled band by band: each
Littlewood-Paley piece is band-limited with sigma_n = 2^(n+1), so the band
representations sum to a representation of the whole divided difference.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .besov import analysis_samples, lp_decompose
from .functions import Function2D, UniformGrid
from .toi import SLOTS, HaagerupRep, _double_norm, rep_norm_certificate

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
    axis 2; all its families are float64 for a real band.  rep.evaluate_grid
    contracts the doubly-indexed family through its Loewner form
    (_LatticeDouble) and builds no slice; the slices rep.double(points) are
    built only for their norms, here and in the certificate.  delta_norm is the
    operator norm of the lattice sample matrix (symmetric for a real band; see
    _double_norm), maximised over five probe points evenly spaced on
    [-domain_radius, domain_radius].  tail_bound combines it with the sinc l^2
    tail outside |j| <= J for evaluation points within domain_radius.  It is
    an estimate, not a bound: a sup over five probes can read low (ROADMAP
    item 6).  Both are computed on first read and cached, so building or
    evaluating the representation takes no slice norm.
    """

    sigma: float
    j_max: int
    lattice: np.ndarray
    rep: HaagerupRep
    domain_radius: float

    @functools.cached_property
    def delta_norm(self) -> float:
        probes = np.linspace(-self.domain_radius, self.domain_radius, 5)
        return _double_norm(self.rep.double, probes)

    @functools.cached_property
    def tail_bound(self) -> float:
        slack = max(self.j_max - self.sigma * self.domain_radius / np.pi - 1.0, 0.5)
        return float(3.0 * max(self.delta_norm, 1e-300) * np.sqrt(2.0) / (np.pi * np.sqrt(slack)))


def _differences(lattice: np.ndarray) -> np.ndarray:
    """(J, J) differences l_j - l_k of a uniform lattice, with 1 on the
    diagonal: the denominators of its divided differences."""
    diff = lattice[:, None] - lattice[None, :]
    np.fill_diagonal(diff, 1.0)
    return diff


@functools.lru_cache(maxsize=16)
def _hilbert(lattice: bytes) -> np.ndarray:
    """H_jk = 1 / (l_j - l_k) off the diagonal and 0 on it, for the float64
    lattice with these bytes: once per lattice, read-only."""
    h = 1.0 / _differences(np.frombuffer(lattice))
    np.fill_diagonal(h, 0.0)
    h.flags.writeable = False
    return h


class _LatticeDouble:
    """The doubly-indexed family of a sinc representation: the lattice
    divided differences D_jk(s) = (g_j(s) - g_k(s)) / (l_j - l_k), with
    D_jj(s) = g_j'(s), where g_j(s) is the sampled phi at the lattice point
    l_j in the differenced axis and at s in the other.  Its lattice evaluator
    is built here, once per representation, and H once per lattice; the
    slice denominators are formed per call, J^2 beside the slices' npts J^2,
    because held per lattice they raised the band path's peak memory.

    Called on points, it returns the (npts, J, J) slices D(s), which the
    certificate reads.  D(s) is a Loewner matrix,

        D = diag(g) H - H diag(g) + diag(g'),   H = _hilbert(lattice),

    so contract forms u^T D(s) v without the slices (docs/decisions.md,
    "Sinc divided differences contract through their Loewner form").
    """

    def __init__(self, phi: Function2D, axis: int, lattice: np.ndarray):
        self.values = phi.lattice_evaluator(axis, lattice)
        self.lattice = np.asarray(lattice, dtype=float)

    def __call__(self, points) -> np.ndarray:
        vals, dvals = self.values(np.asarray(points, dtype=float))   # (J, npts) each
        v = vals.T
        out = v[:, :, None] - v[:, None, :]
        out /= _differences(self.lattice)    # in place: no second (npts, J, J) tensor
        idx = np.arange(self.lattice.size)
        out[:, idx, idx] = dvals.T
        return out

    def contract(self, u: np.ndarray, points, v: np.ndarray) -> np.ndarray:
        """(n_s, n_p, n_q) array of u[:, a]^T D(s) v[:, b] for u (J, n_p),
        v (J, n_q) and the n_s points s:

            sum_j g_j(s) [u_j (Hv)_j + (Hu)_j v_j] + sum_j g_j'(s) u_j v_j.
        """
        vals, dvals = self.values(np.asarray(points, dtype=float))   # (J, n_s) each
        h = _hilbert(self.lattice.tobytes())
        hu, hv = h @ u, h @ v
        cross = u[:, :, None] * hv[:, None, :] + hu[:, :, None] * v[:, None, :]
        diag = u[:, :, None] * v[:, None, :]
        out = vals.T @ cross.reshape(len(u), -1) + dvals.T @ diag.reshape(len(u), -1)
        return out.reshape(-1, u.shape[1], v.shape[1])


def sinc_representation(phi: Function2D, axis: int, sigma: float, j_max: int = 256,
                        domain_radius: float | None = None) -> SincRep:
    """Sinc-sampling representation of the divided difference of the sampled
    phi, band-limited to |xi| <= sigma: in practice an LP band of
    band_representations, whose window vanishes beyond sigma.  The returned
    SincRep estimates, on first read of its tail_bound, how far evaluations
    inside domain_radius stray from the divided difference.
    """
    if axis not in (1, 2):
        raise ValueError("axis must be 1 or 2")
    if not (np.isfinite(sigma) and sigma > 0):
        raise ValueError(f"band radius must be positive and finite, got {sigma!r}")
    _check_lattice_args(j_max, domain_radius)
    js = np.arange(-j_max, j_max + 1)
    lattice = np.pi / sigma * js
    if domain_radius is None:
        domain_radius = 0.5 * lattice[-1]

    def sincs(x):
        return np.sinc(sigma * np.asarray(x, dtype=float) / np.pi - js[:, None])

    rep = _axis_rep(axis, sincs, _LatticeDouble(phi, axis, lattice))
    return SincRep(sigma=sigma, j_max=j_max, lattice=lattice, rep=rep,
                   domain_radius=float(domain_radius))


def _check_lattice_args(j_max, domain_radius) -> None:
    if not isinstance(j_max, (int, np.integer)) or j_max < 0:
        raise ValueError(f"j_max must be a non-negative integer, got {j_max!r}")
    if domain_radius is not None and not (np.isfinite(domain_radius) and domain_radius >= 0):
        raise ValueError(f"domain radius must be finite and non-negative, got {domain_radius!r}")


def _axis_rep(axis: int, family, double) -> HaagerupRep:
    """Representation of an axis divided difference from its single-index
    family (in both differenced variables) and its doubly-indexed family (in
    the other variable): axis 1 first, axis 2 second kind."""
    kind = "first_kind" if axis == 1 else "second_kind"
    families = [None if i == SLOTS[kind] else family for i in range(3)]
    return HaagerupRep(kind, *families, double=double)


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
    if axis not in (1, 2):
        raise ValueError("axis must be 1 or 2")
    # row l + m of table: coefficients of the fixed variable at power l + m + 1
    # of the differenced one; entry (l, m) of the Hankel index is row l + m,
    # or the appended zero row past the last
    table = (phi.data if axis == 1 else phi.data.T)[1:]
    n_idx = max(len(table), 1)
    hankel = np.minimum(np.add.outer(np.arange(n_idx), np.arange(n_idx)), len(table))

    def double(points):
        pts = np.asarray(points, dtype=float).reshape(-1, 1)
        rows = np.polynomial.polynomial.polyval(pts, table.T, tensor=False)  # (npts, rows)
        rows = np.concatenate([rows, np.zeros((len(pts), 1), dtype=np.complex128)], axis=1)
        return np.take(rows, hankel, axis=1)

    def powers(x):
        return np.array([np.asarray(x, dtype=np.complex128) ** p for p in range(n_idx)])

    return _axis_rep(axis, powers, double)


# ---------------------------------------------------------------------------
# dyadic-band assembly


@dataclass(frozen=True)
class BandRepList:
    """Per-band sinc representations of a divided difference.

    items maps band index n to its SincRep (band radius 2^(n+1)); the
    aggregate certificate is the sum of per-band certificates, reported next
    to band_norm, the dyadic-band norm sum_n 2^n sup|f_n| of the source, and
    uncovered_mass, both from its decomposition on its analysis grid.
    """

    items: dict
    uncovered_mass: float
    band_norm: float

    def aggregate_certificate(self, s1, s2, s3) -> float:
        total = 0.0
        for n in sorted(self.items):
            total += rep_norm_certificate(self.items[n].rep, s1, s2, s3).value
        return total


def besov_representation(phi: Function2D, axis: int, j_max: int = 256,
                         grid: UniformGrid | None = None,
                         domain_radius: float | None = None) -> BandRepList:
    """Split phi into dyadic bands and represent each band by sinc sampling.

    Polynomials have zero band content (their dyadic norm vanishes modulo
    polynomials) and return an empty list; use the exact polynomial path
    instead.  Bands whose sup norm falls below BAND_DROP_RTOL relative to
    the largest band are dropped as numerically zero.
    """
    return band_representations(phi, (axis,), j_max=j_max, grid=grid,
                                domain_radius=domain_radius)[axis]


def band_representations(phi: Function2D, axes=(1, 2), j_max: int = 256,
                         grid: UniformGrid | None = None,
                         domain_radius: float | None = None) -> dict:
    """{axis: besov_representation(phi, axis, ...)} for each axis in axes.

    One LP decomposition of phi, on besov.analysis_samples's grid, serves every
    axis, and the axes share the band functions and their spectra.
    """
    if any(axis not in (1, 2) for axis in axes):
        raise ValueError("axis must be 1 or 2")
    _check_lattice_args(j_max, domain_radius)
    if phi.kind == "polynomial":
        return {axis: BandRepList(items={}, uncovered_mass=0.0, band_norm=0.0)
                for axis in axes}
    dec = lp_decompose(*analysis_samples(phi, grid))
    peak = max(dec.sup_norms.values(), default=0.0)
    bands = {n: Function2D.from_spectrum(_full_plane(dec.spectra[n], dec.grid.points),
                                         dec.grid, real=dec.real)
             for n in sorted(dec.spectra)
             if dec.sup_norms[n] > BAND_DROP_RTOL * max(peak, 1e-300)}
    fields = {"uncovered_mass": dec.uncovered_mass, "band_norm": dec.besov_norm().value}
    del dec  # the half-plane spectra are not needed past this point
    return {axis: BandRepList(items={
        n: sinc_representation(band_fn, axis, sigma=2.0 ** (n + 1), j_max=j_max,
                               domain_radius=domain_radius)
        for n, band_fn in bands.items()}, **fields) for axis in axes}


def _full_plane(halves, n: int) -> np.ndarray:
    """The fft2 spectrum, on the n x n plane, of the band whose half-plane
    spectra (LPDecomposition.spectra: columns 0 .. c-1 of the rfftn layout, of
    the real and then the imaginary part) are halves.

    A real part's spectrum is Hermitian, F[-k1, -k2] = conj F[k1, k2], so
    columns n-c+1 .. n-1 mirror columns c-1 .. 1, and the columns between are
    zero.  A self-conjugate column (0, and n/2 when kept) takes its Hermitian
    part (F[k1] + conj F[-k1]) / 2: that is what irfftn reads of it, and what
    fft2 of the band samples gives back.
    """
    neg = -np.arange(n) % n

    def hermitian(half):
        c = half.shape[-1]
        mirror = half[neg].conj()                  # mirror[k1] = conj half[-k1]
        full = np.zeros((n, n), dtype=np.complex128)
        full[:, :c] = half
        full[:, n - c + 1:] = mirror[:, c - 1:0:-1]
        own = [0, n // 2] if 2 * (c - 1) == n else [0]
        full[:, own] = 0.5 * (half[:, own] + mirror[:, own])
        return full
    re, *im = [hermitian(half) for half in halves]
    return re + 1j * im[0] if im else re
