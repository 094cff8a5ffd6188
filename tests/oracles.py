"""Reference implementations the tests compare the library against.

They take a different route to the same mathematical object, so they stay
independent of the library path they check.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from opintegral.besov import LPDecomposition, _band_samples, lp_decompose
from opintegral.divdiff import divided_quotient
from opintegral.functions import Function2D, UniformGrid
from opintegral.heltonhowe import TraceExperimentConfig, _corner_traces, rhs_integral
from opintegral.models import CURVE_POINTS, Symbol, principal_function
from opintegral.rng import Xorshift64Star
from opintegral.spectral import _as_complex_matrix, decompose
from opintegral.toi import HaagerupRep, eval_representation

CURVE_PROXIMITY = 1e-9
WINDING_DRIFT_TOL = 1e-6


def divided_difference(phi: Function2D, axis: int):
    """Divided difference of phi along axis 1 (x) or 2 (y), as a callable of
    (x1, x2, y) for axis 1 and (x, y1, y2) for axis 2, broadcast: the
    point-wise reference the representations are checked against.

    Arguments closer than 1e-7 times the span of the same-axis arguments of
    each call (the spectral diameter when evaluated on spectra) coincide, and
    there the quotient switches to the exact (polynomial, closed-form) or
    spectral (sampled) partial derivative.
    """
    if axis not in (1, 2):
        raise ValueError("axis must be 1 or 2")
    dphi = phi.partial(axis)

    def dd(u, v, w):
        u, v, w = np.broadcast_arrays(*(np.asarray(z, dtype=float) for z in (u, v, w)))
        z1, z2, fixed = (u, v, w) if axis == 1 else (v, w, u)

        def at(z):
            return (z, fixed) if axis == 1 else (fixed, z)

        return divided_quotient(lambda z: phi(*at(z)), lambda z: dphi(*at(z)), z1, z2)
    return dd


def band_samples(dec: LPDecomposition) -> dict:
    """{n: samples of band n} over dec's band range: the irfftn lp_decompose
    takes its sup norms from, and zeros for a band with no window."""
    shape = (dec.grid.points,) * dec.grid.dim
    bands = {n: _band_samples(halves, shape) for n, halves in dec.spectra.items()}
    dtype = np.result_type(np.float64, *bands.values())
    return {n: bands[n] if n in bands else np.zeros(shape, dtype) for n in dec.sup_norms}


def lp_reconstruction(dec: LPDecomposition) -> np.ndarray:
    """Sum of all bands of dec, ascending n (misses the mean / zero bin)."""
    bands = band_samples(dec)
    total = np.zeros_like(next(iter(bands.values())))
    for n in sorted(bands):
        total = total + bands[n]
    return total


def random_unitary(rng: Xorshift64Star, n: int) -> np.ndarray:
    """Haar-ish random unitary via QR of a complex Gaussian drawn from rng."""
    q, r = np.linalg.qr(rng.complex_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def symbol_coefficient(sym: Symbol, k: int) -> complex:
    """fhat(k) of sym, 0 outside -deg..deg."""
    if abs(k) > sym.degree:
        return 0.0
    return complex(sym.coeffs[k + sym.degree])


def symbol_product(f: Symbol, g: Symbol) -> Symbol:
    """The symbol f g: the convolution of the coefficients."""
    return Symbol(np.convolve(f.coeffs, g.coeffs))


def write_symbol(path, sym: Symbol) -> None:
    """sym as a .sym file: the "deg d" header, then one "k re im" line per index."""
    lines = [f"deg {sym.degree}"]
    for k in range(-sym.degree, sym.degree + 1):
        c = symbol_coefficient(sym, k)
        lines.append(f"{k} {float(c.real)!r} {float(c.imag)!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _transposed_double(double):
    def swapped(points):
        return np.swapaxes(np.asarray(double(points), dtype=np.complex128), 1, 2)
    return swapped


def eval_via_trace_duality(rep: HaagerupRep, a, t, b, r, c) -> np.ndarray:
    """First/second-kind integrals through their defining trace pairing.

    The integral is the operator W with trace(W Q) = trace(V X) for every Q,
    where the cycle (A, T, B, R, C, Q) is rotated so that the doubly-indexed
    slot sits in the middle, V is the Haagerup integral of the rotated
    integrand and X the operator left over: for the first kind V acts on
    (R, Q) over (B, C, A) and X = T; for the second kind V acts on (Q, T)
    over (C, A, B) and X = R.  Reconstructs W by pairing with all matrix
    units, so use at small dimensions; agreement with eval_representation is
    the definitional consistency check.
    """
    s = rep.slot
    if s == 1:
        raise ValueError("trace duality applies to first/second kind representations")
    lo, hi = (s - 1) % 3, (s + 1) % 3
    inner = HaagerupRep(kind="haagerup", left=rep.factors[lo],
                        double=_transposed_double(rep.double), right=rep.factors[hi])
    decs = [decompose(x) for x in (a, b, c)]
    n1, n3 = decs[0].dim, decs[2].dim
    tr = (np.asarray(t, dtype=np.complex128), np.asarray(r, dtype=np.complex128))
    w = np.zeros((n1, n3), dtype=np.complex128)
    for p in range(n1):
        for q in range(n3):
            qmat = np.zeros((n3, n1), dtype=np.complex128)
            qmat[q, p] = 1.0
            ops = (*tr, qmat)
            v = eval_representation(inner, decs[lo], ops[lo], decs[s], ops[s], decs[hi])
            w[p, q] = np.trace(v @ ops[hi])
    return w


def dense_q(n):
    """The unitary Q of spectral._centro_real as a dense matrix (docs/decisions.md,
    "Centrohermitian matrices through real arithmetic")."""
    q = np.zeros((n, n), dtype=np.complex128)
    for c in range(n // 2):
        q[[c, n - 1 - c], c] = np.sqrt(0.5)
        q[[c, n - 1 - c], n - 1 - c] = np.sqrt(0.5) * np.array([1j, -1j])
    if n % 2:
        q[n // 2, n // 2] = 1.0
    return q


def winding_grid_rows(f, xs, ys, points):
    """Winding numbers of the curve of f on the grid xs x ys, shape
    (len(ys), len(xs)), by one ray-crossing count per row.

    For each row y0 the polyline segments with min(y1, y2) <= y0 < max(y1, y2)
    are cut at their crossing abscissae, sorted, and each grid point takes the
    signed count of the crossings strictly to its right.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    curve = f.curve(points)
    cx, cy = curve.real, curve.imag
    nx, ny2 = cx, np.roll(cx, -1)
    y1, y2 = cy, np.roll(cy, -1)
    out = np.zeros((ys.size, xs.size), dtype=np.int64)
    for r, y0 in enumerate(ys):
        up = (y1 <= y0) & (y2 > y0)
        dn = (y2 <= y0) & (y1 > y0)
        hit = up | dn
        if not hit.any():
            continue
        t = (y0 - y1[hit]) / (y2[hit] - y1[hit])
        xc = nx[hit] + t * (ny2[hit] - nx[hit])
        sign = np.where(up[hit], 1, -1)
        order = np.argsort(xc)
        xc = xc[order]
        sign = sign[order]
        cum = np.concatenate([np.cumsum(sign[::-1])[::-1], [0]])
        idx = np.searchsorted(xc, xs, side="right")
        out[r, :] = cum[idx]
    return out


@dataclass(frozen=True)
class DiskPrincipalFunction:
    """Closed-form principal function: value on the open disk of radius
    about center, 0 elsewhere, with the on_grid/bounding_box interface of
    models.PrincipalFunction."""

    radius: float = 1.0
    value: int = 1
    center: complex = 0.0

    def on_grid(self, xs, ys) -> np.ndarray:
        """Values g(x, y), shape (len(ys), len(xs)), as the transpose of a
        C-contiguous float (x, y) array."""
        c = complex(self.center)
        gx, gy = np.meshgrid(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float),
                             indexing="ij")
        inside = (gx - c.real) ** 2 + (gy - c.imag) ** 2 < self.radius ** 2
        return np.where(inside, self.value, np.zeros(gx.shape)).T

    def bounding_box(self) -> tuple[float, float, float, float]:
        c = complex(self.center)
        return (c.real - self.radius, c.real + self.radius,
                c.imag - self.radius, c.imag + self.radius)


def disk_principal_function(radius: float = 1.0, value: int = 1,
                            center: complex = 0.0) -> DiskPrincipalFunction:
    """The reference g of a pair whose principal function is value times the
    indicator of an open disk (the shift model: radius 1, value 1)."""
    return DiskPrincipalFunction(radius, value, center)


def winding_number(f: Symbol, lam: complex, points: int = CURVE_POINTS) -> int:
    """Winding of theta -> f(e^{i theta}) - lam around zero.

    Accumulates argument increments over a fine curve discretization; the
    rounded integer is checked against the raw sum (drift <= 1e-6) and the
    query point must keep distance > 1e-9 from the curve.
    """
    curve = f.curve(points) - lam
    dist = np.abs(curve).min()
    if dist <= CURVE_PROXIMITY:
        raise ValueError(
            f"query point {lam:.6g} lies on the symbol curve (distance {dist:.3g})")
    rolled = np.roll(curve, -1)
    increments = np.angle(rolled / curve)
    total = float(increments.sum() / (2.0 * np.pi))
    wind = int(np.rint(total))
    if abs(total - wind) > WINDING_DRIFT_TOL:
        raise ArithmeticError(
            f"winding accumulation drifted: raw {total}, rounded {wind}")
    return wind


def jacobi_eigh(a: np.ndarray, tol: float = 1e-13, max_sweeps: int = 60):
    """Cyclic Jacobi eigensolver for complex Hermitian matrices.

    Sweeps over all (p, q) pairs applying complex rotations until the
    off-diagonal Frobenius mass falls below tol * ||A||_F.  Self-contained
    cross-check for the LAPACK path; O(n^3) per sweep, intended for n
    up to a few hundred.
    """
    a = _as_complex_matrix(a).copy()
    n = a.shape[0]
    v = np.eye(n, dtype=np.complex128)
    norm_a = max(np.linalg.norm(a), 1e-300)
    for _ in range(max_sweeps):
        off = np.linalg.norm(a - np.diag(np.diag(a)))
        if off <= tol * norm_a:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-2 * tol * norm_a / n:
                    continue
                app = a[p, p].real
                aqq = a[q, q].real
                # G differs from I in rows/cols (p, q): [[c, sigma], [-conj(sigma), c]];
                # A <- G* A G zeroes the (p, q) entry of the 2x2 block.
                phase = apq / abs(apq)
                theta = 0.5 * np.arctan2(2.0 * abs(apq), aqq - app)
                c = np.cos(theta)
                sigma = np.sin(theta) * phase
                rp = a[p, :].copy()
                rq = a[q, :].copy()
                a[p, :] = c * rp - sigma * rq
                a[q, :] = np.conj(sigma) * rp + c * rq
                cp = a[:, p].copy()
                cq = a[:, q].copy()
                a[:, p] = c * cp - np.conj(sigma) * cq
                a[:, q] = sigma * cp + c * cq
                vp = v[:, p].copy()
                vq = v[:, q].copy()
                v[:, p] = c * vp - np.conj(sigma) * vq
                v[:, q] = sigma * vp + c * vq
    else:
        raise RuntimeError(f"Jacobi sweep budget exhausted ({max_sweeps} sweeps)")
    w = np.diag(a).real
    order = np.argsort(w, kind="stable")
    return w[order], v[:, order]


def lhs_corner_trace(cfg: TraceExperimentConfig) -> float:
    """Corner trace of i [phi(A_N, B_N), psi(A_N, B_N)] at cfg.corner()."""
    return _corner_traces(cfg, [(cfg.phi, cfg.psi)], [cfg.corner()])[0][0][0]


def band_additivity_check(cfg: TraceExperimentConfig, band_range=(-2, 2),
                          grid: UniformGrid | None = None):
    """Decompose phi and psi into dyadic bands and compare the band-pair sums
    of both sides with the totals (both sides are bilinear, so the band sums
    telescope, to rounding on both sides: the right side is the contour sum)."""
    m = cfg.corner()
    grid = grid or UniformGrid(dim=2, period=32.0 * np.pi, points=256)
    phi_s, psi_s = cfg.phi.sample(grid), cfg.psi.sample(grid)
    dec_phi, dec_psi = (lp_decompose(f.data, grid, band_range) for f in (phi_s, psi_s))
    g = principal_function(cfg.symbol)

    # means are stripped by the band decomposition; add them back as a band
    bands_phi, bands_psi = ([*(Function2D.sampled(v, grid) for v in band_samples(dec).values()),
                             Function2D.polynomial([[complex(np.mean(f.data))]])]
                            for dec, f in ((dec_phi, phi_s), (dec_psi, psi_s)))
    band_pairs = [(bp, bq) for bp in bands_phi for bq in bands_psi]
    [[(lhs_total, _)]] = _corner_traces(cfg, [(phi_s, psi_s)], [m])
    rhs_total = rhs_integral(phi_s, psi_s, g)

    # band pairs are informational: table corners, with no residue cap
    lhs_bands = rhs_bands = 0.0
    for (bp, bq), [(trace, _)] in zip(band_pairs, _corner_traces(cfg, band_pairs, [], [m])):
        lhs_bands += trace
        rhs_bands += rhs_integral(bp, bq, g)
    return {"lhs_total": lhs_total, "lhs_band_sum": lhs_bands,
            "rhs_total": rhs_total, "rhs_band_sum": rhs_bands,
            "lhs_gap": abs(lhs_total - lhs_bands),
            "rhs_gap": abs(rhs_total - rhs_bands),
            "uncovered_phi": dec_phi.uncovered_mass,
            "uncovered_psi": dec_psi.uncovered_mass}
