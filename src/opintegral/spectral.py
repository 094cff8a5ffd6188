"""Dense complex Hermitian eigensystems, spectral projections, Schatten norms.

Everything downstream (operator integrals, functional calculus, trace
experiments) is built on the decompositions produced here.  All inputs are
dense complex matrices at desk scale; there is no sparse or iterative path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

HERMITIAN_RTOL = 1e-12
RECONSTRUCTION_RTOL = 1e-10


def _as_complex_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class HermitianOperator:
    """A self-adjoint matrix; rejects inputs that are not Hermitian.

    Empty matrices and matrices with a NaN or infinite entry are rejected.
    The Hermitian check is relative: |H[i,j] - conj(H[j,i])| must not exceed
    HERMITIAN_RTOL times the largest entry magnitude.
    """

    entries: np.ndarray

    def __post_init__(self):
        a = _as_complex_matrix(self.entries)
        if a.size == 0:
            raise ValueError("matrix is empty (0 x 0)")
        bad = np.argwhere(~np.isfinite(a))
        if bad.size:
            i, j = bad[0]
            raise ValueError(f"matrix has a non-finite entry ({i},{j})={a[i, j]}")
        scale = max(float(np.abs(a).max()), 1e-300)
        dev = np.abs(a - a.conj().T)
        i, j = np.unravel_index(int(np.argmax(dev)), dev.shape)
        if dev[i, j] > HERMITIAN_RTOL * scale:
            raise ValueError(
                f"matrix is not Hermitian: entries ({i},{j})={a[i, j]:.6g} and "
                f"({j},{i})={a[j, i]:.6g} differ by {dev[i, j]:.3g} "
                f"(allowed {HERMITIAN_RTOL * scale:.3g})"
            )
        a = 0.5 * (a + a.conj().T)  # symmetrize roundoff away
        a.flags.writeable = False
        object.__setattr__(self, "entries", a)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigensystem of a Hermitian matrix with eigenvalues grouped in clusters.

    eigenvalues are ascending; eigenvectors are the columns of a unitary
    matrix.  Clusters partition the index range so that eigenvalues within a
    cluster differ by at most cluster_tol (greedy ascending grouping).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    cluster_tol: float
    clusters: tuple[tuple[int, ...], ...] = field(default=())

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    def matrix(self) -> np.ndarray:
        """Reassemble U diag(lambda) U*."""
        u = self.eigenvectors
        return (u * self.eigenvalues) @ u.conj().T


def _greedy_clusters(eigenvalues: np.ndarray, tol: float) -> tuple[tuple[int, ...], ...]:
    clusters = []
    current = [0]
    lo = eigenvalues[0]
    for i in range(1, len(eigenvalues)):
        if eigenvalues[i] - lo <= tol:
            current.append(i)
        else:
            clusters.append(tuple(current))
            current = [i]
            lo = eigenvalues[i]
    clusters.append(tuple(current))
    return tuple(clusters)


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


def decompose(h, cluster_tol: float | None = None, method: str = "lapack") -> SpectralDecomposition:
    """Eigendecomposition with eigenvalue clustering.

    cluster_tol defaults to 1e-8 times the operator norm; clusters are formed
    by greedy ascending grouping, so within a cluster max - min <= cluster_tol.
    method is "lapack" (default) or "jacobi" (self-contained cross-check).
    """
    if isinstance(h, SpectralDecomposition):
        return h
    if not isinstance(h, HermitianOperator):
        h = HermitianOperator(_as_complex_matrix(h))
    a = h.entries
    if method == "lapack":
        w, u = np.linalg.eigh(a)
    elif method == "jacobi":
        w, u = jacobi_eigh(a)
    else:
        raise ValueError(f"unknown eigensolver method '{method}'")
    norm = max(float(np.abs(w).max()) if w.size else 0.0, 1e-300)
    if cluster_tol is None:
        cluster_tol = 1e-8 * norm
    dec = SpectralDecomposition(
        eigenvalues=w,
        eigenvectors=u,
        cluster_tol=float(cluster_tol),
        clusters=_greedy_clusters(w, float(cluster_tol)),
    )
    # Frobenius norm: an upper bound for the 2-norm at a fraction of an SVD
    residual = np.linalg.norm(dec.matrix() - a)
    if residual > RECONSTRUCTION_RTOL * norm:
        raise RuntimeError(
            f"eigendecomposition residual {residual:.3g} (Frobenius) exceeds "
            f"{RECONSTRUCTION_RTOL:.0e} * ||A||"
        )
    return dec


def as_decomposition(x, cluster_tol: float | None = None) -> SpectralDecomposition:
    """Accept a SpectralDecomposition, HermitianOperator, or raw matrix."""
    if isinstance(x, SpectralDecomposition):
        return x
    return decompose(x, cluster_tol=cluster_tol)


def schatten_norm(m, p: float) -> float:
    """Schatten p-norm (sum of singular values to the p, to the 1/p).

    p = inf gives the operator norm, p = 2 the Frobenius norm, p = 1 the
    trace norm.  Rejects p < 1, where the expression is not a norm.
    """
    if p < 1:
        raise ValueError(f"Schatten norm requires p >= 1, got {p}")
    a = np.asarray(m, dtype=np.complex128)
    s = np.linalg.svd(a, compute_uv=False)
    if np.isinf(p):
        return float(s[0]) if s.size else 0.0
    return float(np.sum(s ** p) ** (1.0 / p))


def spectral_projection(dec: SpectralDecomposition, cluster_index: int) -> np.ndarray:
    """Orthogonal projection onto the eigenspace of one cluster."""
    if not 0 <= cluster_index < len(dec.clusters):
        raise IndexError(
            f"cluster index {cluster_index} out of range "
            f"(decomposition has {len(dec.clusters)} clusters)"
        )
    idx = list(dec.clusters[cluster_index])
    u = dec.eigenvectors[:, idx]
    return u @ u.conj().T
