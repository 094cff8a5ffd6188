"""Dense complex Hermitian eigensystems and Schatten norms.

Everything downstream (operator integrals, functional calculus, trace
experiments) is built on the decompositions produced here.  All inputs are
dense complex matrices at desk scale; there is no sparse or iterative path.
A centrohermitian matrix, such as a Hermitian Toeplitz model matrix, is
decomposed through a real symmetric one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
    """Eigensystem of a Hermitian matrix: ascending eigenvalues, and the
    eigenvectors as the columns of a unitary matrix U.  On the centrohermitian
    path (centro true) vectors holds the real V of U = Q V, and U is lifted on
    first read; otherwise vectors is U."""

    eigenvalues: np.ndarray
    vectors: np.ndarray
    centro: bool = False

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    @cached_property
    def eigenvectors(self) -> np.ndarray:
        return _centro_lift(self.vectors) if self.centro else self.vectors

    def matrix(self) -> np.ndarray:
        """Reassemble U diag(lambda) U*; on the centro path Q (V diag(lambda)
        V^T) Q*, a real product and a Q-conjugation."""
        v = self.vectors
        m = (v * self.eigenvalues) @ v.conj().T
        return _centro_conjugate(m) if self.centro else m


def _mirror_halves(n: int) -> tuple[slice, slice]:
    """The indices c < n/2 and, in the same order, their mirrors n-1-c."""
    k = n // 2
    return slice(0, k), slice(n - 1, n - 1 - k, -1)


def _centro_real(a: np.ndarray) -> np.ndarray:
    """The real symmetric R = Q* A Q of a centrohermitian A (A equal, bit for
    bit, to its flip J conj(A) J), formed from index slices.  Q's column
    c < n/2 is (e_c + e_{n-1-c})/sqrt 2, its column n-1-c is
    i(e_c - e_{n-1-c})/sqrt 2, and for odd n its middle column is e_{n/2}.
    Rows c and n-1-c of A Q are conjugates bit for bit, so the rows of Q*(A Q)
    pair up into an imaginary part that is exactly zero."""
    top, bottom = _mirror_halves(a.shape[0])
    s = np.sqrt(0.5)
    aq = a.copy()  # for odd n the middle column stays
    aq[:, top] = (a[:, top] + a[:, bottom]) * s
    aq[:, bottom] = 1j * (a[:, top] - a[:, bottom]) * s
    r = aq.copy()
    r[top] = (aq[top] + aq[bottom]) * s
    r[bottom] = -1j * (aq[top] - aq[bottom]) * s
    if np.any(r.imag != 0.0):
        raise RuntimeError("centrohermitian reduction left an imaginary part")
    return r.real


def _centro_lift(v: np.ndarray) -> np.ndarray:
    """U = Q V for the Q of _centro_real and a real V, from index slices."""
    top, bottom = _mirror_halves(v.shape[0])
    s = np.sqrt(0.5)
    u = v.astype(np.complex128)  # for odd n the middle row stays
    u.real[top] = u.real[bottom] = v[top] * s
    u.imag[top] = v[bottom] * s
    u.imag[bottom] = -u.imag[top]
    return u


def _centro_conjugate(m: np.ndarray) -> np.ndarray:
    """Q M Q* for the Q of _centro_real and a real or complex M, from index
    slices.  With t the indices c < n/2 and b their mirrors, the blocks are
    (tt, bb) = ((M_tt + M_bb) +- i (M_bt - M_tb)) / 2 and
    (tb, bt) = ((M_tt - M_bb) +- i (M_bt + M_tb)) / 2; for odd n the middle
    row and column are (M_kt -+ i M_kb) / sqrt 2 and (M_tk +- i M_bk) / sqrt 2
    around M_kk."""
    n = m.shape[0]
    top, bottom = _mirror_halves(n)
    tt, tb, bt, bb = m[top, top], m[top, bottom], m[bottom, top], m[bottom, bottom]
    out = np.empty((n, n), dtype=np.complex128)
    out[top, top] = 0.5 * ((tt + bb) + 1j * (bt - tb))
    out[bottom, bottom] = 0.5 * ((tt + bb) - 1j * (bt - tb))
    out[top, bottom] = 0.5 * ((tt - bb) + 1j * (bt + tb))
    out[bottom, top] = 0.5 * ((tt - bb) - 1j * (bt + tb))
    if n % 2:
        k, s = n // 2, np.sqrt(0.5)
        out[top, k] = s * (m[top, k] + 1j * m[bottom, k])
        out[bottom, k] = s * (m[top, k] - 1j * m[bottom, k])
        out[k, top] = s * (m[k, top] - 1j * m[k, bottom])
        out[k, bottom] = s * (m[k, top] + 1j * m[k, bottom])
        out[k, k] = m[k, k]
    return out


def decompose(h) -> SpectralDecomposition:
    """Eigendecomposition by LAPACK (numpy.linalg.eigh), with the Hermitian
    check of HermitianOperator and a reconstruction-residual check against
    the complex A.  A SpectralDecomposition is passed through.  A
    centrohermitian matrix (every Hermitian Toeplitz matrix is one) is
    decomposed as the real symmetric Q* A Q of _centro_real and keeps the
    real eigenvectors V; any other goes through complex eigh."""
    if isinstance(h, SpectralDecomposition):
        return h
    if not isinstance(h, HermitianOperator):
        h = HermitianOperator(h)
    a = h.entries
    if np.array_equal(a, a[::-1, ::-1].conj()):
        dec = SpectralDecomposition(*np.linalg.eigh(_centro_real(a)), centro=True)
    else:
        dec = SpectralDecomposition(*np.linalg.eigh(a))
    norm = max(float(np.abs(dec.eigenvalues).max()), 1e-300)
    # Frobenius norm: an upper bound for the 2-norm at a fraction of an SVD
    residual = np.linalg.norm(dec.matrix() - a)
    if residual > RECONSTRUCTION_RTOL * norm:
        raise RuntimeError(
            f"eigendecomposition residual {residual:.3g} (Frobenius) exceeds "
            f"{RECONSTRUCTION_RTOL:.0e} * ||A||"
        )
    return dec


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
