"""Double operator integrals and Schur multiplier norm certificates.

In finite dimensions the double operator integral of Phi against the
spectral measures of A and B acts on T as a Hadamard (entrywise) multiplier
in the joint eigenbasis:

    U_A (Phi_hat o (U_A* T U_B)) U_B*,   Phi_hat[i, j] = Phi(lambda_i, mu_j).

The multiplier norm of a finite matrix Phi_hat equals its Haagerup tensor
norm, and by trace-class duality

    ||S_Phi|| = max over x, y >= 0 with unit 2-norm of ||D_x Phi_hat D_y||_S1

(Pisier, Similarity Problems and Completely Bounded Maps, ch. 5).  For
weights x, y with D_x Phi_hat D_y = U S V*, both sides are certified by
explicit witnesses: the contraction Z = conj(U V*) gives the lower bound
||Phi_hat o Z|| / ||Z|| >= ||S||_1, and the factorization Phi_hat = P* Q with
P = S^1/2 U* D_x^-1, Q = S^1/2 V* D_y^-1 gives a positive semidefinite block
[[X, Phi_hat], [Phi_hat*, Y]] >= 0 whose capped diagonal is the upper bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .divdiff import divided_quotient
from .functions import Function1D
from .spectral import _centro_conjugate, decompose
from .toi import _on_spectra


def double_operator_integral(phi, a, t, b) -> np.ndarray:
    """Hadamard-weighted spectral sum of phi against (E_A, E_B) applied to T."""
    da = decompose(a)
    db = decompose(b)
    t = np.asarray(t, dtype=np.complex128)
    if t.shape != (da.dim, db.dim):
        raise ValueError(f"T has shape {t.shape}, expected {(da.dim, db.dim)}")
    return _weighted_sum(phi, da, db, t)


def _weighted_sum(phi, da, db, t) -> np.ndarray:
    """U_A (phi_hat * U_A* T U_B) U_B*; t None is T = I, not multiplied out.
    U_A* T U_B stays an unnamed temporary, so numpy reuses its buffer (and
    swaps the Hadamard operands) alike in both cases: the bits agree.

    With t None and both decompositions centro, U_A* U_B = V_A^T V_B is real,
    and the sum is returned in the real basis: G = V_A (phi_hat * V_A^T V_B)
    V_B^T, with the operator Q G Q*.  G is real when phi_hat is; otherwise its
    real and imaginary parts are two real products."""
    phi_hat = np.asarray(_on_spectra(phi, da.eigenvalues, db.eigenvalues), dtype=np.complex128)
    if t is None and da.centro and db.centro:
        va, vb = da.vectors, db.vectors
        m = va.T @ vb
        g = va @ (phi_hat.real * m) @ vb.T
        if not phi_hat.imag.any():
            return g
        g = g.astype(np.complex128)
        g.imag = va @ (phi_hat.imag * m) @ vb.T
        return g
    uah, ub = da.eigenvectors.conj().T, db.eigenvectors
    return da.eigenvectors @ (phi_hat * (uah @ ub if t is None else uah @ t @ ub)) @ ub.conj().T


def _operator(m, da, db) -> np.ndarray:
    """The operator of M, a weighted sum with t None or a product of such sums
    over the same pair: Q M Q* when M is in the real basis (both
    decompositions centro), M itself otherwise."""
    return _centro_conjugate(m) if da.centro and db.centro else m


def funcalc(phi, a, b) -> np.ndarray:
    """The operator phi(A, B) = sum_ij phi(lambda_i, mu_j) P_i Q_j.

    For phi(x, y) = sum a_jk x^j y^k this reproduces sum a_jk A^j B^k (all
    A-powers to the left) even for noncommuting A and B.  A centrohermitian
    pair is summed in its real basis and conjugated by Q.
    """
    da = decompose(a)
    db = decompose(b)
    if da.dim != db.dim:
        raise ValueError(f"A and B must have the same size, got {da.dim} and {db.dim}")
    return _operator(_weighted_sum(phi, da, db, None), da, db)


def scalar_calculus(f: Function1D, a) -> np.ndarray:
    """f(A) for a one-variable function via the eigendecomposition; a
    non-finite value of f on the spectrum is refused."""
    da = decompose(a)
    vals = np.asarray(_on_spectra(f, da.eigenvalues), dtype=np.complex128)
    u = da.eigenvectors
    return (u * vals) @ u.conj().T


def one_var_commutator_identity(f: Function1D, a, b, q) -> float:
    """Residual of f(A)Q - Qf(B) = DOI(divided difference of f; A, AQ - QB, B).

    The identity is exact spectral algebra; the returned operator-norm
    residual measures only rounding error for exact function representations.
    """
    da = decompose(a)
    db = decompose(b)
    q = np.asarray(q, dtype=np.complex128)
    lhs = scalar_calculus(f, da) @ q - q @ scalar_calculus(f, db)

    def dd(x, y):
        return divided_quotient(lambda z: np.asarray(f(z), dtype=np.complex128),
                                lambda z: np.asarray(f.derivative()(z), dtype=np.complex128), x, y)

    rhs = _weighted_sum(dd, da, db, da.matrix() @ q - q @ db.matrix())
    return float(np.linalg.norm(lhs - rhs, 2))


# ---------------------------------------------------------------------------
# Schur multiplier norm certificates

#: step cap of the dual weight iteration in schur_multiplier_norm; the
#: slowest small inputs seen need about 2000 steps at tol 1e-6
#: (docs/decisions.md)
_MAX_ITERATIONS = 5000


@dataclass(frozen=True)
class SchurMultiplierCertificate:
    """Two-sided certificate for the Hadamard multiplier norm of a matrix.

    lower comes from an explicit contraction (always a valid lower bound);
    upper from a PSD block witness [[X, Phi], [Phi*, Y]] with diagonals
    <= upper (always a valid upper bound).  witness_min_eig records the
    most negative eigenvalue of the witness block (>= -1e-8 required);
    iterations counts the dual weight updates that were made.
    """

    matrix: np.ndarray
    upper: float
    lower: float
    gap: float
    witness_x: np.ndarray
    witness_y: np.ndarray
    witness_min_eig: float
    lower_witness: np.ndarray
    converged: bool
    iterations: int

    def __post_init__(self):
        if self.lower > self.upper + 1e-9:
            raise AssertionError(
                f"certificate sandwich violated: lower {self.lower} > upper {self.upper}")


def _block(phi: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The Hermitian block [[X, Phi], [Phi*, Y]]."""
    m, n = phi.shape
    block = np.zeros((m + n, m + n), dtype=np.complex128)
    block[:m, :m] = 0.5 * (x + x.conj().T)
    block[m:, m:] = 0.5 * (y + y.conj().T)
    block[:m, m:] = phi
    block[m:, :m] = phi.conj().T
    return block


def _repair(phi: np.ndarray, p: np.ndarray, q: np.ndarray):
    """Rigorous witness from Phi ~ P* Q; returns (X, Y, bound).

    The blocks P* P and Q* Q, balanced by c = sqrt(max diag Q* Q / max diag
    P* P) to c P* P and Q* Q / c, are joined by phi itself, not by P* Q, and
    shifted by -lambda_min when the block is not PSD, so the bound absorbs the
    rounding of the factors.
    """
    m, n = phi.shape
    x, y = p.conj().T @ p, q.conj().T @ q
    dx, dy = float(np.max(np.diag(x).real)), float(np.max(np.diag(y).real))
    if dx > 0 and dy > 0:
        c = np.sqrt(dy / dx)
        x, y = c * x, y / c
    block = _block(phi, x, y)
    shift = max(0.0, -float(np.linalg.eigvalsh(block)[0]))
    xr = block[:m, :m] + shift * np.eye(m)
    yr = block[m:, m:] + shift * np.eye(n)
    bound = float(max(np.max(np.diag(xr).real), np.max(np.diag(yr).real)))
    return xr, yr, bound


def schur_multiplier_norm(phi_hat, tol: float = 1e-6,
                          factorizations=()) -> SchurMultiplierCertificate:
    """Certified Hadamard multiplier norm of a finite matrix.

    Alternates on the weights of the trace-class dual: from uniform x, y,
    each step takes D_x Phi D_y = U S V* and sets x_i^2 = (U S U*)_ii / ||S||_1
    and y_j^2 = (V S V*)_jj / ||S||_1, mixed toward uniform by
    eps = min(1/2, tol / (100 max|Phi_ij|)) so that 1/x_i stays bounded.
    The lower bound is the best of the coordinate witness max|Phi_ij| and
    the contractions conj(U V*); the upper bound is the best repaired block
    witness of the factorizations Phi = P* Q, P = S^1/2 U* D_x^-1,
    Q = S^1/2 V* D_y^-1, and of any caller-supplied pairs (P, Q).  The
    iteration stops once gap = upper - lower <= tol (converged) or after a
    fixed number of steps (not converged).
    """
    phi = np.asarray(phi_hat, dtype=np.complex128)
    if phi.ndim != 2:
        raise ValueError("expected a matrix")
    if phi.size == 0:
        raise ValueError(f"matrix is empty ({phi.shape[0]} x {phi.shape[1]})")
    if not 0 < tol < np.inf:
        raise ValueError("tol must be positive and finite")
    if not np.all(np.isfinite(phi)):
        raise ValueError("matrix has non-finite entries")
    scale = float(np.abs(phi).max())
    if scale == 0.0:
        z = np.zeros_like(phi)
        return SchurMultiplierCertificate(phi, 0.0, 0.0, 0.0, z @ z.conj().T,
                                          z.conj().T @ z, 0.0, z, True, 0)

    m, n = phi.shape
    lower_z = np.zeros_like(phi)
    lower_z[np.unravel_index(int(np.argmax(np.abs(phi))), phi.shape)] = 1.0
    lower = scale
    witness = (None, None, np.inf)
    for p, q in factorizations:
        p = np.asarray(p, dtype=np.complex128)
        q = np.asarray(q, dtype=np.complex128)
        if np.linalg.norm(p.conj().T @ q - phi) > 1e-8 * max(scale, 1.0):
            raise ValueError("supplied factorization does not reproduce the matrix")
        witness = min(witness, _repair(phi, p, q), key=lambda w: w[2])

    eps = min(0.5, tol / (100.0 * scale))
    wx, wy = np.full(m, 1.0 / m), np.full(n, 1.0 / n)
    iterations = 0
    while witness[2] - lower > tol and iterations < _MAX_ITERATIONS:
        iterations += 1
        x, y = np.sqrt(wx), np.sqrt(wy)
        u, s, vh = np.linalg.svd(x[:, None] * phi * y[None, :], full_matrices=False)
        z = np.conj(u @ vh)
        ratio = float(np.linalg.norm(phi * z, 2) / np.linalg.norm(z, 2))
        if ratio > lower:
            lower, lower_z = ratio, z
        root = np.sqrt(s)[:, None]
        witness = min(witness, _repair(phi, root * u.conj().T / x, root * vh / y),
                      key=lambda w: w[2])
        nuclear = float(s.sum())
        wx = (1.0 - eps) * (np.abs(u) ** 2 @ s) / nuclear + eps / m
        wy = (1.0 - eps) * (np.abs(vh.T) ** 2 @ s) / nuclear + eps / n

    best_x, best_y, upper = witness
    min_eig = float(np.linalg.eigvalsh(_block(phi, best_x, best_y))[0])
    upper = max(upper, lower)
    gap = upper - lower
    return SchurMultiplierCertificate(
        matrix=phi, upper=upper, lower=lower, gap=gap,
        witness_x=best_x, witness_y=best_y, witness_min_eig=min_eig,
        lower_witness=lower_z, converged=bool(gap <= tol), iterations=iterations)


# ---------------------------------------------------------------------------
# projective decompositions of trigonometric polynomials


@dataclass(frozen=True)
class TrigProjectiveRows:
    """Row decomposition f(x, y) = sum_j e^{ijx} g_j(y) of a trig polynomial.

    bound is the projective norm estimate sum_j sup|g_j| (grid sup); it never
    exceeds (1 + 2N) sup|f|.
    """

    degree: int
    coeffs: np.ndarray
    row_sups: np.ndarray
    bound: float
    sup_f: float

    def evaluate(self, x, y) -> np.ndarray:
        ns = np.arange(-self.degree, self.degree + 1)
        ex = np.exp(1j * np.multiply.outer(np.asarray(x, dtype=float), ns))
        ey = np.exp(1j * np.multiply.outer(np.asarray(y, dtype=float), ns))
        return np.einsum("...j,jk,...k->...", ex, self.coeffs, ey)

    def factorization(self, xs, ys) -> tuple[np.ndarray, np.ndarray]:
        """Balanced (P, Q) with sampled matrix f(xs_i, ys_j) = P* Q."""
        ns = np.arange(-self.degree, self.degree + 1)
        sups = np.maximum(self.row_sups, 1e-300)
        ex = np.exp(1j * np.outer(ns, np.asarray(xs, dtype=float)))
        p = np.sqrt(sups)[:, None] * np.conj(ex)
        gy = self.coeffs @ np.exp(1j * np.outer(ns, np.asarray(ys, dtype=float)))
        q = gy / np.sqrt(sups)[:, None]
        return p, q


def projective_decompose_trig(coeffs) -> TrigProjectiveRows:
    """Split a 2-variable trig polynomial into one-variable rows.

    coeffs is the (2N+1) x (2N+1) matrix of Fourier coefficients f_hat(j, k),
    indices j + N, k + N.  Row j is g_j(y) = sum_k f_hat(j, k) e^{iky}; the
    projective bound sum_j sup|g_j| is certified against (1 + 2N) sup|f|.
    """
    c = np.asarray(coeffs, dtype=np.complex128)
    if c.ndim != 2 or c.shape[0] != c.shape[1] or c.shape[0] % 2 == 0:
        raise ValueError("coefficients must form a (2N+1) x (2N+1) matrix")
    deg = c.shape[0] // 2
    ys = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
    ns = np.arange(-deg, deg + 1)
    ey = np.exp(1j * np.outer(ns, ys))
    rows = c @ ey
    row_sups = np.abs(rows).max(axis=1)
    bound = float(row_sups.sum())
    xs = np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False)
    ex = np.exp(1j * np.outer(xs, ns))
    vals = ex @ c @ np.exp(1j * np.outer(ns, xs))
    sup_f = float(np.abs(vals).max())
    if bound > (1 + 2 * deg) * sup_f * (1 + 1e-9) + 1e-12:
        raise AssertionError(
            f"projective bound {bound:.6g} exceeds (1+2N) sup|f| = "
            f"{(1 + 2 * deg) * sup_f:.6g}")
    return TrigProjectiveRows(degree=deg, coeffs=c, row_sups=row_sups,
                              bound=bound, sup_f=sup_f)
