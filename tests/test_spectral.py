import numpy as np
import pytest

from opintegral.models import Symbol, toeplitz_matrix
from opintegral.spectral import (HermitianOperator, _centro_conjugate, _centro_lift, _centro_real,
                                 decompose, schatten_norm)

from oracles import dense_q, jacobi_eigh, random_unitary, symbol_coefficient


def test_identity_eigensystem():
    dec = decompose(np.eye(2))
    assert np.allclose(dec.eigenvalues, [1.0, 1.0])


def test_pauli_x_eigenvalues():
    dec = decompose(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(dec.eigenvalues, [-1.0, 1.0])


def test_random_reconstruction(rng):
    a = rng.hermitian(8)
    dec = decompose(a)
    norm = np.linalg.norm(a, 2)
    assert np.linalg.norm(dec.matrix() - a, 2) <= 1e-10 * norm
    assert np.linalg.norm(dec.eigenvectors.conj().T @ dec.eigenvectors - np.eye(8)) <= 1e-10


def test_non_hermitian_rejected():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match=r"\(0,1\)|\(1,0\)"):
        HermitianOperator(bad)


def test_ascending_and_clusters():
    a = np.diag([3.0, 1.0, 1.0 + 5e-9, -2.0])
    dec = decompose(a)
    assert np.all(np.diff(dec.eigenvalues) >= 0)


def test_schatten_diag():
    assert schatten_norm(np.diag([1.0, -2.0]), 1) == pytest.approx(3.0)


def test_schatten_rank_one(rng):
    u = rng.complex_normal(5)
    v = rng.complex_normal(7)
    m = np.outer(u, v.conj())
    expected = np.linalg.norm(u) * np.linalg.norm(v)
    for p in (1.0, 1.5, 2.0, 3.0, np.inf):
        assert schatten_norm(m, p) == pytest.approx(expected)


def test_schatten_frobenius(rng):
    m = rng.complex_normal((8, 8))
    assert schatten_norm(m, 2) == pytest.approx(np.sqrt((np.abs(m) ** 2).sum()))


def test_schatten_rejects_small_p():
    with pytest.raises(ValueError, match="p >= 1"):
        schatten_norm(np.eye(2), 0.5)


def test_schatten_infinity_is_top_singular(rng):
    m = rng.complex_normal((6, 6))
    assert schatten_norm(m, np.inf) == pytest.approx(np.linalg.svd(m, compute_uv=False)[0])


def test_schatten_monotone_in_p(rng):
    m = rng.complex_normal((8, 8))
    ps = [1.0, 1.3, 2.0, 3.0, 7.0, np.inf]
    vals = [schatten_norm(m, p) for p in ps]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_schatten_unitary_invariance(rng):
    m = rng.complex_normal((7, 7))
    u = random_unitary(rng, 7)
    v = random_unitary(rng, 7)
    for p in (1.0, 2.0, np.inf):
        assert schatten_norm(u @ m @ v, p) == pytest.approx(schatten_norm(m, p), abs=1e-10)


def test_jacobi_matches_lapack(rng):
    for n in (5, 16, 32):
        a = rng.hermitian(n)
        w, v = jacobi_eigh(a)
        dec = decompose(a)
        assert np.abs(w - dec.eigenvalues).max() <= 1e-11 * max(np.abs(w).max(), 1.0)
        assert np.linalg.norm((v * w) @ v.conj().T - a) <= 1e-11 * np.linalg.norm(a)


def test_decompose_passes_a_decomposition_through(rng):
    a = rng.hermitian(4)
    dec = decompose(a)
    assert decompose(dec) is dec
    assert np.array_equal(decompose(HermitianOperator(a)).eigenvalues, dec.eigenvalues)


def test_empty_matrix_rejected():
    with pytest.raises(ValueError, match="empty"):
        HermitianOperator(np.zeros((0, 0)))
    with pytest.raises(ValueError, match="empty"):
        decompose(np.zeros((0, 0)))


def test_non_finite_matrix_rejected():
    for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
        m = np.eye(3, dtype=np.complex128)
        m[1, 2] = m[2, 1] = bad
        with pytest.raises(ValueError, match=r"non-finite entry \(1,2\)"):
            decompose(m)


def _record_eigh(monkeypatch, perturbation=0.0):
    """Patch numpy's eigh to record the dtype of every matrix it is given and
    to add perturbation * column index to the eigenvectors it returns."""
    eigh, dtypes = np.linalg.eigh, []

    def recorded(m):
        dtypes.append(m.dtype)
        w, u = eigh(m)
        return w, u + perturbation * np.arange(u.shape[1])

    monkeypatch.setattr(np.linalg, "eigh", recorded)
    return dtypes


def test_perturbed_eigenvectors_fail_reconstruction_check(rng, monkeypatch):
    dtypes = _record_eigh(monkeypatch, perturbation=1e-8)
    # a random Hermitian matrix takes complex eigh, a Toeplitz one real eigh
    toeplitz = toeplitz_matrix(Symbol.from_dict({2: 1.0, 1: 0.5}).real_part(), 12)
    for a in (rng.hermitian(12), toeplitz):
        with pytest.raises(RuntimeError, match="residual"):
            decompose(a)
    assert dtypes == [np.complex128, np.float64]


def _centrohermitian_cases(rng):
    """Hermitian Toeplitz matrices T_{Re f} and T_{Im f} of the shift, the
    double winding and a complex-coefficient symbol, and a centrohermitian
    matrix that is not Toeplitz, H + J conj(H) J."""
    symbols = (Symbol.from_dict({1: 1.0}), Symbol.from_dict({2: 1.0, 1: 0.5}),
               Symbol.from_dict({-1: 0.2j, 0: 0.1 + 0.4j, 1: 0.5 + 0.25j, 2: 0.3 - 0.7j}))
    for f in symbols:
        for n in (1, 2, 3, 4, 127, 128):
            for part in (f.real_part(), f.imag_part()):
                # toeplitz_matrix refuses n <= deg f; fhat(k) is 0 for |k| > deg f
                yield np.array([[symbol_coefficient(part, j - k) for k in range(n)] for j in range(n)])
    for n in (7, 8):
        h = rng.hermitian(n)
        yield h + h[::-1, ::-1].conj()


def test_centrohermitian_matrices_take_real_eigh(rng, monkeypatch):
    eigh = np.linalg.eigh
    dtypes = _record_eigh(monkeypatch)
    for a in _centrohermitian_cases(rng):
        n = a.shape[0]
        dec = decompose(a)
        assert dtypes.pop() == np.float64
        # the real path keeps V, and lifts U = Q V only when it is read
        assert dec.centro and dec.vectors.dtype == np.float64
        assert "eigenvectors" not in vars(dec)
        w_ref = eigh(HermitianOperator(a).entries)[0]
        scale = np.abs(w_ref).max()
        assert np.abs(dec.eigenvalues - w_ref).max() <= 1e-14 * scale
        u = dec.eigenvectors
        assert np.abs(u.conj().T @ u - np.eye(n)).max() <= 1e-13
        # the slices agree with the dense unitary Q: R = Q* A Q and U = Q V
        q = dense_q(n)
        assert np.abs(q.conj().T @ q - np.eye(n)).max() <= 1e-15
        r = _centro_real(HermitianOperator(a).entries)
        assert np.abs(r - q.conj().T @ a @ q).max() <= 1e-15 * n * max(scale, 1.0)
        v = eigh(r)[1]
        assert np.abs(_centro_lift(v) - q @ v).max() <= 1e-15 * n
        assert np.abs(dec.eigenvectors - q @ dec.vectors).max() <= 1e-15 * n
        assert dec.eigenvectors is dec.eigenvectors
        # matrix() is Q (V diag(w) V^T) Q*, against the dense product U diag(w) U*
        u = q @ dec.vectors
        dense = (u * dec.eigenvalues) @ u.conj().T
        assert np.abs(dec.matrix() - dense).max() <= 1e-14 * n * max(scale, 1.0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 64, 65])
def test_centro_conjugate_matches_dense_q(rng, n):
    q = dense_q(n)
    for m in (rng.complex_normal((n, n)).real, rng.complex_normal((n, n))):
        dense = q @ m @ q.conj().T
        assert np.abs(_centro_conjugate(m) - dense).max() <= 1e-15 * n * np.abs(m).max()


def test_hermitian_matrix_that_is_not_centrohermitian_takes_complex_eigh(rng, monkeypatch):
    dtypes = _record_eigh(monkeypatch)
    a = toeplitz_matrix(Symbol.from_dict({2: 1.0, 1: 0.5}).real_part(), 9)
    a[0, 0] += 1e-3  # breaks the mirror symmetry in one entry, not the Hermitian one
    for m in (a, rng.hermitian(9).real, rng.hermitian(9)):
        assert not decompose(m).centro
    assert dtypes == [np.complex128] * 3
