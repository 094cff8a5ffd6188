import numpy as np
import pytest

from opintegral.spectral import HermitianOperator, as_decomposition, decompose, schatten_norm

from oracles import jacobi_eigh


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
    u = rng.unitary(7)
    v = rng.unitary(7)
    for p in (1.0, 2.0, np.inf):
        assert schatten_norm(u @ m @ v, p) == pytest.approx(schatten_norm(m, p), abs=1e-10)


def test_jacobi_matches_lapack(rng):
    for n in (5, 16, 32):
        a = rng.hermitian(n)
        w, v = jacobi_eigh(a)
        dec = decompose(a)
        assert np.abs(w - dec.eigenvalues).max() <= 1e-11 * max(np.abs(w).max(), 1.0)
        assert np.linalg.norm((v * w) @ v.conj().T - a) <= 1e-11 * np.linalg.norm(a)


def test_as_decomposition_passthrough(rng):
    a = rng.hermitian(4)
    dec = decompose(a)
    assert as_decomposition(dec) is dec
    dec2 = as_decomposition(a)
    assert np.allclose(dec2.eigenvalues, dec.eigenvalues)


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


def test_perturbed_eigenvectors_fail_reconstruction_check(rng, monkeypatch):
    a = rng.hermitian(12)
    eigh = np.linalg.eigh

    def perturbed(m):
        w, u = eigh(m)
        return w, u + 1e-8 * np.outer(np.ones(u.shape[0]), np.arange(u.shape[1]))

    decompose(a)
    monkeypatch.setattr(np.linalg, "eigh", perturbed)
    with pytest.raises(RuntimeError, match="residual"):
        decompose(a)
