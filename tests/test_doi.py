import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opintegral.doi import (double_operator_integral, funcalc,
                            one_var_commutator_identity, projective_decompose_trig,
                            scalar_calculus, schur_multiplier_norm, _repair)
from opintegral.functions import Function1D, Function2D, UniformGrid
from opintegral.models import Symbol
from opintegral.rng import Xorshift64Star
from opintegral.spectral import decompose

from oracles import dense_q, symbol_coefficient


def test_doi_constant_one_returns_t(rng):
    a = rng.hermitian(6)
    b = rng.hermitian(6)
    t = rng.complex_normal((6, 6))
    out = double_operator_integral(Function2D.polynomial([[1.0]]), a, t, b)
    assert np.linalg.norm(out - t) <= 1e-12 * np.linalg.norm(t)


def test_doi_product_splits(rng):
    a = rng.hermitian(6)
    b = rng.hermitian(6)
    t = rng.complex_normal((6, 6))
    u = Function1D.closed_form("sin(x)")
    v = Function1D.polynomial([0.0, 1.0, 0.5])
    out = double_operator_integral(Function2D.product(u, v), a, t, b)
    expected = scalar_calculus(u, a) @ t @ scalar_calculus(v, b)
    assert np.linalg.norm(out - expected) <= 1e-10


def test_doi_diagonal_is_entrywise(rng):
    la = np.array([-1.0, 0.2, 2.0])
    mu = np.array([0.5, 1.5, 3.0])
    t = rng.complex_normal((3, 3))
    phi = Function2D.closed_form("x*y + cos(x)")
    out = double_operator_integral(phi, np.diag(la), t, np.diag(mu))
    # index-sum oracle
    expected = np.array([[phi(la[i], mu[j]) * t[i, j] for j in range(3)]
                         for i in range(3)])
    assert np.linalg.norm(out - expected) <= 1e-12 * np.linalg.norm(t)


def test_doi_rejects_unevaluable_point(rng):
    a = np.diag([0.0, 1.0])
    b = np.diag([0.0, 2.0])

    def bad(x, y):
        with np.errstate(divide="ignore", invalid="ignore"):
            return 1.0 / (x * y)

    with pytest.raises(ValueError, match="not evaluable"):
        double_operator_integral(bad, a, np.eye(2), b)


def test_scalar_calculus_rejects_a_non_finite_value():
    # funcalc of the same closed form refuses it; f(A) took the overflow as NaN
    f = Function1D.closed_form("exp(x*x*1000)")
    with np.errstate(over="ignore"), pytest.raises(
            ValueError, match=r"integrand not evaluable at \(-1\)"):
        scalar_calculus(f, np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_funcalc_product_property(rng):
    a = rng.hermitian(8)
    b = rng.hermitian(8)
    u = Function1D.polynomial([0.0, 0.0, 1.0])
    v = Function1D.closed_form("cos(x)")
    out = funcalc(Function2D.product(u, v), a, b)
    assert np.linalg.norm(out - scalar_calculus(u, a) @ scalar_calculus(v, b)) <= 1e-10


def test_funcalc_commuting_diagonal():
    d = np.diag([1.0, 2.0, 3.0])
    phi = Function2D.closed_form("exp(-(x - y)**2) + x*y")
    out = funcalc(phi, d, d)
    assert np.allclose(np.diag(out), [phi(v, v) for v in (1.0, 2.0, 3.0)])


def test_funcalc_polynomial_matches_matrix_powers(rng):
    a = rng.hermitian(10)
    b = rng.hermitian(10)
    coeffs = np.zeros((3, 3))
    coeffs[0, 1], coeffs[2, 0], coeffs[1, 2], coeffs[2, 2] = 1.0, -0.5, 2.0, 0.25
    phi = Function2D.polynomial(coeffs)
    out = funcalc(phi, a, b)
    # direct matrix-polynomial oracle, A-powers to the left
    expected = np.zeros_like(out)
    for j in range(3):
        for k in range(3):
            if coeffs[j, k]:
                expected += coeffs[j, k] * np.linalg.matrix_power(a, j) @ \
                    np.linalg.matrix_power(b, k)
    scale = max(np.linalg.norm(expected, 2), 1.0)
    assert np.linalg.norm(out - expected, 2) <= 1e-10 * scale


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(n=st.integers(1, 8), seed=st.integers(0, 2 ** 64 - 1),
       degrees=st.tuples(st.integers(0, 3), st.integers(0, 3)))
def test_funcalc_polynomial_keeps_a_powers_left(n, seed, degrees):
    # phi(A, B) = sum_jk a_jk A^j B^k for noncommuting Hermitian A, B, 1x1 included
    rng = Xorshift64Star(seed)
    a, b = rng.hermitian(n), rng.hermitian(n)
    coeffs = rng.normal((degrees[0] + 1) * (degrees[1] + 1)).reshape(
        degrees[0] + 1, degrees[1] + 1)
    expected = sum(coeffs[j, k] * np.linalg.matrix_power(a, j) @ np.linalg.matrix_power(b, k)
                   for j in range(degrees[0] + 1) for k in range(degrees[1] + 1))
    out = funcalc(Function2D.polynomial(coeffs), a, b)
    scale = sum(abs(coeffs[j, k]) * np.linalg.norm(a, 2) ** j * np.linalg.norm(b, 2) ** k
                for j in range(degrees[0] + 1) for k in range(degrees[1] + 1))
    assert np.linalg.norm(out - expected, 2) <= 1e-12 * max(scale, 1.0)


def _toeplitz_pair(n):
    """T_{Re f} and T_{Im f} of a degree-2 symbol with a constant term, also
    for n <= deg f (fhat(k) is 0 for |k| > deg f)."""
    f = Symbol.from_dict({-1: 0.2j, 0: 0.1 + 0.4j, 1: 0.5 + 0.25j, 2: 0.3 - 0.7j})
    return tuple(np.array([[symbol_coefficient(part, j - k) for k in range(n)] for j in range(n)])
                 for part in (f.real_part(), f.imag_part()))


def _sampled_bump():
    """A sampled Gaussian bump: its values between grid points have an
    imaginary part, so phi_hat is complex."""
    grid = UniformGrid(dim=2, period=32.0 * np.pi, points=128)
    xg, yg = np.meshgrid(grid.axis(), grid.axis(), indexing="ij")
    return Function2D.sampled(np.exp(-((xg - 0.2) ** 2 + yg ** 2)), grid)


def _dense_funcalc(phi, ua, da, ub, db):
    """U_A (phi_hat o U_A* U_B) U_B* from dense eigenvector matrices."""
    phi_hat = np.asarray(phi.eval_grid(da.eigenvalues, db.eigenvalues), dtype=np.complex128)
    return ua @ (phi_hat * (ua.conj().T @ ub)) @ ub.conj().T, phi_hat


CENTRO_PHIS = {"polynomial": Function2D.polynomial([[0.0, 1.0], [1.0, 0.5], [0.3, 0.0]]),
               "closed-form": Function2D.closed_form("exp(-((x - 0.2)**2 + y**2) * 3)"),
               "sampled": _sampled_bump()}


@pytest.mark.parametrize("kind", CENTRO_PHIS)
@pytest.mark.parametrize("n", [1, 2, 3, 64, 65])
def test_funcalc_on_centrohermitian_pairs_matches_dense_q(kind, n):
    # the real basis: Q G Q* with G = V_A (phi_hat o V_A^T V_B) V_B^T, against
    # the complex sum over U = Q V built from a dense Q
    phi = CENTRO_PHIS[kind]
    da, db = (decompose(m) for m in _toeplitz_pair(n))
    assert da.centro and db.centro
    q = dense_q(n)
    ref, phi_hat = _dense_funcalc(phi, q @ da.vectors, da, q @ db.vectors, db)
    assert phi_hat.imag.any() == (kind == "sampled")
    assert np.abs(funcalc(phi, da, db) - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("kind", CENTRO_PHIS)
def test_funcalc_on_a_mixed_pair_takes_the_complex_path(rng, kind):
    # a Toeplitz A and a random Hermitian B: U_A = Q V_A is lifted, U_B is eigh's
    phi = CENTRO_PHIS[kind]
    a, _ = _toeplitz_pair(24)
    da, db = decompose(a), decompose(rng.hermitian(24))
    assert da.centro and not db.centro
    ref, _ = _dense_funcalc(phi, dense_q(24) @ da.vectors, da, db.vectors, db)
    assert np.abs(funcalc(phi, da, db) - ref).max() <= 1e-13 * np.abs(ref).max()


def test_funcalc_rejects_operators_of_different_sizes(rng):
    with pytest.raises(ValueError, match="same size, got 3 and 4"):
        funcalc(Function2D.polynomial([[0.0, 1.0]]), rng.hermitian(3), rng.hermitian(4))


def test_funcalc_linearity(rng):
    a = rng.hermitian(6)
    b = rng.hermitian(6)
    da, db = decompose(a), decompose(b)
    phi = Function2D.closed_form("sin(x)*cos(y)")
    psi = Function2D.polynomial([[0.0, 1.0], [1.0, 0.0]])
    mix = Function2D.closed_form("2.0*sin(x)*cos(y) + 3.0*(y + x)")
    lhs = funcalc(mix, da, db)
    rhs = 2.0 * funcalc(phi, da, db) + 3.0 * funcalc(psi, da, db)
    assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(np.linalg.norm(lhs), 1.0)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(n=st.integers(1, 6), m=st.integers(1, 6), seed=st.integers(0, 2 ** 64 - 1),
       alpha=st.floats(-4.0, 4.0), beta=st.floats(-4.0, 4.0))
def test_doi_linear_in_phi_and_in_t(n, m, seed, alpha, beta):
    rng = Xorshift64Star(seed)
    a, b = rng.hermitian(n), rng.hermitian(m)
    t, s = rng.complex_normal((n, m)), rng.complex_normal((n, m))
    phi = Function2D.polynomial(rng.normal(12).reshape(3, 4))
    psi = Function2D.closed_form("sin(x)*cos(2.0*y) + exp(0.5*x*y)")

    def mix(x, y):
        return alpha * phi(x, y) + beta * psi(x, y)

    def close(lhs, parts):
        scale = sum(abs(c) * np.linalg.norm(p) for c, p in parts)
        assert np.linalg.norm(lhs - sum(c * p for c, p in parts)) <= 1e-12 * max(scale, 1.0)

    close(double_operator_integral(mix, a, t, b),
          [(alpha, double_operator_integral(phi, a, t, b)),
           (beta, double_operator_integral(psi, a, t, b))])
    close(double_operator_integral(psi, a, alpha * t + beta * s, b),
          [(alpha, double_operator_integral(psi, a, t, b)),
           (beta, double_operator_integral(psi, a, s, b))])


def test_one_var_identity_linear(rng):
    a = rng.hermitian(6)
    b = rng.hermitian(6)
    q = rng.complex_normal((6, 6))
    resid = one_var_commutator_identity(Function1D.polynomial([0.0, 1.0]), a, b, q)
    assert resid <= 1e-13 * np.linalg.norm(q, 2) * max(np.linalg.norm(a, 2), 1.0)


def test_one_var_identity_square_with_symbolic_oracle(rng):
    a = rng.hermitian(12)
    b = rng.hermitian(12)
    q = rng.complex_normal((12, 12))
    scale = np.linalg.norm(a, 2) * np.linalg.norm(q, 2)
    resid = one_var_commutator_identity(Function1D.polynomial([0.0, 0.0, 1.0]), a, b, q)
    assert resid <= 1e-10 * scale
    # the identity rearranges to A^2 Q - Q B^2 = A(AQ - QB) + (AQ - QB)B
    lhs = a @ a @ q - q @ b @ b
    rhs = a @ (a @ q - q @ b) + (a @ q - q @ b) @ b
    assert np.linalg.norm(lhs - rhs, 2) <= 1e-12 * scale


def test_one_var_identity_degree_five(rng):
    a = rng.hermitian(12)
    b = rng.hermitian(12)
    q = rng.complex_normal((12, 12))
    f = Function1D.polynomial([0.3, 1.0, -2.0, 0.5, 0.0, 1.2])
    scale = max(np.linalg.norm(a, 2), np.linalg.norm(b, 2)) ** 5 * np.linalg.norm(q, 2)
    assert one_var_commutator_identity(f, a, b, q) <= 1e-10 * scale


def test_one_var_identity_coincident_spectra(rng):
    a = rng.hermitian(6)
    q = rng.complex_normal((6, 6))
    f = Function1D.closed_form("sin(x)")
    resid = one_var_commutator_identity(f, a, a, q)
    assert resid <= 1e-10 * np.linalg.norm(q, 2)


# ---------------------------------------------------------------------------
# Schur multiplier certificates


def test_schur_all_ones_exact():
    cert = schur_multiplier_norm(np.ones((5, 7)))
    assert cert.upper == pytest.approx(1.0, abs=1e-9)
    assert cert.lower == pytest.approx(1.0, abs=1e-9)
    assert cert.witness_min_eig >= -1e-8


def test_schur_rank_one(rng):
    u = rng.complex_normal(4)
    v = rng.complex_normal(6)
    cert = schur_multiplier_norm(np.outer(u, v))
    target = np.abs(u).max() * np.abs(v).max()
    assert cert.upper == pytest.approx(target, abs=1e-6 * target)
    assert cert.lower == pytest.approx(target, abs=1e-6 * target)


def test_schur_sign_matrix():
    phi = np.array([[1.0, 1.0], [1.0, -1.0]])
    # oracle: the explicit factorization rows x1=(1,0), x2=(0,1) against
    # columns y1=(1,1), y2=(1,-1) certifies sqrt(2) from above
    p = np.array([[1.0, 0.0], [0.0, 1.0]])
    q = np.array([[1.0, 1.0], [1.0, -1.0]])
    assert np.allclose(p.conj().T @ q, phi)
    _, _, oracle_bound = _repair(phi, p, q)
    assert oracle_bound == pytest.approx(np.sqrt(2.0), abs=1e-12)
    cert = schur_multiplier_norm(phi, tol=1e-4)
    assert cert.gap <= 1e-4
    assert cert.upper == pytest.approx(np.sqrt(2.0), abs=1e-4)
    assert cert.lower == pytest.approx(np.sqrt(2.0), abs=1e-4)


def test_schur_sandwich_and_witness(rng):
    for k in range(4):
        m = rng.complex_normal((5, 5))
        for tol in (1e-3, 1e-6):
            cert = schur_multiplier_norm(m, tol=tol)
            assert cert.converged and cert.gap <= tol
            assert cert.lower <= cert.upper + 1e-9
            assert cert.witness_min_eig >= -1e-8
            # lower bound witness is a genuine contraction achieving its ratio
            z = cert.lower_witness
            ratio = np.linalg.norm(m * z, 2) / np.linalg.norm(z, 2)
            assert ratio == pytest.approx(cert.lower, rel=1e-9)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(m=st.integers(1, 6), n=st.integers(1, 6), rank=st.integers(1, 6),
       zeroed=st.sampled_from(["none", "row", "column"]),
       seed=st.integers(0, 2 ** 64 - 1))
def test_schur_certificate_properties(m, n, rank, zeroed, seed):
    # rank-deficient whenever rank < min(m, n); a row or column is zeroed
    # only when another one is left, so the matrix stays nonzero
    rng = Xorshift64Star(seed)
    r = min(rank, m, n)
    phi = rng.complex_normal((m, r)) @ rng.complex_normal((r, n))
    if zeroed == "row" and m > 1:
        phi[seed % m] = 0.0
    if zeroed == "column" and n > 1:
        phi[:, seed % n] = 0.0
    cert = schur_multiplier_norm(phi, tol=1e-6)
    assert cert.converged
    assert cert.lower <= cert.upper + 1e-9
    assert cert.upper >= np.abs(phi).max()
    assert cert.witness_min_eig >= -1e-8
    z = cert.lower_witness
    assert np.linalg.norm(phi * z, 2) / np.linalg.norm(z, 2) == pytest.approx(
        cert.lower, rel=1e-9)


def test_schur_zero_matrix():
    cert = schur_multiplier_norm(np.zeros((3, 4)))
    assert cert.upper == 0.0 and cert.lower == 0.0 and cert.converged


def test_schur_rejects_an_empty_matrix():
    for shape in ((0, 0), (0, 3), (2, 0)):
        with pytest.raises(ValueError, match=rf"matrix is empty \({shape[0]} x {shape[1]}\)"):
            schur_multiplier_norm(np.zeros(shape))


def test_schur_identity_matrix():
    cert = schur_multiplier_norm(np.eye(6), tol=1e-6)
    assert cert.lower == pytest.approx(1.0, abs=1e-9)
    assert cert.upper == pytest.approx(1.0, abs=1e-9)


def test_schur_requires_positive_tol():
    for tol in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            schur_multiplier_norm(np.eye(2), tol=tol)


def test_schur_bad_factorization_rejected(rng):
    m = rng.complex_normal((3, 3))
    with pytest.raises(ValueError, match="factorization"):
        schur_multiplier_norm(m, factorizations=[(np.eye(3), np.eye(3))])


# ---------------------------------------------------------------------------
# projective rows of trig polynomials


def _coeff_matrix(deg, entries):
    c = np.zeros((2 * deg + 1, 2 * deg + 1), dtype=np.complex128)
    for (j, k), v in entries.items():
        c[j + deg, k + deg] = v
    return c


def test_trig_rows_single_exponential():
    rows = projective_decompose_trig(_coeff_matrix(1, {(1, 1): 1.0}))
    assert rows.bound == pytest.approx(1.0, abs=1e-12)
    assert rows.bound <= 3 * rows.sup_f + 1e-9


def test_trig_rows_cos_cos():
    c = _coeff_matrix(1, {(1, 1): 0.25, (1, -1): 0.25, (-1, 1): 0.25, (-1, -1): 0.25})
    rows = projective_decompose_trig(c)
    assert rows.sup_f == pytest.approx(1.0, abs=1e-6)
    assert rows.bound <= 3.0 * rows.sup_f + 1e-9
    xs = np.array([0.3, 1.1])
    vals = rows.evaluate(xs[:, None], xs[None, :])
    assert vals[0, 1] == pytest.approx(np.cos(0.3) * np.cos(1.1), abs=1e-12)


def test_trig_rows_random_degree_four():
    rng = Xorshift64Star(33)
    deg = 4
    c = rng.complex_normal((2 * deg + 1, 2 * deg + 1))
    rows = projective_decompose_trig(c)
    assert rows.bound <= (1 + 2 * deg) * rows.sup_f * (1 + 1e-9)


def test_projective_bound_dominates_schur_upper():
    rng = Xorshift64Star(7)
    deg = 2
    c = rng.complex_normal((2 * deg + 1, 2 * deg + 1))
    rows = projective_decompose_trig(c)
    xs = np.linspace(0.0, 2 * np.pi, 8, endpoint=False)
    ys = np.linspace(0.3, 0.3 + 2 * np.pi, 8, endpoint=False)
    sampled = rows.evaluate(xs[:, None], ys[None, :])
    p, q = rows.factorization(xs, ys)
    assert np.linalg.norm(p.conj().T @ q - sampled) <= 1e-9 * np.abs(sampled).max()
    cert = schur_multiplier_norm(sampled, tol=1e-4, factorizations=[(p, q)])
    assert cert.upper <= rows.bound + 1e-9
    assert cert.converged
