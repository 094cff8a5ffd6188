import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opintegral.commutator import (almost_commuting_pair, commutator_of_functions,
                                   commutator_via_toi, commutator_with_operator,
                                   function_pair_trial_suite,
                                   one_var_inequality_suite, probe_problem1,
                                   probe_problem2, random_polynomial,
                                   theorem41_trial_suite, verify_theorem_41)
from opintegral.doi import funcalc, one_var_commutator_identity, scalar_calculus
from opintegral.functions import Function1D, Function2D, UniformGrid
from opintegral.rng import Xorshift64Star
from opintegral.spectral import schatten_norm


def test_identity_q_gives_zero(rng):
    a, b = almost_commuting_pair(rng, 8)
    phi = Function2D.polynomial([[0, 0], [0, 1]])
    out = commutator_via_toi(phi, a, b, np.eye(8))
    assert np.linalg.norm(out) <= 1e-13


def test_one_variable_reduction(rng):
    a, b = almost_commuting_pair(rng, 10)
    q = rng.complex_normal((10, 10))
    coeffs = [0.0, 1.0, 0.5, -0.2]
    phi = Function2D.polynomial(np.array(coeffs).reshape(-1, 1))
    via = commutator_via_toi(phi, a, b, q)
    f = Function1D.polynomial(coeffs)
    direct = scalar_calculus(f, a) @ q - q @ scalar_calculus(f, a)
    assert np.linalg.norm(via - direct, 2) <= 1e-12 * max(np.linalg.norm(direct, 2), 1.0)
    # cross-check against the double-operator-integral identity
    assert one_var_commutator_identity(f, a, a, q) <= 1e-11


def test_commutator_with_operator_matches_direct(rng):
    a, b = almost_commuting_pair(rng, 8)
    psi = random_polynomial(rng, 3)
    val = funcalc(psi, a, b)
    for which, op in (("A", a), ("B", b)):
        direct = op @ val - val @ op
        got = commutator_with_operator(psi, a, b, which)
        assert np.linalg.norm(got - direct, 2) <= 1e-12 * np.linalg.norm(direct, 2)
    with pytest.raises(ValueError, match="which"):
        commutator_with_operator(psi, a, b, "C")


def test_polynomial_identity_16x16(rng):
    a, b = almost_commuting_pair(rng, 16, rank=2)
    q = rng.complex_normal((16, 16))
    q /= np.linalg.norm(q, 2)
    phi = random_polynomial(rng, 4)
    via = commutator_via_toi(phi, a, b, q)
    f = funcalc(phi, a, b)
    direct = f @ q - q @ f
    scale = max(np.abs(phi(0.0, 0.0)), 1.0) + 16
    assert schatten_norm(via - direct, 1) <= 1e-10 * scale


def test_verify_theorem_41_xy(rng):
    a, b = almost_commuting_pair(rng, 8)
    q = rng.complex_normal((8, 8))
    rep = verify_theorem_41(Function2D.polynomial([[0, 0], [0, 1]]), a, b, q)
    assert rep.residual_s1 <= 1e-11 * max(rep.lhs_s1, 1.0)
    assert rep.lhs_s1 == pytest.approx(rep.rhs_s1, rel=1e-9)
    assert np.isfinite(rep.empirical_constant)
    assert "cutoff" in rep.notes


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(k=st.integers(2, 6), m=st.integers(0, 4), degree=st.integers(1, 4),
       seed=st.integers(0, 2 ** 64 - 1))
def test_identity_exact_with_repeated_eigenvalues(k, m, degree, seed):
    # A = I_k (+) a small Hermitian perturbation: the eigenvalue 1 has
    # multiplicity at least k, so divided differences meet coincident points
    rng = Xorshift64Star(seed)
    n = k + m
    a = np.eye(n, dtype=np.complex128)
    a[k:, k:] += 0.1 * rng.hermitian(m)
    b = 0.5 * rng.hermitian(n)
    q = rng.complex_normal((n, n))
    phi = random_polynomial(rng, degree)
    grid = UniformGrid(dim=2, period=32.0 * np.pi, points=64)
    rep = verify_theorem_41(phi, a, b, q, grid=grid)
    assert rep.residual_s1 <= 1e-10 * max(rep.lhs_s1, 1.0)
    f = funcalc(phi, a, b)
    assert rep.rhs_s1 == pytest.approx(schatten_norm(f @ q - q @ f, 1), rel=1e-12, abs=1e-12)


def test_commuting_everything_gives_zeros(rng):
    d = np.diag(np.arange(1.0, 7.0))
    q = np.diag(rng.normal(6))
    rep = verify_theorem_41(Function2D.polynomial([[0, 1], [1, 0.5]]), d, d, q)
    assert rep.lhs_s1 <= 1e-12
    assert rep.rhs_s1 <= 1e-12
    assert rep.residual_s1 <= 1e-12


def test_pair_functions_of_same_operator_commute(rng):
    a, b = almost_commuting_pair(rng, 10)
    ux = Function2D.polynomial(np.array([[0.0], [1.0], [0.3]]))
    vx = Function2D.polynomial(np.array([[1.0], [0.0], [1.0]]))
    k, rep = commutator_of_functions(ux, vx, a, b)
    assert schatten_norm(k, 1) <= 1e-10
    assert rep.residual_s1 <= 1e-10


def test_pair_coordinates_give_commutator(rng):
    a, b = almost_commuting_pair(rng, 10)
    x = Function2D.polynomial([[0], [1]])
    y = Function2D.polynomial([[0, 1]])
    k, _ = commutator_of_functions(x, y, a, b)
    assert np.linalg.norm(k - (a @ b - b @ a), 2) <= 1e-12


def test_pair_antisymmetry(rng):
    a, b = almost_commuting_pair(rng, 8)
    phi = random_polynomial(rng, 2)
    psi = random_polynomial(rng, 2)
    k1, _ = commutator_of_functions(phi, psi, a, b)
    k2, _ = commutator_of_functions(psi, phi, a, b)
    assert np.linalg.norm(k1 + k2, 2) <= 1e-11 * max(np.linalg.norm(k1, 2), 1.0)


def test_pair_random_polynomials_match_direct(rng):
    a, b = almost_commuting_pair(rng, 12, rank=2)
    phi = random_polynomial(rng, 3)
    psi = random_polynomial(rng, 3)
    k, rep = commutator_of_functions(phi, psi, a, b)
    f = funcalc(phi, a, b)
    g = funcalc(psi, a, b)
    assert np.linalg.norm(k - (f @ g - g @ f), 2) <= 1e-11 * max(
        np.linalg.norm(k, 2), 1.0)
    assert rep.residual_s1 <= 1e-10 * max(rep.lhs_s1, 1.0)


def test_pair_gaussian_bumps_band_path():
    # dyadic-band + sinc-lattice route; truncation error decays like 1/J,
    # measured 2.2e-7 at j_max=128 on this grid
    rng = Xorshift64Star(314)
    a, b = almost_commuting_pair(rng, 8, rank=1)
    phi = Function2D.closed_form("exp(-(x*x + y*y))")
    psi = Function2D.closed_form("exp(-((x - 0.2)**2 + (y + 0.1)**2))")
    grid = UniformGrid(dim=2, period=16 * np.pi, points=512)
    k, rep = commutator_of_functions(phi, psi, a, b, j_max=128, grid=grid)
    f = funcalc(phi, a, b)
    g = funcalc(psi, a, b)
    direct = f @ g - g @ f
    assert schatten_norm(k - direct, 1) <= 1e-6


def test_trace_of_commutator_real_functions(rng):
    a, b = almost_commuting_pair(rng, 8)
    phi = random_polynomial(rng, 2)
    psi = random_polynomial(rng, 2)
    k, _ = commutator_of_functions(phi, psi, a, b)
    # finite-dimensional traces of commutators vanish identically
    assert abs(np.trace(1j * k)) <= 1e-10 * max(np.linalg.norm(k, 2), 1.0) * 8


def test_scale_covariance_in_q(rng):
    a, b = almost_commuting_pair(rng, 8)
    q = rng.complex_normal((8, 8))
    phi = random_polynomial(rng, 3)
    r1 = verify_theorem_41(phi, a, b, q)
    r2 = verify_theorem_41(phi, a, b, 3.0 * q)
    assert r2.lhs_s1 == pytest.approx(3.0 * r1.lhs_s1, rel=1e-10)
    assert r2.bound_ingredients["comm_a_s1"] == pytest.approx(
        3.0 * r1.bound_ingredients["comm_a_s1"], rel=1e-10)


def test_probe1_commuting_zero():
    d = np.diag([1.0, 2.0, 3.0])
    x = Function2D.polynomial([[0], [1]])
    y = Function2D.polynomial([[0, 1]])
    assert probe_problem1(x, y, d, d) <= 1e-11


def test_probe1_product_functions(rng):
    a, b = almost_commuting_pair(rng, 8)
    u = Function2D.polynomial(np.array([[0.0], [1.0]]))      # u(x) = x
    v = Function2D.polynomial(np.array([[0.0, 1.0]]))        # v(y) = y
    assert probe_problem1(u, v, a, b) <= 1e-11


def test_probe2_commuting_zero():
    d = np.diag([1.0, 2.0, 3.0])
    phi = Function2D.polynomial([[0, 1], [1, 0]])
    assert probe_problem2(phi, d, d) <= 1e-11


def test_probes_finite_on_random_pairs(rng):
    a, b = almost_commuting_pair(rng, 10, rank=2)
    phi = random_polynomial(rng, 2)
    psi = random_polynomial(rng, 2)
    p1 = probe_problem1(phi, psi, a, b)
    p2 = probe_problem2(phi, a, b)
    assert np.isfinite(p1) and np.isfinite(p2)


def _gaussians():
    return (Function2D.closed_form("exp(-3*((x - 0.2)**2 + y*y))"),
            Function2D.closed_form("exp(-3*(x*x + (y - 0.2)**2))"))


def test_probe1_of_samples_is_the_product_of_their_values_on_the_spectra(rng):
    a, b = rng.hermitian(6), rng.hermitian(6)
    grid = UniformGrid(dim=2, period=16 * np.pi, points=64)
    phi, psi = (f.sample(grid) for f in _gaussians())
    la, ua = np.linalg.eigh(a)
    lb, ub = np.linalg.eigh(b)

    def op(values):       # U_A (values o U_A* U_B) U_B*
        return ua @ (values * (ua.conj().T @ ub)) @ ub.conj().T
    ph, ps = phi.eval_grid(la, lb), psi.eval_grid(la, lb)
    want = np.linalg.norm(op(ph * ps) - op(ph) @ op(ps), "nuc")
    assert probe_problem1(phi, psi, a, b) == pytest.approx(want, rel=1e-12)


def test_probe2_of_a_real_function_is_the_defect_of_its_adjoint(rng):
    a, b = almost_commuting_pair(rng, 8, rank=2)
    for phi in (random_polynomial(rng, 3), _gaussians()[0]):
        f = funcalc(phi, a, b)
        assert probe_problem2(phi, a, b) == schatten_norm(f.conj().T - f, 1)


def test_trial_suite_deterministic():
    res1 = theorem41_trial_suite(n_trials=3, seed=11)
    res2 = theorem41_trial_suite(n_trials=3, seed=11)
    c1 = [r.empirical_constant for _, r in res1]
    c2 = [r.empirical_constant for _, r in res2]
    assert c1 == c2


def test_trial_suite_residuals_tiny():
    res = theorem41_trial_suite(n_trials=5, seed=3)
    for meta, rep in res:
        assert rep.residual_s1 <= 1e-10 * max(rep.lhs_s1, 1.0), meta


def test_pair_suite_runs():
    res = function_pair_trial_suite(n_trials=3, seed=5, max_dim=8)
    assert len(res) == 3
    for _, rep in res:
        assert rep.residual_s1 <= 1e-9 * max(rep.lhs_s1, 1.0)


def test_one_var_suite_constants_bounded():
    res = one_var_inequality_suite(n_trials=5, seed=17, max_dim=16)
    assert len(res) == 5
    for row in res:
        assert np.isfinite(row["empirical_constant"])
        assert row["empirical_constant"] >= 0.0


def _small_bump_pair():
    rng = Xorshift64Star(2718)
    a, b = almost_commuting_pair(rng, 5, rank=1)
    phi = Function2D.closed_form("exp(-(x*x + y*y))")
    psi = Function2D.closed_form("exp(-((x - 0.2)**2 + (y + 0.1)**2))")
    return phi, psi, a, b, UniformGrid(dim=2, period=16 * np.pi, points=64)


def test_pair_band_path_repeats_bit_identically():
    phi, psi, a, b, grid = _small_bump_pair()
    k1, rep1 = commutator_of_functions(phi, psi, a, b, j_max=16, grid=grid)
    k2, rep2 = commutator_of_functions(phi, psi, a, b, j_max=16, grid=grid)
    assert np.array_equal(k1, k2)
    assert rep1 == rep2


def test_band_pair_builds_slice_tensors_only_for_the_certificate(monkeypatch):
    # evaluate_grid contracts a sinc representation through its Loewner form;
    # only the certificate's slice norms build (npts, J, J) slice tensors
    from opintegral import divdiff

    built = []
    slices = divdiff._LatticeDouble.__call__

    def counted(self, points):
        built.append(np.size(points))
        return slices(self, points)
    monkeypatch.setattr(divdiff._LatticeDouble, "__call__", counted)
    phi, psi, a, b, grid = _small_bump_pair()
    commutator_of_functions(phi, psi, a, b, j_max=16, grid=grid)
    assert built == []
    spectrum = np.linalg.eigvalsh(a)
    reps = divdiff.besov_representation(phi, 1, j_max=16, grid=grid, domain_radius=1.1)
    reps.aggregate_certificate(spectrum, spectrum, spectrum)
    assert reps.items and built == [spectrum.size] * len(reps.items)


def test_one_lp_decomposition_per_function(monkeypatch):
    from opintegral import besov, divdiff

    calls = []
    original = besov.lp_decompose

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(besov, "lp_decompose", counted)
    monkeypatch.setattr(divdiff, "lp_decompose", counted)
    phi, psi, a, b, grid = _small_bump_pair()
    # sampled on a grid of their own, then analysed on the explicit grid
    own = UniformGrid(dim=2, period=8 * np.pi, points=64)
    for f, g in ((phi, psi), (phi.sample(own), psi.sample(own))):
        calls.clear()
        _, rep = commutator_of_functions(f, g, a, b, j_max=16, grid=grid)
        assert len(calls) == 2
        # the norms read from the shared decompositions are besov_norm's
        assert rep.bound_ingredients["besov_phi"] == besov.besov_norm(f, grid).value
        assert rep.bound_ingredients["besov_psi"] == besov.besov_norm(g, grid).value
        calls.clear()
        verify_theorem_41(f, a, b, np.eye(5), j_max=16, grid=grid)
        assert len(calls) == 1
    # a sampled function's norm on another grid is that of its resampling there
    assert besov.besov_norm(f, grid).value == besov.besov_norm(f.sample(grid)).value
