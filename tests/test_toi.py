import numpy as np
import pytest

from opintegral.rng import Xorshift64Star
from opintegral.spectral import decompose, schatten_norm
from opintegral.toi import (HaagerupRep, _double_norm, eval_representation,
                            projective_to_kind, rep_norm_certificate, s1_certificate)
from oracles import eval_via_trace_duality, random_unitary


def _ones():
    return lambda x: np.ones_like(np.asarray(x, dtype=float))


def _projective(terms):
    return HaagerupRep(kind="projective", left=[t[0] for t in terms],
                       mid=[t[1] for t in terms], right=[t[2] for t in terms])


def _random_terms(rng, n_terms=3):
    terms = []
    for _ in range(n_terms):
        c = rng.normal(6)
        terms.append((
            lambda x, c0=c[0], c1=c[1]: np.sin(c0 * x) + c1,
            lambda x, c2=c[2], c3=c[3]: np.cos(c2 * x) + 0.3 * c3,
            lambda x, c4=c[4], c5=c[5]: np.exp(0.2 * c4 * x) + c5,
        ))
    return terms


def _psi_of(terms):
    return lambda x, y, z: sum(f(x) * g(y) * h(z) for f, g, h in terms)


def test_triple_sum_constant_collapses(rng):
    a, b, c = rng.hermitian(6), rng.hermitian(6), rng.hermitian(6)
    t = rng.complex_normal((6, 6))
    r = rng.complex_normal((6, 6))
    one = lambda x, y, z: np.ones(np.broadcast_shapes(x.shape, y.shape, z.shape))
    w = eval_representation(one, a, t, b, r, c)
    assert np.linalg.norm(w - t @ r) <= 1e-12 * np.linalg.norm(t @ r)


def test_triple_sum_product_factors(rng):
    a, b, c = rng.hermitian(6), rng.hermitian(6), rng.hermitian(6)
    da, db, dc = decompose(a), decompose(b), decompose(c)
    t = rng.complex_normal((6, 6))
    r = rng.complex_normal((6, 6))
    u = lambda x: np.sin(x)
    v = lambda x: x ** 2
    w_ = lambda x: np.exp(0.3 * x)
    psi = lambda x, y, z: u(x) * v(y) * w_(z)
    out = eval_representation(psi, da, t, db, r, dc)
    ua, ub, uc = da.eigenvectors, db.eigenvectors, dc.eigenvectors
    ua_f = (ua * u(da.eigenvalues)) @ ua.conj().T
    vb_f = (ub * v(db.eigenvalues)) @ ub.conj().T
    wc_f = (uc * w_(dc.eigenvalues)) @ uc.conj().T
    assert np.linalg.norm(out - ua_f @ t @ vb_f @ r @ wc_f) <= 1e-11


def test_triple_sum_diagonal_index_oracle(rng):
    la = np.array([-1.0, 0.5, 2.0])
    mu = np.array([0.0, 1.0, 3.0])
    nu = np.array([-2.0, 0.3, 0.9])
    t = rng.complex_normal((3, 3))
    r = rng.complex_normal((3, 3))
    psi = lambda x, y, z: np.sin(x + 2 * y) * np.cos(z) + x * z
    w = eval_representation(psi, np.diag(la), t, np.diag(mu), r, np.diag(nu))
    expected = np.zeros((3, 3), dtype=complex)
    for i in range(3):
        for k in range(3):
            expected[i, k] = sum(psi(la[i], mu[j], nu[k]) * t[i, j] * r[j, k]
                                 for j in range(3))
    assert np.abs(w - expected).max() <= 1e-12 * np.abs(expected).max()


def test_triple_sum_rejects_unevaluable(rng):
    a = np.diag([0.0, 1.0])

    def bad(x, y, z):
        with np.errstate(divide="ignore", invalid="ignore"):
            return 1.0 / (x + y + z)

    with pytest.raises(ValueError, match="not evaluable"):
        eval_representation(bad, a, np.eye(2), a, -2.0 * np.eye(2), a)


def test_trivial_representation(rng):
    a, b, c = rng.hermitian(5), rng.hermitian(5), rng.hermitian(5)
    t = rng.complex_normal((5, 5))
    r = rng.complex_normal((5, 5))
    rep = _projective([(_ones(), _ones(), _ones())])
    w = eval_representation(rep, a, t, b, r, c)
    assert np.linalg.norm(w - t @ r) <= 1e-12 * np.linalg.norm(t @ r)


def test_representation_independence_all_kinds():
    # distinct representations of the same integrand must agree with the
    # direct spectral sum within 1e-11 on 8x8 operators
    rng = Xorshift64Star(71)
    for trial in range(6):
        a, b, c = rng.hermitian(8), rng.hermitian(8), rng.hermitian(8)
        da, db, dc = decompose(a), decompose(b), decompose(c)
        t = rng.complex_normal((8, 8))
        r = rng.complex_normal((8, 8))
        terms = _random_terms(rng)
        rep = _projective(terms)
        direct = eval_representation(_psi_of(terms), da, t, db, r, dc)
        scale = max(np.linalg.norm(direct, 2), 1.0)
        for kind in ("haagerup", "first_kind", "second_kind"):
            repk = projective_to_kind(rep, kind, da.eigenvalues, db.eigenvalues,
                                      dc.eigenvalues)
            w = eval_representation(repk, da, t, db, r, dc)
            assert np.linalg.norm(w - direct, 2) <= 1e-11 * scale


def test_unitary_mixed_haagerup_rep(rng):
    # mix the factor index by a unitary: different factor data, same integrand
    a, b, c = rng.hermitian(8), rng.hermitian(8), rng.hermitian(8)
    da, db, dc = decompose(a), decompose(b), decompose(c)
    t = rng.complex_normal((8, 8))
    r = rng.complex_normal((8, 8))
    terms = _random_terms(rng)
    n = len(terms)
    s = random_unitary(rng, n)

    def alpha(j):
        return lambda x: sum(np.conj(s[m, j]) * terms[m][0](x) for m in range(n))

    def double(points):
        pts = np.asarray(points, dtype=float)
        out = np.zeros((pts.size, n, n), dtype=np.complex128)
        for j in range(n):
            for k in range(n):
                out[:, j, k] = s[k, j] * terms[k][1](pts)
        return out

    rep = HaagerupRep(kind="haagerup", left=[alpha(j) for j in range(n)],
                      double=double, right=[t3[2] for t3 in terms])
    direct = eval_representation(_psi_of(terms), da, t, db, r, dc)
    w = eval_representation(rep, da, t, db, r, dc)
    assert np.linalg.norm(w - direct, 2) <= 1e-11 * max(np.linalg.norm(direct, 2), 1.0)


def test_trace_duality_agreement(rng):
    a, b, c = rng.hermitian(6), rng.hermitian(6), rng.hermitian(6)
    da, db, dc = decompose(a), decompose(b), decompose(c)
    t = rng.complex_normal((6, 6))
    r = rng.complex_normal((6, 6))
    terms = _random_terms(rng)
    rep = _projective(terms)
    for kind in ("first_kind", "second_kind"):
        repk = projective_to_kind(rep, kind, da.eigenvalues, db.eigenvalues,
                                  dc.eigenvalues)
        w_direct = eval_representation(repk, da, t, db, r, dc)
        w_dual = eval_via_trace_duality(repk, da, t, db, r, dc)
        assert np.linalg.norm(w_dual - w_direct, 2) <= 1e-11 * max(
            np.linalg.norm(w_direct, 2), 1.0)


def test_bilinearity_in_t_and_r(rng):
    a, b, c = rng.hermitian(5), rng.hermitian(5), rng.hermitian(5)
    da, db, dc = decompose(a), decompose(b), decompose(c)
    terms = _random_terms(rng, 2)
    rep = _projective(terms)
    t1, t2 = rng.complex_normal((5, 5)), rng.complex_normal((5, 5))
    r = rng.complex_normal((5, 5))
    lhs = eval_representation(rep, da, 2.0 * t1 - 1j * t2, db, r, dc)
    rhs = 2.0 * eval_representation(rep, da, t1, db, r, dc) \
        - 1j * eval_representation(rep, da, t2, db, r, dc)
    assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(np.linalg.norm(lhs), 1.0)


def test_s1_certificate_trivial_first_kind(rng):
    # Psi == 1, first kind, rank-one T: ||T R||_S1 <= ||T||_S1 ||R||
    n = 6
    a, b, c = rng.hermitian(n), rng.hermitian(n), rng.hermitian(n)
    u = rng.complex_normal(n)
    v = rng.complex_normal(n)
    t = np.outer(u, v)
    r = rng.complex_normal((n, n))

    def double(points):
        pts = np.asarray(points, dtype=float)
        return np.ones((pts.size, 1, 1), dtype=np.complex128)

    rep = HaagerupRep(kind="first_kind", left=[_ones()], mid=[_ones()], double=double)
    cert = s1_certificate(rep, a, t, b, r, c)
    assert cert.satisfied
    assert cert.lhs == pytest.approx(schatten_norm(t @ r, 1), rel=1e-10)
    assert cert.bound == pytest.approx(schatten_norm(t, 1) * schatten_norm(r, np.inf),
                                       rel=1e-10)


def test_s1_certificates_hold_across_kinds_and_trials():
    rng = Xorshift64Star(99)
    violations = 0
    for trial in range(100):
        n = 4 + (trial % 3) * 2
        a, b, c = rng.hermitian(n), rng.hermitian(n), rng.hermitian(n)
        da, db, dc = decompose(a), decompose(b), decompose(c)
        t = rng.complex_normal((n, n))
        r = rng.complex_normal((n, n))
        terms = _random_terms(rng, 2)
        rep = _projective(terms)
        kind = ("haagerup", "first_kind", "second_kind")[trial % 3]
        repk = projective_to_kind(rep, kind, da.eigenvalues, db.eigenvalues,
                                  dc.eigenvalues)
        cert = s1_certificate(repk, da, t, db, r, dc)
        if not cert.satisfied:
            violations += 1
    assert violations == 0


def test_schatten_holder_mapping(rng):
    # projective representations map (S_p, S_q) into S_r, 1/r = 1/p + 1/q
    for p, q in ((2.0, 2.0), (3.0, 1.5), (4.0, 2.0)):
        rweight = 1.0 / (1.0 / p + 1.0 / q)
        n = 8
        a, b, c = rng.hermitian(n), rng.hermitian(n), rng.hermitian(n)
        da, db, dc = decompose(a), decompose(b), decompose(c)
        t = rng.complex_normal((n, n))
        r = rng.complex_normal((n, n))
        terms = _random_terms(rng, 2)
        rep = _projective(terms)
        w = eval_representation(rep, da, t, db, r, dc)
        cert = rep_norm_certificate(rep, da.eigenvalues, db.eigenvalues,
                                    dc.eigenvalues)
        lhs = schatten_norm(w, rweight)
        bound = cert.value * schatten_norm(t, p) * schatten_norm(r, q)
        assert lhs <= bound + 1e-9


def test_projective_cert_dominates_kind_certs(rng):
    a, b, c = rng.hermitian(6), rng.hermitian(6), rng.hermitian(6)
    da, db, dc = decompose(a), decompose(b), decompose(c)
    terms = _random_terms(rng)
    rep = _projective(terms)
    spectra = (da.eigenvalues, db.eigenvalues, dc.eigenvalues)
    proj = rep_norm_certificate(rep, *spectra)
    for kind in ("haagerup", "first_kind", "second_kind"):
        repk = projective_to_kind(rep, kind, *spectra)
        cert = rep_norm_certificate(repk, *spectra)
        assert cert.value <= proj.value * (1 + 1e-12)


def test_eval_deterministic(rng):
    a, b, c = rng.hermitian(6), rng.hermitian(6), rng.hermitian(6)
    t = rng.complex_normal((6, 6))
    r = rng.complex_normal((6, 6))
    terms = _random_terms(rng)
    rep = _projective(terms)
    w1 = eval_representation(rep, a, t, b, r, c)
    w2 = eval_representation(rep, a, t, b, r, c)
    assert np.array_equal(w1, w2)


def test_rep_validation():
    with pytest.raises(ValueError, match="equal-length"):
        HaagerupRep(kind="projective", left=[_ones()], mid=[], right=[_ones()])
    with pytest.raises(ValueError, match="doubly-indexed"):
        HaagerupRep(kind="haagerup", left=[_ones()], right=[_ones()])
    with pytest.raises(ValueError, match="kind"):
        HaagerupRep(kind="nonsense", left=[_ones()], mid=[_ones()], right=[_ones()])


def test_grid_evaluator_matches_pointwise_all_kinds(rng):
    # distinct sizes per slot catch a misplaced axis of the integrand tensor
    la, mu, nu = (np.sort(rng.normal(n)) for n in (5, 6, 7))
    terms = _random_terms(rng)
    rep = _projective(terms)
    # the direct sum of products l_n(x1) m_n(x2) r_n(x3) over the terms
    direct = _psi_of(terms)(la[:, None, None], mu[None, :, None], nu[None, None, :])
    reps = [rep] + [projective_to_kind(rep, kind, la, mu, nu)
                    for kind in ("haagerup", "first_kind", "second_kind")]
    for repk in reps:
        grid = repk.evaluate_grid(la, mu, nu)
        assert grid.shape == (5, 6, 7)
        assert np.abs(grid - direct).max() <= 1e-13 * np.abs(direct).max()


def test_trace_duality_rejects_haagerup_and_projective(rng):
    a = rng.hermitian(3)
    t = rng.complex_normal((3, 3))
    rep = _projective(_random_terms(rng))
    spectra = (decompose(a).eigenvalues,) * 3
    for repk in (rep, projective_to_kind(rep, "haagerup", *spectra)):
        with pytest.raises(ValueError, match="first/second kind"):
            eval_via_trace_duality(repk, a, t, a, t, a)


def test_triple_sum_integrand_free_of_a_variable(rng):
    a, b, c = rng.hermitian(3), rng.hermitian(4), rng.hermitian(5)
    t, r = rng.complex_normal((3, 4)), rng.complex_normal((4, 5))
    got = eval_representation(lambda x, y, z: np.sin(x + z), a, t, b, r, c)
    want = eval_representation(lambda x, y, z: np.sin(x + z) + 0.0 * y, a, t, b, r, c)
    assert np.array_equal(got, want)
    eye = np.eye(3, dtype=np.complex128)
    diag = np.diag([0.1, 0.5, -0.3])
    out = eval_representation(lambda x, y, z: np.sin(x + z), diag, eye, diag, eye, diag)
    assert np.allclose(out, np.diag(np.sin(2 * np.diag(diag))), rtol=0, atol=1e-15)


def test_list_and_converted_reps_match_recorded_values():
    # recorded from the per-index list evaluation that the factor families
    # replaced; the sups are powers of 4, so every weight and grid value is
    # exact and the figures do not depend on the summation order
    la, mu, nu = np.array([-1.0, 0.5]), np.array([0.25, 2.0, -0.5]), np.array([-0.5, 1.0])
    rep = HaagerupRep(kind="projective", left=[lambda x: 4.0 * x, lambda x: 1.0],
                      mid=[lambda y: 2.0 * y, lambda y: y * y],
                      right=[lambda z: 4.0 * z, lambda z: 0.25])
    want = np.array([4.015625, -7.984375, 33.0, -63.0, -7.9375, 16.0625, -1.984375,
                     4.015625, -15.0, 33.0, 4.0625, -7.9375]).reshape(2, 3, 2)
    certs = {"projective": 65.0, "haagerup": 65.00000000000023,
             "first_kind": 65.00000000000021, "second_kind": 65.00000000000023}
    reps = [rep] + [projective_to_kind(rep, kind, la, mu, nu)
                    for kind in ("haagerup", "first_kind", "second_kind")]
    for repk in reps:
        np.testing.assert_array_equal(repk.evaluate_grid(la, mu, nu), want)
        assert rep_norm_certificate(repk, la, mu, nu).value == certs[repk.kind]


def _count_norm_kernels(monkeypatch) -> dict:
    calls = {"eigvalsh": 0, "norm": 0}
    for name in calls:
        real = getattr(np.linalg, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_double_norm_takes_eigvalsh_only_for_real_symmetric_slices(monkeypatch):
    rng = Xorshift64Star(11)
    g = rng.normal(36).reshape(6, 6)
    sym = g + g.T
    upper = np.triu(g, 1)                        # eigvalsh reads one triangle: 0 here
    near = sym.copy()
    near[0, 5] = np.nextafter(near[0, 5], np.inf)     # symmetric but for one ulp
    herm = rng.hermitian(6)
    csym = rng.complex_normal((6, 6))
    csym = csym + csym.T                         # complex symmetric, not Hermitian
    margin = 1.0 + 8.0 * 6 * np.finfo(float).eps
    cases = [  # (slices, eigvalsh calls, SVD norm calls)
        (np.array([sym]), 1, 0), (np.array([upper]), 0, 1), (np.array([near]), 0, 1),
        (np.array([g]), 0, 1), (np.array([herm]), 0, 1), (np.array([csym]), 0, 1),
        (np.array([sym, upper, g]), 1, 2), (np.array([g[:, :4], g[:, 2:]]), 0, 2)]
    for slices, n_eig, n_svd in cases:
        calls = _count_norm_kernels(monkeypatch)
        got = _double_norm(lambda pts, s=slices: s, np.zeros(slices.shape[0]))
        assert calls == {"eigvalsh": n_eig, "norm": n_svd}
        want = max(np.linalg.svd(s, compute_uv=False)[0] for s in slices) * margin
        assert got == pytest.approx(want, rel=8.0 * 6 * np.finfo(float).eps)
        monkeypatch.undo()
    # a real non-symmetric slice keeps its true norm
    assert _double_norm(lambda pts: np.array([upper]), np.zeros(1)) >= \
        np.linalg.svd(upper, compute_uv=False)[0] > 0.1
