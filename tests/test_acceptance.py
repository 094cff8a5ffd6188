"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s to see them live).  The
criteria pin the tolerances; nothing here is calibrated after the fact.
"""

import json
import time
from pathlib import Path

import numpy as np

from opintegral.besov import besov_norm, window_eval
from opintegral.commutator import (almost_commuting_pair, commutator_via_toi,
                                   function_pair_trial_suite,
                                   one_var_inequality_suite, random_polynomial,
                                   theorem41_trial_suite)
from opintegral.divdiff import polynomial_dd_rep, sinc_partition_deficit
from opintegral.doi import funcalc, schur_multiplier_norm
from opintegral.functions import Function2D
from opintegral.heltonhowe import polynomial_suite, winding_factor_experiment
from opintegral.models import Symbol, verify_hankel_identity
from opintegral.rng import Xorshift64Star
from opintegral.spectral import decompose, schatten_norm
from opintegral.toi import (HaagerupRep, eval_representation, projective_to_kind,
                            s1_certificate)

BASELINE = json.loads((Path(__file__).parent / "data" /
                       "empirical_baseline.json").read_text())

#: shared violation counter for criterion 4, filled by criteria 2 and 3
_CERT_VIOLATIONS = []
_CERT_INSTANCES = []


def _report(num, ok, detail):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def test_criterion_01_helton_howe_polynomial_suite():
    t0 = time.time()
    rows = polynomial_suite(n=128, m=32)
    elapsed = time.time() - t0
    max_lhs = max(r["lhs_err"] for r in rows)
    max_rhs = max(r["rhs_err"] for r in rows)
    ok = max_lhs <= 1e-8 and max_rhs <= 5e-3 and elapsed < 30.0
    assert _report(1, ok, f"lhs err {max_lhs:.2e} (tol 1e-8), rhs err "
                          f"{max_rhs:.2e} (tol 5e-3), {elapsed:.1f}s (< 30s)")


def test_criterion_02_theorem_41_exact_identity():
    t0 = time.time()
    worst_ratio = 0.0
    for trial in range(50):
        rng = Xorshift64Star(2024 + 7919 * trial)
        dim = (8, 12, 16, 24, 32)[trial % 5]
        a, b = almost_commuting_pair(rng, dim, rank=1 + trial % 3)
        q = rng.complex_normal((dim, dim))
        q /= np.linalg.norm(q, 2)
        phi = random_polynomial(rng, 4)
        da, db = decompose(a), decompose(b)
        via = commutator_via_toi(phi, da, db, q)
        f = funcalc(phi, da, db)
        residual = schatten_norm(via - (f @ q - q @ f), 1)
        sup_phi = float(np.abs(phi.eval_grid(da.eigenvalues, db.eigenvalues)).max())
        tol = 1e-10 * sup_phi * np.linalg.norm(q, 2) * dim
        worst_ratio = max(worst_ratio, residual / tol)
        # criterion 4 bookkeeping: certify both triple-integral terms
        amat, bmat = da.matrix(), db.matrix()
        eye = np.eye(dim, dtype=complex)
        rep2 = polynomial_dd_rep(phi, 2)
        rep1 = polynomial_dd_rep(phi, 1)
        c1 = s1_certificate(rep2, da, eye, db, bmat @ q - q @ bmat, db)
        c2 = s1_certificate(rep1, da, amat @ q - q @ amat, da, eye, db)
        for c in (c1, c2):
            _CERT_INSTANCES.append(c)
            if not c.satisfied:
                _CERT_VIOLATIONS.append((trial, c))
    elapsed = time.time() - t0
    ok = worst_ratio <= 1.0 and elapsed < 60.0
    assert _report(2, ok, f"50 trials, worst residual at {worst_ratio:.3f} of "
                          f"stated tolerance, {elapsed:.1f}s (< 60s)")


def test_criterion_03_representation_independence():
    rng = Xorshift64Star(1618)
    worst = 0.0
    for trial in range(20):
        n = 8
        a, b, c = rng.hermitian(n), rng.hermitian(n), rng.hermitian(n)
        da, db, dc = decompose(a), decompose(b), decompose(c)
        t = rng.complex_normal((n, n))
        r = rng.complex_normal((n, n))
        coeffs = rng.normal(6)
        terms = [
            (lambda x, c0=coeffs[0]: np.sin(c0 * x),
             lambda x, c1=coeffs[1]: np.cos(c1 * x),
             lambda x, c2=coeffs[2]: np.exp(0.2 * c2 * x)),
            (lambda x, c3=coeffs[3]: x + c3,
             lambda x, c4=coeffs[4]: x ** 2 + c4,
             lambda x, c5=coeffs[5]: np.cos(0.5 * c5 * x)),
        ]
        psi = lambda x, y, z: sum(f(x) * g(y) * h(z) for f, g, h in terms)
        direct = eval_representation(psi, da, t, db, r, dc)
        scale = max(np.linalg.norm(direct, 2), 1.0)
        rep = HaagerupRep(kind="projective", left=[u[0] for u in terms],
                          mid=[u[1] for u in terms], right=[u[2] for u in terms])
        kinds = ("haagerup", "first_kind", "second_kind")
        spectra = (da.eigenvalues, db.eigenvalues, dc.eigenvalues)
        reps = [rep, projective_to_kind(rep, kinds[trial % 3], *spectra)]
        for rp in reps:
            w = eval_representation(rp, da, t, db, r, dc)
            worst = max(worst, float(np.linalg.norm(w - direct, 2)) / scale)
            cert = s1_certificate(rp, da, t, db, r, dc)
            _CERT_INSTANCES.append(cert)
            if not cert.satisfied:
                _CERT_VIOLATIONS.append((trial, cert))
    ok = worst <= 1e-11
    assert _report(3, ok, f"20 integrands x 2 representations, worst relative "
                          f"disagreement {worst:.2e} (tol 1e-11)")


def test_criterion_04_certificates_zero_violations():
    # instances accumulated by criteria 2 and 3
    count = len(_CERT_INSTANCES)
    ok = count > 0 and not _CERT_VIOLATIONS
    assert _report(4, ok, f"{count} certified instances, "
                          f"{len(_CERT_VIOLATIONS)} violations (0 allowed)")


def test_criterion_05_window_and_sinc_identities():
    s = np.linspace(0.01, 1000.0, 10 ** 4)
    window_err = float(np.abs(
        sum(window_eval(s / 2.0 ** n) for n in range(-20, 21)) - 1.0).max())
    xs = np.linspace(-np.pi, np.pi, 201)
    sinc_err = float(np.abs(sinc_partition_deficit(xs, 10 ** 4)).max())
    ok = window_err <= 1e-10 and sinc_err <= 1e-3
    assert _report(5, ok, f"window partition err {window_err:.2e} (tol 1e-10), "
                          f"sinc identity err {sinc_err:.2e} at J=1e4 (tol 1e-3)")


def test_criterion_06_besov_norms():
    from opintegral.besov import DEFAULT_GRID_1D
    grid = DEFAULT_GRID_1D
    x = grid.axis()
    v_sin = besov_norm(np.sin(x), grid).value
    v_poly_exact = besov_norm(Function2D.polynomial([[1.0, 2.0], [0.5, 0.0]])).value
    v_const = besov_norm(np.full(grid.points, 3.7), grid).value
    v_dilated = besov_norm(np.sin(2 * x), grid).value
    ratio = v_dilated / v_sin
    ok = (abs(v_sin - 1.0) <= 1e-6 and v_poly_exact <= 1e-8 and v_const <= 1e-8
          and abs(ratio - 2.0) <= 1e-10 * 2.0)
    assert _report(6, ok, f"sin -> {v_sin!r} (1 +- 1e-6), polynomial -> "
                          f"{max(v_poly_exact, v_const):.2e} (<= 1e-8), dilation "
                          f"ratio {ratio!r} (2 +- 1e-10 rel)")


def test_criterion_07_toeplitz_hankel_identity():
    rng = Xorshift64Star(424242)
    worst = 0.0
    for _ in range(20):
        entries_f = {0: complex(rng.normal(1)[0])}
        entries_g = {0: complex(rng.normal(1)[0])}
        cf = rng.complex_normal(5)
        cg = rng.complex_normal(5)
        for k in range(1, 6):
            entries_f[k], entries_f[-k] = cf[k - 1], np.conj(cf[k - 1])
            entries_g[k], entries_g[-k] = cg[k - 1], np.conj(cg[k - 1])
        f = Symbol.from_dict(entries_f, 5)
        g = Symbol.from_dict(entries_g, 5)
        worst = max(worst, verify_hankel_identity(f, g, 64, 32))
    ok = worst <= 1e-12
    assert _report(7, ok, f"20 random real pairs deg <= 5 at N=64: worst window "
                          f"residual {worst:.2e} (tol 1e-12)")


def test_criterion_08_schur_multiplier_norms():
    rng = Xorshift64Star(31337)
    cert_ones = schur_multiplier_norm(np.ones((6, 5)))
    u = rng.complex_normal(5)
    v = rng.complex_normal(7)
    target = float(np.abs(u).max() * np.abs(v).max())
    cert_rank1 = schur_multiplier_norm(np.outer(u, v))
    cert_sign = schur_multiplier_norm(np.array([[1.0, 1.0], [1.0, -1.0]]), tol=1e-4)
    sandwich = all(c.lower <= c.upper + 1e-9
                   for c in (cert_ones, cert_rank1, cert_sign))
    for _ in range(5):
        c = schur_multiplier_norm(rng.complex_normal((4, 4)), tol=1e-3)
        sandwich = sandwich and c.lower <= c.upper + 1e-9
    ok = (abs(cert_ones.upper - 1.0) <= 1e-9 and abs(cert_ones.lower - 1.0) <= 1e-9
          and abs(cert_rank1.upper - target) <= 1e-6 * target
          and abs(cert_rank1.lower - target) <= 1e-6 * target
          and cert_sign.gap <= 1e-4
          and abs(cert_sign.upper - np.sqrt(2.0)) <= 1e-4
          and sandwich)
    assert _report(8, ok, f"ones [{cert_ones.lower!r}, {cert_ones.upper!r}] "
                          f"(1 +- 1e-9); rank-one within "
                          f"{abs(cert_rank1.upper - target):.2e} of product norm "
                          f"(tol 1e-6); sign-matrix gap {cert_sign.gap:.2e} "
                          f"(tol 1e-4); sandwich everywhere: {sandwich}")


def test_criterion_09_winding_factor():
    # stated experiment: symbol e^{2 i theta} + e^{i theta}/2, corner trace
    # against the flat-g quadrature, ratio within 5 percent of its target at
    # N = 512 with error non-increasing in N.  The Jacobian of the test pair
    # is 1 on supp g, and g is 2 on the inner loop of the curve and 1 on the
    # rest of the outer loop, so the ratio is the area-weighted mean of g,
    # 1 + A_in / A_out.  The target comes from the closed-form loop areas
    # (node at cos theta* = -1/4), not from the program; docs/decisions.md
    # has the derivation.  The factor 2 itself is checked on the pure
    # doubled symbol in tests/test_heltonhowe.py.
    theta = np.arccos(-0.25)
    a_in = 2.25 * (np.pi - theta) - 3.0 * np.sqrt(15.0) / 8.0
    a_out = 2.25 * theta + 3.0 * np.sqrt(15.0) / 8.0
    target = 1.0 + a_in / a_out
    wf = winding_factor_experiment(Symbol.from_dict({2: 1.0, 1: 0.5}),
                                   n_table=(128, 256, 512), resolution=1024)
    ratios = [row["ratio_flat"] for row in wf["rows"]]
    errs = [abs(r - target) for r in ratios]
    trend_ok = all(a >= b - 1e-12 for a, b in zip(errs, errs[1:]))
    ok = abs(ratios[-1] - target) <= 0.05 * target and trend_ok
    assert _report(9, ok, f"measured lhs/(flat-g rhs) at N=(128,256,512): "
                          f"{[f'{r:.4f}' for r in ratios]} vs closed-form "
                          f"1 + A_in/A_out = {target:.6f} +- 5%; "
                          f"monotone: {trend_ok}")


def test_criterion_10_inequality_regressions():
    res41 = theorem41_trial_suite(n_trials=50, seed=2024, max_dim=32, degree=4)
    c41 = max(r.empirical_constant for _, r in res41)
    res_pair = function_pair_trial_suite(n_trials=20, seed=512, max_dim=16, degree=3)
    cp = max(r.empirical_constant for _, r in res_pair)
    res_ov = one_var_inequality_suite(n_trials=50, seed=4096, max_dim=24)
    cov = max(r["empirical_constant"] for r in res_ov)
    b41 = BASELINE["theorem41"]["max_empirical_constant"]
    bp = BASELINE["function_pair"]["max_empirical_constant"]
    bov = BASELINE["one_variable"]["max_empirical_constant"]
    ok = c41 <= 2.0 * b41 and cp <= 2.0 * bp and cov <= 2.0 * bov
    assert _report(10, ok, f"constants vs 2x stored baseline: commutator "
                           f"{c41:.4f}/{b41:.4f}, pair {cp:.4f}/{bp:.4f}, "
                           f"one-variable {cov:.4f}/{bov:.4f}")
