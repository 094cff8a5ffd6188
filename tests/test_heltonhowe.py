import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import opintegral
from opintegral.doi import funcalc
from opintegral.functions import Function2D, UniformGrid
from opintegral import spectral
from opintegral.heltonhowe import (SHIFT_SYMBOL, TraceExperimentConfig, _corner_traces,
                                   _grid_integrals, _midpoint_jacobian, corner_trace,
                                   plateau_coordinate_pair, polynomial_suite,
                                   rhs_integral, trace_formula_experiment,
                                   winding_factor_experiment)
from opintegral.models import Symbol, principal_function, toeplitz_matrix
from opintegral.spectral import decompose
from oracles import band_additivity_check, dense_q, disk_principal_function, lhs_corner_trace

X = Function2D.polynomial([[0], [1]])
Y = Function2D.polynomial([[0, 1]])
X2 = Function2D.polynomial([[0], [0], [1]])
XY = Function2D.polynomial([[0, 0], [0, 1]])


def model_pair(symbol, n):
    """The truncated self-adjoint pair (T_{Re f}, T_{Im f})."""
    return toeplitz_matrix(symbol.real_part(), n), toeplitz_matrix(symbol.imag_part(), n)


def test_polynomial_suite_small():
    rows = polynomial_suite(n=64, m=16)
    expected = {"x,y": 0.5, "x^2,y": 0.0, "x,y^2": 0.0, "x^2,y^2": 0.0,
                "x^2,xy": 0.25}
    for row in rows:
        assert row["lhs"] == pytest.approx(expected[row["pair"]], abs=1e-10)
        assert row["rhs"] == pytest.approx(expected[row["pair"]], abs=5e-3)


def test_corner_trace_oracle_first_column():
    # trace over the corner picks Toeplitz matrix elements: <A e0, e0> = 0 for cos
    a, b = model_pair(SHIFT_SYMBOL, 32)
    p0 = np.zeros((32, 32))
    p0[0, 0] = 1.0
    assert abs(np.trace(a @ p0)) <= 1e-14


def test_rhs_disk_oracles():
    g = disk_principal_function()
    val, scale = _grid_integrals(X, Y, g, resolution=2048)
    assert val == pytest.approx(0.5, abs=5e-3)
    assert scale == pytest.approx(0.5, abs=5e-3)
    # odd-in-x Jacobian integrates to zero against the radial disk
    val = rhs_integral(X2, Y, g, resolution=1024)
    assert abs(val) <= 1e-6
    # Jacobian of (x^2, xy) is 2 x^2; the disk integral of x^2 is pi / 4
    val = rhs_integral(X2, XY, g, resolution=2048)
    assert val == pytest.approx(0.25, abs=5e-3)


def test_rhs_with_winding_principal_function():
    g = principal_function(SHIFT_SYMBOL)
    val = rhs_integral(X, Y, g, resolution=1024)
    assert val == pytest.approx(0.5, abs=5e-3)


Y2 = Function2D.polynomial([[0, 0, 1]])
SMALL_GRID = UniformGrid(dim=2, period=32 * np.pi, points=32)
SUITE = {"x,y": (X, Y), "x^2,y": (X2, Y), "x,y^2": (X, Y2), "x^2,y^2": (X2, Y2),
         "x^2,xy": (X2, XY)}


def test_rhs_integral_bits_of_the_row_loop_quadrature():
    # (integral, scale) as float.hex, recorded with the row-by-row winding grid
    # and the strided g weights that preceded the one-pass crossing count
    shift = {"x,y": ("0x1.ffd86bfaa823fp-2", "0x1.ffd86bfaa823fp-2"),
             "x^2,y": ("0x0.0p+0", "0x1.b26d871a4703ap-2"),
             "x,y^2": ("0x1.3e8bdfeb696fap-58", "0x1.b26d871a4703ap-2"),
             "x^2,y^2": ("0x1.492c2eb99afdap-60", "0x1.45df5778297e9p-2"),
             "x^2,xy": ("0x1.ffb0dd12a262cp-3", "0x1.ffb0dd12a262cp-3")}
    g = principal_function(SHIFT_SYMBOL)
    for name, (phi, psi) in SUITE.items():
        assert tuple(v.hex() for v in _grid_integrals(phi, psi, g, 512)) == shift[name], name
    disk = disk_principal_function(radius=0.8, value=2, center=0.1 + 0.2j)
    assert tuple(v.hex() for v in _grid_integrals(X, Y, disk, 512)) == (
        "0x1.47aff297e5d3bp-1", "0x1.47aff297e5d3bp-2")
    assert tuple(v.hex() for v in _grid_integrals(X2, Y, disk, 512)) == (
        "0x1.06265bacb7dc8p-3", "0x1.c773e489221a3p-3")


def test_midpoint_jacobian_weights_are_c_contiguous():
    for g in (principal_function(SHIFT_SYMBOL), disk_principal_function()):
        jac, gvals, _ = _midpoint_jacobian(X, Y, g, 64)
        assert gvals.shape == jac.shape == (64, 64)
        assert gvals.flags.c_contiguous


def test_lhs_antisymmetry_and_bilinearity():
    cfgxy = TraceExperimentConfig(phi=X, psi=Y, n=64, m=16)
    lxy = lhs_corner_trace(cfgxy)
    lyx = lhs_corner_trace(TraceExperimentConfig(phi=Y, psi=X, n=64, m=16))
    assert lxy == pytest.approx(-lyx, abs=1e-12)
    # bilinearity: phi = x + 2 x^2 against y
    mix = Function2D.polynomial([[0], [1], [2]])
    lmix = lhs_corner_trace(TraceExperimentConfig(phi=mix, psi=Y, n=64, m=16))
    lx = lhs_corner_trace(TraceExperimentConfig(phi=X, psi=Y, n=64, m=16))
    lx2 = lhs_corner_trace(TraceExperimentConfig(phi=X2, psi=Y, n=64, m=16))
    assert lmix == pytest.approx(lx + 2 * lx2, abs=1e-12)


def test_commuting_inputs_zero_trace():
    # B a polynomial in A: everything commutes, corner trace must vanish
    a, _ = model_pair(SHIFT_SYMBOL, 48)
    b = a @ a - 0.3 * a
    da, db = decompose(a), decompose(b)
    f = funcalc(X2, da, db)
    g = funcalc(XY, da, db)
    k = 1j * (f @ g - g @ f)
    val, _ = corner_trace(k, 12, None)
    assert abs(val) <= 1e-12


def test_corner_traces_stay_in_the_real_basis(monkeypatch):
    # the Toeplitz pair is centrohermitian: K = i Q [G_phi, G_psi] Q* is formed
    # without lifting U = Q V, for a real phi_hat (polynomials) and a complex
    # one (the sampled plateau pair), and matches K from a dense Q
    lifts = []
    lift = spectral._centro_lift
    monkeypatch.setattr(spectral, "_centro_lift", lambda v: lifts.append(v.shape) or lift(v))
    symbol = Symbol.from_dict({2: 1.0, 1: 0.5})
    pairs = [(X2, XY), plateau_coordinate_pair(2.0, 3.2)]
    cfg = TraceExperimentConfig(phi=X, psi=Y, symbol=symbol, n=64)
    rows = _corner_traces(cfg, pairs, [], [4, 16, 32])
    assert lifts == []
    da, db = (decompose(m) for m in model_pair(symbol, 64))
    q = dense_q(64)
    ua, ub = q @ da.vectors, q @ db.vectors
    assert np.abs(da.eigenvectors - ua).max() <= 1e-13 and lifts == [(64, 64)]
    for (phi, psi), row in zip(pairs, rows):
        f, g = (ua @ (np.asarray(h.eval_grid(da.eigenvalues, db.eigenvalues), dtype=complex)
                      * (ua.conj().T @ ub)) @ ub.conj().T for h in (phi, psi))
        assert np.imag(phi.eval_grid(da.eigenvalues, db.eigenvalues)).any() == (phi is not X2)
        k = 1j * (f @ g - g @ f)
        scale = np.abs(k).max()
        for m, (trace, residue) in zip([4, 16, 32], row):
            ref, ref_residue = corner_trace(k, m, None)
            assert abs(trace - ref) <= 1e-13 * scale * m
            assert abs(residue - ref_residue) <= 1e-13 * scale * m


def test_corner_warning_when_window_too_large():
    cfg = TraceExperimentConfig(phi=X2, psi=XY, n=6, m=3)
    with pytest.warns(UserWarning, match="boundary bandwidth"):
        lhs_corner_trace(cfg)


def test_polynomial_suite_warns_at_the_boundary_bandwidth():
    with pytest.warns(UserWarning, match="boundary bandwidth"):
        polynomial_suite(n=6, m=3)


@pytest.mark.parametrize("n, m", [(16, -3), (16, 0), (16, 9), (3, None)])
def test_every_corner_path_requires_one_to_half_n(n, m):
    cfg = TraceExperimentConfig(phi=X, psi=Y, n=n, m=m, resolution=16, n_table=(n,))
    message = rf"corner size {m if m is not None else n // 4} must lie in 1..n/2"
    for run in (cfg.corner, lambda: lhs_corner_trace(cfg),
                lambda: trace_formula_experiment(cfg),
                lambda: polynomial_suite(n=n, m=m),
                lambda: band_additivity_check(cfg, band_range=(-1, -1), grid=SMALL_GRID)):
        with pytest.raises(ValueError, match=message):
            run()


def test_table_corners_follow_the_corner_rule():
    cfg = TraceExperimentConfig(phi=X, psi=Y, n=16, m=4, resolution=16,
                                n_table=(8, 16), m_fractions=(0.01, 0.5))
    rep = trace_formula_experiment(cfg)
    assert [(row["n"], row["m"]) for row in rep.convergence] == [(8, 1), (8, 4), (16, 1), (16, 8)]
    with pytest.raises(ValueError, match="corner size 6 must lie in 1..n/2 = 1..4"):
        trace_formula_experiment(TraceExperimentConfig(
            phi=X, psi=Y, n=16, m=4, resolution=16, n_table=(8, 16), m_fractions=(0.75,)))


def test_trace_experiment_gaussian_pair():
    phi = Function2D.closed_form("exp(-((x - 0.2)**2 + y**2) * 3)")
    psi = Function2D.closed_form("exp(-(x**2 + (y - 0.2)**2) * 3)")
    cfg = TraceExperimentConfig(phi=phi, psi=psi, n=256, m=64, resolution=1024,
                                n_table=(64, 128, 256), m_fractions=(0.25,))
    rep = trace_formula_experiment(cfg)
    # both sides agree within 5 percent of the Jacobian mass, and the
    # convergence-table error is non-increasing in n
    assert rep.abs_err <= 0.05 * rep.jacobian_scale
    errs = [row["abs_err"] for row in rep.convergence]
    assert errs[-1] <= errs[0] + 1e-12


BAND_GRID = UniformGrid(dim=2, period=32 * np.pi, points=256)
BAND_RANGE = (-3, 2)


def _band_limited_pair(mean=0.0):
    """Gaussian bumps (plus mean) keeping only the mean and the frequencies
    every window sum over BAND_RANGE covers with weight exactly 1, so the
    dyadic pieces telescope exactly."""
    from opintegral.besov import window_eval

    xg, yg = np.meshgrid(BAND_GRID.axis(), BAND_GRID.axis(), indexing="ij")
    coverage = sum(window_eval(BAND_GRID.radial_frequencies() / 2.0 ** n)
                   for n in range(BAND_RANGE[0], BAND_RANGE[1] + 1))
    mask = np.abs(coverage - 1.0) <= 1e-12
    mask.flat[0] = True  # keep the mean
    return tuple(Function2D.sampled(np.fft.ifft2(np.fft.fft2(values) * mask) + mean, BAND_GRID)
                 for values in (np.exp(-((xg - 0.2) ** 2 + yg ** 2) * 0.75),
                                np.exp(-(xg ** 2 + (yg - 0.2) ** 2) * 0.75)))


def test_band_additivity_exact_for_band_limited_pair():
    phi, psi = _band_limited_pair()
    cfg = TraceExperimentConfig(phi=phi, psi=psi, n=48, m=12, resolution=512)
    res = band_additivity_check(cfg, band_range=BAND_RANGE, grid=BAND_GRID)
    scale = max(abs(res["lhs_total"]), 1e-6)
    assert res["lhs_gap"] <= 1e-8 * max(1.0, scale)
    assert res["rhs_gap"] <= 1e-8 * max(1.0, scale)
    # both sides of the pair itself: the contour sum meets the corner trace
    assert abs(res["rhs_total"] - res["lhs_total"]) <= 1e-12 * abs(res["lhs_total"])


def test_band_pairs_take_no_residue_cap():
    # with a mean of 1e3, the K of a pair of weak bands is at rounding level,
    # and its residue fails even the loose cap: band pairs must take no cap
    phi, psi = _band_limited_pair(mean=1e3)
    cfg = TraceExperimentConfig(phi=phi, psi=psi, n=48, m=12)
    res = band_additivity_check(cfg, band_range=BAND_RANGE, grid=BAND_GRID)
    assert res["lhs_gap"] <= 1e-12 * max(1.0, abs(res["lhs_total"]))


def test_winding_factor_two_on_pure_double_symbol():
    wf = winding_factor_experiment(Symbol.from_dict({2: 1.0}), n_table=(64, 128),
                                   resolution=512)
    for row in wf["rows"]:
        assert row["ratio_flat"] == pytest.approx(2.0, rel=0.05)
        # consistency with the true (winding-weighted) quadrature
        assert row["err_true"] <= 0.02 * max(abs(wf["rhs_true"]), 1.0)


def test_winding_factor_perturbed_symbol_measures_area_ratio():
    # for e^{2 i theta} + e^{i theta}/2 the corner trace converges to the
    # g-weighted area 9/8 (algebraic area of the curve over 2 pi)
    wf = winding_factor_experiment(Symbol.from_dict({2: 1.0, 1: 0.5}),
                                   n_table=(64, 128, 512), resolution=512)
    for row in wf["rows"]:
        assert row["lhs"] == pytest.approx(9.0 / 8.0, abs=5e-3)
    assert wf["rhs_true"] == pytest.approx(9.0 / 8.0, abs=5e-3)
    # the contour sum of the sampled pair meets the corner trace at n = 512
    assert wf["rows"][-1]["err_true"] <= 1e-14 * wf["rhs_true"]


def test_imag_residue_guard_polynomial_path():
    k = np.array([[1.0 + 1.0j, 0.0], [0.0, 1.0]])
    with pytest.raises(ArithmeticError, match="imaginary residue"):
        corner_trace(k, 2, 1e-10)


def test_winding_rhs_true_is_rhs_integral():
    from opintegral.heltonhowe import plateau_coordinate_pair

    symbol = Symbol.from_dict({2: 1.0, 1: 0.5})
    wf = winding_factor_experiment(symbol, n_table=(32,), resolution=128)
    g = principal_function(symbol)
    radius = float(np.abs(symbol.curve()).max())
    phi, psi = plateau_coordinate_pair(radius + 0.4, radius + 1.6)
    assert wf["rhs_true"] == rhs_integral(phi, psi, g, 128)


DOUBLE_WINDING = Symbol.from_dict({2: 1.0, 1: 0.5})
GAUSS_PHI = Function2D.closed_form("exp(-((x - 0.2)**2 + y**2) * 3)")
GAUSS_PSI = Function2D.closed_form("exp(-(x**2 + (y - 0.2)**2) * 3)")


def test_contour_gives_exact_fractions():
    # the trapezoid rule is exact once its nodes outnumber the degree of the
    # trig-polynomial integrand phi(gamma) (psi o gamma)'
    for row in polynomial_suite(n=64, m=16):
        assert abs(row["rhs"] - row["exact"]) <= 1e-15, row["pair"]
    g = principal_function(DOUBLE_WINDING)
    assert abs(rhs_integral(X, Y, g) - 9 / 8) <= 1e-15
    assert abs(rhs_integral(X2, XY, g) - 57 / 64) <= 1e-15


@pytest.mark.parametrize("symbol, phi, psi", [(SHIFT_SYMBOL, GAUSS_PHI, GAUSS_PSI),
                                              (DOUBLE_WINDING, X, Y)])
def test_contour_within_the_grid_quadrature_error(symbol, phi, psi):
    # the grid's error at 1024^2 is estimated by its step from 512^2
    g = principal_function(symbol)
    fine = _grid_integrals(phi, psi, g, 1024)[0]
    step = abs(fine - _grid_integrals(phi, psi, g, 512)[0])
    assert abs(rhs_integral(phi, psi, g, 1024) - fine) <= step


def test_contour_node_cap_raises():
    psi = Function2D.closed_form("sin(200000*x)")
    with pytest.raises(ArithmeticError, match="not settled at 65536 nodes: last difference"):
        rhs_integral(X, psi, principal_function(SHIFT_SYMBOL))


def test_rhs_integral_bits_repeat_across_blas_threads():
    script = (
        "from opintegral.functions import Function2D as F\n"
        "from opintegral.heltonhowe import rhs_integral\n"
        "from opintegral.models import Symbol, principal_function\n"
        "g = principal_function(Symbol.from_dict({2: 1.0, 1: 0.5}))\n"
        "x, y = F.polynomial([[0], [1]]), F.polynomial([[0, 1]])\n"
        "p = F.closed_form('exp(-((x - 0.2)**2 + y**2) * 3)')\n"
        "q = F.closed_form('exp(-(x**2 + (y - 0.2)**2) * 3)')\n"
        "print(rhs_integral(x, y, g).hex(), rhs_integral(p, q, g).hex())\n"
        # a sampled pair through Chebyshev nodes: its grid integrals and its contour sum
        "from opintegral.heltonhowe import _grid_integrals, plateau_coordinate_pair\n"
        "pq = plateau_coordinate_pair(1.9, 3.1)\n"
        "print(*(v.hex() for v in _grid_integrals(*pq, g, 256)))\n"
        "print(rhs_integral(*pq, g).hex())\n")
    src = str(Path(opintegral.__file__).parents[1])
    outs = [subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                           check=True, env={**os.environ, "PYTHONPATH": src,
                                            "OPENBLAS_NUM_THREADS": str(threads)}).stdout
            for threads in (1, 2)]
    assert outs[0] == outs[1] and outs[0].strip()
