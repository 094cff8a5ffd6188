import numpy as np
import pytest

from opintegral import besov, divdiff, functions
from opintegral.besov import lp_decompose, max_band
from opintegral.divdiff import (band_representations, besov_representation,
                                polynomial_dd_rep, sinc_partition_deficit,
                                sinc_representation)
from opintegral.functions import Function1D, Function2D, UniformGrid
from opintegral.rng import Xorshift64Star
from opintegral.spectral import decompose
from opintegral.toi import eval_representation, rep_norm_certificate

from oracles import band_samples, divided_difference


def _sin_x_sampled(points=256):
    grid = UniformGrid(dim=2, period=64 * np.pi, points=points)
    ax = grid.axis()
    vals = np.broadcast_to(np.sin(ax)[:, None], (points, points)).copy()
    return Function2D.sampled(vals.astype(np.complex128), grid)


def test_dd_of_xy_is_constant_y():
    dd = divided_difference(Function2D.polynomial([[0, 0], [0, 1]]), 1)
    assert dd(1.0, 2.0, 3.0) == pytest.approx(3.0)
    assert dd(-0.5, 4.0, 3.0) == pytest.approx(3.0)


def test_dd_of_x_squared_telescopes():
    dd = divided_difference(Function2D.polynomial([[0], [0], [1]]), 1)
    assert dd(1.0, 2.0, 9.9) == pytest.approx(3.0)
    assert dd(-1.0, 4.0, 0.0) == pytest.approx(3.0)


def test_dd_coincidence_uses_derivative():
    u = Function1D.closed_form("sin(x)")
    v = Function1D.polynomial([1.0, 0.5])
    dd = divided_difference(Function2D.product(u, v), 1)
    assert dd(0.7, 0.7, 2.0) == pytest.approx(np.cos(0.7) * 2.0)
    # near-coincident pairs within a spread evaluation set (tolerance scales
    # with the argument span, i.e. the spectral diameter) take the derivative
    x1 = np.array([0.7, -2.0])
    x2 = np.array([0.7 + 1e-10, 2.0])
    vals = dd(x1, x2, np.array([2.0, 2.0]))
    assert vals[0] == pytest.approx(np.cos(0.7) * 2.0, rel=1e-9)


def test_dd_axis_two():
    dd = divided_difference(Function2D.polynomial([[0, 0, 1]]), 2)  # y^2
    assert dd(5.0, 1.0, 3.0) == pytest.approx(4.0)


def test_dd_swap_symmetry(rng):
    phi = Function2D.closed_form("exp(-(x*x + y*y)) + sin(x)*cos(y)")
    dd = divided_difference(phi, 1)
    pts = rng.normal(9).reshape(3, 3)
    for x1, x2, y in pts:
        assert dd(x1, x2, y) == pytest.approx(dd(x2, x1, y), rel=1e-12)


def test_dd_algebraic_identity(rng):
    phi = Function2D.closed_form("sin(x)*cos(y) + 0.3*x*y")
    dd = divided_difference(phi, 1)
    for x1, x2, y in rng.normal(9).reshape(3, 3):
        lhs = (x1 - x2) * dd(x1, x2, y)
        rhs = phi(x1, y) - phi(x2, y)
        assert lhs == pytest.approx(rhs, abs=1e-12 * (1 + abs(rhs)))


def test_sinc_partition_partial_sums():
    xs = np.linspace(-np.pi, np.pi, 101)
    deficit = np.abs(sinc_partition_deficit(xs, 10 ** 4)).max()
    assert deficit <= 1e-3


def test_sinc_rep_odd_point():
    phi = _sin_x_sampled()
    sr = sinc_representation(phi, axis=1, sigma=1.0, j_max=100)
    val = sr.rep.evaluate_grid([0.0], [np.pi], [0.0])[0, 0, 0]
    assert abs(val) <= 1e-3  # exact value (sin 0 - sin pi) / (0 - pi) = 0


def test_sinc_rep_column_norms_near_one():
    phi = _sin_x_sampled()
    sr = sinc_representation(phi, axis=1, sigma=1.0, j_max=64)
    xs = np.linspace(-2.0, 2.0, 7)
    js = np.arange(-sr.j_max, sr.j_max + 1)
    cols = np.sinc(sr.sigma * xs[:, None] / np.pi - js[None, :])
    sums = (cols ** 2).sum(axis=1)
    assert np.all(sums <= 1.0 + 1e-12)
    assert np.all(sums >= 1.0 - sr.tail_bound - 1e-12)


def test_sinc_sample_matrix_norm_stable_in_j():
    phi = _sin_x_sampled()
    norms = {}
    for j_max in (32, 64):
        sr = sinc_representation(phi, axis=1, sigma=1.0, j_max=j_max,
                                 domain_radius=2.0)
        norms[j_max] = sr.delta_norm
    # bounded by a constant times sup|phi| = 1 and stable as J grows
    assert norms[64] <= 2.0
    assert abs(norms[64] - norms[32]) <= 0.1 * max(norms[32], 1e-300)


def test_sinc_rep_pointwise_agreement_within_tail():
    phi = _sin_x_sampled()
    sr = sinc_representation(phi, axis=1, sigma=1.0, j_max=64, domain_radius=2.5)
    dd = divided_difference(phi, 1)
    # distinct sizes per slot catch a misplaced axis of the integrand tensor
    pts = [np.linspace(-2.0, 2.0, k) for k in (17, 16, 15)]
    approx = sr.rep.evaluate_grid(*pts)
    exact = dd(*np.meshgrid(*pts, indexing="ij"))
    assert approx.shape == exact.shape == (17, 16, 15)
    assert np.abs(approx - exact).max() <= sr.tail_bound


def test_polynomial_paths_agree_exactly(rng):
    coeffs = rng.normal(12).reshape(3, 4)
    phi = Function2D.polynomial(coeffs)
    u, v, w = rng.normal(3), rng.normal(4), rng.normal(5)
    for axis in (1, 2):
        exact = divided_difference(phi, axis)(u[:, None, None], v[None, :, None],
                                              w[None, None, :])
        grid = polynomial_dd_rep(phi, axis).evaluate_grid(u, v, w)
        assert grid.shape == exact.shape == (3, 4, 5)
        assert np.all(np.abs(grid - exact) <= 1e-12 * (1 + np.abs(exact)))


@pytest.mark.parametrize("axis", [0, 3])
def test_axis_builders_refuse_axes_other_than_one_and_two(axis):
    phi = Function2D.polynomial([[0, 1], [1, 0]])
    builders = [polynomial_dd_rep, divided_difference, Function2D.partial,
                lambda f, a: sinc_representation(f, a, sigma=1.0),
                lambda f, a: band_representations(f, (a,))]
    for build in builders:
        with pytest.raises(ValueError, match="axis must be 1 or 2"):
            build(phi, axis)


def test_polynomial_rep_operator_agreement(rng):
    coeffs = rng.normal(9).reshape(3, 3)
    phi = Function2D.polynomial(coeffs)
    n = 6
    a, b, c = rng.hermitian(n), rng.hermitian(n), rng.hermitian(n)
    da, db, dc = decompose(a), decompose(b), decompose(c)
    t = rng.complex_normal((n, n))
    r = rng.complex_normal((n, n))
    for axis in (1, 2):
        dd = divided_difference(phi, axis)
        rep = polynomial_dd_rep(phi, axis)
        w_rep = eval_representation(rep, da, t, db, r, dc)
        w_direct = eval_representation(lambda x, y, z: dd(x, y, z), da, t, db, r, dc)
        assert np.linalg.norm(w_rep - w_direct, 2) <= 1e-11 * max(
            np.linalg.norm(w_direct, 2), 1.0)


def test_besov_representation_single_band():
    grid = UniformGrid(dim=2, period=64 * np.pi, points=256)
    ax = grid.axis()
    vals = np.outer(np.sin(ax), np.ones(256)) * np.cos(0.5 * ax)[None, :]
    phi = Function2D.sampled(vals.astype(np.complex128), grid)
    # spectrum on the circle radius sqrt(1 + 0.25), inside one dyadic annulus
    bl = besov_representation(phi, axis=1, j_max=32)
    assert 1 <= len(bl.items) <= 3


def test_besov_representation_gaussian_matches_pointwise():
    phi = Function2D.closed_form("exp(-(x*x + y*y))")
    grid = UniformGrid(dim=2, period=32 * np.pi, points=256)
    bl = besov_representation(phi, axis=1, j_max=48, grid=grid, domain_radius=2.5)
    assert bl.items
    dd = divided_difference(phi, 1)
    pts = [np.linspace(-1.5, 1.5, k) for k in (10, 9, 8)]
    total = np.zeros((10, 9, 8), dtype=np.complex128)
    for n in sorted(bl.items):
        total = total + bl.items[n].rep.evaluate_grid(*pts)
    assert np.abs(total - dd(*np.meshgrid(*pts, indexing="ij"))).max() <= 1e-2


def test_besov_representation_polynomial_empty():
    phi = Function2D.polynomial([[0.0, 1.0], [1.0, 2.0]])
    bl = besov_representation(phi, axis=1)
    assert bl.items == {}


def test_besov_rep_aggregate_certificate():
    phi = Function2D.closed_form("exp(-(x*x + y*y))")
    grid = UniformGrid(dim=2, period=32 * np.pi, points=256)
    bl = besov_representation(phi, axis=1, j_max=32, grid=grid, domain_radius=2.0)
    spectrum = np.linspace(-1.5, 1.5, 8)
    agg = bl.aggregate_certificate(spectrum, spectrum, spectrum)
    assert np.isfinite(agg) and agg > 0


def test_grid_evaluator_matches_pointwise_divdiff_reps(rng):
    grid = UniformGrid(dim=2, period=64 * np.pi, points=128)
    ax = grid.axis()
    band = Function2D.sampled(np.outer(np.sin(ax), np.cos(0.5 * ax)).astype(np.complex128),
                              grid)
    poly = Function2D.polynomial(rng.normal(12).reshape(3, 4))
    la, mu, nu = (np.sort(rng.normal(n)) for n in (4, 5, 6))
    points = (la[:, None, None], mu[None, :, None], nu[None, None, :])
    for axis in (1, 2):
        # sinc: the divided difference within the recorded tail bound.  On
        # axis 2 the five tail probes x = 0, +-2 pi, +-4 pi are all zeros of
        # sin(x), so tail_bound reads 1.8e-14 against a truncation error of
        # 3.7e-4; that axis is checked against a fixed 1e-3 instead
        sr = sinc_representation(band, axis, sigma=2.0, j_max=16)
        exact = divided_difference(band, axis)(*points)
        grid_vals = sr.rep.evaluate_grid(la, mu, nu)
        assert grid_vals.shape == exact.shape == (4, 5, 6)
        assert np.abs(grid_vals - exact).max() <= (sr.tail_bound if axis == 1 else 1e-3)
        # polynomial: the divided difference to rounding
        exact = divided_difference(poly, axis)(*points)
        grid_vals = polynomial_dd_rep(poly, axis).evaluate_grid(la, mu, nu)
        assert grid_vals.shape == (4, 5, 6)
        assert np.abs(grid_vals - exact).max() <= 1e-12 * max(np.abs(exact).max(), 1.0)


def test_sinc_certificate_dominates_every_slice_norm():
    # J = 257: slices large enough that an iterative norm estimate comes out low;
    # a real band, so the slices are float64 and symmetric (the eigvalsh norm)
    rng = Xorshift64Star(77)
    grid = UniformGrid(dim=2, period=64 * np.pi, points=512)
    ax = grid.axis()
    samples = np.cos(ax)[:, None] * np.sin(0.5 * ax)[None, :]
    phi = Function2D.from_spectrum(np.fft.fft2(samples), grid, real=True)
    spec = np.linalg.eigvalsh(rng.hermitian(6))
    for axis in (1, 2):
        sr = sinc_representation(phi, axis, sigma=2.0, j_max=128, domain_radius=2.0)
        cert = rep_norm_certificate(sr.rep, spec, spec, spec)
        slices = sr.rep.double(spec)
        assert slices.shape == (6, 257, 257) and slices.dtype == np.float64
        assert all(np.array_equal(m, m.T) for m in slices)
        for m in slices:
            assert cert.factor_norms[sr.rep.slot] >= np.linalg.norm(m, 2)


def test_sampled_lattice_samples_match_grid_evaluation():
    grid = UniformGrid(dim=2, period=16 * np.pi, points=64)
    ax = grid.axis()
    phi = Function2D.sampled(np.exp(-(ax[:, None] - 0.3) ** 2 - ax[None, :] ** 2), grid)
    points = np.array([-0.7, 0.1, 0.9])
    for axis in (1, 2):
        sr = sinc_representation(phi, axis, sigma=2.0, j_max=8)
        lat = sr.lattice
        if axis == 1:
            vals, dvals = phi.eval_grid(lat, points), phi.partial(1).eval_grid(lat, points)
        else:
            vals = phi.eval_grid(points, lat).T
            dvals = phi.partial(2).eval_grid(points, lat).T
        diff = lat[:, None] - lat[None, :]
        np.fill_diagonal(diff, 1.0)
        got = sr.rep.double(points)
        for p in range(points.size):
            want = (vals[:, None, p] - vals[None, :, p]) / diff
            np.fill_diagonal(want, dvals[:, p])
            assert np.abs(got[p] - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("kwargs, match", [
    ({"sigma": np.nan}, "band radius"), ({"sigma": np.inf}, "band radius"),
    ({"j_max": -3}, "j_max"), ({"j_max": 2.5}, "j_max"),
    ({"domain_radius": np.nan}, "domain radius"), ({"domain_radius": -1.0}, "domain radius"),
])
def test_sinc_rep_rejects_bad_inputs(kwargs, match):
    args = {"sigma": 1.0, "j_max": 16, "domain_radius": 1.0, **kwargs}
    with pytest.raises(ValueError, match=match):
        sinc_representation(_sin_x_sampled(), axis=1, **args)


@pytest.mark.parametrize("kwargs, match", [
    ({"j_max": -3}, "j_max"), ({"domain_radius": np.nan}, "domain radius"),
])
def test_band_reps_reject_bad_inputs_when_no_sinc_rep_is_built(kwargs, match):
    grid = UniformGrid(dim=2, period=8.0 * np.pi, points=32)
    flat = Function2D.sampled(np.ones((32, 32)), grid)       # every band below band_tol
    for phi in (Function2D.polynomial([[0, 1], [1, 0]]), flat):
        assert besov_representation(phi, 1, grid=grid).items == {}
        with pytest.raises(ValueError, match=match):
            besov_representation(phi, 1, grid=grid, **kwargs)
        with pytest.raises(ValueError, match=match):
            band_representations(phi, grid=grid, **kwargs)


def _count_double_norms(monkeypatch) -> list:
    calls = []
    real = divdiff._double_norm
    monkeypatch.setattr(divdiff, "_double_norm",
                        lambda *args: calls.append(1) or real(*args))
    return calls


def test_building_reps_takes_no_slice_norms(monkeypatch):
    calls = _count_double_norms(monkeypatch)
    sinc_representation(_sin_x_sampled(), axis=1, sigma=1.0, j_max=32)
    grid = UniformGrid(dim=2, period=16.0 * np.pi, points=64)
    bump = Function2D.closed_form("exp(-((x - 0.1)**2 + (y + 0.2)**2))")
    reps = band_representations(bump, j_max=16, grid=grid, domain_radius=1.1)
    assert all(lst.items for lst in reps.values())
    assert calls == []


def test_tail_bound_computed_once_on_first_read(monkeypatch):
    calls = _count_double_norms(monkeypatch)
    sr = sinc_representation(_sin_x_sampled(), axis=1, sigma=1.0, j_max=32,
                             domain_radius=2.0)
    reads = [sr.delta_norm, sr.delta_norm, sr.tail_bound, sr.tail_bound]
    assert len(calls) == 1
    assert sr.tail_bound == reads[2] == reads[3]
    slack = max(32 - 2.0 / np.pi - 1.0, 0.5)
    assert sr.tail_bound == 3.0 * sr.delta_norm * np.sqrt(2.0) / (np.pi * np.sqrt(slack))


def test_sinc_family_matches_per_index_stack():
    sr = sinc_representation(_sin_x_sampled(), axis=1, sigma=1.0, j_max=128)
    points = Xorshift64Star(5).normal(40) * 30.0
    family = sr.rep.factors[0](points)
    assert family.shape == (257, points.size)
    stack = np.array([np.sinc(sr.sigma * points / np.pi - j)
                      for j in range(-sr.j_max, sr.j_max + 1)])
    np.testing.assert_array_equal(family, stack)


# the band-path certificate bump (seed 1) on the band-path grid, at three of
# its spectral points
BAND_GRID = UniformGrid(dim=2, period=16.0 * np.pi, points=512)
BUMP = Function2D.closed_form(
    "exp(-((x - -0.12745004803385265)**2 + (y - 0.2615601268986089)**2))")
BUMP_POINTS = np.array([-0.94799947, 0.24423297, 0.88986641])
SMALL_GRID = UniformGrid(dim=2, period=16.0 * np.pi, points=64)


def _bump_bands(grid=BAND_GRID, scale=1.0):
    """{n: (band samples, fft2 spectrum)} of the LP bands of scale * BUMP."""
    dec = lp_decompose(scale * BUMP.sample(grid).data, grid)
    peak = max(dec.sup_norms.values())
    return {n: (band, np.fft.fft2(band)) for n, band in band_samples(dec).items()
            if dec.sup_norms[n] > 1e-12 * peak}


@pytest.mark.parametrize("j_max", [0, 1, 128])
@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_sinc_contraction_matches_the_slice_matmul(real, j_max):
    # evaluate_grid contracts a sinc representation through its Loewner form;
    # the slices the certificate reads give the same array to rounding.  At
    # j_max = 0 the lattice is one node and H is the 1 x 1 zero
    n, (_, spec) = max(_bump_bands(SMALL_GRID).items())
    band = Function2D.from_spectrum(spec if real else (1.0 + 0.5j) * spec, SMALL_GRID,
                                    real=real)
    dtype = np.float64 if real else np.complex128
    for axis in (1, 2):
        sr = sinc_representation(band, axis, sigma=2.0 ** (n + 1), j_max=j_max)
        rep = sr.rep
        p, q = (i for i in range(3) if i != rep.slot)
        points = [None] * 3
        points[p], points[q] = BUMP_POINTS, np.linspace(-1.0, 1.0, 4)
        points[rep.slot] = np.append(BUMP_POINTS[:2], sr.lattice[j_max // 2])  # a node
        u, v = rep.factors[p](points[p]), rep.factors[q](points[q])
        want = np.matmul(u.T, rep.double(points[rep.slot])) @ v
        got = rep.double.contract(u, points[rep.slot], v)
        assert got.shape == want.shape == (3, 3, 4) and got.dtype == want.dtype == dtype
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        np.testing.assert_array_equal(rep.evaluate_grid(*points),
                                      np.moveaxis(got, 0, rep.slot))


def test_real_band_lattice_values_are_the_real_part():
    lattice = np.pi / 8.0 * np.arange(-16, 17)
    for band, spec in _bump_bands().values():
        assert band.dtype == np.float64
        real = Function2D.from_spectrum(spec, BAND_GRID, real=True)
        cplx = Function2D.from_spectrum(spec, BAND_GRID)
        for axis in (1, 2):
            got = real.lattice_evaluator(axis, lattice)(BUMP_POINTS)
            want = cplx.lattice_evaluator(axis, lattice)(BUMP_POINTS)
            for g, w in zip(got, want):
                assert g.dtype == np.float64
                np.testing.assert_array_equal(g, w.real)
                # the band vanishes at the Nyquist bin: the imaginary part is rounding
                assert np.abs(w.imag).max() <= 1e-13 * np.abs(w).max()


def test_real_band_slice_norms_match_complex_svd_norms():
    eps = np.finfo(float).eps
    reps = besov_representation(BUMP, 1, j_max=128, grid=BAND_GRID, domain_radius=1.1)
    bands = _bump_bands()
    assert sorted(reps.items) == sorted(bands)
    for n, sr in reps.items.items():
        slices = sr.rep.double(BUMP_POINTS)
        assert slices.dtype == np.float64 and slices.shape[1:] == (257, 257)
        assert all(np.array_equal(m, m.T) for m in slices)      # bit for bit
        cplx = sinc_representation(Function2D.from_spectrum(bands[n][1], BAND_GRID), 1,
                                   sigma=sr.sigma, j_max=128, domain_radius=1.1)
        ref = cplx.rep.double(BUMP_POINTS)
        assert ref.dtype == np.complex128
        for m, r in zip(slices, ref):
            want = np.linalg.norm(r, 2)
            assert abs(np.abs(np.linalg.eigvalsh(m)).max() - want) <= 8 * 257 * eps * want


def test_complex_sampled_band_stays_complex(monkeypatch):
    grid = UniformGrid(dim=2, period=16.0 * np.pi, points=64)
    phi = Function2D.sampled((1.0 + 0.5j) * BUMP.sample(grid).data, grid)
    real = Function2D.sampled(BUMP.sample(grid).data.real, grid)
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(1) or eigvalsh(m))
    for f, dtype in ((phi, np.complex128), (real, np.float64)):
        reps = band_representations(f, j_max=8, domain_radius=1.1)
        for axis, lst in reps.items():
            assert lst.items
            for sr in lst.items.values():
                assert sr.rep.double(BUMP_POINTS).dtype == dtype
                assert sr.rep.evaluate_grid(BUMP_POINTS, BUMP_POINTS, BUMP_POINTS).dtype == dtype
        calls.clear()
        reps[1].aggregate_certificate(BUMP_POINTS, BUMP_POINTS, BUMP_POINTS)
        assert len(calls) == (0 if dtype == np.complex128 else
                              len(reps[1].items) * BUMP_POINTS.size)


def test_band_lattice_matrix_built_once_for_both_axes(monkeypatch):
    j_max = 16
    built = []
    interp = functions._interp_matrix

    def counting(grid, points):
        built.append(np.size(points))
        return interp(grid, points)
    monkeypatch.setattr(functions, "_interp_matrix", counting)
    grid = UniformGrid(dim=2, period=16.0 * np.pi, points=64)
    reps = band_representations(BUMP, j_max=j_max, grid=grid, domain_radius=1.1)
    assert len(reps[1].items) >= 2 and sorted(reps[1].items) == sorted(reps[2].items)
    assert built.count(2 * j_max + 1) == len(reps[1].items)


def test_lattice_evaluator_rebuilds_for_another_lattice():
    spec = next(iter(_bump_bands().values()))[1]
    shared = Function2D.from_spectrum(spec, BAND_GRID, real=True)
    coarse, fine = np.pi / 4.0 * np.arange(-8, 9), np.pi / 8.0 * np.arange(-16, 17)
    for lattice in (coarse, fine, coarse):
        for axis in (1, 2):
            got = shared.lattice_evaluator(axis, lattice)(BUMP_POINTS)
            fresh = Function2D.from_spectrum(spec, BAND_GRID, real=True)
            want = fresh.lattice_evaluator(axis, lattice)(BUMP_POINTS)
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, w)


@pytest.mark.parametrize("phi, grid", [
    (BUMP, BAND_GRID),
    (Function2D.sampled((1.0 + 0.5j) * BUMP.sample(SMALL_GRID).data, SMALL_GRID), None)],
    ids=["closed-form-bump", "complex-sampled"])
def test_band_path_hands_sinc_lattice_sampled_bands_inside_sigma(monkeypatch, phi, grid):
    # what a band-limit check on sinc_representation's input would have shown:
    # each LP band handed to it is sampled and band-limited to its sigma by
    # construction (the window of band n vanishes beyond 2^(n+1)), the top
    # band included, whose sigma equals the grid's Nyquist frequency
    handed = []
    real = divdiff.sinc_representation
    monkeypatch.setattr(divdiff, "sinc_representation",
                        lambda f, axis, sigma, **kw: handed.append((f, sigma))
                        or real(f, axis, sigma, **kw))
    band_representations(phi, j_max=8, grid=grid, domain_radius=1.1)
    grid = grid or phi.grid
    assert 2.0 ** (max_band(grid) + 1) in {sigma for _, sigma in handed}
    for f, sigma in handed:
        assert f.kind == "sampled"
        mass = np.abs(f.spectrum()) ** 2
        assert mass[f.grid.radial_frequencies() > sigma].sum() <= 1e-20 * mass.sum()


@pytest.mark.parametrize("values, grid", [
    (BUMP.sample(BAND_GRID).data, BAND_GRID),
    ((1.0 + 0.5j) * BUMP.sample(SMALL_GRID).data, SMALL_GRID)],
    ids=["band-path-bump", "complex-sampled"])
def test_band_spectrum_from_the_half_plane_is_the_fft2_of_its_samples(values, grid):
    # LPDecomposition.band builds each band's full-plane spectrum from
    # lp_decompose's half plane, not by the fft2 of the band samples
    dec = lp_decompose(values, grid)
    peak = max(dec.sup_norms.values())
    kept = [n for n in dec.spectra if dec.sup_norms[n] > divdiff.BAND_DROP_RTOL * peak]
    assert max_band(grid) in kept
    samples = band_samples(dec)
    for n in kept:
        want = np.fft.fft2(samples[n])
        got = dec.band(n).spectrum()
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), n


def test_support_trimmed_lattice_evaluator_matches_the_full_plane():
    # each bump band holds its spectrum on its support, 998 of the 8 x 512
    # bins of one axis; the lattice values and partials agree with the sum
    # over the full plane
    lattice = np.pi / 8.0 * np.arange(-16, 17)
    ixi = 1j * BAND_GRID.frequencies()
    e_lat = functions._interp_matrix(BAND_GRID, lattice)
    e_pts = functions._interp_matrix(BAND_GRID, BUMP_POINTS)
    dec = lp_decompose(BUMP.sample(BAND_GRID).data, BAND_GRID)
    held = 0
    for n in sorted(_bump_bands()):
        spec = besov._full_plane(dec.spectra[n], BAND_GRID.points)
        f = dec.band(n)
        held += f._support_spectrum().shape[0]
        assert np.array_equal(f.spectrum(), spec)
        for axis, s in ((1, spec), (2, spec.T)):
            m = s @ e_pts.T
            for got, want in zip(f.lattice_evaluator(axis, lattice)(BUMP_POINTS),
                                 (e_lat @ m, (e_lat * ixi) @ m)):
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    assert held == 998


def test_spectrum_with_no_zero_keeps_its_full_support_and_bits():
    grid = UniformGrid(dim=2, period=16.0 * np.pi, points=64)
    gen = np.random.default_rng(7)
    spec = gen.normal(size=(64, 64)) + 1j * gen.normal(size=(64, 64))
    f = Function2D.from_spectrum(spec, grid)
    assert f._support_spectrum().shape == (64, 64)
    lattice = np.pi / 4.0 * np.arange(-8, 9)
    e_lat = functions._interp_matrix(grid, lattice)
    m = spec.T @ functions._interp_matrix(grid, BUMP_POINTS).T
    vals, dvals = f.lattice_evaluator(2, lattice)(BUMP_POINTS)
    assert vals.tobytes() == (e_lat @ m).tobytes()
    assert dvals.tobytes() == ((e_lat * (1j * grid.frequencies())) @ m).tobytes()


def test_sinc_representation_refuses_a_closed_form():
    phi = Function2D.closed_form("cos(x) * sin(0.5 * y)")
    for axis in (1, 2):
        with pytest.raises(ValueError, match="has no grid spectrum"):
            sinc_representation(phi, axis, sigma=2.0, j_max=8)
