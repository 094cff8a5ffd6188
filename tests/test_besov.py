import numpy as np
import pytest

from opintegral.besov import (DEFAULT_GRID_1D, DEFAULT_GRID_2D, _band_windows, _grid_lp_norm,
                              besov_norm, default_band_range, lp_decompose, max_band,
                              plateau, window_eval)
from opintegral.commutator import SURROGATE_GRID_2D
from opintegral.functions import Function2D, UniformGrid

from oracles import band_samples, lp_reconstruction


def test_window_support_boundaries():
    assert window_eval(2.0) == 0.0
    assert window_eval(0.5) == 0.0
    assert window_eval(1.0) == pytest.approx(1.0)
    s = np.linspace(-1.0, 0.49, 50)
    assert np.all(window_eval(s) == 0.0)
    s = np.linspace(2.0, 10.0, 50)
    assert np.all(window_eval(s) == 0.0)


def test_window_dyadic_identity():
    s = np.linspace(1.0, 2.0, 1001)
    assert np.abs(window_eval(s) - (1.0 - window_eval(s / 2.0))).max() <= 1e-12


def test_window_partition_of_unity():
    s = np.linspace(0.01, 1000.0, 10 ** 4)
    total = sum(window_eval(s / 2.0 ** n) for n in range(-20, 21))
    assert np.abs(total - 1.0).max() <= 1e-10


def test_lp_decompose_sin_single_band():
    grid = DEFAULT_GRID_1D
    x = grid.axis()
    dec = lp_decompose(np.sin(x), grid)
    nonzero = [n for n, s in dec.sup_norms.items() if s > 1e-10]
    assert nonzero == [0]
    assert np.abs(band_samples(dec)[0] - np.sin(x)).max() <= 1e-10


def test_lp_decompose_intermediate_frequency():
    grid = DEFAULT_GRID_1D
    x = grid.axis()
    f = np.cos(1.5 * x)
    dec = lp_decompose(f, grid)
    nonzero = sorted(n for n, s in dec.sup_norms.items() if s > 1e-10)
    assert nonzero == [0, 1]
    bands = band_samples(dec)
    assert np.abs(bands[0] + bands[1] - f).max() <= 1e-8


def test_lp_decompose_constant_zero_bands():
    grid = DEFAULT_GRID_1D
    dec = lp_decompose(np.ones(grid.points), grid)
    assert all(s <= 1e-12 for s in dec.sup_norms.values())


def test_lp_decompose_band_support():
    grid = DEFAULT_GRID_1D
    x = grid.axis()
    dec = lp_decompose(np.sin(x) + 0.5 * np.sin(6.125 * x), grid)
    radii = grid.radial_frequencies()
    for n, band in band_samples(dec).items():
        spec = np.abs(np.fft.fft(band)) ** 2
        outside = spec[(radii < 2.0 ** (n - 1)) | (radii > 2.0 ** (n + 1))].sum()
        assert outside <= 1e-9 * max(spec.sum(), 1e-300)


def test_band_support_orthogonality():
    grid = DEFAULT_GRID_1D
    x = grid.axis()
    dec = lp_decompose(np.sin(x) + np.sin(5 * x) + np.sin(17.3125 * x), grid)
    bands = band_samples(dec)
    order = sorted(bands)
    for i, n in enumerate(order):
        for m in order[i + 2:]:
            fn = np.fft.fft(bands[n])
            fm = np.fft.fft(bands[m])
            assert np.abs(fn * fm).max() <= 1e-9 * (
                max(np.abs(fn).max(), 1e-300) * max(np.abs(fm).max(), 1e-300))


def test_nyquist_rejection_reports_resolution():
    grid = UniformGrid(dim=1, period=2 * np.pi, points=64)
    with pytest.raises(ValueError, match="points per axis"):
        lp_decompose(np.zeros(64), grid, band_range=(0, 12))


def test_uncovered_mass_is_reported():
    # sin(40x) lies above band 2's annulus: its mass is reported, not dropped
    grid = DEFAULT_GRID_1D
    values = np.sin(40.0 * grid.axis())
    assert lp_decompose(values, grid, band_range=(-2, 2)).uncovered_mass > 0.99
    assert besov_norm(values, grid, band_range=(-2, 2)).uncovered_mass > 0.99


@pytest.mark.parametrize("shape", [(4, 512, 512), (256, 256)], ids=["stack", "coarser"])
def test_lp_decompose_refuses_samples_off_the_grid(shape):
    # a stack would have its stack axis transformed too, and a coarser array
    # would not broadcast against the grid's windows
    with pytest.raises(ValueError, match=rf"shape \({shape[0]}, .* the grid's \(512, 512\)"):
        lp_decompose(np.zeros(shape), DEFAULT_GRID_2D)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200])
def test_lp_decompose_rejects_non_finite_samples(bad):
    grid = UniformGrid(dim=1, period=2 * np.pi, points=64)
    v = np.sin(grid.axis())
    v[5] = bad
    with pytest.raises(ValueError, match="non-finite spectral mass"):
        lp_decompose(v, grid, band_range=(-2, 4))
    with pytest.raises(ValueError, match="non-finite spectral mass"):
        besov_norm(v, grid, band_range=(-2, 4))


def test_besov_sin_value_one():
    grid = DEFAULT_GRID_1D
    bn = besov_norm(np.sin(grid.axis()), grid)
    assert bn.value == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("kwargs, message", [
    ({"s": np.nan}, "Besov smoothness s must be finite, got nan"),
    ({"s": -np.inf}, "Besov smoothness s must be finite, got -inf"),
    ({"p": 0.0}, r"Besov exponent p must lie in \(0, inf\], got 0.0"),
    ({"q": np.nan}, r"Besov exponent q must lie in \(0, inf\], got nan"),
    ({"q": -1.0}, r"Besov exponent q must lie in \(0, inf\], got -1.0"),
    ({"s": np.nan, "q": 0.0}, "Besov smoothness s must be finite, got nan")])
def test_lp_besov_norm_rejects_bad_parameters(kwargs, message):
    grid = DEFAULT_GRID_1D
    with pytest.raises(ValueError, match=message):
        lp_decompose(np.sin(grid.axis()), grid).besov_norm(**kwargs)
    # a polynomial's norm is zero without bands, but its parameters are checked alike
    with pytest.raises(ValueError, match=message):
        besov_norm(Function2D.polynomial([[1.0, 2.0]]), **kwargs)


def test_besov_polynomial_variant_zero():
    phi = Function2D.polynomial([[1.0, 2.0], [3.0, 0.0]])
    assert besov_norm(phi).value == 0.0


def test_besov_constant_samples_tiny():
    grid = DEFAULT_GRID_1D
    bn = besov_norm(np.full(grid.points, 2.7), grid)
    assert bn.value <= 1e-8


def test_besov_dyadic_dilation_doubles():
    grid = DEFAULT_GRID_1D
    x = grid.axis()
    v1 = besov_norm(np.sin(x), grid).value
    v2 = besov_norm(np.sin(2 * x), grid).value
    assert v2 / v1 == pytest.approx(2.0, rel=1e-10)


def test_besov_general_p_q():
    grid = DEFAULT_GRID_1D
    x = grid.axis()
    f = np.sin(x) + np.sin(2 * x)
    b_inf = besov_norm(f, grid, s=1.0, p=np.inf, q=np.inf)
    b_one = besov_norm(f, grid, s=1.0, p=np.inf, q=1.0)
    assert b_inf.value <= b_one.value
    b_l2 = besov_norm(f, grid, s=0.5, p=2.0, q=2.0)
    # ||sin kx||_{L^2} = sqrt(L/2); bands n = 0 and 1 weighted by 2^(n s)
    expected = np.sqrt((grid.period / 2) * (2.0 ** 0 + 2.0 ** 1))
    assert b_l2.value == pytest.approx(expected, rel=1e-6)


def test_reconstruction_modulo_mean():
    grid = DEFAULT_GRID_1D
    x = grid.axis()
    f = 0.3 + np.sin(x) + 0.2 * np.sin(7.3125 * x)
    dec = lp_decompose(f, grid)
    recon = lp_reconstruction(dec)
    assert np.abs(recon - (f - 0.3)).max() <= 1e-8 * np.abs(f).max()


def test_two_dimensional_decomposition():
    grid = DEFAULT_GRID_2D
    ax = grid.axis()
    f = np.sin(ax)[:, None] * np.cos(ax)[None, :]  # radius sqrt(2) ring
    dec = lp_decompose(f, grid)
    nonzero = sorted(n for n, s in dec.sup_norms.items() if s > 1e-10)
    assert nonzero == [0, 1]  # |xi| = sqrt(2) sits in windows n = 0 and 1
    bands = band_samples(dec)
    assert np.abs(bands[0] + bands[1] - f).max() <= 1e-8


def test_max_band_matches_nyquist():
    grid = DEFAULT_GRID_1D  # nyquist 64
    assert max_band(grid) == 5
    assert 2.0 ** (max_band(grid) + 1) <= grid.nyquist


def _reference_lp(values, grid, band_range):
    """Every window evaluated and every band transformed, empty or not, by
    complex full-plane transforms."""
    fft, ifft = (np.fft.fft2, np.fft.ifft2) if grid.dim == 2 else (np.fft.fft, np.fft.ifft)
    spec = fft(np.asarray(values, dtype=np.complex128))
    radii = grid.radial_frequencies()
    bands, sups, covered = {}, {}, np.zeros_like(radii)
    for n in range(band_range[0], band_range[1] + 1):
        w = window_eval(radii / 2.0 ** n)
        covered += w
        bands[n] = ifft(spec * w)
        sups[n] = float(np.abs(bands[n]).max())
    mass = np.abs(spec) ** 2
    total = float(mass.sum() - mass.flat[0])
    leaked = float((mass * (1.0 - np.minimum(covered, 1.0))).sum() - mass.flat[0])
    total_bands = np.zeros_like(bands[band_range[0]])
    for n in sorted(bands):
        total_bands = total_bands + bands[n]
    return sups, leaked / total, total_bands, bands


def _reference_lp_half(values, grid, band_range):
    """The real twin of _reference_lp: every window evaluated on the half
    plane and every band transformed, real and imaginary parts separately by
    rfft/irfft; half-plane columns other than 0 and N/2 count twice."""
    values = np.asarray(values)
    parts = [values.real, values.imag] if np.iscomplexobj(values) else [values]
    if grid.dim == 2:
        fft, ifft = np.fft.rfft2, (lambda a: np.fft.irfft2(a, s=values.shape))
    else:
        fft, ifft = np.fft.rfft, (lambda a: np.fft.irfft(a, n=values.shape[0]))
    specs = [fft(part) for part in parts]
    cols = grid.points // 2 + 1
    radii = grid.radial_frequencies()[..., :cols]
    bands, sups, covered = {}, {}, np.zeros_like(radii)
    for n in range(band_range[0], band_range[1] + 1):
        w = window_eval(radii / 2.0 ** n)
        covered += w
        pieces = [ifft(spec * w) for spec in specs]
        bands[n] = pieces[0] if len(pieces) == 1 else pieces[0] + 1j * pieces[1]
        sups[n] = float(np.abs(bands[n]).max())
    weight = np.array([1.0 if k == 0 or 2 * k == grid.points else 2.0 for k in range(cols)])
    mass = sum(np.abs(spec) ** 2 for spec in specs) * weight
    total = float(mass.sum() - mass.flat[0])
    leaked = float((mass * (1.0 - np.minimum(covered, 1.0))).sum() - mass.flat[0])
    total_bands = np.zeros_like(bands[band_range[0]])
    for n in sorted(bands):
        total_bands = total_bands + bands[n]
    return sups, leaked / total, total_bands, bands


def _cut_polynomial(grid):
    ax = grid.axis()
    cut = plateau(ax, 2.0, 6.0)
    phi = Function2D.polynomial([[0.3, -1.0, 0.2], [1.5, 0.0, -0.4], [0.1, 0.7, 0.0]])
    return phi.eval_grid(ax, ax) * np.outer(cut, cut)


ODD_GRID_2D = UniformGrid(dim=2, period=16.0 * np.pi, points=129)


def _lp_cases():
    """Real samples on the 1-d grid and on even and odd 2-d grids, then the
    same times 1 + 0.5j."""
    g1 = DEFAULT_GRID_1D.axis()
    real = [
        (np.exp(-g1 ** 2) * np.cos(3.0 * g1), DEFAULT_GRID_1D, None),
        (_cut_polynomial(SURROGATE_GRID_2D), SURROGATE_GRID_2D, None),
        (_cut_polynomial(DEFAULT_GRID_2D), DEFAULT_GRID_2D, None),
        (_cut_polynomial(DEFAULT_GRID_2D), DEFAULT_GRID_2D, (-4, 2)),   # no empty band
        (_cut_polynomial(ODD_GRID_2D), ODD_GRID_2D, None),              # no Nyquist column
    ]
    return real + [((1.0 + 0.5j) * values, grid, br) for values, grid, br in real]


def test_lp_decompose_matches_all_window_reference_bitwise():
    for values, grid, band_range in _lp_cases():
        dec = lp_decompose(values, grid, band_range)
        sups, uncovered, recon, bands = _reference_lp_half(values, grid, dec.band_range)
        assert recon.dtype == (np.complex128 if np.iscomplexobj(values) else np.float64)
        assert dec.sup_norms == sups
        samples = band_samples(dec)
        assert sorted(samples) == sorted(sups)
        for n in bands:
            assert samples[n].dtype == bands[n].dtype
            assert samples[n].tobytes() == bands[n].tobytes()
        assert dec.uncovered_mass == uncovered
        assert lp_reconstruction(dec).tobytes() == recon.tobytes()
        assert dec.besov_norm().value == float(np.sum([2.0 ** n * sups[n] for n in sorted(sups)]))
        # the finite-p norm, with besov_norm's weights and scaled l^2 sum
        lps = {n: _grid_lp_norm(bands[n], grid, 2.0) for n in sorted(bands)}
        terms = np.array([2.0 ** (n * 0.5) * lp if lp else lp for n, lp in lps.items()])
        top = float(terms.max())
        want = top * float(np.sum((terms / top) ** 2.0) ** 0.5)
        assert dec.besov_norm(0.5, 2.0, 2.0).value == want


def test_lp_decompose_agrees_with_complex_full_plane_reference():
    for values, grid, band_range in _lp_cases():
        dec = lp_decompose(values, grid, band_range)
        sups, uncovered, _, bands = _reference_lp(values, grid, dec.band_range)
        peak = max(sups.values())
        samples = band_samples(dec)
        for n in sups:
            assert np.abs(samples[n] - bands[n]).max() <= 1e-13 * peak
            assert abs(dec.sup_norms[n] - sups[n]) <= 1e-13 * peak
        # uncovered_mass is itself a fraction of the total spectral mass
        assert abs(dec.uncovered_mass - uncovered) <= 1e-13 * max(uncovered, 1.0)
        value = float(np.sum([2.0 ** n * sups[n] for n in sorted(sups)]))
        assert abs(dec.besov_norm().value - value) <= 1e-13 * value


def test_lp_decompose_empty_bands_shared_and_read_only():
    dec = lp_decompose(_cut_polynomial(SURROGATE_GRID_2D), SURROGATE_GRID_2D)
    empty = [n for n in dec.sup_norms if 2.0 ** (n + 1) <= 2 * np.pi / SURROGATE_GRID_2D.period]
    assert empty == [-10, -9, -8, -7, -6, -5]
    assert all(dec.sup_norms[n] == 0.0 for n in empty)
    assert all(band.dtype == np.float64 for band in band_samples(dec).values())


def test_lp_decompose_transforms_only_nonempty_bands(monkeypatch):
    grid = SURROGATE_GRID_2D
    values = _cut_polynomial(grid)
    calls = []
    irfftn = np.fft.irfftn
    monkeypatch.setattr(np.fft, "irfftn",
                        lambda a, *args, **kw: calls.append(a.shape[-1]) or irfftn(a, *args, **kw))
    dec = lp_decompose(values, grid)
    assert len(dec.sup_norms) == 14
    assert len(calls) == 8
    # each band's input is cut after the last column where its window is nonzero
    half = grid.points // 2 + 1
    radii = grid.radial_frequencies()[:, :half]
    widths = []
    for n in range(-4, max_band(grid) + 1):
        nonzero = np.flatnonzero((window_eval(radii / 2.0 ** n) != 0).any(axis=0))
        widths.append(int(nonzero[-1]) + 1)
    assert calls == widths
    assert max(widths[:-1]) < half
    calls.clear()     # complex samples: one real transform per part and band
    lp_decompose((1.0 + 0.5j) * values, grid)
    assert calls == [w for w in widths for _ in range(2)]


def test_sup_besov_norm_runs_one_irfftn_per_band_and_holds_no_samples(monkeypatch):
    grid = SURROGATE_GRID_2D
    values = _cut_polynomial(grid)
    calls = []
    irfftn = np.fft.irfftn
    monkeypatch.setattr(np.fft, "irfftn",
                        lambda a, *args, **kw: calls.append(1) or irfftn(a, *args, **kw))
    dec = lp_decompose(values, grid)
    value = dec.besov_norm(p=np.inf).value
    assert len(calls) == len(dec.spectra) == 8
    calls.clear()     # a finite p transforms each band with a window, once
    dec.besov_norm(p=2.0)
    assert len(calls) == 8
    assert float(np.abs(band_samples(dec)[0]).max()) == dec.sup_norms[0]
    assert besov_norm(values, grid).value == value


def test_lp_decompose_repeats_its_bytes_from_the_window_cache():
    values = _cut_polynomial(SURROGATE_GRID_2D)
    _band_windows.cache_clear()
    first = lp_decompose(values, SURROGATE_GRID_2D)
    assert _band_windows.cache_info().currsize == 1
    again = lp_decompose(values, SURROGATE_GRID_2D)
    assert _band_windows.cache_info().hits >= 1
    assert first.sup_norms == again.sup_norms
    assert first.uncovered_mass == again.uncovered_mass
    first, again = band_samples(first), band_samples(again)
    assert all(first[n].tobytes() == again[n].tobytes() for n in first)


@pytest.mark.parametrize("grid", [SURROGATE_GRID_2D,
                                  UniformGrid(dim=2, period=16.0 * np.pi, points=512)],
                         ids=["surrogate", "band-path"])
def test_band_window_cache_is_small_and_read_only(grid):
    # full half-plane windows would take about 8 MB per grid; cut, they fit in 3.5
    windows, weight, leak = _band_windows(grid, default_band_range(grid))
    arrays = [*windows.values(), weight, leak]
    assert sum(a.nbytes for a in arrays) <= 3.5e6
    assert not any(a.flags.writeable for a in arrays)
    with pytest.raises(ValueError):
        leak[0, 0] = 0.0
