import numpy as np
import pytest

from opintegral.models import (Symbol, hankel_matrix, principal_function, toeplitz_matrix,
                               verify_hankel_identity, winding_grid)
from opintegral.rng import Xorshift64Star

from oracles import disk_principal_function, symbol_product, winding_grid_rows, winding_number

E1 = Symbol.from_dict({1: 1.0})
COS = Symbol.from_dict({1: 0.5, -1: 0.5})
SIN = Symbol.from_dict({1: -0.5j, -1: 0.5j})


def random_real_symbol(rng, deg):
    entries = {0: complex(rng.normal(1)[0])}
    c = rng.complex_normal(deg)
    for k in range(1, deg + 1):
        entries[k] = c[k - 1]
        entries[-k] = np.conj(c[k - 1])
    return Symbol.from_dict(entries, deg)


def test_shift_toeplitz_is_lower_shift():
    t = toeplitz_matrix(E1, 4)
    assert np.allclose(t, np.eye(4, k=-1))


def test_cos_toeplitz_tridiagonal():
    t = toeplitz_matrix(COS, 5)
    assert np.allclose(t, 0.5 * (np.eye(5, k=-1) + np.eye(5, k=1)))


def test_hankel_single_entry_for_shift():
    h = hankel_matrix(E1, 4)
    # fhat(-(j+k+1)) is nonzero only for... e^{i theta} has fhat(1) = 1 and
    # no negative coefficients, so its Hankel matrix vanishes; the conjugate
    # symbol carries the single corner entry
    assert np.allclose(h, 0.0)
    hbar = hankel_matrix(E1.conjugate(), 4)
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    assert np.allclose(hbar, expected)


def test_toeplitz_rejects_small_truncation():
    with pytest.raises(ValueError, match="exceed"):
        toeplitz_matrix(COS, 1)


def test_hankel_identity_equal_symbols():
    assert verify_hankel_identity(COS, COS, 64, 32) <= 1e-15


def test_hankel_identity_cos_sin():
    assert verify_hankel_identity(COS, SIN, 64, 32) <= 1e-13


def test_hankel_identity_random_pairs():
    rng = Xorshift64Star(2024)
    worst = 0.0
    for _ in range(20):
        f = random_real_symbol(rng, 5)
        g = random_real_symbol(rng, 5)
        worst = max(worst, verify_hankel_identity(f, g, 64, 32))
    assert worst <= 1e-12


def test_hankel_identity_window_validation():
    with pytest.raises(ValueError, match="window"):
        verify_hankel_identity(COS, SIN, 64, 63)
    with pytest.raises(ValueError, match="n >="):
        verify_hankel_identity(COS, SIN, 3, 1)


def test_shift_commutator_rank_two_form():
    n = 24
    a = toeplitz_matrix(COS, n)
    b = toeplitz_matrix(SIN, n)
    k = a @ b - b @ a
    expected = np.zeros((n, n), dtype=complex)
    expected[0, 0] = -0.5j     # (P_0 - P_{n-1}) / (2i)
    expected[n - 1, n - 1] = 0.5j
    assert np.abs(k - expected).max() <= 1e-14


def test_hankel_finite_rank():
    rng = Xorshift64Star(5)
    for deg in (2, 4, 5):
        f = random_real_symbol(rng, deg)
        h = hankel_matrix(f, 48)
        sv = np.linalg.svd(h, compute_uv=False)
        assert int((sv > 1e-10 * sv[0]).sum()) == deg


def winding_at(f, lam):
    """The winding number at one point, by the library's grid path."""
    lam = complex(lam)
    return winding_grid(f, [lam.real], [lam.imag])[0, 0]


def test_winding_shift():
    assert winding_at(E1, 0.0) == 1
    assert winding_at(E1, 2.0) == 0


def test_winding_double_loop():
    f = Symbol.from_dict({2: 1.0, 1: 0.5})
    assert winding_at(f, 0.0) == 2
    assert winding_at(f, 1.2) == 1
    assert winding_at(f, 3.0) == 0


def test_winding_against_argument_principle():
    # independent oracle: the counting integral f'(z)/(f(z) - lam) dz/(2 pi i)
    f = Symbol.from_dict({2: 1.0, 1: 0.5})
    fprime = Symbol.from_dict({2: 2j, 1: 0.5j})  # d/dtheta of f(e^{i theta})
    theta = np.linspace(0.0, 2 * np.pi, 2 ** 15, endpoint=False)
    for lam in (0.0, 1.2 + 0.1j, 2.5):
        vals = fprime(theta) / (f(theta) - lam)
        integral = vals.mean() / (2j * np.pi) * 2 * np.pi
        assert winding_at(f, lam) == int(np.rint(integral.real))


def test_winding_real_symbol_zero():
    for lam in (0.2 + 0.5j, -2.0 + 0.0j, 0.9j):
        assert winding_at(COS, lam) == 0


def test_winding_additivity():
    f = Symbol.from_dict({2: 1.0, 1: 0.5})
    g = Symbol.from_dict({1: 1.0, 0: 0.3})
    prod = symbol_product(f, g)
    assert winding_at(prod, 0.0) == winding_at(f, 0.0) + winding_at(g, 0.0)


def test_winding_grid_matches_pointwise():
    f = Symbol.from_dict({2: 1.0, 1: 0.5})
    xs = np.linspace(-1.7, 1.7, 23)
    ys = np.linspace(-1.6, 1.6, 19)
    grid = winding_grid(f, xs, ys)
    rng = Xorshift64Star(1)
    checked = 0
    for _ in range(60):
        i = int(rng.uniform(1)[0] * len(ys))
        j = int(rng.uniform(1)[0] * len(xs))
        try:
            w = winding_number(f, complex(xs[j], ys[i]))
        except ValueError:
            continue
        assert grid[i, j] == w
        checked += 1
    assert checked >= 40


DOUBLE = Symbol.from_dict({2: 1.0, 1: 0.5})
# the self-crossing product f g of test_winding_additivity
PRODUCT = symbol_product(DOUBLE, Symbol.from_dict({1: 1.0, 0: 0.3}))


def _same_grid(f, xs, ys, points=2 ** 14):
    new = winding_grid(f, xs, ys, points)
    ref = winding_grid_rows(f, xs, ys, points)
    assert new.shape == ref.shape == (np.size(ys), np.size(xs))
    assert new.dtype == ref.dtype == np.int64
    assert np.array_equal(new, ref)
    return new


@pytest.mark.parametrize("f", [E1, DOUBLE, PRODUCT], ids=["shift", "double", "product"])
def test_winding_grid_matches_row_loop_oracle(f):
    grid = _same_grid(f, np.linspace(-1.7, 1.7, 23), np.linspace(-1.6, 1.6, 19))
    assert np.abs(grid).max() >= 1
    k = np.linspace(-1.3, 1.3, 37)
    _same_grid(f, k, [0.05])
    _same_grid(f, [0.05], k)
    _same_grid(f, [-0.1], [0.2])


def _crossing_abscissae(f, ys, points):
    """Every abscissa at which a segment of the polyline crosses a row of ys."""
    curve = f.curve(points)
    x1, y1 = curve.real, curve.imag
    x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
    out = []
    for y0 in ys:
        hit = (np.minimum(y1, y2) <= y0) & (y0 < np.maximum(y1, y2))
        t = (y0 - y1[hit]) / (y2[hit] - y1[hit])
        out.append(x1[hit] + t * (x2[hit] - x1[hit]))
    return np.unique(np.concatenate(out))


@pytest.mark.parametrize("f, points", [(E1, 12), (DOUBLE, 24), (PRODUCT, 30)],
                         ids=["shift", "double", "product"])
def test_winding_grid_ties_on_vertex_rows_and_crossing_columns(f, points):
    # rows exactly on vertex ordinates test the half-open row rule; columns
    # exactly on crossing abscissae test "crossings strictly to the right"
    ys = np.unique(f.curve(points).imag)
    xs = _crossing_abscissae(f, ys, points)
    grid = _same_grid(f, xs, ys, points)
    assert grid.any()


def test_winding_grid_rejects_bad_axes_and_takes_empty_ones():
    ok = np.linspace(-1.0, 1.0, 5)
    for bad in ([0.0, np.nan, 1.0], [0.0, np.inf], [1.0, 0.5, 2.0], [[0.0, 1.0]]):
        with pytest.raises(ValueError, match="finite 1-d arrays sorted ascending"):
            winding_grid(E1, bad, ok)
        with pytest.raises(ValueError, match="finite 1-d arrays sorted ascending"):
            winding_grid(E1, ok, bad)
    assert winding_grid(E1, [], ok).shape == (5, 0)
    empty = winding_grid(E1, ok, [])
    assert empty.shape == (0, 5) and empty.dtype == np.int64


def test_on_grid_is_the_transpose_of_a_c_contiguous_xy_array():
    xs, ys = np.linspace(-1.5, 1.5, 7), np.linspace(-1.2, 1.2, 5)
    for g in (principal_function(E1), disk_principal_function(radius=1.0, value=2)):
        vals = g.on_grid(xs, ys)
        assert vals.shape == (5, 7) and vals.T.flags.c_contiguous
        assert vals[2, 3] == g.on_grid([0.0], [0.0])[0, 0] and vals[0, 0] == 0


def test_principal_function_shift_disk():
    g = principal_function(E1)
    assert g.on_grid([0.0], [0.0])[0, 0] == 1
    assert g.on_grid([0.3], [-0.4])[0, 0] == 1
    assert g.on_grid([1.5], [0.0])[0, 0] == 0
    assert g.on_grid([0.0], [-2.0])[0, 0] == 0


def test_principal_function_region_variant():
    g = disk_principal_function(radius=1.0, value=1)
    assert g.on_grid([0.0], [0.0])[0, 0] == 1 and g.on_grid([2.0], [0.0])[0, 0] == 0
    box = g.bounding_box()
    assert box == (-1.0, 1.0, -1.0, 1.0)
    grid = g.on_grid(np.array([-0.5, 0.0, 1.5]), np.array([0.0]))
    assert grid.tolist() == [[1, 1, 0]]


def test_symbol_eval_and_curve():
    theta = np.array([0.0, np.pi / 2])
    vals = E1(theta)
    assert vals[0] == pytest.approx(1.0)
    assert vals[1] == pytest.approx(1j)
