import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opintegral.commutator import random_polynomial
from opintegral.fileio import read_function_spec, write_function_spec
from opintegral.functions import (MAX_EXPR_NODES, Add, Call, Const, Function1D, Function2D,
                                  Mul, UniformGrid, Var, _axis_interp, _interp_matrix,
                                  parse_expr)
from opintegral.rng import Xorshift64Star


def test_polynomial_eval_exact():
    phi = Function2D.polynomial([[1.0, 2.0], [0.0, -3.0]])  # 1 + 2y - 3xy
    assert phi(2.0, 5.0) == pytest.approx(1 + 10 - 30)


def test_polynomial_partials():
    phi = Function2D.polynomial([[0, 0, 1], [0, 2, 0]])  # y^2 + 2xy
    assert phi.partial(1)(3.0, 4.0) == pytest.approx(8.0)
    assert phi.partial(2)(3.0, 4.0) == pytest.approx(2 * 4 + 2 * 3)


def test_parse_expr_roundtrip():
    e = parse_expr("exp(-(x**2 + y**2)) + 0.5*sin(x)*cos(2*y) - x/4")
    x, y = 0.3, -1.1
    expected = np.exp(-(x ** 2 + y ** 2)) + 0.5 * np.sin(x) * np.cos(2 * y) - x / 4
    assert complex(e.eval(np.float64(x), np.float64(y))) == pytest.approx(expected)
    # repr parses back to the same function
    e2 = parse_expr(repr(e))
    assert complex(e2.eval(np.float64(x), np.float64(y))) == pytest.approx(expected)


def test_closed_form_specs_keep_their_text_over_round_trips(tmp_path):
    # a signed literal reads back as one constant, so re-saving adds nothing
    path = tmp_path / "f.spec"
    for text in ("exp(-(x - 0.2)**2)", "x / -2 + -0.0*y", "-1.0*exp(-3.0*(x*x + y*y))"):
        f = Function2D.closed_form(text)
        first = repr(f.data)
        for _ in range(4):
            write_function_spec(path, f)
            f = read_function_spec(path)
            assert repr(f.data) == first
    x, y = np.array([0.3, -1.1]), np.array([0.7, 0.4])
    assert np.array_equal(parse_expr("x / -2").eval(x, y), x * -0.5)


def test_parse_expr_rejects_bad_input():
    with pytest.raises(ValueError):
        parse_expr("x + ")
    with pytest.raises(ValueError):
        parse_expr("tan(x)")
    with pytest.raises(ValueError):
        parse_expr("x ** y")


def test_parse_expr_takes_python_precedence():
    # unary minus binds looser than **: -x**2 is -(x**2), a bounded Gaussian below
    x, y = np.array([0.3, -1.1, 2.0]), np.array([0.7, 0.4, -0.5])
    assert np.array_equal(parse_expr("-x**2").eval(x, y), -x ** 2)
    assert np.array_equal(parse_expr("2*-x**2").eval(x, y), 2 * -x ** 2)
    assert parse_expr("-2**2").eval(x, y) == -4.0
    assert np.array_equal(parse_expr("exp(-x**2 - y**2)").eval(x, y), np.exp(-x ** 2 - y ** 2))


@pytest.mark.parametrize("text", [
    "z", "pi", "exp", "x if y else 1", "lambda: x", "x.real", "x[0]", "x < y", "1j", "True",
    "None", "'x'", "x**y", "x**-1", "x**0.5", "x / y", "x / 0", "x // 2", "x % 2", "~x",
    "tan(x)", "exp(x, y)", "exp(x=1)", "0x1F", "1_000", "x, y", "x y"])
def test_parse_expr_rejects_python_only_forms(text):
    with pytest.raises(ValueError, match=f" in {re.escape(repr(text))}$"):
        parse_expr(text)


def test_parse_expr_caps_the_written_out_tree():
    # x**127 is 127 products of x: 255 nodes, and its derivatives evaluate
    assert MAX_EXPR_NODES == 256
    assert repr(parse_expr("x**2")) == "((1.0 * x) * x)"
    f = Function2D.closed_form("x**127")
    assert f.partial(1).partial(1)(1.0, 0.0) == 127 * 126
    # refused by the power's count, the whole tree's count (403 nodes), the
    # syntax tree's count and the parser's depth limit
    for text in ("x**128", "x**100 + x**100", "x*x" + "*x" * 255, "-" * 3000 + "x"):
        with pytest.raises(ValueError, match=f"more than 256 expression nodes in "
                                             f"{re.escape(repr(text))}$"):
            parse_expr(text)


_trees = st.recursive(
    st.one_of(st.floats(-10.0, 10.0).map(Const), st.sampled_from([Var("x"), Var("y")])),
    lambda t: st.one_of(st.builds(Add, t, t), st.builds(Mul, t, t),
                        st.builds(Call, st.sampled_from(["exp", "sin", "cos"]), t)),
    max_leaves=12)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_trees)
def test_parse_expr_reads_a_tree_repr_back_bit_for_bit(tree):
    x, y = np.array([0.3, -1.1, 2.5]), np.array([0.7, 0.4, -2.0])
    with np.errstate(all="ignore"):
        np.testing.assert_array_equal(parse_expr(repr(tree)).eval(x, y) + 0 * x,
                                      tree.eval(x, y) + 0 * x)


def test_closed_form_derivative_chain_rule():
    f = Function2D.closed_form("exp(-(x*x + y*y))")
    assert f.partial(1)(1.0, 0.0) == pytest.approx(-2 * np.exp(-1))
    assert f.partial(2)(0.5, 0.5) == pytest.approx(-1.0 * np.exp(-0.5))


def test_product_variant():
    u = Function1D.closed_form("sin(x)")
    v = Function1D.polynomial([1.0, 0.0, 2.0])
    f = Function2D.product(u, v)
    assert f(0.7, 1.5) == pytest.approx(np.sin(0.7) * (1 + 2 * 1.5 ** 2))
    fx = f.partial(1)
    assert fx(0.7, 1.5) == pytest.approx(np.cos(0.7) * (1 + 2 * 1.5 ** 2))


def test_product_builds_a_polynomial_or_a_closed_form(tmp_path):
    u = Function1D.polynomial([1.0, -2.0, 0.5])
    v = Function1D.polynomial([0.0, 3.0])
    poly = Function2D.product(u, v)
    assert poly.kind == "polynomial"
    np.testing.assert_array_equal(poly.data, np.outer(u.data, v.data))
    left = Function2D.product(Function1D.closed_form("sin(x)"), v)
    right = Function2D.product(u, Function1D.closed_form("exp(-(x*x))"))
    assert left.kind == right.kind == "closed_form"
    x, y = 0.7, -1.3
    assert poly(x, y) == pytest.approx((1 - 2 * x + 0.5 * x * x) * 3 * y, rel=1e-14)
    assert left(x, y) == pytest.approx(np.sin(x) * 3 * y, rel=1e-14)
    assert right(x, y) == pytest.approx((1 - 2 * x + 0.5 * x * x) * np.exp(-y * y), rel=1e-14)
    for i, f in enumerate((poly, left, right)):
        path = tmp_path / f"product{i}.spec"
        write_function_spec(path, f)
        back = read_function_spec(path)
        assert back.kind == f.kind
        assert back(x, y) == pytest.approx(f(x, y), rel=1e-14)


def test_product_with_a_sampled_factor_raises():
    # a one-variable function is a polynomial or a closed form, so a product
    # has an exact form; there is no sampled factor to build
    grid = UniformGrid(dim=1, period=2 * np.pi, points=8)
    with pytest.raises(ValueError, match="unknown Function1D kind 'sampled'"):
        Function1D("sampled", np.sin(grid.axis()))
    v = Function1D.closed_form("cos(x)")
    with pytest.raises(ValueError, match="unknown Function2D kind 'product'"):
        Function2D("product", (v, v))


def test_one_variable_closed_form_rejects_y():
    # u(x) v(y) renames v's x to y, so a factor in y would silently become a
    # function of the other variable
    for text in ("y", "sin(x*y)", "x + exp(-(y*y))"):
        with pytest.raises(ValueError, match="written in x"):
            Function1D.closed_form(text)


# float.hex of each closed form and its two partials on the XS x YS grid
# (row-major) and then at (0.45, -0.6); the expression nodes must not move a
# bit of them
GAUSS = "exp(-((x - 0.2)**2 + (y - -0.35)**2) * 3.0)"
TRIG = "0.5*sin(2*x - y) + cos(x*y) - sin(x)*cos(3*y)"
XS, YS = np.array([-0.3, 0.9]), np.array([0.1, -1.2])
PINNED = {
    GAUSS: {
        "f": ["0x1.077a7f9404ab2p-2", "0x1.baee4304f4225p-5", "0x1.007f5d4e61666p-3",
              "0x1.af31ee74764adp-6", "0x1.5fe4615e98e8fp-1"],
        "fx": ["0x1.8b37bf5e0700bp-1", "0x1.4c32b243b719cp-3", "-0x1.0d52885f19784p-1",
               "-0x1.c4c13a60af681p-4", "-0x1.07eb4906f2aebp+0"],
        "fy": ["-0x1.63b22c3b064d6p-1", "0x1.1a5e4ab98ed5ep-2", "-0x1.5a458ac369e3cp-2",
               "0x1.12e30803d8361p-3", "0x1.07eb4906f2aebp+0"],
    },
    TRIG: {
        "f": ["0x1.eb65fb164f0c6p-1", "0x1.e80adb3ddb8ccp-1", "0x1.7ca4bd2ccbff5p-1",
              "0x1.3e8d4972ead0ap+0", "0x1.8fb434a610139p+0"],
        "fx": ["-0x1.289a9217391c4p-3", "0x1.0d692099882fbp+1", "-0x1.769ea2639c9d8p-1",
               "-0x1.7dac23c6ac44cp+0", "0x1.d831bc8e77a45p-4"],
        "fy": ["-0x1.4e8c9585a48bdp-1", "-0x1.660b88524a01ap-1", "0x1.5b22995050254p-1",
               "0x1.2a11f32e948a2p+1", "-0x1.2fa4e64fc53aep+0"],
    },
}


@pytest.mark.parametrize("text", [GAUSS, TRIG], ids=["gauss", "trig"])
def test_closed_form_values_and_partials_keep_their_bits(text):
    f = Function2D.closed_form(text)
    for name, g in (("f", f), ("fx", f.partial(1)), ("fy", f.partial(2))):
        got = [v.hex() for v in g.eval_grid(XS, YS).ravel().tolist()]
        got.append(float(g(0.45, -0.6)).hex())
        assert got == PINNED[text][name], name


def _complex_horner(phi, xs, ys):
    """The tensor-grid Horner of eval_grid carried out on complex coefficients."""
    pv = np.polynomial.polynomial.polyval
    return pv(ys[None, :], pv(xs, phi.data)[:, :, None], tensor=False)


def test_real_coefficient_polynomials_take_real_horner():
    gen = np.random.default_rng(3)
    small = (3.0 * gen.normal(size=37), 3.0 * gen.normal(size=53))
    mid = -1.1 + 2.2 * (np.arange(2048) + 0.5) / 2048        # rhs_integral's midpoints
    suite = [Function2D.polynomial(c) for c in
             ([[0], [1]], [[0, 1]], [[0], [0], [1]], [[0, 0, 1]], [[0, 0], [0, 1]])]
    cases = [(random_polynomial(Xorshift64Star(seed), 4), small) for seed in (1, 2, 3)]
    cases += [(f.partial(axis), (mid, mid)) for f in suite for axis in (1, 2)]
    for phi, (xs, ys) in cases:
        got, want = phi.eval_grid(xs, ys), _complex_horner(phi, xs, ys)
        assert got.dtype == np.float64 and got.shape == (xs.size, ys.size)
        assert not want.imag.any()
        assert got.tobytes() == np.ascontiguousarray(want.real).tobytes()
    phi = Function2D.polynomial(gen.normal(size=(4, 3)) + 1j * gen.normal(size=(4, 3)))
    got = phi.eval_grid(*small)
    assert got.dtype == np.complex128
    assert got.tobytes() == _complex_horner(phi, *small).tobytes()
    # the one evaluator: scattered points (x and y of one shape) give polyval2d's
    # bits, its real part for real coefficients, and eval_grid is __call__ on
    # the open grid
    x, y = 3.0 * gen.normal(size=(2, 41))
    for phi in [phi] + [f for f, _ in cases]:
        got, want = phi(x, y), np.polynomial.polynomial.polyval2d(x, y, phi.data)
        if not phi.data.imag.any():
            assert got.dtype == np.float64
            want = want.real
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        xs, ys = small
        assert phi.eval_grid(xs, ys).tobytes() == phi(xs[:, None], ys[None, :]).tobytes()


def test_sampled_trig_interpolation():
    grid = UniformGrid(dim=2, period=2 * np.pi, points=32)
    ax = grid.axis()
    vals = np.sin(ax)[:, None] * np.cos(2 * ax)[None, :]
    f = Function2D.sampled(vals, grid)
    assert f(0.3, 0.7) == pytest.approx(np.sin(0.3) * np.cos(1.4), abs=1e-12)
    mat = f.eval_grid([0.1, 0.4], [0.0, 1.0])
    assert mat[1, 1] == pytest.approx(np.sin(0.4) * np.cos(2.0), abs=1e-12)


def test_sampled_spectral_derivative():
    grid = UniformGrid(dim=2, period=2 * np.pi, points=64)
    ax = grid.axis()
    vals = np.sin(3 * ax)[:, None] * np.ones(64)[None, :]
    f = Function2D.sampled(vals, grid)
    assert f.partial(1)(0.2, 0.0) == pytest.approx(3 * np.cos(0.6), abs=1e-10)


def test_polynomial_partials_scale_each_coefficient_by_its_power():
    # a_jk -> j a_jk along x (k a_jk along y) with the top power dropped; an
    # axis with one coefficient gives the (1, 1) zero polynomial
    gen = np.random.default_rng(5)
    for trial in range(40):
        shape = tuple(gen.integers(1, 5, size=2))
        a = gen.normal(size=shape) + (1j * gen.normal(size=shape) if trial % 2 else 0)
        phi = Function2D.polynomial(a)
        for axis in (1, 2):
            n = shape[axis - 1]
            if n == 1:
                want = np.zeros((1, 1), dtype=np.complex128)
            else:
                power = np.arange(1, n, dtype=np.complex128)
                want = (phi.data[1:] * power[:, None] if axis == 1
                        else phi.data[:, 1:] * power[None, :])
            got = phi.partial(axis).data
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_product_trees_of_polynomial_and_closed_form_factors():
    u = Function1D.polynomial([0.5, 0.0, -2.0, 1j])
    c = Function1D.closed_form("exp(-(x*x)) + sin(3*x)")
    poly_x = "(((0.0 + 0.5) + ((-2.0 * x) * x)) + (((1j * x) * x) * x))"
    assert repr(Function2D.product(u, c).data) == (
        f"({poly_x} * (exp((-1.0 * (y * y))) + sin((3.0 * y))))")
    assert repr(Function2D.product(c, u).data) == (
        f"((exp((-1.0 * (x * x))) + sin((3.0 * x))) * {poly_x.replace('x', 'y')})")


def test_grid_validation():
    with pytest.raises(ValueError):
        UniformGrid(dim=3, period=1.0, points=8)
    for period in (0.0, -6.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="grid period must be positive and finite"):
            UniformGrid(dim=1, period=period, points=8)
    grid = UniformGrid(dim=2, period=2 * np.pi, points=8)
    with pytest.raises(ValueError):
        Function2D.sampled(np.zeros((4, 4)), grid)


def _smooth_sampled(points=32):
    grid = UniformGrid(dim=2, period=2 * np.pi, points=points)
    ax = grid.axis()
    vals = (np.exp(np.sin(ax))[:, None] * np.cos(2 * ax + 0.3)[None, :]
            + 0.5j * np.sin(ax)[:, None] * np.sin(3 * ax)[None, :])
    return Function2D.sampled(vals, grid), vals


def test_sampled_evaluations_repeat_bit_identically():
    f, _ = _smooth_sampled()
    xs, ys = np.linspace(-1.0, 1.2, 7), np.linspace(-0.4, 0.9, 3)
    for axis in (1, 2):
        assert np.array_equal(f.partial(axis).eval_grid(xs, ys),
                              f.partial(axis).eval_grid(xs, ys))
    assert np.array_equal(f.eval_grid(xs, ys), f.eval_grid(xs, ys))
    assert np.array_equal(f(xs, xs[::-1]), f(xs, xs[::-1]))


def test_sampled_evaluations_match_fresh_fft():
    f, vals = _smooth_sampled()
    grid = f.grid
    spec = np.fft.fft2(vals)
    ixi = 1j * grid.frequencies()

    def fresh(s, xs, ys):
        e = [np.exp(1j * np.outer(p - (-0.5 * grid.period), grid.frequencies())) / grid.points
             for p in (xs, ys)]
        return e[0] @ s @ e[1].T

    def close(got, want):
        return np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    many, few = np.linspace(-1.0, 1.2, 9), np.array([0.1, -0.7])
    for xs, ys in ((many, few), (few, many)):      # more x than y points, and the reverse
        assert close(f.eval_grid(xs, ys), fresh(spec, xs, ys))
        assert close(f.partial(1).eval_grid(xs, ys), fresh(spec * ixi[:, None], xs, ys))
        assert close(f.partial(2).eval_grid(xs, ys), fresh(spec * ixi[None, :], xs, ys))
    assert close(f(many, many[::-1]), np.diag(fresh(spec, many, many[::-1])))


def test_from_spectrum_samples_on_demand():
    f, vals = _smooth_sampled()
    g = Function2D.from_spectrum(np.fft.fft2(vals), f.grid)
    assert np.abs(g.data - vals).max() <= 1e-13
    assert np.array_equal(g.eval_grid([0.2], [0.5]), f.eval_grid([0.2], [0.5]))
    with pytest.raises(ValueError):
        Function2D.from_spectrum(np.zeros((4, 4)), f.grid)


def _direct(grid, spec, xs, ys):
    return _interp_matrix(grid, xs) @ spec @ _interp_matrix(grid, ys).T


def test_sampled_eval_grid_on_short_boxes_matches_direct_product():
    gen, pts = np.random.default_rng(11), np.random.default_rng(12)
    eps = np.finfo(float).eps
    for n, period in ((32, 2 * np.pi), (256, 32 * np.pi), (512, 32 * np.pi)):
        grid = UniformGrid(dim=2, period=period, points=n)
        ixi = 1j * grid.frequencies()
        spec = gen.normal(size=(n, n)) + 1j * gen.normal(size=(n, n))
        for s in (spec, spec * ixi[:, None], spec * ixi[None, :]):
            f = Function2D.from_spectrum(s, grid)
            # a narrow x box against a wide y box, and two boxes of half-width ~1.2
            for (cx, hx, nx), (cy, hy, ny) in (((0.3, 0.05, 40), (0.0, 4.0, 700)),
                                               ((0.1, 1.3, 300), (-0.2, 1.1, 257))):
                xs = cx + hx * np.sort(gen.uniform(-1, 1, nx))
                ys = cy + hy * np.sort(gen.uniform(-1, 1, ny))
                assert _axis_interp(grid, xs, "x")[1] is not None
                # the node rule leaves at most eps per axis; the rest is rounding
                # of the length-N sums and the barycentric sums, measured <= 5 eps
                err = np.abs(f.eval_grid(xs, ys) - _direct(grid, s, xs, ys)).max()
                assert err <= 32 * eps * np.abs(s).sum() / n ** 2, (n, hx, hy)
                # scattered points through __call__ against the rows of the direct
                # product: in the same boxes, and with y spread over the period
                # (where y mostly gets no nodes) for nx of them
                xp = cx + hx * pts.uniform(-1, 1, max(nx, ny))
                for k, yp in ((ny, cy + hy * pts.uniform(-1, 1, ny)),
                              (nx, period * pts.uniform(-0.5, 0.5, nx))):
                    assert _axis_interp(grid, xp[:k], "x")[1] is not None
                    want = ((_interp_matrix(grid, xp[:k]) @ s)
                            * _interp_matrix(grid, yp)).sum(axis=1)
                    err = np.abs(f(xp[:k], yp) - want).max()
                    assert err <= 32 * eps * np.abs(s).sum() / n ** 2, (n, hx, hy, k)


def test_chebyshev_node_count_is_the_least_that_meets_the_bessel_bound():
    def bound(m, omega):
        if 2 * (m + 1) <= omega:
            return np.inf
        return 4 * (omega / 2) ** m / math.factorial(m) / (1 - omega / (2 * (m + 1)))

    eps = np.finfo(float).eps
    for n, period, h in ((512, 32 * np.pi, 1.3), (256, 32 * np.pi, 0.4),
                         (32, 2 * np.pi, 2.0), (512, 32 * np.pi, 0.01)):
        grid = UniformGrid(dim=2, period=period, points=n)
        e, lag = _axis_interp(grid, np.linspace(0.2 - h, 0.2 + h, 2000), "x")
        m, omega = e.shape[0], h * grid.nyquist
        assert lag.shape == (2000, m) and e.shape == (m, n)
        assert bound(m, omega) <= eps < bound(m - 1, omega), (n, h, m)


def test_sampled_eval_grid_keeps_the_direct_bits_where_nodes_do_not_pay():
    gen = np.random.default_rng(5)
    grid = UniformGrid(dim=2, period=2 * np.pi, points=32)
    spec = gen.normal(size=(32, 32)) + 1j * gen.normal(size=(32, 32))
    f = Function2D.from_spectrum(spec, grid)
    wide = np.linspace(-3.0, 3.0, 40)              # needs more nodes than points
    assert _axis_interp(grid, wide, "x")[1] is None
    for xs, ys in (([0.4], [-0.7]), ([0.4] * 5, [-0.7] * 3), (wide, wide[:25]),
                   (wide, [0.1] * 6)):
        xs, ys = np.asarray(xs), np.asarray(ys)
        assert f.eval_grid(xs, ys).tobytes() == _direct(grid, spec, xs, ys).tobytes()


def test_sampled_eval_grid_point_on_a_node_takes_its_value():
    grid = UniformGrid(dim=2, period=32 * np.pi, points=64)
    xs = np.linspace(-0.5, 0.5, 200)
    e, lag = _axis_interp(grid, xs, "x")
    m = e.shape[0]
    node = np.cos(np.pi / (2 * m)) * 0.5
    e2, lag2 = _axis_interp(grid, np.append(xs, node), "x")
    assert np.array_equal(e2, e) and np.array_equal(lag2[-1], np.eye(m)[0])
    # through __call__, the point (node, node) takes the first node value
    spec = np.random.default_rng(3).normal(size=(64, 64)) + 0j
    p = np.append(xs, node)
    assert Function2D.from_spectrum(spec, grid)(p, p)[-1] == (e2 @ spec @ e2.T)[0, 0]


@pytest.mark.parametrize("axis", ["x", "y"])
def test_sampled_eval_grid_rejects_non_finite_points(axis):
    f, _ = _smooth_sampled()
    good, bad = np.linspace(-0.5, 0.5, 5), np.array([0.1, 0.2, np.nan, np.inf])
    with pytest.raises(ValueError, match=f"non-finite {axis} point nan at index 2"):
        f.eval_grid(*((bad, good) if axis == "x" else (good, bad)))
    with pytest.raises(ValueError, match=f"non-finite {axis} point nan at index 2"):
        f(*((bad, good[:4]) if axis == "x" else (good[:4], bad)))


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return (got.shape == want.shape and got.dtype == want.dtype
            and np.array_equal(got.view(np.float64), want.view(np.float64))
            and got.tobytes() == want.tobytes())


def test_polynomial_eval_grid_matches_polyval2d_bitwise():
    gen = np.random.default_rng(7)
    coeffs = [gen.normal(size=(1, 1)), gen.normal(size=(3, 1)), gen.normal(size=(1, 2)),
              gen.normal(size=(5, 5)) + 1j * gen.normal(size=(5, 5))]
    for c in coeffs:
        phi = Function2D.polynomial(c)
        for nx, ny in ((7, 3), (3, 7), (1, 4), (5, 1), (1, 1)):
            xs, ys = 3.0 * gen.normal(size=nx), 3.0 * gen.normal(size=ny)
            want = np.polynomial.polynomial.polyval2d(
                *np.broadcast_arrays(xs[:, None], ys[None, :]), phi.data)
            if not np.iscomplexobj(c):      # real coefficients: the real part
                assert not want.imag.any()
                want = want.real
            assert _same_bits(phi.eval_grid(xs, ys), want), (c.shape, nx, ny)
