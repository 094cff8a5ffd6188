"""Concrete one- and two-variable function representations.

Three interchangeable forms are supported for functions of two variables:
polynomial coefficient matrices, band-limited samples on a periodic grid
(evaluated anywhere by trigonometric interpolation), and closed-form
expression trees over {+, *, exp, sin, cos}, read from text by Python's
own grammar (parse_expr).  A product u(x)v(y) is built as one of them: a
polynomial when both factors are, a closed form otherwise; a function of one
variable is a polynomial or a closed form.  Polynomials and closed forms
differentiate exactly; sampled functions differentiate spectrally.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, fields, replace

import numpy as np


# ---------------------------------------------------------------------------
# expression trees


class Expr:
    """Closed-form expression node; vectorized evaluation over numpy arrays."""

    def __add__(self, other):
        return Add(self, _as_expr(other))

    def __radd__(self, other):
        return Add(_as_expr(other), self)

    def __mul__(self, other):
        return Mul(self, _as_expr(other))

    def __rmul__(self, other):
        return Mul(_as_expr(other), self)

    def __sub__(self, other):
        return Add(self, Mul(Const(-1.0), _as_expr(other)))

    def __rsub__(self, other):
        return Add(_as_expr(other), Mul(Const(-1.0), self))

    def __neg__(self):
        return Mul(Const(-1.0), self)

    def eval(self, x, y):
        raise NotImplementedError

    def diff(self, var: str) -> "Expr":
        raise NotImplementedError


def _as_expr(v) -> Expr:
    if isinstance(v, Expr):
        return v
    return Const(complex(v))


@dataclass(frozen=True)
class Const(Expr):
    value: complex

    def eval(self, x, y):
        return self.value

    def diff(self, var):
        return Const(0.0)

    def __repr__(self):
        v = complex(self.value)
        return repr(v.real) if v.imag == 0 else repr(v)


@dataclass(frozen=True)
class Var(Expr):
    name: str  # "x" or "y"

    def eval(self, x, y):
        return x if self.name == "x" else y

    def diff(self, var):
        return Const(1.0 if var == self.name else 0.0)

    def __repr__(self):
        return self.name


@dataclass(frozen=True)
class Add(Expr):
    a: Expr
    b: Expr

    def eval(self, x, y):
        return self.a.eval(x, y) + self.b.eval(x, y)

    def diff(self, var):
        return Add(self.a.diff(var), self.b.diff(var))

    def __repr__(self):
        return f"({self.a!r} + {self.b!r})"


@dataclass(frozen=True)
class Mul(Expr):
    a: Expr
    b: Expr

    def eval(self, x, y):
        return self.a.eval(x, y) * self.b.eval(x, y)

    def diff(self, var):
        return Add(Mul(self.a.diff(var), self.b), Mul(self.a, self.b.diff(var)))

    def __repr__(self):
        return f"({self.a!r} * {self.b!r})"


_CALLS = {"exp": np.exp, "sin": np.sin, "cos": np.cos}


@dataclass(frozen=True)
class Call(Expr):
    name: str  # a key of _CALLS
    a: Expr

    def eval(self, x, y):
        return _CALLS[self.name](self.a.eval(x, y))

    def diff(self, var):
        da = self.a.diff(var)
        if self.name == "exp":
            return Mul(da, self)
        if self.name == "sin":
            return Mul(da, Call("cos", self.a))
        return Mul(Const(-1.0), Mul(da, Call("sin", self.a)))

    def __repr__(self):
        return f"{self.name}({self.a!r})"


#: most nodes of a parsed text, as Python's syntax tree and as the tree written
#: out (a**k repeats a k times): evaluation and diff recurse once per level
MAX_EXPR_NODES = 256
_UNARY = {ast.UAdd: lambda a: a, ast.USub: lambda a: -a}
_BINARY = {ast.Add: lambda a, b: a + b, ast.Sub: lambda a, b: a - b, ast.Mult: Mul}


def parse_expr(text: str) -> Expr:
    """Parse "exp(-(x*x + y*y)) + 0.5*sin(x)" style expressions.

    The text is read by Python's own grammar, so precedence is Python's:
    -x**2 is -(x**2).  The walk keeps decimal numbers, x, y, exp/sin/cos of
    one argument, binary + - * / and unary + -; "**" takes only a
    nonnegative integral literal exponent and "/" only a nonzero numeric
    literal divisor.  Anything else is a ValueError naming its source text.
    Trees are built by Expr's operators, with no folding: a - b is
    a + (-1)*b, -a is (-1)*a (but -c is one Const for a numeric literal c, so
    -1.0 reads back as it prints), a**k a product chain from 1.0, a/c is a*(1/c).
    A text over MAX_EXPR_NODES nodes is refused before a**k is written out.
    """
    src = text.strip()
    too_big = ValueError(f"more than {MAX_EXPR_NODES} expression nodes in {text!r}")
    try:
        body = ast.parse(src, mode="eval").body
    except SyntaxError as err:
        raise ValueError(f"{err.msg} in {text!r}") from None
    except RecursionError:   # nested past the parser's depth limit
        raise too_big from None
    if sum(isinstance(node, ast.expr) for node in ast.walk(body)) > MAX_EXPR_NODES:
        raise too_big

    def size(e):   # nodes of e written out: a shared subtree counts at each use
        return 1 + sum(size(v) for fd in fields(e) if isinstance(v := getattr(e, fd.name), Expr))

    def fail(what, node):
        return ValueError(f"{what} {ast.get_source_segment(src, node)!r} in {text!r}")

    def literal(node, what, ok):
        c = walk(node)
        if not isinstance(c, Const) or not ok(c.value):
            raise fail(f"{what}, not", node)
        return c.value

    def walk(node) -> Expr:
        if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
            return _BINARY[type(node.op)](walk(node.left), walk(node.right))
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            a = walk(node.left)
            c = literal(node.right, "divisor must be a nonzero numeric literal", lambda c: c != 0)
            return Mul(a, Const(1.0 / c))
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            a = walk(node.left)
            k = literal(node.right, "exponent must be a nonnegative integral literal",
                        lambda k: k == int(k) and k >= 0)
            if 1 + k * (size(a) + 1) > MAX_EXPR_NODES:
                raise too_big
            out = Const(1.0)
            for _ in range(int(k)):
                out = Mul(out, a)
            return out
        if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY:
            a, sign = walk(node.operand), _UNARY[type(node.op)]
            return Const(sign(a.value)) if isinstance(node.operand, ast.Constant) else sign(a)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in _CALLS and len(node.args) == 1 and not node.keywords):
            return Call(node.func.id, walk(node.args[0]))
        if isinstance(node, ast.Name) and node.id in ("x", "y"):
            return Var(node.id)
        # nan and inf are names to Python; float() would also read "1_000"
        seg = ast.get_source_segment(src, node)
        if isinstance(node, ast.Name) or (isinstance(node, ast.Constant) and "_" not in seg
                                          and type(node.value) in (int, float)):
            try:
                value = float(seg)
            except ValueError:
                raise fail("unsupported", node) from None
            if not np.isfinite(value):
                raise fail("non-finite number", node)
            return Const(value)
        raise fail("unsupported", node)

    if size(tree := walk(body)) > MAX_EXPR_NODES:
        raise too_big
    return tree


# ---------------------------------------------------------------------------
# periodic grids and sampled data


@dataclass(frozen=True)
class UniformGrid:
    """Uniform periodic grid on [-L/2, L/2)^d with N points per axis."""

    dim: int
    period: float
    points: int

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError("grid dimension must be 1 or 2")
        if self.points < 2:
            raise ValueError("grid needs at least 2 points per axis")
        if not 0 < self.period < np.inf:
            raise ValueError(f"grid period must be positive and finite, got {self.period}")

    @property
    def spacing(self) -> float:
        return self.period / self.points

    @property
    def nyquist(self) -> float:
        """Largest resolvable |frequency| (radians per unit length)."""
        return np.pi * self.points / self.period

    def axis(self) -> np.ndarray:
        return -0.5 * self.period + self.spacing * np.arange(self.points)

    def frequencies(self) -> np.ndarray:
        """Signed angular frequencies (radians per unit length) in FFT bin order."""
        return 2.0 * np.pi * np.fft.fftfreq(self.points, d=self.spacing)

    def radial_frequencies(self) -> np.ndarray:
        """|xi| per FFT bin: 1-d vector, or 2-d array for dim 2."""
        xi = self.frequencies()
        if self.dim == 1:
            return np.abs(xi)
        return np.sqrt(xi[:, None] ** 2 + xi[None, :] ** 2)


def _interp_matrix(grid: UniformGrid | tuple, points: np.ndarray) -> np.ndarray:
    """E[p, k] = exp(i xi_k (points_p - x0)) / N, for Fourier-series evaluation;
    for a (grid, bins) pair, only the columns k of those FFT bins."""
    grid, bins = grid if isinstance(grid, tuple) else (grid, slice(None))
    xi = grid.frequencies()[bins]
    x0 = -0.5 * grid.period
    return np.exp(1j * np.outer(np.asarray(points, dtype=float) - x0, xi)) / grid.points


def _axis_interp(grid: UniformGrid, points: np.ndarray, axis: str):
    """(E, L) with L @ (E @ s) the Fourier series of spectrum column s at the
    points; L is None when E is _interp_matrix at the points themselves.

    On the points' interval [c - h, c + h] every row exp(i xi x) has
    Chebyshev coefficients i^m (2 - delta_m0) J_m(xi h) with |xi h| <= omega =
    h nyquist and |J_m(xi h)| <= (omega/2)^m / m!, so interpolation at the M
    first-kind Chebyshev nodes is off by at most 4 (omega/2)^M / M! /
    (1 - omega / (2 (M + 1))) per row.  For the least M that puts this under
    eps, and M below the point count, E is _interp_matrix at the nodes and L
    the barycentric matrix from nodes to points; a point on a node takes its
    value.
    """
    if not np.isfinite(points).all():
        i = int(np.argmin(np.isfinite(points)))
        raise ValueError(f"non-finite {axis} point {points[i]} at index {i}")
    npts = points.size
    lo, hi = (points.min(), points.max()) if npts else (0.0, 0.0)
    c, h = 0.5 * (hi + lo), 0.5 * (hi - lo)
    half, term, m = 0.5 * h * grid.nyquist, 4.0, 0
    while m < npts:
        m += 1
        term *= half / m
        if m + 1 > half and term / (1.0 - half / (m + 1)) <= np.finfo(float).eps:
            break
    if h == 0 or m >= npts:
        return _interp_matrix(grid, points), None
    theta = (2 * np.arange(m) + 1) * np.pi / (2 * m)
    nodes = c + h * np.cos(theta)
    d = points[:, None] - nodes[None, :]
    hit = d == 0
    q = (-1.0) ** np.arange(m) * np.sin(theta) / np.where(hit, 1.0, d)
    lag = q / q.sum(axis=1, keepdims=True)
    rows = hit.any(axis=1)
    lag[rows] = hit[rows]
    return _interp_matrix(grid, nodes), lag


# ---------------------------------------------------------------------------
# one-variable functions


class Function1D:
    """One-variable function: polynomial coefficients or a closed form.

    Supports pointwise evaluation and exact differentiation.
    """

    def __init__(self, kind: str, data):
        if kind not in ("polynomial", "closed_form"):
            raise ValueError(f"unknown Function1D kind {kind!r}")
        self.kind = kind
        if kind == "polynomial":
            self.data = np.atleast_1d(np.asarray(data, dtype=np.complex128))
        else:
            if not isinstance(data, Expr):
                raise TypeError("closed_form expects an Expr")
            if "y" in _vars(data):
                raise ValueError(f"a one-variable closed form is written in x: {data!r}")
            self.data = data

    @classmethod
    def polynomial(cls, coeffs) -> "Function1D":
        return cls("polynomial", coeffs)

    @classmethod
    def closed_form(cls, expr) -> "Function1D":
        if isinstance(expr, str):
            expr = parse_expr(expr)
        return cls("closed_form", expr)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "polynomial":
            return np.polynomial.polynomial.polyval(x, self.data)
        out = np.asarray(self.data.eval(x, None))
        return out + np.zeros(x.shape) if out.shape != x.shape else out

    def derivative(self) -> "Function1D":
        if self.kind == "polynomial":
            return Function1D.polynomial(np.polynomial.polynomial.polyder(self.data))
        return Function1D.closed_form(self.data.diff("x"))


# ---------------------------------------------------------------------------
# two-variable functions


class Function2D:
    """Two-variable function in one of three concrete forms.

    polynomial: coefficient matrix a[j, k] for sum a_jk x^j y^k (exact Horner
    evaluation); sampled: values on a square periodic grid, evaluated off-grid
    by trigonometric interpolation from its fft2 spectrum (computed once per
    object; partial derivatives are built from it directly); closed_form: an
    expression tree.  Function2D.product builds u(x) v(y) as one of these.
    A sampled function built from its spectrum holds it on its support only
    (from_spectrum).
    """

    _lattice = (None, None)     # (lattice bytes, interpolation matrix): lattice_evaluator
    _bins = slice(None)         # FFT bins of both axes that _spec holds: from_spectrum

    def __init__(self, kind: str, data, grid: UniformGrid | None = None):
        if kind not in ("polynomial", "sampled", "closed_form"):
            raise ValueError(f"unknown Function2D kind {kind!r}")
        self.kind = kind
        self.grid = grid
        self._spec = None
        self.real = False
        if kind == "polynomial":
            self._data = np.atleast_2d(np.asarray(data, dtype=np.complex128))
        elif kind == "sampled":
            _check_square_grid(grid, np.shape(data))
            self._data = np.asarray(data, dtype=np.complex128)
        else:
            if isinstance(data, str):
                data = parse_expr(data)
            if not isinstance(data, Expr):
                raise TypeError("closed_form expects an Expr or string")
            self._data = data

    @property
    def data(self):
        """Coefficients, expression tree or grid samples.  The samples of a
        function built from its spectrum are computed on first read."""
        if self._data is None:
            self._data = np.fft.ifft2(self.spectrum())
        return self._data

    def _support_spectrum(self) -> np.ndarray:
        """The spectrum on the bins _bins of both axes; for a function given
        by its samples, their fft2 on every bin, computed once per object."""
        if self.kind != "sampled":
            raise ValueError(f"a {self.kind} function has no grid spectrum")
        if self._spec is None:
            self._spec = np.fft.fft2(self._data)
        return self._spec

    def spectrum(self) -> np.ndarray:
        """fft2 of the samples of a sampled function, on the full plane."""
        spec = self._support_spectrum()
        if isinstance(self._bins, slice):
            return spec
        full = np.zeros((self.grid.points,) * 2, dtype=np.complex128)
        full[np.ix_(self._bins, self._bins)] = spec
        return full

    @classmethod
    def polynomial(cls, coeffs) -> "Function2D":
        return cls("polynomial", coeffs)

    @classmethod
    def product(cls, u: Function1D, v: Function1D) -> "Function2D":
        """u(x) v(y): the outer product of the coefficients of two polynomial
        factors, else the closed form of the product of the factors' trees."""
        if u.kind == "polynomial" and v.kind == "polynomial":
            return cls.polynomial(np.outer(u.data, v.data))
        return cls.closed_form(Mul(_one_var_expr(u, "x"), _one_var_expr(v, "y")))

    @classmethod
    def sampled(cls, values, grid: UniformGrid) -> "Function2D":
        return cls("sampled", values, grid)

    @classmethod
    def closed_form(cls, expr) -> "Function2D":
        return cls("closed_form", expr)

    @classmethod
    def from_spectrum(cls, spec, grid: UniformGrid, real: bool = False) -> "Function2D":
        """Sampled function given by the fft2 of its samples on grid; real
        marks real samples with no Nyquist content (an LP band of real
        samples), whose interpolant is real up to rounding.  The function
        holds the spectrum on its support only: the bins of an axis where a
        row or a column of it is not exactly zero, the same on both axes.  A
        spectrum with no zero row or column is held whole."""
        spec = np.asarray(spec, dtype=np.complex128)
        _check_square_grid(grid, spec.shape)
        out = cls.__new__(cls)
        if (bins := np.flatnonzero(spec.any(axis=0) | spec.any(axis=1))).size < grid.points:
            out._bins, spec = bins, spec[np.ix_(bins, bins)]
        out.kind, out.grid, out._data, out._spec, out.real = "sampled", grid, None, spec, real
        return out

    def __call__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if self.kind == "polynomial":
            # polyval2d's Horner, in x then in y, on unbroadcast points; real
            # coefficients take the same steps in real arithmetic, which give
            # the real part of the complex result bit for bit
            pv = np.polynomial.polynomial.polyval
            a = self.data if self.data.imag.any() else self.data.real
            return pv(y, pv(x, a), tensor=False)
        if self.kind == "closed_form":
            out = self.data.eval(x, y)
            return np.asarray(out) + np.zeros(np.broadcast_shapes(x.shape, y.shape))
        # eval_grid's diagonal with no K x K stage: row sums of (L_x E_x S E_y^T) o L_y,
        # or of (L_x E_x S) o E_y when y has no nodes; an axis without nodes has no L
        shape = np.broadcast_shapes(x.shape, y.shape)
        (ex, lx), (ey, ly) = (_axis_interp(self.grid, np.broadcast_to(p, shape).ravel(), a)
                              for p, a in ((x, "x"), (y, "y")))
        t, right = (ex @ self.spectrum(), ey) if ly is None else (ex @ self.spectrum() @ ey.T, ly)
        return ((t if lx is None else lx @ t) * right).sum(axis=1).reshape(shape)

    def eval_grid(self, xs, ys) -> np.ndarray:
        """Matrix of values phi(xs[i], ys[j]) on the tensor grid xs x ys.  A sampled
        function goes through Chebyshev nodes on an axis whose points span a
        short enough interval (_axis_interp, as __call__ does for scattered
        points), and rejects non-finite points."""
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if self.kind == "sampled":
            (ex, lx), (ey, ly) = _axis_interp(self.grid, xs, "x"), _axis_interp(self.grid, ys, "y")
            out = ex @ self.spectrum() @ ey.T
            out = out if lx is None else lx @ out
            return out if ly is None else out @ ly.T
        return self(xs[:, None], ys[None, :])

    def lattice_evaluator(self, axis: int, lattice):
        """points -> (values, partial values along axis), each (J, npts), of a
        sampled function on the grid with the J lattice points in the given axis
        and the points in the other.

        The function keeps the interpolation matrix of its last lattice (both
        axes of a band share one); each call contracts the spectrum with the
        points once, keeping real parts for a function marked real.  Both
        run over the K bins of the function's support (from_spectrum) only.
        """
        spec = self._support_spectrum()
        if axis not in (1, 2):
            raise ValueError("axis must be 1 or 2")
        spec = spec if axis == 1 else spec.T                          # lattice axis first
        support = (self.grid, self._bins)
        if self._lattice[0] != (key := np.asarray(lattice, dtype=float).tobytes()):
            self._lattice = (key, _interp_matrix(support, lattice))
        e_lat = self._lattice[1]                                      # (J, K)
        ixi = 1j * self.grid.frequencies()[self._bins]

        def evaluate(points):
            m = spec @ _interp_matrix(support, points).T             # (K, npts)
            vals, dvals = e_lat @ m, (e_lat * ixi) @ m
            return (vals.real, dvals.real) if self.real else (vals, dvals)
        return evaluate

    def partial(self, axis: int) -> "Function2D":
        """Exact partial derivative along axis 1 (x) or 2 (y)."""
        if axis not in (1, 2):
            raise ValueError("axis must be 1 or 2")
        if self.kind == "polynomial":
            a = self.data
            return Function2D.polynomial(np.zeros((1, 1)) if a.shape[axis - 1] == 1
                                         else np.polynomial.polynomial.polyder(a, axis=axis - 1))
        if self.kind == "closed_form":
            return Function2D.closed_form(self.data.diff("x" if axis == 1 else "y"))
        xi = 1j * self.grid.frequencies()
        return Function2D.from_spectrum(
            self.spectrum() * (xi[:, None] if axis == 1 else xi[None, :]), self.grid)

    def sample(self, grid: UniformGrid) -> "Function2D":
        """Resample onto a 2-d periodic grid."""
        if self.kind == "sampled" and self.grid == grid:
            return self
        ax = grid.axis()
        return Function2D.sampled(self.eval_grid(ax, ax), grid)


def _check_square_grid(grid: UniformGrid | None, shape) -> None:
    if grid is None or grid.dim != 2:
        raise ValueError("sampled Function2D needs a 2-d grid")
    if tuple(shape) != (grid.points, grid.points):
        raise ValueError("sample shape does not match grid")


def _one_var_expr(f: Function1D, var: str) -> Expr:
    """The tree of f in the variable var ("x" or "y").  A polynomial is
    0 + c_k v^k summed over its nonzero coefficients, each power written as
    k factors v."""
    if f.kind == "closed_form":
        return f.data if var == "x" else _swap_vars(f.data)
    node: Expr = Const(0.0)
    for k, c in enumerate(f.data):
        if c != 0:
            term: Expr = Const(c)
            for _ in range(k):
                term = Mul(term, Var(var))
            node = Add(node, term)
    return node


def _vars(e: Expr) -> set[str]:
    if isinstance(e, Var):
        return {e.name}
    return set().union(*(_vars(v) for fd in fields(e)
                         if isinstance(v := getattr(e, fd.name), Expr)))


def _swap_vars(e: Expr) -> Expr:
    if isinstance(e, Var):
        return Var("y" if e.name == "x" else "x")
    return replace(e, **{fd.name: _swap_vars(v) for fd in fields(e)
                         if isinstance(v := getattr(e, fd.name), Expr)})
