"""Both sides of the trace formula on Toeplitz models.

Left side: for truncations A_N = T_{Re f}, B_N = T_{Im f} of a
trig-polynomial symbol f, form K = i [phi(A_N, B_N), psi(A_N, B_N)] and take
the trace of the leading M x M corner.  The full trace of a finite
commutator is identically zero; the infinite-dimensional trace survives in
the corner because for banded data the truncation defect is pinned to the
bottom-right edge (for the shift model, i [A_N, B_N] = (P_0 - P_{N-1}) / 2
exactly).  For polynomial phi, psi and M, N - M both beyond the combined
bandwidths the corner trace is exact, not asymptotic.  Every caller takes
its corners from one K per truncation size, with 1 <= M <= N/2.

Right side: (1 / 2 pi) times the integral of the Jacobian J(phi, psi)
against the principal function g, the winding number of the symbol curve
gamma(theta) = f(e^{i theta}).  J dx^dy = d(phi dpsi), so Stokes' theorem
with winding multiplicity makes it the mean of phi(gamma) (psi o gamma)'
over [0, 2 pi), which the periodic trapezoid rule sums for every kind of
pair (exactly for polynomials).  Only a g with no symbol, jacobian_scale (the
area integral of |J| over supp g) and the winding experiment's flat integral
take midpoint tensor quadrature over the bounding box of supp g (g is
piecewise constant, so higher-order rules buy nothing).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .doi import _operator, _weighted_sum
from .functions import Function2D, UniformGrid
from .models import PrincipalFunction, Symbol, principal_function, toeplitz_matrix
from .besov import plateau
from .spectral import decompose

IMAG_RESIDUE_RTOL = 1e-10
LOOSE_RESIDUE_RTOL = 1e-3
CONTOUR_NODE_CAP = 2 ** 16

SHIFT_SYMBOL = Symbol.from_dict({1: 1.0})


@dataclass
class TraceExperimentConfig:
    """Inputs of one trace-formula experiment.

    symbol f defines the model pair A = T_{Re f}, B = T_{Im f}; the default
    is the shift model (A = T_cos, B = T_sin, principal function = indicator
    of the unit disk).  m defaults to n // 4.
    """

    phi: Function2D
    psi: Function2D
    symbol: Symbol = field(default_factory=lambda: SHIFT_SYMBOL)
    n: int = 128
    m: int | None = None
    resolution: int = 2048
    n_table: tuple = (128, 256, 512)
    m_fractions: tuple = (0.125, 0.25, 0.5)

    def corner(self) -> int:
        """The corner size m (default n // 4), checked to lie in 1..n/2."""
        m = self.m if self.m is not None else self.n // 4
        if not 1 <= m <= self.n // 2:
            raise ValueError(f"corner size {m} must lie in 1..n/2 = 1..{self.n // 2}")
        return m


@dataclass(frozen=True)
class TraceReport:
    lhs: float
    rhs: float
    abs_err: float
    rel_err: float
    imag_residue: float
    jacobian_scale: float
    convergence: tuple


def corner_trace(k: np.ndarray, m: int,
                 residue_rtol: float | None = IMAG_RESIDUE_RTOL) -> tuple[float, float]:
    """(real corner trace, imaginary residue) of the leading m x m block.

    The strict default residue_rtol fits the exact polynomial path; sampled
    test functions make phi(A,B) mildly non-self-adjoint at finite N, so
    those callers pass a loose sanity tolerance and report the residue.
    """
    diag = np.diag(k)[:m]
    total = complex(diag.sum())
    scale = max(float(np.abs(k).max()), 1e-300)
    residue = abs(total.imag)
    if residue_rtol is not None and residue > residue_rtol * scale * max(m, 1) + 1e-15:
        raise ArithmeticError(
            f"corner trace imaginary residue {residue:.3g} exceeds "
            f"{residue_rtol:.0e} * ||K|| * m = {residue_rtol * scale * m:.3g}")
    return float(total.real), residue


def _corner_traces(cfg: TraceExperimentConfig, pairs, corners, table=()) -> list:
    """Per (phi, psi) in pairs, [(corner trace, imaginary residue)] of
    K = i [phi(A_n, B_n), psi(A_n, B_n)] on the model pair of cfg.symbol at
    n = cfg.n (decomposed once, each matrix freed with its decomposition; each
    distinct function's weighted sum formed once), one per corner size, then
    one per (informational) table corner.  The Toeplitz pair is
    centrohermitian, so each sum is the G of phi(A, B) = Q G Q* in the real
    basis, and K = i Q X Q* with X = G_phi G_psi - G_psi G_phi comes from
    index slices; U = Q V is never lifted.

    Every corner passes cfg.corner().  The residue tolerance of a pair's
    corners (not table corners) is strict on the exact polynomial path and a
    loose sanity cap otherwise (sampled and closed-form functions make
    phi(A,B) mildly non-self-adjoint at finite n; the residue is reported
    instead); a polynomial corner that reaches the boundary bandwidth warns,
    since exactness needs m, n - m beyond it.
    """
    corners = [replace(cfg, m=m).corner() for m in corners]
    table = [replace(cfg, m=m).corner() for m in table]
    decs = [decompose(toeplitz_matrix(part, cfg.n))
            for part in (cfg.symbol.real_part(), cfg.symbol.imag_part())]
    funcs = {id(f): f for pair in pairs for f in pair}
    sums = {key: _weighted_sum(f, *decs, None) for key, f in funcs.items()}
    out = []
    for phi, psi in pairs:
        exact = phi.kind == psi.kind == "polynomial"
        span = cfg.symbol.degree * sum(max(f.data.shape) - 1 for f in (phi, psi)) if exact else 0
        for m in corners + table:
            if span and m >= cfg.n - span:
                warnings.warn(
                    f"corner {m} reaches within the boundary bandwidth {span} of "
                    f"n = {cfg.n}; polynomial exactness is not guaranteed", stacklevel=3)
        g1, g2 = sums[id(phi)], sums[id(psi)]
        k = 1j * _operator(g1 @ g2 - g2 @ g1, *decs)
        rtol = IMAG_RESIDUE_RTOL if exact else LOOSE_RESIDUE_RTOL
        out.append([corner_trace(k, m, rtol) for m in corners]
                   + [corner_trace(k, m, None) for m in table])
    return out


def rhs_integral(phi: Function2D, psi: Function2D, g: PrincipalFunction,
                 resolution: int = 2048) -> float:
    """(1/2pi) * integral of Jacobian(phi, psi) * g: the contour sum on the
    symbol curve when g carries its symbol, else the midpoint quadrature at
    resolution^2 points over supp g's box."""
    if isinstance(g, PrincipalFunction):
        return _contour_integral(phi, psi, g.symbol)
    return _grid_integrals(phi, psi, g, resolution)[0]


def _contour_integral(phi: Function2D, psi: Function2D, f: Symbol) -> float:
    """Mean over [0, 2pi) of phi(gamma) * (psi o gamma)', gamma(theta) =
    f(e^{i theta}), by the periodic trapezoid rule.  The node count starts
    above deg f * (deg phi + deg psi) for polynomials (total degrees; the
    rule is exact there) and at 64 otherwise, and doubles until two sums
    agree within 64 eps times the mean |term|, or raises ArithmeticError
    past CONTOUR_NODE_CAP nodes."""
    poly = phi.kind == psi.kind == "polynomial"
    deg = sum(int(np.add(*np.nonzero(p.data)).max(initial=0)) for p in (phi, psi)) if poly else 0
    nodes, last = 2 ** (f.degree * deg).bit_length() if poly else 64, math.inf
    ks = np.arange(-f.degree, f.degree + 1)
    d1, d2 = psi.partial(1), psi.partial(2)
    while True:
        e = np.exp(1j * np.multiply.outer(2.0 * np.pi * np.arange(nodes) / nodes, ks))
        z, dz = (e * f.coeffs).sum(axis=1), (e * (1j * ks * f.coeffs)).sum(axis=1)
        x, y = z.real, z.imag
        terms = np.real(phi(x, y) * (d1(x, y) * dz.real + d2(x, y) * dz.imag))
        value = math.fsum(terms) / nodes
        if (diff := abs(value - last)) <= 64 * np.finfo(float).eps * np.abs(terms).mean():
            return value
        if nodes >= CONTOUR_NODE_CAP:
            raise ArithmeticError(f"contour sum not settled at {nodes} nodes: "
                                  f"last difference {diff:.3g}")
        last, nodes = value, 2 * nodes


def _grid_integrals(phi: Function2D, psi: Function2D, g, resolution: int):
    """(integral, jacobian_scale) by midpoint quadrature; jacobian_scale
    integrates |Jacobian| over supp g, the magnitude against which near-zero
    integrals should be judged."""
    jac, gvals, cell = _midpoint_jacobian(phi, psi, g, resolution)
    return (float((np.real(jac) * gvals).sum() * cell / (2.0 * np.pi)),
            float((np.abs(jac) * (gvals != 0)).sum() * cell / (2.0 * np.pi)))


def _midpoint_jacobian(phi: Function2D, psi: Function2D, g, resolution: int):
    """(Jacobian d(phi, psi)/d(x, y), g, cell area) at the midpoints of a
    resolution x resolution tensor grid over g's bounding box, both arrays in
    (x, y) indexing."""
    if resolution < 1:
        raise ValueError(f"quadrature resolution must be at least 1, got {resolution}")
    xmin, xmax, ymin, ymax = g.bounding_box()
    xs = xmin + (xmax - xmin) * (np.arange(resolution) + 0.5) / resolution
    ys = ymin + (ymax - ymin) * (np.arange(resolution) + 0.5) / resolution
    cell = (xmax - xmin) * (ymax - ymin) / resolution ** 2
    jac = (phi.partial(1).eval_grid(xs, ys) * psi.partial(2).eval_grid(xs, ys)
           - phi.partial(2).eval_grid(xs, ys) * psi.partial(1).eval_grid(xs, ys))
    return jac, g.on_grid(xs, ys).T, cell


def trace_formula_experiment(cfg: TraceExperimentConfig) -> TraceReport:
    """Corner-trace left side vs principal-function right side, with a
    convergence table over (n, m) pairs whose rows carry their imaginary
    residue; jacobian_scale is the grid quadrature at cfg.resolution."""
    m = cfg.corner()
    sizes = [replace(cfg, n=n) for n in cfg.n_table]
    table_m = [[replace(c, m=max(1, int(c.n * frac))).corner() for frac in cfg.m_fractions]
               for c in sizes]
    at_n = next((ms for c, ms in zip(sizes, table_m) if c.n == cfg.n), [])
    g = principal_function(cfg.symbol)
    rhs = rhs_integral(cfg.phi, cfg.psi, g)
    scale = _grid_integrals(cfg.phi, cfg.psi, g, cfg.resolution)[1]
    [[(lhs, residue), *own]] = _corner_traces(cfg, [(cfg.phi, cfg.psi)], [m], at_n)
    table = []
    for c, ms in zip(sizes, table_m):
        vals = own if c.n == cfg.n else _corner_traces(c, [(c.phi, c.psi)], [], ms)[0]
        table += [{"n": c.n, "m": mm, "lhs": val, "abs_err": abs(val - rhs),
                   "imag_residue": res} for mm, (val, res) in zip(ms, vals)]
    abs_err = abs(lhs - rhs)
    rel_err = abs_err / abs(rhs) if abs(rhs) > 1e-300 else float("inf")
    return TraceReport(lhs=lhs, rhs=rhs, abs_err=abs_err, rel_err=rel_err,
                       imag_residue=residue, jacobian_scale=scale,
                       convergence=tuple(table))


def polynomial_suite(n: int = 128, m: int | None = None):
    """The five-pair polynomial suite on the shift model.

    Pairs ((x, y), (x^2, y), (x, y^2), (x^2, y^2), (x^2, xy)) have exact
    right sides (1/2, 0, 0, 0, 1/4); corner traces are exact finite algebra
    at these sizes.  Returns a list of result dicts.
    """
    x, y, x2, y2, xy = map(Function2D.polynomial, ([[0], [1]], [[0, 1]], [[0], [0], [1]],
                                                   [[0, 0, 1]], [[0, 0], [0, 1]]))
    suite = [("x,y", x, y, 0.5), ("x^2,y", x2, y, 0.0), ("x,y^2", x, y2, 0.0),
             ("x^2,y^2", x2, y2, 0.0), ("x^2,xy", x2, xy, 0.25)]
    cfg = TraceExperimentConfig(x, y, n=n, m=m)
    lhs_rows = _corner_traces(cfg, [(phi, psi) for _, phi, psi, _ in suite], [cfg.corner()])
    g = principal_function(SHIFT_SYMBOL)
    out = []
    for (name, phi, psi, exact), [(lhs, residue)] in zip(suite, lhs_rows):
        rhs = rhs_integral(phi, psi, g)
        out.append({"pair": name, "lhs": lhs, "rhs": rhs, "exact": exact,
                    "lhs_err": abs(lhs - exact), "rhs_err": abs(rhs - exact),
                    "imag_residue": residue})
    return out


# ---------------------------------------------------------------------------
# winding-factor experiment


def plateau_coordinate_pair(inner: float, outer: float):
    """(x * chi(r), y * chi(r)) with a radial plateau chi = 1 for r <= inner.

    Sampled on a 512^2 periodic grid of period 32 pi; their Jacobian is
    exactly 1 on the plateau, so the pair straddles every jump curve of a
    principal function supported inside radius inner.
    """
    grid = UniformGrid(dim=2, period=32.0 * np.pi, points=512)
    ax = grid.axis()
    xg, yg = np.meshgrid(ax, ax, indexing="ij")
    r = np.sqrt(xg ** 2 + yg ** 2)
    chi = plateau(r, inner, outer)
    phi = Function2D.sampled(xg * chi, grid)
    psi = Function2D.sampled(yg * chi, grid)
    return phi, psi


def winding_factor_experiment(symbol: Symbol, n_table=(128, 256, 512),
                              resolution: int = 1024):
    """Measure the trace formula's sensitivity to the principal function's
    integer values.

    Test pair: coordinate functions under a radial plateau covering the
    symbol curve, so the Jacobian is 1 on supp g.  For each truncation size
    the corner trace is compared with rhs_integral, the contour sum
    (consistency), and with the flat grid quadrature at resolution^2 points
    (g replaced by the indicator of its support); the lhs / flat ratio
    measures the area-weighted mean of g, and equals the winding multiplicity
    when g is a single m-fold region.  The corner at each n is the default
    n // 4.
    """
    g = principal_function(symbol)
    curve_radius = float(np.abs(symbol.curve()).max())
    phi, psi = plateau_coordinate_pair(curve_radius + 0.4, curve_radius + 1.6)
    rhs_true = rhs_integral(phi, psi, g)
    jac, gvals, cell = _midpoint_jacobian(phi, psi, g, resolution)
    rhs_flat = float((np.real(jac) * (gvals != 0)).sum() * cell / (2.0 * np.pi))
    rows = []
    for n in n_table:
        cfg = TraceExperimentConfig(phi, psi, symbol, n=n)
        [[(lhs, _)]] = _corner_traces(cfg, [(phi, psi)], [cfg.corner()])
        rows.append({"n": n, "lhs": lhs, "ratio_flat": lhs / rhs_flat,
                     "err_true": abs(lhs - rhs_true)})
    return {"rhs_true": rhs_true, "rhs_flat": rhs_flat, "rows": rows}
