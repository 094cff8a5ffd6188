"""Triple operator integrals in finite dimensions.

A three-variable integrand Psi acts on a pair (T, R) through the spectral
measures of three Hermitian operators:

    W = sum_{i,j,k} Psi(lambda_i, mu_j, nu_k)  P_i T Q_j R S_k.

Besides this direct spectral sum, Psi may be given by a structured
representation in one factored form,

    Psi(x_1, x_2, x_3) = sum_{j,k} u_j(x_p) D_jk(x_s) v_k(x_q)   (p < q),

whose kinds differ only in the slot s of the variable the doubly-indexed
factor depends on: x_1 for the second kind, x_2 for the Haagerup kind, x_3
for the first kind.  A projective sum sum_n f_n(x_1) g_n(x_2) h_n(x_3) is
the Haagerup case with diagonal D_nn = g_n.  In finite dimensions every kind
evaluates to the same operator; the slot fixes the norm certificate: the
Haagerup kind bounds ||W|| by (representation norm) * ||T|| * ||R||, the
first kind bounds ||W||_S1 with ||T||_S1 * ||R||, and the second kind with
||T|| * ||R||_S1.  A representation is evaluated only on tensor grids of
spectra (HaagerupRep.evaluate_grid).

Sums run in fixed ascending index order with compensated (Kahan)
accumulation, so results are reproducible bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .functions import Function2D
from .spectral import decompose, schatten_norm

#: kind -> zero-based slot of the variable its doubly-indexed factor depends on
SLOTS = {"second_kind": 0, "haagerup": 1, "projective": 1, "first_kind": 2}

#: slot -> Schatten exponents of (W, T, R) in the certified norm inequality
_CERT_EXPONENTS = ((1, np.inf, 1), (np.inf, np.inf, np.inf), (1, 1, np.inf))


def _family(factors):
    """A single-index slot as one callable, points -> (J, npts); a list of
    per-index callables (each broadcast to the points) is wrapped once into
    such a family."""
    if factors is None or callable(factors):
        return factors
    factors = list(factors)
    return lambda points: np.array([np.broadcast_to(
        np.asarray(f(points), dtype=np.complex128), points.shape) for f in factors])


def _weighted(family, weights):
    """The family with row n scaled by weights[n]."""
    column = np.asarray(weights)[:, None]
    return lambda points: family(points) * column


def _diagonal(family):
    """Doubly-indexed family with the rows of family on the diagonal."""
    def build(points):
        pts = np.asarray(points, dtype=float)
        mat = np.asarray(family(pts), dtype=np.complex128)
        n = mat.shape[0]
        out = np.zeros((pts.size, n, n), dtype=np.complex128)
        idx = np.arange(n)
        out[:, idx, idx] = mat.T
        return out
    return build


@dataclass
class HaagerupRep:
    """A structured representation of a three-variable integrand.

    The integrand is sum_jk u_j(x_p) D_jk(x_s) v_k(x_q).  The doubly-indexed
    family D sits at the slot s = SLOTS[kind] (second_kind 0, haagerup 1,
    first_kind 2, zero-based), and double(points) -> (npts, J, K) evaluates
    it.  Of the single-index families left (x1), mid (x2) and right (x3), the
    one at slot s is unused; the other two are u (J factors, lower slot) and
    v (K factors, higher slot).  A single-index family is one vectorised
    callable, points -> (J, npts); a list of per-index callables given at
    construction is wrapped once into such a family.

    kind "projective": left/mid/right are equal-length factor lists and the
    integrand is sum_n left_n(x1) mid_n(x2) right_n(x3), the haagerup case
    whose doubly-indexed family is the diagonal of mid.
    """

    kind: str
    left: object | None = None
    mid: object | None = None
    right: object | None = None
    double: object | None = None

    def __post_init__(self):
        if self.kind not in SLOTS:
            raise ValueError(f"unknown representation kind {self.kind!r}")
        if self.kind == "projective":
            if not all(isinstance(f, (list, tuple)) and f for f in self.factors) or not (
                    len(self.left) == len(self.mid) == len(self.right)):
                raise ValueError("projective representation needs three equal-length factor lists")
        elif self.double is None:
            raise ValueError(f"{self.kind} representation needs a doubly-indexed factor")
        self.left, self.mid, self.right = (_family(f) for f in self.factors)
        if self.kind == "projective":
            self.double = _diagonal(self.mid)

    @property
    def slot(self) -> int:
        return SLOTS[self.kind]

    @property
    def factors(self) -> tuple:
        """The single-index families (left, mid, right), indexed by slot."""
        return self.left, self.mid, self.right

    def evaluate_grid(self, x1, x2, x3) -> np.ndarray:
        """The integrand on the tensor grid of three 1-d point sets, shape
        (n1, n2, n3); float64 when the factors are all real, complex128
        otherwise.  The one evaluator: a single point is a grid of three
        1-point sets.

        A doubly-indexed family with a contract(u, points, v) method (a sinc
        representation's lattice family) contracts u and v itself, without
        its slices; any other is evaluated to its (n_s, J, K) slices, each
        contracted as u^T D v.
        """
        points = [np.asarray(x, dtype=float) for x in (x1, x2, x3)]
        p, q = (i for i in range(3) if i != self.slot)
        u, v = self.factors[p](points[p]), self.factors[q](points[q])
        if (contract := getattr(self.double, "contract", None)) is not None:
            out = contract(u, points[self.slot], v)
        else:
            d = self.double(points[self.slot])
            dtype = np.complex128 if any(map(np.iscomplexobj, (u, d, v))) else np.float64
            u, d, v = (np.asarray(x, dtype=dtype) for x in (u, d, v))
            out = np.matmul(u.T, d) @ v
        return np.moveaxis(out, 0, self.slot)


@dataclass(frozen=True)
class RepNormCertificate:
    """Product of the three factor norms of a representation on given spectra.

    An upper bound for the corresponding tensor norm (which is an infimum
    over representations).
    """

    kind: str
    value: float
    factor_norms: tuple[float, float, float]


def _kahan(total, comp, term):
    y = term - comp
    t = total + y
    comp = (t - total) - y
    return t, comp


def _column_norm(family, points: np.ndarray) -> float:
    """sup over points of the l^2 norm of the factor column."""
    mat = family(points)
    return float(np.sqrt((np.abs(mat) ** 2).sum(axis=0)).max())


def _double_norm(double, points: np.ndarray) -> float:
    """sup over points of the operator norm of the (J, K) slice.

    Each norm is exact, never an iterative estimate (which can come out low):
    max |eigenvalue| from eigvalsh for a real, exactly symmetric slice (a
    real band's Loewner slice is, bit for bit), else the largest singular
    value; raised by a rounding margin of 8 max(J, K) eps relative.  The
    margin is a heuristic allowance, not a proven bound: LAPACK bounds both
    errors only as p(n) eps ||D||_2 with p unspecified and modestly growing
    (LAPACK Users' Guide, 3rd ed., secs. 4.7 and 4.9), and rounding in the
    slice entries is not counted.  It does cover the last-digit differences
    between repeated computations of the same norm.
    """
    slices = np.asarray(double(points))
    symmetric = np.zeros(len(slices), dtype=bool)
    if np.isrealobj(slices) and slices.shape[1] == slices.shape[2]:
        symmetric = (slices == slices.transpose(0, 2, 1)).all(axis=(1, 2))
    best = 0.0
    for s, sym in zip(slices, symmetric):
        best = max(best, float(np.abs(np.linalg.eigvalsh(s)).max() if sym
                               else np.linalg.norm(s, 2)))
    return best * (1.0 + 8.0 * max(slices.shape[1:]) * np.finfo(float).eps)


def rep_norm_certificate(rep: HaagerupRep, s1, s2, s3) -> RepNormCertificate:
    """Factor-norm product of rep on spectra (s1, s2, s3).

    The slot of the doubly-indexed factor contributes the sup of its slice
    operator norms, the other two slots the sup of their column l^2 norms.
    A projective sum is certified by its l^1 sum of sup products instead.
    """
    spectra = [np.asarray(s, dtype=float) for s in (s1, s2, s3)]
    if rep.kind == "projective":
        sups = [np.abs(f(s)).max(axis=1) for f, s in zip(rep.factors, spectra)]
        value = float(np.sum(sups[0] * sups[1] * sups[2]))
        return RepNormCertificate("projective", value, tuple(float(s.max()) for s in sups))
    norms = tuple(_double_norm(rep.double, s) if i == rep.slot
                  else _column_norm(rep.factors[i], s) for i, s in enumerate(spectra))
    return RepNormCertificate(rep.kind, float(np.prod(norms)), norms)


def _on_spectra(psi, *spectra) -> np.ndarray:
    """psi on the tensor grid of the spectra, the one sampling of the double and
    triple integrals: HaagerupRep.evaluate_grid, Function2D.eval_grid, or any
    other callable broadcast over the open grid; a non-finite value is refused."""
    if isinstance(psi, HaagerupRep):
        vals = psi.evaluate_grid(*spectra)
    elif isinstance(psi, Function2D):
        vals = psi.eval_grid(*spectra)
    else:
        # an integrand free of some variable returns a broadcastable shape
        vals = np.broadcast_to(psi(*np.ix_(*spectra)), tuple(s.size for s in spectra))
    if not (finite := np.isfinite(vals)).all():
        point = ", ".join(f"{s[i]:.6g}" for s, i in zip(spectra, np.argwhere(~finite)[0]))
        raise ValueError(f"integrand not evaluable at ({point})")
    return vals


def eval_representation(psi, a, t, b, r, c) -> np.ndarray:
    """The triple operator integral sum_ijk Psi(lambda_i, mu_j, nu_k) P_i T Q_j R S_k.

    psi is a HaagerupRep or a callable broadcast over the three spectra, its
    integrand tensor sampled by _on_spectra in the representation's dtype.  In
    finite dimensions every kind reduces to this spectral sum; first/second
    kinds agree with their trace-duality definitions (a reference the tests
    check against).
    """
    da, db, dc = decompose(a), decompose(b), decompose(c)
    t = np.asarray(t, dtype=np.complex128)
    r = np.asarray(r, dtype=np.complex128)
    if t.shape != (da.dim, db.dim) or r.shape != (db.dim, dc.dim):
        raise ValueError("operator shapes incompatible with the spectra")
    vals = _on_spectra(psi, da.eigenvalues, db.eigenvalues, dc.eigenvalues)
    tp = da.eigenvectors.conj().T @ t @ db.eigenvectors
    rp = db.eigenvectors.conj().T @ r @ dc.eigenvectors
    out = np.zeros((da.dim, dc.dim), dtype=np.complex128)
    comp = np.zeros_like(out)
    for j in range(db.dim):
        term = vals[:, j, :] * np.outer(tp[:, j], rp[j, :])
        out, comp = _kahan(out, comp, term)
    return da.eigenvectors @ out @ dc.eigenvectors.conj().T


def projective_to_kind(rep: HaagerupRep, kind: str, s1, s2, s3) -> HaagerupRep:
    """Rewrite a projective representation in another kind.

    The factors at the kind's slot become the diagonal doubly-indexed family,
    weighted by 1/sup; each remaining factor is weighted by
    sqrt(sup_a sup_b / sup_i) over the other two slots a, b, so the resulting
    factor-norm product does not exceed the projective certificate.
    """
    if rep.kind != "projective":
        raise ValueError("expected a projective representation")
    if kind not in ("haagerup", "first_kind", "second_kind"):
        raise ValueError(f"cannot convert projective representation to {kind!r}")
    s = SLOTS[kind]
    sups = [np.maximum(np.abs(f(np.asarray(x, dtype=float))).max(axis=1), 1e-300)
            for f, x in zip(rep.factors, (s1, s2, s3))]
    families = [None if i == s else
                _weighted(f, np.sqrt(np.prod(sups[:i] + sups[i + 1:], axis=0) / sups[i]))
                for i, f in enumerate(rep.factors)]
    return HaagerupRep(kind, *families, double=_diagonal(_weighted(rep.factors[s], 1.0 / sups[s])))


@dataclass(frozen=True)
class S1Certificate:
    """Computed norm of a triple integral against its representation bound."""

    kind: str
    lhs: float
    bound: float
    satisfied: bool
    rep_norm: float


def s1_certificate(rep: HaagerupRep, a, t, b, r, c) -> S1Certificate:
    """Check the kind-appropriate norm inequality on an evaluated instance.

    haagerup / projective: ||W|| <= rep_norm ||T|| ||R||;
    first kind: ||W||_S1 <= rep_norm ||T||_S1 ||R||;
    second kind: ||W||_S1 <= rep_norm ||T|| ||R||_S1.
    """
    da, db, dc = decompose(a), decompose(b), decompose(c)
    w = eval_representation(rep, da, t, db, r, dc)
    cert = rep_norm_certificate(rep, da.eigenvalues, db.eigenvalues, dc.eigenvalues)
    pw, pt, pr = _CERT_EXPONENTS[rep.slot]
    lhs = schatten_norm(w, pw)
    bound = cert.value * schatten_norm(t, pt) * schatten_norm(r, pr)
    return S1Certificate(kind=rep.kind, lhs=lhs, bound=bound,
                         satisfied=bool(lhs <= bound + 1e-9),
                         rep_norm=cert.value)
