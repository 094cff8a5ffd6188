"""Commutators of two-variable functions of almost commuting pairs.

The central identity: for self-adjoint A, B and bounded Q with [A, Q] and
[B, Q] trace class,

    [phi(A,B), Q] = (triple integral of the y-divided difference of phi
                     against dE_A . dE_B [B,Q] dE_B)
                  + (triple integral of the x-divided difference
                     against dE_A [A,Q] dE_A . dE_B).

The first integrand lives in the second-kind tensor structure (its
doubly-indexed factor depends on x), the second in the first-kind one, so
the trace norms of the two terms are controlled by the representation norms
times ||[B,Q]||_S1 and ||[A,Q]||_S1 respectively.  For polynomial phi both
representations are exact finite sums and the identity holds to rounding
error; for band-limited or dyadic-band-decomposable phi the sinc-lattice
representations apply band by band.

Applying the identity with Q = psi(A,B), where the inner commutators
[A, psi(A,B)] and [B, psi(A,B)] are themselves evaluated by the same
machinery, expresses [phi(A,B), psi(A,B)] through ||[A, B]||_S1 alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .besov import DEFAULT_GRID_2D, besov_norm, default_band_range, plateau
from .divdiff import BandRepList, band_representations, polynomial_dd_rep
from .doi import funcalc
from .functions import Function2D, UniformGrid
from .rng import Xorshift64Star
from .spectral import as_decomposition, schatten_norm
from .toi import eval_representation


@dataclass(frozen=True)
class CommutatorReport:
    """Measured sides and ingredients of one commutator-identity instance.

    lhs_s1 is the trace norm of the triple-integral expression, rhs_s1 the
    trace norm of the directly computed commutator, residual_s1 the trace
    norm of their difference.  empirical_constant is lhs_s1 divided by the
    product of bound ingredients (norm of the function data times the
    relevant commutator trace norms); the proportionality constant itself is
    tracked empirically, never asserted against a universal value.
    """

    lhs_s1: float
    rhs_s1: float
    residual_s1: float
    bound_ingredients: dict
    empirical_constant: float
    notes: str = ""


def _commutator(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return x @ y - y @ x


def _dd_terms(phi: Function2D, da, db, j_max: int, grid: UniformGrid | None,
              band_range, domain_radius: float | None):
    """({axis: representations of phi's axis divided difference} for axes 2
    and 1, one of the BandRepLists they come from, None on the exact
    polynomial path).  One LP decomposition of phi serves both axes."""
    if phi.kind == "polynomial":
        return {axis: [polynomial_dd_rep(phi, axis)] for axis in (2, 1)}, None
    if domain_radius is None:
        domain_radius = 1.1 * max(
            np.abs(da.eigenvalues).max(), np.abs(db.eigenvalues).max(), 1.0)
    lists = band_representations(phi, (2, 1), band_range=band_range, j_max=j_max,
                                 grid=grid, domain_radius=domain_radius)
    return {axis: [sr.rep for _, sr in sorted(bands.items.items())]
            for axis, bands in lists.items()}, lists[2]


def _sum_terms(reps: dict, da, db, comm_a, comm_b) -> np.ndarray:
    """The axis-2 triple integrals over (A, B, B) against (I, comm_b) plus the
    axis-1 ones over (A, A, B) against (comm_a, I)."""
    eye = np.eye(da.dim, dtype=np.complex128)
    out = np.zeros((da.dim, db.dim), dtype=np.complex128)
    for rep in reps.get(2, ()):
        out = out + eval_representation(rep, da, eye, db, comm_b, db)
    for rep in reps.get(1, ()):
        out = out + eval_representation(rep, da, comm_a, da, eye, db)
    return out


def commutator_via_toi(phi: Function2D, a, b, q, j_max: int = 256,
                       grid: UniformGrid | None = None, band_range=None,
                       domain_radius: float | None = None) -> np.ndarray:
    """[phi(A,B), Q] assembled from the two divided-difference triple integrals."""
    da, db = as_decomposition(a), as_decomposition(b)
    reps, _ = _dd_terms(phi, da, db, j_max, grid, band_range, domain_radius)
    q = np.asarray(q, dtype=np.complex128)
    return _sum_terms(reps, da, db, _commutator(da.matrix(), q),
                      _commutator(db.matrix(), q))


def commutator_with_operator(psi: Function2D, da, db, which: str,
                             j_max: int = 256, grid=None, band_range=None,
                             domain_radius=None) -> np.ndarray:
    """[A, psi(A,B)] or [B, psi(A,B)] via the identity with Q = A (resp. B).

    With Q = A the x-divided-difference term vanishes ([A, A] = 0), leaving
    minus the y-term against [B, A]; symmetrically for Q = B.
    """
    if which not in ("A", "B"):
        raise ValueError("which must be 'A' or 'B'")
    da, db = as_decomposition(da), as_decomposition(db)
    reps, _ = _dd_terms(psi, da, db, j_max, grid, band_range, domain_radius)
    return _with_operator(reps, da, db, which, _commutator(da.matrix(), db.matrix()))


def _with_operator(reps: dict, da, db, which: str, comm_ab) -> np.ndarray:
    """[A, psi(A,B)] (which "A", from the axis-2 reps) or [B, psi(A,B)]
    (which "B", from the axis-1 reps), given comm_ab = [A, B]."""
    if which == "A":
        return -_sum_terms({2: reps[2]}, da, db, None, -comm_ab)
    return -_sum_terms({1: reps[1]}, da, db, comm_ab, None)


#: finer-period grid for cutoff surrogates: same FFT cost as the default
#: 2-d grid, twice the frequency coverage (full dyadic coverage to |xi| = 8)
SURROGATE_GRID_2D = UniformGrid(dim=2, period=32.0 * np.pi, points=512)


def _besov_ingredient(phi: Function2D, da, db, grid: UniformGrid | None,
                      bands: BandRepList | None = None):
    """Dyadic-band norm of phi, with the plateau-cutoff surrogate for
    polynomials (functions of A, B see only the joint spectral square).  The
    norm that bands, phi's band representations, carry is reused when their
    grid and band range are those of the norm."""
    if phi.kind != "polynomial":
        norm_grid = phi.grid if phi.kind == "sampled" else grid or DEFAULT_GRID_2D
        if (bands is not None and bands.grid == norm_grid
                and bands.band_range == default_band_range(norm_grid)):
            value, uncovered = bands.band_norm, bands.uncovered_mass
        else:
            bn = besov_norm(phi, norm_grid, warn=False)
            value, uncovered = bn.value, bn.uncovered_mass
        return value, (f"dyadic-band norm on the analysis grid "
                       f"(uncovered spectral mass {uncovered:.2e})")
    grid = grid or SURROGATE_GRID_2D
    r = float(max(np.abs(da.eigenvalues).max(), np.abs(db.eigenvalues).max()))
    r = max(r, 1e-6)
    inner = 1.05 * r
    outer = inner + max(4.0, inner)
    ax = grid.axis()
    cut = plateau(ax, inner, outer)
    values = phi.eval_grid(ax, ax) * np.outer(cut, cut)
    bn = besov_norm(values, grid, warn=False)
    note = (f"polynomial norm surrogate: phi times a smooth plateau cutoff "
            f"(1 on [-{inner:.3g}, {inner:.3g}]^2 covering the joint spectrum, "
            f"0 outside [-{outer:.3g}, {outer:.3g}]^2; uncovered spectral mass "
            f"{bn.uncovered_mass:.2e})")
    return bn.value, note


def verify_theorem_41(phi: Function2D, a, b, q, j_max: int = 256,
                      grid: UniformGrid | None = None, band_range=None) -> CommutatorReport:
    """Compare the triple-integral commutator with the direct one.

    residual_s1 is the trace-norm gap between the two routes;
    empirical_constant relates the commutator trace norm to
    (band norm of phi) * (||[A,Q]||_S1 + ||[B,Q]||_S1).
    """
    da, db = as_decomposition(a), as_decomposition(b)
    q = np.asarray(q, dtype=np.complex128)
    reps, bands = _dd_terms(phi, da, db, j_max, grid, band_range, None)
    comm_a, comm_b = _commutator(da.matrix(), q), _commutator(db.matrix(), q)
    via = _sum_terms(reps, da, db, comm_a, comm_b)
    bnorm, note = _besov_ingredient(phi, da, db, grid, bands)
    direct = _commutator(funcalc(phi, da, db), q)
    ca, cb = schatten_norm(comm_a, 1), schatten_norm(comm_b, 1)
    lhs = schatten_norm(via, 1)
    denom = bnorm * (ca + cb)
    const = lhs / denom if denom > 0 else (0.0 if lhs == 0 else np.inf)
    return CommutatorReport(
        lhs_s1=lhs, rhs_s1=schatten_norm(direct, 1),
        residual_s1=schatten_norm(via - direct, 1),
        bound_ingredients={"besov_phi": bnorm, "comm_a_s1": ca, "comm_b_s1": cb},
        empirical_constant=float(const), notes=note)


def commutator_of_functions(phi: Function2D, psi: Function2D, a, b,
                            j_max: int = 256, grid: UniformGrid | None = None,
                            band_range=None):
    """[phi(A,B), psi(A,B)] via the identity with Q = psi(A,B).

    The inner commutators [A, psi(A,B)] and [B, psi(A,B)] are evaluated by
    the same triple-integral identity, so the final bound ingredients reduce
    to the function norms and ||[A,B]||_S1.  Returns (matrix, report).
    """
    da, db = as_decomposition(a), as_decomposition(b)
    q = funcalc(psi, da, db)
    # psi's representations serve both inner commutators, and are dropped
    # before phi's are built
    reps, bands = _dd_terms(psi, da, db, j_max, grid, band_range, None)
    comm_ab = _commutator(da.matrix(), db.matrix())
    comm_bq = _with_operator(reps, da, db, "B", comm_ab)
    comm_aq = _with_operator(reps, da, db, "A", comm_ab)
    bpsi, _ = _besov_ingredient(psi, da, db, grid, bands)
    del reps, bands
    reps, bands = _dd_terms(phi, da, db, j_max, grid, band_range, None)
    out = _sum_terms(reps, da, db, comm_aq, comm_bq)
    bphi, note_phi = _besov_ingredient(phi, da, db, grid, bands)

    direct = _commutator(funcalc(phi, da, db), q)
    cab = schatten_norm(comm_ab, 1)
    lhs = schatten_norm(out, 1)
    denom = bphi * bpsi * cab
    const = lhs / denom if denom > 0 else (0.0 if lhs == 0 else np.inf)
    report = CommutatorReport(
        lhs_s1=lhs, rhs_s1=schatten_norm(direct, 1),
        residual_s1=schatten_norm(out - direct, 1),
        bound_ingredients={"besov_phi": bphi, "besov_psi": bpsi, "comm_ab_s1": cab},
        empirical_constant=float(const), notes=note_phi)
    return out, report


def probe_problem1(phi: Function2D, psi: Function2D, a, b) -> float:
    """Trace norm of (phi psi)(A,B) - phi(A,B) psi(A,B): the almost
    multiplicativity defect.  Reported, never asserted against a bound."""
    da, db = as_decomposition(a), as_decomposition(b)
    prod = phi.multiply(psi)
    return schatten_norm(funcalc(prod, da, db) - funcalc(phi, da, db) @ funcalc(psi, da, db), 1)


def probe_problem2(phi: Function2D, a, b) -> float:
    """Trace norm of phi(A,B)* - conj(phi)(A,B): the self-adjointness defect."""
    da, db = as_decomposition(a), as_decomposition(b)
    f = funcalc(phi, da, db)
    return schatten_norm(f.conj().T - funcalc(phi.conjugate(), da, db), 1)


# ---------------------------------------------------------------------------
# seeded trial ensembles


def almost_commuting_pair(rng: Xorshift64Star, dim: int, rank: int = 1,
                          eps: float = 0.1):
    """A random Hermitian A and B = (commuting part) + low-rank Hermitian
    perturbations, so ||[A, B]||_S1 is controlled by construction."""
    a = rng.hermitian(dim)
    a = a / np.linalg.norm(a, 2)
    w, u = np.linalg.eigh(a)
    b0 = (u * rng.uniform(dim)) @ u.conj().T
    b0 = 0.5 * (b0 + b0.conj().T)
    b = b0.astype(np.complex128)
    for _ in range(rank):
        v = rng.complex_normal(dim)
        v /= np.linalg.norm(v)
        b = b + eps * np.outer(v, v.conj())
    return a, 0.5 * (b + b.conj().T)


def random_polynomial(rng: Xorshift64Star, degree: int, scale: float = 1.0) -> Function2D:
    """Random real-coefficient polynomial with joint degree <= degree."""
    coeffs = np.zeros((degree + 1, degree + 1))
    for j in range(degree + 1):
        for k in range(degree + 1 - j):
            coeffs[j, k] = scale * rng.normal(1)[0] / (1.0 + j + k)
    return Function2D.polynomial(coeffs)


def theorem41_trial_suite(n_trials: int = 50, seed: int = 2024, max_dim: int = 32,
                          degree: int = 4):
    """Seeded random suite for the polynomial-path commutator identity.

    Returns a list of (trial metadata, CommutatorReport); dims cycle through
    {8, 12, 16, 24, 32} (capped by max_dim) and the perturbation rank cycles
    through {1, 2, 3}.
    """
    dims = [d for d in (8, 12, 16, 24, 32) if d <= max_dim] or [max_dim]
    results = []
    for trial in range(n_trials):
        rng = Xorshift64Star(seed + 7919 * trial)
        dim = dims[trial % len(dims)]
        rank = 1 + (trial % 3)
        a, b = almost_commuting_pair(rng, dim, rank=rank)
        q = rng.complex_normal((dim, dim))
        q /= np.linalg.norm(q, 2)
        phi = random_polynomial(rng, degree)
        report = verify_theorem_41(phi, a, b, q)
        results.append(({"trial": trial, "dim": dim, "rank": rank}, report))
    return results


def one_var_inequality_suite(n_trials: int = 50, seed: int = 4096, max_dim: int = 24):
    """Seeded suite for the one-variable quasicommutator inequality.

    Each trial measures ||f(A)Q - Qf(B)||_S1 against
    (band norm of f) * ||AQ - QB||_S1 for a random trig polynomial f
    (sampled, so its band norm is computed, not prescribed) and random
    Hermitian A, B with a random contraction Q.
    """
    from .besov import DEFAULT_GRID_1D
    from .doi import scalar_calculus
    from .functions import Function1D

    grid = DEFAULT_GRID_1D
    ax = grid.axis()
    dims = [d for d in (8, 16, 24) if d <= max_dim] or [max_dim]
    results = []
    for trial in range(n_trials):
        rng = Xorshift64Star(seed + 15485863 * trial)
        dim = dims[trial % len(dims)]
        freqs = [1, 2, 3, 5][: 1 + trial % 4]
        amps = rng.normal(len(freqs))
        values = np.zeros_like(ax)
        for fq, amp in zip(freqs, amps):
            values = values + amp * np.sin(fq * ax + rng.uniform(1)[0])
        f = Function1D.sampled(values.astype(np.complex128), grid)
        fnorm = besov_norm(values.astype(np.complex128), grid, warn=False).value
        a = rng.hermitian(dim)
        a /= np.linalg.norm(a, 2)
        b = rng.hermitian(dim)
        b /= np.linalg.norm(b, 2)
        q = rng.complex_normal((dim, dim))
        q /= np.linalg.norm(q, 2)
        lhs = schatten_norm(scalar_calculus(f, a) @ q - q @ scalar_calculus(f, b), 1)
        rhs = schatten_norm(a @ q - q @ b, 1)
        const = lhs / (fnorm * rhs) if fnorm * rhs > 0 else 0.0
        results.append({"trial": trial, "dim": dim, "lhs_s1": lhs,
                        "f_norm": fnorm, "comm_s1": rhs,
                        "empirical_constant": float(const)})
    return results


def function_pair_trial_suite(n_trials: int = 20, seed: int = 512, max_dim: int = 16,
                              degree: int = 3):
    """Seeded suite for the two-function commutator (Q = psi(A,B)) path."""
    dims = [d for d in (8, 12, 16) if d <= max_dim] or [max_dim]
    results = []
    for trial in range(n_trials):
        rng = Xorshift64Star(seed + 104729 * trial)
        dim = dims[trial % len(dims)]
        a, b = almost_commuting_pair(rng, dim, rank=1 + trial % 3)
        phi = random_polynomial(rng, degree)
        psi = random_polynomial(rng, degree)
        _, report = commutator_of_functions(phi, psi, a, b)
        results.append(({"trial": trial, "dim": dim}, report))
    return results
