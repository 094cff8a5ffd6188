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

from .besov import besov_norm, plateau
from .divdiff import BandRepList, band_representations, polynomial_dd_rep
from .doi import funcalc
from .functions import Function2D, UniformGrid
from .rng import Xorshift64Star
from .spectral import decompose, schatten_norm
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


def _dd_terms(phi: Function2D, da, db, j_max: int, grid: UniformGrid | None):
    """({axis: representations of phi's axis divided difference} for axes 2
    and 1, one of the BandRepLists they come from, None on the exact
    polynomial path).  One LP decomposition of phi serves both axes."""
    if phi.kind == "polynomial":
        return {axis: [polynomial_dd_rep(phi, axis)] for axis in (2, 1)}, None
    radius = 1.1 * max(np.abs(da.eigenvalues).max(), np.abs(db.eigenvalues).max(), 1.0)
    lists = band_representations(phi, (2, 1), j_max=j_max, grid=grid, domain_radius=radius)
    return {axis: [sr.rep for _, sr in sorted(bands.items.items())]
            for axis, bands in lists.items()}, lists[2]


def _sum_terms(reps: dict, da, db, comm_a, comm_b) -> np.ndarray:
    """The axis-2 triple integrals over (A, B, B) against (I, comm_b) plus the
    axis-1 ones over (A, A, B) against (comm_a, I); a None commutator skips its axis."""
    eye = np.eye(da.dim, dtype=np.complex128)
    out = np.zeros((da.dim, db.dim), dtype=np.complex128)
    for rep in reps[2] if comm_b is not None else ():
        out = out + eval_representation(rep, da, eye, db, comm_b, db)
    for rep in reps[1] if comm_a is not None else ():
        out = out + eval_representation(rep, da, comm_a, da, eye, db)
    return out


def commutator_via_toi(phi: Function2D, a, b, q) -> np.ndarray:
    """[phi(A,B), Q] assembled from the two divided-difference triple integrals
    (verify_theorem_41's default lattice and grid)."""
    da, db = decompose(a), decompose(b)
    reps, _ = _dd_terms(phi, da, db, 256, None)
    q = np.asarray(q, dtype=np.complex128)
    return _sum_terms(reps, da, db, _commutator(da.matrix(), q),
                      _commutator(db.matrix(), q))


def commutator_with_operator(psi: Function2D, da, db, which: str) -> np.ndarray:
    """[A, psi(A,B)] or [B, psi(A,B)] via the identity with Q = A (resp. B),
    on verify_theorem_41's default lattice and grid.

    With Q = A the x-divided-difference term vanishes ([A, A] = 0), leaving
    minus the y-term against [B, A]; symmetrically for Q = B.
    """
    if which not in ("A", "B"):
        raise ValueError("which must be 'A' or 'B'")
    da, db = decompose(da), decompose(db)
    reps, _ = _dd_terms(psi, da, db, 256, None)
    comm_ab = _commutator(da.matrix(), db.matrix())
    return -(_sum_terms(reps, da, db, None, -comm_ab) if which == "A"
             else _sum_terms(reps, da, db, comm_ab, None))


#: finer-period grid for cutoff surrogates: same FFT cost as the default
#: 2-d grid, twice the frequency coverage (full dyadic coverage to |xi| = 8)
SURROGATE_GRID_2D = UniformGrid(dim=2, period=32.0 * np.pi, points=512)


def _besov_ingredient(phi: Function2D, da, db, grid: UniformGrid | None,
                      bands: BandRepList | None):
    """Dyadic-band norm of phi: the one bands, phi's band representations,
    carry, or for polynomials (bands None) the plateau-cutoff surrogate
    (functions of A, B see only the joint spectral square)."""
    if phi.kind != "polynomial":
        return bands.band_norm, (f"dyadic-band norm on the analysis grid "
                                 f"(uncovered spectral mass {bands.uncovered_mass:.2e})")
    grid = grid or SURROGATE_GRID_2D
    r = float(max(np.abs(da.eigenvalues).max(), np.abs(db.eigenvalues).max()))
    r = max(r, 1e-6)
    inner = 1.05 * r
    outer = inner + max(4.0, inner)
    ax = grid.axis()
    cut = plateau(ax, inner, outer)
    values = phi.eval_grid(ax, ax) * np.outer(cut, cut)
    bn = besov_norm(values, grid)
    note = (f"polynomial norm surrogate: phi times a smooth plateau cutoff "
            f"(1 on [-{inner:.3g}, {inner:.3g}]^2 covering the joint spectrum, "
            f"0 outside [-{outer:.3g}, {outer:.3g}]^2; uncovered spectral mass "
            f"{bn.uncovered_mass:.2e})")
    return bn.value, note


def _report(via: np.ndarray, direct: np.ndarray, ingredients: dict, denom: float,
            notes: str) -> CommutatorReport:
    """The report of the triple-integral commutator via against the direct one;
    empirical_constant is lhs_s1 / denom, or 0 (lhs_s1 = 0) or inf if denom <= 0."""
    lhs = schatten_norm(via, 1)
    const = lhs / denom if denom > 0 else (0.0 if lhs == 0 else np.inf)
    return CommutatorReport(lhs_s1=lhs, rhs_s1=schatten_norm(direct, 1),
                            residual_s1=schatten_norm(via - direct, 1),
                            bound_ingredients=ingredients, empirical_constant=float(const),
                            notes=notes)


def verify_theorem_41(phi: Function2D, a, b, q, j_max: int = 256,
                      grid: UniformGrid | None = None) -> CommutatorReport:
    """Compare the triple-integral commutator with the direct one.

    residual_s1 is the trace-norm gap between the two routes;
    empirical_constant relates the commutator trace norm to
    (band norm of phi) * (||[A,Q]||_S1 + ||[B,Q]||_S1).
    """
    da, db = decompose(a), decompose(b)
    q = np.asarray(q, dtype=np.complex128)
    reps, bands = _dd_terms(phi, da, db, j_max, grid)
    comm_a, comm_b = _commutator(da.matrix(), q), _commutator(db.matrix(), q)
    via = _sum_terms(reps, da, db, comm_a, comm_b)
    bnorm, note = _besov_ingredient(phi, da, db, grid, bands)
    ca, cb = schatten_norm(comm_a, 1), schatten_norm(comm_b, 1)
    return _report(via, _commutator(funcalc(phi, da, db), q),
                   {"besov_phi": bnorm, "comm_a_s1": ca, "comm_b_s1": cb},
                   bnorm * (ca + cb), note)


def commutator_of_functions(phi: Function2D, psi: Function2D, a, b,
                            j_max: int = 256, grid: UniformGrid | None = None):
    """[phi(A,B), psi(A,B)] via the identity with Q = psi(A,B).

    The inner commutators [A, psi(A,B)] and [B, psi(A,B)] are evaluated by
    the same triple-integral identity, so the final bound ingredients reduce
    to the function norms and ||[A,B]||_S1.  Returns (matrix, report).
    """
    da, db = decompose(a), decompose(b)
    q = funcalc(psi, da, db)
    # psi's representations serve both inner commutators, and are dropped
    # before phi's are built
    reps, bands = _dd_terms(psi, da, db, j_max, grid)
    comm_ab = _commutator(da.matrix(), db.matrix())
    comm_bq = -_sum_terms(reps, da, db, comm_ab, None)
    comm_aq = -_sum_terms(reps, da, db, None, -comm_ab)
    bpsi, _ = _besov_ingredient(psi, da, db, grid, bands)
    del reps, bands
    reps, bands = _dd_terms(phi, da, db, j_max, grid)
    out = _sum_terms(reps, da, db, comm_aq, comm_bq)
    bphi, note_phi = _besov_ingredient(phi, da, db, grid, bands)
    cab = schatten_norm(comm_ab, 1)
    return out, _report(out, _commutator(funcalc(phi, da, db), q),
                        {"besov_phi": bphi, "besov_psi": bpsi, "comm_ab_s1": cab},
                        bphi * bpsi * cab, note_phi)


def _on_values(op, *fs):
    """The integrand op(f(lambda_i, mu_j) for f in fs): in finite dimensions
    phi(A,B) depends only on phi's values on the joint spectrum, so a product
    or conjugate of functions is one of their values there."""
    return lambda x, y: op(*(f.eval_grid(x[:, 0], y[0]) for f in fs))


def probe_problem1(phi: Function2D, psi: Function2D, a, b) -> float:
    """Trace norm of (phi psi)(A,B) - phi(A,B) psi(A,B): the almost
    multiplicativity defect.  Reported, never asserted against a bound."""
    da, db = decompose(a), decompose(b)
    prod = funcalc(_on_values(np.multiply, phi, psi), da, db)
    return schatten_norm(prod - funcalc(phi, da, db) @ funcalc(psi, da, db), 1)


def probe_problem2(phi: Function2D, a, b) -> float:
    """Trace norm of phi(A,B)* - conj(phi)(A,B): the self-adjointness defect."""
    da, db = decompose(a), decompose(b)
    f = funcalc(phi, da, db)
    return schatten_norm(f.conj().T - funcalc(_on_values(np.conj, phi), da, db), 1)


# ---------------------------------------------------------------------------
# seeded trial ensembles


def almost_commuting_pair(rng: Xorshift64Star, dim: int, rank: int = 1):
    """A random Hermitian A and B = (commuting part) + rank rank-one Hermitian
    perturbations of norm 0.1, so ||[A, B]||_S1 is controlled by construction."""
    a = rng.hermitian(dim)
    a = a / np.linalg.norm(a, 2)
    w, u = np.linalg.eigh(a)
    b0 = (u * rng.uniform(dim)) @ u.conj().T
    b0 = 0.5 * (b0 + b0.conj().T)
    b = b0.astype(np.complex128)
    for _ in range(rank):
        v = rng.complex_normal(dim)
        v /= np.linalg.norm(v)
        b = b + 0.1 * np.outer(v, v.conj())
    return a, 0.5 * (b + b.conj().T)


def random_polynomial(rng: Xorshift64Star, degree: int) -> Function2D:
    """Random real-coefficient polynomial with joint degree <= degree."""
    coeffs = np.zeros((degree + 1, degree + 1))
    for j in range(degree + 1):
        for k in range(degree + 1 - j):
            coeffs[j, k] = rng.normal(1)[0] / (1.0 + j + k)
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
    (evaluated in closed form; its band norm is computed from its samples,
    not prescribed) and random Hermitian A, B with a random contraction Q.
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
        values, terms = np.zeros_like(ax), []
        for fq, amp in zip(freqs, amps):
            phase = rng.uniform(1)[0]
            values = values + amp * np.sin(fq * ax + phase)
            terms.append(f"{float(amp)!r} * sin({fq} * x + {float(phase)!r})")
        f = Function1D.closed_form(" + ".join(terms))
        fnorm = besov_norm(values.astype(np.complex128), grid).value
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
