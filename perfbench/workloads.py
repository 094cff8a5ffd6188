"""Seeded inputs, items and correctness gates of the four benchmark workloads.

build(workload, seed, workdir) is the set-up step: it generates every input
from the seed (matrices, function specs, configs; files go under workdir)
and returns the list of items.  An item is one identity check, one
experiment or one certificate.  Running an item calls the library's public
entry points only and returns an Outcome: whether the output met the
tolerance the code itself states, the algorithmic error as a share of that
tolerance where one exists, and the digest of the report bytes for items
that go through the `opintegral` command.

Gates compute with numpy functions bound here at import, before the traced
run patches numpy, so the kernel counters see only the library's calls.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from numpy.linalg import norm as _norm

from opintegral import cli, commutator, divdiff, doi, fileio, heltonhowe
from opintegral.functions import Function2D, UniformGrid
from opintegral.models import Symbol
from opintegral.rng import Xorshift64Star

#: tolerance of the exact polynomial identity, relative to max(lhs_s1, 1)
#: (the `commutator-verify` default)
POLY_RTOL = 1e-10
#: truncation tolerance of the band path at j_max = 128
#: (test_pair_gaussian_bumps_band_path)
BAND_TOL = 1e-6
#: trace-formula tolerances stated by `opintegral trace-formula`
TRACE_RTOL = 5e-3
SCHUR_TOL = 1e-3


@dataclass
class Outcome:
    ok: bool
    err_ratio: float | None = None
    digest: str | None = None
    detail: dict | None = None


@dataclass
class Item:
    name: str
    run: Callable[[], Outcome]


class _Streams:
    """Independent generators for the inputs of one seed."""

    def __init__(self, seed: int):
        self.base = seed * 1_000_003

    def __call__(self, stream: int) -> Xorshift64Star:
        return Xorshift64Star(self.base + 7919 * stream)


def _gaussian(cx: float, cy: float, scale: float = 1.0) -> str:
    return f"exp(-((x - {float(cx)!r})**2 + (y - {float(cy)!r})**2) * {float(scale)!r})"


# ---------------------------------------------------------------------------
# poly-suite: the exact polynomial path of the commutator identity


def _poly_items(rngs: _Streams) -> list[Item]:
    items = []
    dims = (8, 12, 16, 24, 32)
    for t in range(10):
        rng = rngs(t)
        dim = dims[t % len(dims)]
        a, b = commutator.almost_commuting_pair(rng, dim, rank=1 + t % 3)
        q = rng.complex_normal((dim, dim))
        q /= _norm(q, 2)
        phi = commutator.random_polynomial(rng, 4)
        items.append(Item(f"theorem41-{t}",
                          lambda phi=phi, a=a, b=b, q=q: _poly_gate(
                              commutator.verify_theorem_41(phi, a, b, q))))
    for t in range(4):
        rng = rngs(100 + t)
        dim = (8, 12, 16)[t % 3]
        a, b = commutator.almost_commuting_pair(rng, dim, rank=1 + t % 3)
        phi = commutator.random_polynomial(rng, 3)
        psi = commutator.random_polynomial(rng, 3)
        items.append(Item(f"pair-{t}",
                          lambda phi=phi, psi=psi, a=a, b=b: _poly_gate(
                              commutator.commutator_of_functions(phi, psi, a, b)[1])))
    return items


def _poly_gate(rep) -> Outcome:
    # the identity is exact: the residual is rounding noise, so no error ratio
    ok = rep.residual_s1 <= POLY_RTOL * max(rep.lhs_s1, 1.0)
    return Outcome(ok, detail={"residual_s1": rep.residual_s1, "lhs_s1": rep.lhs_s1})


# ---------------------------------------------------------------------------
# band-path: Gaussian bumps through the dyadic-band + sinc-lattice route

BAND_GRID = UniformGrid(dim=2, period=16.0 * np.pi, points=512)
BAND_J_MAX = 128
#: item cost grows with the matrix size, so the size is fixed and the seed
#: moves only the bump centres and the matrices
BAND_DIM = 12


def _band_items(rngs: _Streams) -> list[Item]:
    rng = rngs(0)
    c = 0.3 * (2.0 * rng.uniform(4) - 1.0)
    a, b = commutator.almost_commuting_pair(rng, BAND_DIM, rank=1)
    phi = Function2D.closed_form(_gaussian(c[0], c[1]))
    psi = Function2D.closed_form(_gaussian(c[2], c[3]))

    def pair() -> Outcome:
        _, rep = commutator.commutator_of_functions(phi, psi, a, b, j_max=BAND_J_MAX,
                                                    grid=BAND_GRID)
        return Outcome(rep.residual_s1 <= BAND_TOL, rep.residual_s1 / BAND_TOL,
                       detail={"residual_s1": rep.residual_s1})

    crng = rngs(1)
    cc = 0.3 * (2.0 * crng.uniform(2) - 1.0)
    ca, cb = commutator.almost_commuting_pair(crng, BAND_DIM, rank=1)
    wa, wb = np.linalg.eigvalsh(ca), np.linalg.eigvalsh(cb)
    radius = 1.1 * max(np.abs(wa).max(), np.abs(wb).max(), 1.0)
    bump = Function2D.closed_form(_gaussian(cc[0], cc[1]))

    def certificate() -> Outcome:
        reps = divdiff.besov_representation(bump, 1, j_max=BAND_J_MAX, grid=BAND_GRID,
                                            domain_radius=radius)
        value = reps.aggregate_certificate(wa, wa, wb)
        tails = [sr.tail_bound for sr in reps.items.values()]
        ok = bool(np.isfinite(value) and value > 0 and reps.items
                  and all(np.isfinite(t) for t in tails))
        return Outcome(ok, detail={"certificate": value, "bands": len(reps.items)})

    return [Item("pair", pair), Item("certificate", certificate)]


# ---------------------------------------------------------------------------
# trace-formula: Toeplitz-model experiments through `opintegral trace-formula`


def _run_cli(argv: list[str], report: Path) -> tuple[int, bytes]:
    code = cli.main(argv)
    return code, report.read_bytes()


def _trace_items(rngs: _Streams, workdir: Path) -> list[Item]:
    data = Path(heltonhowe.__file__).parent / "data"
    items = []

    def shift_suite() -> Outcome:
        out = workdir / "shift_suite.json"
        code, raw = _run_cli(["trace-formula", "--config", str(data / "shift_suite.cfg"),
                              "--out", str(out)], out)
        rep = json.loads(raw)
        return Outcome(code == 0, digest=hashlib.sha256(raw).hexdigest(),
                       detail={"max_lhs_err": rep["max_lhs_err"],
                               "max_rhs_err": rep["max_rhs_err"]})

    items.append(Item("shift-suite", shift_suite))

    # overlapping bumps straddling the unit circle, centres moved by the seed
    rng = rngs(0)
    d = 0.05 * (2.0 * rng.uniform(2) - 1.0)
    phi = Function2D.closed_form(_gaussian(0.2 + d[0], 0.0, 3.0))
    psi = Function2D.closed_form(_gaussian(0.0, 0.2 + d[1], 3.0))
    fileio.write_function_spec(workdir / "phi.spec", phi)
    fileio.write_function_spec(workdir / "psi.spec", psi)
    cfg = workdir / "gauss.cfg"
    cfg.write_text("mode single\nsymbol shift\nphi phi.spec\npsi psi.spec\nn 512\n"
                   "resolution 1024\nn_table 128,256,512\nm_fractions 0.25\n",
                   encoding="utf-8")

    def gauss_pair() -> Outcome:
        out = workdir / "gauss.json"
        code, raw = _run_cli(["trace-formula", "--config", str(cfg), "--out", str(out)], out)
        rep = json.loads(raw)
        tol = TRACE_RTOL * max(abs(rep["rhs"]), rep["jacobian_scale"])
        ok = code == 0 and rep["abs_err"] <= tol
        return Outcome(ok, rep["abs_err"] / tol, hashlib.sha256(raw).hexdigest(),
                       {"lhs": rep["lhs"], "rhs": rep["rhs"], "abs_err": rep["abs_err"]})

    items.append(Item("gauss-n512", gauss_pair))

    def winding() -> Outcome:
        # consistency of the corner trace with the g-weighted quadrature only;
        # ratio_flat is reported for information (criterion 09 is not judged here)
        wf = heltonhowe.winding_factor_experiment(Symbol.from_dict({2: 1.0, 1: 0.5}),
                                                  n_table=(128, 256, 512),
                                                  resolution=1024)
        tol = TRACE_RTOL * abs(wf["rhs_true"])
        worst = max(row["err_true"] for row in wf["rows"])
        return Outcome(worst <= tol, worst / tol,
                       detail={"rhs_true": wf["rhs_true"],
                               "ratio_flat": [row["ratio_flat"] for row in wf["rows"]]})

    items.append(Item("winding-double", winding))
    return items


# ---------------------------------------------------------------------------
# schur-cert: certified multiplier norms through `opintegral schur-norm`


class _CertificateCapture:
    """Keeps the certificate object behind a `schur-norm` report, so the gate
    can check the lower witness that the report does not carry."""

    def __init__(self):
        self.last = None
        self._inner = doi.schur_multiplier_norm
        doi.schur_multiplier_norm = self

    def __call__(self, *args, **kwargs):
        self.last = self._inner(*args, **kwargs)
        return self.last


def _certificate_gate(cert, exact: float | None = None) -> tuple[bool, dict]:
    phi, z = cert.matrix, cert.lower_witness
    nz = _norm(z, 2)
    reproduced = float(_norm(phi * z, 2) / nz) if nz > 0 else 0.0
    ok = (cert.lower <= cert.upper + 1e-9 and cert.witness_min_eig >= -1e-8
          and abs(reproduced - cert.lower) <= 1e-9 * max(abs(cert.lower), 1e-300))
    if exact is not None:
        ok = ok and cert.lower <= exact + 1e-9 and cert.upper >= exact - 1e-9
    return bool(ok), {"lower": cert.lower, "upper": cert.upper, "gap": cert.gap,
                      "converged": cert.converged}


def _schur_items(rngs: _Streams, workdir: Path) -> list[Item]:
    capture = _CertificateCapture()
    cases = []
    for t, n in enumerate((4, 4, 5)):
        cases.append((f"random-{t}-{n}x{n}", rngs(t).complex_normal((n, n)), None))
    rng = rngs(10)
    u, v = rng.complex_normal(5), rng.complex_normal(5)
    cases.append(("rank-one-5x5", np.outer(u, v),
                  float(np.abs(u).max() * np.abs(v).max())))
    cases.append(("all-ones-5x5", np.ones((5, 5)), 1.0))
    cases.append(("sign-2x2", np.array([[1.0, 1.0], [1.0, -1.0]]), float(np.sqrt(2.0))))

    items = []
    for name, matrix, exact in cases:
        path = workdir / f"{name}.opmat"
        fileio.write_matrix(path, matrix)

        def run(name=name, path=path, exact=exact) -> Outcome:
            out = workdir / f"{name}.json"
            code, raw = _run_cli(["schur-norm", "--matrix", str(path), "--tol",
                                  repr(SCHUR_TOL), "--allow-gap", "--out", str(out)], out)
            ok, detail = _certificate_gate(capture.last, exact)
            return Outcome(ok and code == 0, capture.last.gap / SCHUR_TOL,
                           hashlib.sha256(raw).hexdigest(), detail)

        items.append(Item(name, run))

    # sampled degree-1 trig polynomial with its projective factorization
    coeffs = rng.complex_normal((3, 3))
    xs = np.linspace(0.0, 2.0 * np.pi, 4, endpoint=False)
    ys = xs + 0.3

    def trig() -> Outcome:
        rows = doi.projective_decompose_trig(coeffs)
        sampled = rows.evaluate(xs[:, None], ys[None, :])
        cert = doi.schur_multiplier_norm(sampled, tol=SCHUR_TOL,
                                         factorizations=[rows.factorization(xs, ys)])
        ok, detail = _certificate_gate(cert)
        ok = ok and cert.upper <= rows.bound + 1e-9
        return Outcome(ok, cert.gap / SCHUR_TOL, detail=detail)

    items.append(Item("trig-4x4", trig))
    return items


def build(workload: str, seed: int, workdir: Path) -> list[Item]:
    """Generate the workload's inputs from the seed; return its items."""
    rngs = _Streams(seed)
    if workload == "poly-suite":
        return _poly_items(rngs)
    if workload == "band-path":
        return _band_items(rngs)
    if workload == "trace-formula":
        return _trace_items(rngs, workdir)
    if workload == "schur-cert":
        return _schur_items(rngs, workdir)
    raise ValueError(f"unknown workload {workload!r}")
