"""Command-line interface: subcommand dispatch, file I/O, report emission.

Exit codes: 0 success, 1 validation error (arguments, files, shapes),
2 numerical-tolerance failure (a computed quantity missed its documented
tolerance, including selftest failures).  All machine-readable output is
deterministic JSON; identical inputs and seed give byte-identical reports.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import sys
from pathlib import Path

import numpy as np

from . import besov, divdiff, doi, fileio, heltonhowe, models
from .commutator import (commutator_of_functions, probe_problem1, probe_problem2,
                         theorem41_trial_suite, verify_theorem_41)
from .fileio import INTEGER, NON_NEGATIVE, NON_NEGATIVE_INTEGER, POSITIVE, POSITIVE_INTEGER
from .functions import Function2D
from .rng import Xorshift64Star
from .spectral import HermitianOperator

DATA_DIR = Path(__file__).parent / "data"

#: the number kind of each numeric trace-formula cfg key (n_table and
#: m_fractions are comma-separated lists), and the keys each mode reads
CFG_NUMBERS = {"n": POSITIVE_INTEGER, "m": INTEGER, "resolution": INTEGER,
               "n_table": POSITIVE_INTEGER, "m_fractions": POSITIVE}
CFG_KEYS = {"polynomial-suite": ("mode", "n", "m"),
            "single": ("mode", "phi", "psi", "symbol", *CFG_NUMBERS)}


def _flag(kind):
    """argparse type for a numeric flag; argparse names the flag it refuses."""
    def read(text):
        if (value := fileio.parse_number(text, kind)) is None:
            raise argparse.ArgumentTypeError(f"not {kind[2]}: {text!r}")
        return value
    return read


def _exponent(text: str) -> str:
    """argparse type of a Besov exponent flag: a float, inf or oo, kept as
    written for the report; besov judges its value."""
    try:
        float("inf" if text == "oo" else text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number, inf or oo: {text!r}") from None
    return text


def _operands(args):
    """phi, then the Hermitian pair (A, B); (None, None) for a command given
    neither, which reads no --phi.  Half a pair, --psi without the pair, the
    pair without --phi, or a pair of two sizes is refused."""
    if (args.A is None) != (args.B is None) or (args.A is None and getattr(args, "psi", None)):
        raise ValueError("--A and --B name the Hermitian pair: give both, or neither and no --psi")
    if args.A is None:
        return None, None
    if args.phi is None:
        raise ValueError("--phi is required with the pair --A, --B")
    phi = fileio.read_function_spec(args.phi)
    a, b = (HermitianOperator(fileio.read_matrix(m)) for m in (args.A, args.B))
    if a.dim != b.dim:
        raise ValueError(f"A and B must have the same size, got {a.dim} and {b.dim}")
    return phi, (a, b)


def _file_record(path) -> dict:
    """A file as a report records it: its name and the sha256 of its bytes,
    so the same data give the same report from any directory."""
    path = Path(path)
    return {"name": path.name, "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}


def _print(args, text):
    if not args.json:
        print(text)


def _emit(args, payload, target):
    """The one report path: payload written to target, if any, and printed under --json."""
    if target:
        fileio.write_report(target, payload)
        _print(args, f"report written to {target}")
    if args.json:
        print(fileio.report_text(payload))


def cmd_besov_norm(args) -> int:
    values, grid = fileio.read_samples(args.input)
    p, q = (float("inf" if v == "oo" else v) for v in (args.p, args.q))
    lo, hi = besov.default_band_range(grid)
    band_range = (lo if args.band_min is None else args.band_min,
                  hi if args.band_max is None else args.band_max)
    bn = besov.besov_norm(values, grid, s=args.s, p=p, q=q, band_range=band_range)
    payload = {"command": "besov-norm", "input": _file_record(args.input), "s": args.s,
               "p": str(args.p), "q": str(args.q), "value": bn.value,
               "band_terms": {str(k): v for k, v in bn.band_terms.items()},
               "uncovered_mass": bn.uncovered_mass}
    _print(args, f"besov norm (s={args.s}, p={args.p}, q={args.q}): {bn.value!r}")
    _emit(args, payload, args.out)
    return 0


def cmd_funcalc(args) -> int:
    phi, (a, b) = _operands(args)
    result = doi.funcalc(phi, a, b)
    fileio.write_matrix(args.out, result)
    payload = {"command": "funcalc", "phi": _file_record(args.phi),
               "A": _file_record(args.A), "B": _file_record(args.B),
               "out": _file_record(args.out),
               "operator_norm": float(np.linalg.norm(result, 2)),
               "trace": complex(np.trace(result))}
    _print(args, f"phi(A,B) written to {args.out}")
    _emit(args, payload, args.report)
    return 0


def cmd_schur_norm(args) -> int:
    m = fileio.read_matrix(args.matrix)
    cert = doi.schur_multiplier_norm(m, tol=args.tol)
    payload = {"command": "schur-norm", "matrix": _file_record(args.matrix),
               "tol": args.tol, "upper": cert.upper, "lower": cert.lower,
               "gap": cert.gap, "converged": cert.converged,
               "witness_min_eig": cert.witness_min_eig,
               "iterations": cert.iterations}
    _print(args, f"multiplier norm in [{cert.lower!r}, {cert.upper!r}] "
                 f"(gap {cert.gap:.3e}{'' if cert.converged else ', not within tol'})")
    _emit(args, payload, args.out)
    return 0 if cert.converged or args.allow_gap else 2


def cmd_commutator_verify(args) -> int:
    phi, pair = _operands(args)
    if pair:
        if args.psi:
            _, rep = commutator_of_functions(phi, fileio.read_function_spec(args.psi), *pair)
        else:
            q = Xorshift64Star(args.seed).complex_normal((pair[0].dim, pair[0].dim))
            q /= np.linalg.norm(q, 2)
            rep = verify_theorem_41(phi, *pair, q)
        payload = {"command": "commutator-verify", "mode": "single",
                   "seed": args.seed, "report": dataclasses.asdict(rep)}
        tol = args.tolerance * max(rep.lhs_s1, 1.0)
        ok = rep.residual_s1 <= tol
        _print(args, f"residual_s1 {rep.residual_s1:.3e} "
                     f"({'within' if ok else 'EXCEEDS'} tolerance {tol:.3e})")
    else:
        results = theorem41_trial_suite(n_trials=args.trials, seed=args.seed,
                                        max_dim=args.max_dim, degree=args.degree)
        trials = [{"meta": meta, **dataclasses.asdict(rep)} for meta, rep in results]
        max_resid = max(t["residual_s1"] for t in trials)
        max_const = max(t["empirical_constant"] for t in trials)
        scale = max(max(t["lhs_s1"] for t in trials), 1.0)
        payload = {"command": "commutator-verify", "mode": "suite",
                   "trials": trials, "seed": args.seed,
                   "max_residual_s1": max_resid,
                   "max_empirical_constant": max_const}
        ok = max_resid <= args.tolerance * scale
        _print(args, f"{len(trials)} trials: max residual {max_resid:.3e}, "
                     f"max empirical constant {max_const:.4f}")
    _emit(args, payload, args.report)
    return 0 if ok else 2


def cmd_probe(args) -> int:
    phi, (a, b) = _operands(args)
    psi = fileio.read_function_spec(args.psi)
    p1 = probe_problem1(phi, psi, a, b)
    p2 = probe_problem2(phi, a, b)
    payload = {"command": "probe",
               "multiplicativity_defect_s1": p1,
               "self_adjointness_defect_s1": p2}
    _print(args, f"(phi psi)(A,B) - phi(A,B) psi(A,B) trace norm: {p1!r}")
    _print(args, f"phi(A,B)* - conj(phi)(A,B) trace norm:          {p2!r}")
    _emit(args, payload, args.out)
    return 0


def _symbol_from_cfg(cfg: dict, path) -> models.Symbol:
    spec = cfg.get("symbol", "shift")
    if spec == "shift":
        return heltonhowe.SHIFT_SYMBOL
    # a file name is read relative to the cfg's directory, so it is looked for there
    p = Path(spec) if Path(spec).is_absolute() else Path(path).parent / spec
    if ":" in spec and not p.exists():
        entries = [(part, part.split(":")) for part in spec.split(",")]
        return fileio.symbol_from_entries(path, entries, None, "symbol entry")
    return fileio.read_symbol(p)


def cmd_trace_formula(args) -> int:
    cfg = fileio.read_config(args.config)
    mode = cfg.get("mode", "polynomial-suite")
    if mode not in CFG_KEYS:
        raise ValueError(f"unknown trace-formula mode {mode!r}")
    if unread := [key for key in cfg if key not in CFG_KEYS[mode]]:
        raise ValueError(f"{args.config}: mode {mode} does not read key {unread[0]!r}")

    def number(key, text):
        return fileio.read_number(args.config, key, text, CFG_NUMBERS[key], "key")
    # m and resolution below 1 fall to the corner and quadrature rules, which name them
    numbers = {key: tuple(number(key, entry) for entry in text.split(","))
               if key in ("n_table", "m_fractions") else number(key, text)
               for key, text in cfg.items() if key in CFG_NUMBERS}
    n = numbers.setdefault("n", heltonhowe.TraceExperimentConfig.n)
    if mode == "polynomial-suite":
        m = numbers.get("m", n // 4)
        rows = heltonhowe.polynomial_suite(n=n, m=m)
        max_lhs = max(r["lhs_err"] for r in rows)
        max_rhs = max(r["rhs_err"] for r in rows)
        payload = {"command": "trace-formula", "mode": mode, "n": n, "m": m, "suite": rows,
                   "max_lhs_err": max_lhs, "max_rhs_err": max_rhs}
        ok = max_lhs <= 1e-8 and max_rhs <= 5e-3
        for r in rows:
            _print(args, f"{r['pair']:>8}: lhs {r['lhs']!r} rhs {r['rhs']!r} "
                         f"expected {r['exact']!r}")
        if args.csv:
            fileio.write_csv(args.csv, rows)
    else:
        phi, psi = (fileio.read_function_spec(Path(args.config).parent / cfg[key])
                    for key in ("phi", "psi"))
        exp_cfg = heltonhowe.TraceExperimentConfig(
            phi=phi, psi=psi, symbol=_symbol_from_cfg(cfg, args.config), **numbers)
        rep = heltonhowe.trace_formula_experiment(exp_cfg)
        payload = {"command": "trace-formula", "mode": mode, "n": n,
                   "m": exp_cfg.corner(), "resolution": exp_cfg.resolution,
                   "lhs": rep.lhs, "rhs": rep.rhs, "abs_err": rep.abs_err,
                   "rel_err": rep.rel_err, "imag_residue": rep.imag_residue,
                   "jacobian_scale": rep.jacobian_scale,
                   "convergence": list(rep.convergence)}
        ok = rep.abs_err <= max(5e-3 * max(abs(rep.rhs), rep.jacobian_scale), 1e-12)
        _print(args, f"lhs {rep.lhs!r}  rhs {rep.rhs!r}  abs_err {rep.abs_err:.3e}")
        if args.csv:
            fileio.write_csv(args.csv, [dict(r) for r in rep.convergence])
    _emit(args, payload, args.out)
    return 0 if ok else 2


def run_selftest() -> list[tuple[str, bool, str]]:
    """The bundled invariant suite; each entry is (name, passed, detail)."""
    checks = []

    s = np.linspace(0.01, 1000.0, 10 ** 4)
    err = np.abs(sum(besov.window_eval(s / 2.0 ** k) for k in range(-20, 21)) - 1).max()
    checks.append(("window partition of unity", err <= 1e-10, f"max err {err:.2e}"))

    grid = besov.DEFAULT_GRID_1D
    x = grid.axis()
    v1 = besov.besov_norm(np.sin(x), grid).value
    v2 = besov.besov_norm(np.sin(2 * x), grid).value
    checks.append(("besov norm of sin", abs(v1 - 1.0) <= 1e-6, f"value {v1!r}"))
    checks.append(("dyadic dilation doubles the norm",
                   abs(v2 / v1 - 2.0) <= 1e-10, f"ratio {v2 / v1!r}"))

    rng = Xorshift64Star(7)
    a = rng.hermitian(8)
    b = rng.hermitian(8)
    phi = Function2D.polynomial([[0.0, 1.0], [1.0, 0.5]])
    f = doi.funcalc(phi, a, b)
    direct = b + a + 0.5 * a @ b
    derr = float(np.linalg.norm(f - direct, 2))
    checks.append(("polynomial functional calculus", derr <= 1e-10, f"residual {derr:.2e}"))

    q = rng.complex_normal((8, 8))
    q /= np.linalg.norm(q, 2)
    rep = verify_theorem_41(Function2D.polynomial([[0, 0], [0, 1], [0.3, 0]]), a, b, q)
    checks.append(("commutator triple-integral identity",
                   rep.residual_s1 <= 1e-10 * max(rep.lhs_s1, 1.0),
                   f"residual {rep.residual_s1:.2e}"))

    cos_s = models.Symbol.from_dict({1: 0.5, -1: 0.5})
    sin_s = models.Symbol.from_dict({1: -0.5j, -1: 0.5j})
    resid = models.verify_hankel_identity(cos_s, sin_s, 32, 12)
    checks.append(("Toeplitz-Hankel commutator identity", resid <= 1e-12,
                   f"window residual {resid:.2e}"))

    cert = doi.schur_multiplier_norm(np.ones((4, 5)))
    ok = abs(cert.upper - 1.0) <= 1e-9 and abs(cert.lower - 1.0) <= 1e-9
    checks.append(("multiplier norm of all-ones", ok,
                   f"[{cert.lower!r}, {cert.upper!r}]"))
    cert = doi.schur_multiplier_norm(np.array([[1.0, 1.0], [1.0, -1.0]]))
    ok = cert.gap <= 1e-4 and abs(cert.upper - np.sqrt(2)) <= 1e-4
    checks.append(("multiplier norm of the 2x2 sign matrix", ok,
                   f"[{cert.lower!r}, {cert.upper!r}]"))

    suite = heltonhowe.polynomial_suite(n=64, m=16)
    max_lhs = max(r["lhs_err"] for r in suite)
    max_rhs = max(r["rhs_err"] for r in suite)
    checks.append(("trace-formula polynomial suite",
                   max_lhs <= 1e-8 and max_rhs <= 5e-3,
                   f"lhs err {max_lhs:.2e}, rhs err {max_rhs:.2e}"))

    deficit = float(np.abs(divdiff.sinc_partition_deficit(
        np.linspace(-np.pi, np.pi, 64), 2000)).max())
    checks.append(("sinc partition identity", deficit <= 1e-3,
                   f"deficit {deficit:.2e}"))
    return checks


def cmd_selftest(args) -> int:
    checks = run_selftest()
    payload = {"command": "selftest",
               "checks": [{"name": n, "passed": bool(p), "detail": d}
                          for n, p, d in checks],
               "passed": all(p for _, p, _ in checks)}
    for name, passed, detail in checks:
        _print(args, f"{'PASS' if passed else 'FAIL'}  {name}  ({detail})")
    _emit(args, payload, args.out)
    return 0 if payload["passed"] else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opintegral",
        description="operator integrals, dyadic-band norms, and trace-formula "
                    "experiments on dense Hermitian matrices")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="print machine-readable JSON only")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("besov-norm", parents=[common],
                       help="dyadic band norm of a sampled function")
    p.add_argument("--input", required=True)
    p.add_argument("--s", type=float, default=1.0)
    p.add_argument("--p", type=_exponent, default="inf")
    p.add_argument("--q", type=_exponent, default="1")
    p.add_argument("--band-min", type=int, default=None)
    p.add_argument("--band-max", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_besov_norm)

    p = sub.add_parser("funcalc", parents=[common], help="phi(A, B) for a two-variable function")
    for flag in ("--phi", "--A", "--B", "--out"):
        p.add_argument(flag, required=True)
    p.add_argument("--report")
    p.set_defaults(func=cmd_funcalc)

    p = sub.add_parser("schur-norm", parents=[common], help="certified Hadamard multiplier norm")
    p.add_argument("--matrix", required=True)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--allow-gap", action="store_true",
                   help="exit 0 even if the gap exceeds tol")
    p.add_argument("--out")
    p.set_defaults(func=cmd_schur_norm)

    p = sub.add_parser("commutator-verify", parents=[common],
                       help="triple-integral commutator identity checks")
    p.add_argument("--phi", help="function spec of the pair mode; the trial suite ignores it")
    for flag in ("--psi", "--A", "--B"):
        p.add_argument(flag)
    p.add_argument("--trials", type=_flag(POSITIVE_INTEGER), default=50)
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--max-dim", type=_flag(POSITIVE_INTEGER), default=32)
    p.add_argument("--degree", type=_flag(NON_NEGATIVE_INTEGER), default=4)
    p.add_argument("--tolerance", type=_flag(NON_NEGATIVE), default=1e-10)
    p.add_argument("--report")
    p.set_defaults(func=cmd_commutator_verify)

    p = sub.add_parser("probe", parents=[common], help="open-problem defect probes (reported only)")
    for flag in ("--phi", "--psi", "--A", "--B"):
        p.add_argument(flag, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("trace-formula", parents=[common], help="corner trace vs principal-function integral")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.add_argument("--csv")
    p.set_defaults(func=cmd_trace_formula)

    p = sub.add_parser("selftest", parents=[common], help="run the bundled invariant suite")
    p.add_argument("--out")
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 1 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except ArithmeticError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
