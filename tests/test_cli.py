import json
import re

import numpy as np
import pytest

from opintegral.cli import DATA_DIR, _symbol_from_cfg, main
from opintegral.fileio import (read_config, read_function_spec, read_matrix,
                               read_samples, read_symbol, write_function_spec,
                               write_matrix, write_samples, write_symbol)
from opintegral.functions import (MAX_EXPR_NODES, Function1D, Function2D, UniformGrid,
                                  parse_expr)
from opintegral.models import Symbol
from opintegral.rng import Xorshift64Star


def test_matrix_roundtrip(tmp_path, rng):
    m = rng.complex_normal((5, 5))
    path = tmp_path / "m.opmat"
    write_matrix(path, m)
    back = read_matrix(path)
    assert np.array_equal(back, m)
    assert path.read_text().splitlines()[0] == "dim 5 complex"


def test_samples_roundtrip(tmp_path):
    grid = UniformGrid(dim=1, period=2 * np.pi, points=16)
    vals = np.exp(1j * grid.axis())
    path = tmp_path / "f.opfun"
    write_samples(path, vals, grid)
    back, grid2 = read_samples(path)
    assert grid2 == grid
    assert np.array_equal(back, vals)


def test_symbol_roundtrip(tmp_path):
    sym = Symbol.from_dict({2: 1.0, 1: 0.5 - 0.25j, -1: 0.5 + 0.25j})
    path = tmp_path / "f.sym"
    write_symbol(path, sym)
    back = read_symbol(path)
    assert np.array_equal(back.coeffs, sym.coeffs)


def test_function_spec_roundtrips(tmp_path):
    poly = Function2D.polynomial([[0.0, 1.5], [2.0, 0.0]])
    p = tmp_path / "poly.spec"
    write_function_spec(p, poly)
    back = read_function_spec(p)
    assert back(1.3, -0.7) == pytest.approx(poly(1.3, -0.7))

    closed = Function2D.closed_form("exp(-(x*x + y*y)) + 0.5*sin(x)")
    c = tmp_path / "closed.spec"
    write_function_spec(c, closed)
    back = read_function_spec(c)
    assert back(0.4, 0.2) == pytest.approx(closed(0.4, 0.2))

    prod = Function2D.product(Function1D.closed_form("sin(x)"),
                              Function1D.closed_form("1 + x*x"))
    pr = tmp_path / "prod.spec"
    write_function_spec(pr, prod)
    back = read_function_spec(pr)
    assert back(0.3, 2.0) == pytest.approx(np.sin(0.3) * 5.0)

    grid = UniformGrid(dim=2, period=2 * np.pi, points=8)
    ax = grid.axis()
    samp = Function2D.sampled(np.outer(np.sin(ax), np.cos(ax)), grid)
    sp = tmp_path / "samp.spec"
    write_function_spec(sp, samp, samples_path=tmp_path / "samp.opfun")
    back = read_function_spec(sp)
    assert back(0.5, 0.25) == pytest.approx(samp(0.5, 0.25))


def test_function_spec_rejects_closed_forms_with_complex_constants(tmp_path):
    scaled = Function2D.closed_form(parse_expr("x") * 1j)
    product = Function2D.product(Function1D.polynomial([1.0, 2j]),
                                 Function1D.closed_form("sin(x)"))
    for i, f in enumerate((scaled, product)):
        path = tmp_path / f"complex{i}.spec"
        with pytest.raises(ValueError, match=re.escape(f"closed form {f.data!r} ")):
            write_function_spec(path, f)
        assert not path.exists()


def test_config_parsing(tmp_path):
    cfg = tmp_path / "a.cfg"
    cfg.write_text("# comment line\nmode single   # trailing comment\nn 64\n\nseed 7\n")
    parsed = read_config(cfg)
    assert parsed == {"mode": "single", "n": "64", "seed": "7"}


def test_bad_matrix_file(tmp_path):
    path = tmp_path / "bad.opmat"
    path.write_text("dim 2 complex\n1.0 0.0\n")
    with pytest.raises(ValueError, match="expected 4 entries"):
        read_matrix(path)


def test_cli_besov_on_bundled_sin(capsys):
    code = main(["besov-norm", "--input", str(DATA_DIR / "sin.opfun"), "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["value"] - 1.0) <= 1e-6


def test_cli_besov_rejects_non_finite_samples(tmp_path, capsys):
    grid = UniformGrid(dim=1, period=2 * np.pi, points=64)
    vals = np.sin(grid.axis()).astype(np.complex128)
    vals[3] = np.nan
    path = tmp_path / "f.opfun"
    write_samples(path, vals, grid)
    assert main(["besov-norm", "--input", str(path)]) == 1
    assert f"{path}: non-finite number in line 'nan 0.0'" in capsys.readouterr().err
    # finite samples whose spectral mass overflows are rejected by the LP analysis
    vals[3] = 1e200
    write_samples(path, vals, grid)
    assert main(["besov-norm", "--input", str(path)]) == 1
    assert "non-finite spectral mass" in capsys.readouterr().err
    # a period that is not positive and finite
    for period in ("inf", "0", "-6"):
        path.write_text(f"grid 1 {period} 2\n0.0 0.0\n1.0 0.0\n", encoding="utf-8")
        assert main(["besov-norm", "--input", str(path)]) == 1
        assert (f"{path}: grid period must be positive and finite, got {float(period)} "
                f"in line 'grid 1 {period} 2'" in capsys.readouterr().err)


def _single_trace_config(tmp_path, phi, symbol="shift", resolution=64, extra=""):
    cfg = tmp_path / "single.cfg"
    cfg.write_text(f"mode single\nsymbol {symbol}\nphi {phi}\n"
                   f"psi {DATA_DIR / 'psi_y.spec'}\nn 16\nresolution {resolution}\n"
                   f"n_table 16\n{extra}", encoding="utf-8")
    return cfg


@pytest.mark.parametrize("extra, message", [
    ("m -3\n", "corner size -3 must lie in 1..n/2 = 1..8"),
    ("m 0\n", "corner size 0 must lie in 1..n/2 = 1..8"),
    ("n 3\n", "corner size 0 must lie in 1..n/2 = 1..1")])
def test_cli_single_mode_rejects_corners_outside_one_to_half_n(tmp_path, capsys, extra,
                                                               message):
    cfg = _single_trace_config(tmp_path, DATA_DIR / "phi_x.spec", extra=extra)
    assert main(["trace-formula", "--config", str(cfg)]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("m", [12, -3])
def test_cli_polynomial_suite_rejects_corners_outside_one_to_half_n(tmp_path, capsys, m):
    cfg = tmp_path / "suite.cfg"
    cfg.write_text(f"mode polynomial-suite\nn 16\nm {m}\n", encoding="utf-8")
    assert main(["trace-formula", "--config", str(cfg)]) == 1
    assert f"corner size {m} must lie in 1..n/2 = 1..8" in capsys.readouterr().err


def test_cli_rejects_non_finite_spec_coefficient(tmp_path, capsys):
    spec = tmp_path / "bad.spec"
    spec.write_text("variant polynomial\ncoeff 1 0 nan 0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="non-finite number in line 'coeff 1 0 nan 0'"):
        read_function_spec(spec)
    assert main(["trace-formula", "--config", str(_single_trace_config(tmp_path, spec))]) == 1
    assert f"{spec}: non-finite number in line 'coeff 1 0 nan 0'" in capsys.readouterr().err


def test_cli_rejects_non_finite_symbol_coefficient(tmp_path, capsys):
    sym = tmp_path / "bad.sym"
    sym.write_text("deg 1\n-1 0.0 0.0\n0 0.0 0.0\n1 inf 0.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="non-finite number in line '1 inf 0.0'"):
        read_symbol(sym)
    cfg = _single_trace_config(tmp_path, DATA_DIR / "phi_x.spec", symbol=sym)
    assert main(["trace-formula", "--config", str(cfg)]) == 1
    assert f"{sym}: non-finite number in line '1 inf 0.0'" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["-3 7 0", "2 7 0"])
def test_cli_rejects_symbol_index_outside_the_degree(tmp_path, capsys, line):
    # k < -deg would alias another coefficient through a negative index
    sym = tmp_path / "bad.sym"
    sym.write_text(f"deg 1\n-1 0.0 0.0\n0 0.0 0.0\n1 1.0 0.0\n{line}\n", encoding="utf-8")
    cfg = _single_trace_config(tmp_path, DATA_DIR / "phi_x.spec", symbol=sym)
    assert main(["trace-formula", "--config", str(cfg)]) == 1
    k = line.split()[0]
    assert f"{sym}: index {k} outside -1..1 in line {line!r}" in capsys.readouterr().err
    with pytest.raises(ValueError, match=f"coefficient index {k} lies outside -1..1"):
        Symbol.from_dict({int(k): 7.0}, 1)


@pytest.mark.parametrize("line", ["coeff -1 0 5 0", "coeff 0 -2 5 0"])
def test_cli_rejects_negative_spec_exponents(tmp_path, capsys, line):
    # a negative exponent would alias another coefficient (coeff -1 0 5 0 as 5x)
    spec = tmp_path / "neg.spec"
    spec.write_text(f"variant polynomial\ncoeff 1 0 1 0\n{line}\n", encoding="utf-8")
    assert main(["trace-formula", "--config", str(_single_trace_config(tmp_path, spec))]) == 1
    assert f"{spec}: bad coeff line {line!r}" in capsys.readouterr().err


@pytest.mark.parametrize("kind, text, message", [
    ("sym", "deg 1\n0 1 0\n0 5 0\n", "{path}: repeated index 0 in line '0 5 0'"),
    ("spec", "variant polynomial\ncoeff 1 0 1 0\ncoeff 1 0 3 0\n",
     "{path}: repeated exponents 1 0 in line 'coeff 1 0 3 0'"),
    ("inline", "0:1:0,0:5:0,1:1:0", "repeated index 0 in symbol entry '0:5:0'")],
    ids=["sym", "spec", "inline"])
def test_cli_rejects_repeated_entries(tmp_path, capsys, kind, text, message):
    # a second entry for one index is more likely a typo than an intent
    path = tmp_path / f"twice.{kind}"
    path.write_text(text, encoding="utf-8")
    phi = path if kind == "spec" else DATA_DIR / "phi_x.spec"
    symbol = {"sym": path, "spec": "shift", "inline": text}[kind]
    cfg = _single_trace_config(tmp_path, phi, symbol=symbol)
    assert main(["trace-formula", "--config", str(cfg)]) == 1
    assert message.format(path=path) in capsys.readouterr().err


def _inline_symbol(path):
    """The cfg line 'symbol <text of path>' read as the CLI reads it."""
    return _symbol_from_cfg({"symbol": path.read_text(encoding="utf-8")}, path)


@pytest.mark.parametrize("reader, text, message", [
    (read_matrix, "dim 1 complex\n0 0 0\n", "expected the two numbers 're im' in line '0 0 0'"),
    (read_matrix, "dim 1 complex\n1 one\n", "expected the two numbers 're im' in line '1 one'"),
    (read_samples, "grid 1 1.0 2\n0 0\n0 0 0\n",
     "expected the two numbers 're im' in line '0 0 0'"),
    (read_symbol, "deg 0\n0 1\n", "expected the two numbers 're im' in line '0 1'"),
    (read_matrix, "dim n complex\n", "not an integer: 'n' in line 'dim n complex'"),
    (read_matrix, "dim -2 complex\n1 0\n0 0\n0 0\n1 0\n",
     "negative size -2 in line 'dim -2 complex'"),
    (read_symbol, "deg -1\n", "negative size -1 in line 'deg -1'"),
    (read_symbol, "deg x\n0 1 0\n", "not an integer: 'x' in line 'deg x'"),
    (read_symbol, "deg 1\nk 2 0\n", "not an integer: 'k' in line 'k 2 0'"),
    (read_function_spec, "variant polynomial\ncoeff a 0 1 0\n",
     "not an integer: 'a' in line 'coeff a 0 1 0'"),
    (read_function_spec, "variant polynomial\ncoeff 0 b 1 0\n",
     "not an integer: 'b' in line 'coeff 0 b 1 0'"),
    (_inline_symbol, "0:1:0,k:2:0", "not an integer: 'k' in symbol entry 'k:2:0'"),
    (_inline_symbol, "0:1", "expected the two numbers 're im' in symbol entry '0:1'")],
    ids=["matrix-three-fields", "matrix-word", "samples-three-fields", "symbol-two-fields",
         "matrix-dim", "matrix-negative-dim", "symbol-negative-deg", "symbol-deg",
         "symbol-index", "spec-coeff-j", "spec-coeff-k", "inline-symbol-index",
         "inline-symbol-two-fields"])
def test_readers_name_file_and_line_of_a_malformed_number_line(tmp_path, reader, text, message):
    path = tmp_path / "bad.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
        reader(path)


@pytest.mark.parametrize("expr", ["x**3000", "x**1e300", "((x**60)**60)**60"])
def test_cli_rejects_expressions_over_the_node_cap(tmp_path, capsys, expr):
    # a**k is written out as k products: these would recurse past Python's
    # limit, build 10^300 nodes, or multiply 60^3 factors
    spec = tmp_path / "big.spec"
    spec.write_text(f"variant closed_form\nexpr {expr}\n", encoding="utf-8")
    assert main(["trace-formula", "--config", str(_single_trace_config(tmp_path, spec))]) == 1
    assert (f"more than {MAX_EXPR_NODES} expression nodes in {expr!r}"
            in capsys.readouterr().err)


def test_cli_rejects_headerless_symbol_and_bare_variant_spec(tmp_path, capsys):
    sym = tmp_path / "comments.sym"
    sym.write_text("# a comment and nothing else\n\n", encoding="utf-8")
    cfg = _single_trace_config(tmp_path, DATA_DIR / "phi_x.spec", symbol=sym)
    assert main(["trace-formula", "--config", str(cfg)]) == 1
    assert f"{sym}: symbol file has no 'deg d' header" in capsys.readouterr().err
    spec = tmp_path / "bare.spec"
    spec.write_text("variant\ncoeff 1 0 1.0 0.0\n", encoding="utf-8")
    assert main(["trace-formula", "--config", str(_single_trace_config(tmp_path, spec))]) == 1
    assert (f"{spec}: function spec must start with a 'variant <kind>' line"
            in capsys.readouterr().err)


@pytest.mark.parametrize("resolution", [0, -4])
def test_cli_rejects_quadrature_resolution_below_one(tmp_path, capsys, resolution):
    cfg = _single_trace_config(tmp_path, DATA_DIR / "phi_x.spec", resolution=resolution)
    assert main(["trace-formula", "--config", str(cfg)]) == 1
    assert (f"quadrature resolution must be at least 1, got {resolution}"
            in capsys.readouterr().err)


@pytest.mark.parametrize("expr, token", [("nan*x", "nan"), ("y + inf", "inf"),
                                         ("1e999*x*y", "1e999")])
def test_cli_rejects_non_finite_expression_number(tmp_path, capsys, expr, token):
    spec = tmp_path / "bad.spec"
    spec.write_text(f"variant closed_form\nexpr {expr}\n", encoding="utf-8")
    assert main(["trace-formula", "--config", str(_single_trace_config(tmp_path, spec))]) == 1
    assert f"non-finite number {token!r} in {expr!r}" in capsys.readouterr().err


def test_cli_rejects_python_only_expression(tmp_path, capsys):
    spec = tmp_path / "bad.spec"
    spec.write_text("variant closed_form\nexpr x**0.5 + y\n", encoding="utf-8")
    assert main(["trace-formula", "--config", str(_single_trace_config(tmp_path, spec))]) == 1
    assert ("exponent must be a nonnegative integral literal, not '0.5' in 'x**0.5 + y'"
            in capsys.readouterr().err)


@pytest.mark.parametrize("symbol", ["1:nan:0", "-1:0.5:0,1:0:inf"])
def test_cli_rejects_non_finite_inline_symbol(tmp_path, capsys, symbol):
    cfg = _single_trace_config(tmp_path, DATA_DIR / "phi_x.spec", symbol=symbol)
    assert main(["trace-formula", "--config", str(cfg)]) == 1
    bad = symbol.split(",")[-1]
    assert f"non-finite number in symbol entry {bad!r}" in capsys.readouterr().err


def test_cli_trace_formula_bundled(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["trace-formula", "--config", str(DATA_DIR / "shift_suite.cfg"),
                 "--out", str(out), "--json"])
    assert code == 0
    payload = json.loads(out.read_text())
    by_pair = {row["pair"]: row for row in payload["suite"]}
    assert by_pair["x,y"]["lhs"] == pytest.approx(0.5, abs=1e-8)
    assert by_pair["x,y"]["rhs"] == pytest.approx(0.5, abs=5e-3)
    assert by_pair["x^2,xy"]["lhs"] == pytest.approx(0.25, abs=1e-8)
    assert "resolution" not in payload


def _double_winding_gauss_config(tmp_path, sizes):
    cfg = tmp_path / "gauss.cfg"
    cfg.write_text(f"mode single\nsymbol {DATA_DIR / 'double_winding.sym'}\n"
                   f"phi {DATA_DIR / 'gauss_bump.spec'}\npsi {DATA_DIR / 'psi_gauss.spec'}\n"
                   f"{sizes}resolution 64\n", encoding="utf-8")
    return cfg


def test_cli_trace_formula_table_rows_report_their_residue(tmp_path):
    # the row n = 32, m = 4 has residue 0.00347, above the loose cap
    # 1e-3 * ||K|| * m = 1.5e-4 that the reported corner must meet
    cfg = _double_winding_gauss_config(tmp_path, "n 64\nn_table 32,64\n")
    out = tmp_path / "report.json"
    assert main(["trace-formula", "--config", str(cfg), "--out", str(out)]) == 0
    rows = {(r["n"], r["m"]): r for r in json.loads(out.read_text())["convergence"]}
    assert rows[(32, 4)]["imag_residue"] == pytest.approx(0.00347, abs=1e-5)


def test_cli_trace_formula_bad_reported_corner_still_fails(tmp_path, capsys):
    cfg = _double_winding_gauss_config(tmp_path, "n 32\nm 4\nn_table 32\n")
    out = tmp_path / "report.json"
    assert main(["trace-formula", "--config", str(cfg), "--out", str(out)]) == 2
    assert "corner trace imaginary residue 0.00347 exceeds" in capsys.readouterr().err
    assert not out.exists()


def test_cli_funcalc_and_probe(tmp_path, capsys):
    rng = Xorshift64Star(4)
    a = rng.hermitian(6)
    b = rng.hermitian(6)
    write_matrix(tmp_path / "A.opmat", a)
    write_matrix(tmp_path / "B.opmat", b)
    code = main(["funcalc", "--phi", str(DATA_DIR / "phi_xy.spec"),
                 "--A", str(tmp_path / "A.opmat"), "--B", str(tmp_path / "B.opmat"),
                 "--out", str(tmp_path / "out.opmat")])
    assert code == 0
    out = read_matrix(tmp_path / "out.opmat")
    assert np.linalg.norm(out - a @ b, 2) <= 1e-10
    code = main(["probe", "--phi", str(DATA_DIR / "phi_x.spec"),
                 "--psi", str(DATA_DIR / "psi_y.spec"),
                 "--A", str(tmp_path / "A.opmat"), "--B", str(tmp_path / "B.opmat"),
                 "--out", str(tmp_path / "probe.json")])
    assert code == 0
    payload = json.loads((tmp_path / "probe.json").read_text())
    assert payload["multiplicativity_defect_s1"] <= 1e-10


def test_cli_schur_norm(tmp_path, capsys):
    write_matrix(tmp_path / "Phi.opmat", np.ones((3, 3)))
    code = main(["schur-norm", "--matrix", str(tmp_path / "Phi.opmat"),
                 "--tol", "1e-6", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["upper"] == pytest.approx(1.0, abs=1e-9)
    assert payload["iterations"] == 1


def test_cli_schur_norm_rejects_an_empty_matrix(tmp_path, capsys):
    empty = tmp_path / "empty.opmat"
    empty.write_text("dim 0 complex\n", encoding="utf-8")
    assert main(["schur-norm", "--matrix", str(empty)]) == 1
    assert "error: matrix is empty (0 x 0)" in capsys.readouterr().err


def test_cli_commutator_suite(tmp_path, capsys):
    code = main(["commutator-verify", "--phi", str(DATA_DIR / "phi_xy.spec"),
                 "--trials", "2", "--seed", "9", "--max-dim", "8",
                 "--report", str(tmp_path / "r.json")])
    assert code == 0
    payload = json.loads((tmp_path / "r.json").read_text())
    assert len(payload["trials"]) == 2
    assert payload["max_residual_s1"] <= 1e-10


def test_cli_reports_are_deterministic(tmp_path):
    args = ["besov-norm", "--input", str(DATA_DIR / "sin.opfun"),
            "--out", str(tmp_path / "a.json")]
    assert main(args) == 0
    first = (tmp_path / "a.json").read_bytes()
    assert main(args) == 0
    assert (tmp_path / "a.json").read_bytes() == first


def test_cli_missing_file_is_validation_error(capsys):
    code = main(["besov-norm", "--input", "/nonexistent/f.opfun"])
    assert code == 1


def test_cli_unknown_flag_exits_one(capsys):
    assert main(["besov-norm", "--nonsense"]) == 1


def test_cli_selftest(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_cli_funcalc_rejects_empty_and_non_finite_matrices(tmp_path, capsys):
    good = tmp_path / "good.opmat"
    write_matrix(good, np.eye(2))
    empty = tmp_path / "empty.opmat"
    empty.write_text("dim 0 complex\n", encoding="utf-8")
    nan = tmp_path / "nan.opmat"
    write_matrix(nan, np.array([[1.0, np.nan], [np.nan, 0.0]]))
    negative = tmp_path / "negative.opmat"
    negative.write_text("dim -2 complex\n1 0\n0 0\n0 0\n1 0\n", encoding="utf-8")
    for bad, message in ((empty, "matrix is empty"), (nan, "non-finite entry"),
                         (negative, f"{negative}: negative size -2")):
        code = main(["funcalc", "--phi", str(DATA_DIR / "phi_xy.spec"), "--A", str(bad),
                     "--B", str(good), "--out", str(tmp_path / "out.opmat")])
        assert code == 1
        assert message in capsys.readouterr().err
