import csv
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from opintegral.cli import DATA_DIR, _symbol_from_cfg, main
from opintegral.fileio import (read_config, read_function_spec, read_matrix,
                               read_samples, read_symbol, write_function_spec,
                               write_matrix, write_samples)
from opintegral.functions import (MAX_EXPR_NODES, Function1D, Function2D, UniformGrid,
                                  parse_expr)
from opintegral.models import Symbol
from opintegral.rng import Xorshift64Star

from oracles import write_symbol


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


def test_handwritten_product_spec_reads_as_its_closed_form(tmp_path):
    # the README's variant product: u and v both in x, read as u(x) v(y)
    spec = tmp_path / "prod.spec"
    spec.write_text("# a product\nvariant product\nu sin(x)\nv 1 + x*x\n", encoding="utf-8")
    f = read_function_spec(spec)
    assert f.kind == "closed_form"
    assert f(0.3, 2.0) == pytest.approx(np.sin(0.3) * 5.0)
    back = tmp_path / "back.spec"
    write_function_spec(back, f)
    assert back.read_text(encoding="utf-8").splitlines()[0] == "variant closed_form"
    assert read_function_spec(back)(0.3, 2.0) == f(0.3, 2.0)


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


def test_config_refuses_a_repeated_key(tmp_path):
    # a second line for one key is more likely a typo than an intent
    cfg = tmp_path / "a.cfg"
    cfg.write_text("mode single\nn 16\nn 8  # smaller\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{cfg}: repeated key 'n' in line "
                                                   f"'n 8  # smaller'")):
        read_config(cfg)


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
    """A single-mode cfg; each 'key value' line of extra replaces the line of
    its key or, for a key not set here, is appended (a key given twice is
    refused)."""
    keys = {"mode": "single", "symbol": symbol, "phi": phi, "psi": DATA_DIR / "psi_y.spec",
            "n": 16, "resolution": resolution, "n_table": 16}
    keys.update(line.split(" ", 1) for line in extra.splitlines())
    cfg = tmp_path / "single.cfg"
    cfg.write_text("".join(f"{key} {value}\n" for key, value in keys.items()),
                   encoding="utf-8")
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


@pytest.mark.parametrize("line, message", [
    ("n abc", "not a positive integer: 'abc' in key 'n'"),
    ("n -8", "not a positive integer: '-8' in key 'n'"),
    ("m 2.5", "not an integer: '2.5' in key 'm'"),
    ("resolution x", "not an integer: 'x' in key 'resolution'"),
    ("n_table 8,,16", "not a positive integer: '' in key 'n_table'"),
    ("n_table 0,16", "not a positive integer: '0' in key 'n_table'"),
    ("m_fractions 0.25,inf", "not a finite positive number: 'inf' in key 'm_fractions'"),
    ("m_fractions -0.25", "not a finite positive number: '-0.25' in key 'm_fractions'")])
def test_cli_trace_formula_refuses_bad_cfg_numbers_naming_file_and_key(tmp_path, capsys,
                                                                       line, message):
    cfg = _single_trace_config(tmp_path, DATA_DIR / "phi_x.spec", extra=line + "\n")
    assert main(["trace-formula", "--config", str(cfg)]) == 1
    assert f"error: {cfg}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("mode, lines, message", [
    ("single", "resolutoin 64\n", "mode single does not read key 'resolutoin'"),
    ("single", "seed 7\n", "mode single does not read key 'seed'"),
    ("polynomial-suite", "n 16\nresolution 64\n",
     "mode polynomial-suite does not read key 'resolution'"),
    ("polynomial-suite", "n 16\nphi phi_x.spec\n",
     "mode polynomial-suite does not read key 'phi'"),
    ("single", "n 8\nresolutoin 64\n", "repeated key 'n' in line 'n 8'")])
def test_cli_trace_formula_refuses_keys_its_mode_does_not_read(tmp_path, capsys, mode, lines,
                                                               message):
    # a misspelt or repeated key used to leave its value unread or overridden, exit 0
    cfg = tmp_path / "bad.cfg"
    if mode == "single":
        cfg.write_text(_single_trace_config(tmp_path, DATA_DIR / "phi_x.spec").read_text()
                       + lines, encoding="utf-8")
    else:
        cfg.write_text(f"mode {mode}\n{lines}", encoding="utf-8")
    assert main(["trace-formula", "--config", str(cfg)]) == 1
    assert f"error: {cfg}: {message}" in capsys.readouterr().err


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


@pytest.mark.parametrize("text, message", [
    ("variant closed_form\nexpr x\nexpr y\n", "repeated key 'expr' in line 'expr y'"),
    ("variant product\nu x\nv x\nu sin(x)\n", "repeated key 'u' in line 'u sin(x)'"),
    ("variant product\nu x\nv x\nv sin(x)\n", "repeated key 'v' in line 'v sin(x)'"),
    ("variant sampled\nfile a.opfun\nfile b.opfun\n",
     "repeated key 'file' in line 'file b.opfun'"),
    ("variant closed_form\nexrp y\nexpr x\n", "variant closed_form does not read key 'exrp'"),
    ("variant product\nu x\nv x\nexpr x\n", "variant product does not read key 'expr'"),
    ("variant closed_form\n", "missing 'expr' line")],
    ids=["expr-twice", "u-twice", "v-twice", "file-twice", "unknown-key", "key-of-another-variant",
         "missing"])
def test_cli_reads_spec_key_lines_as_cfg_lines(tmp_path, capsys, text, message):
    # a second line for a key, or a key the variant does not read, is more
    # likely a typo than an intent
    spec = tmp_path / "keys.spec"
    spec.write_text(text, encoding="utf-8")
    assert main(["trace-formula", "--config", str(_single_trace_config(tmp_path, spec))]) == 1
    assert f"{spec}: {message}" in capsys.readouterr().err


def test_spec_key_lines_may_be_indented(tmp_path):
    spec = tmp_path / "indented.spec"
    spec.write_text("variant product\n  u sin(x)\n\tv 1 + x*x\n", encoding="utf-8")
    f = read_function_spec(spec)
    assert f(0.7, 1.5) == pytest.approx(np.sin(0.7) * (1 + 1.5 ** 2), rel=1e-15)
    spec.write_text("variant closed_form\n    expr x*y\n", encoding="utf-8")
    assert read_function_spec(spec)(2.0, 3.0) == 6.0


def test_cfg_symbol_file_is_looked_for_beside_the_cfg(tmp_path, monkeypatch):
    # a symbol file whose name holds ':' is read relative to the cfg's
    # directory, so it must be looked for there, not in the working directory
    sub = tmp_path / "sub"
    sub.mkdir()
    (sub / "s:1.sym").write_text("deg 1\n1 1 0\n", encoding="utf-8")
    _single_trace_config(sub, DATA_DIR / "phi_x.spec", symbol="s:1.sym")
    reports = []
    for cwd, cfg in ((sub, "single.cfg"), (tmp_path, "sub/single.cfg")):
        monkeypatch.chdir(cwd)
        out = tmp_path / f"{cwd.name}.json"
        assert main(["trace-formula", "--config", cfg, "--out", str(out)]) == 0, cwd
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_a_hash_inside_a_cfg_or_spec_value_is_kept(tmp_path):
    # "#" opens a comment only at a line's start or after whitespace, so a
    # file name holding "#" is read whole, as a cfg value and a .spec key line
    shutil.copy(DATA_DIR / "phi_x.spec", tmp_path / "p#1.spec")
    cfg = _single_trace_config(tmp_path, "p#1.spec")
    assert main(["trace-formula", "--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 0
    grid = UniformGrid(dim=2, period=2 * np.pi, points=4)
    write_samples(tmp_path / "s#1.opfun", np.ones((4, 4)), grid)
    spec = tmp_path / "s#1.spec"
    spec.write_text("variant sampled\nfile s#1.opfun  # samples\n", encoding="utf-8")
    assert read_function_spec(spec).grid == grid


@pytest.mark.parametrize("argv", [
    ["funcalc", "--phi", "phi_xy.spec", "--out", "F.opmat"],
    ["commutator-verify", "--phi", "phi_xy.spec"],
    ["commutator-verify", "--phi", "phi_x.spec", "--psi", "psi_y.spec"],
    ["probe", "--phi", "phi_x.spec", "--psi", "psi_y.spec"]],
    ids=["funcalc", "commutator-verify", "commutator-verify-psi", "probe"])
def test_cli_refuses_a_pair_of_two_sizes(tmp_path, capsys, argv):
    # every command that reads the pair names both sizes
    rng = Xorshift64Star(4)
    write_matrix(tmp_path / "A.opmat", rng.hermitian(3))
    write_matrix(tmp_path / "B.opmat", rng.hermitian(4))
    argv = [str(DATA_DIR / a) if a.endswith(".spec") else str(tmp_path / a)
            if a.endswith(".opmat") else a for a in argv]
    assert main([*argv, "--A", str(tmp_path / "A.opmat"), "--B", str(tmp_path / "B.opmat")]) == 1
    assert "error: A and B must have the same size, got 3 and 4" in capsys.readouterr().err
    assert not (tmp_path / "F.opmat").exists()


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


#: name -> command line of each report compared across BLAS thread counts; the
#: report path is appended, {data} stands for the bundled data directory and
#: {pair} for the directory of the fixed 6x6 pair (_write_pair)
THREAD_REPORTS = {
    "gauss_single": ["trace-formula", "--config", "{data}/gauss_single.cfg", "--out"],
    "shift_suite": ["trace-formula", "--config", "{data}/shift_suite.cfg", "--out"],
    "selftest": ["selftest", "--json", "--out"],
    "commutator": ["commutator-verify", "--phi", "{data}/phi_xy.spec", "--trials", "10",
                   "--report"],
    "probe": ["probe", "--phi", "{data}/gauss_bump.spec", "--psi", "{data}/psi_gauss.spec",
              "--A", "{pair}/A.opmat", "--B", "{pair}/B.opmat", "--out"],
    "besov": ["besov-norm", "--input", "{data}/sin.opfun", "--out"],
    "besov_p2": ["besov-norm", "--input", "{data}/sin.opfun", "--p", "2", "--q", "2",
                 "--s", "0.5", "--out"],
    "commutator_single": ["commutator-verify", "--phi", "{data}/phi_x.spec",
                          "--psi", "{data}/psi_y.spec", "--A", "{pair}/A.opmat",
                          "--B", "{pair}/B.opmat", "--report"],
    "funcalc": ["funcalc", "--phi", "{data}/phi_xy.spec", "--A", "{pair}/A.opmat",
                "--B", "{pair}/B.opmat", "--out", "{pair}/F.opmat", "--report"]}


#: sha256 of each THREAD_REPORTS report at one BLAS thread (numpy 2.4.6,
#: OpenBLAS 0.3.31); a change that moves report bytes on purpose updates this
#: table and says why
THREAD_REPORT_SHA256 = {
    "gauss_single": "8a8300beb903ace94af3cf7dac78eca81a4fd0eb5b572c6ba3201c4fec74a2fb",
    "shift_suite": "401583752db01b864fd67f92487cae862b86952974e3d9c9d64d8ce914d52474",
    "selftest": "5bb732bb306c25d1016ef76652e1993a674b08caa10622679c645e2067f1ed52",
    "commutator": "c077dbd464139e4f0671733c25142d2571709b01914150021e2b6bb79bbc258c",
    "probe": "4d4735fd920bad3837bed9659fbee321e1b61b09ba0d454af26a2ce307e93aa0",
    "besov": "3c41834e7fc42cf577fc089c75edab1c63ee77b432a96b4a24b0ad3ac7a54e7f",
    "besov_p2": "dba20126c7299beb1ef672d3fbf60c7e9500d86a73ab746cd821c0f6dda39dd3",
    "commutator_single": "6e72adcc046752d9134a69f2dcbe901e2f9d1deab87783bf278f7daefa08d2ff",
    "funcalc": "e47240f2b1efa78e1a4f32bcc11d8cac473100682e94f9858913d41fb2509968"}


def test_trace_formula_report_bytes_repeat_across_blas_threads(tmp_path):
    # the Toeplitz model pairs go through LAPACK eigh at n = 128, the selftest
    # and trial suite through eigh at n <= 64; the reports must not depend on
    # how many threads the BLAS runs, and keep their pinned bytes.  The runs
    # read and write relative paths from tmp_path
    script = ("import sys\nfrom opintegral.cli import main\n"
              f"for name, argv in {THREAD_REPORTS!r}.items():\n"
              "    argv = [a.format(data='data', pair='.') for a in argv]\n"
              "    assert main(argv + [f'{sys.argv[1]}/{name}.json']) == 0\n")
    src = str(DATA_DIR.parents[1])
    shutil.copytree(DATA_DIR, tmp_path / "data")
    _write_pair(tmp_path)
    reports = []
    for threads in (1, 2):
        (tmp_path / str(threads)).mkdir()
        subprocess.run([sys.executable, "-c", script, str(threads)], cwd=tmp_path,
                       check=True, capture_output=True,
                       env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": str(threads)})
        reports.append([(tmp_path / str(threads) / f"{name}.json").read_bytes()
                        for name in THREAD_REPORTS])
    assert reports[0] == reports[1]
    assert {name: hashlib.sha256(report).hexdigest()
            for name, report in zip(THREAD_REPORTS, reports[0])} == THREAD_REPORT_SHA256


def test_reports_record_file_names_and_digests_not_paths(tmp_path, monkeypatch):
    # the same funcalc and besov-norm runs give the same report bytes from
    # absolute and from relative paths
    shutil.copytree(DATA_DIR, tmp_path / "data")
    _write_pair(tmp_path)
    monkeypatch.chdir(tmp_path)
    reports = []
    for root in (tmp_path, "."):
        out = tmp_path / "absolute" if root == tmp_path else Path("relative")
        out.mkdir()
        for name in ("funcalc", "besov"):
            argv = [a.format(data=f"{root}/data", pair=root) for a in THREAD_REPORTS[name]]
            assert main(argv + [str(out / f"{name}.json")]) == 0
        reports.append([(out / f"{name}.json").read_bytes() for name in ("funcalc", "besov")])
    assert reports[0] == reports[1]
    sin = json.loads(reports[0][1])["input"]
    assert sin == {"name": "sin.opfun",
                   "sha256": hashlib.sha256((DATA_DIR / "sin.opfun").read_bytes()).hexdigest()}


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


def _write_pair(path):
    """A fixed Hermitian 6x6 pair, as path/A.opmat and path/B.opmat."""
    rng = Xorshift64Star(4)
    a = rng.hermitian(6)
    b = rng.hermitian(6)
    write_matrix(path / "A.opmat", a)
    write_matrix(path / "B.opmat", b)
    return a, b


def test_cli_funcalc_and_probe(tmp_path, capsys):
    a, b = _write_pair(tmp_path)
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


def test_cli_funcalc_report_writes_the_trace_as_re_and_im(tmp_path):
    a, b = _write_pair(tmp_path)
    report = tmp_path / "funcalc.json"
    assert main(["funcalc", "--phi", str(DATA_DIR / "phi_xy.spec"),
                 "--A", str(tmp_path / "A.opmat"), "--B", str(tmp_path / "B.opmat"),
                 "--out", str(tmp_path / "F.opmat"), "--report", str(report)]) == 0
    payload = json.loads(report.read_text())
    assert payload["out"] == {"name": "F.opmat", "sha256": hashlib.sha256(
        (tmp_path / "F.opmat").read_bytes()).hexdigest()}
    assert set(payload["trace"]) == {"re", "im"}
    # phi_xy is xy, so the trace is tr(AB), real for a Hermitian pair
    assert payload["trace"]["re"] == pytest.approx(np.trace(a @ b).real, abs=1e-10)
    assert abs(payload["trace"]["im"]) <= 1e-10


@pytest.mark.parametrize("specs", [["--phi", "phi_xy.spec"],
                                   ["--phi", "phi_x.spec", "--psi", "psi_y.spec"]],
                         ids=["phi", "phi-psi"])
def test_cli_commutator_verify_single_pair(tmp_path, specs):
    # the identity on the pair read from --A/--B: with --phi alone, [phi(A,B), Q]
    # for a seeded Q; with --psi too, [phi(A,B), psi(A,B)]
    _write_pair(tmp_path)
    report = tmp_path / "single.json"
    argv = [str(DATA_DIR / f) if f.endswith(".spec") else f for f in specs]
    assert main(["commutator-verify", *argv, "--A", str(tmp_path / "A.opmat"),
                 "--B", str(tmp_path / "B.opmat"), "--report", str(report)]) == 0
    payload = json.loads(report.read_text())
    assert payload["mode"] == "single"
    rep = payload["report"]
    assert rep["lhs_s1"] > 0
    assert rep["residual_s1"] <= 1e-12 * max(rep["lhs_s1"], 1.0)


@pytest.mark.parametrize("mode", ["single", "polynomial-suite"])
def test_cli_trace_formula_csv_reads_back_as_the_report_rows(tmp_path, mode):
    # the suite's pair names hold commas ("x,y"), so the CSV must quote them
    if mode == "single":
        cfg = _single_trace_config(tmp_path, DATA_DIR / "phi_x.spec", extra="n_table 8,16")
    else:
        cfg = tmp_path / "suite.cfg"
        cfg.write_text("mode polynomial-suite\nn 32\n", encoding="utf-8")
    out, table = tmp_path / "report.json", tmp_path / "table.csv"
    assert main(["trace-formula", "--config", str(cfg), "--out", str(out),
                 "--csv", str(table)]) == 0
    want = json.loads(out.read_text())["convergence" if mode == "single" else "suite"]
    with open(table, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        got = list(reader)
    assert set(reader.fieldnames) == set(want[0]) and len(got) == len(want) > 1
    for row, expected in zip(got, want):
        assert None not in row
        assert {k: v if isinstance(expected[k], str) else type(expected[k])(v)
                for k, v in row.items()} == expected


def test_cli_probe_takes_every_pair_of_kinds(tmp_path, capsys):
    # phi and psi each a polynomial, a closed form or samples (the two sampled
    # on different grids): the probes take values on the spectra, so all run
    _write_pair(tmp_path)
    for name, points in (("gauss_bump", 64), ("psi_gauss", 48)):
        grid = UniformGrid(dim=2, period=16 * np.pi, points=points)
        write_function_spec(tmp_path / f"{name}.spec",
                            read_function_spec(DATA_DIR / f"{name}.spec").sample(grid),
                            samples_path=tmp_path / f"{name}.opfun")
    phis = (DATA_DIR / "phi_xy.spec", DATA_DIR / "gauss_bump.spec", tmp_path / "gauss_bump.spec")
    psis = (DATA_DIR / "psi_y.spec", DATA_DIR / "psi_gauss.spec", tmp_path / "psi_gauss.spec")
    for phi in phis:
        for psi in psis:
            code = main(["probe", "--phi", str(phi), "--psi", str(psi),
                         "--A", str(tmp_path / "A.opmat"), "--B", str(tmp_path / "B.opmat"),
                         "--json"])
            assert code == 0, (phi, psi)
            payload = json.loads(capsys.readouterr().out)
            assert np.isfinite(payload["multiplicativity_defect_s1"])
            assert np.isfinite(payload["self_adjointness_defect_s1"])


def test_cli_besov_band_min_stops_at_the_lowest_normal_scale(tmp_path, capsys, monkeypatch):
    # bands below the grid's lowest frequency hold no mass: band -1000 keeps
    # the report's bytes, and a band below -1022 is refused
    monkeypatch.chdir(DATA_DIR)
    out = tmp_path / "besov.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["besov-norm", "--input", "sin.opfun", "--band-min", "-1000",
                     "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "91c89fe892782a82bb6ed80cc5b3e2f4ffcbe9575afd124d352577aaaa94484a")
    capsys.readouterr()
    for band in ("-10000", "-100000000"):
        assert main(["besov-norm", "--input", "sin.opfun", "--band-min", band]) == 1
        assert (f"error: band {band} is below band -1022, the lowest whose scale 2^n "
                f"is a normal double" in capsys.readouterr().err)


@pytest.mark.parametrize("flags, code, message", [
    (["--band-min", "-600", "--s", "-2"], 0, "besov norm (s=-2.0, p=inf, q=1): 1.0000000000000233"),
    (["--s", "300"], 1, "error: Besov weight 2^(n s) overflows at s = 300 on band ")],
    ids=["empty-bands", "nonzero-band"])
def test_cli_besov_weight_overflow(capsys, monkeypatch, flags, code, message):
    # 2^(n s) overflows a double: on bands -600..-6, which hold no mass, the
    # weight is never formed; on a band with mass the overflow is refused
    monkeypatch.chdir(DATA_DIR)
    assert main(["besov-norm", "--input", "sin.opfun", *flags]) == code
    captured = capsys.readouterr()
    assert message in (captured.out if code == 0 else captured.err)


def test_cli_besov_lq_sum_of_finite_terms_is_finite(capsys, monkeypatch):
    # at s = 140 band 5's term is 4.0e196: its square overflows a double, the
    # l^2 norm does not, and lies between the largest term and the l^1 norm
    monkeypatch.chdir(DATA_DIR)
    norms = {}
    for q in ("1", "2"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["besov-norm", "--input", "sin.opfun", "--s", "140", "--q", q,
                         "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        norms[q] = payload["value"]
    top = max(payload["band_terms"].values())
    assert norms["1"] == 4.002662208198804e+196
    assert np.isfinite(norms["2"]) and top <= norms["2"] <= norms["1"]


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


def test_cli_commutator_suite_needs_no_phi_and_ignores_it(tmp_path):
    # the suite draws its own polynomials: with --phi, without it, and with a
    # --phi that names no file, it writes the same bytes
    suite = ["commutator-verify", "--trials", "2", "--seed", "9", "--max-dim", "8"]
    reports = []
    for phi in ([], ["--phi", str(DATA_DIR / "phi_xy.spec")], ["--phi", "missing.spec"]):
        reports.append(tmp_path / f"r{len(reports)}.json")
        assert main([*suite, *phi, "--report", str(reports[-1])]) == 0
    assert reports[0].read_bytes() == reports[1].read_bytes() == reports[2].read_bytes()


@pytest.mark.parametrize("psi", [[], ["--psi", str(DATA_DIR / "psi_y.spec")]],
                         ids=["phi", "phi-psi"])
def test_cli_commutator_single_pair_needs_phi(tmp_path, capsys, psi):
    _write_pair(tmp_path)
    code = main(["commutator-verify", *psi, "--A", str(tmp_path / "A.opmat"),
                 "--B", str(tmp_path / "B.opmat"), "--report", str(tmp_path / "r.json")])
    assert code == 1
    assert "error: --phi is required with the pair --A, --B" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--s", "nan", "Besov smoothness s must be finite, got nan"),
    ("--s", "inf", "Besov smoothness s must be finite, got inf"),
    ("--p", "nan", "Besov exponent p must lie in (0, inf], got nan"),
    ("--p", "0", "Besov exponent p must lie in (0, inf], got 0.0"),
    ("--q", "nan", "Besov exponent q must lie in (0, inf], got nan"),
    ("--q", "0", "Besov exponent q must lie in (0, inf], got 0.0"),
    ("--q", "-1", "Besov exponent q must lie in (0, inf], got -1.0"),
    ("--p", "abc", "argument --p: not a number, inf or oo: 'abc'"),
    ("--q", "abc", "argument --q: not a number, inf or oo: 'abc'")])
def test_cli_besov_refuses_bad_parameters(capsys, flag, value, message):
    code = main(["besov-norm", "--input", str(DATA_DIR / "sin.opfun"), flag, value])
    assert code == 1
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, message", [
    ("--trials", "0", "not a positive integer: '0'"),
    ("--max-dim", "0", "not a positive integer: '0'"),
    ("--degree", "-1", "not a non-negative integer: '-1'"),
    ("--tolerance", "-0.5", "not a finite non-negative number: '-0.5'"),
    ("--tolerance", "nan", "not a finite non-negative number: 'nan'"),
    ("--tolerance", "inf", "not a finite non-negative number: 'inf'")])
def test_cli_commutator_verify_refuses_bad_flags(capsys, flag, value, message):
    code = main(["commutator-verify", "--phi", str(DATA_DIR / "phi_xy.spec"), flag, value])
    assert code == 1
    assert f"argument {flag}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--A", "missing.opmat"], ["--B", "missing.opmat"],
    ["--psi", str(DATA_DIR / "psi_y.spec")],
    ["--psi", str(DATA_DIR / "psi_y.spec"), "--A", "missing.opmat"]],
    ids=["A-alone", "B-alone", "psi-alone", "psi-and-A"])
def test_cli_commutator_verify_refuses_an_incomplete_operand_set(capsys, flags):
    # these ran the trial suite and exited 0, even with the named file missing
    code = main(["commutator-verify", "--phi", str(DATA_DIR / "phi_xy.spec"), *flags])
    assert code == 1
    assert "error: --A and --B name the Hermitian pair" in capsys.readouterr().err


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
