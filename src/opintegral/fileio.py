"""File formats: matrices, sampled functions, symbols, function specs, configs.

All formats are line-oriented UTF-8 text.  Reports are JSON with sorted keys
and no timestamps, so identical inputs produce byte-identical output.

.opmat   header "dim n complex", then n^2 lines "re im", row-major.
.opfun   header "grid d L N", then N^d lines "re im", row-major.
.sym     header "deg d", then lines "k re im" for the Fourier coefficients.
.spec    function spec: "variant" line, then variant-specific keys.
.cfg     flat "key value" lines, "#" comments.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .functions import Function1D, Function2D, UniformGrid, parse_expr
from .models import Symbol


def write_matrix(path, m: np.ndarray) -> None:
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("only square matrices are stored")
    n = m.shape[0]
    lines = [f"dim {n} complex"]
    for v in m.ravel():
        lines.append(f"{float(v.real)!r} {float(v.imag)!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_matrix(path) -> np.ndarray:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines:
        raise ValueError(f"{path}: empty matrix file")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "dim" or head[2] != "complex":
        raise ValueError(f"{path}: bad header {lines[0]!r}, expected 'dim n complex'")
    if (n := _int(path, lines[0], head[1])) < 0:
        raise ValueError(f"{path}: negative size {n} in line {lines[0]!r}")
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != n * n:
        raise ValueError(f"{path}: expected {n * n} entries, found {len(body)}")
    return np.array([_pair(path, ln, ln.split()) for ln in body]).reshape(n, n)


def write_samples(path, values: np.ndarray, grid: UniformGrid) -> None:
    values = np.asarray(values, dtype=np.complex128)
    expected = (grid.points,) if grid.dim == 1 else (grid.points, grid.points)
    if values.shape != expected:
        raise ValueError(f"sample shape {values.shape} does not match grid {expected}")
    lines = [f"grid {grid.dim} {float(grid.period)!r} {grid.points}"]
    for v in values.ravel():
        lines.append(f"{float(v.real)!r} {float(v.imag)!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_samples(path):
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines:
        raise ValueError(f"{path}: empty sample file")
    head = lines[0].split()
    if len(head) != 4 or head[0] != "grid":
        raise ValueError(f"{path}: bad header {lines[0]!r}, expected 'grid d L N'")
    try:
        grid = UniformGrid(dim=int(head[1]), period=float(head[2]), points=int(head[3]))
    except ValueError as err:
        raise ValueError(f"{path}: {err} in line {lines[0]!r}") from None
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != (count := grid.points ** grid.dim):
        raise ValueError(f"{path}: expected {count} values, found {len(body)}")
    vals = np.array([_complex(path, ln, ln.split()) for ln in body])
    return vals.reshape((grid.points,) * grid.dim), grid


def write_symbol(path, sym: Symbol) -> None:
    lines = [f"deg {sym.degree}"]
    for k in range(-sym.degree, sym.degree + 1):
        c = sym.coefficient(k)
        lines.append(f"{k} {float(c.real)!r} {float(c.imag)!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_symbol(path) -> Symbol:
    lines = [ln for ln in Path(path).read_text(encoding="utf-8").splitlines()
             if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise ValueError(f"{path}: symbol file has no 'deg d' header")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "deg":
        raise ValueError(f"{path}: bad header {lines[0]!r}, expected 'deg d'")
    if (deg := _int(path, lines[0], head[1])) < 0:
        raise ValueError(f"{path}: negative size {deg} in line {lines[0]!r}")
    return symbol_from_entries(path, [(ln, ln.split()) for ln in lines[1:]], deg, "line")


def symbol_from_entries(path, entries, deg: int | None, entry: str) -> Symbol:
    """Symbol from (text, [k, re, im]) entries, .sym lines or a cfg's inline
    symbol; a bad or repeated index or number is refused, naming the entry."""
    coeffs = {}
    for text, (k, *fields) in entries:
        k = _int(path, text, k, entry)
        if deg is not None and abs(k) > deg:
            raise ValueError(f"{path}: index {k} outside -{deg}..{deg} in {entry} {text!r}")
        if k in coeffs:
            raise ValueError(f"{path}: repeated index {k} in {entry} {text!r}")
        coeffs[k] = _complex(path, text, fields, entry)
    return Symbol.from_dict(coeffs, deg)


def write_function_spec(path, f: Function2D, samples_path=None) -> None:
    lines = []
    if f.kind == "polynomial":
        lines.append("variant polynomial")
        a = f.data
        for j in range(a.shape[0]):
            for k in range(a.shape[1]):
                if a[j, k] != 0:
                    lines.append(f"coeff {j} {k} {float(a[j, k].real)!r} {float(a[j, k].imag)!r}")
    elif f.kind == "closed_form":
        text = repr(f.data)
        try:
            parse_expr(text)
        except ValueError as err:
            raise ValueError(f"closed form {text} does not read back ({err}); "
                             f".spec expressions take real constants only") from None
        lines.append("variant closed_form")
        lines.append(f"expr {text}")
    else:
        if samples_path is None:
            raise ValueError("sampled specs need samples_path for the .opfun file")
        write_samples(samples_path, f.data, f.grid)
        lines.append("variant sampled")
        lines.append(f"file {samples_path}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_function_spec(path) -> Function2D:
    base = Path(path).parent
    lines = [ln for ln in Path(path).read_text(encoding="utf-8").splitlines()
             if ln.strip() and not ln.lstrip().startswith("#")]
    head = lines[0].split() if lines else []
    if len(head) != 2 or head[0] != "variant":
        raise ValueError(f"{path}: function spec must start with a 'variant <kind>' line")
    variant = head[1]
    if variant == "polynomial":
        entries = {}
        for ln in lines[1:]:
            parts = ln.split()
            if (parts[0] != "coeff" or len(parts) != 5
                    or min(jk := (_int(path, ln, parts[1]), _int(path, ln, parts[2]))) < 0):
                raise ValueError(f"{path}: bad coeff line {ln!r}, expected 'coeff j k re im' "
                                 f"with exponents j, k >= 0")
            if jk in entries:
                raise ValueError(f"{path}: repeated exponents {jk[0]} {jk[1]} in line {ln!r}")
            entries[jk] = _complex(path, ln, parts[3:])
        if not entries:
            return Function2D.polynomial([[0.0]])
        a = np.zeros([max(c) + 1 for c in zip(*entries)], dtype=np.complex128)
        for jk, v in entries.items():
            a[jk] = v
        return Function2D.polynomial(a)
    if variant == "closed_form":
        expr = _get_key(lines, "expr", path)
        return Function2D.closed_form(expr)
    if variant == "product":
        # factors are one-variable expressions, both written in the variable x;
        # the product is built as a closed form (Function2D.product)
        u = Function1D.closed_form(_get_key(lines, "u", path))
        v = Function1D.closed_form(_get_key(lines, "v", path))
        return Function2D.product(u, v)
    if variant == "sampled":
        fname = _get_key(lines, "file", path)
        p = Path(fname)
        values, grid = read_samples(p if p.is_absolute() else base / p)
        if grid.dim != 2:
            raise ValueError(f"{path}: sampled Function2D needs a 2-d grid")
        return Function2D.sampled(values, grid)
    raise ValueError(f"{path}: unknown variant {variant!r}")


def _int(path, line: str, field: str, entry: str = "line") -> int:
    """The integer field of line."""
    try:
        return int(field)
    except ValueError:
        raise ValueError(f"{path}: not an integer: {field!r} in {entry} {line!r}") from None


def _pair(path, line: str, fields, entry: str = "line") -> complex:
    """re + i im from fields, the two numbers that end line."""
    try:
        re, im = map(float, fields)
    except ValueError:
        raise ValueError(f"{path}: expected the two numbers 're im' in {entry} {line!r}") from None
    return complex(re, im)


def _complex(path, line: str, fields, entry: str = "line") -> complex:
    """_pair, with NaN and infinity rejected."""
    z = _pair(path, line, fields, entry)
    if not np.isfinite(z):
        raise ValueError(f"{path}: non-finite number in {entry} {line!r}")
    return z


def _get_key(lines, key, path) -> str:
    for ln in lines:
        if ln.startswith(key + " "):
            return ln[len(key) + 1:].strip()
    raise ValueError(f"{path}: missing '{key}' line")


def read_config(path) -> dict:
    """Flat key-value config: first token is the key, the rest the value."""
    out = {}
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        out[parts[0]] = parts[1].strip() if len(parts) > 1 else ""
    return out


def write_report(path, payload: dict) -> None:
    """report_text(payload) and a trailing newline."""
    Path(path).write_text(report_text(payload) + "\n", encoding="utf-8")


def report_text(payload: dict) -> str:
    """Deterministic JSON: sorted keys, two-space indent."""
    return json.dumps(_jsonable(payload), sort_keys=True, indent=2)


def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, (np.floating, float)):
        return float(x)
    if isinstance(x, (np.integer, int)):
        return int(x)
    if isinstance(x, np.bool_):
        return bool(x)
    if isinstance(x, complex):
        return {"re": x.real, "im": x.imag}
    return x


def write_csv(path, rows: list[dict]) -> None:
    """Plain CSV for external plotting; column order is first-row key order."""
    if not rows:
        Path(path).write_text("", encoding="utf-8")
        return
    cols = list(rows[0])
    lines = [",".join(cols)]
    for row in rows:
        lines.append(",".join(repr(row[c]) if isinstance(row[c], float)
                              else str(row[c]) for c in cols))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
