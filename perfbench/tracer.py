"""Per-layer spans and kernel counters for the traced benchmark run.

install() wraps the public functions of each opintegral module (in every
opintegral module namespace that imported them), the evaluation methods of
Function1D/Function2D, and the numpy eigen/SVD/2-norm/FFT entry points.
Nothing is wrapped in an untraced run.

A span's self time is its duration minus the time covered by its child
spans.  Kernels are counted, not timed: their time stays in the self time of
the layer that called them.  Work counts such as n^3 or FFT points are
computed from argument shapes, not measured.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

import numpy as np

#: module -> wrapped public functions; span name is "<module>.<function>"
LAYER_FUNCTIONS = {
    "spectral": ("decompose", "schatten_norm"),
    "besov": ("lp_decompose", "besov_norm", "window_eval"),
    "divdiff": ("besov_representation", "sinc_representation", "polynomial_dd_rep"),
    "toi": ("eval_representation", "rep_norm_certificate"),
    "doi": ("funcalc", "schur_multiplier_norm", "projective_decompose_trig"),
    "commutator": ("verify_theorem_41", "commutator_of_functions",
                   "commutator_with_operator", "commutator_via_toi"),
    "models": ("toeplitz_matrix", "principal_function", "winding_grid"),
    "heltonhowe": ("rhs_integral", "corner_trace", "trace_formula_experiment",
                   "polynomial_suite", "winding_factor_experiment"),
}

#: (class, method) -> span name
LAYER_METHODS = {
    ("Function1D", "__call__"): "functions.eval",
    ("Function2D", "__call__"): "functions.eval",
    ("Function2D", "eval_grid"): "functions.eval",
    ("Function2D", "partial"): "functions.partial",
    ("Function2D", "sample"): "functions.sample",
}


def _dim(x) -> int:
    dim = getattr(x, "dim", None)
    return int(dim) if dim is not None else int(np.shape(x)[0])


def _batch(shape) -> int:
    return int(np.prod(shape[:-2], dtype=np.int64)) if len(shape) > 2 else 1


class Tracer:
    """Span and counter state of one traced process."""

    def __init__(self):
        self.stats: dict[str, dict] = {}
        self._stack: list[list[float]] = []
        self._depth: dict[str, int] = {}

    def _entry(self, name: str) -> dict:
        return self.stats.setdefault(name, {"calls": 0, "self_s": 0.0})

    def span(self, name: str, fn, work=None, done=None):
        """fn wrapped in a span; work(stats, args, kwargs, outermost) adds
        counts before the call, done(stats, result) after it."""
        stats = self._entry(name)
        stack, depth = self._stack, self._depth
        depth.setdefault(name, 0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stats["calls"] += 1
            if work is not None:
                work(stats, args, kwargs, depth[name] == 0)
            frame = [0.0]
            stack.append(frame)
            depth[name] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if done is not None:
                    done(stats, result)
                return result
            finally:
                elapsed = perf_counter() - t0
                depth[name] -= 1
                stack.pop()
                stats["self_s"] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
        return traced

    def count(self, name: str, fn, work=None):
        """fn wrapped in a call counter; work(args, kwargs) -> (key, amount)."""
        stats = self.stats.setdefault(name, {"calls": 0})
        schur = self.stats.setdefault("doi.schur_multiplier_norm",
                                      {"calls": 0, "self_s": 0.0})
        depth = self._depth

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            stats["calls"] += 1
            if work is not None:
                key, amount = work(args, kwargs)
                stats[key] = stats.get(key, 0) + amount
            if name == "kernel.eigh" and depth.get("doi.schur_multiplier_norm"):
                schur["eigh_calls"] = schur.get("eigh_calls", 0) + 1
            return fn(*args, **kwargs)
        return counted

    def snapshot(self) -> dict:
        return {name: (s["calls"], s.get("self_s", 0.0)) for name, s in self.stats.items()}

    def since(self, snapshot: dict) -> dict:
        """{span: [calls, self_s]} of the spans called after the snapshot."""
        out = {}
        for name, s in self.stats.items():
            calls, self_s = snapshot.get(name, (0, 0.0))
            if s["calls"] > calls:
                out[name] = [s["calls"] - calls, s.get("self_s", 0.0) - self_s]
        return out

    def attributed_s(self) -> float:
        """Self time summed over every layer span."""
        return sum(s.get("self_s", 0.0) for s in self.stats.values())


def _replace(original, wrapper) -> None:
    """Point every opintegral namespace that holds original at wrapper."""
    for modname, mod in list(sys.modules.items()):
        if modname != "opintegral" and not modname.startswith("opintegral."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def _bound(fn):
    sig = inspect.signature(fn)

    def arguments(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments
    return arguments


def install(tracer: Tracer) -> None:
    """Wrap the library's layers and numpy's kernels for this process."""
    import opintegral
    from opintegral import cli, fileio, functions

    work = {}

    def decompose_work(stats, args, kwargs, outer):
        h = args[0] if args else kwargs["h"]
        if type(h).__name__ != "SpectralDecomposition":
            stats["work_n3"] = stats.get("work_n3", 0) + _dim(h) ** 3
    work["spectral.decompose"] = decompose_work

    def funcalc_work(stats, args, kwargs, outer):
        stats["work_n3"] = stats.get("work_n3", 0) + _dim(args[1]) ** 3
    work["doi.funcalc"] = funcalc_work

    def lp_work(stats, args, kwargs, outer):
        values = args[0] if args else kwargs["values"]
        stats["grid_points"] = stats.get("grid_points", 0) + int(np.size(values))
    work["besov.lp_decompose"] = lp_work

    def schur_done(stats, cert):
        stats["converged"] = stats.get("converged", 0) + int(bool(cert.converged))

    rhs_args = _bound(opintegral.heltonhowe.rhs_integral)

    def rhs_work(stats, args, kwargs, outer):
        res = int(rhs_args(args, kwargs)["resolution"])
        stats["points"] = stats.get("points", 0) + res * res
    work["heltonhowe.rhs_integral"] = rhs_work

    for modname, names in LAYER_FUNCTIONS.items():
        mod = getattr(opintegral, modname)
        for fname in names:
            original = getattr(mod, fname)
            span_name = f"{modname}.{fname}"
            done = schur_done if span_name == "doi.schur_multiplier_norm" else None
            _replace(original, tracer.span(span_name, original, work.get(span_name), done))

    for fname, value in list(vars(fileio).items()):
        if (inspect.isfunction(value) and not fname.startswith("_")
                and value.__module__ == fileio.__name__):
            _replace(value, tracer.span("fileio", value))
    _replace(cli.main, tracer.span("cli.main", cli.main))

    def eval_work(stats, args, kwargs, outer):
        if not outer:
            return
        if len(args) == 2:           # Function1D(x)
            n = int(np.size(args[1]))
        else:                        # Function2D(x, y) / eval_grid(xs, ys)
            n = int(np.prod(np.broadcast_shapes(np.shape(args[1]), np.shape(args[2]))))
        stats["points"] = stats.get("points", 0) + n

    def eval_grid_work(stats, args, kwargs, outer):
        if outer:
            stats["points"] = stats.get("points", 0) + int(np.size(args[1]) * np.size(args[2]))

    for (cls_name, method), span_name in LAYER_METHODS.items():
        cls = getattr(functions, cls_name)
        w = None
        if span_name == "functions.eval":
            w = eval_grid_work if method == "eval_grid" else eval_work
        setattr(cls, method, tracer.span(span_name, getattr(cls, method), w))

    _install_kernels(tracer)


def _install_kernels(tracer: Tracer) -> None:
    la, fft = np.linalg, np.fft

    def eig_work(args, kwargs):
        shape = np.shape(args[0])
        return "work_n3", _batch(shape) * shape[-1] ** 3

    def svd_work(args, kwargs):
        shape = np.shape(args[0])
        m, n = shape[-2], shape[-1]
        return "work_mnk", _batch(shape) * m * n * min(m, n)

    def fft_work(args, kwargs):
        return "points", int(np.size(args[0]))

    la.eigh = tracer.count("kernel.eigh", la.eigh, eig_work)
    la.eigvalsh = tracer.count("kernel.eigvalsh", la.eigvalsh)
    la.svd = tracer.count("kernel.svd", la.svd, svd_work)
    for name in ("fft", "ifft", "fft2", "ifft2"):
        setattr(fft, name, tracer.count("kernel.fft", getattr(fft, name), fft_work))

    norm = la.norm
    norm2 = tracer.count("kernel.norm2", norm)

    def norm_dispatch(x, ord=None, axis=None, keepdims=False):
        matrix = (np.ndim(x) == 2 and axis is None) or (
            isinstance(axis, tuple) and len(axis) == 2)
        fn = norm2 if ord == 2 and matrix else norm
        return fn(x, ord=ord, axis=axis, keepdims=keepdims)
    la.norm = norm_dispatch
