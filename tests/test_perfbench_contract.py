"""The traced benchmark wraps library names through getattr; a rename in the
library must fail here, not only in a traced benchmark run."""

import importlib.util
import inspect
from pathlib import Path

import opintegral
from opintegral import functions

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_layer_names_exist():
    tracer = _load_tracer()
    for modname, names in tracer.LAYER_FUNCTIONS.items():
        module = getattr(opintegral, modname)
        for name in names:
            assert callable(getattr(module, name, None)), f"{modname}.{name}"
    for cls_name, method in tracer.LAYER_METHODS:
        assert callable(getattr(getattr(functions, cls_name), method, None)), \
            f"{cls_name}.{method}"


def test_rhs_integral_takes_resolution():
    assert "resolution" in inspect.signature(opintegral.heltonhowe.rhs_integral).parameters
