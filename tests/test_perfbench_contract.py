"""The traced benchmark wraps library names through getattr; a rename in the
library must fail here, not only in a traced benchmark run."""

import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

import opintegral
from opintegral import cli, commutator, divdiff, doi, fileio, functions, heltonhowe
from opintegral.models import Symbol
from opintegral.rng import Xorshift64Star

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


#: (function, positional argument count, keywords) of the calls perfbench/workloads.py
#: makes; a method's count includes self
WORKLOAD_CALLS = [
    (commutator.commutator_of_functions, 4, ("j_max", "grid")),
    (divdiff.besov_representation, 2, ("j_max", "grid", "domain_radius")),
    (heltonhowe.winding_factor_experiment, 1, ("n_table", "resolution")),
    (doi.schur_multiplier_norm, 1, ("tol", "factorizations")),
    (commutator.verify_theorem_41, 4, ()),
    (commutator.almost_commuting_pair, 2, ("rank",)),
    (commutator.random_polynomial, 2, ()),
    (fileio.write_function_spec, 2, ()),
    (fileio.write_matrix, 2, ()),
    (doi.projective_decompose_trig, 1, ()),
    (doi.TrigProjectiveRows.evaluate, 3, ()),
    (doi.TrigProjectiveRows.factorization, 3, ()),
    (divdiff.BandRepList.aggregate_certificate, 4, ()),
    (cli.main, 1, ()),
    (functions.Function2D.closed_form, 1, ()),
    (functions.UniformGrid, 0, ("dim", "period", "points")),
    (Symbol.from_dict, 1, ()),
    (Xorshift64Star, 1, ()),
    (Xorshift64Star.uniform, 2, ()),
    (Xorshift64Star.complex_normal, 2, ())]


@pytest.mark.parametrize("function, positional, keywords", WORKLOAD_CALLS,
                         ids=[call[0].__qualname__ for call in WORKLOAD_CALLS])
def test_workload_calls_bind(function, positional, keywords):
    inspect.signature(function).bind(*range(positional), **dict.fromkeys(keywords))


def test_band_certificate_call_on_small_instance():
    # the call the band-path certificate item makes, on a J = 16, 64^2 instance
    from opintegral.divdiff import besov_representation
    from opintegral.functions import Function2D, UniformGrid

    grid = UniformGrid(dim=2, period=16.0 * np.pi, points=64)
    bump = Function2D.closed_form("exp(-((x - 0.1)**2 + (y + 0.2)**2))")
    reps = besov_representation(bump, 1, j_max=16, grid=grid, domain_radius=1.1)
    assert reps.items
    assert all(np.isfinite(sr.tail_bound) for sr in reps.items.values())
    s = np.linspace(-1.0, 1.0, 4)
    assert np.isfinite(reps.aggregate_certificate(s, s, s))
