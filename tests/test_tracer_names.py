"""The names and attributes the benchmark's span tracer reads.

``perfbench/tracer.py`` finds spans by name and its hooks read attributes
of the traced objects, so a rename in the package would silently zero a
per-layer metric.  The tracer is loaded by file path, not installed.
"""

import importlib
import importlib.util
import types
from pathlib import Path

import numpy as np

from stablelab import drifts, evolution, operators, resolvent
from stablelab.grid import TorusGrid

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def defined_function(name):
    """The function ``module.Class.method`` (or ``module.function``) of
    stablelab, as the tracer finds it: defined where it is named."""
    module_name, *path = name.split(".")
    module = importlib.import_module(f"stablelab.{module_name}")
    owner = module
    for attr in path[:-1]:
        owner = vars(owner)[attr]
        assert isinstance(owner, type) and owner.__module__ == module.__name__
    obj = vars(owner)[path[-1]]
    assert isinstance(obj, types.FunctionType), name
    return obj


def test_every_aliased_name_is_a_function():
    tracer = load_tracer()
    for name in set(tracer.ALIASES) | tracer.EXTRA_METHODS:
        defined_function(name)


def test_hooks_read_objects_built_at_n8():
    tracer = load_tracer()
    grid = TorusGrid(3, 8.0, 8)
    mol = drifts.mollify(drifts.bounded_smooth_drift([0.3, 0.2, 0.1], 8.0, 3),
                         n=16, grid=grid, epsilon_n=0.05)
    f = np.random.default_rng(0).standard_normal(grid.shape)

    asm = resolvent.assemble_lp_resolvent(mol, 2.0, 4.5, 6.0, 2.0, grid, 1.5)
    apply = defined_function("resolvent.ResolventAssembly.apply")
    assert tracer._lp_apply(apply, (asm, f), {}, apply(asm, f)) == {"n": 8}

    mult = operators.resolvent_power(grid, 1.5, 2.0, 1.0)
    assert tracer._operator_apply(mult.apply, (mult, f), {},
                                  mult.apply(f)) == {"n": 8, "points": 512}

    neumann = operators.NeumannInverse(asm.handles["T"], norm_p=4.5)
    attrs = tracer._neumann(neumann.apply, (neumann, f), {},
                            neumann.apply(f))
    assert attrs["n"] == 8 and attrs["points"] == 512
    assert attrs["terms"] == len(neumann.last_term_norms) > 1
    assert 0.0 < attrs["max_ratio"] < 1.0

    stepper = evolution.SplitStepPropagator(mol, 1.5, 0.01)
    weights = stepper.slot_weights()
    assert tracer._split_step(stepper.step, (stepper, f, weights), {},
                              stepper.step(f, weights)) == {"n": 8}
