"""The names and attributes the benchmark's span tracer reads.

``perfbench/tracer.py`` finds spans by name and its hooks read attributes
of the traced objects, so a rename in the package would silently zero a
per-layer metric.  The tracer is loaded by file path, not installed.
"""

import importlib
import importlib.util
import threading
import types
from pathlib import Path

import numpy as np

import stablelab
from stablelab import drifts, evolution, operators, resolvent, sde, weighted
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


def worker_calls(run) -> set:
    """(module, qualified name) of every package function that ``run()``
    runs off the main thread, comprehensions and closures left out (they
    are no module or class attribute)."""
    package = Path(stablelab.__file__).parent
    main = threading.current_thread()
    ran = set()

    def profile(frame, event, arg):
        code = frame.f_code
        if (event == "call" and threading.current_thread() is not main
                and Path(code.co_filename).parent == package):
            ran.add((Path(code.co_filename).stem, code.co_qualname))

    threading.setprofile(profile)
    try:
        run()
    finally:
        threading.setprofile(None)
    return {(module, name) for module, name in ran if "<" not in name}


def assert_untraced(named, tracer):
    # the tracer keeps one span stack for the process: a wrapped call on a
    # worker thread would nest in the main thread's spans
    for module, name in named:
        assert name.rsplit(".", 1)[-1].startswith("_"), (module, name)
        assert f"{module}.{name}" not in tracer.EXTRA_METHODS


def small_drift():
    grid = TorusGrid(3, 8.0, 8)
    return drifts.mollify(drifts.bounded_smooth_drift([0.3, 0.2, 0.1], 8.0, 3),
                          n=16, grid=grid, epsilon_n=0.05)


def test_the_noise_worker_runs_nothing_the_tracer_wraps(monkeypatch):
    mol = small_drift()
    monkeypatch.setattr(sde, "_PATH_BLOCK", 5)
    named = worker_calls(lambda: sde.integrate(mol, [0.0] * 3, 0.04, 0.01,
                                               12, seed=1, alpha=1.5))
    assert ("sampler", "_fill_slab") in named
    assert_untraced(named, load_tracer())


def test_the_slot_sum_worker_runs_nothing_the_tracer_wraps():
    # a stepper build interpolates the d drift components as one stack,
    # and a stacked propagate steps its fields together
    mol = small_drift()
    cfg = evolution.PropagatorConfig(mol, 1.5, 0.02, 2)
    pair = np.random.default_rng(0).standard_normal((2,) + mol.grid.shape)
    for run in (lambda: cfg.stepper, lambda: evolution.propagate(cfg, pair)):
        named = worker_calls(run)
        assert ("evolution", "_shifted_sum") in named
        assert_untraced(named, load_tracer())


def test_the_norm_worker_runs_nothing_the_tracer_wraps():
    # both callers of probe_potential_bounds, the plain and the weighted
    mol = small_drift()
    grid, potential = mol.grid, mol.magnitude()
    eta = weighted.WeightSpec(grid, 0.5, 1.5)
    runs = (
        lambda: resolvent.verify_lp_inequalities(
            potential, (2.0, 4.5), 1.0, 0.01, grid, 1.5, n_probes=5, seed=1,
            delta=0.05, extremizer=np.ones(grid.shape)),
        lambda: weighted.verify_weighted_lp_inequalities(
            potential, 4.5, 1.0, 0.01, grid, 1.5, eta, seed=1))
    for run in runs:
        named = worker_calls(run)
        assert named == {("resolvent", "_lp_norms"), ("grid", "_lp_norm_into")}
        assert_untraced(named, load_tracer())
