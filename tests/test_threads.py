"""The package's threads are bounded by construction.

Every ``ThreadPoolExecutor`` is made with ``max_workers=1`` as the
context expression of a ``with`` statement, so each pool has one worker
thread and joins it on the way out; every scipy.fft ``workers=`` argument
comes from the one rule ``operators._fft_workers``.  The calls that open
pools leave no thread behind.
"""

import ast
import threading
from pathlib import Path

import numpy as np

import stablelab
from stablelab import drifts, evolution, resolvent, sde
from stablelab.grid import TorusGrid

ALPHA = 1.5
PACKAGE = sorted(Path(stablelab.__file__).parent.glob("*.py"))


def parsed(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def callee(node):
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def pool_faults(tree) -> tuple:
    """(pools opened as ``with ThreadPoolExecutor(max_workers=1)``, the
    line numbers of every other ThreadPoolExecutor call)."""
    good = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                call = item.context_expr
                if (isinstance(call, ast.Call)
                        and callee(call) == "ThreadPoolExecutor"
                        and not call.args
                        and [(k.arg, getattr(k.value, "value", None))
                             for k in call.keywords] == [("max_workers", 1)]):
                    good.add(id(call))
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and callee(node) == "ThreadPoolExecutor"]
    return (sum(id(c) in good for c in calls),
            sorted(c.lineno for c in calls if id(c) not in good))


def workers_faults(tree) -> list:
    """Line numbers of ``workers=`` arguments that are neither a call of
    ``_fft_workers`` nor a name that every assignment in the module binds
    to such a call."""
    def from_rule(value):
        return isinstance(value, ast.Call) and callee(value) == "_fft_workers"

    ruled = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    ruled[target.id] = (ruled.get(target.id, True)
                                        and from_rule(node.value))
    return [kw.value.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) for kw in node.keywords
            if kw.arg == "workers" and not from_rule(kw.value)
            and not (isinstance(kw.value, ast.Name)
                     and ruled.get(kw.value.id, False))]


def test_a_stray_pool_or_worker_count_is_caught():
    source = (
        "def f(x):\n"
        "    with ThreadPoolExecutor(max_workers=1) as w:\n"
        "        pass\n"
        "    with ThreadPoolExecutor(max_workers=2) as w:\n"
        "        pass\n"
        "    pool = ThreadPoolExecutor(max_workers=1)\n"
        "    workers = _fft_workers(x)\n"
        "    sfft.fftn(x, workers=workers)\n"
        "    sfft.fftn(x, workers=_fft_workers(x))\n"
        "    sfft.fftn(x, workers=2)\n"
        "    n = 2\n"
        "    sfft.fftn(x, workers=n)\n")
    tree = ast.parse(source)
    assert pool_faults(tree) == (1, [4, 6])
    assert sorted(workers_faults(tree)) == [10, 12]


def test_every_pool_has_one_worker_in_a_with_block():
    opened = {}
    for path in PACKAGE:
        count, faults = pool_faults(parsed(path))
        assert faults == [], f"{path.name}: lines {faults}"
        if count:
            opened[path.stem] = count
    assert opened == {"evolution": 1, "resolvent": 1, "sde": 1}


def test_every_fft_worker_count_comes_from_the_one_rule():
    for path in PACKAGE:
        assert workers_faults(parsed(path)) == [], path.name
    rules = [path.stem for path in PACKAGE for node in parsed(path).body
             if isinstance(node, ast.FunctionDef)
             and node.name == "_fft_workers"]
    assert rules == ["operators"]


def test_the_pool_openers_leave_no_thread_behind():
    grid = TorusGrid(3, 8.0, 16)
    drift = drifts.mollify(
        drifts.bounded_smooth_drift([0.5, 0.4, 0.3], 8.0, 3), n=4,
        grid=grid, epsilon_n=0.05)
    potential = drift.magnitude()
    rng = np.random.default_rng(0)
    before = threading.active_count()
    resolvent.verify_lp_inequalities(
        potential, (2.0, 4.5), 1.0, 0.01, grid, ALPHA, n_probes=6, seed=1,
        delta=0.05, extremizer=rng.standard_normal(grid.shape))
    assert threading.active_count() == before
    sde.integrate(drift, [0.3, -0.2, 0.0], 0.05, 0.01, 40, seed=4,
                  alpha=ALPHA)
    assert threading.active_count() == before
    cfg = evolution.PropagatorConfig(drift, ALPHA, 0.1, 2)
    evolution.propagate(cfg, rng.standard_normal((2,) + grid.shape))
    assert threading.active_count() == before
