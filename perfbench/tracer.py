"""Span tracer that instruments stablelab from outside the package.

`Tracer.install` wraps every public function and method defined in a
`stablelab` module. A function imported by name into another
module (`from .evolution import propagate` in `sde`) is replaced in every
module namespace and registry dict that holds it, so those calls are
traced too; methods are wrapped on their class. Spans are kept in memory
and written out by `Tracer.dump` when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import sys
import time
import types

# Span names for the methods and runners the per-layer metrics name.
ALIASES = {
    "operators.FourierMultiplier.apply": "operators.fourier_apply",
    "operators.PointwiseMultiplier.apply": "operators.pointwise_apply",
    "operators.NeumannInverse.apply": "operators.neumann",
    "operators.LatticeOperator.norm_probe": "operators.norm_probe",
    "resolvent.ResolventAssembly.apply": "resolvent.lp_apply",
    "evolution.SplitStepPropagator.__init__": "evolution.stepper_build",
    "evolution.SplitStepPropagator.step": "evolution.split_step",
}

# Private methods wrapped all the same, because a metric names them.
EXTRA_METHODS = {"evolution.SplitStepPropagator.__init__"}


def _bind(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _operator_apply(fn, args, kwargs, result):
    op = args[0]
    data = args[1] if len(args) > 1 else kwargs["data"]
    return {"n": op.grid.points_per_axis, "points": int(getattr(data, "size", 0))}


def _neumann(fn, args, kwargs, result):
    attrs = _operator_apply(fn, args, kwargs, result)
    norms = args[0].last_term_norms or []
    ratios = [b / a for a, b in zip(norms, norms[1:]) if a > 0]
    attrs["terms"] = len(norms)
    if ratios:
        attrs["max_ratio"] = max(ratios)
    return attrs


def _lp_apply(fn, args, kwargs, result):
    return {"n": args[0].drift.grid.points_per_axis}


def _split_step(fn, args, kwargs, result):
    return {"n": args[0].grid.points_per_axis}


def _power_iteration(fn, args, kwargs, result):
    return {"iterations": int(result[2])}


def _propagate(fn, args, kwargs, result):
    return {"steps": int(_bind(fn, args, kwargs)["config"].steps)}


def _integrate(fn, args, kwargs, result):
    a = _bind(fn, args, kwargs)
    n_steps = int(round(a["t_final"] / a["dt"]))
    return {"path_steps": int(a["n_paths"]) * n_steps}


def _sample_increments(fn, args, kwargs, result):
    return {"draws": int(_bind(fn, args, kwargs)["n"])}


# Quantities recorded on a span, by span name: fn(fn, args, kwargs, result).
HOOKS = {
    "operators.fourier_apply": _operator_apply,
    "operators.pointwise_apply": _operator_apply,
    "operators.neumann": _neumann,
    "resolvent.lp_apply": _lp_apply,
    "evolution.split_step": _split_step,
    "formbound.power_iteration": _power_iteration,
    "evolution.propagate": _propagate,
    "sde.integrate": _integrate,
    "sampler.sample_increments": _sample_increments,
}


class Tracer:
    """Records one span per call of an instrumented function.

    A span is ``[run_id, span_id, parent_id, name, start, end, nested,
    attrs]``; ``parent_id`` is -1 at the top, ``nested`` is true when a
    span of the same name encloses it, and ``attrs`` holds the counts
    its hook computed.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self._stack = []
        self._open = {}

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        spans, stack, active = self.spans, self._stack, self._open
        run_id = self.run_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            depth = active.get(name, 0)
            rec = [run_id, len(spans), stack[-1] if stack else -1, name,
                   0.0, 0.0, depth > 0, None]
            spans.append(rec)
            stack.append(rec[1])
            active[name] = depth + 1
            rec[4] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[5] = time.perf_counter()
                active[name] = depth
                stack.pop()
            if hook is not None:
                rec[7] = hook(fn, args, kwargs, result)
            return result

        return traced

    def install(self, package: str = "stablelab") -> int:
        """Import every module of ``package`` and wrap their public
        functions and methods; returns the number of functions wrapped."""
        root = importlib.import_module(package)
        for info in pkgutil.iter_modules(root.__path__):
            importlib.import_module(f"{package}.{info.name}")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package
                                         or n.startswith(package + "."))]
        wrapped = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType) and not attr.startswith("_"):
                    name = f"{short}.{attr}"
                    if short == "scenarios" and attr.startswith("run_") \
                            and attr != "run_scenario":
                        name = f"scenarios.{attr[4:]}"
                    wrapped[obj] = self.wrap(name, obj)
                elif isinstance(obj, type):
                    self._wrap_methods(short, obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if isinstance(val, types.FunctionType) and val in wrapped:
                            obj[key] = wrapped[val]
        return len(wrapped)

    def _wrap_methods(self, short: str, cls: type) -> None:
        for attr, meth in list(vars(cls).items()):
            full = f"{short}.{cls.__name__}.{attr}"
            if not isinstance(meth, types.FunctionType):
                continue
            if attr.startswith("_") and full not in EXTRA_METHODS:
                continue
            setattr(cls, attr, self.wrap(ALIASES.get(full, full), meth))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": self.run_id, "spans": self.spans}, fh)


def aggregate(spans) -> dict:
    """Per span name: calls, total and self seconds, per-N call counts and
    seconds, and the sums (``max_ratio``: the maximum) of hook counts.

    Total time counts only spans that no span of the same name encloses;
    self time is a span's duration minus that of its direct children.
    """
    child_time = [0.0] * len(spans)
    for rec in spans:
        if rec[2] >= 0:
            child_time[rec[2]] += rec[5] - rec[4]
    out = {}
    for rec in spans:
        name, dur, nested, attrs = rec[3], rec[5] - rec[4], rec[6], rec[7]
        agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                    "by_n": {}, "counts": {}})
        agg["calls"] += 1
        agg["self_s"] += dur - child_time[rec[1]]
        if not nested:
            agg["s"] += dur
        for key, val in (attrs or {}).items():
            if key == "n":
                calls_s = agg["by_n"].setdefault(str(val), [0, 0.0])
                calls_s[0] += 1
                calls_s[1] += dur
            elif key == "max_ratio":
                agg["counts"][key] = max(agg["counts"].get(key, 0.0), val)
            else:
                agg["counts"][key] = agg["counts"].get(key, 0) + val
    return out
