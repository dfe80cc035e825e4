"""Structured verification records shared by all check operations."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np


@dataclass
class VerificationReport:
    """Record of one numerical check.

    ``anchor`` is a stable symbolic identifier naming the property under
    test; ``metrics`` holds the computed quantities and ``tolerances``
    the acceptance bands.  ``verdict`` is "pass" only when every recorded
    check passed; trend-style checks may report "trend_only".
    """

    anchor: str
    inputs: dict
    metrics: dict
    tolerances: dict
    verdict: str
    provenance: dict
    failures: list

    def as_dict(self) -> dict:
        return {
            "anchor": self.anchor,
            "inputs": _plain(self.inputs),
            "metrics": _plain(self.metrics),
            "tolerances": _plain(self.tolerances),
            "verdict": self.verdict,
            "provenance": _plain(self.provenance),
            "failures": _plain(self.failures),
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, allow_nan=False)

    @property
    def passed(self) -> bool:
        return self.verdict in ("pass", "trend_only")


def build_report(anchor: str, inputs: dict, checks: list, provenance=None,
                 trend_only=False) -> VerificationReport:
    """Assemble a report from (name, value, tolerance_description, ok)
    tuples.  Failing probes are listed individually, never averaged away;
    a non-finite float value fails its check, whatever ``ok`` says.
    """
    metrics = {}
    tolerances = {}
    failures = []
    for name, value, tol, ok in checks:
        metrics[name] = value
        tolerances[name] = tol
        if not ok or (isinstance(value, float) and not math.isfinite(value)):
            failures.append(name)
    if failures:
        verdict = "fail"
    else:
        verdict = "trend_only" if trend_only else "pass"
    return VerificationReport(anchor=anchor, inputs=inputs, metrics=metrics,
                              tolerances=tolerances, verdict=verdict,
                              provenance=provenance or {}, failures=failures)


def _plain(obj):
    """Recursively convert numpy scalars/arrays for strict JSON round-trips;
    a non-finite float becomes the string "nan", "inf" or "-inf"."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, complex):
        return {"re": _plain(obj.real), "im": _plain(obj.imag)}
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(obj)
    return obj
