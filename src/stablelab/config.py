"""Experiment configuration: parsing (key=value sections or JSON) and
cross-field admissibility validation."""

from __future__ import annotations

import configparser
import json
from dataclasses import dataclass, fields, replace

import numpy as np

from .drifts import DriftSpec, hardy_drift
from .errors import AdmissibilityError, ConfigurationError
from .formbound import admissible_delta_threshold
from .grid import TorusGrid
from .scenarios import SCENARIO_RUNNERS
from .weighted import check_weighted_exponent


@dataclass
class ExperimentConfig:
    """Validated experiment description (defaults form the desk pack)."""

    scenario: str = "full_suite"
    dim: int = 3
    alpha: float = 1.5
    delta: float = 0.05
    nu: float = 0.675
    p: float = 5.0
    q: float = 6.0
    r: float = 2.0
    grid_n: int = 32
    half_length: float = 8.0
    lambda_ladder: tuple = (0.1, 0.01, 0.001)
    mu_ladder: tuple = (1e2, 1e3, 1e4)
    t_list: tuple = (0.1, 0.25, 0.5)
    n_paths: int = 20000
    dt: float = 0.0125
    seed: int = 20240801
    drift: DriftSpec = None
    m_constant: float = None

    def __post_init__(self):
        if self.scenario not in (*SCENARIO_RUNNERS, "full_suite"):
            raise ConfigurationError(f"unknown scenario {self.scenario!r}")
        if self.drift is None:
            self.drift = hardy_drift(self.delta, self.alpha, self.dim)

    def validate(self, m_constant: float) -> None:
        """Cross-field admissibility; raises AdmissibilityError citing the
        violated hypothesis, and ConfigurationError naming the key for a
        seed outside [0, 2^64), a non-positive dt or half_length, an empty
        t_list, lambda_ladder or mu_ladder, or a grid_n with no lattice."""
        if not 0 <= self.seed < 2**64:
            raise ConfigurationError(
                f"seed = {self.seed} must lie in [0, 2^64)")
        for key in ("dt", "half_length"):
            if not getattr(self, key) > 0:
                raise ConfigurationError(
                    f"{key} = {getattr(self, key)} must be positive")
        for key in ("t_list", "lambda_ladder", "mu_ladder"):
            if not len(getattr(self, key)):
                raise ConfigurationError(f"{key} must not be empty")
        halves = self.scenario in ("formbound_audit", "full_suite")
        for n in (self.grid_n, self.grid_n // 2)[:1 + halves]:  # and its half
            _checked("grid_n", TorusGrid, self.dim, self.half_length, n)
        self.m_constant = m_constant
        adm = admissible_delta_threshold(self.dim, self.alpha, m_constant)
        if self.delta >= adm.threshold:
            raise AdmissibilityError(
                f"delta = {self.delta} violates the admissibility hypothesis "
                f"on the weak form-bound: delta < 4/m * min((d-a)/(d-a+1)^2, "
                f"a(d+a)/(d+2a)^2) = {adm.threshold:.4f}")
        p_minus, p_plus = adm.p_interval(self.delta)
        if not (p_minus < self.p < p_plus):
            raise AdmissibilityError(
                f"p = {self.p} outside the admissible exponent interval "
                f"({p_minus:.4f}, {p_plus:.4f})")
        check_weighted_exponent(self.dim, self.alpha, self.nu, self.p)
        if not (1.0 < self.r < self.p < self.q):
            raise AdmissibilityError("need 1 < r < p < q")

    def quick(self) -> "ExperimentConfig":
        """Halved grids and path counts."""
        return replace(self, grid_n=max(16, self.grid_n // 2),
                       n_paths=max(1000, self.n_paths // 2))

    def as_dict(self) -> dict:
        doc = {}
        for f in fields(self):
            val = getattr(self, f.name)
            if f.name == "drift":
                doc[f.name] = None if val is None else json.loads(val.to_json())
            elif isinstance(val, tuple):
                doc[f.name] = list(val)
            else:
                doc[f.name] = val
        return doc


def _coerce(name: str, value, dim: int):
    """``value`` as the kind of the field's default in ExperimentConfig:
    an int (from a float only if it is integral, as the key=value form
    refuses "32.9"), a float, or a tuple of floats (from a list or a comma
    or space separated string).  A drift is built from its document in
    ``dim``; ``m_constant`` is a float or None."""
    if name == "drift":
        return _drift_from_doc(value, dim) if value else None
    if name == "m_constant":
        return None if value is None else float(value)
    default = getattr(ExperimentConfig, name)
    if isinstance(default, tuple):
        if isinstance(value, str):
            value = [v for v in value.replace(",", " ").split() if v]
        return tuple(float(v) for v in value)
    if isinstance(default, int):
        if isinstance(value, float) and not value.is_integer():
            raise ValueError(f"{value!r} is not an integer")
        return int(value)
    if isinstance(default, float):
        return float(value)
    return value


def _checked(key: str, convert, *args):
    """``convert(*args)``; a TypeError or ValueError (ParameterError
    included) becomes a ConfigurationError that names ``key``."""
    try:
        return convert(*args)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"bad value for config key {key!r}: {exc}") from exc


def parse_config(text: str) -> ExperimentConfig:
    """Parse a config document: JSON (object) or sectioned key=value."""
    text = text.strip()
    if not text:
        raise ConfigurationError("empty configuration")
    if text.startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"invalid JSON config: {exc}") from exc
        return _config_from_mapping(doc)
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigurationError(f"invalid config: {exc}") from exc
    doc = {}
    if parser.has_section("experiment"):
        doc.update(dict(parser.items("experiment")))
    if parser.has_section("parameters"):
        doc.update(dict(parser.items("parameters")))
    if parser.has_section("drift"):
        drift_doc = dict(parser.items("drift"))
        kind = drift_doc.pop("kind", "hardy")
        params = {k: _checked(f"drift.{k}", float, v)
                  for k, v in drift_doc.items()}
        doc["drift"] = {"kind": kind, "parameters": params}
    return _config_from_mapping(doc)


def _config_from_mapping(doc: dict) -> ExperimentConfig:
    known = {f.name for f in fields(ExperimentConfig)}
    kwargs = {}
    # the drift last: it is rebuilt in the already coerced dim
    for key in sorted(doc, key=lambda k: k == "drift"):
        if key not in known:
            raise ConfigurationError(f"unknown config key {key!r}")
        kwargs[key] = _checked(key, _coerce, key, doc[key],
                               kwargs.get("dim", ExperimentConfig.dim))
    try:
        return ExperimentConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"invalid config: {exc}") from exc


def _drift_from_doc(doc, dim: int) -> DriftSpec:
    """A drift from its document; a hardy drift is rebuilt from its
    parameters, in the config's ``dim`` unless they name one."""
    if isinstance(doc, DriftSpec):
        return doc
    if not isinstance(doc, dict):
        raise TypeError(f"a drift is a mapping with a kind, not {doc!r}")
    kind = doc.get("kind", "hardy")
    params = dict(doc.get("parameters", {}))
    if kind == "hardy":
        return hardy_drift(params.get("delta", 0.05),
                           params.get("alpha", 1.5),
                           int(params.get("dim", dim)))
    return DriftSpec(kind=kind, parameters=params,
                     singular_points=doc.get("singular_points", []))


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def reference_m_constant(alpha: float, dim: int) -> float:
    """Gradient-comparison constant used for admissibility checks, from a
    fixed sample of the radial quadratures."""
    from .kernels import estimate_gradient_constant

    mus = np.geomspace(0.2, 50.0, 5)
    rs = np.geomspace(0.1, 10.0, 7)
    est = estimate_gradient_constant(alpha, dim,
                                     [(m, r) for m in mus for r in rs])
    return est.m_est
