"""Experiment configuration: parsing (key=value sections or JSON) and
cross-field admissibility validation."""

from __future__ import annotations

import configparser
import json
from dataclasses import dataclass, fields, replace

import numpy as np

from .drifts import KINDS, DriftSpec, hardy_drift
from .errors import AdmissibilityError, ConfigurationError
from .formbound import admissible_delta_threshold
from .grid import TorusGrid
from .scenarios import SCENARIO_RUNNERS
from .sde import step_count
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
        seed outside [0, 2^64), a non-positive dt, a half_length that is not
        positive or sets mollification level 0, a t_list, lambda or mu
        ladder that is empty or has an entry that is not positive, a
        shortest or longest sde_identify horizon that is no whole multiple
        of dt, an m_constant that is not ``m_constant``, a hardy drift
        whose delta or alpha is not the config's, a grid_n with no lattice
        or too coarse a lattice for a mollifier, or a half_length too short
        for a mollifier of fixed width."""
        if not 0 <= self.seed < 2**64:
            raise ConfigurationError(
                f"seed = {self.seed} must lie in [0, 2^64)")
        for key in ("dt", "half_length"):
            if not getattr(self, key) > 0:
                raise ConfigurationError(
                    f"{key} = {getattr(self, key)} must be positive")
        for key in ("t_list", "lambda_ladder", "mu_ladder"):
            values = getattr(self, key)
            if not (len(values) and all(v > 0 for v in values)):
                raise ConfigurationError(f"{key} = {list(values)} must be "
                                         f"non-empty with positive entries")
        if self.scenario in ("sde_identify", "full_suite"):  # its horizons
            for t in (min(self.t_list), max(self.t_list)):
                _checked("t_list", step_count, t, self.dt)
        if (self.scenario in ("formbound_audit", "resolvent_verify",
                              "full_suite") and self.half_length < 2):
            raise ConfigurationError(
                f"half_length = {self.half_length} must be at least 2: "
                f"{self.scenario} mollifies at level int(half_length / 2)")
        if self.m_constant not in (None, m_constant):
            raise ConfigurationError(
                f"m_constant = {self.m_constant} must equal the reference "
                f"constant {m_constant} of alpha and dim")
        if self.drift.kind == "hardy":  # the audits measure cfg.delta
            for key in ("delta", "alpha"):
                if self.drift.parameters.get(key) != getattr(self, key):
                    raise ConfigurationError(
                        f"drift.{key} = {self.drift.parameters.get(key)} must "
                        f"equal {key} = {getattr(self, key)}")
        # the lattices grid_n sets, each with the mollifier bump it holds,
        # max(floor, width spacings) wide; drifts.mollifier wants the bump
        # narrower than half_length / 2, that is floor < half_length / 2
        # and more than 4 * width points per axis
        lattices = [(self.grid_n, 0, 0.0)]
        if self.scenario in ("formbound_audit", "full_suite"):
            lattices.append((self.grid_n // 2, 1, 0.0))
        if self.scenario in ("weighted_verify", "full_suite"):
            lattices.append((min(self.grid_n, 16), 2, 0.0))
        if self.scenario in ("sde_identify", "full_suite"):
            lattices.append((self.grid_n, 1, 0.5))
        for n, width, floor in lattices:
            _checked("grid_n", TorusGrid, self.dim, self.half_length, n)
            if floor >= self.half_length / 2:
                raise ConfigurationError(
                    f"half_length = {self.half_length} must be more than "
                    f"{2 * floor}: {self.scenario} holds a mollifier "
                    f"{floor} wide")
            if n <= 4 * width:
                raise ConfigurationError(
                    f"bad value for config key 'grid_n': {self.grid_n} sets "
                    f"{n} points per axis where a mollifier is {width} "
                    f"spacing(s) wide; it needs more than {4 * width}")
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
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc["drift"] = json.loads(self.drift.to_json())
        return {k: list(v) if isinstance(v, tuple) else v
                for k, v in doc.items()}


def _coerce(name: str, value, own: dict):
    """``value`` as the kind of the field's default in ExperimentConfig:
    an int (from a float only if it is integral, as the key=value form
    refuses "32.9"), a float, or a tuple of floats (from a list or a comma
    or space separated string).  A drift is built from its document and
    ``own``, the config's dim, alpha and delta; ``m_constant`` is a float
    or None."""
    if name == "drift":
        return _drift_from_doc(value, own) if value else None
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
        own = {k: kwargs.get(k, getattr(ExperimentConfig, k))
               for k in ("dim", "alpha", "delta")}
        kwargs[key] = _checked(key, _coerce, key, doc[key], own)
    try:
        return ExperimentConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"invalid config: {exc}") from exc


def _drift_from_doc(doc, own: dict) -> DriftSpec:
    """A drift rebuilt from its document by its constructor in ``KINDS``,
    in the config's ``own`` dim; a hardy drift takes the config's delta
    and alpha where it names none.  What else the document names (a dim,
    hardy's prefactor, the singular points) must be what it rebuilds."""
    if not isinstance(doc, dict):
        raise TypeError(f"a drift is a mapping with a kind, not {doc!r}")
    kind, params = doc.get("kind", "hardy"), dict(doc.get("parameters", {}))
    if kind not in KINDS:
        raise ValueError(f"unknown drift kind {kind!r}")
    named = {"dim": params.pop("dim", None),
             "singular_points": doc.get("singular_points")}
    if kind == "hardy":
        named["prefactor"] = params.pop("prefactor", None)
        params = {"delta": own["delta"], "alpha": own["alpha"], **params}
    spec = KINDS[kind](**params, dim=own["dim"])
    built = dict(spec.parameters, dim=own["dim"],
                 singular_points=spec.singular_points)
    for key, value in named.items():
        if value is not None and value != built[key]:
            raise ValueError(f"drift {key} = {value} must be {built[key]}")
    return spec


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
