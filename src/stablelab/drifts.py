"""Catalog of drift vector fields and their mollified lattice approximants.

A ``DriftSpec`` is a symbolic, grid-independent description of a vector
field b; ``mollify`` turns it into a smooth bounded lattice field by
truncation at level n followed by convolution with the compactly
supported bump mollifier.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .errors import ParameterError
from .grid import TorusGrid, _check_data, component_magnitude
from .operators import even_convolution
from .profiles import cutoff_profile


def _real(name: str, value) -> float:
    """A drift's scalar parameter as a finite float: a string, a bool or a
    non-finite number would pass parsing and fail mid-run."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ParameterError(f"{name} must be a real number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ParameterError(f"{name} must be finite, got {value!r}")
    return number


def _positive(name: str, value) -> float:
    value = _real(name, value)
    if value <= 0.0:
        raise ParameterError(f"{name} must be positive, got {value!r}")
    return value


def hardy_constant(alpha: float, dim: int) -> float:
    """kappa(alpha, d) = 2^((alpha-1)/2) Gamma((d+alpha-1)/4) / Gamma((d-alpha+1)/4).

    Reciprocal of the sharp constant in the fractional Hardy inequality
    |x|^(-(alpha-1)/2) (-Lap)^(-(alpha-1)/4) on L^2(R^d).
    """
    if dim < 3:
        raise ParameterError("hardy constant assumes dim >= 3")
    if not (1.0 < alpha < 2.0):
        raise ParameterError(f"alpha must lie in (1, 2), got {alpha}")
    return (2.0 ** ((alpha - 1.0) / 2.0)
            * special.gamma((dim + alpha - 1.0) / 4.0)
            / special.gamma((dim - alpha + 1.0) / 4.0))


@dataclass
class DriftSpec:
    """Symbolic drift description: a kind of the catalogue ``KINDS`` plus
    its parameters, as its constructor there builds it."""

    kind: str
    parameters: dict
    singular_points: list = field(default_factory=list)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ParameterError(f"unknown drift kind {self.kind!r}")

    def components(self, coords):
        """Iterable of the components of b at broadcastable coordinates;
        singular sites (zero radius or listed points) evaluate to 0.
        Radial kinds hand out g(|x|) * x_j one component at a time."""
        p = self.parameters
        if self.kind == "bounded_smooth":
            amp = np.atleast_1d(np.asarray(p["amplitude"], dtype=float))
            half = float(p["half_period"])
            d = len(coords)
            if amp.shape != (d,):
                raise ParameterError("amplitude must have one entry per axis")
            return [amp[j] * np.sin(np.pi * coords[(j + 1) % d] / half)
                    for j in range(d)]
        # radial kinds: b(x) = g(|x|) * x
        r = np.sqrt(sum(np.asarray(c) ** 2 for c in coords))
        safe = np.where(r > 0, r, 1.0)
        if self.kind == "hardy":
            g = p["prefactor"] * safe ** (-p["alpha"])
        elif self.kind == "lp_radial":
            g = p["prefactor"] * safe ** (-p["beta"] - 1.0)
        elif self.kind == "kato_example":
            g = (p["prefactor"] * safe ** (-p["beta"] - 1.0)
                 * cutoff_profile(r, p["radius"]))
        del safe
        g = np.where(r > 0, g, 0.0)
        return (g * np.asarray(c) for c in coords)

    def on_lattice(self, grid: TorusGrid) -> np.ndarray:
        """The (d, N, ..., N) float64 array of b, allocated once, filled
        one component at a time and checked finite; listed singular
        points are 0."""
        data = np.empty((grid.dim,) + grid.shape)
        for j, c in enumerate(self.components(grid.coordinates())):
            data[j] = c
        for pt in self.singular_points:
            data[(slice(None),) + grid.site_index(pt)] = 0.0
        return _check_data(grid, data, components=grid.dim)

    def lattice_magnitude(self, grid: TorusGrid) -> np.ndarray:
        """``component_magnitude`` of ``on_lattice(grid)`` bit for bit,
        filled one axis-0 slab at a time, with no whole-lattice temporary
        (same checks)."""
        mag = np.empty(grid.shape)
        for sl, coords in grid.coordinate_slabs():
            mag[sl] = component_magnitude(self.components(coords),
                                          mag[sl].shape)
        for pt in self.singular_points:
            mag[grid.site_index(pt)] = 0.0
        return _check_data(grid, mag)

    def to_json(self) -> str:
        return json.dumps({"kind": self.kind, "parameters": self.parameters,
                           "singular_points": self.singular_points},
                          sort_keys=True)


def hardy_drift(delta: float, alpha: float, dim: int) -> DriftSpec:
    """The critical radial drift b(x) = delta * kappa^2 * |x|^(-alpha) x.

    Calibrated so that its weak form-bound equals ``delta`` exactly (with
    vanishing spectral shift): |b| = delta * kappa^2 |x|^(1-alpha) saturates
    the sharp fractional Hardy inequality, whose best constant is
    kappa^(-2).  Not in the Kato class for any bound.
    """
    delta, alpha = _positive("delta", delta), _real("alpha", alpha)
    kappa = hardy_constant(alpha, dim)  # validates alpha, dim
    return DriftSpec(
        kind="hardy",
        parameters={"delta": delta, "alpha": alpha,
                    "prefactor": delta * kappa**2},
        singular_points=[[0.0] * dim],
    )


def lp_radial_drift(prefactor: float, beta: float, dim: int) -> DriftSpec:
    """Radial power drift with |b| = prefactor * |x|^(-beta)."""
    prefactor, beta = _real("prefactor", prefactor), _real("beta", beta)
    if beta >= dim:
        raise ParameterError("beta >= dim is not locally integrable")
    return DriftSpec(kind="lp_radial",
                     parameters={"prefactor": prefactor, "beta": beta},
                     singular_points=[[0.0] * dim])


def kato_example_drift(prefactor: float, beta: float, radius: float,
                       dim: int) -> DriftSpec:
    """Compactly supported radial drift with a sub-critical singularity
    |b| = prefactor * |x|^(-beta) near the origin; lies in the Kato class
    whenever beta < alpha - 1."""
    prefactor, beta = _real("prefactor", prefactor), _real("beta", beta)
    radius = _positive("radius", radius)
    if beta >= dim:
        raise ParameterError("beta >= dim is not locally integrable")
    return DriftSpec(kind="kato_example",
                     parameters={"prefactor": prefactor, "beta": beta,
                                 "radius": radius},
                     singular_points=[[0.0] * dim])


def bounded_smooth_drift(amplitude, half_period: float, dim: int) -> DriftSpec:
    """Trigonometric drift b_j = a_j sin(pi x_(j+1 mod d) / L); exactly
    periodic on the matching torus and divergence-free for d >= 2."""
    half_period = _positive("half_period", half_period)
    amp = np.broadcast_to(np.asarray(amplitude, dtype=float), (dim,))
    return DriftSpec(kind="bounded_smooth",
                     parameters={"amplitude": amp.tolist(),
                                 "half_period": half_period})


KINDS = {"hardy": hardy_drift, "lp_radial": lp_radial_drift,
         "kato_example": kato_example_drift,
         "bounded_smooth": bounded_smooth_drift}


# ---------------------------------------------------------------------------
# Mollification


def mollifier(grid: TorusGrid, epsilon: float) -> np.ndarray:
    """Bump mollifier sampled on the lattice, renormalized so that the
    lattice sum times h^d equals one.

    For epsilon below the lattice spacing the sampled bump degenerates to
    the discrete delta, which is the correct limit of the convolution.
    """
    if epsilon <= 0:
        raise ParameterError("epsilon must be positive")
    if epsilon >= grid.half_length / 2.0:
        raise ParameterError("mollifier support must fit well inside the torus")
    r = grid.radius() / epsilon
    vals = np.zeros(grid.shape)
    inside = r < 1.0
    vals[inside] = np.exp(-1.0 / (1.0 - r[inside] ** 2))
    total = vals.sum() * grid.cell_volume
    return vals / total


def default_epsilon(n: int, grid: TorusGrid) -> float:
    """Default smoothing width for approximation level n."""
    return min(1.0 / n, 4.0 * grid.spacing)


@dataclass
class MollifiedDrift:
    """Smooth bounded lattice approximant of a drift: truncation at level n
    (both |x| <= n and |b| <= n) followed by mollification; ``lattice``
    is its finite (d, N, ..., N) array on ``grid``."""

    base: DriftSpec
    n: int
    epsilon_n: float
    grid: TorusGrid
    lattice: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.lattice = _check_data(self.grid, self.lattice,
                                   components=self.grid.dim)

    def magnitude(self) -> np.ndarray:
        """|b| at every site, streamed by ``component_magnitude``."""
        return component_magnitude(self.lattice, self.grid.shape)

    def sup_norm(self) -> float:
        return float(np.max(self.magnitude()))


def mollify(base: DriftSpec, n: int, grid: TorusGrid,
            epsilon_n: float | None = None) -> MollifiedDrift:
    """Truncate b at level n, in place on its lattice field, and convolve
    every component with the bump of width epsilon_n in one real
    ``even_convolution`` call (circular, half-spectrum FFTs)."""
    if n < 1:
        raise ParameterError("n must be a positive integer")
    if epsilon_n is None:
        epsilon_n = default_epsilon(n, grid)
    raw = base.on_lattice(grid)
    far = (grid.radius() > n) | (component_magnitude(raw, grid.shape) > n)
    raw[:, far] = 0.0
    smooth = even_convolution(grid, mollifier(grid, epsilon_n)).apply(raw)
    return MollifiedDrift(base=base, n=n, epsilon_n=epsilon_n, grid=grid,
                          lattice=smooth)
