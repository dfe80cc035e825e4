"""Time evolution exp(-t (A + b . grad)) on the torus.

Default scheme: Strang splitting with an exact spectral half-step for the
nonlocal part and semi-Lagrangian backtracking (RK2 departure points,
periodic quintic interpolation) for the advection.  An Arnoldi
matrix-exponential path cross-validates the splitting.  Real fields stay
real along the splitting, and each config builds its stepper once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from scipy import linalg as sla
from scipy import ndimage

from .drifts import MollifiedDrift, mollify
from .errors import ConfigurationError, ParameterError
from .grid import Field, TorusGrid
from .kernels import cutoff_mass
from .operators import heat_semigroup
from .profiles import cutoff_profile
from .report import VerificationReport, build_report
from .resolvent import drifted_generator

SCHEMES = ("splitstep_spectral", "expm_krylov")


@dataclass(frozen=True)
class PropagatorConfig:
    """One evolution run: drift, horizon, step count, scheme.

    Frozen, so that the stepper cached on it stays valid for its lifetime.
    """

    drift: MollifiedDrift
    alpha: float
    t_final: float
    steps: int
    scheme: str = "splitstep_spectral"

    def __post_init__(self):
        if self.steps < 1:
            raise ConfigurationError("steps must be >= 1")
        if self.t_final <= 0:
            raise ConfigurationError("t_final must be positive")
        if self.scheme not in SCHEMES:
            raise ConfigurationError(f"unknown scheme {self.scheme!r}")
        grid = self.drift.grid
        dt = self.t_final / self.steps
        courant = dt * self.drift.sup_norm() * (np.pi * grid.points_per_axis
                                                / (2.0 * grid.half_length))
        if self.scheme == "splitstep_spectral" and courant > 1.0:
            raise ConfigurationError(
                f"advection Courant number {courant:.3f} > 1; increase steps")

    @property
    def grid(self) -> TorusGrid:
        return self.drift.grid

    @property
    def dt(self) -> float:
        return self.t_final / self.steps

    @cached_property
    def stepper(self):
        """The one-step propagator, built on first use and kept."""
        if self.scheme == "splitstep_spectral":
            return SplitStepPropagator(self.drift, self.alpha, self.dt)
        return ArnoldiPropagator(self.drift, self.alpha, self.dt)


def _interp(data: np.ndarray, idx_coords: np.ndarray) -> np.ndarray:
    # quintic keeps the advection error below the splitting error at desk
    # resolutions
    return ndimage.map_coordinates(data, idx_coords, order=5,
                                   mode="grid-wrap", prefilter=True)


class SplitStepPropagator:
    """Reusable stepper: precomputes the departure indices once."""

    def __init__(self, drift: MollifiedDrift, alpha: float, dt: float):
        self.grid = drift.grid
        self.dt = dt
        self.half_heat = heat_semigroup(self.grid, alpha, 0.5 * dt)
        grid = self.grid
        b = drift.lattice.data
        coords = np.stack([np.broadcast_to(c, grid.shape)
                           for c in grid.coordinates()])
        if drift.sup_norm() == 0.0:
            self.departure_idx = None
            return
        # RK2 departure points: midpoint velocity, then full backtrack
        mid = coords - 0.5 * dt * b
        mid_idx = (mid + grid.half_length) / grid.spacing
        b_mid = np.stack([_interp(b[j], mid_idx) for j in range(grid.dim)])
        dep = coords - dt * b_mid
        self.departure_idx = (dep + grid.half_length) / grid.spacing

    def _advect(self, u: np.ndarray) -> np.ndarray:
        if self.departure_idx is None:
            return u
        if np.iscomplexobj(u):
            return (_interp(u.real, self.departure_idx)
                    + 1j * _interp(u.imag, self.departure_idx))
        return _interp(u, self.departure_idx)

    def step(self, u: np.ndarray) -> np.ndarray:
        u = self.half_heat.apply(u)
        u = self._advect(u)
        return self.half_heat.apply(u)


class ArnoldiPropagator:
    """Matrix-exponential stepper via an Arnoldi subspace of the full
    generator; cross-validation path for the splitting."""

    def __init__(self, drift: MollifiedDrift, alpha: float, dt: float,
                 subspace=36):
        self.generator = drifted_generator(drift, drift.grid, alpha)
        self.grid = drift.grid
        self.dt = dt
        self.subspace = subspace

    def step(self, u: np.ndarray) -> np.ndarray:
        shape = self.grid.shape
        v0 = np.asarray(u, dtype=complex).ravel()
        beta = np.linalg.norm(v0)
        if beta == 0.0:
            return np.asarray(u)
        m = self.subspace
        basis = [v0 / beta]
        hess = np.zeros((m + 1, m), dtype=complex)
        used = m
        for j in range(m):
            w = -self.dt * self.generator.apply(
                basis[j].reshape(shape)).ravel()
            for i in range(j + 1):
                hess[i, j] = np.vdot(basis[i], w)
                w -= hess[i, j] * basis[i]
            hess[j + 1, j] = np.linalg.norm(w)
            if abs(hess[j + 1, j]) < 1e-13 * beta:
                used = j + 1
                break
            basis.append(w / hess[j + 1, j])
        h = hess[:used, :used]
        phase = sla.expm(h)[:, 0]
        out = beta * np.sum(
            np.stack(basis[:used], axis=1) * phase[None, :], axis=1)
        return out.reshape(shape)


def propagate(config: PropagatorConfig, f):
    """exp(-t_final (A + b . grad)) applied to a field; real input gives
    float64 output."""
    data = f.data if isinstance(f, Field) else np.asarray(f)
    was_real = not np.iscomplexobj(data)
    stepper = config.stepper
    u = np.array(data, dtype=float if was_real else complex)
    for _ in range(config.steps):
        u = stepper.step(u)
    if was_real:
        u = u.real
    if isinstance(f, Field):
        return Field(config.grid, u)
    return u


def kernel_slice(config: PropagatorConfig, site) -> Field:
    """Evolution of the scaled lattice indicator at ``site``: the kernel
    of the semigroup read in its second argument at fixed target point
    (for the symmetric part this is also the transition row)."""
    grid = config.grid
    delta = np.zeros(grid.shape)
    delta[tuple(site)] = 1.0 / grid.cell_volume
    return Field(grid, propagate(config, delta))


def duhamel_residual(config: PropagatorConfig, f) -> float:
    """Relative L^2 residual of the perturbation identity

      exp(-tL) f = exp(-tA) f - int_0^t exp(-(t-s)L) (b . grad exp(-sA) f) ds

    with composite Simpson in time on the step grid (L = A + b . grad).
    The sign of the correction follows from integrating
    d/ds [exp(-(t-s)L) exp(-sA)] = exp(-(t-s)L) (b . grad) exp(-sA)."""
    grid = config.grid
    data = f.data if isinstance(f, Field) else np.asarray(f)
    real = not np.iscomplexobj(data)
    data = np.asarray(data, dtype=float if real else complex)
    cfg = (config if config.steps % 2 == 0
           else replace(config, steps=config.steps + 1))
    steps, dt = cfg.steps, cfg.dt
    stepper = cfg.stepper
    b = config.drift.lattice.data
    heat_step = heat_semigroup(grid, config.alpha, dt)

    from .operators import gradient_component

    grads = [gradient_component(grid, j) for j in range(grid.dim)]

    def advective_source(u):
        src = sum(b[j] * grads[j].apply(u) for j in range(grid.dim))
        return src.real if real else src

    weights = np.full(steps + 1, 2.0)
    weights[1::2] = 4.0
    weights[0] = weights[-1] = 1.0
    weights *= dt / 3.0

    heat_f = np.array(data)
    accum = weights[0] * advective_source(heat_f)  # s = 0 term
    for k in range(1, steps + 1):
        accum = stepper.step(accum)
        heat_f = heat_step.apply(heat_f)
        accum += weights[k] * advective_source(heat_f)
    lhs = propagate(cfg, data)
    residual = lhs - heat_f + accum
    return float(np.linalg.norm(residual) / max(np.linalg.norm(data), 1e-300))


def conservativeness_check(config: PropagatorConfig, x_index, k_list,
                           n_levels=None, tail_oracle=False) -> VerificationReport:
    """Mass retention under smooth radial cutoffs: the semigroup applied
    to the cutoff, read at the starting site, must increase to 1 in the
    cutoff radius, uniformly over mollification levels."""
    grid = config.grid
    k_list = list(k_list)
    if max(k_list) + 1.0 > grid.half_length:
        raise ParameterError("cutoff radius k + 1 must fit inside the torus")
    levels = n_levels or (config.drift.n,)
    radius = grid.radius()
    site = tuple(x_index)
    values = {}
    mass_drift = {}
    for n in levels:
        cfg = (config if n == config.drift.n
               else replace(config, drift=mollify(
                   config.drift.base, n=n, grid=grid,
                   epsilon_n=config.drift.epsilon_n)))
        for k in k_list:
            cut = cutoff_profile(radius, k)
            values[(n, k)] = float(propagate(cfg, cut)[site])
        ones = propagate(cfg, np.ones(grid.shape))
        mass_drift[n] = float(ones[site] - 1.0)
    checks = []
    for n in levels:
        seq = [values[(n, k)] for k in k_list]
        monotone = all(seq[i + 1] > seq[i] for i in range(len(seq) - 1))
        checks.append((f"monotone_in_k_n{n}", float(monotone),
                       "strictly increasing", monotone))
        defect = abs(1.0 - seq[-1])
        checks.append((f"final_defect_n{n}", defect, "<= 1e-3",
                       defect <= 1e-3))
        checks.append((f"unit_mass_drift_n{n}", abs(mass_drift[n]),
                       "<= 1e-8 (scheme property on constants)",
                       abs(mass_drift[n]) <= 1e-8))
    if tail_oracle:
        # free-kernel route: defect must match the radial tail quadrature
        k = k_list[-1]
        oracle = 1.0 - cutoff_mass(config.alpha, grid.dim, config.t_final, k,
                                   lambda r: cutoff_profile(r, k))
        measured = abs(1.0 - values[(levels[0], k)])
        agree = abs(oracle - measured) <= 0.2 * max(oracle, 1e-6) + 1e-5
        checks.append(("tail_oracle_match", measured - oracle,
                       "within 20% of radial quadrature", agree))
    return build_report("semigroup_conservativeness",
                        {"t": config.t_final, "k_list": k_list,
                         "levels": list(levels)},
                        checks,
                        provenance={"values": {f"n{n}_k{k}": values[(n, k)]
                                               for n in levels for k in k_list},
                                    "mass_drift": mass_drift})


def feller_convergence_check(drift_base, n_list, t: float, f, grid: TorusGrid,
                             alpha: float, steps: int = 20,
                             epsilon_rule=None,
                             mu_ladder=(1e2, 1e3, 1e4)) -> VerificationReport:
    """Cauchy behavior of the approximant semigroups in sup norm along the
    mollification ladder, plus the strong-identity limit of the scaled
    resolvents along a mu ladder."""
    from .resolvent import assemble_lp_resolvent

    data = np.asarray(f.data if isinstance(f, Field) else f)
    outs = []
    rule = epsilon_rule or (lambda n: None)
    mols = []
    for n in n_list:
        mol = mollify(drift_base, n=n, grid=grid, epsilon_n=rule(n))
        mols.append(mol)
        cfg = PropagatorConfig(mol, alpha, t, steps)
        outs.append(propagate(cfg, data))
    diffs = [float(np.max(np.abs(outs[i + 1] - outs[i])))
             for i in range(len(outs) - 1)]
    decreasing = all(diffs[i + 1] < diffs[i] for i in range(len(diffs) - 1))
    checks = [("cauchy_differences_decreasing", float(decreasing),
               "strictly decreasing", decreasing)]
    sups = []
    for mu in mu_ladder:
        asm = assemble_lp_resolvent(mols[-1], mu, p=4.5, q=6.0, r=2.0,
                                    grid=grid, alpha=alpha)
        sups.append(float(np.max(np.abs(mu * asm.apply(data) - data))))
    resolvent_to_identity = all(sups[i + 1] < sups[i]
                                for i in range(len(sups) - 1))
    checks.append(("scaled_resolvent_to_identity", float(resolvent_to_identity),
                   "sup distance decreasing along mu ladder",
                   resolvent_to_identity))
    return build_report("feller_approximation_cauchy",
                        {"n_list": list(n_list), "t": t,
                         "mu_ladder": list(mu_ladder)},
                        checks,
                        provenance={"sup_differences": diffs,
                                    "resolvent_sups": sups})
