"""Time evolution exp(-t (A + b . grad)) on the torus.

The scheme: Strang splitting with an exact spectral half-step for the
nonlocal part and semi-Lagrangian backtracking (RK2 departure points,
periodic quintic interpolation) for the advection.  The interpolation is
matrix-free: the Courant check keeps every departure within one cell, so
each site reads the same seven spline coefficients per axis, and one
advection is a weighted sum of shifted views of the coefficient array.
The spline prefilter is a Fourier multiplier folded into the leading
half-step, and the slot weights are built from the stored displacements
once per propagation, not at each step.  Fields that share a stepper step
as one stack (the Duhamel sum with its field, the mass check's cutoffs
and constant in pairs), and the slot sum of a stack is split between the
caller and one worker thread, bit for bit.  An Arnoldi matrix-exponential
stepper, used by the tests as a reference and not as a scheme,
cross-validates the splitting.  Real fields stay real along the
splitting, and each config builds its stepper once.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import cached_property, partial, reduce

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy import linalg as sla

from .drifts import MollifiedDrift, mollify
from .errors import ConfigurationError, ParameterError
from .grid import TorusGrid
from .kernels import cutoff_mass
from .operators import FourierMultiplier, heat_semigroup, real_gradient
from .profiles import cutoff_profile
from .report import VerificationReport, build_report
from .resolvent import drifted_generator

@dataclass(frozen=True)
class PropagatorConfig:
    """One evolution run: drift, horizon and step count.

    Frozen, so that the stepper cached on it stays valid for its lifetime.
    """

    drift: MollifiedDrift
    alpha: float
    t_final: float
    steps: int

    def __post_init__(self):
        if self.steps < 1:
            raise ConfigurationError("steps must be >= 1")
        if self.t_final <= 0:
            raise ConfigurationError("t_final must be positive")
        grid = self.drift.grid
        dt = self.t_final / self.steps
        courant = dt * self.drift.sup_norm() * (np.pi * grid.points_per_axis
                                                / (2.0 * grid.half_length))
        if courant > 1.0:
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
        """The split-step propagator, built on first use and kept."""
        return SplitStepPropagator(self.drift, self.alpha, self.dt)


# Periodic quintic B-spline interpolation at sub-cell displacements.  With
# spline coefficients c of the data, the value at site i + d (|d| < 1 per
# axis) is the tensor product over axes of sum_o B5(d - o) c[i + o] with
# the same seven slots o = -3..3 at every site.  Row o + 3 of _QUINTIC
# holds B5(d - o) in the basis (1, d, d^2, d^3, d^4, d^5, max(d, 0)^5); the
# integer table is 120 B5.  Quintic keeps the advection error below the
# splitting error at desk resolutions.
_QUINTIC = np.array([[0, 0, 0, 0, 0, -1, 1],
                     [1, -5, 10, -10, 5, 5, -6],
                     [26, -50, 20, 20, -20, -10, 15],
                     [66, 0, -60, 0, 30, 10, -20],
                     [26, 50, 20, -20, -20, -5, 15],
                     [1, 5, 10, 10, 5, 1, -6],
                     [0, 0, 0, 0, 0, 0, 1]]) / 120.0
_SLOTS = 3


def _check_subcell(displacement: np.ndarray, name: str) -> None:
    worst = float(np.max(np.abs(displacement)))
    if not worst < 1.0:
        raise ConfigurationError(
            f"{name} displacement reaches {worst:.3f} cells; the quintic "
            "advection kernel needs |d| < 1 per axis (reduce dt)")


def _slot_weights(displacement: np.ndarray) -> np.ndarray:
    """B5(d - o) for o = -3..3 on every axis, shape (dim, 7, N, ..., N):
    one product of _QUINTIC with the basis powers per axis."""
    out = np.empty((len(displacement), len(_QUINTIC)) + displacement.shape[1:])
    powers = np.empty(out.shape[1:])
    for w, d in zip(out, displacement):
        powers[0] = 1.0
        powers[1] = d
        for k in range(2, 6):
            np.multiply(powers[k - 1], d, out=powers[k])
        np.multiply(powers[5], d > 0.0, out=powers[6])
        # einsum, not matmul: BLAS would sum in another order, moving the bits
        np.einsum("ok,k...->o...", _QUINTIC, powers, out=w)
    return out


def _shifted_sum(coeffs: np.ndarray, weights: np.ndarray, axis: int,
                 block: np.ndarray, totals: list) -> np.ndarray:
    """sum over slots o of weights[axis][o] times the contraction of the
    lower axes, on views of the padded coefficients shifted by o along
    ``axis``, into ``totals[axis]``.  Axis 0 is contracted last, copied
    into the contiguous ``block``, as one einsum over a strided view of
    its seven windows.  Every buffer is the caller's."""
    n = weights.shape[-1]
    total = totals[axis]
    if axis == 0:
        np.copyto(block, coeffs)
        windows = as_strided(block, (len(weights[0]), n) + block.shape[1:],
                             block.strides[:1] + block.strides,
                             writeable=False)
        return np.einsum("a...,a...->...", weights[0], windows, out=total)
    lead = (slice(None),) * axis
    total.fill(0.0)
    for o, w in enumerate(weights[axis]):
        term = _shifted_sum(coeffs[lead + (slice(o, o + n),)], weights,
                            axis - 1, block, totals)
        term *= w
        total += term
    return total


def _sum_slices(padded, weights, leads, out, block, totals) -> None:
    """The slot sums of ``padded[lead]`` into ``out[lead]``, for each lead
    in turn, in the scratch ``block`` and ``totals`` (one per lower axis)."""
    for lead in leads:
        _shifted_sum(padded[lead], weights, len(weights) - 1, block,
                     totals + [out[lead]])


def _slot_sum(coeffs: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Quintic interpolation from spline coefficients: the slot sum of
    each (N, ..., N) slice of ``coeffs`` with the same weights.  Of two or
    more slices, the caller sums the first half and one worker thread the
    rest, bit for bit as one at a time; each works in the padded stack and
    in scratch allocated here, so the worker allocates no lattice array."""
    dim, n = len(weights), weights.shape[-1]
    lead_dims = coeffs.ndim - dim
    padded = np.pad(coeffs, [(0, 0)] * lead_dims + [(_SLOTS, _SLOTS)] * dim,
                    mode="wrap")
    out = np.empty(coeffs.shape, dtype=coeffs.dtype)

    def scratch():
        return (np.empty((n + 2 * _SLOTS,) + (n,) * (dim - 1), coeffs.dtype),
                [np.empty((n,) * dim, coeffs.dtype) for _ in range(dim - 1)])

    leads = list(np.ndindex(coeffs.shape[:lead_dims]))
    if len(leads) == 1:
        _sum_slices(padded, weights, leads, out, *scratch())
        return out
    half = (len(leads) + 1) // 2
    mine, theirs = scratch(), scratch()
    with ThreadPoolExecutor(max_workers=1) as worker:
        rest = worker.submit(_sum_slices, padded, weights, leads[half:], out,
                             *theirs)
        _sum_slices(padded, weights, leads[:half], out, *mine)
        rest.result()
    return out


def quintic_prefilter(grid: TorusGrid) -> FourierMultiplier:
    """Periodic quintic spline prefilter, data -> spline coefficients, as
    the Fourier multiplier 1 / B5-hat: on each axis
    120 / (66 + 52 cos theta + 2 cos 2 theta) with theta = 2 pi m / N
    (Unser, IEEE SPM 1999).  It depends on N and d only."""
    theta = 2.0 * np.pi * np.abs(np.fft.fftfreq(grid.points_per_axis))
    axis = 120.0 / (66.0 + 52.0 * np.cos(theta) + 2.0 * np.cos(2.0 * theta))
    return FourierMultiplier(grid, reduce(np.multiply.outer,
                                          [axis] * grid.dim))


def quintic_shift(data: np.ndarray, displacement: np.ndarray) -> np.ndarray:
    """Periodic quintic spline interpolation of ``data`` at the sites
    i + displacement[:, i], given in cells.

    Every |d| must lie below one cell: larger displacements fall outside
    the seven slots and give wrong values (``SplitStepPropagator`` checks
    this when it is built).  ``displacement`` has shape (dim, N, ..., N);
    leading axes of ``data`` beyond the last dim are interpolated one slice
    at a time with the same weights.  Real data gives float64, complex
    data complex128.
    """
    dim, n = len(displacement), displacement.shape[-1]
    # the torus size does not enter the prefilter
    coeffs = quintic_prefilter(TorusGrid(dim, 1.0, n)).apply(data)
    return _slot_sum(coeffs, _slot_weights(displacement))


class SplitStepPropagator:
    """Reusable stepper: keeps the RK2 departure displacements, in cells
    per axis, and advects by the matrix-free quintic kernel above.

    One step applies half_heat times the quintic prefilter as one Fourier
    multiplier, then the slot sum, then half_heat.
    The slot weights (7 per axis and site, 5.5 MB at N = 32 in 3-D) are
    not kept: ``slot_weights`` builds them, once per propagation, and
    ``step`` takes them, and takes a stack of fields on leading axes too;
    its slot sum, like the build's interpolation of the d drift
    components, runs on two threads.  The Courant check of
    ``PropagatorConfig`` keeps every displacement below one cell; a stepper
    built with a larger step raises ``ConfigurationError``.
    """

    def __init__(self, drift: MollifiedDrift, alpha: float, dt: float):
        self.grid = drift.grid
        self.dt = dt
        self.half_heat = heat_semigroup(self.grid, alpha, 0.5 * dt)
        if drift.sup_norm() == 0.0:
            self.displacement = None
            return
        symbol = self.half_heat.symbol * quintic_prefilter(self.grid).symbol
        self.prefiltered_half_heat = FourierMultiplier(self.grid, symbol)
        b = drift.lattice
        cells = dt / self.grid.spacing
        # RK2 departure points: midpoint velocity, then full backtrack
        mid = -0.5 * cells * b
        _check_subcell(mid, "midpoint")
        self.displacement = -cells * quintic_shift(b, mid)
        _check_subcell(self.displacement, "departure")

    def slot_weights(self):
        """The advection's slot weights, or None without a drift."""
        if self.displacement is None:
            return None
        return _slot_weights(self.displacement)

    def step(self, u: np.ndarray, weights) -> np.ndarray:
        """One Strang step; ``weights`` is what ``slot_weights`` gave."""
        if self.displacement is None:
            return self.half_heat.apply(self.half_heat.apply(u))
        coeffs = self.prefiltered_half_heat.apply(u)
        return self.half_heat.apply(_slot_sum(coeffs, weights))


class ArnoldiPropagator:
    """Matrix-exponential stepper via an Arnoldi subspace of the full
    generator: the reference the tests check the splitting against.
    ``step`` maps a field to its complex image after one ``dt``."""

    SUBSPACE = 36

    def __init__(self, drift: MollifiedDrift, alpha: float, dt: float):
        self.generator = drifted_generator(drift, drift.grid, alpha)
        self.grid = drift.grid
        self.dt = dt

    def step(self, u: np.ndarray) -> np.ndarray:
        shape = self.grid.shape
        v0 = np.asarray(u, dtype=complex).ravel()
        beta = np.linalg.norm(v0)
        if beta == 0.0:
            return np.asarray(u)
        m = self.SUBSPACE
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
    """exp(-t_final (A + b . grad)) applied to a lattice array, or to a
    stack of them on leading axes; real input gives float64 output."""
    data = np.asarray(f)
    was_real = not np.iscomplexobj(data)
    stepper = config.stepper
    weights = stepper.slot_weights()
    u = np.array(data, dtype=float if was_real else complex)
    for _ in range(config.steps):
        u = stepper.step(u, weights)
    return u.real if was_real else u


def advective_source(drift: MollifiedDrift, u: np.ndarray) -> np.ndarray:
    """b . grad u on the lattice for a real u, through one rfftn and d
    irfftn calls; complex u raises."""
    if np.iscomplexobj(u):
        raise ParameterError("advective_source takes a real field")
    return np.sum(drift.lattice * real_gradient(drift.grid, u), axis=0)


def duhamel_residual(config: PropagatorConfig, f) -> float:
    """Relative L^2 residual of the perturbation identity

      exp(-tL) f = exp(-tA) f - int_0^t exp(-(t-s)L) (b . grad exp(-sA) f) ds

    with composite Simpson in time on the step grid (L = A + b . grad).
    The sign of the correction follows from integrating
    d/ds [exp(-(t-s)L) exp(-sA)] = exp(-(t-s)L) (b . grad) exp(-sA).
    Complex ``f`` raises, as numpy would cast it to real without a word."""
    grid = config.grid
    data = np.asarray(f)
    if np.iscomplexobj(data):
        raise ParameterError("duhamel_residual takes a real field")
    data = np.asarray(data, dtype=float)
    cfg = (config if config.steps % 2 == 0
           else replace(config, steps=config.steps + 1))
    steps, dt = cfg.steps, cfg.dt
    stepper = cfg.stepper
    slots = stepper.slot_weights()
    heat_step = heat_semigroup(grid, config.alpha, dt)

    weights = np.full(steps + 1, 2.0)
    weights[1::2] = 4.0
    weights[0] = weights[-1] = 1.0
    weights *= dt / 3.0

    heat_f = np.array(data)
    # one stack steps the Duhamel sum (from its s = 0 term) and f itself
    stack = np.stack([weights[0] * advective_source(config.drift, heat_f),
                      data])
    for k in range(1, steps + 1):
        stack = stepper.step(stack, slots)
        heat_f = heat_step.apply(heat_f)
        stack[0] += weights[k] * advective_source(config.drift, heat_f)
    accum, lhs = stack
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
    site = (slice(None),) + tuple(x_index)
    # the cutoffs, then the constant 1, propagated in stacked pairs
    fields = ([partial(cutoff_profile, radius, k) for k in k_list]
              + [partial(np.ones, grid.shape)])
    values = {}
    mass_drift = {}
    for n in levels:
        cfg = (config if n == config.drift.n
               else replace(config, drift=mollify(
                   config.drift.base, n=n, grid=grid,
                   epsilon_n=config.drift.epsilon_n)))
        at_site = []
        for i in range(0, len(fields), 2):
            pair = np.stack([make() for make in fields[i:i + 2]])
            at_site.extend(float(v) for v in propagate(cfg, pair)[site])
        values.update({(n, k): v for k, v in zip(k_list, at_site)})
        mass_drift[n] = at_site[-1] - 1.0
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
                             alpha: float, steps: int, epsilon_rule,
                             mu_ladder) -> VerificationReport:
    """Cauchy behavior of the approximant semigroups in sup norm along the
    mollification ladder, plus the strong-identity limit of the scaled
    resolvents along a mu ladder."""
    from .resolvent import assemble_lp_resolvent

    data = np.asarray(f)
    outs = []
    mols = []
    for n in n_list:
        mol = mollify(drift_base, n=n, grid=grid, epsilon_n=epsilon_rule(n))
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
