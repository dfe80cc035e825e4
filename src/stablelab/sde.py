"""Euler-Maruyama integration of dX = -b(X) dt + dZ against stable noise,
Monte Carlo cross-validation of the lattice semigroup, and recovery of
the driving noise from paths through the accumulated drift integral.
Every check reads paths at the horizon T only, so only T is kept.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from .drifts import MollifiedDrift, mollify
from .errors import ParameterError
from .evolution import PropagatorConfig, propagate
from .grid import Field, TorusGrid
from .report import VerificationReport, build_report
from .sampler import StableParams, _fill_slab, _increment_stream, empirical_char_function
from .weighted import WeightSpec, random_bumps

_PATH_BLOCK = 2048  # paths per block: integrate holds their noise at once


@dataclass
class PathEnsemble:
    """Simulated paths at the horizon with their accumulated drift integrals.

    ``states`` holds the unwrapped coordinates X_T, shape (paths, dim), at
    ``t_final`` = dt * n_steps.  ``wrapped_states`` gives the torus
    representatives used for lattice evaluations.  ``drift_integral``
    accumulates b(X) dt, so states - x0 + drift_integral reproduces the
    noise increments exactly at the discrete level; ``abs_drift_integral``
    accumulates |b(X)| dt, shape (paths,).  ``wrap_fraction`` counts cell
    changes over every step.
    """

    x0: np.ndarray
    t_final: float
    states: np.ndarray = field(repr=False)
    drift_integral: np.ndarray = field(repr=False)
    abs_drift_integral: np.ndarray = field(repr=False)
    wrap_fraction: float = 0.0
    seed: int = 0
    alpha: float = 1.5

    def __post_init__(self):
        if self.states.ndim != 2:
            raise ParameterError("states must be (paths, dim)")
        if not np.all(np.isfinite(self.states)):
            raise ParameterError("path states must be finite")

    @property
    def n_paths(self) -> int:
        return self.states.shape[0]

    def recovered_noise(self) -> np.ndarray:
        """Z_T = X_T - x0 + int_0^T b(X_s) ds from unwrapped coordinates."""
        return self.states - self.x0 + self.drift_integral


@dataclass
class CharFnProbe:
    """Monte Carlo characteristic-function estimate at one dual vector."""

    kappa: np.ndarray
    t: float
    w_hat: complex
    stderr: float
    target: complex

    def __post_init__(self):
        if abs(self.w_hat) > 1.0 + 3.0 * self.stderr + 1e-12:
            raise ParameterError("estimated characteristic value exceeds 1")

    @property
    def deviation(self) -> float:
        return abs(self.w_hat - self.target)


def _wrap_shifted(shifted: np.ndarray, half_length: float) -> np.ndarray:
    """From shifted = x + L, in place: (x + L) % (2L) - L, bit for bit.
    numpy's float remainder is the identity on [0, 2L) (up to the sign of
    a zero, which subtracting L erases), so it is taken only where x + L
    falls outside."""
    period = 2.0 * half_length
    outside = (shifted < 0.0) | (shifted >= period)
    np.remainder(shifted, period, out=shifted, where=outside)
    shifted -= half_length
    return shifted


def _wrap(x: np.ndarray, half_length: float) -> np.ndarray:
    return _wrap_shifted(np.add(x, half_length), half_length)


def _lattice_coords(points: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Fractional lattice indices of wrapped points, one row per axis."""
    return np.ascontiguousarray(((points + grid.half_length) / grid.spacing).T)


def _padded_lattice(drift: MollifiedDrift) -> np.ndarray:
    """``drift.lattice`` with two periodic sites more at the end of each
    axis: a wrapped point's lattice coordinate c lies in [0, N]."""
    pad = [(0, 0)] + [(0, 2)] * drift.grid.dim
    return np.pad(drift.lattice, pad, mode="wrap")


def drift_rows(wrapped: np.ndarray, table: np.ndarray,
               grid: TorusGrid) -> np.ndarray:
    """Mollified drift (dim, points) at wrapped points held as rows, from
    the ``_padded_lattice`` table: bit for bit the order-1
    ``map_coordinates(..., mode="grid-wrap")`` of each component.  Per
    axis lo = floor(c), hi = lo + 1 (no remainder: the table is padded),
    w0 = 1 - (c - floor(c)) and w1 = 1 - w0.  Each of the 2**dim corners,
    last axis fastest, is multiplied by its axis-0, axis-1, ... weights in
    turn and added to a sum that starts at zero."""
    dim = grid.dim
    coords = (wrapped + grid.half_length) / grid.spacing
    base = np.floor(coords)
    w0 = 1.0 - (coords - base)
    weights = np.stack((w0, 1.0 - w0))
    corners = np.array(list(itertools.product((0, 1), repeat=dim)))
    strides = table.shape[1] ** np.arange(dim - 1, -1, -1)
    flat = strides @ base.astype(np.intp)
    vals = np.take(table.reshape(dim, -1), flat + (corners @ strides)[:, None],
                   axis=1)
    for axis in range(dim):
        vals *= weights[corners[:, axis], axis]
    out = np.zeros_like(wrapped)
    for corner in range(len(corners)):
        out += vals[:, corner]
    return out


def integrate(drift: MollifiedDrift, x0, t_final: float, dt: float,
              n_paths: int, seed: int, alpha: float) -> PathEnsemble:
    """Explicit Euler steps X' = X - b(X) dt + dZ with exact stable
    increments; drift integrals are accumulated with the same b values
    that drive the steps.

    Blocks of ``_PATH_BLOCK`` paths read their rows of the one-shot noise
    batch, drawn one block ahead by a worker thread into buffers allocated
    once per call, and write state and drift integrals once, after their
    last step; the ensemble's ``t_final`` is dt * n_steps.  Steps act per
    path, so the block size leaves the bits alone.  ``CapacityError``
    bounds one block's noise, not the run's; a non-finite state raises
    ``ParameterError`` at its step, after the worker stops.  A block holds
    state, integrals and noise as rows (dim, paths) and reads b through
    ``drift_rows`` from a table padded once per call; one x + L per step
    gives the wrap count's cells and the next wrapped point.
    """
    grid = drift.grid
    if dt <= 0 or t_final <= 0 or n_paths < 1:
        raise ParameterError("dt, t_final and n_paths must be positive")
    if dt * drift.sup_norm() > grid.half_length / 8.0:
        raise ParameterError("dt too large: a single drift step could wrap")
    n_steps = int(round(t_final / dt))
    if abs(n_steps * dt - t_final) > 1e-9 * t_final:
        raise ParameterError("t_final must be an integer multiple of dt")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (grid.dim,) or not np.all(np.isfinite(x0)):
        raise ParameterError(
            f"x0 must be a finite vector of shape ({grid.dim},), got {x0!r}")
    params = StableParams(alpha=alpha, dim=grid.dim, seed=seed)
    states = np.empty((n_paths, grid.dim))
    drift_int = np.empty((n_paths, grid.dim))
    abs_drift = np.empty(n_paths)
    block = min(_PATH_BLOCK, n_paths)
    stream = _increment_stream(params, dt, n_paths * n_steps, block * n_steps)
    buffers = np.empty((2, n_steps * grid.dim * block))  # noise slabs, in turn
    starts = range(0, n_paths, block)
    slabs = [buffers[j % 2, :n_steps * grid.dim * min(block, n_paths - i0)]
             .reshape(n_steps, grid.dim, -1) for j, i0 in enumerate(starts)]
    table = _padded_lattice(drift)
    wrap_events = 0
    with ThreadPoolExecutor(max_workers=1) as worker:
        ahead = worker.submit(_fill_slab, stream, slabs[0])
        for j, i0 in enumerate(starts):
            noise = ahead.result()  # step k reads the slab (dim, paths)
            if j + 1 < len(slabs):
                ahead = worker.submit(_fill_slab, stream, slabs[j + 1])
            x = np.repeat(x0[:, None], noise.shape[2], axis=1)
            running_int = np.zeros_like(x)
            running_abs = np.zeros(x.shape[1])
            shifted = x + grid.half_length
            cell = np.floor(shifted / (2.0 * grid.half_length))
            for k in range(n_steps):
                b = drift_rows(_wrap_shifted(shifted, grid.half_length), table, grid)
                bdt = b * dt
                x += noise[k] - bdt  # dZ - b dt has the bits of -b dt + dZ
                if not np.all(np.isfinite(x)):
                    raise ParameterError(f"path state not finite after step {k + 1}")
                running_int += bdt
                # |b| summed as np.linalg.norm does: (b0*b0 + b1*b1) + ...
                running_abs += np.sqrt(sum(c * c for c in b)) * dt
                shifted = x + grid.half_length
                new_cell = np.floor(shifted / (2.0 * grid.half_length))
                wrap_events += int(np.count_nonzero(np.any(new_cell != cell, axis=0)))
                cell = new_cell
            paths = slice(i0, i0 + noise.shape[2])
            states[paths] = x.T
            drift_int[paths] = running_int.T
            abs_drift[paths] = running_abs
    wrap_fraction = wrap_events / float(n_paths * n_steps)
    return PathEnsemble(x0=x0, t_final=float(dt * n_steps), states=states,
                        drift_integral=drift_int, abs_drift_integral=abs_drift,
                        wrap_fraction=wrap_fraction, seed=seed, alpha=alpha)


def wrapped_states(ensemble: PathEnsemble, grid: TorusGrid) -> np.ndarray:
    """Torus representatives of the final states."""
    return _wrap(ensemble.states, grid.half_length)


def mc_vs_semigroup(drift: MollifiedDrift, x0, t: float, f, n_paths: int,
                    dt: float, alpha: float, steps: int = 20, seed: int = 0,
                    n_levels=None) -> VerificationReport:
    """Two routes to E_x f(X_t): Monte Carlo mean over paths against the
    lattice semigroup applied to f, read at the starting site.  The pass
    band is 3 MC standard errors plus a weak-error allowance fitted from
    two Euler step sizes.  Also records the mean accumulated |b| integral
    (finiteness proxy), checked for stability across mollification levels.
    """
    grid = drift.grid
    fdata = np.asarray(f, dtype=float)
    site = grid.site_index(x0)

    def mc_mean(d, lev_drift, sd):
        ens = integrate(lev_drift, x0, t, d, n_paths, sd, alpha)
        coords = _lattice_coords(wrapped_states(ens, grid), grid)
        vals = ndimage.map_coordinates(fdata, coords, order=3, mode="grid-wrap")
        return (float(np.mean(vals)),
                float(np.std(vals, ddof=1) / np.sqrt(len(vals))),
                float(np.mean(ens.abs_drift_integral)),
                ens.wrap_fraction)

    mean_c, se_c, abs_c, wrap_c = mc_mean(dt, drift, seed)
    mean_f, se_f, abs_f, _ = mc_mean(dt / 2.0, drift, seed + 1)
    bias_rate = 2.0 * abs(mean_c - mean_f) / dt
    sg = propagate(PropagatorConfig(drift, alpha, t, steps), fdata)[site]
    band = 3.0 * se_c + bias_rate * dt + 3.0 * se_f
    gap = abs(mean_c - sg)
    checks = [
        ("mc_vs_semigroup_gap", gap, f"<= {band:.4e}", gap <= band),
        ("wrap_fraction", wrap_c, "<= 0.01 (domain-too-small guard)",
         wrap_c <= 0.01),
    ]
    abs_levels = {drift.n: abs_c}
    for n in (n_levels or ()):
        if n == drift.n:
            continue
        lev = mollify(drift.base, n=n, grid=grid, epsilon_n=drift.epsilon_n)
        abs_levels[n] = mc_mean(dt, lev, seed + n)[2]
    if len(abs_levels) > 1:
        vals = list(abs_levels.values())
        stable = max(vals) <= 1.2 * max(min(vals), 1e-300)
        checks.append(("drift_integral_stable_in_n",
                       max(vals) / max(min(vals), 1e-300),
                       "<= 1.2 across levels", stable))
    checks.append(("drift_integral_mean", abs_c, "finite",
                   bool(np.isfinite(abs_c))))
    return build_report(
        "mc_semigroup_cross_validation",
        {"t": t, "dt": dt, "n_paths": n_paths, "x0": list(np.atleast_1d(x0))},
        checks,
        provenance={"seed": seed, "mc_mean": mean_c, "semigroup": sg,
                    "stderr": se_c, "bias_rate": bias_rate,
                    "abs_drift_levels": abs_levels})


def identify_driving_noise(ensemble: PathEnsemble, kappa_list) -> list:
    """Characteristic function of the recovered noise at each dual vector
    against the pure stable exponent exp(-t |kappa|^alpha)."""
    z = ensemble.recovered_noise()
    t = ensemble.t_final
    probes = []
    for kappa in kappa_list:
        kap = np.asarray(kappa, dtype=float)
        est, se = empirical_char_function(z, kap)
        target = complex(np.exp(-t * np.linalg.norm(kap) ** ensemble.alpha))
        probes.append(CharFnProbe(kappa=kap, t=t, w_hat=est, stderr=se,
                                  target=target))
    return probes


def noise_identification_report(ensemble: PathEnsemble, kappa_list,
                                bias_allowance: float = 0.0) -> VerificationReport:
    probes = identify_driving_noise(ensemble, kappa_list)
    checks = []
    for pr in probes:
        band = 3.0 * pr.stderr + bias_allowance
        checks.append((f"char_fn_|k|={np.linalg.norm(pr.kappa):.3g}",
                       pr.deviation, f"<= {band:.4e}", pr.deviation <= band))
    valid = ensemble.wrap_fraction <= 0.01
    checks.append(("wrap_fraction", ensemble.wrap_fraction,
                   "<= 0.01 for validity", valid))
    return build_report("driving_noise_identification",
                        {"t": ensemble.t_final,
                         "n_paths": ensemble.n_paths,
                         "alpha": ensemble.alpha},
                        checks, provenance={"seed": ensemble.seed})


def probes_to_csv(probes) -> str:
    lines = ["kappa,t,re,im,stderr"]
    for pr in probes:
        kap = ";".join(repr(float(c)) for c in pr.kappa)
        lines.append(f"\"{kap}\",{pr.t!r},{pr.w_hat.real!r},"
                     f"{pr.w_hat.imag!r},{pr.stderr!r}")
    return "\n".join(lines) + "\n"


def ensemble_density(ensemble: PathEnsemble, grid: TorusGrid) -> Field:
    """Empirical density of the wrapped final states on the lattice
    (histogram normalized to unit mass); exports through the binary field
    layout."""
    pts = wrapped_states(ensemble, grid)
    idx = np.rint((pts + grid.half_length) / grid.spacing).astype(int)
    idx %= grid.points_per_axis
    hist = np.zeros(grid.shape)
    np.add.at(hist, tuple(idx.T), 1.0)
    return Field(grid, hist / (ensemble.n_paths * grid.cell_volume))


def contraction_probe(drift: MollifiedDrift, weight: WeightSpec, p: float,
                      horizons, grid: TorusGrid, alpha: float, kappa,
                      n_probes: int = 4, steps: int = 10,
                      seed: int = 0) -> VerificationReport:
    """Empirical Lipschitz ratio of the memory map

      (Hv)(t) = -i int_0^t exp(-(t-s)(A + b.grad)) [(kappa . b) v(s)] ds

    in the drift-weighted norm sup-in-time of || . ||_(p, |b| eta^(2-p)).
    The map is linear, so random fields probe the operator norm; the
    ratio must fall below one at the smallest horizon and shrink with it.
    """
    kap = np.asarray(kappa, dtype=float)
    b = drift.lattice
    kb = sum(kap[j] * b[j] for j in range(grid.dim))
    mag = drift.magnitude()
    weight_p = mag * weight.lattice ** (2.0 - p)

    def norm(v_path):
        return grid.lp_norm(np.max(np.abs(v_path), axis=0), p, weight_p)

    ratios = {}
    for horizon in horizons:
        rng = np.random.default_rng(seed)  # common probes at every horizon
        dt = horizon / steps
        stepper_cfg = PropagatorConfig(drift, alpha, dt, 1)
        worst = 0.0
        for i in range(n_probes):
            bumps = random_bumps(grid, steps + 1, grid.half_length / 4.0,
                                 seed=seed + 100 * i,
                                 center_radius=grid.half_length / 3.0)
            v = np.stack([bumps[j] * rng.standard_normal()
                          for j in range(steps + 1)])
            hv = np.zeros((steps + 1,) + grid.shape, dtype=complex)
            memory = np.zeros(grid.shape)
            for j in range(steps):
                memory = propagate(stepper_cfg, memory + dt * kb * v[j])
                hv[j + 1] = -1j * memory
            nv = norm(v)
            if nv > 0:
                worst = max(worst, norm(hv) / nv)
        ratios[float(horizon)] = worst
    hs = sorted(ratios)
    shrinking = all(ratios[hs[i]] < ratios[hs[i + 1]]
                    for i in range(len(hs) - 1))
    smallest = ratios[hs[0]]
    checks = [
        ("smallest_horizon_ratio", smallest, "< 1", smallest < 1.0),
        ("ratio_shrinks_with_horizon", float(shrinking),
         "monotone in horizon", shrinking),
    ]
    return build_report("noise_uniqueness_contraction",
                        {"p": p, "kappa": list(kap), "horizons": list(hs)},
                        checks, provenance={"ratios": ratios, "seed": seed})
