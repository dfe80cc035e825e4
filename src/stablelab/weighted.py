"""Weighted-space machinery: polynomial weights eta = (1+|x|^2)^nu,
plateau-truncated weights, conjugation T -> eta^(-1) T eta
(``WeightSpec.conjugate``; A_eta = eta^(-1) A eta is the conjugated
generator), and the weighted resolvent estimates that substitute for
heat-kernel bounds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .drifts import DriftSpec, mollify
from .errors import AdmissibilityError, ParameterError
from .grid import TorusGrid
from .operators import (Compose, LatticeOperator, PointwiseMultiplier,
                        heat_semigroup, resolvent_power)
from .profiles import truncate_weight
from .report import VerificationReport, build_report
from .resolvent import (ResolventAssembly, assemble_lp_resolvent,
                        lp_resolvent_layout, magnitude_power,
                        potential_bound_checks, probe_potential_bounds)


@dataclass
class WeightSpec:
    """Weight eta(x) = (1 + |x|^2)^nu, optionally plateau-truncated."""

    grid: TorusGrid
    nu: float
    alpha: float
    truncation_level: float | None = None
    lattice: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        eta = _eta(self.grid.radius(), self.nu, self.alpha)
        if self.truncation_level is not None:
            if self.truncation_level <= 1.0:
                raise ParameterError("truncation level must exceed min(eta) = 1")
            eta = truncate_weight(eta, self.truncation_level)
        self.lattice = eta

    def truncated(self, level: float) -> "WeightSpec":
        return WeightSpec(self.grid, self.nu, self.alpha, truncation_level=level)

    def lp_norm(self, data, p: float) -> float:
        """|| f ||_(p, eta) with measure eta^2 h^d."""
        return self.grid.lp_norm(data, p, self.lattice**2)

    def conjugate(self, op: LatticeOperator) -> LatticeOperator:
        """eta^(-1) T eta.  Applied to A it gives the conjugated generator
        A_eta, whose semigroup is eta^(-1) exp(-tA) eta and whose resolvent
        powers are (mu + A_eta)^(-gamma) = eta^(-1) (mu + A)^(-gamma) eta."""
        return Compose([PointwiseMultiplier(self.grid, 1.0 / self.lattice),
                        op, PointwiseMultiplier(self.grid, self.lattice)])


def _eta(radius, nu, alpha):
    """(1 + |x|^2)^nu at sites of distance ``radius`` from 0."""
    if not (0.0 < nu < alpha / 2.0):
        raise ParameterError(
            f"nu must lie in (0, alpha/2) = (0, {alpha / 2}), got {nu}")
    return (1.0 + radius ** 2) ** nu


def smooth_bump(grid: TorusGrid, center, radius: float) -> np.ndarray:
    """Compactly supported C^2 bump at ``center``; support radius must not
    exceed a quarter of the torus for the compact-support hypotheses."""
    if radius > grid.half_length / 4.0:
        raise ParameterError("bump radius exceeds a quarter of the torus")
    coords = grid.coordinates()
    r2 = sum((np.asarray(c) - ci) ** 2 for c, ci in zip(coords, center))
    u = np.sqrt(r2) / radius
    vals = np.where(u < 1.0, np.exp(1.0) * np.exp(-1.0 / np.maximum(1e-12, 1.0 - u**2)), 0.0)
    return np.broadcast_to(vals, grid.shape).copy()


def random_bumps(grid: TorusGrid, n: int, radius: float, seed,
                 center_radius=None):
    """Random smooth compactly supported probe fields."""
    rng = np.random.default_rng(seed)
    cr = center_radius if center_radius is not None else grid.half_length / 2.0
    out = []
    for _ in range(n):
        center = rng.uniform(-cr, cr, size=grid.dim)
        amp = rng.standard_normal()
        out.append(amp * smooth_bump(grid, center, radius))
    return out


# plateau levels of the Markov check, in units of the median weight
_MARKOV_LEVELS = (1.0, 2.0, 4.0)
# probe fields per check; the weighted L^p check draws half of them as
# bumps and half as Gaussian fields
_MARKOV_PROBES = 6
_ESTIMATE_PROBES = 12
_LP_PROBES = 24


def verify_weighted_markov(weight: WeightSpec, alpha: float, t_list,
                           grid: TorusGrid, seed) -> VerificationReport:
    """Estimate the smallest growth rate omega with
    ||eta_n exp(-tA) eta_n^(-1) f||_1 <= exp(omega t) ||f||_1 over probe
    fields and plateau levels; the rate must be stable across levels, and
    exp(-t(omega + A_eta)) must remain an L^inf contraction."""
    levels = _MARKOV_LEVELS
    median = float(np.median(weight.lattice))
    rng = np.random.default_rng(seed)
    probes = []
    for i in range(_MARKOV_PROBES):
        if i % 2 == 0:
            # mass near the weight minimum is the worst case for the
            # conjugated L^1 growth
            center = rng.uniform(-grid.half_length / 8, grid.half_length / 8,
                                 size=grid.dim)
            f = smooth_bump(grid, center, grid.half_length / 8.0)
        else:
            f = np.abs(heat_semigroup(grid, alpha, 0.3).apply(
                rng.standard_normal(grid.shape)).real)
        probes.append(f / grid.lp_norm(f, 1))
    omegas = {}
    positivity_floor = 0.0
    for level in levels:
        trunc = weight.truncated(level * median)
        eta_n = trunc.lattice
        worst = 0.0
        for t in t_list:
            heat = heat_semigroup(grid, alpha, t)
            for f in probes:
                out = eta_n * heat.apply(f / eta_n).real
                ratio = grid.lp_norm(out, 1) / grid.lp_norm(f, 1)
                if not ratio <= 1.0:  # a NaN enters, and np.maximum keeps it
                    worst = float(np.maximum(worst, np.log(ratio) / t))
                pos = eta_n * heat.apply(np.abs(f) / eta_n).real
                positivity_floor = float(np.minimum(positivity_floor, pos.min()))
        omegas[level] = worst
    fitted = max(omegas.values())
    spread_ok = (max(omegas.values()) <= 1.2 * max(min(omegas.values()), 1e-12)
                 or max(omegas.values()) < 1e-9)
    # L^inf contraction of the shifted conjugated semigroup
    contraction_excess = 0.0
    for t in t_list:
        ch = weight.conjugate(heat_semigroup(grid, alpha, t))
        for f in probes:
            g = np.clip(f / np.max(np.abs(f)), -1.0, 1.0)
            val = np.exp(-fitted * t) * np.max(np.abs(ch.apply(g)))
            contraction_excess = float(np.maximum(contraction_excess, val - 1.0))
    # kernel positivity holds up to the spectral truncation tail of the
    # discrete semigroup at the smallest probed time
    k_max_a = float(np.max(grid.frequency_radius_sq())) ** (alpha / 2.0)
    pos_tol = max(1e-10, 10.0 * np.exp(-min(t_list) * k_max_a))
    checks = [
        ("fitted_omega", fitted, "finite", np.isfinite(fitted)),
        ("omega_level_spread_ok", float(spread_ok), "within 20% across levels",
         bool(spread_ok)),
        ("positivity_floor", positivity_floor, f">= -{pos_tol:.2e}",
         positivity_floor >= -pos_tol),
        ("contraction_excess", contraction_excess, "<= 1e-8",
         contraction_excess <= 1e-8),
    ]
    return build_report("weighted_markov_generator",
                        {"nu": weight.nu, "t_list": list(t_list),
                         "levels": list(levels)},
                        checks, provenance={"seed": seed,
                                            "grid_n": grid.points_per_axis,
                                            "per_level_omega": omegas})


def check_weighted_exponent(dim, alpha, nu, p) -> None:
    """Raise AdmissibilityError unless p > (d - alpha + 1) v (d/(2 nu) + 2)."""
    floor = max(dim - alpha + 1.0, dim / (2.0 * nu) + 2.0)
    if p <= floor:
        raise AdmissibilityError(
            f"p = {p} must exceed (d - alpha + 1) v (d/(2 nu) + 2) = "
            f"{floor:.4f} for the weighted estimates")


def verify_weighted_estimates(drift: DriftSpec, weight: WeightSpec, p: float,
                              mu_list, grid: TorusGrid, alpha: float,
                              m_levels, q: float, r: float,
                              seed: int) -> VerificationReport:
    """Probe the three weighted resolvent estimates for the drifted
    generator at each mollification level m and each mu:

      sup bound:      ||eta^(-1) theta(mu, b_m) eta h||_inf
                        <= K1 ||h||_(p, eta)
      drift sup:      ||eta^(-1) theta(mu, b_m) eta |b_m| h||_inf
                        <= K2 || |b_m|^(1/p) h ||_(p, eta)
      drift lp:       ||eta^(-1) |b_m|^(1/p) theta(mu, b_m) eta |b_m| h||_(p, eta)
                        <= K3 || |b_m|^(1/p) h ||_(p, eta)

    The third family of ratios must decrease along the mu ladder, and all
    ratios stay uniformly bounded across m.  The probes are random bumps
    of radius L/4 centred within L/3 of the origin.
    """
    check_weighted_exponent(grid.dim, alpha, weight.nu, p)
    probes = random_bumps(grid, _ESTIMATE_PROBES, grid.half_length / 4.0,
                          seed=seed, center_radius=grid.half_length / 3.0)
    eta = weight.lattice
    ratios = {"sup": {}, "drift_sup": {}, "drift_lp": {}}
    for m in m_levels:
        mol = mollify(drift, n=m, grid=grid)
        bm = mol.magnitude()
        bm_p = magnitude_power(mol.lattice, 1.0 / p)
        for mu in mu_list:
            theta = assemble_lp_resolvent(mol, mu, p, q, r, grid, alpha)
            s1 = s2 = s3 = 0.0
            for h in probes:
                denom1 = weight.lp_norm(h, p)
                denom2 = weight.lp_norm(bm_p * h, p)
                lhs1 = np.max(np.abs(theta.apply(eta * h) / eta))
                if denom1 > 0:
                    s1 = float(np.maximum(s1, lhs1 / denom1))
                if denom2 > 1e-300:
                    core = np.abs(theta.apply(eta * bm * h))
                    lhs2 = np.max(core / eta)
                    lhs3 = weight.lp_norm(bm_p * core / eta, p)
                    s2 = float(np.maximum(s2, lhs2 / denom2))
                    s3 = float(np.maximum(s3, lhs3 / denom2))
            for tag, val in zip(ratios, (s1, s2, s3)):
                ratios[tag][(m, mu)] = val
    checks = []
    lp_ratio = ratios["drift_lp"]
    for m in m_levels:
        decreasing = all(
            lp_ratio[(m, mu_list[i + 1])] < lp_ratio[(m, mu_list[i])]
            for i in range(len(mu_list) - 1))
        checks.append((f"drift_lp_decreasing_m{m}", float(decreasing),
                       "strictly decreasing along mu ladder", decreasing))
    for tag, table in ratios.items():
        vals = [table[(m, mu)] for m in m_levels for mu in mu_list]
        finite = all(np.isfinite(v) for v in vals)
        checks.append((f"{tag}_ratios_finite", float(finite), "finite", finite))
        by_m = [max(table[(m, mu)] for mu in mu_list) for m in m_levels]
        uniform = max(by_m) <= 2.0 * max(min(by_m), 1e-300)
        checks.append((f"{tag}_uniform_in_m", max(by_m) / max(min(by_m), 1e-300),
                       "<= 2x across m levels", uniform))
    metrics_tables = {f"{tag}_ratio": {f"m{m}_mu{mu}": table[(m, mu)]
                                       for m in m_levels for mu in mu_list}
                      for tag, table in ratios.items()}
    return build_report("weighted_resolvent_estimates",
                        {"p": p, "q": q, "r": r, "nu": weight.nu,
                         "mu_list": list(mu_list), "m_levels": list(m_levels)},
                        checks,
                        provenance={"seed": seed, "tables": metrics_tables,
                                    "grid_n": grid.points_per_axis})


def verify_eta_b_integrability(drift: DriftSpec, nu: float, p: float,
                               alpha: float, grids) -> VerificationReport:
    """Lattice value of || eta^(-1) |b|^(1/p) ||_(p, eta)^p =
    sum |b| eta^(2-p) h^d across grid refinements; finite and
    refinement-stable iff p exceeds d/(2 nu) + 2 for drifts with the
    critical radial decay.  Formed in |b|'s buffer slab by slab, one np.sum."""
    values = []
    for grid in grids:
        mag = drift.lattice_magnitude(grid)
        for sl, coords in grid.coordinate_slabs():
            radius = np.sqrt(sum(c**2 for c in coords))  # grid.radius()
            mag[sl] *= _eta(radius, nu, alpha) ** (2.0 - p)
        val = float(np.sum(mag) * grid.cell_volume)
        values.append((grid.points_per_axis, grid.half_length, val))
    threshold = grids[0].dim / (2.0 * nu) + 2.0
    admissible = p > threshold
    growth = values[-1][2] / max(values[0][2], 1e-300)
    checks = [
        ("norm_values_finite", float(all(np.isfinite(v[2]) for v in values)),
         "finite", all(np.isfinite(v[2]) for v in values)),
        ("refinement_growth", growth,
         "<= 1.10 when admissible" if admissible else "reported",
         (growth <= 1.10) if admissible else True),
    ]
    return build_report("weighted_drift_integrability",
                        {"nu": nu, "p": p, "threshold": threshold,
                         "admissible": admissible},
                        checks, provenance={"values": values},
                        trend_only=not admissible)


def verify_weighted_lp_inequalities(potential: np.ndarray, p: float,
                                    mu: float, lam: float, grid: TorusGrid,
                                    alpha: float, weight: WeightSpec,
                                    seed) -> VerificationReport:
    """Re-run of the three resolvent-weighted potential bounds with the
    conjugated generator A_eta and the weighted norms.  The pointwise
    comparison behind them does not involve the weight, so the same
    constant c = p p'/4 and the same delta, the weak form-bound of the
    potential at shift lam, must work."""
    from .formbound import estimate_weak_formbound

    delta = estimate_weak_formbound(potential, lam, grid, alpha,
                                    seed=seed).delta_est
    gamma = (alpha - 1.0) / alpha
    rng = np.random.default_rng(seed)
    half = _LP_PROBES // 2
    probes = itertools.chain(
        random_bumps(grid, half, grid.half_length / 4.0, seed=seed),
        (rng.standard_normal(grid.shape) for _ in range(half)))
    [(worst, _)] = probe_potential_bounds(
        potential, weight.conjugate(resolvent_power(grid, alpha, mu, gamma)),
        (p,), weight.lattice**2, probes)
    checks = potential_bound_checks("weighted", worst, delta,
                                    p * (p / (p - 1.0)) / 4.0, p, mu, gamma)
    return build_report("weighted_markov_lp_bounds",
                        {"p": p, "mu": mu, "lam": lam, "delta": delta,
                         "nu": weight.nu},
                        checks, provenance={"seed": seed})


def weighted_lp_resolvent(plain: ResolventAssembly, weight: WeightSpec,
                          alpha: float) -> LatticeOperator:
    """The conjugated factorization eta^(-1) theta(mu, b) eta assembled
    from the individually conjugated blocks of the plain assembly (every
    fractional power appears as (mu + A_eta)^(-gamma)); algebraically
    identical to conjugating the assembled resolvent."""
    conj = weight.conjugate
    theta, _ = lp_resolvent_layout(
        lambda gamma: conj(resolvent_power(weight.grid, alpha, plain.mu,
                                           gamma)),
        conj(plain.handles["Q"]), conj(plain.handles["T"]),
        conj(plain.handles["G"]), plain.p, plain.q, plain.r, alpha)
    return theta
