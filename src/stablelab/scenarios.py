"""Scenario pipelines: each maps a validated configuration to a list of
verification reports plus exportable artifacts.

``SCENARIO_RUNNERS`` is the one registry of scenarios, in dependency
order; each runner's one-line docstring is its anchor, the mathematical
object it exercises.  ``full_suite`` runs them all.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import (_ks, drifts, evolution, formbound, kernels, resolvent, sde,
               weighted)
from .grid import TorusGrid
from .operators import heat_semigroup
from .report import VerificationReport, build_report
from .sampler import (StableParams, empirical_char_function,
                      sample_increments, sample_subordinator)

if TYPE_CHECKING:
    from .config import ExperimentConfig


class ScenarioResult:
    def __init__(self, name):
        self.name = name
        self.reports: list[VerificationReport] = []
        self.artifacts: dict = {}

    def add(self, report):
        self.reports.append(report)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.reports)


def _grid(cfg, n=None) -> TorusGrid:
    return TorusGrid(cfg.dim, cfg.half_length, n or cfg.grid_n)


def _smooth_probe(grid, alpha, seed, t=0.3):
    rng = np.random.default_rng(seed)
    return heat_semigroup(grid, alpha, t).apply(
        rng.standard_normal(grid.shape)).real


def run_sampler_check(cfg: ExperimentConfig) -> ScenarioResult:
    """stable increment law: characteristic exponent exp(-t|k|^alpha)"""
    out = ScenarioResult("sampler_check")
    params = StableParams(alpha=cfg.alpha, dim=cfg.dim, seed=cfg.seed)
    n = max(cfg.n_paths, 10000)
    batch = sample_increments(params, 1.0, n)
    checks = []
    probes = []
    for knorm in (0.5, 1.0, 2.0, 3.0):
        est, se = empirical_char_function(batch.values,
                                          knorm * np.eye(cfg.dim)[0])
        target = np.exp(-knorm**cfg.alpha)
        dev = abs(est - target)
        checks.append((f"char_fn_|k|={knorm}", dev, f"<= {3 * se:.3e}",
                       dev <= 3.0 * se))
        probes.append((knorm, est, se))
    out.add(build_report("stable_char_function", {"n": n, "alpha": cfg.alpha},
                         checks, provenance={"seed": cfg.seed}))

    subs = sample_subordinator(cfg.alpha / 2.0, 1.0, n, seed=cfg.seed)
    lap = np.exp(-subs)
    dev = abs(lap.mean() - np.exp(-1.0))
    se = lap.std(ddof=1) / np.sqrt(n)
    out.add(build_report("subordinator_laplace_transform",
                         {"n": n, "exponent": cfg.alpha / 2.0},
                         [("laplace_dev_u1", dev, f"<= {3 * se:.3e}",
                           dev <= 3.0 * se),
                          ("all_positive", float(np.all(subs > 0)),
                           "strictly positive", bool(np.all(subs > 0)))],
                         provenance={"seed": cfg.seed}))

    pvalue = _ks.kstest_pvalue(batch.values[: min(n, 10000), 0],
                               kernels.stable_marginal_cdf(cfg.alpha))
    rerun = sample_increments(params, 1.0, 256)
    again = sample_increments(params, 1.0, 256)
    out.add(build_report("marginal_cdf_and_reproducibility", {"n_ks": 10000},
                         [("ks_pvalue", pvalue, "> 0.01", pvalue > 0.01),
                          ("bit_identical_rerun",
                           float(np.array_equal(rerun.values, again.values)),
                           "equal", np.array_equal(rerun.values, again.values))],
                         provenance={"seed": cfg.seed}))
    lines = ["k,re,im,stderr"]
    for knorm, est, se in probes:
        lines.append(f"{knorm!r},{est.real!r},{est.imag!r},{se!r}")
    out.artifacts["sampler_char_function.csv"] = "\n".join(lines) + "\n"
    return out


def run_formbound_audit(cfg: ExperimentConfig) -> ScenarioResult:
    """drift classes: weak form-bound and Kato-norm estimates"""
    out = ScenarioResult("formbound_audit")
    target = cfg.delta
    # Kato rungs first: no eigenfield or mollified drift lives at 2 grid_n
    kato_vals = [formbound.estimate_kato_norm(
        cfg.drift, min(cfg.lambda_ladder) * 10, _grid(cfg, n_axis), cfg.alpha)
        for n_axis in (cfg.grid_n // 2, cfg.grid_n, cfg.grid_n * 2)]
    estimates = {}
    for n_axis in (cfg.grid_n // 2, cfg.grid_n):
        grid = _grid(cfg, n_axis)
        mol = drifts.mollify(cfg.drift, n=int(cfg.half_length / 2), grid=grid,
                             epsilon_n=max(0.25, grid.spacing))
        est = formbound.estimate_weak_formbound_ladder(
            mol, cfg.lambda_ladder, grid, cfg.alpha, seed=cfg.seed)
        estimates[n_axis] = est
    small = estimates[cfg.grid_n // 2].per_lambda[min(cfg.lambda_ladder)]
    big = estimates[cfg.grid_n].per_lambda[min(cfg.lambda_ladder)]
    err_small, err_big = abs(small - target), abs(big - target)
    checks = [
        ("vanishing_shift_estimate", big, f"within 15% of {target}",
         err_big <= 0.15 * target),
        ("error_decreasing_with_n", err_big,
         f"<= {err_small:.3e} + 0.002", err_big <= err_small + 0.002),
    ]
    out.add(build_report("weak_formbound_convergence",
                         {"target": target, "ladder": list(cfg.lambda_ladder)},
                         checks,
                         provenance={
                             "per_grid": {str(k): v.per_lambda
                                          for k, v in estimates.items()},
                             "eigensolver": {
                                 str(k): {"lam": v.lam, "matvecs": v.matvecs,
                                          "residual": v.residual,
                                          "per_lambda_matvecs":
                                              v.per_lambda_matvecs}
                                 for k, v in estimates.items()}}))

    increasing = kato_vals[0] < kato_vals[1] < kato_vals[2]
    # mol and grid are still the ladder's last, at grid_n
    sym = formbound.estimate_weak_formbound(
        mol, 0.05, grid, cfg.alpha,
        start=estimates[cfg.grid_n].eigenfield).delta_est
    kato_mol = formbound.estimate_kato_norm(mol, 0.05, grid, cfg.alpha)
    ref = formbound.weak_lorentz_reference_delta(
        cfg.drift.parameters["prefactor"], cfg.alpha, cfg.dim) \
        if cfg.drift.kind == "hardy" else None
    checks = [
        ("kato_norm_strictly_increasing", float(increasing),
         "diverges under refinement", increasing),
        ("symmetrized_below_kato", sym / kato_mol, "<= 1 + 1e-6",
         sym <= kato_mol * (1.0 + 1e-6)),
    ]
    if ref is not None:
        checks.append(("weak_lorentz_reference", ref, "reference value", True))
    out.add(build_report("drift_class_orderings",
                         {"kato_grids": [cfg.grid_n // 2, cfg.grid_n,
                                         cfg.grid_n * 2]},
                         checks, provenance={"kato_values": kato_vals}))

    adm = formbound.admissible_delta_threshold(cfg.dim, cfg.alpha,
                                               cfg.m_constant)
    p_minus, p_plus = adm.p_interval(cfg.delta)
    out.add(build_report("admissibility_window",
                         {"m": cfg.m_constant, "delta": cfg.delta},
                         [("threshold", adm.threshold, "> delta",
                           adm.threshold > cfg.delta),
                          ("p_minus", p_minus, "reported", True),
                          ("p_plus", p_plus, "> p", p_plus > cfg.p)]))
    return out


def run_resolvent_verify(cfg: ExperimentConfig) -> ScenarioResult:
    """perturbed resolvent factorizations and L^p potential bounds"""
    out = ScenarioResult("resolvent_verify")
    grid = _grid(cfg, min(cfg.grid_n, 16))
    amp = [0.6, 0.4, 0.5][: cfg.dim]
    smooth = drifts.mollify(
        drifts.bounded_smooth_drift(amp, cfg.half_length, cfg.dim),
        n=8, grid=grid, epsilon_n=grid.spacing / 4.0)
    gen = resolvent.drifted_generator(smooth, grid, cfg.alpha)
    theta2 = resolvent.assemble_l2_resolvent(smooth, 2.0, grid, cfg.alpha)
    rng = np.random.default_rng(cfg.seed)
    worst_inv = 0.0
    for _ in range(10):
        f = rng.standard_normal(grid.shape)
        u = theta2.apply(f)
        worst_inv = float(np.maximum(worst_inv, np.linalg.norm(
            gen.apply(u) + 2.0 * u - f) / np.linalg.norm(f)))
    th_b = resolvent.assemble_l2_resolvent(smooth, 5.0, grid, cfg.alpha)
    f = rng.standard_normal(grid.shape)
    ref, th_b_f = theta2.apply(f), th_b.apply(f)
    lhs = ref - th_b_f
    rhs = 3.0 * theta2.apply(th_b_f)
    pseudo = np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs)
    asm = resolvent.assemble_lp_resolvent(smooth, 2.0, p=2.5, q=3.5, r=1.8,
                                          grid=grid, alpha=cfg.alpha)
    consistency = np.linalg.norm(asm.apply(f) - ref) / np.linalg.norm(ref)
    out.add(build_report("resolvent_factorization_identities",
                         {"zeta": 2.0, "eta": 5.0},
                         [("inversion_residual", worst_inv, "<= 1e-8",
                           worst_inv <= 1e-8),
                          ("pseudo_resolvent_residual", pseudo, "<= 1e-8",
                           pseudo <= 1e-8),
                          ("lp_l2_consistency", consistency, "<= 1e-6",
                           consistency <= 1e-6)],
                         provenance={"seed": cfg.seed,
                                     "grid_n": grid.points_per_axis}))

    # the candidate discrimination needs the singular core resolved
    grid_big = _grid(cfg, max(cfg.grid_n, 32))
    mol = drifts.mollify(cfg.drift, n=int(cfg.half_length / 2), grid=grid_big,
                         epsilon_n=max(0.25, grid_big.spacing))
    potential = mol.magnitude()
    est = formbound.estimate_weak_formbound(potential, 0.01, grid_big,
                                            cfg.alpha, seed=cfg.seed)
    phi = resolvent.l2_extremizer(potential, 1.0, grid_big, cfg.alpha,
                                  seed=cfg.seed, start=est.eigenfield)
    for rep in resolvent.verify_lp_inequalities(
            potential, (2.0, 4.5), mu=1.0, lam=0.01, grid=grid_big,
            alpha=cfg.alpha, n_probes=50, seed=cfg.seed, delta=est.delta_est,
            extremizer=phi):
        product_ok = all(rep.metrics[f"product_quarter:{w}"] <= 1.0 + 1e-6
                         for w in ("a", "b", "c"))
        checks = [("product_constant_all_pass", float(product_ok),
                   "ratios <= 1 + 1e-6", product_ok)]
        if rep.inputs["p"] != 2.0:
            worst = max(rep.metrics[f"reciprocal:{w}"] for w in ("a", "b", "c"))
            checks.append(("reciprocal_constant_fails", worst, "> 1 + 1e-6",
                           worst > 1.0 + 1e-6))
        out.add(build_report("potential_bound_constant_discrimination",
                             {"p": rep.inputs["p"], "mu": 1.0, "lam": 0.01,
                              "delta_est": rep.inputs["delta"]},
                             checks, provenance=rep.as_dict()["metrics"]))
    return out


def run_weighted_verify(cfg: ExperimentConfig) -> ScenarioResult:
    """polynomial-weight resolvent estimates and conjugated generator"""
    out = ScenarioResult("weighted_verify")
    grid = _grid(cfg, min(cfg.grid_n, 32))
    w = weighted.WeightSpec(grid, nu=cfg.nu, alpha=cfg.alpha)
    out.add(weighted.verify_weighted_markov(w, cfg.alpha, (0.5, 1.0), grid,
                                            seed=cfg.seed))
    grid_small = _grid(cfg, min(cfg.grid_n, 16))
    w_small = weighted.WeightSpec(grid_small, nu=cfg.nu, alpha=cfg.alpha)
    out.add(weighted.verify_weighted_estimates(
        cfg.drift, w_small, p=cfg.p, mu_list=cfg.mu_ladder, grid=grid_small,
        alpha=cfg.alpha, m_levels=(8, 16), q=cfg.q, r=cfg.r, seed=cfg.seed))
    n_ref = max(cfg.grid_n, 32)
    out.add(weighted.verify_eta_b_integrability(
        cfg.drift, cfg.nu, cfg.p, cfg.alpha,
        [_grid(cfg, n_ref), _grid(cfg, n_ref * 2)]))
    mol = drifts.mollify(cfg.drift, n=4, grid=grid_small,
                         epsilon_n=2.0 * grid_small.spacing)
    plain = resolvent.assemble_lp_resolvent(mol, 5.0, cfg.p, cfg.q, cfg.r,
                                            grid_small, cfg.alpha)
    wtheta = weighted.weighted_lp_resolvent(plain, w_small, cfg.alpha)
    h = np.random.default_rng(cfg.seed).standard_normal(grid_small.shape)
    lhs = wtheta.apply(h)
    rhs = plain.apply(w_small.lattice * h) / w_small.lattice
    resid = np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs)
    out.add(build_report("weighted_factorization_conjugation",
                         {"mu": 5.0, "p": cfg.p},
                         [("conjugation_residual", resid, "<= 1e-8",
                           resid <= 1e-8)]))
    out.add(weighted.verify_weighted_lp_inequalities(
        mol.magnitude(), cfg.p, mu=1.0, lam=0.01, grid=grid_small,
        alpha=cfg.alpha, weight=w_small, seed=cfg.seed))
    return out


def run_evolution_verify(cfg: ExperimentConfig) -> ScenarioResult:
    """drifted semigroup: perturbation identity, mass, approximation"""
    out = ScenarioResult("evolution_verify")
    # fixed defect tolerances assume at least the default resolution
    grid = _grid(cfg, max(cfg.grid_n, 32))
    amp = [1.0, 0.8, 0.9][: cfg.dim]
    smooth = drifts.mollify(
        drifts.bounded_smooth_drift(amp, cfg.half_length, cfg.dim),
        n=int(np.ceil(2.0 * max(amp))), grid=grid,
        epsilon_n=grid.spacing / 4.0)
    probe = _smooth_probe(grid, cfg.alpha, cfg.seed, t=0.5)
    residuals = [evolution.duhamel_residual(
        evolution.PropagatorConfig(smooth, cfg.alpha, 0.5, s), probe)
        for s in (10, 20)]
    out.add(build_report("perturbation_identity_residual",
                         {"t": 0.5, "steps": [10, 20]},
                         [("residual_coarse", residuals[0], "<= 1e-3",
                           residuals[0] <= 1e-3),
                          ("residual_refines", residuals[1],
                           f"< {residuals[0]:.3e}",
                           residuals[1] < residuals[0])],
                         provenance={"seed": cfg.seed}))

    zero = drifts.mollify(
        drifts.bounded_smooth_drift([0.0] * cfg.dim, cfg.half_length, cfg.dim),
        n=4, grid=grid)
    k_list = [cfg.half_length / 4, cfg.half_length / 2,
              3 * cfg.half_length / 4]
    free_cfg = evolution.PropagatorConfig(zero, cfg.alpha, 0.01, 5)
    out.add(evolution.conservativeness_check(
        free_cfg, grid.site_index([0.0] * cfg.dim), k_list, tail_oracle=True))
    mol = drifts.mollify(cfg.drift, n=8, grid=grid,
                         epsilon_n=max(0.25, grid.spacing))
    drift_cfg = evolution.PropagatorConfig(mol, cfg.alpha, 0.01, 5)
    out.add(evolution.conservativeness_check(
        drift_cfg, grid.site_index([0.0] * cfg.dim), k_list,
        n_levels=(8, 16)))

    rule = lambda n: min(2.0 * grid.spacing * 16.0 / n,
                         cfg.half_length / 4.0)
    out.add(evolution.feller_convergence_check(
        cfg.drift, (8, 16, 32), 0.25, _smooth_probe(grid, cfg.alpha,
                                                    cfg.seed + 1),
        grid, cfg.alpha, steps=10, epsilon_rule=rule,
        mu_ladder=cfg.mu_ladder))
    return out


def run_sde_identify(cfg: ExperimentConfig) -> ScenarioResult:
    """path law: Monte Carlo semigroup match and noise recovery"""
    out = ScenarioResult("sde_identify")
    grid = _grid(cfg)
    mol = drifts.mollify(cfg.drift, n=16, grid=grid,
                         epsilon_n=max(0.5, grid.spacing))
    t_final = max(cfg.t_list)
    ens = sde.integrate(mol, [0.0] * cfg.dim, t_final, cfg.dt, cfg.n_paths,
                        cfg.seed, cfg.alpha)
    ens_fine = sde.integrate(mol, [0.0] * cfg.dim, t_final, cfg.dt / 2.0,
                             max(cfg.n_paths // 2, 1000), cfg.seed + 1,
                             cfg.alpha)
    kappas = [knorm * np.eye(cfg.dim)[0] for knorm in (0.5, 1.0, 2.0)]
    coarse = sde.identify_driving_noise(ens, kappas)
    fine = sde.identify_driving_noise(ens_fine, kappas)
    allowance = 2.0 * max(abs(c.w_hat - f.w_hat)
                          for c, f in zip(coarse, fine))
    out.add(sde.noise_identification_report(ens, coarse,
                                            bias_allowance=allowance))
    density = sde.ensemble_density(ens, grid).to_bytes()
    del ens, ens_fine  # the semigroup check integrates ensembles of its own
    probe_field = _smooth_probe(grid, cfg.alpha, cfg.seed + 2)
    out.add(sde.mc_vs_semigroup(mol, [0.0] * cfg.dim, min(cfg.t_list),
                                probe_field, cfg.n_paths, cfg.dt, cfg.alpha,
                                seed=cfg.seed + 3,
                                n_levels=(8, 16)))
    w = weighted.WeightSpec(grid, nu=cfg.nu, alpha=cfg.alpha)
    out.add(sde.contraction_probe(mol, w, cfg.p, horizons=(0.05, 0.1),
                                  grid=grid, alpha=cfg.alpha,
                                  kappa=kappas[1], n_probes=2, steps=6,
                                  seed=cfg.seed))
    out.artifacts["noise_char_probes.csv"] = sde.probes_to_csv(coarse)
    out.artifacts["final_density.field"] = density
    return out


SCENARIO_RUNNERS = {
    "sampler_check": run_sampler_check,
    "formbound_audit": run_formbound_audit,
    "resolvent_verify": run_resolvent_verify,
    "weighted_verify": run_weighted_verify,
    "evolution_verify": run_evolution_verify,
    "sde_identify": run_sde_identify,
}


def run_scenario(cfg: ExperimentConfig) -> list:
    """Execute the configured scenario; returns the ScenarioResult list."""
    if cfg.scenario == "full_suite":
        return [run(cfg) for run in SCENARIO_RUNNERS.values()]
    return [SCENARIO_RUNNERS[cfg.scenario](cfg)]
