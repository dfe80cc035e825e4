"""Acceptance suite: every criterion at its pinned tolerance, one printed
pass/fail line per criterion.  Desk scale: d = 3, alpha = 1.5, N <= 64,
<= 1e5 paths."""

import json

import numpy as np
import pytest

from stablelab import (cli, drifts, evolution, formbound, kernels, operators,
                       resolvent, sde, weighted)
from stablelab.grid import TorusGrid
from stablelab.operators import heat_semigroup
from stablelab.sampler import (StableParams, empirical_char_function,
                               sample_increments)

ALPHA = 1.5
DIM = 3
L = 8.0
DELTA = 0.05
SEED = 20240801


def record(num, description, ok):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {num} failed: {description}"


@pytest.fixture(scope="module")
def grid32():
    return TorusGrid(DIM, L, 32)


@pytest.fixture(scope="module")
def grid64():
    return TorusGrid(DIM, L, 64)


@pytest.fixture(scope="module")
def hardy():
    return drifts.hardy_drift(DELTA, ALPHA, DIM)


def test_criterion_01_stable_noise_law():
    params = StableParams(alpha=ALPHA, dim=DIM, seed=SEED)
    batch = sample_increments(params, 1.0, 10**5)
    ok = True
    for knorm in (0.5, 1.0, 2.0, 3.0):
        est, se = empirical_char_function(batch.values, [knorm, 0.0, 0.0])
        ok = ok and abs(est - np.exp(-knorm**ALPHA)) <= 3.0 * se
    record(1, "empirical char function matches exp(-|k|^alpha) at 3 MC se", ok)


def test_criterion_02_fractional_power_quadrature(grid32):
    rng = np.random.default_rng(SEED)
    f = rng.standard_normal(grid32.shape)
    ok = True
    for tau in (0.25, 0.5, 0.75):
        for mu in (1.0, 10.0):
            spectral = operators.resolvent_power(grid32, ALPHA, mu, tau).apply(f)
            quad = operators.balakrishnan_resolvent_power(
                grid32, ALPHA, mu, tau).apply(f)
            rel = np.linalg.norm(quad - spectral) / np.linalg.norm(spectral)
            ok = ok and rel <= 1e-6
    record(2, "one-sided integral vs spectral fractional power <= 1e-6", ok)


def test_criterion_03_kernel_envelope_bounds():
    prof = kernels.kernel_profile(ALPHA, DIM)
    ts = np.geomspace(0.2, 5.0, 20)
    rs = np.geomspace(0.05, 30.0, 20)
    tt, rr = np.meshgrid(ts, rs, indexing="ij")
    envelope = np.minimum(tt ** (-DIM / ALPHA), tt * rr ** -(DIM + ALPHA))
    dens = prof.density_at(tt, rr)
    grad = prof.gradient_at(tt, rr)
    c_fit = float(np.min(dens / envelope))
    k_fit = float(np.max(grad / (tt ** (-1.0 / ALPHA) * envelope)))
    lower_ok = bool(np.all(dens >= c_fit * envelope * (1.0 - 1e-12)))
    upper_ok = bool(np.all(grad <= k_fit * tt ** (-1.0 / ALPHA) * envelope
                           * (1.0 + 1e-12)))
    ok = c_fit > 0 and np.isfinite(k_fit) and lower_ok and upper_ok
    record(3, f"two-sided kernel envelopes hold (C={c_fit:.3f}, K={k_fit:.3f})",
           ok)


def test_criterion_04_hardy_form_bound(hardy, grid32, grid64):
    lam_small = 0.001
    vals = {}
    for grid in (grid32, grid64):
        mol = drifts.mollify(hardy, n=4, grid=grid,
                             epsilon_n=max(0.25, grid.spacing))
        est = formbound.estimate_weak_formbound_ladder(
            mol, (0.1, 0.01, lam_small), grid, ALPHA, seed=SEED)
        vals[grid.points_per_axis] = est.per_lambda[lam_small]
    err32 = abs(vals[32] - DELTA)
    err64 = abs(vals[64] - DELTA)
    kato = [formbound.estimate_kato_norm(hardy, 0.01, TorusGrid(DIM, L, n),
                                         ALPHA) for n in (16, 32, 64)]
    ok = (err64 <= 0.15 * DELTA and err64 < err32
          and kato[0] < kato[1] < kato[2])
    record(4, f"weak form-bound -> {DELTA} (N=64: {vals[64]:.4f}) and "
              "Kato norm diverges", ok)


def test_criterion_05_resolvent_correctness():
    grid = TorusGrid(DIM, L, 16)
    smooth = drifts.mollify(
        drifts.bounded_smooth_drift([0.6, 0.4, 0.5], L, DIM), n=8, grid=grid,
        epsilon_n=0.05)
    gen = resolvent.drifted_generator(smooth, grid, ALPHA)
    theta2 = resolvent.assemble_l2_resolvent(smooth, 2.0, grid, ALPHA)
    rng = np.random.default_rng(SEED)
    f = rng.standard_normal(grid.shape)
    u = theta2.apply(f)
    inv = np.linalg.norm(gen.apply(u) + 2.0 * u - f) / np.linalg.norm(f)
    th_b = resolvent.assemble_l2_resolvent(smooth, 5.0, grid, ALPHA)
    lhs = theta2.apply(f) - th_b.apply(f)
    pseudo = np.linalg.norm(lhs - 3.0 * theta2.apply(th_b.apply(f))) \
        / np.linalg.norm(lhs)
    asm = resolvent.assemble_lp_resolvent(smooth, 2.0, p=2.5, q=3.5, r=1.8,
                                          grid=grid, alpha=ALPHA)
    consistency = (np.linalg.norm(asm.apply(f) - u) / np.linalg.norm(u))
    ok = inv <= 1e-8 and pseudo <= 1e-8 and consistency <= 1e-6
    record(5, f"inversion {inv:.1e}, pseudo-resolvent {pseudo:.1e}, "
              f"lp/l2 consistency {consistency:.1e}", ok)


def test_criterion_06_potential_bound_constants(hardy, grid32):
    mol = drifts.mollify(hardy, n=4, grid=grid32, epsilon_n=0.25)
    potential = mol.magnitude()
    ok_product = True
    reciprocal_fails = False
    delta = formbound.estimate_weak_formbound(potential, 0.01, grid32, ALPHA,
                                              seed=SEED).delta_est
    phi = resolvent.l2_extremizer(potential, 1.0, grid32, ALPHA, SEED, None)
    reports = resolvent.verify_lp_inequalities(
        potential, (2.0, 4.5), mu=1.0, lam=0.01, grid=grid32, alpha=ALPHA,
        n_probes=50, seed=SEED, delta=delta, extremizer=phi)
    for p_exp, rep in zip((2.0, 4.5), reports, strict=True):
        ok_product = ok_product and all(
            rep.metrics[f"product_quarter:{w}"] <= 1.0 + 1e-6
            for w in ("a", "b", "c"))
        if p_exp == 4.5:
            reciprocal_fails = any(
                rep.metrics[f"reciprocal:{w}"] > 1.0 + 1e-6
                for w in ("a", "b", "c"))
    ok = ok_product and reciprocal_fails
    record(6, "product constant p p'/4 passes all probes; reciprocal "
              "candidate fails at p=4.5", ok)


def test_criterion_07_weighted_estimates(hardy):
    grid = TorusGrid(DIM, L, 16)
    w = weighted.WeightSpec(grid, nu=0.675, alpha=ALPHA)
    rep = weighted.verify_weighted_estimates(
        hardy, w, p=5.0, mu_list=(1e2, 1e3, 1e4), grid=grid, alpha=ALPHA,
        m_levels=(8, 16), q=6.0, r=3.0, seed=SEED)
    table = rep.provenance["tables"]["drift_lp_ratio"]
    decreasing = all(
        table[f"m{m}_mu100.0"] > table[f"m{m}_mu1000.0"]
        > table[f"m{m}_mu10000.0"] for m in (8, 16))
    ok = rep.verdict == "pass" and decreasing
    record(7, "weighted resolvent ratios finite, uniform in m, and the "
              "drift-weighted family decreases along the mu ladder", ok)


def test_criterion_08_duhamel_residual(grid32):
    base = drifts.bounded_smooth_drift([1.0, 0.8, 0.9], L, DIM)
    mol = drifts.mollify(base, n=4, grid=grid32, epsilon_n=0.05)
    f = heat_semigroup(grid32, ALPHA, 0.5).apply(
        np.random.default_rng(SEED).standard_normal(grid32.shape)).real
    res = [evolution.duhamel_residual(
        evolution.PropagatorConfig(mol, ALPHA, 0.5, s), f) for s in (10, 20)]
    ok = res[0] <= 1e-3 and res[1] < res[0]
    record(8, f"perturbation-identity residual {res[0]:.2e} <= 1e-3, "
              f"refining to {res[1]:.2e}", ok)


def test_criterion_09_conservativeness(hardy, grid32):
    mol = drifts.mollify(hardy, n=8, grid=grid32, epsilon_n=0.5)
    cfg = evolution.PropagatorConfig(mol, ALPHA, 0.01, 5)
    rep = evolution.conservativeness_check(
        cfg, grid32.site_index([0.0] * DIM), [L / 4, L / 2, 3 * L / 4],
        n_levels=(8, 16))
    vals = rep.provenance["values"]
    ok = rep.verdict == "pass" and all(
        abs(1.0 - vals[f"n{n}_k{3 * L / 4}"]) <= 1e-3 for n in (8, 16))
    record(9, "cutoff mass increases to 1 +- 1e-3 at k = 3L/4, uniformly "
              "over mollification levels", ok)


def test_criterion_10_feller_cauchy(hardy, grid32):
    f = heat_semigroup(grid32, ALPHA, 0.3).apply(
        np.random.default_rng(SEED + 1).standard_normal(grid32.shape)).real
    rule = lambda n: 2.0 * grid32.spacing * 16.0 / n
    rep = evolution.feller_convergence_check(hardy, (8, 16, 32), 0.25, f,
                                             grid32, ALPHA, steps=10,
                                             epsilon_rule=rule,
                                             mu_ladder=(1e2, 1e3, 1e4))
    diffs = rep.provenance["sup_differences"]
    ok = rep.verdict == "pass" and diffs[1] < diffs[0]
    record(10, f"sup-norm Cauchy differences strictly decrease "
               f"({diffs[0]:.2e} -> {diffs[1]:.2e})", ok)


def test_criterion_11_sde_identification(hardy, grid32):
    mol = drifts.mollify(hardy, n=16, grid=grid32, epsilon_n=0.5)
    kappas = [[0.5, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]
    ens = sde.integrate(mol, [0.0] * DIM, 0.5, 0.01, 10**5, SEED, ALPHA)
    ens_fine = sde.integrate(mol, [0.0] * DIM, 0.5, 0.005, 2 * 10**4,
                             SEED + 1, ALPHA)
    coarse = sde.identify_driving_noise(ens, kappas)
    fine = sde.identify_driving_noise(ens_fine, kappas)
    allowance = 2.0 * max(abs(c.w_hat - f.w_hat)
                          for c, f in zip(coarse, fine))
    id_rep = sde.noise_identification_report(ens, coarse,
                                             bias_allowance=allowance)
    f_field = heat_semigroup(grid32, ALPHA, 0.3).apply(
        np.random.default_rng(SEED + 2).standard_normal(grid32.shape)).real
    mc_rep = sde.mc_vs_semigroup(mol, [0.0] * DIM, 0.25, f_field,
                                 n_paths=10**5, dt=0.0125, alpha=ALPHA,
                                 seed=SEED + 3, n_levels=(8, 16))
    w = weighted.WeightSpec(grid32, nu=0.675, alpha=ALPHA)
    contraction = sde.contraction_probe(
        mol, w, p=5.0, horizons=(0.05, 0.1), grid=grid32, alpha=ALPHA,
        kappa=[1.0, 0.0, 0.0], n_probes=2, steps=6, seed=SEED)
    smallest = contraction.provenance["ratios"][0.05]
    ok = (id_rep.verdict == "pass" and mc_rep.verdict == "pass"
          and contraction.verdict == "pass" and smallest < 1.0)
    record(11, "noise recovery matches the stable exponent, MC agrees with "
               "the semigroup, memory map contracts", ok)


def test_criterion_12_determinism(tmp_path):
    cfg_path = tmp_path / "suite.cfg"
    cfg_path.write_text(
        "[experiment]\nscenario = full_suite\n"
        "[parameters]\nn_paths = 4000\nseed = 11\n", encoding="utf-8")
    import io

    for name in ("one", "two"):
        code = cli.run(str(cfg_path), out_dir=str(tmp_path / name),
                       quick=True, stream=io.StringIO())
        assert code == 0
    a = (tmp_path / "one" / "summary.json").read_bytes()
    b = (tmp_path / "two" / "summary.json").read_bytes()
    ok = a == b and json.loads(a)["verdict"] == "pass"
    record(12, "full suite rerun reproduces summary.json bit-identically", ok)
