import tracemalloc

import numpy as np
import pytest

from stablelab import drifts, weighted
from stablelab.errors import AdmissibilityError, ParameterError
from stablelab.grid import TorusGrid, component_magnitude
from stablelab.operators import frac_laplacian, heat_semigroup
from stablelab.resolvent import assemble_lp_resolvent

ALPHA = 1.5


@pytest.fixture(scope="module")
def grid():
    return TorusGrid(3, 8.0, 16)


@pytest.fixture(scope="module")
def weight(grid):
    return weighted.WeightSpec(grid, nu=0.675, alpha=ALPHA)


def test_weight_validation(grid):
    with pytest.raises(ParameterError):
        weighted.WeightSpec(grid, nu=0.8, alpha=ALPHA)  # >= alpha/2
    with pytest.raises(ParameterError):
        weighted.WeightSpec(grid, nu=0.0, alpha=ALPHA)
    w = weighted.WeightSpec(grid, nu=0.3, alpha=ALPHA)
    assert np.min(w.lattice) >= 1.0


def test_truncated_weight_plateau(grid, weight):
    median = float(np.median(weight.lattice))
    trunc = weight.truncated(median)
    assert np.max(trunc.lattice) <= 2.0 * median + 1e-12
    low = weight.lattice < median
    np.testing.assert_allclose(trunc.lattice[low], weight.lattice[low])


def test_identity_weight_limit(grid):
    w0 = weighted.WeightSpec(grid, nu=1e-8, alpha=ALPHA)
    f = np.random.default_rng(0).standard_normal(grid.shape)
    a_eta = w0.conjugate(frac_laplacian(grid, ALPHA)).apply(f)
    a_plain = frac_laplacian(grid, ALPHA).apply(f)
    assert (np.linalg.norm(a_eta - a_plain)
            <= 1e-6 * np.linalg.norm(a_plain))


def test_conjugated_heat_definition(grid, weight):
    f = np.random.default_rng(1).standard_normal(grid.shape)
    via_handle = weight.conjugate(heat_semigroup(grid, ALPHA, 0.5)).apply(f)
    direct = heat_semigroup(grid, ALPHA, 0.5).apply(weight.lattice * f) / weight.lattice
    np.testing.assert_allclose(via_handle, direct, atol=1e-14)


def test_weighted_symmetry(grid, weight):
    rng = np.random.default_rng(2)
    f = rng.standard_normal(grid.shape)
    g = rng.standard_normal(grid.shape)
    a_eta = weight.conjugate(frac_laplacian(grid, ALPHA))
    eta2 = weight.lattice**2
    lhs = np.sum(a_eta.apply(f).real * g * eta2)
    rhs = np.sum(f * a_eta.apply(g).real * eta2)
    assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), 1.0)


def test_weighted_markov_report(grid):
    w = weighted.WeightSpec(grid, nu=0.7 * ALPHA / 2.0, alpha=ALPHA)
    rep = weighted.verify_weighted_markov(w, ALPHA, (0.5, 1.0), grid, seed=1)
    assert rep.verdict == "pass"
    assert np.isfinite(rep.metrics["fitted_omega"])
    per_level = rep.provenance["per_level_omega"]
    vals = list(per_level.values())
    assert max(vals) <= 1.2 * min(vals) + 1e-9


def test_weighted_markov_t_zero_contraction(grid, weight):
    # at t = 0 the conjugated semigroup is the identity: exact contraction
    f = np.clip(np.random.default_rng(3).standard_normal(grid.shape), -1, 1)
    out = weight.conjugate(heat_semigroup(grid, ALPHA, 0.0)).apply(f)
    assert np.max(np.abs(out)) <= 1.0 + 1e-12


def test_weighted_estimates_report(grid, weight):
    base = drifts.hardy_drift(0.05, ALPHA, 3)
    rep = weighted.verify_weighted_estimates(
        base, weight, p=5.0, mu_list=(1e2, 1e3, 1e4), grid=grid, alpha=ALPHA,
        m_levels=(8, 16), q=6.0, r=3.0, seed=2)
    assert rep.verdict == "pass"
    table = rep.provenance["tables"]["drift_lp_ratio"]
    assert table["m8_mu100.0"] > table["m8_mu1000.0"] > table["m8_mu10000.0"]


def test_weighted_estimates_zero_probe(grid, weight):
    # h = 0 contributes nothing: ratios vanish for the zero drift
    base = drifts.bounded_smooth_drift([0.0] * 3, 8.0, 3)
    rep = weighted.verify_weighted_estimates(
        base, weight, p=5.0, mu_list=(1e2, 1e3), grid=grid, alpha=ALPHA,
        m_levels=(4,), q=6.0, r=3.0, seed=3)
    table = rep.provenance["tables"]["drift_sup_ratio"]
    assert all(v == 0.0 for v in table.values())


def test_weighted_estimates_inadmissible_p(grid, weight):
    base = drifts.hardy_drift(0.05, ALPHA, 3)
    with pytest.raises(AdmissibilityError):
        weighted.verify_weighted_estimates(base, weight, p=4.0,
                                           mu_list=(1e2,), grid=grid,
                                           alpha=ALPHA, m_levels=(8, 16),
                                           q=6.0, r=3.0, seed=0)


def test_eta_b_integrability_hardy():
    # nu = 0.9 alpha/2 = 0.675, p = 5 > d/(2 nu) + 2 ~ 4.222: stable
    base = drifts.hardy_drift(0.05, ALPHA, 3)
    grids = [TorusGrid(3, 8.0, 32), TorusGrid(3, 8.0, 64)]
    rep = weighted.verify_eta_b_integrability(base, 0.675, 5.0, ALPHA, grids)
    assert rep.verdict == "pass"
    assert rep.metrics["refinement_growth"] <= 1.10


def test_eta_b_integrability_is_the_whole_lattice_sum_bit_for_bit():
    # |b| eta^(2-p) is formed slab by slab in one buffer and summed by one
    # np.sum: numpy's pairwise order on the values of the whole-lattice
    # product, also at N = 24 and 48, which are not powers of two
    ns = (16, 24, 32, 48, 64)
    for base in (drifts.hardy_drift(0.05, ALPHA, 3),
                 drifts.lp_radial_drift(1.0, 0.5, 3)):
        grids = [TorusGrid(3, 8.0, n) for n in ns]
        rep = weighted.verify_eta_b_integrability(base, 0.675, 5.0, ALPHA,
                                                  grids)
        for grid, (n, _, val) in zip(grids, rep.provenance["values"]):
            mag = component_magnitude(base.on_lattice(grid), grid.shape)
            eta = weighted.WeightSpec(grid, 0.675, ALPHA).lattice
            assert val == float(np.sum(mag * eta ** (2.0 - 5.0))
                                * grid.cell_volume), n


def test_eta_b_integrability_traced_peak_is_one_field_and_a_half():
    # the whole-lattice form traced about 5 fields of N^3 float64
    grid = TorusGrid(3, 8.0, 64)
    base = drifts.hardy_drift(0.05, ALPHA, 3)
    tracemalloc.start()
    try:
        weighted.verify_eta_b_integrability(base, 0.675, 5.0, ALPHA, [grid])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 8 * 64**3


def test_eta_b_integrability_zero_drift():
    base = drifts.bounded_smooth_drift([0.0] * 3, 8.0, 3)
    rep = weighted.verify_eta_b_integrability(
        base, 0.675, 5.0, ALPHA, [TorusGrid(3, 8.0, 16)])
    assert rep.provenance["values"][0][2] == 0.0


def test_eta_b_integrability_violation_grows_with_torus():
    # heavy-tail drift at p below the threshold: norm grows with L
    base = drifts.lp_radial_drift(1.0, 0.5, 3)
    vals = []
    for L in (8.0, 16.0, 32.0):
        grid = TorusGrid(3, L, 16)
        w = weighted.verify_eta_b_integrability(base, 0.675, 3.0, ALPHA, [grid])
        vals.append(w.provenance["values"][0][2])
    assert vals[0] < vals[1] < vals[2]
    assert vals[2] > 2.0 * vals[0]


def test_weighted_factorization_matches_conjugation(grid, weight):
    base = drifts.hardy_drift(0.05, ALPHA, 3)
    mol = drifts.mollify(base, n=4, grid=grid, epsilon_n=0.5)
    mu, p, q, r = 5.0, 5.0, 6.0, 2.0
    plain = assemble_lp_resolvent(mol, mu, p, q, r, grid, ALPHA)
    wtheta = weighted.weighted_lp_resolvent(plain, weight, ALPHA)
    h = np.random.default_rng(4).standard_normal(grid.shape)
    lhs = wtheta.apply(h)
    rhs = plain.apply(weight.lattice * h) / weight.lattice
    assert np.linalg.norm(lhs - rhs) <= 1e-8 * np.linalg.norm(rhs)


def test_weighted_lp_inequalities_product_constant(grid, weight):
    mol = drifts.mollify(drifts.hardy_drift(0.05, ALPHA, 3), n=4, grid=grid,
                         epsilon_n=0.5)
    rep = weighted.verify_weighted_lp_inequalities(
        mol.magnitude(), 4.5, mu=1.0, lam=0.01, grid=grid, alpha=ALPHA,
        weight=weight, seed=5)
    assert rep.verdict == "pass"


def test_weighted_t_block_norm_bound(grid, weight):
    # the weighted-norm probe of the conjugated T block obeys the same
    # m * (p p'/4) * delta envelope as the flat one; realized through the
    # isometry f -> eta^(2/p) f onto the plain L^p probe machinery
    from stablelab import formbound, kernels
    from stablelab.operators import Compose, PointwiseMultiplier

    mol = drifts.mollify(drifts.hardy_drift(0.05, ALPHA, 3), n=4, grid=grid,
                         epsilon_n=0.5)
    mu, p = 1.0, 4.5
    asm = assemble_lp_resolvent(mol, mu, p=p, q=6.0, r=2.0, grid=grid,
                                alpha=ALPHA)
    iso = weight.lattice ** (2.0 / p - 1.0)
    t_weighted = Compose([PointwiseMultiplier(grid, iso), asm.handles["T"],
                          PointwiseMultiplier(grid, 1.0 / iso)])
    probe = t_weighted.norm_probe(n_probes=8, p=p, seed=6, iterations=4)
    est = kernels.estimate_gradient_constant(
        ALPHA, 3, [(m, r) for m in np.geomspace(0.2, 50, 5)
                   for r in np.geomspace(0.1, 10, 7)])
    delta = formbound.estimate_weak_formbound(
        mol, mu / est.kappa_est, grid, ALPHA).delta_est
    c_p = p * (p / (p - 1.0)) / 4.0
    assert probe <= est.m_est * c_p * delta * 1.1


def test_bump_radius_guard(grid):
    with pytest.raises(ParameterError):
        weighted.smooth_bump(grid, [0.0] * 3, radius=3.0)
