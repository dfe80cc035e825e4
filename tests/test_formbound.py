import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence

from stablelab import drifts, formbound
from stablelab.errors import ConvergenceError, ParameterError
from stablelab.grid import TorusGrid
from stablelab.operators import (Compose, FourierMultiplier,
                                 PointwiseMultiplier, resolvent_power)

ALPHA = 1.5


@pytest.fixture(scope="module")
def grid():
    return TorusGrid(3, 8.0, 32)


@pytest.fixture(scope="module")
def hardy_mol(grid):
    base = drifts.hardy_drift(0.05, ALPHA, 3)
    return drifts.mollify(base, n=4, grid=grid, epsilon_n=0.25)


def test_zero_drift_gives_zero(grid):
    est = formbound.estimate_weak_formbound(np.zeros(grid.shape), 0.1, grid, ALPHA)
    assert est.delta_est == 0.0 and est.matvecs == 0 and est.residual == 0.0
    assert formbound.estimate_kato_norm(np.zeros(grid.shape), 0.1, grid, ALPHA) == 0.0


def test_constant_field_identities(grid):
    # |b| = c: the zero mode maximizes the multiplier, delta = c lam^(-(a-1)/a)
    c, lam = 2.0, 0.5
    const = np.full(grid.shape, c)
    expect = c * lam ** (-(ALPHA - 1.0) / ALPHA)
    est = formbound.estimate_weak_formbound(const, lam, grid, ALPHA)
    assert est.delta_est == pytest.approx(expect, rel=1e-5)
    kato = formbound.estimate_kato_norm(const, lam, grid, ALPHA)
    assert kato == pytest.approx(expect, rel=1e-12)


def test_monotone_in_lambda(grid, hardy_mol):
    big = formbound.estimate_weak_formbound(hardy_mol, 0.1, grid, ALPHA)
    small = formbound.estimate_weak_formbound(hardy_mol, 0.01, grid, ALPHA)
    assert small.delta_est >= big.delta_est * (1.0 - 3e-6)


def test_scaling_linearity(grid, hardy_mol):
    one = formbound.estimate_weak_formbound(hardy_mol, 0.1, grid, ALPHA)
    scaled = formbound.estimate_weak_formbound(3.0 * hardy_mol.magnitude(),
                                               0.1, grid, ALPHA)
    assert scaled.delta_est == pytest.approx(3.0 * one.delta_est, rel=1e-10)


def test_gauss_variant_reported(grid, hardy_mol):
    frac = formbound.estimate_weak_formbound(hardy_mol, 0.05, grid, ALPHA,
                                             variant="frac")
    gauss = formbound.estimate_weak_formbound(hardy_mol, 0.05, grid, ALPHA,
                                              variant="gauss")
    assert gauss.variant == "gauss"
    # same class, different norm normalization; both finite and same scale
    assert 0.2 < gauss.delta_est / frac.delta_est < 5.0


def test_symmetrized_equals_weak_bound(grid, hardy_mol):
    # ||S*S|| = ||SS*||: the estimate solves the sandwich SS*; the square
    # S*S = R M_|b| R built from the half power R is the oracle
    lam = 0.05
    roots = {"frac": resolvent_power(grid, ALPHA, lam, (ALPHA - 1.0) / (2 * ALPHA)),
             "gauss": FourierMultiplier(grid, (lam + grid.frequency_radius_sq())
                                        ** (-(ALPHA - 1.0) / 4.0))}
    mul = PointwiseMultiplier(grid, hardy_mol.magnitude())
    for variant, root in roots.items():
        weak = formbound.estimate_weak_formbound(hardy_mol, lam, grid, ALPHA,
                                                 variant=variant)
        square = formbound.top_eigenpair(Compose([root, mul, root]), grid)[0]
        assert weak.delta_est == pytest.approx(square, rel=1e-10), variant


def test_duality_interpolation_ordering(grid):
    # symmetrized 2->2 estimate is dominated by the Kato sup-norm estimate,
    # and the weak form-bound by the full one (Heinz inequality)
    lam = 0.05
    for spec, n in ((drifts.hardy_drift(0.05, ALPHA, 3), 4),
                    (drifts.kato_example_drift(0.8, 0.25, 2.0, 3), 4),
                    (drifts.bounded_smooth_drift([0.5, 0.4, 0.3], 8.0, 3), 2)):
        mol = drifts.mollify(spec, n=n, grid=grid, epsilon_n=0.5)
        weak = formbound.estimate_weak_formbound(mol, lam, grid, ALPHA)
        kato = formbound.estimate_kato_norm(mol, lam, grid, ALPHA)
        assert weak.delta_est <= kato * (1.0 + 1e-6)
        full = formbound.estimate_formbound(mol, lam, grid, ALPHA)
        assert weak.delta_est <= full.delta_est * (1.0 + 1e-6)


@pytest.mark.parametrize("dim,n", [(3, 16), (1, 4)])
def test_top_eigenpair_resolvent_power_oracle(dim, n):
    # the zero mode carries the top eigenvalue lam^(-gamma) of the
    # multiplier; a 4-site lattice is smaller than the Lanczos basis
    grid = TorusGrid(dim, 8.0, n)
    lam, gamma, tol = 0.3, 0.6, 1e-6
    op = resolvent_power(grid, ALPHA, lam, gamma)
    value, vec, matvecs, residual = formbound.top_eigenpair(op, grid, tol=tol,
                                                            seed=2)
    assert value == pytest.approx(lam ** (-gamma), rel=1e-10)
    assert residual <= tol * value
    assert vec.shape == grid.shape and matvecs > 0


def test_top_eigenpair_seed_reproducible(grid, hardy_mol):
    op = formbound.symmetrized_sandwich(hardy_mol.magnitude(), 0.01, grid,
                                        ALPHA)
    one = formbound.top_eigenpair(op, grid, seed=7)
    two = formbound.top_eigenpair(op, grid, seed=7)
    assert one[0] == two[0] and one[2] == two[2]


def test_ladder_warm_starts_save_matvecs(grid, hardy_mol):
    # each rung after the first starts from the eigenfield of the rung
    # before it: fewer applies, the cold-start value, and the same counts
    # and values on a rerun
    ladder = (0.1, 0.01, 0.001)
    est = formbound.estimate_weak_formbound_ladder(hardy_mol, ladder, grid,
                                                   ALPHA)
    counts = est.per_lambda_matvecs
    assert list(counts) == list(ladder)
    assert counts[0.01] < counts[0.1] and counts[0.001] < counts[0.1]
    for lam in ladder[1:]:
        cold = formbound.estimate_weak_formbound(hardy_mol, lam, grid, ALPHA)
        assert est.per_lambda[lam] == pytest.approx(cold.delta_est, rel=1e-12)
    again = formbound.estimate_weak_formbound_ladder(hardy_mol, ladder, grid,
                                                     ALPHA)
    assert again.per_lambda == est.per_lambda
    assert again.per_lambda_matvecs == counts


@pytest.mark.parametrize("start", ["zero", "shape"])
def test_top_eigenpair_rejects_bad_start(grid, monkeypatch, start):
    def never(*args, **kw):
        raise AssertionError("eigsh reached")

    monkeypatch.setattr(formbound, "eigsh", never)
    field = (np.zeros(grid.shape) if start == "zero"
             else np.ones((grid.points_per_axis,) * 2))
    op = resolvent_power(grid, ALPHA, 0.3, 0.6)
    with pytest.raises(ParameterError, match="start field"):
        formbound.top_eigenpair(op, grid, start=field)


def test_hardy_ladder_convergence_toward_target():
    # the vanishing-shift rung approaches the calibrated bound already at
    # desk resolution; the full N=64 check lives in the acceptance suite
    base = drifts.hardy_drift(0.05, ALPHA, 3)
    vals = {}
    for N in (16, 32):
        grid = TorusGrid(3, 8.0, N)
        mol = drifts.mollify(base, n=4, grid=grid,
                             epsilon_n=max(0.25, grid.spacing))
        est = formbound.estimate_weak_formbound_ladder(
            mol, (0.1, 0.01, 0.001), grid, ALPHA)
        assert est.delta_est == min(est.per_lambda.values())
        vals[N] = est.per_lambda[0.001]
    assert abs(vals[32] - 0.05) < abs(vals[16] - 0.05) + 0.002
    assert vals[32] == pytest.approx(0.05, rel=0.15)


def test_kato_norm_diverges_for_hardy():
    base = drifts.hardy_drift(0.05, ALPHA, 3)
    vals = [formbound.estimate_kato_norm(base, 0.01, TorusGrid(3, 8.0, N), ALPHA)
            for N in (16, 32)]
    assert vals[1] > vals[0]


def test_admissible_threshold_arithmetic():
    adm = formbound.admissible_delta_threshold(3, ALPHA, m=1.0)
    # (d - a)/(d - a + 1)^2 = 0.24 and a(d + a)/(d + 2a)^2 = 0.1875
    assert adm.threshold == pytest.approx(0.75)
    assert adm.holder_threshold == pytest.approx(0.96)
    adm_m = formbound.admissible_delta_threshold(3, ALPHA, m=2.5)
    assert adm_m.threshold == pytest.approx(0.3)


def test_p_interval_endpoints():
    adm = formbound.admissible_delta_threshold(3, ALPHA, m=1.0)
    p_minus, p_plus = adm.p_interval(0.75)  # m delta = 3/4
    assert p_minus == pytest.approx(4.0 / 3.0)
    assert p_plus == pytest.approx(4.0)
    with pytest.raises(ParameterError):
        adm.p_interval(0.0)
    with pytest.raises(ParameterError):
        adm.p_interval(1.5)


def test_weak_lorentz_reference_matches_hardy_calibration():
    # the weak-Lorentz route applied to |b| = delta kappa^2 |x|^(1-alpha)
    # returns delta itself (two independent constant evaluations agree)
    delta = 0.05
    kappa = drifts.hardy_constant(ALPHA, 3)
    ref = formbound.weak_lorentz_reference_delta(delta * kappa**2, ALPHA, 3)
    assert ref == pytest.approx(delta, rel=1e-12)


def test_formbound_full_class_bounded_drift(grid):
    # bounded |b| <= c: full form-bound <= c lam^(-(a-1)/a) with equality
    # for constants
    c, lam = 1.5, 0.2
    est = formbound.estimate_formbound(np.full(grid.shape, c), lam, grid, ALPHA)
    assert est.delta_est == pytest.approx(c * lam ** (-1.0 / 3.0), rel=1e-5)
    assert est.class_tag == "formbound"


def test_top_eigenpair_no_convergence_raises(grid, monkeypatch):
    def stalled(lin, **kw):
        lin.matvec(kw["v0"])
        raise ArpackNoConvergence("no convergence", np.zeros(0),
                                  np.zeros((lin.shape[0], 0)))

    monkeypatch.setattr(formbound, "eigsh", stalled)
    op = resolvent_power(grid, ALPHA, 0.3, 0.6)
    with pytest.raises(ConvergenceError) as err:
        formbound.top_eigenpair(op, grid)
    assert err.value.last_iterate is not None
    assert err.value.last_iterate.shape == grid.shape


def test_drift_magnitude_shape_guard(grid):
    with pytest.raises(ParameterError):
        formbound.drift_magnitude(np.zeros((4, 4)), grid)
