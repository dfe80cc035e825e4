import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import fft as sfft

from stablelab import drifts
from stablelab.errors import ParameterError
from stablelab.grid import TorusGrid, component_magnitude

ALPHA = 1.5


def test_hardy_constant_frozen_value():
    # 2^(1/4) Gamma(0.875) / Gamma(0.625), evaluated independently
    assert drifts.hardy_constant(1.5, 3) == pytest.approx(0.9033149603099504,
                                                          rel=1e-12)
    with pytest.raises(ParameterError):
        drifts.hardy_constant(1.5, 2)


def test_hardy_drift_magnitude_formula():
    delta = 0.05
    spec = drifts.hardy_drift(delta, ALPHA, 3)
    kappa = drifts.hardy_constant(ALPHA, 3)
    pts = [np.array([0.5]), np.array([-1.0]), np.array([2.0])]
    mag = component_magnitude(spec.components(pts), (1,))
    r = np.sqrt(0.25 + 1.0 + 4.0)
    assert mag[0] == pytest.approx(delta * kappa**2 * r ** (1.0 - ALPHA), rel=1e-12)


def test_hardy_drift_oddness_and_singularity():
    spec = drifts.hardy_drift(0.1, ALPHA, 3)
    plus = spec.components([np.array([0.3]), np.array([0.4]), np.array([1.2])])
    minus = spec.components([np.array([-0.3]), np.array([-0.4]), np.array([-1.2])])
    for a, b in zip(plus, minus):
        np.testing.assert_allclose(a, -b, rtol=1e-14)
    at_origin = component_magnitude(spec.components([np.zeros(1)] * 3), (1,))
    assert at_origin[0] == 0.0


def test_lattice_evaluation_zeroes_singular_site():
    grid = TorusGrid(3, 4.0, 16)
    v = drifts.hardy_drift(0.05, ALPHA, 3).on_lattice(grid)
    origin = grid.site_index([0.0, 0.0, 0.0])
    assert np.all(v[(slice(None),) + origin] == 0.0)
    assert np.all(np.isfinite(v))


def test_mollifier_normalization_and_support():
    grid = TorusGrid(3, 4.0, 32)
    eps = 0.9
    bump = drifts.mollifier(grid, eps)
    assert np.sum(bump) * grid.cell_volume == pytest.approx(1.0, abs=1e-8)
    r = grid.radius()
    assert np.all(bump[r >= eps] == 0.0)
    assert np.all(bump >= 0.0)
    with pytest.raises(ParameterError):
        drifts.mollifier(grid, 2.5)


def test_mollify_bounded_smooth_converges_sup():
    grid = TorusGrid(2, 4.0, 64)
    base = drifts.bounded_smooth_drift([1.0, 0.5], 4.0, 2)
    exact = base.on_lattice(grid)
    errs = []
    for eps in (1.0, 0.5):
        mol = drifts.mollify(base, n=8, grid=grid, epsilon_n=eps)
        errs.append(np.max(np.abs(mol.lattice - exact)))
    assert errs[1] < errs[0]
    assert errs[1] < 0.2


def test_mollify_no_shift():
    # the convolution must keep the bump centered (no fftshift offset): the
    # even bump maps each sine of a bounded_smooth field to a multiple of
    # itself, where a shift by one site would move its phase by pi / 8
    grid = TorusGrid(2, 4.0, 32)
    base = drifts.bounded_smooth_drift([1.0, 0.5], 4.0, 2)
    exact = base.on_lattice(grid)
    mol = drifts.mollify(base, n=8, grid=grid, epsilon_n=0.5)
    scale = np.max(mol.lattice[0]) / np.max(exact[0])
    assert 0.5 < scale < 1.0
    np.testing.assert_allclose(mol.lattice, scale * exact, rtol=0, atol=1e-12)


def test_mollify_hardy_l1_convergence_in_n():
    grid = TorusGrid(3, 4.0, 32)
    base = drifts.hardy_drift(0.05, ALPHA, 3)
    raw_mag = component_magnitude(base.components(grid.coordinates()),
                                  grid.shape)
    raw_mag[grid.site_index([0.0] * 3)] = 0.0
    dists = []
    for n, eps in ((4, 1.0), (8, 0.5), (16, 0.25)):
        mol = drifts.mollify(base, n=n, grid=grid, epsilon_n=eps)
        dists.append(np.sum(np.abs(mol.magnitude() - raw_mag)) * grid.cell_volume)
    assert dists[0] > dists[1] > dists[2]


def test_mollify_zero_drift():
    grid = TorusGrid(2, 4.0, 16)
    base = drifts.bounded_smooth_drift([0.0, 0.0], 4.0, 2)
    mol = drifts.mollify(base, n=4, grid=grid)
    assert np.all(mol.lattice == 0.0)


def test_mollify_sup_bound():
    grid = TorusGrid(2, 4.0, 32)
    base = drifts.bounded_smooth_drift([3.0, 3.0], 4.0, 2)
    for n in (1, 2):
        mol = drifts.mollify(base, n=n, grid=grid, epsilon_n=0.4)
        assert mol.sup_norm() <= n * (1.0 + 1e-6)


def test_json_round_trip():
    # every drift is a plain value: its JSON document rebuilds it
    for kind in drifts.KINDS:
        spec, _ = catalog_drift(kind, 3, np.random.default_rng(7))
        assert drifts.DriftSpec(**json.loads(spec.to_json())) == spec
    with pytest.raises(ParameterError, match="unknown drift kind"):
        drifts.DriftSpec("custom_closure", {})


def test_bounded_smooth_divergence_free():
    grid = TorusGrid(3, 4.0, 16)
    base = drifts.bounded_smooth_drift([1.0, 0.7, 0.3], 4.0, 3)
    v = base.on_lattice(grid)
    from stablelab import operators as ops

    div = sum(ops.gradient_component(grid, j).apply(v[j]).real
              for j in range(3))
    assert np.max(np.abs(div)) < 1e-12


def test_kato_example_compact_support():
    grid = TorusGrid(3, 4.0, 16)
    spec = drifts.kato_example_drift(1.0, 0.25, radius=1.5, dim=3)
    mag = component_magnitude(spec.components(grid.coordinates()), grid.shape)
    r = grid.radius()
    assert np.all(mag[r > 2.5] == 0.0)
    assert np.max(mag) > 0.0


CATALOG = list(drifts.KINDS)


def catalog_drift(kind, dim, rng):
    """A random catalog drift of ``kind`` and its dimension (3 for hardy)."""
    if kind == "hardy":
        return drifts.hardy_drift(rng.uniform(0.01, 0.5), ALPHA, 3), 3
    if kind == "lp_radial":
        return drifts.lp_radial_drift(rng.uniform(0.1, 2.0),
                                      rng.uniform(0.0, dim - 0.1), dim), dim
    if kind == "kato_example":
        return drifts.kato_example_drift(rng.uniform(0.1, 2.0),
                                         rng.uniform(0.0, 0.45),
                                         rng.uniform(0.5, 2.0), dim), dim
    return drifts.bounded_smooth_drift(rng.uniform(-1.0, 1.0, dim), 4.0,
                                       dim), dim


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(CATALOG),
       lattice=st.sampled_from([(4.0, 8), (4.0, 16), (0.9, 10), (0.9, 12)]),
       dim=st.integers(1, 3), seed=st.integers(0, 2**31 - 1))
def test_lattice_magnitude_is_vector_magnitude_bitwise(kind, lattice, dim,
                                                       seed):
    # at half_length 0.9 the site nearest the origin lies about 1e-16 off
    # it, where a radial field is finite but huge: only the listed
    # singular point's zeroing makes it 0
    spec, dim = catalog_drift(kind, dim, np.random.default_rng(seed))
    grid = TorusGrid(dim, *lattice)
    expect = component_magnitude(spec.on_lattice(grid), grid.shape)
    got = spec.lattice_magnitude(grid)
    assert got.dtype == np.float64
    assert np.array_equal(got.view(np.int64), expect.view(np.int64))
    for pt in spec.singular_points:
        assert got[grid.site_index(pt)] == 0.0


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(CATALOG), n_axis=st.sampled_from([8, 16]),
       dim=st.integers(1, 3), level=st.integers(1, 8),
       epsilon=st.floats(0.05, 1.95), seed=st.integers(0, 2**31 - 1))
def test_mollify_is_the_complex_fft_convolution(kind, n_axis, dim, level,
                                                epsilon, seed):
    spec, dim = catalog_drift(kind, dim, np.random.default_rng(seed))
    grid = TorusGrid(dim, 4.0, n_axis)
    # oracle: truncate, then convolve each component by complex FFTs
    raw = spec.on_lattice(grid)
    keep = (grid.radius() <= level) & (np.sqrt(np.sum(raw**2, axis=0))
                                       <= level)
    truncated = np.where(keep, raw, 0.0)
    bump_hat = sfft.fftn(np.fft.ifftshift(
        drifts.mollifier(grid, epsilon)))
    expect = np.stack([sfft.ifftn(bump_hat * sfft.fftn(c)).real
                       * grid.cell_volume for c in truncated])
    got = drifts.mollify(spec, n=level, grid=grid, epsilon_n=epsilon)
    assert got.lattice.dtype == np.float64
    assert (np.max(np.abs(got.lattice - expect))
            <= 1e-14 * np.max(np.abs(expect)))


def test_lattice_evaluation_rejects_nonfinite_and_miscounted_fields():
    grid = TorusGrid(2, 4.0, 8)
    nonfinite = drifts.bounded_smooth_drift([np.nan, 1.0], 4.0, 2)
    miscounted = drifts.bounded_smooth_drift([1.0, 1.0, 1.0], 4.0, 3)
    for spec in (nonfinite, miscounted):
        with pytest.raises(ParameterError):
            spec.on_lattice(grid)
        with pytest.raises(ParameterError):
            spec.lattice_magnitude(grid)
    with pytest.raises(ParameterError):
        drifts.MollifiedDrift(base=nonfinite, n=1, epsilon_n=1.0, grid=grid,
                              lattice=np.full((2,) + grid.shape, np.inf))


@pytest.mark.parametrize("build, fragment", [
    (lambda v: drifts.hardy_drift(v, 1.5, 3), "delta"),
    (lambda v: drifts.lp_radial_drift(v, 1.0, 3), "prefactor"),
    (lambda v: drifts.lp_radial_drift(1.0, v, 3), "beta"),
    (lambda v: drifts.kato_example_drift(v, 0.25, 1.5, 3), "prefactor"),
    (lambda v: drifts.kato_example_drift(1.0, 0.25, v, 3), "radius"),
    (lambda v: drifts.bounded_smooth_drift([0.5], v, 3), "half_period")])
def test_scalar_parameters_are_finite_floats(build, fragment):
    spec = build(2)
    assert all(isinstance(v, float) for v in spec.parameters.values()
               if not isinstance(v, list))
    for bad in ("1", True, None, [1.0], np.nan, np.inf, -np.inf, 10**400):
        with pytest.raises(ParameterError, match=fragment):
            build(bad)
    positive = fragment in ("delta", "radius", "half_period")
    for edge in (0.0, -1.0):
        if positive:
            with pytest.raises(ParameterError, match=f"{fragment} must be positive"):
                build(edge)
        else:
            build(edge)
