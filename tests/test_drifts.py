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
    mag = spec.magnitude(pts)
    r = np.sqrt(0.25 + 1.0 + 4.0)
    assert mag[0] == pytest.approx(delta * kappa**2 * r ** (1.0 - ALPHA), rel=1e-12)


def test_hardy_drift_oddness_and_singularity():
    spec = drifts.hardy_drift(0.1, ALPHA, 3)
    plus = spec.components([np.array([0.3]), np.array([0.4]), np.array([1.2])])
    minus = spec.components([np.array([-0.3]), np.array([-0.4]), np.array([-1.2])])
    for a, b in zip(plus, minus):
        np.testing.assert_allclose(a, -b, rtol=1e-14)
    at_origin = spec.magnitude([np.zeros(1)] * 3)
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
    # the convolution must keep the bump centered (no fftshift offset)
    grid = TorusGrid(2, 4.0, 32)
    base = drifts.custom_drift(
        lambda x, y: (np.exp(-(x**2 + y**2)), np.zeros_like(x + y)), 2, [])
    mol = drifts.mollify(base, n=4, grid=grid, epsilon_n=0.5)
    peak = np.unravel_index(np.argmax(mol.lattice[0]), grid.shape)
    assert peak == grid.site_index([0.0, 0.0])


def test_mollify_hardy_l1_convergence_in_n():
    grid = TorusGrid(3, 4.0, 32)
    base = drifts.hardy_drift(0.05, ALPHA, 3)
    raw_mag = base.magnitude(grid.coordinates())
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
    fn = drifts.custom_drift(lambda x: (x,), 1, [])
    with pytest.raises(ParameterError):
        fn.to_json()


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
    mag = spec.magnitude(grid.coordinates())
    r = grid.radius()
    assert np.all(mag[r > 2.5] == 0.0)
    assert np.max(mag) > 0.0


def point_source(x0):
    """(x - x0) / |x - x0|^2, non-finite at x0 unless x0 is listed."""
    def field(*coords):
        diff = [c - x for c, x in zip(coords, x0)]
        r2 = sum(d**2 for d in diff)
        with np.errstate(divide="ignore", invalid="ignore"):
            return [d / r2 for d in diff]
    return field


CATALOG = ["hardy", "lp_radial", "kato_example", "bounded_smooth"]


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
@given(kind=st.sampled_from(CATALOG + ["custom_closure"]),
       n=st.sampled_from([8, 16]), dim=st.integers(1, 3),
       seed=st.integers(0, 2**31 - 1))
def test_lattice_magnitude_is_vector_magnitude_bitwise(kind, n, dim, seed):
    rng = np.random.default_rng(seed)
    if kind in CATALOG:
        spec, dim = catalog_drift(kind, dim, rng)
    else:
        # a listed singular point away from the origin, where the closure
        # is not finite
        grid = TorusGrid(dim, 4.0, n)
        x0 = [grid.axis_coordinates()[i] for i in rng.integers(0, n, dim)]
        spec = drifts.custom_drift(point_source(x0), dim, [x0])
    grid = TorusGrid(dim, 4.0, n)
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


def test_lattice_evaluation_rejects_nonfinite_and_miscounted_closures():
    grid = TorusGrid(2, 4.0, 8)
    unlisted = drifts.custom_drift(point_source([0.0, 0.0]), 2, [])
    miscounted = drifts.custom_drift(lambda x, y: (x + y,), 2, [])
    for spec in (unlisted, miscounted):
        with pytest.raises(ParameterError):
            spec.on_lattice(grid)
        with pytest.raises(ParameterError):
            spec.lattice_magnitude(grid)
