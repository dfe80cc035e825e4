import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stablelab.errors import CapacityError, ParameterError
from stablelab.drifts import MollifiedDrift
from stablelab.grid import Field, TorusGrid, component_magnitude


def test_grid_basics():
    grid = TorusGrid(3, 8.0, 32)
    assert grid.spacing == pytest.approx(0.5)
    assert grid.shape == (32, 32, 32)
    ax = grid.axis_coordinates()
    assert ax[0] == -8.0 and ax[-1] == pytest.approx(8.0 - 0.5)
    # frequencies are (pi/L) * integers within the Nyquist band
    k = grid.axis_frequencies()
    assert k[1] == pytest.approx(np.pi / 8.0)
    assert np.min(k) == pytest.approx(-np.pi / 8.0 * 16)


@pytest.mark.parametrize("bad", [dict(dim=0), dict(points_per_axis=5),
                                 dict(points_per_axis=2), dict(half_length=-1.0)])
def test_grid_validation(bad):
    kwargs = dict(dim=2, half_length=4.0, points_per_axis=16)
    kwargs.update(bad)
    with pytest.raises(ParameterError):
        TorusGrid(**kwargs)


def test_grid_capacity_guard():
    with pytest.raises(CapacityError):
        TorusGrid(3, 1.0, 1024)


def test_site_index_round_trip():
    grid = TorusGrid(2, 4.0, 16)
    idx = grid.site_index([0.0, -4.0])
    assert idx == (8, 0)
    # wraps around the seam
    assert grid.site_index([4.0, 0.0])[0] == 0


def test_field_norms_and_inner():
    grid = TorusGrid(1, 2.0, 8)
    f = np.full(grid.shape, 2.0)
    h_d = grid.cell_volume
    # integral of |f|^p h^d = 2^p * 4
    assert grid.lp_norm(f, 2) == pytest.approx(4.0)
    assert grid.lp_norm(f, np.inf) == 2.0
    assert np.sum(f) * h_d == pytest.approx(8.0)
    g = np.full(grid.shape, 1.0 + 1.0j)
    assert np.sum(f * np.conj(g)) * h_d == pytest.approx(8.0 - 8.0j)


@settings(max_examples=60, deadline=None)
@given(p=st.one_of(st.floats(1.0, 8.0), st.just(np.inf)),
       complex_data=st.booleans(), weighted=st.booleans(),
       dim=st.integers(1, 3), seed=st.integers(0, 2**31 - 1))
def test_lp_norm_is_the_inline_formula_bitwise(p, complex_data, weighted,
                                               dim, seed):
    grid = TorusGrid(dim, 3.0, 8)
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(grid.shape)
    if complex_data:
        data = data + 1j * rng.standard_normal(grid.shape)
    weight = rng.uniform(0.0, 4.0, grid.shape) if weighted else None
    if p == np.inf:
        expect = float(np.max(np.abs(data)))
    else:
        w = 1.0 if weight is None else weight
        expect = float((np.sum(w * np.abs(data) ** p) * grid.cell_volume)
                       ** (1.0 / p))
    got = grid.lp_norm(data, p, weight)
    assert np.array_equal(np.array([got]).view(np.int64),
                          np.array([expect]).view(np.int64))


def test_field_rejects_bad_data():
    grid = TorusGrid(1, 2.0, 8)
    with pytest.raises(ParameterError):
        Field(grid, np.zeros(7))
    with pytest.raises(ParameterError):
        Field(grid, np.full(8, np.nan))
    # a drift's lattice array: one component per axis, finite
    grid = TorusGrid(2, 2.0, 8)
    good = np.ones((2,) + grid.shape)
    MollifiedDrift(None, 1, 1.0, grid, good)
    for bad in (good[0], good[:1], np.ones((3,) + grid.shape),
                np.ones((2, 8, 6))):
        with pytest.raises(ParameterError):
            MollifiedDrift(None, 1, 1.0, grid, bad)
    for value in (np.nan, np.inf, -np.inf):
        bad = good.copy()
        bad[1, 3, 5] = value
        with pytest.raises(ParameterError):
            MollifiedDrift(None, 1, 1.0, grid, bad)


@pytest.mark.parametrize("complex_data", [False, True])
@settings(max_examples=30, deadline=None)
@given(dim=st.integers(1, 3), n=st.sampled_from([4, 6, 8, 10, 16]),
       half_length=st.floats(1e-300, 1e300), seed=st.integers(0, 2**31 - 1))
def test_binary_round_trip(complex_data, dim, n, half_length, seed):
    grid = TorusGrid(dim, half_length, n)
    rng = np.random.default_rng(seed)
    # spread of magnitudes, subnormals and negative zeros included
    data = rng.standard_normal(grid.shape) * 10.0 ** rng.integers(
        -320, 300, grid.shape)
    data.flat[0] = -0.0
    if complex_data:
        data = data + 1j * rng.standard_normal(grid.shape)
    g = Field.from_bytes(Field(grid, data).to_bytes())
    assert g.grid == grid
    assert g.data.dtype == data.dtype
    assert np.array_equal(g.data.view(np.int64), data.view(np.int64))


@pytest.mark.parametrize("complex_data", [False, True])
def test_from_bytes_rejects_a_malformed_payload(complex_data):
    grid = TorusGrid(2, 3.0, 8)
    data = np.arange(64.0).reshape(grid.shape) * (1j if complex_data else 1.0)
    payload = Field(grid, data).to_bytes()
    width = 16 if complex_data else 8
    size = len(payload)
    assert size == 32 + 64 * width
    cases = [(payload[:31], "31 bytes, expected at least the 32-byte"),
             (payload[:-width], f"{size - width} bytes, expected {size}"),
             (payload + bytes(width), f"{size + width} bytes, expected {size}")]
    for flag in (2, -1):
        cases.append((payload[:24] + flag.to_bytes(8, "little", signed=True)
                       + payload[32:], f"complex flag must be 0 or 1, got {flag}"))
    for bad, message in cases:
        with pytest.raises(ParameterError, match=message):
            Field.from_bytes(bad)


def test_vector_field_magnitude():
    grid = TorusGrid(2, 2.0, 8)
    v = MollifiedDrift(None, 1, 1.0, grid,
                       np.stack([np.full(grid.shape, 3.0),
                                 np.full(grid.shape, 4.0)]))
    assert v.sup_norm() == pytest.approx(5.0)
    assert v.lattice[1, 0, 0] == 4.0


@settings(max_examples=30, deadline=None)
@given(dim=st.integers(1, 3), n=st.sampled_from([8, 16]),
       seed=st.integers(0, 2**31 - 1), complex_data=st.booleans())
def test_streamed_magnitude_is_stacked_sum_bitwise(dim, n, seed,
                                                   complex_data):
    grid = TorusGrid(dim, 2.0, n)
    rng = np.random.default_rng(seed)
    # spread of magnitudes, exact zeros and negative zeros included
    data = rng.standard_normal((dim,) + grid.shape) * 10.0 ** rng.integers(
        -150, 150, (dim,) + grid.shape)
    data[..., 0] = -0.0
    if complex_data:
        data = data + 1j * rng.standard_normal(data.shape)
    expect = np.sqrt(np.sum(np.abs(data) ** 2, axis=0))
    got = component_magnitude(data, grid.shape)
    assert got.dtype == np.float64
    assert np.array_equal(got.view(np.int64), expect.view(np.int64))
