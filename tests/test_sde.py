import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import ndimage, stats

from stablelab import drifts, sde, weighted
from stablelab.errors import ParameterError
from stablelab.grid import TorusGrid
from stablelab.operators import heat_semigroup
from stablelab.sampler import StableParams, sample_increments

ALPHA = 1.5


@pytest.fixture(scope="module")
def grid():
    return TorusGrid(3, 8.0, 32)


@pytest.fixture(scope="module")
def hardy(grid):
    return drifts.mollify(drifts.hardy_drift(0.05, ALPHA, 3), n=16, grid=grid,
                          epsilon_n=0.5)


@pytest.fixture(scope="module")
def zero(grid):
    return drifts.mollify(drifts.bounded_smooth_drift([0.0] * 3, 8.0, 3), 4, grid)


_L = 8.0
_SPECIAL = [0.0, -0.0, _L, -_L, np.nextafter(_L, 0.0), -np.nextafter(_L, 0.0),
            2.0 * _L, -2.0 * _L, 3.0 * _L, 1e300, -1e300, 5e-324]


@settings(max_examples=50, deadline=None)
@given(xs=st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                             st.floats(-3 * _L, 3 * _L),
                             st.sampled_from(_SPECIAL)),
                   min_size=1, max_size=60))
def test_wrap_matches_remainder_bit_for_bit(xs):
    x = np.array(xs + _SPECIAL)
    expect = (x + _L) % (2.0 * _L) - _L
    got = sde._wrap(x, _L)
    assert np.array_equal(got.view(np.int64), expect.view(np.int64))


def _map_coordinates_drift(points, drift):
    """The reference read of the drift: one order-1 periodic
    ``map_coordinates`` call per component."""
    grid = drift.grid
    coords = np.ascontiguousarray(
        ((sde._wrap(points, grid.half_length) + grid.half_length)
         / grid.spacing).T)
    return np.stack([ndimage.map_coordinates(drift.lattice[j], coords,
                                             order=1, mode="grid-wrap")
                     for j in range(grid.dim)], axis=-1)


def _drift_at(points, drift):
    """The drift at points (points, dim) as ``integrate`` reads it:
    ``drift_rows`` on the padded table, with the points held as rows."""
    grid = drift.grid
    rows = sde._wrap(np.ascontiguousarray(points.T), grid.half_length)
    return sde.drift_rows(rows, sde._padded_lattice(drift), grid).T


def _random_drift(n, half_length, seed):
    grid = TorusGrid(3, half_length, n)
    data = np.random.default_rng(seed).standard_normal((3,) + grid.shape)
    return drifts.MollifiedDrift(drifts.hardy_drift(0.05, ALPHA, 3), 1, 1.0,
                                 grid, data)


# lattice spacings 2L/N that are and are not powers of two
_LATTICES = [(16, 3.3), (24, 8.0), (26, 7.3), (32, 8.0), (34, 5.1)]


def _just_below(half_length, count=64):
    """The ``count`` floats just below ``half_length``, and their negatives
    one period up; some lattice coordinates of these round to exactly N."""
    x = half_length - np.spacing(half_length) * np.arange(1, count + 1)
    return np.concatenate([x, x - 2.0 * half_length])


@st.composite
def _lattice_and_points(draw):
    n, half = draw(st.sampled_from(_LATTICES))
    h = 2.0 * half / n
    edges = [half, -half, np.nextafter(half, -np.inf),
             np.nextafter(-half, -np.inf)]
    coordinate = st.one_of(
        st.floats(-7.0 * half, 7.0 * half),
        st.integers(-3 * n, 3 * n).map(lambda k: k * h - half),
        st.sampled_from(edges),
        st.sampled_from(list(_just_below(half))))
    points = draw(st.lists(st.tuples(coordinate, coordinate, coordinate),
                           min_size=1, max_size=50))
    return n, half, np.array(points, dtype=float).reshape(-1, 3)


@settings(max_examples=60, deadline=None)
@given(case=_lattice_and_points(), seed=st.integers(0, 2**31 - 1))
def test_drift_at_matches_map_coordinates_bit_for_bit(case, seed):
    n, half, points = case
    drift = _random_drift(n, half, seed)
    # plus uniform points: at N = 26, L = 7.3 about 3% of them read a
    # different bit if the upper weight is taken as t instead of 1 - (1 - t)
    uniform = np.random.default_rng(seed + 1).uniform(-7.0 * half, 7.0 * half,
                                                      (500, 3))
    points = np.concatenate([points, uniform])
    got = _drift_at(points, drift)
    expect = _map_coordinates_drift(points, drift)
    assert got.shape == expect.shape
    assert np.array_equal(got, expect)
    assert np.array_equal(got.view(np.int64), expect.view(np.int64))


@pytest.mark.parametrize("n,half", [(16, 3.3), (24, 8.0), (34, 5.1)])
def test_drift_at_where_a_coordinate_rounds_to_n(n, half):
    drift = _random_drift(n, half, seed=n)
    below = _just_below(half)
    points = np.stack([below, np.roll(below, 5), np.zeros_like(below)],
                      axis=-1)
    coords = sde._lattice_coords(sde._wrap(points, half), drift.grid)
    assert np.any(coords == n)
    assert np.array_equal(_drift_at(points, drift),
                          _map_coordinates_drift(points, drift))


def test_integrate_never_calls_map_coordinates(hardy, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("scipy.ndimage called")

    monkeypatch.setattr(ndimage, "map_coordinates", refuse)
    ens = sde.integrate(hardy, [0.3, -0.2, 0.0], 0.05, 0.01, 40, seed=4,
                        alpha=ALPHA)
    assert np.all(np.isfinite(ens.states))


@pytest.mark.parametrize("x0", [[0.0, 0.0], [np.nan, 0.0, 0.0],
                                [0.0, np.inf, 0.0], [[0.0, 0.0, 0.0]], 0.0])
def test_integrate_refuses_a_bad_start_before_any_noise(hardy, monkeypatch,
                                                        x0):
    def refuse(*args, **kwargs):
        raise AssertionError("noise drawn")

    monkeypatch.setattr(sde, "_fill_slab", refuse)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match="x0"):
            sde.integrate(hardy, x0, 0.1, 0.01, 8, seed=0, alpha=ALPHA)


def test_integrate_shapes_and_determinism(grid, hardy):
    a = sde.integrate(hardy, [0.0] * 3, 0.1, 0.01, 64, seed=5, alpha=ALPHA)
    b = sde.integrate(hardy, [0.0] * 3, 0.1, 0.01, 64, seed=5, alpha=ALPHA)
    assert a.states.shape == a.drift_integral.shape == (64, 3)
    assert a.abs_drift_integral.shape == (64,)
    np.testing.assert_array_equal(a.states, b.states)
    np.testing.assert_array_equal(a.drift_integral, b.drift_integral)
    c = sde.integrate(hardy, [0.0] * 3, 0.1, 0.01, 64, seed=6, alpha=ALPHA)
    assert not np.array_equal(a.states, c.states)


def test_default_record_keeps_start_and_end(grid, hardy):
    x0 = [0.1, -0.2, 0.0]
    ens = sde.integrate(hardy, x0, 0.1, 0.01, 32, seed=5, alpha=ALPHA)
    np.testing.assert_array_equal(ens.x0, x0)
    assert ens.states.shape == (32, 3)
    assert ens.drift_integral.shape == (32, 3)
    assert ens.abs_drift_integral.shape == (32,)
    assert ens.t_final == pytest.approx(0.1)


def test_t_final_is_dt_times_the_step_count(hardy):
    # 35 steps of 0.01 end at 0.01 * 35, one bit above the caller's 0.35
    ens = sde.integrate(hardy, [0.0] * 3, 0.35, 0.01, 8, seed=5, alpha=ALPHA)
    assert ens.t_final == 0.01 * 35 != 0.35
    assert type(ens.t_final) is float
    rep = sde.noise_identification_report(ens, [[1.0, 0.0, 0.0]])
    assert rep.inputs["t"] == 0.01 * 35


def test_integrate_guards(grid, hardy):
    with pytest.raises(ParameterError):
        sde.integrate(hardy, [0.0] * 3, 0.1, -0.01, 8, seed=0, alpha=ALPHA)
    with pytest.raises(ParameterError):
        sde.integrate(hardy, [0.0] * 3, 0.1, 0.03, 8, seed=0, alpha=ALPHA)
    with pytest.raises(ParameterError):
        sde.integrate(hardy, [0.0] * 3, 0.1, 0.01, 0, seed=0, alpha=ALPHA)
    strong = drifts.mollify(drifts.bounded_smooth_drift([300.0] * 3, 8.0, 3),
                            n=512, grid=grid, epsilon_n=0.05)
    with pytest.raises(ParameterError):
        sde.integrate(strong, [0.0] * 3, 0.1, 0.01, 8, seed=0, alpha=ALPHA)


def _reference_integrate(drift, x0, n_paths, steps, dt, seed):
    """``integrate`` as a points-major Euler loop that reads the drift
    through ``map_coordinates`` and adds b dt to the drift integral at
    each step: the final state, drift integral, |b| integral and wrap
    fraction."""
    half = drift.grid.half_length
    noise = sample_increments(StableParams(ALPHA, 3, seed), dt,
                              n_paths * steps).values.reshape(n_paths, steps, 3)
    x = np.tile(x0, (n_paths, 1))
    integral, absint, wraps = np.zeros_like(x), np.zeros(n_paths), 0
    for k in range(steps):
        b = _map_coordinates_drift(x, drift)
        new = x + (-b * dt + noise[:, k, :])
        cells = [np.floor((y + half) / (2.0 * half)) for y in (x, new)]
        wraps += np.count_nonzero(np.any(cells[0] != cells[1], axis=1))
        x = new
        integral = integral + b * dt
        absint = absint + np.linalg.norm(b, axis=1) * dt
    return x, integral, absint, wraps / float(n_paths * steps)


@st.composite
def _edge_start(draw):
    """A lattice, and a start whose coordinates sit at or near the edge of
    the torus, some of them where the lattice coordinate rounds to N."""
    n, half = draw(st.sampled_from([(8, 3.3), (16, 5.1), (26, 6.1)]))
    below = _just_below(half)
    at_n = below[(sde._wrap(below, half) + half)
                 / TorusGrid(3, half, n).spacing == n]
    near = st.one_of(st.floats(half - 0.3, half), st.floats(-half, 0.3 - half),
                     st.sampled_from(list(below[:8])),
                     st.sampled_from(list(at_n)))
    return n, half, np.array(draw(st.tuples(near, near, near)))


@settings(max_examples=30, deadline=None)
@given(case=_edge_start(), seed=st.integers(0, 2**31 - 1),
       n_paths=st.integers(1, 40), steps=st.integers(1, 12))
def test_integrate_matches_points_major_loop_bit_for_bit(case, seed, n_paths,
                                                         steps):
    n, half, x0 = case
    drift = _random_drift(n, half, seed)
    ens = sde.integrate(drift, x0, 0.01 * steps, 0.01, n_paths, seed=seed,
                        alpha=ALPHA)
    expect = _reference_integrate(drift, x0, n_paths, steps, 0.01, seed)
    for got, want in zip((ens.states, ens.drift_integral,
                          ens.abs_drift_integral), expect):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert ens.wrap_fraction == expect[3]


def test_path_blocks_give_the_same_bits(hardy, monkeypatch):
    args = (hardy, [0.3, -0.2, 0.0], 0.05, 0.01, 40)
    kw = dict(seed=4, alpha=ALPHA)
    whole = sde.integrate(*args, **kw)
    monkeypatch.setattr(sde, "_PATH_BLOCK", 7)
    blocked = sde.integrate(*args, **kw)
    for name in ("t_final", "states", "drift_integral", "abs_drift_integral"):
        np.testing.assert_array_equal(getattr(blocked, name),
                                      getattr(whole, name))
    assert blocked.wrap_fraction == whole.wrap_fraction


def test_integrate_noise_is_held_one_block_at_a_time(hardy):
    # a whole-run draw of 50,000 x 40 increments traces ~76 MiB, blocks of
    # _PATH_BLOCK paths ~13 MiB
    tracemalloc.start()
    try:
        sde.integrate(hardy, [0.0] * 3, 0.4, 0.01, 50_000, seed=3,
                      alpha=ALPHA)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20


def test_non_finite_state_fails_at_its_step(grid, hardy, monkeypatch):
    calls = []
    real_drift_rows = sde.drift_rows

    def nan_at_step_3(wrapped, table, grid):
        calls.append(1)
        b = real_drift_rows(wrapped, table, grid)
        return np.full_like(b, np.nan) if len(calls) == 3 else b

    monkeypatch.setattr(sde, "drift_rows", nan_at_step_3)
    with pytest.raises(ParameterError, match="step 3"):
        sde.integrate(hardy, [0.0] * 3, 0.2, 0.01, 16, seed=0, alpha=ALPHA)
    assert len(calls) <= 4


class _WorkerFault(Exception):
    pass


def test_integrate_leaves_no_thread_behind(hardy, monkeypatch):
    before = set(threading.enumerate())
    args = (hardy, [0.3, -0.2, 0.0], 0.05, 0.01, 40)
    monkeypatch.setattr(sde, "_PATH_BLOCK", 7)
    sde.integrate(*args, seed=4, alpha=ALPHA)
    assert set(threading.enumerate()) == before

    real_drift_rows = sde.drift_rows
    calls = []

    def nan_at_step_3(wrapped, table, grid):
        calls.append(1)
        b = real_drift_rows(wrapped, table, grid)
        return np.full_like(b, np.nan) if len(calls) == 3 else b

    with monkeypatch.context() as patch:
        patch.setattr(sde, "drift_rows", nan_at_step_3)
        with pytest.raises(ParameterError, match="step 3"):
            sde.integrate(*args, seed=4, alpha=ALPHA)
    assert set(threading.enumerate()) == before

    # the third block's draw fails on the worker while the second steps
    real_fill = sde._fill_slab
    fills = []

    def fail_third(stream, slab):
        fills.append(threading.current_thread())
        if len(fills) == 3:
            raise _WorkerFault("drawn on the worker")
        return real_fill(stream, slab)

    monkeypatch.setattr(sde, "_fill_slab", fail_third)
    with pytest.raises(_WorkerFault, match="drawn on the worker"):
        sde.integrate(*args, seed=4, alpha=ALPHA)
    assert len(fills) == 3
    assert threading.current_thread() not in fills
    assert set(threading.enumerate()) == before


def test_recovered_noise_is_exactly_the_increments(grid, hardy):
    # X_t - x0 + int b dt telescopes to the sampled noise sum
    ens = sde.integrate(hardy, [0.0] * 3, 0.3, 0.01, 256, seed=8, alpha=ALPHA)
    params = StableParams(alpha=ALPHA, dim=3, seed=8)
    noise = sample_increments(params, 0.01, 256 * 30).values.reshape(256, 30, 3)
    np.testing.assert_allclose(ens.recovered_noise(), noise.sum(axis=1),
                               atol=1e-12)


def test_zero_drift_paths_match_sampler_law(grid, zero):
    ens = sde.integrate(zero, [0.0] * 3, 0.5, 0.025, 20000, seed=9,
                        alpha=ALPHA)
    rep = sde.noise_identification_report(ens, [[1.0, 0.0, 0.0]])
    assert rep.verdict == "pass"
    from stablelab.sampler import empirical_char_function

    est, se = empirical_char_function(ens.states, [1.0, 0.0, 0.0])
    assert abs(est.real - np.exp(-0.5)) <= 3.0 * se


def test_two_seeds_same_law(grid, hardy):
    a = sde.integrate(hardy, [0.0] * 3, 0.25, 0.0125, 4000, seed=10,
                      alpha=ALPHA)
    b = sde.integrate(hardy, [0.0] * 3, 0.25, 0.0125, 4000, seed=11,
                      alpha=ALPHA)
    res = stats.ks_2samp(a.states[:, 0], b.states[:, 0])
    assert res.pvalue > 0.01


def test_strong_step_refinement_first_order(grid, hardy):
    # couple resolutions by aggregating fine increments: the strong gap
    # halves with the step for additive noise
    rngseed = 12
    n_paths, t = 512, 0.2
    params = StableParams(alpha=ALPHA, dim=3, seed=rngseed)
    fine = sample_increments(params, t / 16, n_paths * 16).values.reshape(
        n_paths, 16, 3)

    def euler(n_steps):
        agg = fine.reshape(n_paths, n_steps, 16 // n_steps, 3).sum(axis=2)
        dt = t / n_steps
        x = np.zeros((n_paths, 3))
        for k in range(n_steps):
            x = x - _drift_at(x, hardy) * dt + agg[:, k, :]
        return x

    gap_coarse = np.mean(np.abs(euler(4) - euler(16)))
    gap_fine = np.mean(np.abs(euler(8) - euler(16)))
    # ratio of (dt - dt_ref) gaps for order one: (1/4-1/16)/(1/8-1/16) = 3
    ratio = gap_coarse / gap_fine
    assert 1.8 < ratio < 4.5


def test_mc_vs_semigroup_free(grid, zero):
    f = heat_semigroup(grid, ALPHA, 0.3).apply(
        np.random.default_rng(5).standard_normal(grid.shape)).real
    rep = sde.mc_vs_semigroup(zero, [0.0] * 3, 0.5, f, n_paths=20000,
                              dt=0.025, alpha=ALPHA, seed=2)
    assert rep.verdict == "pass"


def test_mc_vs_semigroup_constant_field(grid, hardy):
    ones = np.ones(grid.shape)
    rep = sde.mc_vs_semigroup(hardy, [0.0] * 3, 0.25, ones, n_paths=2000,
                              dt=0.0125, alpha=ALPHA, seed=3)
    assert rep.provenance["mc_mean"] == pytest.approx(1.0, abs=1e-12)
    assert abs(rep.provenance["semigroup"] - 1.0) <= 1e-8


def test_mc_vs_semigroup_hardy_with_levels(grid, hardy):
    f = heat_semigroup(grid, ALPHA, 0.3).apply(
        np.random.default_rng(6).standard_normal(grid.shape)).real
    rep = sde.mc_vs_semigroup(hardy, [0.0] * 3, 0.25, f, n_paths=20000,
                              dt=0.0125, alpha=ALPHA, seed=4, n_levels=(8, 16))
    assert rep.verdict == "pass"
    assert rep.metrics["drift_integral_stable_in_n"] <= 1.2


def test_noise_identification_kappa_zero(grid, hardy):
    ens = sde.integrate(hardy, [0.0] * 3, 0.1, 0.01, 128, seed=13, alpha=ALPHA)
    probe = sde.identify_driving_noise(ens, [[0.0, 0.0, 0.0]])[0]
    assert probe.w_hat == 1.0 + 0.0j
    assert probe.target == 1.0 + 0.0j


def test_noise_identification_hardy(grid, hardy):
    ens = sde.integrate(hardy, [0.0] * 3, 0.5, 0.01, 20000, seed=14,
                        alpha=ALPHA)
    rep = sde.noise_identification_report(
        ens, [[0.5, 0, 0], [1.0, 0, 0], [0, 2.0, 0]])
    assert rep.verdict == "pass"


def test_recovered_noise_independent_increments():
    # with zero drift the recovered noise is the sum of the sampled
    # increments; sums over disjoint intervals decorrelate
    noise = sample_increments(StableParams(ALPHA, 3, 15), 0.01,
                              20000 * 40).values.reshape(20000, 40, 3)
    z1 = np.linalg.norm(noise[:, :20].sum(axis=1), axis=1)
    z2 = np.linalg.norm(noise[:, 20:].sum(axis=1), axis=1)
    r = np.corrcoef(z1, z2)[0, 1]
    assert abs(r) <= 3.0 / np.sqrt(len(z1))


def test_probe_csv_format(grid, hardy):
    ens = sde.integrate(hardy, [0.0] * 3, 0.1, 0.01, 64, seed=16, alpha=ALPHA)
    probes = sde.identify_driving_noise(ens, [[1.0, 0.0, 0.0]])
    text = sde.probes_to_csv(probes)
    lines = text.strip().splitlines()
    assert lines[0] == "kappa,t,re,im,stderr"
    assert len(lines) == 2


def test_ensemble_density_mass(grid, hardy):
    ens = sde.integrate(hardy, [0.0] * 3, 0.1, 0.01, 4096, seed=17,
                        alpha=ALPHA)
    dens = sde.ensemble_density(ens, grid)
    mass = np.sum(dens.data) * grid.cell_volume
    assert mass == pytest.approx(1.0, rel=1e-12)
    clone = type(dens).from_bytes(dens.to_bytes())
    np.testing.assert_array_equal(clone.data, dens.data)


def test_contraction_probe_trend(grid, hardy):
    w = weighted.WeightSpec(grid, nu=0.675, alpha=ALPHA)
    rep = sde.contraction_probe(hardy, w, p=5.0, horizons=(0.05, 0.1),
                                grid=grid, alpha=ALPHA, kappa=[1.0, 0.0, 0.0],
                                n_probes=2, steps=6, seed=0)
    assert rep.verdict == "pass"
    ratios = rep.provenance["ratios"]
    assert ratios[0.05] < ratios[0.1] < 1.0


def test_contraction_probe_zero_drift(grid, zero):
    w = weighted.WeightSpec(grid, nu=0.675, alpha=ALPHA)
    rep = sde.contraction_probe(zero, w, p=5.0, horizons=(0.1,), grid=grid,
                                alpha=ALPHA, kappa=[1.0, 0.0, 0.0],
                                n_probes=1, steps=4, seed=1)
    assert rep.provenance["ratios"][0.1] == 0.0
