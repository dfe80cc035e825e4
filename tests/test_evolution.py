import dataclasses
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import ndimage

from stablelab import drifts, evolution
from stablelab.errors import ConfigurationError, ParameterError
from stablelab.grid import TorusGrid
from stablelab.operators import gradient_component, heat_semigroup
from stablelab.profiles import cutoff_profile

ALPHA = 1.5


@pytest.fixture(scope="module")
def grid():
    return TorusGrid(3, 8.0, 32)


@pytest.fixture(scope="module")
def zero_drift(grid):
    return drifts.mollify(drifts.bounded_smooth_drift([0.0] * 3, 8.0, 3), 4, grid)


@pytest.fixture(scope="module")
def smooth_drift(grid):
    base = drifts.bounded_smooth_drift([0.5, 0.4, 0.3], 8.0, 3)
    return drifts.mollify(base, n=4, grid=grid, epsilon_n=0.05)


def smooth_field(grid, seed=0, t=0.3):
    rng = np.random.default_rng(seed)
    return heat_semigroup(grid, ALPHA, t).apply(
        rng.standard_normal(grid.shape)).real


def test_config_validation(grid, smooth_drift):
    with pytest.raises(ConfigurationError):
        evolution.PropagatorConfig(smooth_drift, ALPHA, t_final=0.5, steps=0)
    # Courant guard: one huge step with a strong drift
    strong = drifts.mollify(drifts.bounded_smooth_drift([30.0] * 3, 8.0, 3),
                            n=64, grid=grid, epsilon_n=0.05)
    with pytest.raises(ConfigurationError):
        evolution.PropagatorConfig(strong, ALPHA, t_final=1.0, steps=1)


def test_free_evolution_is_exact_on_modes(grid, zero_drift):
    cfg = evolution.PropagatorConfig(zero_drift, ALPHA, 0.5, 10)
    x = grid.coordinates()
    k = (np.pi / 8.0) * np.array([1.0, 2.0, 0.0])
    mode = np.broadcast_to(np.exp(1j * (k[0] * x[0] + k[1] * x[1])), grid.shape)
    out = evolution.propagate(cfg, np.array(mode))
    expect = np.exp(-0.5 * np.linalg.norm(k) ** ALPHA) * mode
    assert np.max(np.abs(out - expect)) < 1e-12


def test_tiny_horizon_is_near_identity(grid, smooth_drift):
    f = smooth_field(grid, 1)
    cfg = evolution.PropagatorConfig(smooth_drift, ALPHA, 1e-8, 1)
    out = evolution.propagate(cfg, f)
    assert np.max(np.abs(out - f)) <= 1e-6 * np.max(np.abs(f))


def test_sup_norm_contraction_and_positivity(grid, smooth_drift):
    f = smooth_field(grid, 3)
    cfg = evolution.PropagatorConfig(smooth_drift, ALPHA, 0.5, 20)
    out = evolution.propagate(cfg, f)
    assert np.max(np.abs(out)) <= np.max(np.abs(f)) * (1.0 + 1e-4)
    pos = evolution.propagate(cfg, np.abs(f))
    assert pos.min() >= -1e-6 * np.max(np.abs(f))


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), steps=st.integers(1, 5),
       t=st.floats(0.01, 0.25), is_complex=st.booleans())
def test_discrete_semigroup_property(small_grid, small_drift, seed, steps, t,
                                     is_complex):
    # (t, n) twice is (2t, 2n) once: the same dt, so the same steps
    f = smooth_field(small_grid, seed)
    if is_complex:
        f = f + 1j * smooth_field(small_grid, seed + 1)
    one = evolution.propagate(
        evolution.PropagatorConfig(small_drift, ALPHA, 2.0 * t, 2 * steps), f)
    half_cfg = evolution.PropagatorConfig(small_drift, ALPHA, t, steps)
    two = evolution.propagate(half_cfg, evolution.propagate(half_cfg, f))
    assert np.array_equal(one, two)


def test_richardson_step_refinement(grid, smooth_drift):
    f = smooth_field(grid, 5)
    outs = [evolution.propagate(
        evolution.PropagatorConfig(smooth_drift, ALPHA, 0.5, s), f)
        for s in (10, 20, 40)]
    e1 = np.linalg.norm(outs[1] - outs[0])
    e2 = np.linalg.norm(outs[2] - outs[1])
    assert e2 < e1 / 1.8  # at least first-order step convergence


def test_arnoldi_cross_validation(grid, smooth_drift):
    f = smooth_field(grid, 6)
    split = evolution.propagate(
        evolution.PropagatorConfig(smooth_drift, ALPHA, 0.25, 10), f)
    stepper = evolution.ArnoldiPropagator(smooth_drift, ALPHA, 0.025)
    arnoldi = f
    for _ in range(10):
        arnoldi = stepper.step(arnoldi)
    rel = np.linalg.norm(arnoldi.real - split) / np.linalg.norm(split)
    assert rel < 5e-3


def test_duhamel_residual_zero_drift(grid, zero_drift):
    f = smooth_field(grid, 7)
    cfg = evolution.PropagatorConfig(zero_drift, ALPHA, 0.5, 20)
    assert evolution.duhamel_residual(cfg, f) <= 1e-10


def test_duhamel_residual_small_and_decreasing(grid):
    base = drifts.bounded_smooth_drift([1.0, 0.8, 0.9], 8.0, 3)
    mol = drifts.mollify(base, n=4, grid=grid, epsilon_n=0.05)
    f = smooth_field(grid, 8, t=0.5)
    res = [evolution.duhamel_residual(
        evolution.PropagatorConfig(mol, ALPHA, 0.5, s), f) for s in (10, 20)]
    assert res[0] <= 1e-3
    assert res[1] < res[0]


def test_duhamel_constant_shift_invariance(grid):
    # gradients kill constants: f -> f + c changes the residual only at
    # round-off level
    base = drifts.bounded_smooth_drift([1.0, 0.8, 0.9], 8.0, 3)
    mol = drifts.mollify(base, n=4, grid=grid, epsilon_n=0.05)
    f = smooth_field(grid, 9, t=0.5)
    cfg = evolution.PropagatorConfig(mol, ALPHA, 0.5, 10)
    r1 = evolution.duhamel_residual(cfg, f)
    r2 = evolution.duhamel_residual(cfg, f + 10.0)
    # residuals are relative to the input norm, which changes with c;
    # compare the absolute residuals instead
    n1 = np.linalg.norm(f)
    n2 = np.linalg.norm(f + 10.0)
    assert abs(r1 * n1 - r2 * n2) <= 1e-9 * n2


def test_conservativeness_free_kernel_oracle(grid, zero_drift):
    cfg = evolution.PropagatorConfig(zero_drift, ALPHA, 0.01, 5)
    rep = evolution.conservativeness_check(
        cfg, grid.site_index([0.0] * 3), [2.0, 4.0, 6.0], tail_oracle=True)
    assert rep.verdict == "pass"
    vals = rep.provenance["values"]
    assert vals["n4_k2.0"] < vals["n4_k4.0"] < vals["n4_k6.0"]
    assert abs(1.0 - vals["n4_k6.0"]) <= 1e-3


def test_conservativeness_uniform_over_levels(grid):
    base = drifts.hardy_drift(0.05, ALPHA, 3)
    mol = drifts.mollify(base, n=8, grid=grid, epsilon_n=0.5)
    cfg = evolution.PropagatorConfig(mol, ALPHA, 0.01, 5)
    rep = evolution.conservativeness_check(
        cfg, grid.site_index([0.0] * 3), [2.0, 4.0, 6.0], n_levels=(8, 16))
    assert rep.verdict == "pass"
    assert rep.metrics["unit_mass_drift_n8"] <= 1e-8


def test_conservativeness_k_guard(grid, zero_drift):
    cfg = evolution.PropagatorConfig(zero_drift, ALPHA, 0.01, 2)
    with pytest.raises(ParameterError):
        evolution.conservativeness_check(cfg, (16, 16, 16), [7.5])


def test_mass_conservation_shear_drift(grid):
    # single-component shear: advection preserves the discrete mean exactly
    # (n large enough that the spatial truncation never bites)
    shear = drifts.mollify(
        drifts.bounded_smooth_drift([0.8, 0.0, 0.0], 8.0, 3), n=16, grid=grid,
        epsilon_n=0.05)
    cfg = evolution.PropagatorConfig(shear, ALPHA, 0.25, 10)
    f = np.abs(smooth_field(grid, 10)) + 0.1
    out = evolution.propagate(cfg, f)
    assert abs(np.sum(out) - np.sum(f)) <= 1e-9 * np.sum(f)


def test_feller_convergence_hardy(grid):
    base = drifts.hardy_drift(0.05, ALPHA, 3)
    f = smooth_field(grid, 11)
    rule = lambda n: 2.0 * grid.spacing * 16.0 / n
    rep = evolution.feller_convergence_check(base, (8, 16, 32), 0.25, f, grid,
                                             ALPHA, steps=10, epsilon_rule=rule,
                                             mu_ladder=(1e2, 1e3, 1e4))
    assert rep.verdict == "pass"
    diffs = rep.provenance["sup_differences"]
    assert diffs[1] < diffs[0]


def test_feller_zero_field(grid):
    base = drifts.hardy_drift(0.05, ALPHA, 3)
    rep = evolution.feller_convergence_check(
        base, (8, 16), 0.25, np.zeros(grid.shape), grid, ALPHA, steps=5,
        epsilon_rule=lambda n: None, mu_ladder=(1e2, 1e3, 1e4))
    assert rep.provenance["sup_differences"][0] == 0.0


def test_feller_stabilized_bounded_drift(grid):
    base = drifts.bounded_smooth_drift([0.5, 0.4, 0.3], 8.0, 3)
    f = smooth_field(grid, 12)
    rep = evolution.feller_convergence_check(
        base, (16, 32, 64), 0.25, f, grid, ALPHA, steps=10,
        epsilon_rule=lambda n: 0.01, mu_ladder=(1e2, 1e3, 1e4))
    diffs = rep.provenance["sup_differences"]
    assert all(d <= 1e-6 for d in diffs)


def test_laplace_transform_matches_resolvent():
    # int_0^inf exp(-mu t) exp(-t(A + b.grad)) f dt against the factorized
    # resolvent: composite Simpson over 200 propagation steps (trapezoid
    # carries an O((mu dt)^2) boundary term above the target band), with
    # the Arnoldi stepper so the time-discretization is the only error
    from stablelab.resolvent import assemble_lp_resolvent

    grid = TorusGrid(3, 8.0, 16)
    base = drifts.bounded_smooth_drift([0.5, 0.4, 0.3], 8.0, 3)
    mol = drifts.mollify(base, n=4, grid=grid, epsilon_n=0.05)
    f = smooth_field(grid, 13)
    mu, horizon, steps = 10.0, 2.0, 200
    dt = horizon / steps
    stepper = evolution.ArnoldiPropagator(mol, ALPHA, dt)
    samples = [f.astype(complex)]
    for _ in range(steps):
        samples.append(stepper.step(samples[-1]))
    weights = np.full(steps + 1, 2.0)
    weights[1::2] = 4.0
    weights[0] = weights[-1] = 1.0
    accum = sum(w * np.exp(-mu * k * dt) * u
                for k, (w, u) in enumerate(zip(weights, samples))) * dt / 3.0
    ref = assemble_lp_resolvent(mol, mu, p=2.5, q=3.5, r=1.8, grid=grid,
                                alpha=ALPHA).apply(f)
    rel = np.linalg.norm(accum - ref) / np.linalg.norm(ref)
    assert rel <= 1e-3


def test_smoothing_envelope_two_to_sup():
    # ||exp(-t(A+b.grad)) f||_inf / ||f||_2 under a single fitted envelope
    # C t^(-d/(2 alpha)) with the smoothing exponent of the free kernel
    grid = TorusGrid(3, 8.0, 32)
    base = drifts.bounded_smooth_drift([0.5, 0.4, 0.3], 8.0, 3)
    mol = drifts.mollify(base, n=4, grid=grid, epsilon_n=0.05)
    rng = np.random.default_rng(14)
    f = rng.standard_normal(grid.shape)
    norm2 = np.linalg.norm(f) * grid.cell_volume**0.5
    ts = (0.25, 0.5, 1.0)
    ratios = []
    for t in ts:
        out = evolution.propagate(
            evolution.PropagatorConfig(mol, ALPHA, t, max(10, int(t / 0.025))), f)
        ratios.append(np.max(np.abs(out)) / norm2)
    envelope = np.array(ts) ** (-3.0 / (2.0 * ALPHA))
    c_fit = float(np.max(np.array(ratios) / envelope))
    assert np.all(np.array(ratios) <= c_fit * envelope * (1 + 1e-12))
    assert ratios[2] < ratios[0]  # decays with the envelope shape


def test_kernel_slice_mass(grid, smooth_drift):
    # general divergence-free drift: mass conserved up to the advection
    # remap defect (exact only for shear substeps)
    cfg = evolution.PropagatorConfig(smooth_drift, ALPHA, 0.3, 12)
    spike = np.zeros(grid.shape)
    spike[grid.site_index([0.0] * 3)] = 1.0 / grid.cell_volume
    row = evolution.propagate(cfg, spike)
    assert np.sum(row) * grid.cell_volume == pytest.approx(1.0, abs=1e-4)
    # the initial spike is unresolved for a few steps; small transient
    # ringing survives in the far field
    assert row.min() >= -1e-3 * np.max(row)


@pytest.fixture(scope="module")
def small_grid():
    return TorusGrid(3, 8.0, 16)


@pytest.fixture(scope="module")
def small_drift(small_grid):
    base = drifts.bounded_smooth_drift([0.5, 0.4, 0.3], 8.0, 3)
    return drifts.mollify(base, n=4, grid=small_grid, epsilon_n=0.05)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), steps=st.integers(1, 6),
       t=st.floats(0.01, 0.5))
def test_propagate_keeps_real_fields_real(small_grid, small_drift, seed,
                                          steps, t):
    cfg = evolution.PropagatorConfig(small_drift, ALPHA, t, steps)
    f = smooth_field(small_grid, seed)
    real = evolution.propagate(cfg, f)
    full = evolution.propagate(cfg, f.astype(complex))
    assert real.dtype == np.float64
    assert np.iscomplexobj(full)
    assert np.linalg.norm(real - full.real) <= 1e-12 * np.linalg.norm(full)


@pytest.fixture
def stepper_builds(monkeypatch):
    builds = []
    init = evolution.SplitStepPropagator.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(evolution.SplitStepPropagator, "__init__",
                        counting_init)
    return builds


def test_conservativeness_builds_one_stepper_per_level(small_grid,
                                                       stepper_builds):
    mol = drifts.mollify(drifts.hardy_drift(0.05, ALPHA, 3), n=8,
                         grid=small_grid, epsilon_n=0.5)
    cfg = evolution.PropagatorConfig(mol, ALPHA, 0.01, 5)
    evolution.conservativeness_check(
        cfg, small_grid.site_index([0.0] * 3), [2.0, 4.0, 6.0],
        n_levels=(8, 16))
    assert len(stepper_builds) == 2


def test_duhamel_residual_builds_one_stepper(small_grid, small_drift,
                                             stepper_builds):
    cfg = evolution.PropagatorConfig(small_drift, ALPHA, 0.5, 10)
    evolution.duhamel_residual(cfg, smooth_field(small_grid, 3))
    assert len(stepper_builds) == 1


def test_config_is_frozen(smooth_drift):
    cfg = evolution.PropagatorConfig(smooth_drift, ALPHA, 0.5, 10)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.steps = 20


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.sampled_from([8, 16]),
       dim=st.integers(1, 3), is_complex=st.booleans(),
       reach=st.floats(0.0, 0.999))
def test_quintic_shift_matches_map_coordinates(seed, n, dim, is_complex,
                                               reach):
    rng = np.random.default_rng(seed)
    shape = (n,) * dim
    u = rng.standard_normal(shape)
    if is_complex:
        u = u + 1j * rng.standard_normal(shape)
    d = reach * rng.uniform(-1.0, 1.0, (dim,) + shape)
    expect = ndimage.map_coordinates(u, np.indices(shape) + d, order=5,
                                     mode="grid-wrap")
    got = evolution.quintic_shift(u, d)
    assert got.dtype == expect.dtype
    assert np.max(np.abs(got - expect)) <= 1e-12


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_advective_source_real_path_matches_complex(small_grid, small_drift,
                                                    seed):
    # white noise carries the Nyquist planes that i*k_j maps off the reals
    u = np.random.default_rng(seed).standard_normal(small_grid.shape)
    b = small_drift.lattice
    expect = sum(b[j] * gradient_component(small_grid, j).apply(u).real
                 for j in range(small_grid.dim))
    got = evolution.advective_source(small_drift, u)
    assert got.dtype == np.float64
    assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(np.abs(expect))


def test_complex_data_is_refused_by_the_duhamel_route(small_grid,
                                                      small_drift):
    # numpy would cast it to real without a word
    u = smooth_field(small_grid, 1) + 1j * smooth_field(small_grid, 2)
    cfg = evolution.PropagatorConfig(small_drift, ALPHA, 0.1, 2)
    with pytest.raises(ParameterError, match="real field"):
        evolution.duhamel_residual(cfg, u)
    with pytest.raises(ParameterError, match="real field"):
        evolution.advective_source(small_drift, u)


@pytest.mark.parametrize("cells, which", [(1.5, "departure"),
                                          (3.0, "midpoint")])
def test_stepper_rejects_displacement_of_a_cell(small_drift, cells, which):
    # the Courant check of PropagatorConfig is bypassed on purpose
    b_max = np.max(np.abs(small_drift.lattice))
    dt = cells * small_drift.grid.spacing / b_max
    with pytest.raises(ConfigurationError, match=f"{which} displacement"):
        evolution.SplitStepPropagator(small_drift, ALPHA, dt)


def test_no_map_coordinates_fallback(small_grid, small_drift, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("scipy.ndimage called")

    monkeypatch.setattr(ndimage, "map_coordinates", refuse)
    monkeypatch.setattr(ndimage, "spline_filter", refuse)
    cfg = evolution.PropagatorConfig(small_drift, ALPHA, 0.25, 5)
    stepper = evolution.SplitStepPropagator(small_drift, ALPHA, cfg.dt)
    assert stepper.displacement is not None
    out = evolution.propagate(cfg, smooth_field(small_grid, 4))
    assert np.all(np.isfinite(out))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.sampled_from([8, 16]),
       dim=st.integers(1, 3), is_complex=st.booleans())
def test_quintic_prefilter_matches_spline_filter(seed, n, dim, is_complex):
    rng = np.random.default_rng(seed)
    shape = (n,) * dim
    u = rng.standard_normal(shape)
    if is_complex:
        u = u + 1j * rng.standard_normal(shape)
    expect = ndimage.spline_filter(u, order=5, mode="grid-wrap",
                                   output=u.dtype)
    got = evolution.quintic_prefilter(TorusGrid(dim, 8.0, n)).apply(u)
    assert got.dtype == expect.dtype
    assert np.max(np.abs(got - expect)) <= 1e-12


def test_slot_weights_built_once_per_propagation(small_grid, small_drift,
                                                 monkeypatch):
    cfg = evolution.PropagatorConfig(small_drift, ALPHA, 0.5, 10)
    stepper = cfg.stepper  # the build interpolates the drift once
    builds = []
    slot_weights = evolution._slot_weights

    def counting(displacement):
        builds.append(1)
        return slot_weights(displacement)

    monkeypatch.setattr(evolution, "_slot_weights", counting)
    f = smooth_field(small_grid, 5)
    evolution.propagate(cfg, f)
    assert len(builds) == 1
    evolution.propagate(cfg, f)
    assert len(builds) == 2
    # the Duhamel sum and f are stepped as one stack, with one build
    evolution.duhamel_residual(cfg, f)
    assert len(builds) == 3
    # never kept: neither the stepper nor the config holds a weight array
    kept = list(vars(stepper).values()) + list(vars(cfg).values())
    assert not any(np.shape(v)[:2] == (small_grid.dim, 7) for v in kept
                   if isinstance(v, np.ndarray))


def unstacked_duhamel_residual(config, f):
    # one field per propagation: the Duhamel loop, then propagate(f)
    data = np.asarray(f)
    data = np.asarray(data, dtype=complex if np.iscomplexobj(data) else float)
    cfg = (config if config.steps % 2 == 0
           else replace(config, steps=config.steps + 1))
    steps, dt = cfg.steps, cfg.dt
    stepper = cfg.stepper
    slots = stepper.slot_weights()
    heat_step = heat_semigroup(config.grid, config.alpha, dt)
    weights = np.full(steps + 1, 2.0)
    weights[1::2] = 4.0
    weights[0] = weights[-1] = 1.0
    weights *= dt / 3.0
    heat_f = np.array(data)
    accum = weights[0] * evolution.advective_source(config.drift, heat_f)
    for k in range(1, steps + 1):
        accum = stepper.step(accum, slots)
        heat_f = heat_step.apply(heat_f)
        accum += weights[k] * evolution.advective_source(config.drift, heat_f)
    residual = evolution.propagate(cfg, data) - heat_f + accum
    return float(np.linalg.norm(residual) / max(np.linalg.norm(data), 1e-300))


def unstacked_site_values(config, site, k_list):
    # one propagate per cutoff, then one for the constant 1
    radius = config.grid.radius()
    values = {f"n{config.drift.n}_k{k}": float(evolution.propagate(
        config, cutoff_profile(radius, k))[site]) for k in k_list}
    ones = evolution.propagate(config, np.ones(config.grid.shape))
    return values, {config.drift.n: float(ones[site] - 1.0)}


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.sampled_from([8, 12, 16]),
       slices=st.integers(1, 5), is_complex=st.booleans(),
       steps=st.integers(1, 4), cutoffs=st.integers(1, 3))
def test_stacks_give_the_bits_of_one_field_at_a_time(small_grid, small_drift,
                                                     seed, n, slices,
                                                     is_complex, steps,
                                                     cutoffs):
    rng = np.random.default_rng(seed)
    shape = (slices, n, n, n)
    coeffs = rng.standard_normal(shape)
    if is_complex:
        coeffs = coeffs + 1j * rng.standard_normal(shape)
    weights = evolution._slot_weights(rng.uniform(-0.99, 0.99, (3, n, n, n)))
    stacked = evolution._slot_sum(coeffs, weights)
    for i in range(slices):
        assert np.array_equal(stacked[i], evolution._slot_sum(coeffs[i],
                                                              weights))
    cfg = evolution.PropagatorConfig(small_drift, ALPHA, 0.05 * steps, steps)
    f = smooth_field(small_grid, seed)
    assert (evolution.duhamel_residual(cfg, f)
            == unstacked_duhamel_residual(cfg, f))
    site = small_grid.site_index([0.5, -1.0, 0.0])
    k_list = [1.0, 2.5, 4.0][:cutoffs]
    rep = evolution.conservativeness_check(cfg, site, k_list)
    values, mass_drift = unstacked_site_values(cfg, site, k_list)
    assert rep.provenance == {"values": values, "mass_drift": mass_drift}


class _WorkerFault(Exception):
    pass


def test_slot_sum_leaves_no_thread_behind(small_grid, small_drift,
                                          monkeypatch):
    before = set(threading.enumerate())
    cfg = evolution.PropagatorConfig(small_drift, ALPHA, 0.1, 2)
    pair = np.stack([smooth_field(small_grid, 1), smooth_field(small_grid, 2)])
    evolution.propagate(cfg, pair)
    assert set(threading.enumerate()) == before

    # the worker's half fails while the caller sums its own
    main = threading.current_thread()
    real_shifted_sum = evolution._shifted_sum

    def fail_off_main(*args):
        if threading.current_thread() is not main:
            raise _WorkerFault("summed on the worker")
        return real_shifted_sum(*args)

    monkeypatch.setattr(evolution, "_shifted_sum", fail_off_main)
    with pytest.raises(_WorkerFault, match="summed on the worker"):
        evolution.propagate(cfg, pair)
    assert set(threading.enumerate()) == before


def test_the_slot_sum_worker_allocates_no_lattice_array(monkeypatch):
    # the caller waits until the worker is done, so the traced peak over
    # the worker's run is the worker's own
    n = 32
    rng = np.random.default_rng(3)
    weights = evolution._slot_weights(rng.uniform(-0.9, 0.9, (3, n, n, n)))
    coeffs = rng.standard_normal((2, n, n, n))
    main = threading.current_thread()
    worker_done = threading.Event()
    grown = []
    real_sum_slices = evolution._sum_slices

    def measured(*args):
        if threading.current_thread() is main:
            assert worker_done.wait(60)
            return real_sum_slices(*args)
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        try:
            return real_sum_slices(*args)
        finally:
            grown.append(tracemalloc.get_traced_memory()[1] - start)
            worker_done.set()

    monkeypatch.setattr(evolution, "_sum_slices", measured)
    tracemalloc.start()
    try:
        out = evolution._slot_sum(coeffs, weights)
    finally:
        tracemalloc.stop()
    assert len(grown) == 1
    assert grown[0] < n ** 3 * 8  # under one float64 lattice array
    assert np.array_equal(out[1], evolution._slot_sum(coeffs[1], weights))
