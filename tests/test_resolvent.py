import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from stablelab import drifts, formbound, resolvent
from stablelab.errors import DivergenceError, ParameterError
from stablelab.formbound import top_eigenpair
from stablelab.grid import TorusGrid
from stablelab.operators import (Compose, DotGradient, FourierMultiplier,
                                 PointwiseMultiplier, resolvent_power)
from stablelab.report import build_report
from stablelab.weighted import WeightSpec

ALPHA = 1.5


@pytest.fixture(scope="module")
def grid():
    return TorusGrid(3, 8.0, 16)


@pytest.fixture(scope="module")
def smooth_drift(grid):
    base = drifts.bounded_smooth_drift([0.6, 0.4, 0.5], 8.0, 3)
    # epsilon below the spacing keeps b_n = b exactly
    return drifts.mollify(base, n=8, grid=grid, epsilon_n=0.05)


@pytest.fixture(scope="module")
def zero_drift(grid):
    return drifts.mollify(drifts.bounded_smooth_drift([0.0] * 3, 8.0, 3), 4, grid)


def rand(grid, seed=0):
    return np.random.default_rng(seed).standard_normal(grid.shape)


def test_signed_root_convention():
    v = np.zeros((2, 3))
    v[0] = [4.0, 0.0, -9.0]
    out = resolvent.signed_root(v, 0.5)
    # b |b|^(-1/2): 4 -> 2, 0 -> 0, -9 -> -3
    np.testing.assert_allclose(out[0], [2.0, 0.0, -3.0])
    assert np.all(out[1] == 0.0)


def test_l2_resolvent_inverts_generator(grid, smooth_drift):
    theta = resolvent.assemble_l2_resolvent(smooth_drift, 2.0, grid, ALPHA)
    gen = resolvent.drifted_generator(smooth_drift, grid, ALPHA)
    for seed in range(10):
        f = rand(grid, seed)
        u = theta.apply(f)
        back = gen.apply(u) + 2.0 * u
        assert np.linalg.norm(back - f) <= 1e-8 * np.linalg.norm(f)


def test_l2_resolvent_complex_shift(grid, smooth_drift):
    zeta = 1.5 + 2.0j
    theta = resolvent.assemble_l2_resolvent(smooth_drift, zeta, grid, ALPHA)
    gen = resolvent.drifted_generator(smooth_drift, grid, ALPHA)
    f = rand(grid, 3)
    u = theta.apply(f)
    back = gen.apply(u) + zeta * u
    assert np.linalg.norm(back - f) <= 1e-8 * np.linalg.norm(f)


def test_zero_drift_collapses_to_free_resolvent(grid, zero_drift):
    theta = resolvent.assemble_l2_resolvent(zero_drift, 2.0, grid, ALPHA)
    free = resolvent_power(grid, ALPHA, 2.0, 1.0)
    f = rand(grid, 4)
    assert np.linalg.norm(theta.apply(f) - free.apply(f)) <= 1e-12


def test_pseudo_resolvent_identity(grid, smooth_drift):
    th_a = resolvent.assemble_l2_resolvent(smooth_drift, 2.0, grid, ALPHA)
    th_b = resolvent.assemble_l2_resolvent(smooth_drift, 5.0, grid, ALPHA)
    f = rand(grid, 5)
    lhs = th_a.apply(f) - th_b.apply(f)
    rhs = 3.0 * th_a.apply(th_b.apply(f))
    assert np.linalg.norm(lhs - rhs) <= 1e-8 * np.linalg.norm(lhs)


def test_lp_matches_l2_route(grid, smooth_drift):
    # consistency of the two factorizations on common test fields
    theta2 = resolvent.assemble_l2_resolvent(smooth_drift, 2.0, grid, ALPHA)
    asm = resolvent.assemble_lp_resolvent(smooth_drift, 2.0, p=2.5, q=3.5,
                                          r=1.8, grid=grid, alpha=ALPHA)
    f = rand(grid, 6)
    ref = theta2.apply(f)
    assert np.linalg.norm(asm.apply(f) - ref) <= 1e-6 * np.linalg.norm(ref)


def test_lp_resolvent_inverts_generator(grid, smooth_drift):
    asm = resolvent.assemble_lp_resolvent(smooth_drift, 3.0, p=4.5, q=6.0,
                                          r=2.0, grid=grid, alpha=ALPHA)
    gen = resolvent.drifted_generator(smooth_drift, grid, ALPHA)
    f = rand(grid, 7)
    u = asm.apply(f)
    back = gen.apply(u) + 3.0 * u
    assert np.linalg.norm(back - f) <= 1e-8 * np.linalg.norm(f)


def test_lp_positivity_approximate(grid, smooth_drift):
    asm = resolvent.assemble_lp_resolvent(smooth_drift, 2.0, p=4.5, q=6.0,
                                          r=2.0, grid=grid, alpha=ALPHA)
    rng = np.random.default_rng(8)
    from stablelab.operators import heat_semigroup

    f = np.abs(heat_semigroup(grid, ALPHA, 0.3).apply(
        rng.standard_normal(grid.shape)).real)
    out = asm.apply(f).real
    assert out.min() >= -1e-6 * np.max(np.abs(f))


def test_resolvent_approximates_identity_large_mu(grid, smooth_drift):
    from stablelab.operators import heat_semigroup

    f = heat_semigroup(grid, ALPHA, 0.2).apply(rand(grid, 9)).real
    sups = []
    for mu in (1e2, 1e3, 1e4):
        asm = resolvent.assemble_lp_resolvent(smooth_drift, mu, p=4.5, q=6.0,
                                              r=2.0, grid=grid, alpha=ALPHA)
        sups.append(np.max(np.abs(mu * asm.apply(f) - f)))
    assert sups[0] > sups[1] > sups[2]


def test_resolvent_convergence_in_mollification_level():
    # Cauchy behavior of theta(mu, b_n) along the approximation ladder
    grid = TorusGrid(3, 8.0, 32)
    base = drifts.hardy_drift(0.05, ALPHA, 3)
    mols = {n: drifts.mollify(base, n=n, grid=grid,
                              epsilon_n=2.0 * grid.spacing * 16.0 / n)
            for n in (8, 16, 32)}
    f = rand(grid, 10)
    outs = {n: resolvent.assemble_lp_resolvent(m, 2.0, 5.0, 6.0, 2.0, grid,
                                               ALPHA).apply(f)
            for n, m in mols.items()}
    vol = grid.cell_volume
    d1 = (np.sum(np.abs(outs[8] - outs[16]) ** 5) * vol) ** 0.2
    d2 = (np.sum(np.abs(outs[16] - outs[32]) ** 5) * vol) ** 0.2
    assert d2 < d1


def test_admissibility_window_enforced(grid, smooth_drift):
    # the admissible p interval is checked by ExperimentConfig.validate
    with pytest.raises(ParameterError):
        resolvent.assemble_lp_resolvent(smooth_drift, 2.0, p=3.0, q=2.0,
                                        r=2.0, grid=grid, alpha=ALPHA)


@pytest.mark.parametrize("route", ["lp", "l2"])
def test_divergence_guard(route):
    # assembly is cheap; the Neumann series refuses at the first apply
    grid = TorusGrid(3, 8.0, 16)
    strong = drifts.bounded_smooth_drift([40.0, 40.0, 40.0], 8.0, 3)
    mol = drifts.mollify(strong, n=64, grid=grid, epsilon_n=0.05)
    if route == "lp":
        theta = resolvent.assemble_lp_resolvent(mol, 0.05, p=4.5, q=6.0,
                                                r=2.0, grid=grid, alpha=ALPHA)
    else:
        theta = resolvent.assemble_l2_resolvent(mol, 0.05, grid, ALPHA)
    start = time.perf_counter()
    with pytest.raises(DivergenceError) as err:
        theta.apply(rand(grid, 12))
    assert time.perf_counter() - start < 0.5
    assert err.value.norm_estimate >= 1.0


def transport_radius(b, mu, grid):
    """Spectral radius of b . grad (mu+A)^(-1), the Neumann ratio of both
    routes: for divergence-free b it is the norm of the skew-adjoint
    (mu+A)^(-1/2) b . grad (mu+A)^(-1/2)."""
    half = resolvent_power(grid, ALPHA, mu, 0.5)
    skew = Compose([half, DotGradient(b, half)])
    return np.sqrt(top_eigenpair(Compose([skew.adjoint(), skew]), grid,
                                 tol=1e-3)[0])


@settings(max_examples=12, deadline=None)
@given(n=st.sampled_from([8, 12, 16]),
       amplitude=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
       mu=st.floats(0.05, 5.0), p=st.floats(2.5, 6.0),
       q_gap=st.floats(0.1, 3.0), r_frac=st.floats(0.1, 0.9),
       radius=st.one_of(st.floats(0.05, 0.8), st.floats(1.25, 4.0)),
       seed=st.integers(0, 2**31 - 1))
def test_resolvents_invert_or_refuse_at_first_apply(n, amplitude, mu, p,
                                                    q_gap, r_frac, radius,
                                                    seed):
    amp = np.asarray(amplitude)
    assume(np.max(np.abs(amp)) >= 0.1)
    grid = TorusGrid(3, 8.0, n)

    def lattice_drift(a):
        # epsilon below the spacing and a level above |x| and |b|: b_n = b
        level = 16 + int(np.sum(np.abs(a)))
        return drifts.mollify(drifts.bounded_smooth_drift(a, 8.0, 3),
                              n=level, grid=grid, epsilon_n=0.05)

    # the Neumann ratio is linear in b: scale it to ``radius``, which stays
    # off 1, where a series may need more terms than NeumannInverse allows
    scale = radius / transport_radius(lattice_drift(amp).lattice, mu, grid)
    mol = lattice_drift(scale * amp)
    gen = resolvent.drifted_generator(mol, grid, ALPHA)
    f = rand(grid, seed)
    for theta in (resolvent.assemble_l2_resolvent(mol, mu, grid, ALPHA),
                  resolvent.assemble_lp_resolvent(
                      mol, mu, p, p + q_gap, 1.0 + r_frac * (p - 1.0), grid,
                      ALPHA)):
        if radius > 1.0:
            with pytest.raises(DivergenceError):
                theta.apply(f)
            continue
        u = theta.apply(f)
        back = gen.apply(u) + mu * u
        assert np.linalg.norm(back - f) <= 1e-8 * np.linalg.norm(f)


def test_neumann_term_norms_decay_geometrically(grid, smooth_drift):
    asm = resolvent.assemble_lp_resolvent(smooth_drift, 2.0, p=2.5, q=3.5,
                                          r=1.8, grid=grid, alpha=ALPHA)
    probe = asm.handles["T"].norm_probe(n_probes=10, p=2.5, seed=0,
                                        iterations=6)
    asm.apply(rand(grid, 11))
    inner = asm.handles["correction"].factors[2]
    norms = np.array(inner.last_term_norms)
    if len(norms) > 3:
        ratios = norms[1:] / norms[:-1]
        assert np.all(ratios[2:] <= probe + 0.05)


def test_t_norm_probe_respects_theory_bound():
    # probe <= m * (p p'/4) * delta * 1.1 with numerically estimated m, delta
    from stablelab import formbound, kernels

    grid = TorusGrid(3, 8.0, 32)
    base = drifts.hardy_drift(0.05, ALPHA, 3)
    mol = drifts.mollify(base, n=4, grid=grid, epsilon_n=0.25)
    mu, p = 1.0, 4.5
    est = kernels.estimate_gradient_constant(
        ALPHA, 3, [(m, r) for m in np.geomspace(0.2, 50, 5)
                   for r in np.geomspace(0.1, 10, 7)])
    delta = formbound.estimate_weak_formbound(
        mol, mu / est.kappa_est, grid, ALPHA).delta_est
    asm = resolvent.assemble_lp_resolvent(mol, mu, p=p, q=6.0, r=2.0,
                                          grid=grid, alpha=ALPHA)
    c_p = p * (p / (p - 1.0)) / 4.0
    probe = asm.handles["T"].norm_probe(n_probes=10, p=p, seed=0,
                                        iterations=6)
    assert probe <= est.m_est * c_p * delta * 1.1


def weak_formbound(potential, grid, seed):
    """delta of ``potential`` at shift 0.01, the delta the tests pass."""
    return formbound.estimate_weak_formbound(potential, 0.01, grid, ALPHA,
                                             seed=seed).delta_est


def test_lp_inequalities_zero_potential(grid):
    zero = np.zeros(grid.shape)
    [rep] = resolvent.verify_lp_inequalities(
        zero, (4.5,), 1.0, 0.01, grid, ALPHA, n_probes=5, seed=0,
        delta=weak_formbound(zero, grid, 0), extremizer=zero)
    assert rep.verdict == "pass"
    assert all(v == 0.0 for v in rep.metrics.values())


def test_l2_extremizer_refuses_a_zero_potential(grid):
    # ARPACK would stop on a zero start vector with its own error
    with pytest.raises(ParameterError, match="zero on the lattice"):
        resolvent.l2_extremizer(np.zeros(grid.shape), 1.0, grid, ALPHA,
                                seed=0, start=None)


def test_lp_inequalities_candidates_at_p2():
    grid = TorusGrid(3, 8.0, 32)
    mol = drifts.mollify(drifts.hardy_drift(0.05, ALPHA, 3), n=4, grid=grid,
                         epsilon_n=0.25)
    potential = mol.magnitude()
    [rep] = resolvent.verify_lp_inequalities(
        potential, (2.0,), 1.0, 0.01, grid, ALPHA, n_probes=20, seed=3,
        delta=weak_formbound(potential, grid, 3),
        extremizer=resolvent.l2_extremizer(potential, 1.0, grid, ALPHA, 3,
                                           None))
    # c = 1 for both candidates at p = 2: identical ratios, all pass
    assert rep.verdict == "pass"
    assert rep.metrics["product_quarter:b"] == pytest.approx(
        rep.metrics["reciprocal:b"])


def test_lp_inequalities_separate_candidates_at_p45():
    grid = TorusGrid(3, 8.0, 32)
    mol = drifts.mollify(drifts.hardy_drift(0.05, ALPHA, 3), n=4, grid=grid,
                         epsilon_n=0.25)
    potential = mol.magnitude()
    [rep] = resolvent.verify_lp_inequalities(
        potential, (4.5,), 1.0, 0.01, grid, ALPHA, n_probes=50, seed=3,
        delta=weak_formbound(potential, grid, 3),
        extremizer=resolvent.l2_extremizer(potential, 1.0, grid, ALPHA, 3,
                                           None))
    assert all(rep.metrics[f"product_quarter:{w}"] <= 1.0 + 1e-6
               for w in ("a", "b", "c"))
    assert any(rep.metrics[f"reciprocal:{w}"] > 1.0 + 1e-6
               for w in ("a", "b", "c"))
    assert rep.verdict == "fail"  # reciprocal candidate fails by design
    assert any(name.startswith("reciprocal") for name in rep.failures)


def test_lp_probes_are_streamed():
    # the traced peak may not grow with the probe count: each probe is
    # evaluated, for both exponents, as soon as it is drawn
    grid = TorusGrid(3, 8.0, 32)
    mol = drifts.mollify(drifts.hardy_drift(0.05, ALPHA, 3), n=4, grid=grid,
                         epsilon_n=0.25)
    potential = mol.magnitude()
    phi = resolvent.l2_extremizer(potential, 1.0, grid, ALPHA, seed=3,
                                  start=None)

    def traced_peak(n_probes):
        tracemalloc.start()
        try:
            reps = resolvent.verify_lp_inequalities(
                potential, (2.0, 4.5), 1.0, 0.01, grid, ALPHA,
                n_probes=n_probes, seed=3, delta=0.05, extremizer=phi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [r.provenance["n_probes"] for r in reps] == [n_probes] * 2
        return peak

    traced_peak(10)  # warm caches outside the comparison
    growth = traced_peak(50) - traced_peak(10)
    assert growth < potential.nbytes


def smooth_potential(n, amplitude, seed):
    grid = TorusGrid(3, 4.0, n)
    amp = np.asarray(amplitude) * np.random.default_rng(seed).uniform(
        0.5, 1.0, 3)
    return grid, drifts.bounded_smooth_drift(amp, 4.0, 3).lattice_magnitude(
        grid)


@settings(max_examples=20, deadline=None)
@given(n=st.sampled_from([8, 16]), amplitude=st.floats(0.0, 2.0),
       seed=st.integers(0, 2**31 - 1), n_probes=st.integers(1, 8),
       exponents=st.lists(st.floats(1.0, 8.0, exclude_min=True,
                                    exclude_max=True),
                          min_size=1, max_size=3, unique=True),
       solve_extremizer=st.booleans())
def test_one_call_equals_one_exponent_calls_bitwise(
        n, amplitude, seed, n_probes, exponents, solve_extremizer):
    grid, potential = smooth_potential(n, amplitude, seed)
    # a zero extremizer gives zero transported probes, which are skipped,
    # so that the shared probes alone set the ratios
    # (at delta = 0 no extremizer is read)
    delta = weak_formbound(potential, grid, seed)
    kwargs = dict(n_probes=n_probes, seed=seed, delta=delta, extremizer=(
        resolvent.l2_extremizer(potential, 1.0, grid, ALPHA, seed, None)
        if solve_extremizer and delta != 0.0 else np.zeros(grid.shape)))
    args = (1.0, 0.01, grid, ALPHA)
    joint = resolvent.verify_lp_inequalities(
        potential, tuple(exponents), *args, **kwargs)
    alone = [rep for p in exponents
             for rep in resolvent.verify_lp_inequalities(
                 potential, (p,), *args, **kwargs)]
    assert [r.inputs["p"] for r in joint] == exponents
    assert [r.to_json() for r in joint] == [r.to_json() for r in alone]


@settings(max_examples=12, deadline=None)
@given(n=st.sampled_from([8, 16]), amplitude=st.floats(0.1, 2.0),
       seed=st.integers(0, 2**31 - 1), scale=st.floats(1e-3, 1e3),
       exponents=st.lists(st.floats(1.1, 8.0), min_size=1, max_size=3))
def test_probe_ratios_are_homogeneous_of_degree_0(n, amplitude, seed, scale,
                                                  exponents):
    grid, potential = smooth_potential(n, amplitude, seed)
    res = resolvent_power(grid, ALPHA, 1.0, (ALPHA - 1.0) / ALPHA)
    probes = [rand(grid, seed + k) for k in range(3)]
    plain = resolvent.probe_potential_bounds(
        potential, res, exponents, None, probes)
    scaled = resolvent.probe_potential_bounds(
        potential, res, exponents, None, (scale * f for f in probes))
    # and, over probes that each set a ratio, shared equals one at a time
    assert plain == [found for p in exponents
                     for found in resolvent.probe_potential_bounds(
                         potential, res, [p], None, iter(probes))]
    for (w_plain, count_plain), (w_scaled, count_scaled) in zip(
            plain, scaled, strict=True):
        assert count_plain == count_scaled == 3
        for w in "abc":
            assert w_scaled[w] == pytest.approx(w_plain[w], rel=1e-12)


def test_a_nan_probe_keeps_its_nan_ratio_and_fails():
    # Python's max kept its first argument against a NaN, so a NaN probe
    # after a finite one dropped out of the worst ratios unseen
    grid, potential = smooth_potential(8, 1.0, 3)
    res = resolvent_power(grid, ALPHA, 1.0, (ALPHA - 1.0) / ALPHA)
    probes = [rand(grid, 3), np.full(grid.shape, np.nan)]
    [(worst, count)] = resolvent.probe_potential_bounds(
        potential, res, [3.0], None, probes)
    assert count == 2 and all(np.isnan(worst[w]) for w in "abc")
    checks = resolvent.potential_bound_checks("p=3", worst, 1.0, 1.0, 3.0,
                                              1.0, (ALPHA - 1.0) / ALPHA)
    report = build_report("potential_bounds", {}, checks)
    assert report.verdict == "fail"
    assert report.failures == ["p=3:a", "p=3:b", "p=3:c"]


@pytest.mark.parametrize("n_probes", [3, 8])
def test_shared_probes_save_one_transform_each(grid, monkeypatch, n_probes):
    mol = drifts.mollify(drifts.hardy_drift(0.05, ALPHA, 3), n=4, grid=grid,
                         epsilon_n=0.5)
    potential = mol.magnitude()
    phi = resolvent.l2_extremizer(potential, 1.0, grid, ALPHA, seed=3,
                                  start=None)
    calls = [0]
    apply = FourierMultiplier.apply

    def counted(self, data):
        calls[0] += 1
        return apply(self, data)

    monkeypatch.setattr(FourierMultiplier, "apply", counted)

    def transforms(exponents):
        calls[0] = 0
        resolvent.verify_lp_inequalities(
            potential, exponents, 1.0, 0.01, grid, ALPHA, n_probes=n_probes,
            seed=3, delta=0.05, extremizer=phi)
        return calls[0]

    separate = transforms((2.0,)) + transforms((4.5,))
    assert separate - transforms((2.0, 4.5)) == max(4, n_probes - 3) + 1


def sequential_probe_bounds(potential, res, exponents, weight, shared,
                            own=None):
    """The one-thread probe loop: every norm on the caller, as each probe
    is drawn, in the order of the pipelined loop's fold."""
    def norm(f, p):
        return res.grid.lp_norm(f, p, weight)

    with np.errstate(divide="ignore", invalid="ignore"):
        mults = [[PointwiseMultiplier(res.grid, np.where(
            potential > 0, potential ** (1.0 / e), 0.0))
            for e in (p, p / (p - 1.0))] for p in exponents]
    worst = [{"a": 0.0, "b": 0.0, "c": 0.0} for _ in exponents]
    counts = [0] * len(exponents)

    def take(i, f, rf):
        counts[i] += 1
        p, (mul_p, mul_pc), w = exponents[i], mults[i], worst[i]
        nf = norm(f, p)
        if nf == 0.0:
            return
        c = res.apply(mul_pc.apply(f))
        w["a"] = max(w["a"], norm(mul_p.apply(rf), p) / nf)
        w["b"] = max(w["b"], norm(mul_p.apply(c), p) / nf)
        w["c"] = max(w["c"], norm(c, p) / nf)

    for f in shared:
        rf = res.apply(f)
        for i in range(len(exponents)):
            take(i, f, rf)
    for i, p in enumerate(exponents):
        for f in own(p) if own else ():
            take(i, f, res.apply(f))
    return list(zip(worst, counts))


@settings(max_examples=25, deadline=None)
@given(n=st.sampled_from([8, 16]), amplitude=st.floats(0.0, 2.0),
       seed=st.integers(0, 2**31 - 1), n_probes=st.integers(1, 8),
       zero_at=st.integers(0, 8),
       exponents=st.lists(st.floats(1.1, 8.0), min_size=1, max_size=3),
       weighted=st.booleans())
def test_pipelined_probe_loop_equals_the_sequential_loop(
        n, amplitude, seed, n_probes, zero_at, exponents, weighted):
    grid, potential = smooth_potential(n, amplitude, seed)
    res = resolvent_power(grid, ALPHA, 1.0, (ALPHA - 1.0) / ALPHA)
    weight = None
    if weighted:
        eta = WeightSpec(grid, 0.5, ALPHA)
        res, weight = eta.conjugate(res), eta.lattice**2
    probes = [rand(grid, seed + k) for k in range(n_probes)]
    probes.insert(min(zero_at, n_probes), np.zeros(grid.shape))
    extra = rand(grid, seed + n_probes)

    def own(p):
        return [np.zeros(grid.shape), p * extra]

    calls = []
    apply = FourierMultiplier.apply

    def counted(self, data):
        calls.append(1)
        return apply(self, data)

    found = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FourierMultiplier, "apply", counted)
        for name, loop in (("pipelined", resolvent.probe_potential_bounds),
                           ("sequential", sequential_probe_bounds)):
            calls.clear()
            found[name] = (loop(potential, res, exponents, weight,
                                iter(probes), own), len(calls))
    assert found["pipelined"] == found["sequential"]
    (reports, transforms) = found["pipelined"]
    assert [count for _, count in reports] == [n_probes + 3] * len(exponents)
    assert transforms > 0


def test_the_probe_draw_is_replayed_bitwise(monkeypatch):
    # the fields the loop hands to R, in order, against a replay of the
    # draw: n_probes - 3 random or sign fields from default_rng(seed), the
    # bump at the potential maximum, then the transported extremizer and
    # its modulus for each exponent
    grid, potential = smooth_potential(8, 1.0, 5)
    exponents, seed, n_probes = (2.0, 4.5), 20240801, 50
    phi = rand(grid, 7)
    handed = []
    apply = FourierMultiplier.apply

    def recorded(self, data):
        handed.append(np.array(data, copy=True))
        return apply(self, data)

    monkeypatch.setattr(FourierMultiplier, "apply", recorded)
    resolvent.verify_lp_inequalities(
        potential, exponents, 1.0, 0.01, grid, ALPHA, n_probes=n_probes,
        seed=seed, delta=0.05, extremizer=phi)

    mask = potential > 1e-9 * np.max(potential)

    with np.errstate(divide="ignore", invalid="ignore"):
        v_pc = {p: np.where(potential > 0,
                            potential ** (1.0 / (p / (p - 1.0))), 0.0)
                for p in exponents}
        transported = {p: np.where(mask, potential ** (1.0 / p - 0.5), 0.0)
                       * phi for p in exponents}
    rng = np.random.default_rng(seed)
    shared = []
    for _ in range(n_probes - 3):
        kind = rng.integers(0, 2)
        f = rng.standard_normal(grid.shape)
        shared.append(np.sign(f) if kind == 1 else f)
    bump = np.zeros(grid.shape)
    bump[np.unravel_index(np.argmax(potential), grid.shape)] = 1.0
    shared.append(bump)
    expect = [g for f in shared for g in [f] + [v_pc[p] * f
                                               for p in exponents]]
    for p in exponents:
        f = transported[p]
        expect += [f, v_pc[p] * f, np.abs(f), v_pc[p] * np.abs(f)]
    assert len(handed) == len(expect) == 48 * 3 + 8
    for got, ref in zip(handed, expect):
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))


def test_pipelined_probe_loops_under_thread_stress():
    # three callers at once, each with its own norm worker (six threads on
    # two cores), switching every 10 us: each folds the sequential ratios
    grid, potential = smooth_potential(16, 1.0, 11)
    res = resolvent_power(grid, ALPHA, 1.0, (ALPHA - 1.0) / ALPHA)
    exponents = [2.0, 4.5]
    probes = [rand(grid, k) for k in range(12)] + [np.zeros(grid.shape)]
    expect = sequential_probe_bounds(potential, res, exponents, None,
                                     iter(probes))
    found = [None] * 3

    def run(k):
        found[k] = resolvent.probe_potential_bounds(
            potential, res, exponents, None, iter(probes))

    threads = [threading.Thread(target=run, args=(k,)) for k in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert found == [expect] * 3
