import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate

from stablelab import kernels
from stablelab.errors import ParameterError
from stablelab.profiles import cutoff_profile

ALPHA = 1.5


def test_peak_closed_form_vs_quadrature():
    # on-diagonal value: non-oscillatory radial integral as the oracle
    t = 0.7
    direct, _ = integrate.quad(lambda u: np.exp(-t * u**ALPHA) * u**2, 0, np.inf)
    direct *= kernels.sphere_area(3) / (2.0 * np.pi) ** 3
    assert kernels.heat_kernel_peak(ALPHA, 3, t) == pytest.approx(direct, rel=1e-10)
    # frozen value for (alpha, d, t) = (1.5, 3, 1)
    assert kernels.heat_kernel_peak(ALPHA, 3, 1.0) == pytest.approx(
        0.033773727880779265, rel=1e-12)


@pytest.mark.parametrize("dim", [1, 3])
def test_scaling_self_similarity(dim):
    # p_2(r) = 2^(-d/alpha) p_1(2^(-1/alpha) r)
    r = 1.3
    lhs = kernels.heat_kernel_value(ALPHA, dim, 2.0, r)
    rhs = 2.0 ** (-dim / ALPHA) * kernels.heat_kernel_value(
        ALPHA, dim, 1.0, 2.0 ** (-1.0 / ALPHA) * r)
    assert lhs == pytest.approx(rhs, rel=1e-6)


def test_unsupported_dimensions_raise_before_any_quadrature(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("quadrature ran")

    monkeypatch.setattr(kernels, "_fourier_quad", refuse)
    monkeypatch.setattr(kernels, "_marginal_mass_halfline", refuse)
    for fn in (kernels.heat_kernel_value, kernels.heat_kernel_radial_derivative):
        for dim in (2, 4):
            with pytest.raises(ParameterError,
                               match=f"supports dim 1 or 3, got {dim}"):
                fn(ALPHA, dim, 1.0, 0.5)
    for dim in (1, 2, 4):
        with pytest.raises(ParameterError, match=f"supports dim 3, got {dim}"):
            kernels.ball_mass(ALPHA, dim, 1.0, 0.5)


def test_dimension_lift_identity():
    # p3(r) = -p1'(r) / (2 pi r): ties the d=3 quadrature to the d=1 one
    for r in (0.4, 1.0, 3.0):
        lhs = kernels.heat_kernel_value(ALPHA, 3, 1.0, r)
        rhs = -kernels.heat_kernel_radial_derivative(ALPHA, 1, 1.0, r) / (2 * np.pi * r)
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_tail_power_law_trend():
    # r^(d+alpha) p_1(r) approaches the jump-kernel coefficient from above
    c = kernels.levy_jump_constant(ALPHA, 3)
    vals = [kernels.heat_kernel_value(ALPHA, 3, 1.0, r) * r ** (3 + ALPHA)
            for r in (5.0, 10.0, 20.0, 50.0)]
    assert all(v > c for v in vals)
    assert np.all(np.diff(vals) < 0)
    assert vals[-1] == pytest.approx(c, rel=0.05)


def test_gradient_kernel_negative_and_consistent():
    # radial derivative is negative; finite differences agree
    r, h = 1.2, 1e-4
    der = kernels.heat_kernel_radial_derivative(ALPHA, 3, 1.0, r)
    fd = (kernels.heat_kernel_value(ALPHA, 3, 1.0, r + h)
          - kernels.heat_kernel_value(ALPHA, 3, 1.0, r - h)) / (2 * h)
    assert der < 0
    assert der == pytest.approx(fd, rel=1e-5)


def test_ball_mass_monotone_to_one():
    masses = [kernels.ball_mass(ALPHA, 3, 0.5, R) for R in (1.0, 2.0, 5.0, 50.0)]
    assert np.all(np.diff(masses) > 0)
    assert masses[-1] == pytest.approx(1.0, abs=2e-3)
    # tail matches the jump-measure asymptotic at large radius
    tail = 1.0 - masses[-1]
    predict = 0.5 * kernels.levy_jump_constant(ALPHA, 3) * kernels.sphere_area(3) \
        / ALPHA * 50.0 ** (-ALPHA)
    assert tail == pytest.approx(predict, rel=0.05)


def test_ball_mass_vs_direct_shell_integral():
    R, t = 2.0, 1.0
    grid_r = np.linspace(1e-3, R, 400)
    shell = np.trapezoid(
        [4 * np.pi * r * r * kernels.heat_kernel_value(ALPHA, 3, t, r) for r in grid_r],
        grid_r)
    assert kernels.ball_mass(ALPHA, 3, t, R) == pytest.approx(shell, rel=1e-3)


def test_cutoff_mass_between_ball_masses():
    t, k = 0.3, 2.0
    v = kernels.cutoff_mass(ALPHA, 3, t, k, lambda r: cutoff_profile(r, k))
    assert kernels.ball_mass(ALPHA, 3, t, k) < v < kernels.ball_mass(ALPHA, 3, t, k + 1)


def test_marginal_cdf_properties():
    cdf = kernels.stable_marginal_cdf(ALPHA)
    xs = np.linspace(-30, 30, 201)
    vals = cdf(xs)
    assert np.all(np.diff(vals) >= -1e-12)
    assert cdf(0.0) == pytest.approx(0.5, abs=1e-9)
    np.testing.assert_allclose(cdf(xs) + cdf(-xs), 1.0, atol=1e-9)


def test_marginal_cdf_vs_scipy():
    levy_stable = pytest.importorskip("scipy.stats").levy_stable
    cdf = kernels.stable_marginal_cdf(ALPHA)
    for x in (0.5, 2.0, 8.0):
        ref = levy_stable.cdf(x, ALPHA, 0, scale=1.0)
        assert cdf(x) == pytest.approx(ref, abs=2e-6)


def test_kernel_profile_interpolates_quadrature():
    prof = kernels.kernel_profile(ALPHA, 3)
    for t, r in ((0.5, 0.8), (2.0, 3.0), (1.0, 0.05)):
        direct = kernels.heat_kernel_value(ALPHA, 3, t, r)
        assert prof.density_at(t, r) == pytest.approx(direct, rel=1e-5)
        directg = -kernels.heat_kernel_radial_derivative(ALPHA, 3, t, r)
        assert prof.gradient_at(t, r) == pytest.approx(directg, rel=1e-5)


def test_resolvent_kernel_value_vs_balakrishnan_route():
    # whole resolvent kernel via Laplace-time integral vs an independent
    # direct time integral with scipy quadrature
    mu, r = 2.0, 1.0
    val = kernels.resolvent_kernel(kernels.kernel_profile(ALPHA, 3).density_at,
                                   mu, r, 1.0)
    direct, _ = integrate.quad(
        lambda t: np.exp(-mu * t) * kernels.heat_kernel_value(ALPHA, 3, t, r),
        0, np.inf, limit=200)
    assert val == pytest.approx(direct, rel=1e-5)


def test_estimate_gradient_constant():
    mus = np.geomspace(0.1, 100.0, 6)
    rs = np.geomspace(0.05, 20.0, 8)
    spec = [(mu, r) for mu in mus for r in rs]
    est = kernels.estimate_gradient_constant(ALPHA, 3, spec)
    assert est.m_est > 0
    # residual nonnegative at every sampled pair follows by construction;
    # the analytic envelope route must dominate the kappa=1 column
    assert est.per_kappa[1.0] <= est.analytic_bound * (1.0 + 1e-9)
    # refinement stability: doubling the sample density moves m_est < 5%
    mus2 = np.geomspace(0.1, 100.0, 12)
    rs2 = np.geomspace(0.05, 20.0, 16)
    est2 = kernels.estimate_gradient_constant(ALPHA, 3, [(m, r) for m in mus2 for r in rs2])
    assert abs(est2.m_est - est.m_est) <= 0.05 * est.m_est


def test_estimate_gradient_constant_empty_spec():
    with pytest.raises(ParameterError):
        kernels.estimate_gradient_constant(ALPHA, 3, [])


# Closed-form oracles of the time-one 1D density p1 (Nolan's series):
# p1(x) = 1/(pi alpha) sum_k (-1)^k Gamma((2k+1)/alpha) x^(2k) / (2k)!,
# convergent for every x, and p1(x) ~ 1/pi sum_(k>=1) (-1)^(k+1)
# Gamma(alpha k + 1) / k! sin(k pi alpha / 2) x^(-alpha k - 1) as x -> oo.
# The lift p3(r) = -p1'(r) / (2 pi r) carries both to d = 3.


def small_x_series(x, dim, derivative):
    """p1, p1', p3 or p3' at x <= 1, from the convergent series summed
    term by term: p3(x) = -1/(2 pi) sum_(k>=1) c_k x^(2k-2) / (2k-1)!
    with c_k the coefficients of p1, so no term cancels another."""
    total = 0.0
    for k in range(0 if dim == 1 else 1, 60):
        c = (-1) ** k * math.gamma((2 * k + 1) / ALPHA) / (math.pi * ALPHA)
        if dim == 1:
            n, c = 2 * k, c / math.factorial(2 * k)
        else:
            n, c = 2 * k - 2, -c / (2 * math.pi * math.factorial(2 * k - 1))
        if derivative:
            n, c = n - 1, c * n
        total += c * x ** n
    return total


def large_x_series(x, dim, terms):
    """p1 or p3 at large x from the first ``terms`` terms of the power
    tail; d = 3 through the lift, term by term."""
    total = 0.0
    for k in range(1, terms + 1):
        a = ((-1) ** (k + 1) * math.gamma(ALPHA * k + 1) / math.factorial(k)
             * math.sin(k * math.pi * ALPHA / 2) / math.pi)
        if dim == 1:
            total += a * x ** (-ALPHA * k - 1)
        else:
            total += a * (ALPHA * k + 1) * x ** (-ALPHA * k - 3) / (2 * math.pi)
    return total


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("x", [1e-3, 0.05, 0.3, 0.7, 1.0])
def test_small_x_values_match_the_convergent_series(dim, x):
    value = kernels.heat_kernel_value(ALPHA, dim, 1.0, x)
    assert value == pytest.approx(small_x_series(x, dim, 0), rel=1e-9)
    der = kernels.heat_kernel_radial_derivative(ALPHA, dim, 1.0, x)
    assert der == pytest.approx(small_x_series(x, dim, 1), rel=1e-9)


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("x", [100.0, 200.0, 400.0])
def test_large_x_values_match_the_power_tail_series(dim, x):
    value = kernels.heat_kernel_value(ALPHA, dim, 1.0, x)
    assert value == pytest.approx(large_x_series(x, dim, 4), rel=1e-9)


def test_a_short_time_takes_the_same_nodes():
    # p_t(r) = t^(-d/alpha) p1(t^(-1/alpha) r): at t = 1e-6, r = 0.3 is
    # x = 3000 on the time-one scale, deep in the power tail; the ray
    # rule keeps its nodes, where a rule on [0, (45/t)^(1/alpha)] would
    # need some 10^5 of them
    t, r = 1e-6, 0.3
    x = r * t ** (-1.0 / ALPHA)
    tracemalloc.start()
    try:
        value = kernels.heat_kernel_value(ALPHA, 1, t, r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == pytest.approx(
        t ** (-1.0 / ALPHA) * large_x_series(x, 1, 4), rel=1e-9)
    assert peak < 2**20


def spline_knots():
    """The knots and values the package splines: the kernel profile's log
    density, and the marginal CDF's density."""
    xs = kernels.kernel_profile(ALPHA, 3)._logx
    yield xs, np.log(kernels._radial(ALPHA, 3, 1.0, np.exp(xs))[0])
    n = kernels._CDF_POINTS
    xs = np.r_[np.linspace(0.0, 2.0, n // 3, endpoint=False),
               np.geomspace(2.0, kernels._CDF_X_MAX, n - n // 3)]
    yield xs, np.concatenate([[kernels.heat_kernel_peak(ALPHA, 1, 1.0)],
                              kernels._radial(ALPHA, 1, 1.0, xs[1:])[0]])


def test_spline_and_its_antiderivative_are_scipys():
    interpolate = pytest.importorskip("scipy.interpolate")
    for xs, ys in spline_knots():
        points = np.concatenate([xs, 0.5 * (xs[1:] + xs[:-1]),
                                 np.linspace(xs[0], xs[-1], 997)])
        ours = kernels._Spline.not_a_knot(xs, ys)
        theirs = interpolate.CubicSpline(xs, ys)
        np.testing.assert_allclose(ours(points), theirs(points), rtol=1e-13)
        np.testing.assert_allclose(ours.antiderivative()(points),
                                   theirs.antiderivative()(points),
                                   rtol=1e-13, atol=1e-16)
