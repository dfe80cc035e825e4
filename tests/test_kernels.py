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
