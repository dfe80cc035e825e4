"""Whole-space radial quadratures for the isotropic stable heat kernel.

Everything here works on R^d (no torus), in d = 3 and for the 1D
marginal: values come from 1D Fourier quadrature of exp(-t rho^alpha).
These routines serve as independent oracles for the lattice operators and
as the machinery behind the pointwise gradient-resolvent comparison constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import integrate, interpolate, special

from .errors import ParameterError, QuadratureError

_QUAD_LIMIT = 400
_QUAD_LIMLST = 600
# Gauss-Legendre nodes of the 1D marginal mass on [0, R]
_HALFLINE_NODES = 64
# marginal CDF: density spline knots, and where the power tail takes over
_CDF_POINTS = 500
_CDF_X_MAX = 400.0
# log-time trapezoid nodes of the resolvent kernels
_LAPLACE_NODES = 1400
# log-spline knots of the kernel profile
_PROFILE_X_MIN = 1e-3
_PROFILE_X_MAX = 60.0
_PROFILE_POINTS_PER_DECADE = 48
# kappa ladder of the gradient comparison constant
_KAPPAS = (0.5, 1.0, 2.0, 4.0)


def sphere_area(dim: int) -> float:
    """Surface area of the unit sphere S^(d-1)."""
    return 2.0 * np.pi ** (dim / 2.0) / special.gamma(dim / 2.0)


def ball_volume(dim: int) -> float:
    return np.pi ** (dim / 2.0) / special.gamma(dim / 2.0 + 1.0)


def levy_jump_constant(alpha: float, dim: int) -> float:
    """Coefficient c of the jump kernel c |y|^(-d-alpha); also the
    coefficient of the large-|x| power tail of the time-one kernel."""
    _check(alpha, dim)
    return (alpha * 2.0 ** (alpha - 1.0) * special.gamma((dim + alpha) / 2.0)
            / (np.pi ** (dim / 2.0) * special.gamma((2.0 - alpha) / 2.0)))


def heat_kernel_peak(alpha: float, dim: int, t: float) -> float:
    """Closed form for the on-diagonal value p_t(0)."""
    _check(alpha, dim, t)
    return (sphere_area(dim) * special.gamma(dim / alpha)
            / (alpha * (2.0 * np.pi) ** dim) * t ** (-dim / alpha))


def _fourier_quad(f, w, kind, rho_scale):
    """int_0^inf f(u) * {sin,cos}(w u) du for decaying smooth f.

    QAWF handles the genuinely oscillatory regime; when fewer than a few
    cycles fit under the decay scale of f, plain adaptive quadrature of
    the explicit product is both safe and accurate (QAWF can silently
    fail for near-zero wvar).
    """
    if w * rho_scale < 30.0:
        osc = np.sin if kind == "sin" else np.cos
        val, err = integrate.quad(lambda u: f(u) * osc(w * u), 0.0,
                                  3.0 * rho_scale, limit=_QUAD_LIMIT)
    else:
        val, err = integrate.quad(f, 0.0, np.inf, weight=kind, wvar=w,
                                  limit=_QUAD_LIMIT, limlst=_QUAD_LIMLST)
    if not np.isfinite(val):
        raise QuadratureError("oscillatory quadrature failed",
                              {"weight": kind, "wvar": w, "err": err})
    return val


def heat_kernel_value(alpha: float, dim: int, t: float, r: float) -> float:
    """Kernel of exp(-t(-Laplacian)^(alpha/2)) on R^d, d = 1 or 3, at r."""
    _check(alpha, dim, t)
    if dim not in (1, 3):
        raise ParameterError(f"radial quadrature supports dim 1 or 3, got {dim}")
    if r < 0:
        raise ParameterError("r must be nonnegative")
    if r == 0.0:
        return heat_kernel_peak(alpha, dim, t)
    scale = (45.0 / t) ** (1.0 / alpha)
    if dim == 1:
        return _fourier_quad(lambda u: np.exp(-t * u**alpha), r, "cos", scale) / np.pi
    i1 = _fourier_quad(lambda u: np.exp(-t * u**alpha) * u, r, "sin", scale)
    return i1 / (2.0 * np.pi**2 * r)


def heat_kernel_radial_derivative(alpha: float, dim: int, t: float, r: float) -> float:
    """d/dr of the radial kernel profile, d = 1 or 3 (negative for r > 0)."""
    _check(alpha, dim, t)
    if dim not in (1, 3):
        raise ParameterError(f"radial quadrature supports dim 1 or 3, got {dim}")
    if r <= 0:
        raise ParameterError("r must be positive")
    scale = (45.0 / t) ** (1.0 / alpha)
    if dim == 1:
        return -_fourier_quad(lambda u: np.exp(-t * u**alpha) * u, r, "sin", scale) / np.pi
    i1 = _fourier_quad(lambda u: np.exp(-t * u**alpha) * u, r, "sin", scale)
    i2 = _fourier_quad(lambda u: np.exp(-t * u**alpha) * u * u, r, "cos", scale)
    return (-i1 / r + i2) / (2.0 * np.pi**2 * r)


def _marginal_mass_halfline(alpha, t, radius):
    """int_0^R p1(v) dv for the 1D marginal density p1."""
    nodes, weights = np.polynomial.legendre.leggauss(_HALFLINE_NODES)
    v = 0.5 * radius * (nodes + 1.0)
    w = 0.5 * radius * weights
    vals = np.array([heat_kernel_value(alpha, 1, t, vi) for vi in v])
    return float(np.sum(w * vals))


def ball_mass(alpha: float, dim: int, t: float, radius: float) -> float:
    """P(|Z_t| <= radius) in d = 3 for the increment with exponent
    exp(-t|k|^alpha): exactly M_3(R) = 2(F(R) - F(0)) - 2 R p1(R) in terms
    of the 1D marginal, a consequence of p3(r) = -p1'(r) / (2 pi r).
    """
    _check(alpha, dim, t)
    if dim != 3:
        raise ParameterError(f"radial quadrature supports dim 3, got {dim}")
    if radius <= 0:
        return 0.0
    return (2.0 * _marginal_mass_halfline(alpha, t, radius)
            - 2.0 * radius * heat_kernel_value(alpha, 1, t, radius))


def cutoff_mass(alpha: float, dim: int, t: float, k: float, profile) -> float:
    """integral of p_t(|y|) * profile(|y|) with profile == 1 on [0, k] and
    0 beyond k + 1 (the smooth radial cutoff)."""
    inner = ball_mass(alpha, dim, t, k)
    nodes, weights = np.polynomial.legendre.leggauss(24)
    r = k + 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    vals = np.array([heat_kernel_value(alpha, dim, t, ri) for ri in r])
    shell = sphere_area(dim) * np.sum(w * profile(r) * vals * r ** (dim - 1))
    return inner + shell


def stable_marginal_cdf(alpha: float):
    """CDF of a 1D coordinate of the d-dim increment at time t = 1 (itself
    1D symmetric stable with exponent exp(-|k|^alpha)).  Returns a
    vectorized callable: a density spline integrated exactly on
    [0, _CDF_X_MAX], asymptotic power tail beyond."""
    t = 1.0
    _check(alpha, 1, t)
    x_max, n_points = _CDF_X_MAX, _CDF_POINTS
    xs = np.concatenate([
        np.linspace(0.0, 2.0, n_points // 3, endpoint=False),
        np.geomspace(2.0, x_max, n_points - n_points // 3),
    ])
    dens = np.array([heat_kernel_value(alpha, 1, t, x) if x > 0
                     else heat_kernel_peak(alpha, 1, t) for x in xs])
    half_mass = interpolate.CubicSpline(xs, dens).antiderivative()
    tail_c = levy_jump_constant(alpha, 1) * t / alpha

    def cdf(x):
        x = np.asarray(x, dtype=float)
        ax = np.abs(x)
        inside = np.clip(ax, 0.0, x_max)
        out = np.where(ax <= x_max,
                       0.5 + half_mass(inside),
                       1.0 - tail_c * np.maximum(ax, x_max) ** (-alpha))
        out = np.clip(out, 0.5, 1.0)
        return np.where(x >= 0, out, 1.0 - out)

    return cdf


# ---------------------------------------------------------------------------
# Scaled profile of the time-one kernel, for fast (t, r) sweeps


@dataclass
class KernelProfile:
    """Log-spline of the time-one radial kernel P and its derivative.

    Self-similarity p_t(r) = t^(-d/alpha) P(t^(-1/alpha) r) turns any
    (t, r) evaluation into a 1D lookup; power-law tails and the quadratic
    origin expansion extend the spline beyond its support.
    """

    alpha: float
    dim: int

    def __post_init__(self):
        _check(self.alpha, self.dim)
        n = int(np.ceil(np.log10(_PROFILE_X_MAX / _PROFILE_X_MIN)
                        * _PROFILE_POINTS_PER_DECADE))
        xs = np.geomspace(_PROFILE_X_MIN, _PROFILE_X_MAX, n)
        dens = np.array([heat_kernel_value(self.alpha, self.dim, 1.0, x)
                         for x in xs])
        grad = np.array([-heat_kernel_radial_derivative(self.alpha, self.dim, 1.0, x)
                         for x in xs])
        if np.any(dens <= 0) or np.any(grad <= 0):
            raise QuadratureError("kernel profile lost positivity",
                                  {"alpha": self.alpha, "dim": self.dim})
        self._logx = np.log(xs)
        self._dens = interpolate.CubicSpline(self._logx, np.log(dens))
        self._grad = interpolate.CubicSpline(self._logx, np.log(grad))
        self.peak = heat_kernel_peak(self.alpha, self.dim, 1.0)
        # Radial curvature at the origin: Laplacian of p_1 at 0 divided by d.
        self.curvature = (sphere_area(self.dim)
                          * special.gamma((self.dim + 2.0) / self.alpha)
                          / (self.alpha * (2.0 * np.pi) ** self.dim * self.dim))
        self._tail_dens = dens[-1] * xs[-1] ** (self.dim + self.alpha)
        self._tail_grad = grad[-1] * xs[-1] ** (self.dim + self.alpha + 1.0)

    def _piecewise(self, x, small, spline, tail_coeff, tail_power):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.empty_like(x)
        lo = x < _PROFILE_X_MIN
        hi = x > _PROFILE_X_MAX
        mid = ~(lo | hi)
        out[lo] = small(x[lo])
        out[mid] = np.exp(spline(np.log(x[mid])))
        out[hi] = tail_coeff * x[hi] ** -tail_power
        return out

    def density(self, x):
        """P(x) = p_1(x), vectorized."""
        out = self._piecewise(
            x, lambda y: self.peak - 0.5 * self.curvature * y**2,
            self._dens, self._tail_dens, self.dim + self.alpha)
        return out if np.ndim(x) else float(out[0])

    def gradient(self, x):
        """|P'(x)|, vectorized."""
        out = self._piecewise(
            x, lambda y: self.curvature * y,
            self._grad, self._tail_grad, self.dim + self.alpha + 1.0)
        return out if np.ndim(x) else float(out[0])

    def density_at(self, t, r):
        return t ** (-self.dim / self.alpha) * self.density(
            np.asarray(r) * t ** (-1.0 / self.alpha))

    def gradient_at(self, t, r):
        return t ** (-(self.dim + 1.0) / self.alpha) * self.gradient(
            np.asarray(r) * t ** (-1.0 / self.alpha))


@lru_cache(maxsize=None)
def kernel_profile(alpha: float, dim: int) -> KernelProfile:
    """The ``KernelProfile`` of (alpha, dim), built once per process."""
    return KernelProfile(alpha, dim)


def resolvent_kernel(heat_at, mu, r, gamma) -> float:
    """Radial kernel of (mu + A)^(-gamma) at r by the log-time trapezoid
    rule for the Laplace-time integral of ``heat_at(t, r)``: a kernel
    profile's ``density_at``, or its ``gradient_at`` for |d/dr| of it."""
    if mu <= 0:
        raise ParameterError("mu must be positive")
    s = np.linspace(min(np.log(1.0 / mu), 0.0) - 40.0 / (gamma + 1.0),
                    np.log(40.0 / mu) + 2.0, _LAPLACE_NODES)
    ds = s[1] - s[0]
    t = np.exp(s)
    vals = np.exp(-mu * t) * t**gamma * heat_at(t, r)
    return float(np.sum(vals) * ds / special.gamma(gamma))


@dataclass
class GradientConstantEstimate:
    """Smallest constant m (with companion kappa) such that the gradient of
    the whole resolvent is dominated pointwise by the fractional resolvent
    at shifted spectral parameter, over the sampled (mu, r) pairs."""

    m_est: float
    kappa_est: float
    analytic_bound: float
    lower_envelope_c: float
    gradient_envelope_k: float
    per_kappa: dict
    samples: list


def estimate_gradient_constant(alpha, dim,
                               sample_spec) -> GradientConstantEstimate:
    """Numerical version of the pointwise gradient-resolvent comparison.

    ``sample_spec`` is an iterable of (mu, r) pairs covering several
    decades.  Both sides are evaluated by radial quadrature of the scaled
    kernel profile; the reported m is the max ratio, minimized over the
    kappa ladder.  The analytic cross-check bound combines the fitted
    two-sided kernel envelopes with the Gamma-factor of the Laplace-time
    route.
    """
    samples = [(float(mu), float(r)) for mu, r in sample_spec]
    if not samples:
        raise ParameterError("sample_spec must contain at least one (mu, r) pair")
    prof = kernel_profile(alpha, dim)
    gamma_frac = (alpha - 1.0) / alpha
    lhs = {s: resolvent_kernel(prof.gradient_at, s[0], s[1], 1.0)
           for s in samples}
    per_kappa = {}
    for kappa in _KAPPAS:
        ratios = []
        for mu, r in samples:
            rhs = resolvent_kernel(prof.density_at, mu / kappa, r,
                                   gamma_frac)
            ratios.append(lhs[(mu, r)] / rhs)
        per_kappa[kappa] = max(ratios)
    kappa_est = min(per_kappa, key=per_kappa.get)
    m_est = per_kappa[kappa_est]

    # Envelope fits on the scaled profile: P >= C * (1 ^ x^(-d-alpha)) and
    # |P'| <= K * (1 ^ x^(-d-alpha)); the comparison chain then bounds the
    # gradient ratio at kappa = 1 by (K/C) Gamma(1 - 1/alpha).
    xs = np.geomspace(_PROFILE_X_MIN, _PROFILE_X_MAX, 400)
    envelope = np.minimum(1.0, xs ** -(dim + alpha))
    c_fit = float(np.min(prof.density(xs) / envelope))
    k_fit = float(np.max(prof.gradient(xs) / envelope))
    analytic = k_fit / c_fit * special.gamma(1.0 - 1.0 / alpha)
    return GradientConstantEstimate(
        m_est=m_est, kappa_est=kappa_est, analytic_bound=analytic,
        lower_envelope_c=c_fit, gradient_envelope_k=k_fit,
        per_kappa=per_kappa, samples=samples)


def _check(alpha, dim, t=None):
    if not (1.0 < alpha < 2.0):
        raise ParameterError(f"alpha must lie in (1, 2), got {alpha}")
    if dim < 1:
        raise ParameterError(f"dim must be >= 1, got {dim}")
    if t is not None and t <= 0:
        raise ParameterError("t must be positive")
