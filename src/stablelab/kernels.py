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
from numpy.polynomial.polynomial import polyval
from scipy import linalg, special

from .errors import ParameterError, QuadratureError

# ray quadrature: decay exponent at the cut; r values per block, so that each
# temporary (118 kB) stays below malloc's 128 KiB mmap threshold
_RAY_CUT = 50.0
_RAY_CHUNK = 8
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


def _fourier_quad(alpha, t, r, powers):
    """int_0^inf exp(-t u^alpha) u^j cos(r u) du for even j, and the sin
    integral for odd j, one row per j of ``powers``, at each r >= 0.

    These are parts of int exp(-t u^alpha) u^j e^(i r u) du, whose
    integrand is analytic and decays for 0 <= arg u < pi/(2 alpha): the
    rule runs along u = v e^(i angle) until exp(-t u^alpha) or e^(i r u)
    is below exp(-_RAY_CUT), on the real axis if the first decays first,
    else at angle pi/(4 alpha), u^alpha = v^alpha e^(i pi/4), taking
    e^(i r u) (exp(-t u^alpha) - 1): the rest, j! (i/r)^(j+1), is not read."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    with np.errstate(divide="ignore"):
        cut_r = _RAY_CUT / (r * np.sin(np.pi / (4.0 * alpha)))
    cut_t = (_RAY_CUT / (t * np.cos(np.pi / 4.0))) ** (1.0 / alpha)
    ray, cut = cut_r < cut_t, np.minimum(cut_r, cut_t)
    turn = np.exp(1j * np.where(ray, np.pi / (4.0 * alpha), 0.0))
    t_cut = t * cut**alpha * np.where(ray, np.exp(0.25j * np.pi), 1.0)
    out = np.empty((len(powers), r.size))
    for b in (slice(lo, lo + _RAY_CHUNK) for lo in range(0, r.size, _RAY_CHUNK)):
        v = cut[b, None] * _RAY_NODES
        z = np.exp(1j * turn[b, None] * (r[b, None] * v)) * (
            ~ray[b, None] + np.expm1(-t_cut[b, None] * _RAY_NODES**alpha))
        for row, j in enumerate(powers):
            part = (z * v**j) @ _RAY_WEIGHTS * (cut[b] * turn[b] ** (j + 1))
            out[row, b] = part.imag if j % 2 else part.real
    if not np.all(np.isfinite(out)):
        raise QuadratureError("ray quadrature failed", {"alpha": alpha, "t": t})
    return out


def _gauss(edges, n):
    """n-point Gauss-Legendre nodes and weights on each panel of edges."""
    x, w = np.polynomial.legendre.leggauss(n)
    half = 0.5 * np.diff(edges)[:, None]
    return (edges[:-1, None] + half * (x + 1.0)).ravel(), (half * w).ravel()


# 920 nodes on [0, 1] for every r and t: 30 panels halving toward 0 (the
# v^alpha branch point) up to 1/16, then 16 equal panels
_RAY_NODES, _RAY_WEIGHTS = _gauss(
    np.r_[0.0, 2.0 ** np.arange(-33, -3), np.linspace(1 / 16, 1, 17)[1:]], 20)


def _radial(alpha, dim, t, r):
    """Values and radial derivatives of the kernel on R^d, d = 1 or 3, at
    each r > 0, from the ``_fourier_quad`` integrals C_j (cos) and S_j (sin):
    p1 = C0 / pi, p1' = -S1 / pi, p3 = S1 / (2 pi^2 r), p3' = (C2 - S1/r) / (2 pi^2 r)."""
    _check(alpha, dim, t)
    if dim not in (1, 3):
        raise ParameterError(f"radial quadrature supports dim 1 or 3, got {dim}")
    if dim == 1:
        c0, s1 = _fourier_quad(alpha, t, r, (0, 1))
        return c0 / np.pi, -s1 / np.pi
    s1, c2 = _fourier_quad(alpha, t, r, (1, 2))
    scale = 2.0 * np.pi**2 * r
    return s1 / scale, (c2 - s1 / r) / scale


def heat_kernel_value(alpha: float, dim: int, t: float, r: float) -> float:
    """Kernel of exp(-t(-Laplacian)^(alpha/2)) on R^d, d = 1 or 3, at r."""
    if r < 0:
        raise ParameterError("r must be nonnegative")
    return (heat_kernel_peak(alpha, dim, t) if r == 0.0
            else float(_radial(alpha, dim, t, r)[0][0]))


def heat_kernel_radial_derivative(alpha: float, dim: int, t: float, r: float) -> float:
    """d/dr of the radial kernel profile, d = 1 or 3 (negative for r > 0)."""
    if r <= 0:
        raise ParameterError("r must be positive")
    return float(_radial(alpha, dim, t, r)[1][0])


def _marginal_mass_halfline(alpha, t, radius):
    """int_0^R p1(v) dv for the 1D marginal density p1."""
    v, w = _gauss(np.array([0.0, radius]), _HALFLINE_NODES)
    return float(np.sum(w * _radial(alpha, 1, t, v)[0]))


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
    r, w = _gauss(np.array([k, k + 1.0]), 24)
    vals = _radial(alpha, dim, t, r)[0]
    shell = sphere_area(dim) * np.sum(w * profile(r) * vals * r ** (dim - 1))
    return inner + shell


def stable_marginal_cdf(alpha: float):
    """CDF of a 1D coordinate of the d-dim increment at time t = 1 (itself
    1D symmetric stable with exponent exp(-|k|^alpha)).  Returns a
    vectorized callable: a density spline integrated exactly on
    [0, _CDF_X_MAX], asymptotic power tail beyond."""
    t = 1.0
    x_max, n_points = _CDF_X_MAX, _CDF_POINTS
    xs = np.r_[np.linspace(0.0, 2.0, n_points // 3, endpoint=False),
               np.geomspace(2.0, x_max, n_points - n_points // 3)]
    dens = np.r_[heat_kernel_peak(alpha, 1, t), _radial(alpha, 1, t, xs[1:])[0]]
    half_mass = _Spline.not_a_knot(xs, dens).antiderivative()
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


class _Spline:
    """Piecewise polynomial on the knots x with coefficients c[:, i] in
    powers of x - x[i], highest first."""

    def __init__(self, x, c):
        self.x, self.c = x, c

    @classmethod
    def not_a_knot(cls, x, y):
        """The not-a-knot cubic spline through (x, y), built as
        scipy.interpolate.CubicSpline builds it."""
        dx, d0, d1 = np.diff(x), x[2] - x[0], x[-1] - x[-3]
        slope = np.diff(y) / dx
        bands = np.array([np.r_[0.0, d0, dx[:-1]],
                          np.r_[dx[1], 2 * (dx[:-1] + dx[1:]), dx[-2]],
                          np.r_[dx[1:], d1, 0.0]])
        rhs = np.r_[((dx[0] + 2 * d0) * dx[1] * slope[0] + dx[0]**2 * slope[1]) / d0,
                    3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:]),
                    (dx[-1]**2 * slope[-2] + (2 * d1 + dx[-1]) * dx[-2] * slope[-1]) / d1]
        s = linalg.solve_banded((1, 1), bands, rhs, check_finite=False)
        t = (s[:-1] + s[1:] - 2 * slope) / dx
        return cls(x, np.stack([t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]]))

    def __call__(self, xq):
        i = np.clip(np.searchsorted(self.x, xq, side="right") - 1, 0, self.x.size - 2)
        return polyval(xq - self.x[i], self.c[::-1, i], tensor=False)

    def antiderivative(self):
        """The integral from x[0]."""
        c = np.vstack([self.c / np.arange(len(self.c), 0, -1)[:, None],
                       np.zeros(self.x.size - 1)])
        c[-1, 1:] = np.cumsum(polyval(np.diff(self.x), c[::-1], tensor=False)[:-1])
        return _Spline(self.x, c)


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
        dens, grad = _radial(self.alpha, self.dim, 1.0, xs)
        grad = -grad  # |P'|
        if np.any(dens <= 0) or np.any(grad <= 0):
            raise QuadratureError("kernel profile lost positivity",
                                  {"alpha": self.alpha, "dim": self.dim})
        self._logx = np.log(xs)
        self._dens = _Spline.not_a_knot(self._logx, np.log(dens))
        self._grad = _Spline.not_a_knot(self._logx, np.log(grad))
        self.peak = heat_kernel_peak(self.alpha, self.dim, 1.0)
        # Radial curvature at the origin: Laplacian of p_1 at 0 divided by d.
        self.curvature = (sphere_area(self.dim)
                          * special.gamma((self.dim + 2.0) / self.alpha)
                          / (self.alpha * (2.0 * np.pi) ** self.dim * self.dim))
        self._tail_dens = dens[-1] * xs[-1] ** (self.dim + self.alpha)
        self._tail_grad = grad[-1] * xs[-1] ** (self.dim + self.alpha + 1.0)

    def _piecewise(self, x_in, small, spline, tail_coeff, tail_power):
        x = np.atleast_1d(np.asarray(x_in, dtype=float))
        out = np.empty_like(x)
        lo = x < _PROFILE_X_MIN
        hi = x > _PROFILE_X_MAX
        mid = ~(lo | hi)
        out[lo] = small(x[lo])
        out[mid] = np.exp(spline(np.log(x[mid])))
        out[hi] = tail_coeff * x[hi] ** -tail_power
        return out if np.ndim(x_in) else float(out[0])

    def density(self, x):
        """P(x) = p_1(x), vectorized."""
        return self._piecewise(
            x, lambda y: self.peak - 0.5 * self.curvature * y**2,
            self._dens, self._tail_dens, self.dim + self.alpha)

    def gradient(self, x):
        """|P'(x)|, vectorized."""
        return self._piecewise(
            x, lambda y: self.curvature * y,
            self._grad, self._tail_grad, self.dim + self.alpha + 1.0)

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
    per_kappa = {kappa: max(lhs[(mu, r)] / resolvent_kernel(
        prof.density_at, mu / kappa, r, gamma_frac) for mu, r in samples)
        for kappa in _KAPPAS}
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
