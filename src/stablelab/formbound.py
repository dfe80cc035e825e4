"""Numerical drift-class estimation.

The weak form-bound of a drift b is the squared operator norm of
|b|^(1/2) (lam + A)^(-(alpha-1)/(2 alpha)) on L^2; the Kato-class norm is
the sup norm of (lam + A)^(-(alpha-1)/alpha) |b|.  Both are computed on
the torus lattice, where the zero Fourier mode makes lam -> 0 ill-posed,
so vanishing spectral shifts are approached along a ladder of small lam
values and the best (smallest) certified bound is reported.

Every operator norm here is the top eigenvalue of a self-adjoint PSD
lattice operator, found by one eigensolver, `top_eigenpair`: implicitly
restarted Lanczos (ARPACK through `eigsh`) with a residual certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import special
from scipy.sparse.linalg import ArpackNoConvergence, eigsh
from scipy.sparse.linalg import LinearOperator as ScipyLinOp

from .drifts import DriftSpec, MollifiedDrift
from .errors import ConvergenceError, ParameterError
from .grid import TorusGrid, VectorField
from .kernels import ball_volume
from .operators import (Compose, FourierMultiplier, LatticeOperator,
                        PointwiseMultiplier, resolvent_power)

# Lanczos basis size kept between implicit restarts
LANCZOS_NCV = 8


@dataclass
class FormBoundEstimate:
    """Result of a drift-class norm estimation, with the eigensolver's
    operator applies and the residual of its eigenpair."""

    class_tag: str
    delta_est: float
    lam: float
    matvecs: int = 0
    residual: float = 0.0
    variant: str = "frac"
    per_lambda: dict = field(default_factory=dict)


def drift_magnitude(b, grid: TorusGrid) -> np.ndarray:
    """Lattice |b| for any accepted drift representation."""
    if isinstance(b, MollifiedDrift):
        if b.grid != grid:
            raise ParameterError("mollified drift lives on a different grid")
        return b.magnitude()
    if isinstance(b, DriftSpec):
        return b.lattice_magnitude(grid)
    if isinstance(b, VectorField):
        return b.magnitude()
    arr = np.asarray(b, dtype=float)
    if arr.shape != grid.shape:
        raise ParameterError("drift magnitude has wrong shape")
    return arr


def top_eigenpair(op: LatticeOperator, grid: TorusGrid, tol=1e-6, seed=0):
    """Largest eigenvalue of a self-adjoint PSD lattice operator by
    implicitly restarted Lanczos (``eigsh``, which="LA") from the start
    vector ``default_rng(seed).standard_normal``.

    Returns ``(value, vector, matvecs, residual)``: the Ritz value, its
    unit eigenfield, the number of operator applies (the residual's one
    included) and ``||op v - value v||``, which ARPACK's stop keeps near
    or below ``tol * value``.  Raises ConvergenceError carrying the last
    Lanczos vector when ARPACK does not converge.
    """
    n = int(np.prod(grid.shape))
    v0 = np.random.default_rng(seed).standard_normal(n)
    state = {"last": v0, "applies": 0}

    def matvec(x):
        state["last"] = np.array(x)  # ARPACK reuses the buffer behind x
        state["applies"] += 1
        return op.apply(state["last"].reshape(grid.shape)).real.ravel()

    lin = ScipyLinOp((n, n), matvec=matvec, dtype=float)
    try:
        vals, vecs = eigsh(lin, k=1, which="LA", ncv=LANCZOS_NCV, tol=tol,
                           v0=v0)
    except ArpackNoConvergence as exc:
        raise ConvergenceError(
            f"Lanczos did not converge: {exc}",
            last_iterate=state["last"].reshape(grid.shape)) from exc
    value, vec = float(vals[0]), vecs[:, 0]
    residual = float(np.linalg.norm(matvec(vec) - value * vec))
    return value, vec.reshape(grid.shape), state["applies"], residual


def fractional_shift_root(grid, alpha, lam, variant="frac") -> FourierMultiplier:
    """(lam + A)^(-(alpha-1)/(2 alpha)) or the equivalent Laplacian form
    (lam - Lap)^(-(alpha-1)/4)."""
    if variant == "frac":
        return resolvent_power(grid, alpha, lam, (alpha - 1.0) / (2.0 * alpha))
    if variant == "gauss":
        sym = (lam + grid.frequency_radius_sq()) ** (-(alpha - 1.0) / 4.0)
        return FourierMultiplier(grid, sym)
    raise ParameterError(f"unknown variant {variant!r}")


def estimate_weak_formbound(b, lam: float, grid: TorusGrid, alpha: float,
                            variant="frac", tol=1e-6,
                            seed=0) -> FormBoundEstimate:
    """Weak form-bound estimate: squared top singular value of
    M_(|b|^(1/2)) o (lam + A)^(-(alpha-1)/(2 alpha)).

    It is the top eigenvalue of the self-adjoint square R M_|b| R, found
    by `top_eigenpair`; the estimate carries its matvec count and its
    eigenpair residual.
    """
    if lam <= 0:
        raise ParameterError("lam must be positive")
    w = drift_magnitude(b, grid)
    if np.max(w) == 0.0:
        return FormBoundEstimate("weak_formbound", 0.0, lam, variant=variant)
    root = fractional_shift_root(grid, alpha, lam, variant)
    square = Compose([root, PointwiseMultiplier(grid, w), root])
    value, _, matvecs, residual = top_eigenpair(square, grid, tol=tol,
                                                seed=seed)
    return FormBoundEstimate("weak_formbound", value, lam, matvecs, residual,
                             variant)


def estimate_weak_formbound_ladder(b, lambdas, grid: TorusGrid, alpha: float,
                                   **kw) -> FormBoundEstimate:
    """Best (smallest) certified weak form-bound over a ladder of shifts.

    Membership in the drift class requires the bound for a single shift,
    so the smallest per-shift estimate certifies the class constant; no
    claim is made that the infimum over all shifts is attained.
    """
    per = {}
    for lam in lambdas:
        per[float(lam)] = estimate_weak_formbound(b, lam, grid, alpha, **kw)
    best_lam = min(per, key=lambda s: per[s].delta_est)
    best = per[best_lam]
    best.per_lambda = {s: per[s].delta_est for s in per}
    return best


def estimate_symmetrized_formbound(b, lam: float, grid: TorusGrid,
                                   alpha: float, tol=1e-6, seed=0) -> float:
    """Norm of |b|^(1/2) (lam+A)^(-(alpha-1)/alpha) |b|^(1/2) on L^2;
    equals the weak form-bound in exact arithmetic and is dominated by
    the Kato-style sup norm by interpolation."""
    w = drift_magnitude(b, grid)
    if np.max(w) == 0.0:
        return 0.0
    return top_eigenpair(symmetrized_sandwich(w, lam, grid, alpha), grid,
                         tol=tol, seed=seed)[0]


def symmetrized_sandwich(w, lam: float, grid: TorusGrid,
                         alpha: float) -> LatticeOperator:
    """sqrt(w) (lam+A)^(-(alpha-1)/alpha) sqrt(w) for a nonnegative
    lattice function w: self-adjoint and PSD, so `top_eigenpair` applies."""
    root = PointwiseMultiplier(grid, np.sqrt(w))
    return Compose([root, resolvent_power(grid, alpha, lam,
                                          (alpha - 1.0) / alpha), root])


def estimate_formbound(b, lam: float, grid: TorusGrid, alpha: float,
                       tol=1e-6, seed=0) -> FormBoundEstimate:
    """Full form-bound class: top singular value of
    M_|b| (lam + A)^(-(alpha-1)/alpha).

    Oracle for the class inclusion form-bounded => weakly form-bounded:
    by the Heinz inequality ||M^(1/2) R^(1/2)||^2 <= ||M R||, so the weak
    form-bound at the same shift never exceeds this estimate.  The
    residual refers to the square R M_|b|^2 R.
    """
    w = drift_magnitude(b, grid)
    if np.max(w) == 0.0:
        return FormBoundEstimate("formbound", 0.0, lam)
    res = resolvent_power(grid, alpha, lam, (alpha - 1.0) / alpha)
    mul = PointwiseMultiplier(grid, w)
    value, _, matvecs, residual = top_eigenpair(
        Compose([res, mul, mul, res]), grid, tol=tol, seed=seed)
    return FormBoundEstimate("formbound", float(np.sqrt(value)), lam,
                             matvecs, residual)


def estimate_kato_norm(b, lam: float, grid: TorusGrid, alpha: float) -> float:
    """Kato-class norm: sup over the lattice of (lam+A)^(-(alpha-1)/alpha)|b|."""
    if lam <= 0:
        raise ParameterError("lam must be positive")
    w = drift_magnitude(b, grid)
    res = resolvent_power(grid, alpha, lam, (alpha - 1.0) / alpha)
    out = res.apply(w)
    return float(np.max(out.real))


@dataclass
class AdmissibleParameters:
    """Derived admissibility data for a target weak form-bound."""

    threshold: float
    holder_threshold: float
    m: float

    def p_interval(self, delta: float):
        """(p_-, p_+) = 2 / (1 -+ sqrt(1 - m delta)); requires 0 < m delta < 1."""
        if delta <= 0:
            raise ParameterError("delta must be positive (p_+ degenerates at 0)")
        md = self.m * delta
        if md >= 1.0:
            raise ParameterError(f"m * delta = {md} must be < 1")
        root = np.sqrt(1.0 - md)
        return 2.0 / (1.0 + root), 2.0 / (1.0 - root)


def admissible_delta_threshold(dim: int, alpha: float, m: float) -> AdmissibleParameters:
    """Largest admissible weak form-bound for the Feller construction:
    4/m * min((d-alpha)/(d-alpha+1)^2, alpha(d+alpha)/(d+2 alpha)^2),
    plus the smaller threshold under which resolvents gain Hoelder
    regularity: 4 (d-alpha)/(d-alpha+1)^2 / m."""
    if m <= 0:
        raise ParameterError("m must be positive")
    if not (1.0 < alpha < 2.0) or dim < 3:
        raise ParameterError("requires dim >= 3 and alpha in (1, 2)")
    t1 = (dim - alpha) / (dim - alpha + 1.0) ** 2
    t2 = alpha * (dim + alpha) / (dim + 2.0 * alpha) ** 2
    return AdmissibleParameters(threshold=4.0 * min(t1, t2) / m,
                                holder_threshold=4.0 * t1 / m, m=m)


def weak_lorentz_reference_delta(prefactor: float, alpha: float, dim: int) -> float:
    """Reference weak form-bound of the radial field |b| = c |x|^(1-alpha)
    through the weak-Lorentz route: delta = (W^(-(alpha-1)/(2d))
    2^(-(alpha-1)/2) Gamma((d-alpha+1)/4)/Gamma((d+alpha-1)/4))^2 * ||b||,
    where W is the unit-ball volume and ||b|| = c W^((alpha-1)/d) is the
    weak-L^(d/(alpha-1)) norm of the field.  Reference only; finite grids
    approach it from below."""
    omega = ball_volume(dim)
    weak_norm = prefactor * omega ** ((alpha - 1.0) / dim)
    coef = (omega ** (-(alpha - 1.0) / (2.0 * dim))
            * 2.0 ** (-(alpha - 1.0) / 2.0)
            * special.gamma((dim - alpha + 1.0) / 4.0)
            / special.gamma((dim + alpha - 1.0) / 4.0))
    return coef**2 * weak_norm
