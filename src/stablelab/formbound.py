"""Numerical drift-class estimation.

The weak form-bound of a drift b is the squared operator norm of
S = |b|^(1/2) (lam + A)^(-(alpha-1)/(2 alpha)) on L^2; the Kato-class norm
is the sup norm of (lam + A)^(-(alpha-1)/alpha) |b|.  Both are computed on
the torus lattice, where the zero Fourier mode makes lam -> 0 ill-posed,
so vanishing spectral shifts are approached along a ladder of small lam
values and the best (smallest) certified bound is reported.

Every operator norm here is the top eigenvalue of a self-adjoint PSD
lattice operator, found by one eigensolver, `top_eigenpair`: implicitly
restarted Lanczos (ARPACK through `eigsh`) with a residual certificate.
The weak form-bound is the top eigenvalue of SS* (`symmetrized_sandwich`,
one transform pair per apply), and each rung of a shift ladder starts
its Lanczos from the eigenfield of the rung before it.
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
    operator applies, the residual and the eigenfield of its eigenpair."""

    class_tag: str
    delta_est: float
    lam: float
    matvecs: int = 0
    residual: float = 0.0
    variant: str = "frac"
    per_lambda: dict = field(default_factory=dict)
    per_lambda_matvecs: dict = field(default_factory=dict)
    eigenfield: np.ndarray | None = field(default=None, repr=False)


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


def top_eigenpair(op: LatticeOperator, grid: TorusGrid, tol=1e-6, seed=0,
                  start=None):
    """Largest eigenvalue of a self-adjoint PSD lattice operator by
    implicitly restarted Lanczos (``eigsh``, which="LA") from the field
    ``start`` or, without one, from ``default_rng(seed).standard_normal``.

    Returns ``(value, vector, matvecs, residual)``: the Ritz value, its
    unit eigenfield, the number of operator applies (the residual's one
    included) and ``||op v - value v||``, which ARPACK's stop keeps near
    or below ``tol * value``.  A start field that is zero, non-finite or
    off the lattice raises ParameterError before any apply; ARPACK's
    non-convergence raises ConvergenceError with the last Lanczos vector.
    """
    n = int(np.prod(grid.shape))
    if start is None:
        v0 = np.random.default_rng(seed).standard_normal(n)
    else:
        v0 = np.asarray(start, dtype=float)
        if (v0.shape != grid.shape or not np.all(np.isfinite(v0))
                or not np.any(v0)):
            raise ParameterError("start field must be finite and nonzero "
                                 f"on the lattice shape {grid.shape}")
        v0 = v0.ravel()
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


def estimate_weak_formbound(b, lam: float, grid: TorusGrid, alpha: float,
                            variant="frac", tol=1e-6, seed=0,
                            start=None) -> FormBoundEstimate:
    """Weak form-bound estimate: squared top singular value of
    S = M_(|b|^(1/2)) o (lam + A)^(-(alpha-1)/(2 alpha)), or of the
    Laplacian form (lam - Lap)^(-(alpha-1)/4) for ``variant="gauss"``.

    It is the top eigenvalue of SS* = `symmetrized_sandwich`, found by
    `top_eigenpair` from ``start`` (an eigenfield of a nearby sandwich)
    or from the seeded draw; the estimate carries its matvec count, the
    residual ``||SS* v - delta v||`` of that eigenpair and v itself.
    """
    if lam <= 0:
        raise ParameterError("lam must be positive")
    w = drift_magnitude(b, grid)
    if np.max(w) == 0.0:
        return FormBoundEstimate("weak_formbound", 0.0, lam, variant=variant)
    value, vec, matvecs, residual = top_eigenpair(
        symmetrized_sandwich(w, lam, grid, alpha, variant), grid, tol=tol,
        seed=seed, start=start)
    return FormBoundEstimate("weak_formbound", value, lam, matvecs, residual,
                             variant, eigenfield=vec)


def estimate_weak_formbound_ladder(b, lambdas, grid: TorusGrid, alpha: float,
                                   **kw) -> FormBoundEstimate:
    """Best (smallest) certified weak form-bound over a ladder of shifts.

    Membership in the drift class requires the bound for a single shift,
    so the smallest per-shift estimate certifies the class constant; no
    claim is made that the infimum over all shifts is attained.  Rungs
    after the first start from the eigenfield of the rung before; each
    rung's matvecs are kept in ``per_lambda_matvecs``.
    """
    per, start = {}, None
    for lam in lambdas:
        est = estimate_weak_formbound(b, lam, grid, alpha, start=start, **kw)
        per[float(lam)], start = est, est.eigenfield
    best_lam = min(per, key=lambda s: per[s].delta_est)
    best = per[best_lam]
    best.per_lambda = {s: per[s].delta_est for s in per}
    best.per_lambda_matvecs = {s: per[s].matvecs for s in per}
    return best


def symmetrized_sandwich(w, lam: float, grid: TorusGrid, alpha: float,
                         variant="frac") -> LatticeOperator:
    """sqrt(w) (lam+A)^(-(alpha-1)/alpha) sqrt(w) for a nonnegative
    lattice function w, or sqrt(w) (lam - Lap)^(-(alpha-1)/2) sqrt(w) for
    ``variant="gauss"``: self-adjoint and PSD, so `top_eigenpair` applies."""
    if variant == "frac":
        power = resolvent_power(grid, alpha, lam, (alpha - 1.0) / alpha)
    elif variant == "gauss":
        power = FourierMultiplier(grid, (lam + grid.frequency_radius_sq())
                                  ** (-(alpha - 1.0) / 2.0))
    else:
        raise ParameterError(f"unknown variant {variant!r}")
    root = PointwiseMultiplier(grid, np.sqrt(w))
    return Compose([root, power, root])


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
