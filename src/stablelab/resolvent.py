"""Perturbed-resolvent calculus for the drifted fractional generator.

Two factorizations of (mu + A + b . grad)^(-1) built from bounded blocks:

* the L^2 route: sandwich of fractional resolvent roots around the
  Neumann inverse of the compression H* S, with
  H = |b|^(1/2) (conj(zeta)+A)^(-(alpha-1)/(2 alpha)) and
  S = b^(1/2) . grad (zeta+A)^(-(alpha+1)/(2 alpha));

* the L^p route: whole resolvent minus a five-factor correction built
  from T = b^(1/p) . grad (mu+A)^(-1) |b|^(1/p') and outer fractional
  powers split between exponents q > p and r < p.

Both reduce algebraically to resolvents of the same lattice operator, so
they must agree to round-off wherever the Neumann series converge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .drifts import MollifiedDrift
from .errors import ParameterError
from .grid import TorusGrid, component_magnitude
from .operators import (Affine, Compose, DotGradient, FourierMultiplier,
                        LatticeOperator, NeumannInverse, PointwiseMultiplier,
                        frac_laplacian, resolvent_power)
from .report import VerificationReport, build_report


def signed_root(vector_data: np.ndarray, power: float) -> np.ndarray:
    """Componentwise b |b|^(power-1) with value 0 where |b| = 0."""
    return vector_data * magnitude_power(vector_data, power - 1.0)


def magnitude_power(vector_data: np.ndarray, power: float) -> np.ndarray:
    """|b|^power with value 0 where |b| = 0."""
    mag = component_magnitude(vector_data, vector_data.shape[1:])
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(mag > 0.0, mag**power, 0.0)


def drifted_generator(drift: MollifiedDrift, grid: TorusGrid,
                      alpha: float) -> LatticeOperator:
    """Lambda = A + b . grad as a lattice handle (direct application)."""
    return Affine([(1.0, frac_laplacian(grid, alpha)),
                   (1.0, DotGradient(drift.lattice.data,
                                     FourierMultiplier(grid, 1.0)))])


def assemble_l2_resolvent(drift: MollifiedDrift, zeta, grid: TorusGrid,
                          alpha: float) -> LatticeOperator:
    """L^2 factorized resolvent of (zeta + A + b . grad).

    Where the Neumann series of the inner compression H* S diverges, the
    first ``apply`` raises ``DivergenceError``.
    """
    b = drift.lattice.data
    minus = (alpha - 1.0) / (2.0 * alpha)
    plus = (alpha + 1.0) / (2.0 * alpha)
    # adjoint of |b|^(1/2) (conj(zeta)+A)^(-minus), times b^(1/2).grad (zeta+A)^(-plus)
    h_adj = Compose([
        resolvent_power(grid, alpha, zeta, minus),
        PointwiseMultiplier(grid, magnitude_power(b, 0.5)),
    ])
    s_op = DotGradient(signed_root(b, 0.5),
                       resolvent_power(grid, alpha, zeta, plus))
    return Compose([
        resolvent_power(grid, alpha, zeta, plus),
        NeumannInverse(Compose([h_adj, s_op])),
        resolvent_power(grid, alpha, zeta, minus),
    ])


@dataclass
class ResolventAssembly:
    """The L^p factorized resolvent with its named building blocks."""

    mu: float
    p: float
    q: float
    r: float
    drift: MollifiedDrift
    handles: dict
    theta: LatticeOperator = field(repr=False, default=None)

    def apply(self, data):
        return self.theta.apply(data)


def assemble_lp_resolvent(drift: MollifiedDrift, mu: float, p: float,
                          q: float, r: float, grid: TorusGrid,
                          alpha: float) -> ResolventAssembly:
    """L^p factorized resolvent of (mu + A + b . grad) in the exponent
    layout of ``lp_resolvent_layout`` with power(gamma) = (mu+A)^(-gamma),
    T = b^(1/p).grad (mu+A)^(-1) |b|^(1/p'),
    Q = (mu+A)^((-1+1/alpha)/q') |b|^(1/p'),
    G = b^(1/p).grad (mu+A)^(-1/alpha+(-1+1/alpha)/r).
    """
    if not (1.0 < r < p < q):
        raise ParameterError("need 1 < r < p < q")
    if mu <= 0:
        raise ParameterError("mu must be positive")
    b = drift.lattice.data
    q_c = q / (q - 1.0)
    p_c = p / (p - 1.0)
    frac = -1.0 + 1.0 / alpha  # negative

    b_pc = PointwiseMultiplier(grid, magnitude_power(b, 1.0 / p_c))
    t_op = Compose([
        DotGradient(signed_root(b, 1.0 / p),
                    resolvent_power(grid, alpha, mu, 1.0)),
        b_pc,
    ])
    q_op = Compose([resolvent_power(grid, alpha, mu, -frac / q_c), b_pc])
    g_op = DotGradient(
        signed_root(b, 1.0 / p),
        resolvent_power(grid, alpha, mu, 1.0 / alpha - frac / r))
    theta, correction = lp_resolvent_layout(
        partial(resolvent_power, grid, alpha, mu), q_op, t_op, g_op, p, q, r,
        alpha)
    handles = {"T": t_op, "Q": q_op, "G": g_op, "correction": correction}
    return ResolventAssembly(mu=mu, p=p, q=q, r=r, drift=drift,
                             handles=handles, theta=theta)


def lp_resolvent_layout(power, q_op, t_op, g_op, p, q, r, alpha):
    """(theta, correction) of the L^p layout, f = -1 + 1/alpha < 0:
      theta = power(1) - power(1/alpha - f/q) Q (1+T)^(-1) G power(-f/r')
    for a family ``power(gamma)`` of (mu+A)^(-gamma) handles (negative
    exponents throughout) and the Q, T, G blocks of assemble_lp_resolvent."""
    frac = -1.0 + 1.0 / alpha
    correction = Compose([
        power(1.0 / alpha - frac / q),
        q_op,
        NeumannInverse(t_op, norm_p=p),
        g_op,
        power(-frac / (r / (r - 1.0))),
    ])
    return Affine([(1.0, power(1.0)), (-1.0, correction)]), correction


def l2_extremizer(potential: np.ndarray, mu: float, grid: TorusGrid,
                  alpha: float, seed: int = 0, start=None) -> np.ndarray:
    """Top eigenfield phi of sqrt(V) (mu+A)^(-(a-1)/a) sqrt(V), the L^2
    extremizer that ``verify_lp_inequalities`` transports to every L^p;
    it does not depend on p.  Solved to tol 1e-8 from ``start`` (such as
    a weak form-bound eigenfield of V) or from the ``seed`` draw."""
    from .formbound import symmetrized_sandwich, top_eigenpair

    return top_eigenpair(symmetrized_sandwich(potential, mu, grid, alpha),
                         grid, tol=1e-8, seed=seed, start=start)[1]


def probe_potential_bounds(potential, res, p, probes, norm):
    """Largest ratios norm(op f) / norm(f) over ``probes`` of the operators
    of bounds (a) V^(1/p) R, (b) V^(1/p) R V^(1/p') and (c) R V^(1/p'),
    R = ``res``, and the number of probes drawn.  Probes of norm 0 are
    skipped; (b) applies V^(1/p) to the output of (c)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        mul_p, mul_pc = (PointwiseMultiplier(res.grid, np.where(
            potential > 0, potential ** (1.0 / e), 0.0))
            for e in (p, p / (p - 1.0)))
    worst = {"a": 0.0, "b": 0.0, "c": 0.0}
    count = 0
    for count, f in enumerate(probes, 1):
        nf = norm(f)
        if nf == 0.0:
            continue
        c = res.apply(mul_pc.apply(f))
        worst["a"] = max(worst["a"], norm(mul_p.apply(res.apply(f))) / nf)
        worst["b"] = max(worst["b"], norm(mul_p.apply(c)) / nf)
        worst["c"] = max(worst["c"], norm(c) / nf)
    return worst, count


def potential_bound_checks(label, worst, delta, c_val, p, mu, gamma):
    """Checks ``label:a``..``label:c`` that worst / bound <= 1 + 1e-6 for
    the right-hand sides (delta c)^(1/p) mu^(-gamma/p'), delta c and
    (delta c)^(1/p') mu^(-gamma/p) of bounds (a)-(c); a zero bound reads 0."""
    p_c = p / (p - 1.0)
    bounds = {"a": (delta * c_val) ** (1.0 / p) * mu ** (-gamma / p_c),
              "b": delta * c_val,
              "c": (delta * c_val) ** (1.0 / p_c) * mu ** (-gamma / p)}
    ratios = {w: worst[w] / b if b != 0.0 else 0.0 for w, b in bounds.items()}
    return [(f"{label}:{w}", r, "<= 1 + 1e-6", r <= 1.0 + 1e-6)
            for w, r in ratios.items()]


def verify_lp_inequalities(potential: np.ndarray, p: float, mu: float,
                           lam: float, grid: TorusGrid, alpha: float,
                           n_probes: int = 50, seed: int = 0,
                           delta: float | None = None,
                           candidates=None,
                           extremizer: np.ndarray | None = None
                           ) -> VerificationReport:
    """Probe the three resolvent-weighted bounds for a nonnegative
    potential V whose weak form-bound at shift lam is delta:

      (a) ||V^(1/p) (mu+A)^(-(a-1)/a) f||_p <= (delta c)^(1/p)
          mu^(-(a-1)/(a p')) ||f||_p
      (b) ||V^(1/p) (mu+A)^(-(a-1)/a) V^(1/p') f||_p <= delta c ||f||_p
      (c) ||(mu+A)^(-(a-1)/a) V^(1/p') f||_p <= (delta c)^(1/p')
          mu^(-(a-1)/(a p)) ||f||_p

    Both candidate constants c in {p p'/4, 4/(p p')} are tested; the two
    coincide at p = 2 and the numerics single out the product form for
    p != 2.  Probes include random fields, sign fields, concentrated
    bumps, and the transported L^2 extremizer, which attains ratio
    delta/(delta c) for candidate c = 1 in every L^p.  ``extremizer`` is
    ``l2_extremizer(potential, mu, grid, alpha, seed)``, solved here when
    not given.  Each probe is evaluated as soon as it is drawn, so a
    bounded number of fields is alive whatever ``n_probes`` is; the
    ratios are maxima, which do not depend on the order.
    """
    from .formbound import estimate_weak_formbound

    if np.any(potential < 0):
        raise ParameterError("potential must be nonnegative")
    if mu < lam:
        raise ParameterError("mu must dominate the form-bound shift lam")
    p_c = p / (p - 1.0)
    gamma = (alpha - 1.0) / alpha
    if candidates is None:
        candidates = {"product_quarter": p * p_c / 4.0,
                      "reciprocal": 4.0 / (p * p_c)}
    if delta is None:
        delta = estimate_weak_formbound(potential, lam, grid, alpha,
                                        seed=seed).delta_est
    if delta == 0.0:
        checks = [(f"{name}:{which}", 0.0, "<= 1 + 1e-6", True)
                  for which in ("a", "b", "c") for name in candidates]
        return build_report("markov_lp_resolvent_bounds",
                            {"p": p, "mu": mu, "lam": lam}, checks)

    rng = np.random.default_rng(seed)

    def probes():
        for _ in range(max(4, n_probes - 3)):
            kind = rng.integers(0, 2)
            f = rng.standard_normal(grid.shape)
            if kind == 1:
                f = np.sign(f)
            yield f
        # concentrated bump at the potential maximum
        peak = np.unravel_index(np.argmax(potential), grid.shape)
        bump = np.zeros(grid.shape)
        bump[peak] = 1.0
        yield bump
        # transported L^2 extremizer: f = V^(1/p - 1/2) phi with phi the top
        # eigenfield of sqrt(V) R sqrt(V); the operator of bound (b),
        # V^(1/p) R V^(1/p'), maps f to delta V^(1/p-1/2) phi
        phi = (extremizer if extremizer is not None
               else l2_extremizer(potential, mu, grid, alpha, seed))
        mask = potential > 1e-9 * np.max(potential)
        with np.errstate(divide="ignore", invalid="ignore"):
            transported = np.where(mask, potential ** (1.0 / p - 0.5), 0.0) * phi
        yield transported
        yield np.abs(transported)

    raw_ratio, count = probe_potential_bounds(
        potential, resolvent_power(grid, alpha, mu, gamma), p, probes(),
        lambda f: grid.lp_norm(f, p))
    checks = [check for name, c_val in candidates.items()
              for check in potential_bound_checks(name, raw_ratio, delta,
                                                  c_val, p, mu, gamma)]
    return build_report(
        "markov_lp_resolvent_bounds",
        {"p": p, "mu": mu, "lam": lam, "delta": delta,
         "candidates": {k: v for k, v in candidates.items()}},
        checks, provenance={"seed": seed, "n_probes": count,
                            "grid_n": grid.points_per_axis})
