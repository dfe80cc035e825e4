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

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .drifts import MollifiedDrift
from .errors import ParameterError
from .grid import TorusGrid, _lp_norm_into, component_magnitude
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
                   (1.0, DotGradient(drift.lattice,
                                     FourierMultiplier(grid, 1.0)))])


def assemble_l2_resolvent(drift: MollifiedDrift, zeta, grid: TorusGrid,
                          alpha: float) -> LatticeOperator:
    """L^2 factorized resolvent of (zeta + A + b . grad).

    Where the Neumann series of the inner compression H* S diverges, the
    first ``apply`` raises ``DivergenceError``.
    """
    b = drift.lattice
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
    theta: LatticeOperator = field(repr=False)

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
    b = drift.lattice
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
                  alpha: float, seed: int, start) -> np.ndarray:
    """Top eigenfield phi of sqrt(V) (mu+A)^(-(a-1)/a) sqrt(V), the L^2
    extremizer that ``verify_lp_inequalities`` transports to every L^p;
    it does not depend on p.  Solved to tol 1e-8 from ``start`` (such as
    a weak form-bound eigenfield of V) or from the ``seed`` draw."""
    from .formbound import symmetrized_sandwich, top_eigenpair

    if not np.any(potential):
        raise ParameterError("the potential is zero on the lattice")
    return top_eigenpair(symmetrized_sandwich(potential, mu, grid, alpha),
                         grid, tol=1e-8, seed=seed, start=start)[1]


def _lp_norms(buf, items, weight, cell_volume):
    """The L^p norms, with the weight, of v * x (of x when v is None) for
    each (x, v, p) of ``items``, in order, worked in the float64 ``buf``
    alone."""
    norms = []
    for x, v, p in items:
        if v is not None:
            x = np.multiply(v, x, out=buf)
        norms.append(_lp_norm_into(buf, x, p, weight, cell_volume))
    return norms


def probe_potential_bounds(potential, res, exponents, weight, shared,
                           own=None):
    """For each p of ``exponents``, in order, the largest ratios
    ||op f||_p / ||f||_p of the operators of bounds (a) V^(1/p) R,
    (b) V^(1/p) R V^(1/p') and (c) R V^(1/p'), R = ``res``, over the
    real ``shared`` probes and the probes ``own(p)``, with the number of
    probes.  R maps real fields to real fields; the norms are
    ``TorusGrid.lp_norm`` with ``weight`` (None, or a lattice array such
    as eta^2).  R f of a shared probe is applied once for every exponent;
    probes of norm 0 are skipped, with no transform of (c); (b) applies
    V^(1/p) to the output of (c).

    The caller draws the probes in order and makes every transform and
    lattice allocation.  One worker thread takes ||f||_p of each probe
    while R f is transformed, and the (a)-(c) norms, V^(1/p) multiplied
    in, while the next fields are transformed, in one scratch buffer
    allocated here; the ratios are folded in probe order, so the bits
    are those of one thread.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        mults = [[PointwiseMultiplier(res.grid, np.where(
            potential > 0, potential ** (1.0 / e), 0.0))
            for e in (p, p / (p - 1.0))] for p in exponents]
    worst = [{"a": 0.0, "b": 0.0, "c": 0.0} for _ in exponents]
    counts = [0] * len(exponents)
    buf, cell_volume = np.empty(res.grid.shape), res.grid.cell_volume
    pending = []  # (i, ||f||_p, future of the (a)-(c) norms), probe order

    def fold():
        for i, nf, norms in pending:
            for w, n in zip("abc", norms.result()):
                worst[i][w] = float(np.maximum(worst[i][w], n / nf))
        pending.clear()

    def take(worker, f, which):
        norms_f = worker.submit(_lp_norms, buf, [
            (f, None, exponents[i]) for i in which], weight, cell_volume)
        rf = res.apply(f)
        norms_f = norms_f.result()
        fold()  # the worker is done with every earlier probe
        for i, nf in zip(which, norms_f):
            counts[i] += 1
            if nf == 0.0:
                continue
            p, (mul_p, mul_pc) = exponents[i], mults[i]
            c = res.apply(mul_pc.apply(f))
            pending.append((i, nf, worker.submit(_lp_norms, buf, [
                (rf, mul_p.values, p), (c, mul_p.values, p), (c, None, p)],
                weight, cell_volume)))

    with ThreadPoolExecutor(max_workers=1) as worker:
        for f in shared:
            take(worker, f, range(len(exponents)))
        for i, p in enumerate(exponents):
            for f in own(p) if own else ():
                take(worker, f, [i])
        fold()
    return list(zip(worst, counts))


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


def verify_lp_inequalities(potential: np.ndarray, exponents, mu: float,
                           lam: float, grid: TorusGrid, alpha: float,
                           n_probes: int, seed: int, delta: float,
                           extremizer: np.ndarray
                           ) -> list[VerificationReport]:
    """Probe, for each p of ``exponents``, the three resolvent-weighted
    bounds for a nonnegative potential V whose weak form-bound at shift
    lam is delta; one report per exponent, in order:

      (a) ||V^(1/p) (mu+A)^(-(a-1)/a) f||_p <= (delta c)^(1/p)
          mu^(-(a-1)/(a p')) ||f||_p
      (b) ||V^(1/p) (mu+A)^(-(a-1)/a) V^(1/p') f||_p <= delta c ||f||_p
      (c) ||(mu+A)^(-(a-1)/a) V^(1/p') f||_p <= (delta c)^(1/p')
          mu^(-(a-1)/(a p)) ||f||_p

    Both candidate constants c in {p p'/4, 4/(p p')} are tested; the two
    coincide at p = 2 and the numerics single out the product form for
    p != 2.  Random fields, sign fields and a concentrated bump are drawn
    once for all exponents; the transported L^2 extremizer, which attains
    ratio delta/(delta c) for candidate c = 1 in every L^p, is a probe of
    each exponent; the caller solves ``delta`` and ``extremizer``
    (``estimate_weak_formbound``, ``l2_extremizer``).  Each probe
    is evaluated as soon as it is drawn, so a bounded number of fields is
    alive whatever ``n_probes`` is; the ratios are maxima, which do not
    depend on the order.
    """
    if np.any(potential < 0):
        raise ParameterError("potential must be nonnegative")
    if mu < lam:
        raise ParameterError("mu must dominate the form-bound shift lam")
    gamma = (alpha - 1.0) / alpha
    candidates = [{"product_quarter": p * p_c / 4.0,
                   "reciprocal": 4.0 / (p * p_c)}
                  for p in exponents for p_c in (p / (p - 1.0),)]
    if delta == 0.0:
        return [build_report("markov_lp_resolvent_bounds",
                             {"p": p, "mu": mu, "lam": lam},
                             [(f"{name}:{which}", 0.0, "<= 1 + 1e-6", True)
                              for which in ("a", "b", "c") for name in cand])
                for p, cand in zip(exponents, candidates)]

    rng = np.random.default_rng(seed)

    def shared():
        for _ in range(max(4, n_probes - 3)):
            kind = rng.integers(0, 2)
            f = rng.standard_normal(grid.shape)
            yield np.sign(f) if kind == 1 else f
        # concentrated bump at the potential maximum
        bump = np.zeros(grid.shape)
        bump[np.unravel_index(np.argmax(potential), grid.shape)] = 1.0
        yield bump

    # transported L^2 extremizer: f = V^(1/p - 1/2) phi with phi the top
    # eigenfield of sqrt(V) R sqrt(V); the operator of bound (b),
    # V^(1/p) R V^(1/p'), maps f to delta V^(1/p-1/2) phi
    mask = potential > 1e-9 * np.max(potential)

    def transported(p):
        with np.errstate(divide="ignore", invalid="ignore"):
            f = extremizer * np.where(mask, potential ** (1.0 / p - 0.5), 0.0)
        return f, np.abs(f)

    found = probe_potential_bounds(
        potential, resolvent_power(grid, alpha, mu, gamma), exponents,
        None, shared(), transported)
    return [build_report(
        "markov_lp_resolvent_bounds",
        {"p": p, "mu": mu, "lam": lam, "delta": delta, "candidates": cand},
        [check for name, c_val in cand.items()
         for check in potential_bound_checks(name, worst, delta, c_val, p,
                                             mu, gamma)],
        provenance={"seed": seed, "n_probes": count,
                    "grid_n": grid.points_per_axis})
        for p, cand, (worst, count) in zip(exponents, candidates, found)]
