"""Exact sampling of isotropic stable increments in R^d.

The increment Z_dt with characteristic function exp(-dt |k|^alpha) is
built by subordination: Z = B_(2 S), where B is standard d-dimensional
Brownian motion and S a one-sided stable subordinator with Laplace
transform exp(-dt u^(alpha/2)).  The time-scale factor 2 comes from
E exp(i k . B_(2S)) = E exp(-|k|^2 S) = exp(-dt (|k|^2)^(alpha/2)).

One-sided stable variables use Kanter's representation
    S = (A(theta) / E) ** ((1 - sigma) / sigma),
    A(theta) = sin(sigma theta)^(sigma/(1-sigma)) * sin((1-sigma) theta)
               / sin(theta)^(1/(1-sigma)),
with theta uniform on (0, pi) and E a unit exponential; then
E exp(-u S) = exp(-u^sigma).  As sigma -> 1 the powers 1/(1-sigma) grow
without bound and, for theta near 0 or pi, the factors of A(theta)
underflow (0/0, or a spurious 0 or inf).  Where they do, S is taken from
the algebraically equal form with powers at most 1/sigma < 2,
    S = sin(sigma theta) * (sin((1-sigma) theta) / E) ** ((1-sigma)/sigma)
        / sin(theta) ** (1/sigma).

n increments in R^d read one PCG64 stream as n uniforms theta | n
exponentials E | n x d normals (row-major).  A uniform takes one 64-bit
word, so E starts after ``advance(n)``; the normals start where a
throw-away pass over the n exponentials (ziggurat) ends, which
``_increment_stream`` makes when it sets up a generator for each part.
``_fill_increments`` then draws the batch in blocks, bit for bit, into the
stream's scratch; ``sde.integrate`` calls it on a worker thread, which runs
private functions only (the benchmark's tracer wraps public ones).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, ParameterError

_MAX_VALUES = 2**28


@dataclass(frozen=True)
class StableParams:
    """Parameters of the isotropic stable increment law."""

    alpha: float
    dim: int
    seed: int

    def __post_init__(self):
        if not (1.0 < self.alpha < 2.0):
            raise ParameterError(f"alpha must lie in (1, 2), got {self.alpha}")
        if self.dim < 1:
            raise ParameterError(f"dim must be >= 1, got {self.dim}")
        if not (0 <= self.seed < 2**64):
            raise ParameterError("seed must fit in 64 unsigned bits")


@dataclass
class IncrementBatch:
    """A batch of i.i.d. stable increments over one time step."""

    params: StableParams
    dt: float
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.dt <= 0:
            raise ParameterError("dt must be positive")
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2 or self.values.shape[1] != self.params.dim:
            raise ParameterError("values must have shape (n, dim)")
        if not np.all(np.isfinite(self.values)):
            raise ParameterError("increment values must be finite")


def _kanter_fill(sigma: float, uniforms, expos, a, theta, expo, den):
    """Kanter's S into ``a`` from theta and E drawn into ``theta``, ``expo``
    (``den`` is scratch): the closed form's operations and order, so bits."""
    np.multiply(uniforms.random(out=theta), np.pi, out=theta)  # uniform(0, pi)
    expos.standard_exponential(out=expo)
    ratio = (1.0 - sigma) / sigma
    np.sin(np.multiply(theta, sigma, out=a), out=a)
    a **= sigma / (1.0 - sigma)
    a *= np.sin(np.multiply(theta, 1.0 - sigma, out=den), out=den)
    np.sin(theta, out=den)
    den **= 1.0 / (1.0 - sigma)
    tiny = np.finfo(float).tiny
    lost = (a < tiny) | (den < tiny)
    with np.errstate(divide="ignore", invalid="ignore"):  # lost is redone
        a /= den
        a /= expo
        a **= ratio
    if lost.any():
        t, e = theta[lost], expo[lost]
        a[lost] = (np.sin(sigma * t) * (np.sin((1.0 - sigma) * t) / e) ** ratio
                   / np.sin(t) ** (1.0 / sigma))
    return a


def sample_subordinator(alpha_half: float, dt: float, n: int, seed) -> np.ndarray:
    """i.i.d. samples S > 0 with E exp(-u S) = exp(-dt u^alpha_half)."""
    if not (0.5 < alpha_half < 1.0):
        raise ParameterError(f"alpha_half must lie in (1/2, 1), got {alpha_half}")
    if dt <= 0:
        raise ParameterError("dt must be positive")
    if n < 0:
        raise ParameterError("n must be nonnegative")
    if n > _MAX_VALUES:
        raise CapacityError(f"{n} subordinator samples exceed capacity")
    rng = _rng_for(seed, "subordinator")
    return dt ** (1.0 / alpha_half) * _kanter_fill(alpha_half, rng, rng, *np.empty((4, n)))


def _increment_stream(params: StableParams, dt: float, n: int, rows: int):
    """The stream (alpha, dt, theta, E and normal generators, scratch) of an
    n-row batch, scratch for ``rows``; the normal generator has made the
    throw-away pass over the n exponentials."""
    if dt <= 0 or n < 1:
        raise ParameterError("dt and n must be positive")
    rows = min(rows, n)
    if rows * params.dim > _MAX_VALUES:
        raise CapacityError(f"block of {rows} x {params.dim} values exceeds capacity")
    uniforms = _rng_for(params.seed, "increments")
    expos = copy.deepcopy(uniforms)
    expos.bit_generator.advance(n)
    normals = copy.deepcopy(expos)
    scratch = (np.empty((rows, params.dim)), *np.empty((4, rows)))
    for r0 in range(0, n, rows):
        normals.standard_exponential(out=scratch[3][:n - r0])
    return params.alpha, dt, uniforms, expos, normals, scratch


def _fill_increments(stream, rows: int) -> np.ndarray:
    """The next ``rows`` rows of the batch, in the stream's scratch."""
    alpha, dt, uniforms, expos, normals, scratch = stream
    values, clock, theta, expo, den = [buf[:rows] for buf in scratch]
    _kanter_fill(alpha / 2.0, uniforms, expos, clock, theta, expo, den)
    clock *= dt ** (2.0 / alpha)
    clock *= 2.0
    normals.standard_normal(out=values)
    values *= np.sqrt(clock, out=clock)[:, None]
    return values


def _fill_slab(stream, slab: np.ndarray) -> np.ndarray:
    """The next paths x steps rows of the batch (path-major), transposed
    into the caller's ``slab`` (steps, dim, paths): step k reads slab[k]."""
    values = _fill_increments(stream, slab[:, 0].size)
    np.copyto(slab, values.reshape(-1, *slab.shape[:2]).transpose(1, 2, 0))
    return slab


def sample_increments(params: StableParams, dt: float, n: int) -> IncrementBatch:
    """n i.i.d. samples of Z_dt - Z_0; bit-reproducible from the seed."""
    values = _fill_increments(_increment_stream(params, dt, n, n), n)
    return IncrementBatch(params=params, dt=dt, values=values)


def empirical_char_function(samples: np.ndarray, kappa) -> tuple:
    """Monte Carlo estimate of E exp(i kappa . X) and its standard error.

    Returns (estimate, stderr) where stderr bounds the combined deviation
    of real and imaginary parts (root of summed variances of the means).
    """
    samples = np.atleast_2d(samples)
    kappa = np.atleast_1d(np.asarray(kappa, dtype=float))
    phase = samples @ kappa
    z = np.exp(1j * phase)
    n = len(z)
    est = np.mean(z)
    var = np.var(z.real, ddof=1) / n + np.var(z.imag, ddof=1) / n
    return complex(est), float(np.sqrt(var))


def _rng_for(seed, label: str):
    salt = np.frombuffer(label.encode(), dtype=np.uint8)
    return np.random.default_rng(np.random.SeedSequence([int(seed), *salt.tolist()]))
