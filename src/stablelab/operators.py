"""Composable lattice operators: Fourier multipliers, pointwise
multiplications, compositions and affine combinations.

Every handle maps grid-shaped arrays to grid-shaped arrays and exposes an
exact adjoint.  One dtype rule holds throughout: real data in gives real
data out whenever every part is real, and numpy's type promotion decides
otherwise.  A Fourier multiplier is real when its symbol is real and even
(a function of |k|^2, say); it then maps real input to float64 output
through half-spectrum transforms.  Pointwise multipliers with real values,
and compositions, affine combinations and Neumann inverses of real parts,
keep float64 throughout.  Gradients (``gradient_component``,
``DotGradient``) use the complex symbol i*k_j and give complex output.
Fourier multipliers are diagonal in the discrete dual basis, so
compositions of handles reproduce the continuum operator calculus up to
round-off on band-limited data.

Every transform here runs on two pocketfft worker threads when one field
of its lattice has at least 64^3 points, and on one below (``_fft_workers``).
pocketfft splits a multidimensional transform into the same 1-D
transforms whatever the worker count, so the bits do not depend on it.
"""

from __future__ import annotations

import numpy as np
from scipy import fft as sfft

from .errors import ConvergenceError, DivergenceError, ParameterError
from .grid import TorusGrid


class LatticeOperator:
    """Base class; subclasses implement apply() and adjoint()."""

    def __init__(self, grid: TorusGrid):
        self.grid = grid

    def apply(self, data: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def adjoint(self) -> "LatticeOperator":
        raise NotImplementedError

    def norm_probe(self, n_probes, p, seed, iterations):
        """Lower bound on the L^p -> L^p norm from random probes.

        Repeated application sharpens the probe: the growth ratio after a
        couple of iterations approaches the spectral radius from below.
        No run calls it: it is the oracle of the tests of the norm of the
        drift block T, plain and weighted, against m (p p'/4) delta, and of
        the ratio of its Neumann terms.
        """
        rng = np.random.default_rng(seed)
        best = 0.0
        for _ in range(n_probes):
            v = rng.standard_normal(self.grid.shape)
            for _ in range(iterations):
                fv = self.apply(v)
                num = self.grid.lp_norm(fv, p)
                den = self.grid.lp_norm(v, p)
                if den == 0.0:
                    break
                best = float(np.maximum(best, num / den))
                if num == 0.0:
                    break
                v = fv / num
        return best


def _fft_workers(grid):
    """pocketfft workers for transforms on ``grid``: 2 when one field has
    at least 64^3 points, else 1 (two were slower on N = 32 stacks)."""
    return 2 if grid.points_per_axis ** grid.dim >= 64 ** 3 else 1


def _is_even(symbol):
    """symbol[-k] == symbol[k] at every lattice site, compared one plane of
    the first axis at a time so that no mirrored copy is allocated."""
    neg = [(-np.arange(n)) % n for n in symbol.shape]
    rest = np.ix_(*neg[1:])
    return all(np.array_equal(symbol[i], symbol[neg[0][i]][rest])
               for i in range(symbol.shape[0] // 2 + 1))


class FourierMultiplier(LatticeOperator):
    """f -> ifft(symbol * fft(f)) with the symbol in FFT ordering.

    The transforms run over the last ``grid.dim`` axes only, so a stack
    of fields of shape (..., N, ..., N) takes one call.  A real, even
    symbol maps real data to real data by ``real_spectrum`` (rfftn), then
    ``from_real_spectrum``.  The half symbol is a view of a whole-lattice
    symbol, found even on the first real input, or is given alone
    (``real_even``) and mirrored to ``symbol`` when a complex path reads it.
    """

    def __init__(self, grid, symbol):
        super().__init__(grid)
        self._symbol = np.broadcast_to(np.asarray(symbol), grid.shape)
        self._half_symbol = None  # None: undecided; False: not real and even
        self._fft = {"axes": tuple(range(-grid.dim, 0)),
                     "workers": _fft_workers(grid)}

    @classmethod
    def real_even(cls, grid, half_symbol):
        """For a real symbol even in k, given on ``[..., : N // 2 + 1]``."""
        op = cls(grid, 0.0)
        op._symbol, op._half_symbol = None, half_symbol
        return op

    @property
    def symbol(self):
        if self._symbol is None:  # mirror the half: symbol[k] = symbol[-k]
            half, n = self._half_symbol, self.grid.points_per_axis
            neg = np.ix_(*[(-np.arange(n)) % n] * (self.grid.dim - 1),
                         np.arange(n // 2 - 1, 0, -1))
            self._symbol = np.concatenate([half, half[neg]], axis=-1)
        return self._symbol

    def _real_half_symbol(self):
        if self._half_symbol is None:
            sym = self._symbol
            self._half_symbol = (
                sym[..., : sym.shape[-1] // 2 + 1]
                if not np.iscomplexobj(sym) and _is_even(sym) else False)
        return self._half_symbol

    def real_spectrum(self, data):
        """The first half of the real path: rfftn of real ``data``."""
        return sfft.rfftn(np.asarray(data, dtype=float), **self._fft)

    def from_real_spectrum(self, spectrum):
        """The second half: ``spectrum`` (consumed) times the half symbol
        in place, then irfftn."""
        spectrum *= self._real_half_symbol()
        return sfft.irfftn(spectrum, s=self.grid.shape, overwrite_x=True,
                           **self._fft)

    def apply(self, data):
        data = np.asarray(data)
        if not np.iscomplexobj(data) and self._real_half_symbol() is not False:
            return self.from_real_spectrum(self.real_spectrum(data))
        return sfft.ifftn(self.symbol * sfft.fftn(
            np.asarray(data, dtype=complex), **self._fft), **self._fft)

    def adjoint(self):
        return FourierMultiplier(self.grid, np.conj(self.symbol))


class PointwiseMultiplier(LatticeOperator):
    """f -> v * f for a fixed lattice function v."""

    def __init__(self, grid, values):
        super().__init__(grid)
        self.values = np.broadcast_to(np.asarray(values), grid.shape)

    def apply(self, data):
        return self.values * np.asarray(data)

    def adjoint(self):
        return PointwiseMultiplier(self.grid, np.conj(self.values))


class Compose(LatticeOperator):
    """Operator product: Compose([A, B]) applies B first, then A."""

    def __init__(self, factors):
        factors = list(factors)
        if not factors:
            raise ParameterError("composition needs at least one factor")
        super().__init__(factors[0].grid)
        self.factors = factors

    def apply(self, data):
        out = np.asarray(data)
        for op in reversed(self.factors):
            out = op.apply(out)
        return out

    def adjoint(self):
        return Compose([op.adjoint() for op in reversed(self.factors)])


class Affine(LatticeOperator):
    """Linear combination sum_i c_i * T_i."""

    def __init__(self, terms):
        terms = list(terms)
        if not terms:
            raise ParameterError("affine combination needs at least one term")
        super().__init__(terms[0][1].grid)
        self.terms = terms

    def apply(self, data):
        arr = np.asarray(data)
        return sum(c * op.apply(arr) for c, op in self.terms)

    def adjoint(self):
        return Affine([(np.conj(c), op.adjoint()) for c, op in self.terms])


class NeumannInverse(LatticeOperator):
    """(1 + C)^{-1} realized by the truncated Neumann series.

    Terms are accumulated until the latest term norm drops below
    ``tol`` relative to the input, measured in L^norm_p.  A series whose
    latest term norm is no smaller than the one ``_STALL`` terms earlier
    is taken to diverge: ``DivergenceError`` is raised at once, with the
    mean growth ratio over those terms as ``norm_estimate``.  A series
    still short of ``tol`` after ``_MAX_TERMS`` terms raises
    ``ConvergenceError``.
    """

    _STALL = 8
    _MAX_TERMS = 4000

    def __init__(self, inner: LatticeOperator, tol=1e-12, norm_p=2.0):
        super().__init__(inner.grid)
        self.inner = inner
        self.tol = tol
        self.norm_p = norm_p
        self.last_term_norms = None

    def apply(self, data):
        term = np.asarray(data)
        out = term.copy()
        scale = self.grid.lp_norm(term, self.norm_p)
        norms = []
        if scale == 0.0:
            self.last_term_norms = norms
            return out
        for _ in range(self._MAX_TERMS):
            term = -self.inner.apply(term)
            out = out + term
            tn = self.grid.lp_norm(term, self.norm_p)
            norms.append(tn)
            if tn < self.tol * scale:
                break
            if len(norms) > self._STALL and tn >= norms[-1 - self._STALL]:
                ratio = (tn / norms[-1 - self._STALL]) ** (1.0 / self._STALL)
                self.last_term_norms = norms
                raise DivergenceError(
                    f"Neumann series stalled: term {len(norms)} norm "
                    f"{tn:.3e} >= the one {self._STALL} terms earlier",
                    norm_estimate=ratio)
        else:
            raise ConvergenceError(
                f"Neumann series did not reach tol={self.tol} "
                f"within {self._MAX_TERMS} terms",
                last_value=norms[-1] / scale if norms else None,
            )
        self.last_term_norms = norms
        return out

    def adjoint(self):
        return NeumannInverse(self.inner.adjoint(), self.tol, self.norm_p)


# ---------------------------------------------------------------------------
# Concrete spectral building blocks


def symbol_abs_k_alpha(grid, alpha):
    return grid.frequency_radius_sq() ** (alpha / 2.0)


def frac_laplacian(grid, alpha) -> FourierMultiplier:
    """Fractional Laplacian: Fourier multiplier |k|^alpha.

    Self-adjoint with nonnegative spectrum; annihilates the zero mode.
    """
    _check_alpha(alpha)
    return FourierMultiplier(grid, symbol_abs_k_alpha(grid, alpha))


def resolvent_power(grid, alpha, mu, gamma) -> FourierMultiplier:
    """Fourier multiplier (mu + |k|^alpha)^(-gamma), gamma in (0, 1].

    ``mu`` may be complex with positive real part.
    """
    _check_alpha(alpha)
    if not (0.0 < gamma <= 1.0):
        raise ParameterError(f"gamma must lie in (0, 1], got {gamma}")
    mu = complex(mu)
    if mu.real <= 0:
        raise ParameterError("Re(mu) must be positive")
    if mu.imag == 0:  # real and radial: built on the half spectrum, in place
        k = grid.frequencies()
        k[-1] = k[-1][..., : grid.points_per_axis // 2 + 1]
        half = sum(kj**2 for kj in k)  # as in grid.frequency_radius_sq
        half **= alpha / 2.0
        half += mu.real
        half **= -gamma
        return FourierMultiplier.real_even(grid, half)
    return FourierMultiplier(grid, (mu + symbol_abs_k_alpha(grid, alpha)) ** (-gamma))


def heat_semigroup(grid, alpha, t) -> FourierMultiplier:
    """Fourier multiplier exp(-t |k|^alpha), t >= 0."""
    _check_alpha(alpha)
    if t < 0:
        raise ParameterError("t must be nonnegative")
    return FourierMultiplier(grid, np.exp(-t * symbol_abs_k_alpha(grid, alpha)))


def gradient_component(grid, j) -> FourierMultiplier:
    """Spectral partial derivative along axis j: multiplier i*k_j."""
    if not (0 <= j < grid.dim):
        raise ParameterError(f"axis {j} out of range for dim {grid.dim}")
    return FourierMultiplier(grid, 1j * grid.frequencies()[j])


def real_gradient(grid, data) -> np.ndarray:
    """Spectral gradient of real data as a (dim, N, ..., N) float64 array:
    one rfftn, then one irfftn per axis.

    i*k_j is odd except on the Nyquist plane of axis j, where it maps real
    data to imaginary data; that plane is zeroed, so component j equals
    ``gradient_component(grid, j).apply(data).real``.
    """
    data = np.asarray(data, dtype=float)
    workers = _fft_workers(grid)
    spec = sfft.rfftn(data, workers=workers)
    nyquist = grid.points_per_axis // 2
    out = np.empty((grid.dim,) + data.shape)
    for j, k in enumerate(grid.frequencies()):
        symbol = 1j * k[..., : nyquist + 1]
        symbol[(slice(None),) * j + (nyquist,)] = 0.0
        out[j] = sfft.irfftn(symbol * spec, s=data.shape, workers=workers)
    return out


class DotGradient(LatticeOperator):
    """v . grad(inner(.)) as a scalar-to-scalar handle, for a Fourier
    multiplier ``inner``.

    One fftn of the input, the inner symbol, then one ifftn of
    i*k_j times that spectrum per axis, weighted by v_j.  The complex
    symbol i*k_j keeps its Nyquist plane, so the output is complex and
    equals the sum over j of v_j * gradient_component(j)(inner(f)).
    ``vector_values`` is a (dim, N, ..., N) array.  The
    transforms run over the last ``grid.dim`` axes, so a stack of fields
    of shape (..., N, ..., N) takes one call.
    """

    def __init__(self, vector_values, inner: FourierMultiplier):
        super().__init__(inner.grid)
        self.values = np.asarray(vector_values)
        self.inner = inner

    def apply(self, data):
        axes = tuple(range(-self.grid.dim, 0))
        workers = _fft_workers(self.grid)
        spec = self.inner.symbol * sfft.fftn(np.asarray(data), axes=axes,
                                             workers=workers)
        return sum(v * sfft.ifftn(1j * k * spec, axes=axes, workers=workers)
                   for v, k in zip(self.values, self.grid.frequencies()))

    def adjoint(self):
        inner_adj = self.inner.adjoint()
        return Affine([(1.0, Compose([
            inner_adj,
            gradient_component(self.grid, j).adjoint(),
            PointwiseMultiplier(self.grid, np.conj(v)),
        ])) for j, v in enumerate(self.values)])


def even_convolution(grid, kernel) -> FourierMultiplier:
    """Circular f -> h^d sum_y kernel(y) f(x - y) for a real lattice
    kernel even about x = 0 (index N/2).  Its symbol, the real part of the
    kernel's DFT, is exactly even (scipy fills the spectrum of real data
    by Hermitian symmetry), so real data take the half-spectrum path."""
    spectrum = sfft.fftn(np.fft.ifftshift(kernel),
                         workers=_fft_workers(grid))
    return FourierMultiplier(grid, spectrum.real * grid.cell_volume)


# log-time nodes of the Balakrishnan quadrature
_BALAKRISHNAN_NODES = 900


def balakrishnan_resolvent_power(grid, alpha, mu, tau):
    """(mu + A)^(-tau) by quadrature of the one-sided integral
    (sin(pi tau)/pi) * int_0^inf t^(-tau) (t + mu + A)^(-1) dt.

    Independent of the direct spectral power: only whole resolvents
    (gamma = 1) appear in the integrand.  Used as an oracle.
    """
    _check_alpha(alpha)
    if not (0.0 < tau < 1.0):
        raise ParameterError(f"tau must lie in (0, 1), got {tau}")
    if mu <= 0:
        raise ParameterError("mu must be positive")
    sym_a = symbol_abs_k_alpha(grid, alpha)
    top = mu + float(np.max(sym_a))
    # After t = e^s the integrand decays like e^(s(1-tau)) on the left and
    # e^(-s tau) on the right; bounds chosen for ~1e-12 truncated tails.
    s_lo = np.log(mu) - 30.0 / (1.0 - tau) - 5.0
    s_hi = np.log(top) + 30.0 / tau + 5.0
    nodes = np.linspace(s_lo, s_hi, _BALAKRISHNAN_NODES)
    ds = nodes[1] - nodes[0]
    acc = np.zeros(grid.shape)
    for s in nodes:
        t = np.exp(s)
        acc += (t ** (1.0 - tau)) / (t + mu + sym_a)
    acc *= ds * np.sin(np.pi * tau) / np.pi
    return FourierMultiplier(grid, acc)


def _check_alpha(alpha):
    if not (1.0 < alpha < 2.0):
        raise ParameterError(f"alpha must lie in (1, 2), got {alpha}")
