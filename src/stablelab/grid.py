"""Periodic lattice on [-L, L)^d and the export container of its fields.

All spectral operators in this package act on fields sampled on a
``TorusGrid``.  Frequencies are the discrete duals k = (pi/L) * m with
integer m in the Nyquist band.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, ParameterError

# Guard against accidentally huge allocations (desk scale only).
_MAX_POINTS = 2**27

_HEADER = struct.Struct("<qqdq")  # dim, N, L, complex flag


@dataclass(frozen=True)
class TorusGrid:
    """Uniform periodic grid on [-L, L)^d with N points per axis."""

    dim: int
    half_length: float
    points_per_axis: int

    def __post_init__(self):
        if self.dim < 1:
            raise ParameterError(f"dim must be >= 1, got {self.dim}")
        if self.half_length <= 0:
            raise ParameterError("half_length must be positive")
        n = self.points_per_axis
        if n < 4 or n % 2 != 0:
            raise ParameterError(f"points_per_axis must be even and >= 4, got {n}")
        if n**self.dim > _MAX_POINTS:
            raise CapacityError(f"grid with {n}^{self.dim} points exceeds capacity")

    @property
    def spacing(self) -> float:
        """Lattice spacing h = 2L/N."""
        return 2.0 * self.half_length / self.points_per_axis

    @property
    def shape(self) -> tuple:
        return (self.points_per_axis,) * self.dim

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dim

    def axis_coordinates(self) -> np.ndarray:
        """Physical coordinates of one axis: -L, -L+h, ..., L-h."""
        return -self.half_length + self.spacing * np.arange(self.points_per_axis)

    def coordinates(self) -> list:
        """Sparse (broadcastable) meshgrid of physical coordinates."""
        ax = self.axis_coordinates()
        return list(np.meshgrid(*([ax] * self.dim), indexing="ij", sparse=True))

    def coordinate_slabs(self):
        """(slice i:i+1, ``coordinates()`` with axis 0 cut to it) per i."""
        coords = self.coordinates()
        for i in range(self.points_per_axis):
            yield slice(i, i + 1), [coords[0][i:i + 1]] + coords[1:]

    def radius(self) -> np.ndarray:
        """|x| at every lattice site (dense array)."""
        coords = self.coordinates()
        return np.sqrt(sum(c**2 for c in coords))

    def axis_frequencies(self) -> np.ndarray:
        """Dual frequencies of one axis in FFT ordering: (pi/L) * m."""
        return 2.0 * np.pi * np.fft.fftfreq(self.points_per_axis, d=self.spacing)

    def frequencies(self) -> list:
        kax = self.axis_frequencies()
        return list(np.meshgrid(*([kax] * self.dim), indexing="ij", sparse=True))

    def frequency_radius_sq(self) -> np.ndarray:
        """|k|^2 at every dual lattice site (dense array, FFT order)."""
        freqs = self.frequencies()
        return sum(k**2 for k in freqs)

    def lp_norm(self, data, p: float, weight=None) -> float:
        """Discrete L^p norm of ``data`` with measure h^d, times ``weight``
        at each site when given (summed as weight * |data|^p); p = inf
        gives max |data| and ignores the weight.  The sum is that of
        ``_lp_norm_into`` in a fresh float64 buffer, the one form a worker
        thread also uses in a buffer its caller allocated."""
        if p == np.inf:
            return float(np.max(np.abs(data)))
        return _lp_norm_into(np.empty(np.shape(data)), data, p, weight,
                             self.cell_volume)

    def site_index(self, point) -> tuple:
        """Index of the lattice site nearest to a physical point."""
        pt = np.atleast_1d(np.asarray(point, dtype=float))
        if pt.shape != (self.dim,):
            raise ParameterError(f"point must have {self.dim} coordinates")
        idx = np.rint((pt + self.half_length) / self.spacing).astype(int)
        return tuple(int(i) % self.points_per_axis for i in idx)


def _lp_norm_into(buf, data, p, weight, cell_volume) -> float:
    """(sum weight * |data|^p * cell_volume)^(1/p) for finite p, worked in
    the float64 array ``buf`` of data's shape (``data`` may be ``buf``
    itself): |data| into buf, then buf **= p, times the weight, summed."""
    np.abs(data, out=buf)
    buf **= p
    if weight is not None:
        buf *= weight
    return float((np.sum(buf) * cell_volume) ** (1.0 / p))


def _check_data(grid, data, components=None):
    expected = grid.shape if components is None else (components,) + grid.shape
    arr = np.asarray(data)
    if arr.shape != expected:
        raise ParameterError(f"field data shape {arr.shape} != expected {expected}")
    if not np.all(np.isfinite(arr)):
        raise ParameterError("field data must be finite")
    return arr


def component_magnitude(components, shape) -> np.ndarray:
    """sqrt(sum_j |c_j|^2) of components broadcastable to ``shape``, added
    one at a time into one float64 buffer in the order of np.sum(axis=0),
    so the bits are those of the stacked array."""
    mag = np.zeros(shape)
    for c in components:
        mag += np.abs(c) ** 2
    return np.sqrt(mag, out=mag)


@dataclass
class Field:
    """Scalar lattice function (real or complex) on a TorusGrid, checked
    on construction: the export container of ``to_bytes``/``from_bytes``."""

    grid: TorusGrid
    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.data = _check_data(self.grid, self.data)

    def to_bytes(self) -> bytes:
        """Flat binary layout: header (dim, N, L, complex flag), then the
        little-endian float64 payload (complex stored as re/im pairs)."""
        iscomplex = int(np.iscomplexobj(self.data))
        head = _HEADER.pack(self.grid.dim, self.grid.points_per_axis,
                            self.grid.half_length, iscomplex)
        dtype = "<c16" if iscomplex else "<f8"
        return head + np.ascontiguousarray(self.data).astype(dtype).tobytes()

    @classmethod
    def from_bytes(cls, payload: bytes) -> "Field":
        """Inverse of ``to_bytes``; a malformed payload raises ParameterError."""
        size, head = len(payload), _HEADER.size
        if size < head:
            raise ParameterError(f"field payload has {size} bytes, expected "
                                 f"at least the {head}-byte header")
        dim, n, half_length, iscomplex = _HEADER.unpack_from(payload)
        if iscomplex not in (0, 1):
            raise ParameterError(f"complex flag must be 0 or 1, got {iscomplex}")
        grid = TorusGrid(dim, half_length, n)
        dtype = np.dtype("<c16" if iscomplex else "<f8")
        expected = head + n**dim * dtype.itemsize
        if size != expected:
            raise ParameterError(
                f"field payload has {size} bytes, expected {expected}")
        arr = np.frombuffer(payload, dtype=dtype, offset=head)
        return cls(grid, arr.reshape(grid.shape).copy())

