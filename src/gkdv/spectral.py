"""Periodic grid, real-field spectra, and Fourier multiplier application.

The real line is approximated by a torus [-L/2, L/2) with rapidly decaying
data.  A real field is stored as its rfft half spectrum, the n/2 + 1 modes
k = 0..n/2; the negative modes are the complex conjugates and are never
stored.  The physical to spectral direction carries the 1/n factor, so

    phys[j] = sum_{k = 1-n/2}^{n/2} spec[k] * exp(2j*pi*j*k/n),  spec[-k] = conj(spec[k]).

A sum over the full spectrum weights stored mode k by GridSpec.mode_weights
(1 at k = 0 and k = n/2, 2 elsewhere), so the discrete Parseval identity reads

    sum |phys|^2 * h == length * sum mode_weights * |spec|^2.

Mode k carries the frequency xi_k = 2*pi*k/length >= 0; the spectral phase
is referenced to the left endpoint of the domain, which is invisible to every
diagonal (multiplier) operation and to every norm.  Multipliers and
differences act on spectra only; samples are formed by one inverse
transform the first time a field's phys is read.

A field also carries its band: every stored coefficient at index band or
above is exactly 0.  It is the whole half spectrum unless the field comes
from apply_multiplier_values, which reads its multiplier as a prefix of the
modes, 0 past its end, or is a forcing of the nonlinearity, 0 above the
dealias cutoff.  The free flow V(t)w of semigroup.apply_semigroup is such a
product: Propagator.multiplier(t) gives exp(t*z) on the live prefix only,
past which it is exactly 0.  A product is formed on the band only, a
derivative of a banded field keeps its band, and a difference keeps the
larger band of its two operands; norms and Duhamel sweeps skip the zeros
past it.

A field may also be a stack of P members, a member per row: its spec has
shape (P, n/2 + 1), as duhamel_sweep yields for a stacked forcing, or
(P, W) when every member is 0 from mode W on, which is then not stored.
Its band is that of the stack, the widest of its members, and phys holds
the (P, n) samples.  apply_multiplier_values and
fractional_derivative_shifted act on every row with one multiplier, and
each row gets the bits it would get as a field of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import MultiplierEvaluationError, StructuralError


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid on [-length/2, length/2).

    n_points must be a power of two; dealias_fraction fixes the fraction of
    the one-sided mode range kept when zeroing high modes before and after
    pointwise products (2/3-rule by default).
    """

    length: float
    n_points: int
    dealias_fraction: float = 2.0 / 3.0

    def __post_init__(self):
        if not self.length > 0:
            raise ValueError(f"length must be positive, got {self.length}")
        n = self.n_points
        if n < 2 or (n & (n - 1)) != 0:
            raise ValueError(f"n_points must be a power of two >= 2, got {n}")
        if not 0.0 < self.dealias_fraction <= 1.0:
            raise ValueError(
                f"dealias_fraction must lie in (0, 1], got {self.dealias_fraction}"
            )
        if self.dealias_cutoff < 1:
            raise ValueError("dealias cutoff index must be >= 1")

    @property
    def h(self) -> float:
        """Grid spacing."""
        return self.length / self.n_points

    @property
    def nyquist(self) -> float:
        """Largest resolved |frequency|, pi/h."""
        return np.pi / self.h

    @cached_property
    def dealias_cutoff(self) -> int:
        """Mode index above which (inclusive) dealiasing zeroes coefficients."""
        return int(round(self.dealias_fraction * self.n_points / 2))

    @cached_property
    def x(self) -> np.ndarray:
        return -0.5 * self.length + self.h * np.arange(self.n_points)

    @cached_property
    def xi(self) -> np.ndarray:
        """Frequencies of the stored modes, xi_k = 2*pi*k/length for k = 0..n/2."""
        return 2.0 * np.pi * np.fft.rfftfreq(self.n_points, d=self.h)

    @cached_property
    def mode_weights(self) -> np.ndarray:
        """Multiplicity of each stored mode in the full spectrum: 1, 2, ..., 2, 1."""
        w = np.full_like(self.xi, 2.0)
        w[0] = w[-1] = 1.0
        return w


@dataclass
class SpectralField:
    """Real periodic field held as its rfft half spectrum.

    phys is formed by one inverse transform the first time it is read and
    then kept; a field built from samples keeps those.  spec[band:] is
    exactly 0; band is the whole half spectrum on a field built from a
    spectrum or from samples, and only a prefix multiplier or the
    nonlinearity's dealiasing narrows it.  A spec of shape (P, W) holds a
    stack of P members, one per row, with one band for all of them: the
    first W <= n/2 + 1 coefficients of each, every later one 0 and not
    stored.  Operations never mutate fields in place.
    """

    grid: GridSpec
    spec: np.ndarray
    band: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.spec = np.asarray(self.spec, dtype=complex)
        size = self.grid.xi.size
        if not (self.spec.shape == (size,)
                or (self.spec.ndim == 2 and 0 < self.spec.shape[1] <= size)):
            raise StructuralError(
                f"expected {size} coefficients for "
                f"n_points={self.grid.n_points}, got shape {self.spec.shape}"
            )
        self.band = self.spec.shape[-1]

    @cached_property
    def phys(self) -> np.ndarray:
        return np.fft.irfft(self.spec, self.grid.n_points, norm="forward")

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        if self.grid != other.grid:
            raise StructuralError("cannot subtract fields on different grids")
        out = SpectralField(self.grid, self.spec - other.spec)
        out.band = max(self.band, other.band)
        return out


def coherent_field(grid: GridSpec, values) -> SpectralField:
    """Build a field from physical samples, which it keeps."""
    values = np.array(values, dtype=float)
    if values.shape != (grid.n_points,):
        raise StructuralError(f"expected {grid.n_points} samples, got shape {values.shape}")
    f = SpectralField(grid, np.fft.rfft(values, norm="forward"))
    f.phys = values
    return f


def zero_field(grid: GridSpec) -> SpectralField:
    return SpectralField(grid, np.zeros_like(grid.xi, dtype=complex))


def apply_multiplier_values(f: SpectralField, values: np.ndarray) -> SpectralField:
    """f times a multiplier given at the first values.size modes.

    values is 1-D with at most n/2 + 1 entries.  Past them the multiplier
    counts as 0, so values may stop wherever the multiplier or f is exactly 0
    from there on.  spec * values is formed on the modes below
    min(f.band, values.size) only, which become the band of the result;
    every later coefficient is +0.  On a stack each row is multiplied by the
    same values.  A value that is not finite raises
    MultiplierEvaluationError naming its frequency.
    """
    values = np.asarray(values)
    if values.ndim != 1 or values.size > f.grid.xi.size:
        raise StructuralError("multiplier array does not fit the frequency lattice")
    bad = ~np.isfinite(values)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise MultiplierEvaluationError(
            f"multiplier is not finite at frequency xi={f.grid.xi[k]:.6g}"
        )
    band = min(f.band, values.size)
    out = np.zeros(f.spec.shape, dtype=complex)
    np.multiply(f.spec[..., :band], values[:band], out=out[..., :band])
    g = SpectralField(f.grid, out)
    g.band = band
    return g


def _odd_multiplier_frequencies(grid: GridSpec, band: int) -> np.ndarray:
    # The first band frequencies.  The unpaired Nyquist mode of a real field
    # must not acquire an imaginary coefficient; odd multipliers act as zero
    # there (the sampled derivative of the Nyquist cosine vanishes at the grid
    # points), so its frequency reads 0 when the band reaches it.
    xi = grid.xi[:band].copy()
    if band == grid.xi.size:
        xi[-1] = 0.0
    return xi


def fractional_derivative_shifted(f: SpectralField, s: float) -> SpectralField:
    """Apply the fused multiplier i*sgn(xi)*|xi|^(s+1), zero at xi = 0.

    Fusing the order-s factor with one full derivative keeps the multiplier
    continuous at the origin for every s > -1, avoiding the singular |xi|^s
    alone when s < 0.  s = 0 reproduces the plain derivative i*xi exactly.
    The multiplier is formed on f's band only, and the result keeps it.
    """
    if s <= -1:
        raise ValueError(f"shifted fractional derivative needs s > -1, got {s}")
    xi = _odd_multiplier_frequencies(f.grid, f.band)
    return apply_multiplier_values(f, 1j * xi ** (s + 1.0))

