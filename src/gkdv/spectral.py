"""Periodic grid, discrete transform pair, and Fourier multiplier application.

The real line is approximated by a torus [-L/2, L/2) with rapidly decaying
data.  Transforms use numpy's FFT with the convention that the physical to
spectral direction carries the 1/n factor, so a coherent field satisfies

    phys[j] = sum_k spec[k] * exp(2j*pi*j*k/n)

and the discrete Parseval identity reads

    sum |phys|^2 * h == length * sum |spec|^2.

Mode k carries the frequency xi_k = 2*pi*k/length; the spectral phase is
referenced to the left endpoint of the domain, which is invisible to every
diagonal (multiplier) operation and to every norm.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import MultiplierEvaluationError, StructuralError, SymmetryError

# Relative size of the imaginary residue tolerated when a spectrum claimed to
# represent a real field is inverted.
_HERMITIAN_RTOL = 1e-8


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

    @property
    def dealias_cutoff(self) -> int:
        """Mode index above which (inclusive) dealiasing zeroes coefficients."""
        return int(round(self.dealias_fraction * self.n_points / 2))

    @cached_property
    def x(self) -> np.ndarray:
        return -0.5 * self.length + self.h * np.arange(self.n_points)

    @cached_property
    def xi(self) -> np.ndarray:
        """Signed frequencies in FFT order, xi_k = 2*pi*k/length."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n_points, d=self.h)

    @cached_property
    def modes(self) -> np.ndarray:
        """Integer mode numbers in FFT order."""
        return np.rint(np.fft.fftfreq(self.n_points) * self.n_points).astype(int)


@dataclass
class SpectralField:
    """Real periodic field with paired samples and Fourier coefficients.

    ``coherent`` marks that phys and spec currently represent the same
    function.  Operations never mutate fields in place.
    """

    grid: GridSpec
    phys: np.ndarray | None = None
    spec: np.ndarray | None = None
    coherent: bool = False

    @classmethod
    def from_phys(cls, grid: GridSpec, values) -> "SpectralField":
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.n_points,):
            raise StructuralError(
                f"expected {grid.n_points} samples, got shape {values.shape}"
            )
        return cls(grid, phys=values)


def _require_coherent(f: SpectralField) -> None:
    if not f.coherent or f.spec is None or f.phys is None:
        raise StructuralError("field is not coherent; apply forward_transform first")


def forward_transform(f: SpectralField) -> SpectralField:
    """Populate spec from phys (normalization: spectral side carries 1/n)."""
    if f.phys is None:
        raise StructuralError("forward_transform requires populated samples")
    if f.phys.shape != (f.grid.n_points,):
        raise StructuralError(
            f"sample count {f.phys.shape} does not match grid n_points={f.grid.n_points}"
        )
    spec = np.fft.fft(f.phys) / f.grid.n_points
    return SpectralField(f.grid, phys=np.array(f.phys, dtype=float), spec=spec, coherent=True)


def inverse_transform(f: SpectralField) -> SpectralField:
    """Populate phys from spec, checking the spectrum describes a real field."""
    if f.spec is None:
        raise StructuralError("inverse_transform requires populated coefficients")
    if f.spec.shape != (f.grid.n_points,):
        raise StructuralError(
            f"coefficient count {f.spec.shape} does not match grid n_points={f.grid.n_points}"
        )
    z = np.fft.ifft(f.spec) * f.grid.n_points
    scale = np.max(np.abs(z))
    resid = np.max(np.abs(z.imag))
    # Absolute floor: roundoff-sized residues inherited from order-one
    # parents must not flag near-zero difference fields.
    if resid > _HERMITIAN_RTOL * scale + 1e-13:
        raise SymmetryError(
            f"spectrum is not Hermitian-symmetric (imaginary residue {resid:.3e} "
            f"vs field scale {scale:.3e})"
        )
    return SpectralField(f.grid, phys=z.real, spec=np.array(f.spec, dtype=complex), coherent=True)


def coherent_field(grid: GridSpec, values) -> SpectralField:
    """Build a coherent field from physical samples."""
    return forward_transform(SpectralField.from_phys(grid, values))


def zero_field(grid: GridSpec) -> SpectralField:
    return SpectralField(
        grid,
        phys=np.zeros(grid.n_points),
        spec=np.zeros(grid.n_points, dtype=complex),
        coherent=True,
    )


def apply_multiplier_values(f: SpectralField, values: np.ndarray) -> SpectralField:
    """Apply a precomputed multiplier array m(xi_k) on the spectral side."""
    _require_coherent(f)
    values = np.asarray(values)
    if values.shape != (f.grid.n_points,):
        raise StructuralError("multiplier array does not match the frequency lattice")
    bad = ~np.isfinite(values)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise MultiplierEvaluationError(
            f"multiplier is not finite at frequency xi={f.grid.xi[k]:.6g}"
        )
    return inverse_transform(SpectralField(f.grid, spec=f.spec * values))


def apply_multiplier(f: SpectralField, m) -> SpectralField:
    """Apply the Fourier multiplier m(xi) (a callable on frequency arrays)."""
    _require_coherent(f)
    return apply_multiplier_values(f, np.asarray(m(f.grid.xi), dtype=complex))


def _odd_multiplier_frequencies(grid: GridSpec) -> np.ndarray:
    # The unpaired Nyquist mode of a real field must not acquire an imaginary
    # coefficient; odd multipliers act as zero there (the sampled derivative
    # of the Nyquist cosine vanishes at the grid points).
    xi = np.array(grid.xi)
    xi[grid.n_points // 2] = 0.0
    return xi


def spatial_derivative(f: SpectralField) -> SpectralField:
    return apply_multiplier_values(f, 1j * _odd_multiplier_frequencies(f.grid))


def fractional_derivative_shifted(f: SpectralField, s: float) -> SpectralField:
    """Apply the fused multiplier i*sgn(xi)*|xi|^(s+1), zero at xi = 0.

    Fusing the order-s factor with one full derivative keeps the multiplier
    continuous at the origin for every s > -1, avoiding the singular |xi|^s
    alone when s < 0.  s = 0 reproduces the plain derivative i*xi exactly.
    """
    if s <= -1:
        raise ValueError(f"shifted fractional derivative needs s > -1, got {s}")
    xi = _odd_multiplier_frequencies(f.grid)
    if s == 0:
        values = 1j * xi
    else:
        values = 1j * np.sign(xi) * np.abs(xi) ** (s + 1.0)
        values[0] = 0.0
    return apply_multiplier_values(f, values)


def bessel_potential(f: SpectralField, s: float) -> SpectralField:
    """Apply (1 + |xi|)^s; the bracket is 1 + |xi|, not (1 + xi^2)^(1/2)."""
    _require_coherent(f)
    return apply_multiplier_values(f, (1.0 + np.abs(f.grid.xi)) ** s)


def dealias(f: SpectralField) -> SpectralField:
    """Zero all modes with |k| >= cutoff (orthogonal projection)."""
    _require_coherent(f)
    spec = np.array(f.spec, dtype=complex)
    spec[np.abs(f.grid.modes) >= f.grid.dealias_cutoff] = 0.0
    return inverse_transform(SpectralField(f.grid, spec=spec))


def linear_combination(
    a: SpectralField, b: SpectralField, ca: float = 1.0, cb: float = 1.0
) -> SpectralField:
    """Return ca*a + cb*b as a coherent field."""
    _require_coherent(a)
    _require_coherent(b)
    if a.grid != b.grid:
        raise StructuralError("cannot combine fields on different grids")
    return SpectralField(
        a.grid,
        phys=ca * a.phys + cb * b.phys,
        spec=ca * a.spec + cb * b.spec,
        coherent=True,
    )
