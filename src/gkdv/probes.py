"""Seeded probe fields: Gaussian bumps and rough random-phase spectra."""

from __future__ import annotations

import numpy as np

from .spectral import GridSpec, SpectralField, coherent_field


def gaussian_field(
    grid: GridSpec, amplitude: float = 1.0, width: float | None = None, center: float = 0.0
) -> SpectralField:
    """Smooth bump A*exp(-((x-c)/w)^2); effectively band-limited for w << length."""
    if width is None:
        width = grid.length / 40.0
    values = amplitude * np.exp(-(((grid.x - center) / width) ** 2))
    return coherent_field(grid, values)


def rough_field(
    grid: GridSpec,
    *,
    seed: int,
    sobolev_index: float = 0.0,
    amplitude: float = 1.0,
    spectral_exponent: float | None = None,
) -> SpectralField:
    """Random-phase field with coefficient modulus (1+|xi_k|)^(-a).

    With a = sobolev_index + 1/2 + 0.01 the field lies just inside
    H^{sobolev_index} as the lattice refines, the near-extremal family for
    probing sharp time-weighted estimates.  Passing spectral_exponent sets a
    directly instead.

    Phases are drawn mode-by-mode in increasing order, so grids that share
    length and seed produce nested spectra: the 2N-grid field extends the
    N-grid field by new high modes following the same law.  The Nyquist mode
    is left empty.
    """
    a = spectral_exponent if spectral_exponent is not None else sobolev_index + 0.5 + 0.01
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0.0, 2.0 * np.pi, grid.n_points // 2 - 1)
    spec = np.zeros_like(grid.xi, dtype=complex)
    spec[0] = 1.0
    spec[1:-1] = (1.0 + grid.xi[1:-1]) ** (-a) * np.exp(1j * phases)
    return SpectralField(grid, amplitude * spec)
