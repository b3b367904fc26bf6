import numpy as np
import pytest

from gkdv.spectral import GridSpec, SpectralField


def rel_l2(a, b):
    """Relative L2 distance between two sample arrays."""
    return np.sqrt(np.sum((a - b) ** 2) / np.sum(b ** 2))


def bracket_sup(p, theta, taus):
    """Continuum sup over xi >= 0 of (1+xi)^theta * exp(-tau*xi^p), per tau.

    For p >= 1 the log of the weighted multiplier is strictly concave, so the
    maximizer is the unique root of theta/(1+xi) = p*tau*xi^(p-1); it lies
    below (theta/(p*tau))^(1/p), and bisection on [0, that] finds it without
    any frequency lattice.
    """
    taus = np.asarray(taus, dtype=float)
    lo = np.zeros_like(taus)
    hi = (theta / (p * taus)) ** (1.0 / p)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        rising = theta / (1.0 + mid) > p * taus * mid ** (p - 1.0)
        lo = np.where(rising, mid, lo)
        hi = np.where(rising, hi, mid)
    xi = 0.5 * (lo + hi)
    return (1.0 + xi) ** theta * np.exp(-taus * xi ** p)


def gl_duhamel(prop, forcing, t, panels=16, grading=2.0):
    """Reference int_0^t V(t - tau) forcing(tau) dtau by per-time quadrature.

    Composite 4-node Gauss-Legendre on the graded mesh t*(j/panels)^grading,
    applied to the whole integrand V(t - tau) forcing(tau); it is exact when
    that integrand is constant in tau, which the product rule is not.
    """
    nodes, weights = np.polynomial.legendre.leggauss(4)
    bounds = t * (np.arange(panels + 1) / panels) ** grading
    acc = np.zeros(prop.grid.n_points // 2 + 1, dtype=complex)
    for a, b in zip(bounds[:-1], bounds[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        for node, weight in zip(nodes, weights):
            tau = mid + half * node
            acc += (half * weight) * prop.multiplier(t - tau) * forcing(tau).spec
    return SpectralField(prop.grid, acc)


def full_spectrum_nonlinearity(grid, values, k, mode):
    """Reference N(v) from real samples by complex fft/ifft on all n modes.

    The kernel as it ran when fields held both halves of the spectrum:
    dealias by |mode| >= cutoff, i*xi with the Nyquist mode zeroed, samples
    by ifft, the pointwise power, fft, dealias, i*xi.  The power is formed
    here by np.power: v^(k+1) for integer k+1, else |v|^k * v.  Returns the
    full spectrum (1/n on the forward side) and the samples of N(v).
    """
    n = grid.n_points
    xi = 2.0 * np.pi * np.fft.fftfreq(n, d=grid.h)
    xi_odd = xi.copy()
    xi_odd[n // 2] = 0.0
    keep = np.abs(np.rint(np.fft.fftfreq(n) * n)) < grid.dealias_cutoff
    spec = np.where(keep, np.fft.fft(values) / n, 0.0)
    if mode == "gradient":
        spec = spec * (1j * xi_odd)
    v = np.fft.ifft(spec).real * n
    kp1 = k + 1.0
    if abs(kp1 - round(kp1)) < 1e-12:
        powered = np.power(v, int(round(kp1)))
    else:
        powered = np.power(np.abs(v), k) * v
    out = np.where(keep, np.fft.fft(powered) / n, 0.0)
    if mode == "conservative":
        out = out * (1j * xi_odd)
    return out, np.fft.ifft(out).real * n


@pytest.fixture
def small_grid():
    return GridSpec(2.0 * np.pi, 64)


@pytest.fixture
def medium_grid():
    return GridSpec(100.0, 512)
