import numpy as np
import pytest

from gkdv.spectral import GridSpec, SpectralField, inverse_transform


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
    acc = np.zeros(prop.grid.n_points, dtype=complex)
    for a, b in zip(bounds[:-1], bounds[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        for node, weight in zip(nodes, weights):
            tau = mid + half * node
            acc += (half * weight) * prop.multiplier(t - tau) * forcing(tau).spec
    return inverse_transform(SpectralField(prop.grid, spec=acc))


@pytest.fixture
def small_grid():
    return GridSpec(2.0 * np.pi, 64)


@pytest.fixture
def medium_grid():
    return GridSpec(100.0, 512)
