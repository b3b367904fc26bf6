import math
from collections import Counter

import numpy as np
import pytest

from gkdv import semigroup
from gkdv.norms import lebesgue_norm, sobolev_norm
from gkdv.spectral import (
    GridSpec,
    SpectralField,
    fractional_derivative_shifted,
    spatial_derivative,
)


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


def trajectory_norm(space, fields, cfg):
    """sup over sample times of ||f(t)||_{H^s} + t^w * (sum of the weighted
    parts) of the space "x", "y", "z" or "z_tilde", straight from
    sobolev_norm and lebesgue_norm, with the parts added left to right."""
    q = 2.0 * (cfg.k + 1.0)

    def derivatives(f):
        return [lebesgue_norm(spatial_derivative(f), q),
                lebesgue_norm(fractional_derivative_shifted(f, cfg.s), q)]

    parts = {
        "x": lambda f: [lebesgue_norm(f, q)] + derivatives(f),
        "y": derivatives,
        "z": lambda f: [lebesgue_norm(f, 2.0 * cfg.k + 1.0)],
        "z_tilde": lambda f: [lebesgue_norm(spatial_derivative(f), 2)],
    }[space]
    w = (1.0 + abs(cfg.s)) / cfg.p if space == "z_tilde" else cfg.weight_exponent
    return max(sobolev_norm(f, cfg.s) + sum(t ** w * v for v in parts(f))
               for t, f in zip(cfg.sample_times, fields, strict=True))


def band_limit(f):
    """f with every mode at or above the grid's dealias cutoff zeroed."""
    spec = f.spec.copy()
    spec[f.grid.dealias_cutoff:] = 0.0
    return SpectralField(f.grid, spec)


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


_MOMENT_COEFFS = [
    [math.factorial(m) / math.factorial(j + m + 1) for j in range(19)] for m in range(4)
]


def poly_exp_moments(omega):
    """G_m(w) = int_0^1 exp(w*nu) (1-nu)^m dnu for m = 0..3, stably.

    The moments as the product rule first computed them: small |w| sums the
    entire series m! * sum_j w^j/(j+m+1)! for each m; elsewhere the
    integration-by-parts recursion G_m = (m*G_{m-1} - 1)/w applies.
    """
    omega = np.asarray(omega, dtype=complex)
    out = np.empty((4,) + omega.shape, dtype=complex)
    small = np.abs(omega) <= 0.5
    if np.any(small):
        ws = omega[small]
        for m in range(4):
            acc = np.zeros_like(ws)
            for c in reversed(_MOMENT_COEFFS[m]):
                acc = acc * ws + c
            out[m][small] = acc
    big = ~small
    if np.any(big):
        wb = omega[big]
        g = (np.exp(wb) - 1.0) / wb
        out[0][big] = g
        for m in range(1, 4):
            g = (m * g - 1.0) / wb
            out[m][big] = g
    return out


def panel_step(z, live, acc, coeffs, width, h):
    """Reference product-rule step with the signature of semigroup._panel_step.

    exp(z*h) acc + width * sum_m coeffs[m] (h/width)^(m+1) G_m(z*h), with the
    moments from poly_exp_moments and exp(z*h) evaluated a second time, on
    every mode: live is ignored.
    """
    g = poly_exp_moments(z * h)
    return np.exp(z * h) * acc + width * sum(
        coeffs[m] * ((h / width) ** (m + 1) * g[m]) for m in range(4)
    )


def full_band_sweep(prop, forcing, t_final, panels=16):
    """Reference duhamel_sweep at the panel ends b_1..b_panels.

    The same graded mesh, nodes and cubic interpolant, stepped with panel_step
    on every mode of every panel, whatever band the forcing occupies.
    """
    bounds = semigroup._panel_bounds(t_final, panels)
    nodes = semigroup.duhamel_nodes(t_final, panels)
    acc = np.zeros_like(prop.exponent)
    out = []
    for a, b, panel_nodes in zip(bounds[:-1], bounds[1:], nodes):
        values = np.array([forcing(float(tau)).spec for tau in panel_nodes])
        coeffs = semigroup._VANDERMONDE_INV @ values
        acc = panel_step(prop.exponent, None, acc, coeffs, b - a, b - a)
        out.append(acc)
    return out


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
def fft_calls(monkeypatch):
    """Count calls of numpy.fft.{fft, ifft, rfft, irfft} by name."""
    calls = Counter()
    for name in ("fft", "ifft", "rfft", "irfft"):
        orig = getattr(np.fft, name)

        def counted(*args, _orig=orig, _name=name, **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls


@pytest.fixture
def small_grid():
    return GridSpec(2.0 * np.pi, 64)


@pytest.fixture
def medium_grid():
    return GridSpec(100.0, 512)
