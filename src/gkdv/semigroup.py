"""Linear propagator exp(i t xi^3 + eta t Phi(xi)) and the Duhamel engine.

The propagator combines Airy dispersion with the dissipative symbol; it is a
forward-only semigroup for eta > 0.  Every Duhamel integral
int_0^t V(t - tau) F(tau) dtau in the package comes from duhamel_sweep, an
exponential product rule (Hochbruck-Ostermann, Acta Numerica 2010): the
forcing is sampled at 4 Gauss-Legendre nodes per panel of the graded mesh
b_j = T*(j/m)^g, g = 2, which clusters nodes near tau = 0 where rough-data
forcings carry an integrable power-law weight (g is fixed: no caller needs
another mesh), and the kernel is integrated exactly per mode against the
cubic interpolant of those samples.  One left-to-right sweep over [0, T]
serves every requested time, evaluating the forcing once per node.  A
forcing may also be a stack of P fields per node, as the P ball pairs of the
contraction check give; the sweep then carries a leading stack axis and
forms exp(z*h) and the moments G_m once per step for the whole stack.

Neither exp(t*z) nor a sweep step spends work on a mode whose result is
exactly 0 in double precision.  exp(x) underflows to 0 below x = -745.13,
and the propagator caches -max(Re z[k:]) per mode k, which is non-decreasing
in k, so one searchsorted gives for any t > 0 the live prefix past which
every mode has Re(t*z) <= -746; exp runs on that prefix and the rest is 0.
The rule holds for any symbol: Re z need not be monotone in xi nor negative.
A sweep also runs its steps on the modes below grid.dealias_cutoff only,
where every forcing that nonlinearity_eval or nonlinearity_difference builds
lives, and widens to the whole spectrum for the rest of the sweep once a
forcing, or any member of a stack, has content at or above the cutoff; above
the band each step is exp(z*h)*0 + 0 = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ResolutionError, StructuralError
from .spectral import GridSpec, SpectralField, _odd_multiplier_frequencies, apply_multiplier_values
from .symbols import DissipativeSymbol, evaluate_phi

# Panel nodes of the product rule: the 4 Gauss-Legendre points on [0, 1],
# and the inverse Vandermonde matrix taking values there to the coefficients
# of the cubic interpolant in powers of the panel coordinate.
_UNIT_NODES = 0.5 * (np.polynomial.legendre.leggauss(4)[0] + 1.0)
_VANDERMONDE_INV = np.linalg.inv(np.vander(_UNIT_NODES, 4, increasing=True))

# Exponent g of the graded mesh b_j = T*(j/m)^g of every Duhamel sweep.
_GRADING = 2.0

# exp(x) is exactly 0 for x < -745.14; cutting at Re(t*z) <= -746 leaves
# room for the rounding of t*z and of 746/t.
_EXP_UNDERFLOW = 746.0

# Taylor coefficients 3!/(j+4)! of G_3, highest power first as np.polyval takes them.
_G3_SERIES = [6.0 / math.factorial(j + 4) for j in reversed(range(19))]


@dataclass(frozen=True)
class Propagator:
    """Mode-wise exact solution operator of the linear equation."""

    symbol: DissipativeSymbol
    grid: GridSpec

    @cached_property
    def exponent(self) -> np.ndarray:
        """Per-mode exponent z = i*xi^3 + eta*Phi(xi).

        The odd dispersive phase is dropped on the unpaired Nyquist mode,
        which only dissipates; a rotating Nyquist coefficient has no real
        representation on the grid.
        """
        xi_disp = _odd_multiplier_frequencies(self.grid)
        return 1j * xi_disp ** 3 + self.symbol.eta * evaluate_phi(self.symbol, self.grid.xi)

    @cached_property
    def _suffix_decay(self) -> np.ndarray:
        """-max(Re z[k:]) for each mode k; non-decreasing in k."""
        return -np.maximum.accumulate(self.exponent.real[::-1])[::-1]

    def live_modes(self, t: float) -> int:
        """Length of the prefix of modes outside which Re(t*z) <= -746 for t > 0.

        exp(t*z) is exactly 0 on every mode past it; every mode is live for
        t <= 0 and for a t that is not finite.
        """
        if not 0 < t < math.inf:
            return self.exponent.size
        return int(np.searchsorted(self._suffix_decay, _EXP_UNDERFLOW / t))

    def multiplier(self, t: float) -> np.ndarray:
        """exp(t*z) per mode, for any real t.

        exp runs on the live prefix of live_modes(t) only and every later
        mode is set to +0, where exp gives +-0: the values equal
        np.exp(t * exponent) up to the sign of zero.
        """
        z = self.exponent
        live = self.live_modes(t)
        out = np.zeros_like(z)
        np.exp(t * z[:live], out=out[:live])
        return out


def apply_semigroup(prop: Propagator, w0: SpectralField, t: float) -> SpectralField:
    """Evolve w0 forward by time t >= 0."""
    if t < 0:
        raise ValueError(
            f"semigroup not invertible for eta > 0; got negative time t={t}"
        )
    if w0.grid != prop.grid:
        raise StructuralError("field grid does not match the propagator grid")
    return apply_multiplier_values(w0, prop.multiplier(t))


def _panel_bounds(t_final: float, panels: int) -> np.ndarray:
    if panels < 1:
        raise ValueError("panels must be >= 1")
    return t_final * (np.arange(panels + 1) / panels) ** _GRADING


def duhamel_nodes(t_final: float, panels: int) -> np.ndarray:
    """Forcing nodes of duhamel_sweep on [0, t_final], one row of 4 per panel.

    Panel j is [b_j, b_(j+1)] with b_j = t_final*(j/panels)^2; its nodes are
    the 4 Gauss-Legendre points mapped into it.
    """
    bounds = _panel_bounds(t_final, panels)
    return bounds[:-1, None] + np.diff(bounds)[:, None] * _UNIT_NODES


def duhamel_sweep(prop: Propagator, forcing, times, t_final: float, panels: int):
    """Yield the spectrum of int_0^t V(t - tau) forcing(tau) dtau for each t.

    forcing is a callable tau -> SpectralField on the propagator grid, called
    once per node of duhamel_nodes(t_final, panels), left to right,
    and only up to the panel holding the last requested time.  It may instead
    return a list of P fields, the same P at every node: each yielded
    spectrum then has shape (P, n/2 + 1), row p the integral of member p,
    with the bits that member would get from a sweep of its own.
    On each panel the forcing is replaced by its cubic interpolant at the 4
    nodes and the kernel exp(z*(t - tau)) is integrated against it exactly
    per mode; the integral is carried across panel ends as
    I(b_(j+1)) = exp(z*w_j) I(b_j) + w_j * sum_m c_m G_m(z*w_j).

    times must be ascending and lie in [0, t_final]; t_final lies in (0, 1].
    Arguments are checked at the call, the forcing as the sweep reaches it.
    """
    if not 0 < t_final <= 1:
        raise ValueError(f"t_final must lie in (0, 1], got {t_final}")
    times = [float(t) for t in times]
    if times != sorted(times) or (times and (times[0] < 0 or times[-1] > t_final * (1 + 1e-12))):
        raise ValueError(f"Duhamel times must be ascending and lie in [0, {t_final}]")
    return _sweep(prop, forcing, [min(t, t_final) for t in times],
                  _panel_bounds(t_final, panels), duhamel_nodes(t_final, panels))


def _sweep(prop, forcing, times, bounds, nodes):
    grid = prop.grid
    z = prop.exponent
    cut = grid.dealias_cutoff
    band = cut
    values = coeffs = acc = None

    def step(width, h):
        out = np.zeros_like(acc)
        out[..., :band] = _panel_step(z[:band], prop.live_modes(h), acc[..., :band],
                                      coeffs[..., :band], width, h)
        return out

    k = 0
    for a, b, panel_nodes in zip(bounds[:-1], bounds[1:], nodes):
        if k == len(times):
            return
        for i, tau in enumerate(panel_nodes):
            specs = _forcing_spectra(forcing(float(tau)), grid)
            if values is None:
                # values above the band stay 0 until the band widens, so a node
                # that precedes the widening within its panel still reads 0 there
                values = np.zeros((4,) + specs.shape, dtype=complex)
                coeffs = np.empty_like(values)
                acc = np.zeros_like(specs)
            if band == cut and specs[..., cut:].any():
                band = z.size
            values[i, ..., :band] = specs[..., :band]
        # the 4 x 4 interpolation matrix acts on the node axis of each member
        np.matmul(_VANDERMONDE_INV, np.moveaxis(values[..., :band], 0, -2),
                  out=np.moveaxis(coeffs[..., :band], 0, -2))
        while k < len(times) and times[k] <= b:
            yield step(b - a, times[k] - a)
            k += 1
        acc = step(b - a, b - a)


def _forcing_spectra(value, grid):
    """The spectrum of one forcing field, or the (P, n) spectra of a list of
    P fields; StructuralError for a field on another grid."""
    single = isinstance(value, SpectralField)
    fields = [value] if single else value
    if not all(isinstance(f, SpectralField) and f.grid == grid for f in fields):
        raise StructuralError("forcing returned a field on an incompatible grid")
    return value.spec if single else np.array([f.spec for f in fields])


def _panel_step(z, live, acc, coeffs, width, h):
    """exp(z*h) I(a) + int_a^(a+h) exp(z*(a+h-tau)) F(tau) dtau on a panel [a, a+width].

    F is the cubic sum_m coeffs[m] ((tau-a)/width)^m; tau = a + h*(1-nu) turns the
    integral into width * sum_m coeffs[m] (h/width)^(m+1) G_m(w), w = z*h, with
    G_m(w) = int_0^1 exp(w*nu) (1-nu)^m dnu.  One exp gives the carry and G_0 =
    (exp(w) - 1)/w; it runs on the modes [:live] only, past which the caller
    knows exp(w) to be exactly 0, while G_0 = -1/w there is not 0.
    G_m = (m*G_(m-1) - 1)/w cancels for small |w| (nan at w = 0),
    so where |w| <= 0.5 the series of G_3 and the stable downward recursion
    G_(m-1) = (1 + w*G_m)/m overwrite it, also where a tiny |w| overflows 1/w.
    Re(w) <= eta*C_M*width: exp(w) does not overflow.
    acc may carry a leading stack axis, acc[p] and coeffs[m, p] one member
    each; exp and the G_m are formed once for the whole stack.
    """
    w = z * h
    e = np.zeros_like(w)
    np.exp(w[:live], out=e[:live])
    g = np.empty((4,) + w.shape, dtype=complex)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inv = 1.0 / w
        g[0] = (e - 1.0) * inv
        for m in range(1, 4):
            g[m] = (m * g[m - 1] - 1.0) * inv
    small = np.flatnonzero(np.abs(w) <= 0.5)
    ws = w[small]
    g[3, small] = gs = np.polyval(_G3_SERIES, ws)
    for m in range(3, 0, -1):
        g[m - 1, small] = gs = (1.0 + ws * gs) / m
    out = e * acc
    for m in range(4):
        g[m] *= width * (h / width) ** (m + 1)
        out += g[m] * coeffs[m]
    return out


def smoothing_norm_profile(
    sym: DissipativeSymbol, theta: float, taus, grid: GridSpec
) -> list[float]:
    """sup over grid frequencies of (1+|xi|)^theta * exp(eta*tau*Phi(xi)) per tau.

    The maximizer must be interior to the resolved frequency range; otherwise
    the lattice cannot represent the supremum and a ResolutionError advises a
    finer or larger grid.
    """
    if theta < 0:
        raise ValueError("theta must be nonnegative")
    taus = np.asarray(taus, dtype=float)
    if np.any(taus <= 0) or np.any(taus > 1):
        raise ValueError("every tau must lie in (0, 1]")
    xs = grid.xi
    xi_top = xs[-1]
    weight = (1.0 + xs) ** theta
    phi = np.asarray(evaluate_phi(sym, xs), dtype=float)
    out = []
    for tau in taus:
        vals = weight * np.exp(sym.eta * tau * phi)
        i = int(np.argmax(vals))
        if xs[i] >= xi_top:
            raise ResolutionError(
                f"profile maximizer sits at the lattice edge |xi|={xs[i]:.4g} for "
                f"tau={tau:.3e}; use a grid with a larger frequency range"
            )
        out.append(float(vals[i]))
    return out
