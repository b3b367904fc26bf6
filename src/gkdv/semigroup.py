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
every mode has Re(t*z) <= -746.  The rule holds for any symbol: Re z need
not be monotone in xi nor negative.  V(t) has one form: multiplier(t) runs
exp on that prefix and returns it, and apply_semigroup passes it to
spectral.apply_multiplier_values, which forms the product on the modes below
min(w.band, prefix) only and makes them the band of V(t)w, so the norms and
derivatives of the free flow skip its exactly-zero tail too.
A sweep runs its steps on the widest band among the forcing fields it has
read so far, starting from 0; a forcing from nonlinearity_eval or
nonlinearity_difference has its dealiased band.  Past the band every forcing
read was 0, and each step there is exp(z*h)*0 + 0 = 0.

The smoothing profile sup_xi weight(xi)*exp(eta*tau*Phi(xi)) is found on
the log scale: per tau, log(weight) + (eta*tau)*Phi costs a multiply and an
add per lattice point, and the direct product weight*exp(eta*tau*Phi) is
formed only at the points within a rounding margin of its maximum.  A point
outside the margin is below the best one inside by a factor exp(-1e-9) at
least, far beyond the rounding of either form, so the value, the maximizer
and its first-index tie rule are those of the direct product over the whole
lattice.  A profile whose log maximum is not finite, or whose sup is not a
normal double above the weights' rounding floor, takes the direct product
at every point.
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
# 0.5*(1 +- sqrt(3/7 -+ (2/7)*sqrt(6/5))), the roots of P_4(2u - 1); and the
# inverse Vandermonde matrix taking values there to the coefficients of the
# cubic interpolant in powers of the panel coordinate, as round-trip
# literals.  Both are fixed doubles: no LAPACK call at import, and no
# dependence of the sweep's bits on the LAPACK build.
_INNER = math.sqrt(3.0 / 7.0 - (2.0 / 7.0) * math.sqrt(6.0 / 5.0))
_OUTER = math.sqrt(3.0 / 7.0 + (2.0 / 7.0) * math.sqrt(6.0 / 5.0))
_UNIT_NODES = np.array([0.5 * (1.0 - _OUTER), 0.5 * (1.0 - _INNER),
                        0.5 * (1.0 + _INNER), 0.5 * (1.0 + _OUTER)])
_VANDERMONDE_INV = np.array([
    [1.526788125457267, -0.8136324494869273, 0.4007615203116502, -0.1139171962819898],
    [-8.546023607872202, 13.807166925689575, -7.417070421462634, 2.1559271036452583],
    [14.325858354171888, -31.388222363446044, 24.998125859219098, -7.9357618499449405],
    [-7.420540068038942, 18.795449407555044, -18.79544940755504, 7.420540068038938],
])

# Exponent g of the graded mesh b_j = T*(j/m)^g of every Duhamel sweep.
_GRADING = 2.0

# exp(x) is exactly 0 for x < -745.14; cutting at Re(t*z) <= -746 leaves
# room for the rounding of t*z and of 746/t.
_EXP_UNDERFLOW = 746.0

# Taylor coefficients 3!/(j+4)! of G_3, highest power first, for Horner's rule.
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
        xi_disp = _odd_multiplier_frequencies(self.grid, self.grid.xi.size)
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
        """exp(t*z) on the live prefix of live_modes(t) modes, for any real t.

        This is the one place the free-flow exponential is formed.  Every
        later mode of exp(t*z) is exactly 0 and is not stored:
        spectral.apply_multiplier_values reads the values as a prefix.
        """
        return np.exp(t * self.exponent[: self.live_modes(t)])


def apply_semigroup(prop: Propagator, w0: SpectralField, t: float) -> SpectralField:
    """Evolve w0 forward by time t >= 0: w0 times multiplier(t).

    The product is formed on the modes below min(w0.band, live_modes(t))
    only, which become the band of the result.
    """
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

    Order contract: every node of a panel is evaluated before any time in
    that panel is yielded, and every node evaluated after a time t is yielded
    lies beyond t.  A caller may therefore replace what forcing reads at t as
    soon as t is yielded, as picard_iterate does.

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
    band = 0
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
            specs, top = _forcing_spectra(forcing(float(tau)), grid)
            if values is None:
                # values above the band stay 0 until the band widens, so a node
                # that precedes the widening within its panel still reads 0 there
                values = np.zeros((4,) + specs.shape, dtype=complex)
                coeffs = np.empty_like(values)
                acc = np.zeros_like(specs)
            band = max(band, top)
            values[i, ..., :band] = specs[..., :band]
        # the 4 x 4 interpolation matrix acts on the node axis of each member
        np.matmul(_VANDERMONDE_INV, np.moveaxis(values[..., :band], 0, -2),
                  out=np.moveaxis(coeffs[..., :band], 0, -2))
        while k < len(times) and times[k] <= b:
            yield step(b - a, times[k] - a)
            k += 1
        acc = step(b - a, b - a)


def _forcing_spectra(value, grid):
    """The spectrum and band of one forcing field, or the (P, n) spectra of a
    list of P fields and their widest band; StructuralError for a field on
    another grid."""
    single = isinstance(value, SpectralField)
    fields = [value] if single else value
    if not all(isinstance(f, SpectralField) and f.grid == grid for f in fields):
        raise StructuralError("forcing returned a field on an incompatible grid")
    band = max(f.band for f in fields)
    return (value.spec if single else np.array([f.spec for f in fields])), band


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
    gs = np.full_like(ws, _G3_SERIES[0])
    for c in _G3_SERIES[1:]:  # Horner in place: np.polyval's bits, without its temporaries
        gs *= ws
        gs += c
    g[3, small] = gs
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

    theta must be finite and nonnegative, and every tau lie in (0, 1].  The
    maximizer must be interior to the resolved frequency range; otherwise
    the lattice cannot represent the supremum and a ResolutionError advises
    a finer or larger grid.
    """
    if not 0 <= theta < np.inf:
        raise ValueError(f"theta must be finite and nonnegative, got {theta}")
    return _lattice_sup(sym, (1.0 + grid.xi) ** theta, taus, grid)


def _lattice_sup(sym: DissipativeSymbol, weight: np.ndarray, taus, grid: GridSpec) -> list[float]:
    """sup over grid frequencies of weight * exp(eta*tau*Phi(xi)) per tau, with
    weight given at each grid frequency; every tau must lie in (0, 1], and a
    maximizer at the lattice edge is a ResolutionError.

    The value and the maximizer are np.argmax's over the direct product
    (first index on ties); the product is formed only where the log profile
    comes within a rounding margin of its maximum.
    """
    taus = np.asarray(taus, dtype=float)
    if not np.all((taus > 0) & (taus <= 1)):
        raise ValueError("every tau must lie in (0, 1]")
    xs = grid.xi
    xi_top = xs[-1]
    phi = np.asarray(evaluate_phi(sym, xs), dtype=float)
    with np.errstate(divide="ignore"):
        log_weight = np.log(weight)
    # A sup at or above floor is a normal double far above the absolute
    # rounding, (1 + max weight)*2^-1075 at most, of a product whose exp or
    # value is subnormal: no point outside the margin can reach it.
    floor = np.finfo(float).tiny * max(1.0, np.max(weight))

    def peak(index, tau):
        # np.argmax of the direct product over the lattice points index
        vals = weight[index] * np.exp(sym.eta * tau * phi[index])
        j = int(np.argmax(vals))
        return int(index[j]), vals[j]

    log_profile = np.empty_like(phi)
    out = []
    for tau in taus:
        np.multiply(phi, sym.eta * tau, out=log_profile)
        log_profile += log_weight
        top = np.max(log_profile)
        if np.isfinite(top):
            i, value = peak(np.flatnonzero(log_profile >= top - 1e-9 * (1.0 + abs(top))), tau)
        if not (np.isfinite(top) and value >= floor):
            i, value = peak(np.arange(xs.size), tau)
        if xs[i] >= xi_top:
            raise ResolutionError(
                f"profile maximizer sits at the lattice edge |xi|={xs[i]:.4g} for "
                f"tau={tau:.3e}; use a grid with a larger frequency range"
            )
        out.append(float(value))
    return out
