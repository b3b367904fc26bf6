"""Fixed-point solver for the two dissipative generalized KdV initial value problems.

The conservative form evolves v_t + v_xxx + eta*L v + d_x(v^(k+1)) = 0, the
gradient form u_t + u_xxx + eta*L u + (u_x)^(k+1) = 0.  Both are solved as
fixed points of the Duhamel map

    Psi(v)(t) = V(t) v0 - int_0^t V(t - tau) N(v)(tau) dtau

iterated from the free evolution.  The ball radius and existence time follow
the selection rule r = 4c*||v0||_{H^s}, c*T^omega*r^k = 1/4 with an
empirically calibrated constant c.

Picard iterates are coupled through the fixed graded-panel node set of
semigroup.duhamel_sweep: each iteration evaluates the nonlinearity of the
current iterate once per node inside one sweep over all stored times, and the
converged iterate can be re-evaluated at any other time by one more sweep
over its nodal forcing, with no interpolation of the iterate itself.  An
iterate is stored as its modes below the dealias cutoff only: from the
cutoff on, every forcing is 0 and the iterate is the free flow V(t)v0.

The independent cross-check is a fourth-order exponential time-differencing
Runge-Kutta scheme (Cox-Matthews stages, contour-averaged coefficients in the
style of Kassam-Trefethen) that treats the full linear multiplier exactly.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AdmissibilityError,
    BlowUpError,
    DivergenceError,
    DoubleRangeError,
    StabilityError,
    StructuralError,
)
from .norms import WeightedNormConfig, integer_power, omega_k, sobolev_norm, x_norm, y_norm
from .semigroup import Propagator, apply_semigroup, duhamel_nodes, duhamel_sweep
from .spectral import GridSpec, SpectralField
from .symbols import DissipativeSymbol

MODES = ("conservative", "gradient")


@dataclass
class IvpProblem:
    """One initial value problem instance.

    mode "conservative" uses the nonlinearity d_x(v^(k+1)), mode "gradient"
    uses (u_x)^(k+1).  s labels the data regularity used by the space norms.
    The discrete problem always runs; regularity outside the well-posedness
    range only triggers a warning, while the contraction path itself insists
    on p > (3/2)k + 1 via select_radius_and_time.
    """

    symbol: DissipativeSymbol
    grid: GridSpec
    k: float
    mode: str
    s: float
    initial_data: SpectralField

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.k <= 0:
            raise ValueError(f"nonlinearity degree must be positive, got {self.k}")
        if self.initial_data.grid != self.grid:
            raise StructuralError("initial data lives on a different grid")
        if self.mode == "conservative" and self.s <= -1:
            warnings.warn(f"conservative mode expects s > -1, got s={self.s}", stacklevel=2)
        if self.mode == "gradient" and self.s <= 0:
            warnings.warn(f"gradient mode expects s > 0, got s={self.s}", stacklevel=2)

    @property
    def space_norm(self):
        return x_norm if self.mode == "conservative" else y_norm


@dataclass
class IterationRecord:
    index: int
    space_norm: float
    increment_norm: float
    contraction_ratio: float | None


@dataclass
class PicardTrace:
    """Per-iteration diagnostics of one fixed-point run."""

    r: float
    t_final: float
    c_calibrated: float | None
    iterates: list = field(default_factory=list)
    converged: bool = False


def signed_power(values: np.ndarray, k: float) -> np.ndarray:
    """v^(k+1) for integer k+1, else the sign-preserving power |v|^k * v.

    The sign-preserving convention keeps the nonlinearity odd and real for
    every real k > 0 and agrees with the integer case on nonnegative data.
    An integer power is formed by norms.integer_power, without libm pow.
    """
    if k <= 0:
        raise ValueError(f"nonlinearity degree must be positive, got {k}")
    kp1 = k + 1.0
    if abs(kp1 - round(kp1)) < 1e-12:
        return integer_power(values, int(round(kp1)))
    return np.abs(values) ** k * values


def nonlinearity_eval(f: SpectralField, k: float, mode: str) -> SpectralField:
    """Nonlinear term N(v): d_x(P(v)) (conservative) or P(d_x u) (gradient).

    Only the kept modes below the dealias cutoff enter or leave the pointwise
    power: the slice spec[:cut] (times i*xi in gradient mode) goes through
    one inverse real transform, which zero-pads it, and the first cut modes
    of one forward real transform (times i*xi in conservative mode) are
    returned with every higher mode, the Nyquist mode included, zero; the
    cutoff is the band of the result.  It is the composition of its two
    halves: spectrum to powered samples, and powered samples to forcing
    spectrum.
    """
    return _nonlinearity(f.grid, f.spec, k, mode)


def nonlinearity_difference(v: SpectralField, w: SpectralField, k: float,
                            mode: str) -> SpectralField:
    """N(v) - N(w) in difference form: the forward half of nonlinearity_eval
    applied once to P(v) - P(w).

    rfft is linear, so this equals nonlinearity_eval(v) - nonlinearity_eval(w)
    up to roundoff, with 2 inverse and 1 forward transform instead of 2 each.
    """
    if v.grid != w.grid:
        raise StructuralError("cannot difference fields on different grids")
    powered = _powered(v.grid, v.spec, k, mode) - _powered(w.grid, w.spec, k, mode)
    return _to_forcing(powered, v.grid, mode)


def _nonlinearity(grid: GridSpec, spec: np.ndarray, k: float, mode: str) -> SpectralField:
    """N(v) from spec, v's half spectrum or only its band below the dealias cutoff."""
    return _to_forcing(_powered(grid, spec, k, mode), grid, mode)


def _powered(grid: GridSpec, spec: np.ndarray, k: float, mode: str) -> np.ndarray:
    """Samples of P(v) (conservative) or P(d_x u) (gradient) from the first
    grid.dealias_cutoff coefficients of spec, the only ones read."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    cut = grid.dealias_cutoff
    kept = spec[:cut]
    if mode == "gradient":
        kept = kept * (1j * grid.xi[:cut])
    return signed_power(np.fft.irfft(kept, grid.n_points, norm="forward"), k)


def _to_forcing(powered: np.ndarray, grid: GridSpec, mode: str) -> SpectralField:
    """The dealiased forcing spectrum of powered samples, times i*xi in
    conservative mode; BlowUpError when a sample is not finite, as when the
    power overflowed or a difference of two overflowed powers is inf - inf."""
    if not np.all(np.isfinite(powered)):
        raise BlowUpError("pointwise power overflowed; field amplitude too large")
    cut = grid.dealias_cutoff
    out = np.zeros(grid.xi.shape, dtype=complex)
    out[:cut] = np.fft.rfft(powered, norm="forward")[:cut]
    if mode == "conservative":
        out[:cut] *= 1j * grid.xi[:cut]
    forcing = SpectralField(grid, out)
    forcing.band = cut
    return forcing


def _admissible_omega(prob: IvpProblem) -> float:
    """The contraction exponent omega_k; AdmissibilityError when it is nonpositive."""
    w = omega_k(prob.k, prob.symbol.p)
    if w <= 0:
        raise AdmissibilityError(
            f"contraction exponent {w:.4g} is nonpositive for k={prob.k}, "
            f"p={prob.symbol.p}; the pair is outside the admissible range p > 3k/2 + 1"
        )
    return w


def select_radius_and_time(prob: IvpProblem, c: float) -> tuple[float, float]:
    """Ball radius and existence time: r = 4c*||v0||_{H^s}, c*T^omega*r^k = 1/4.

    T is capped at 1, the standing assumption of the weighted spaces.  A T
    that is not a positive double (c*r^k beyond the double range) is a
    DoubleRangeError.
    """
    if c <= 0:
        raise ValueError(f"constant c must be positive, got {c}")
    w = _admissible_omega(prob)
    hs = sobolev_norm(prob.initial_data, prob.s)
    r = 4.0 * c * hs
    if r == 0.0:
        return 0.0, 1.0
    t_final = min(1.0, (1.0 / (4.0 * c * r ** prob.k)) ** (1.0 / w))
    if not t_final > 0:
        raise DoubleRangeError(
            f"existence time T={t_final:g} leaves the double range for c={c:.6g}, "
            f"r={r:.6g}, k={prob.k:g}"
        )
    return r, t_final


def duhamel_norm(prob: IvpProblem, prop: Propagator, forcing, cfg: WeightedNormConfig,
                 panels: int) -> list[float]:
    """Space norm of int_0^t V(t - tau) F_p(tau) dtau over cfg.sample_times
    for each member F_p of a stacked forcing.

    forcing is a callable tau -> list of P fields; one duhamel_sweep on
    [0, cfg.t_final] with the given number of panels serves all P members,
    each time's (P, n/2 + 1) spectra are normed as one stack, and the P
    norms are returned in order.
    """
    sweep = duhamel_sweep(prop, forcing, cfg.sample_times, cfg.t_final, panels)
    return prob.space_norm((SpectralField(prob.grid, specs) for specs in sweep), cfg).tolist()


def calibrate_c(prob: IvpProblem, g: SpectralField, panels: int) -> float:
    """Empirical constant of the fixed-point estimates on the probe g, with a
    2x safety factor.

    The radius rule uses one constant for both sides of the argument: the
    free iterate must fit in the ball (c at least the linear-estimate ratio
    ||V(.)g||_space / ||g||_{H^s}) and the Duhamel term must contract (c at
    least ||int V(t-tau) N(Vg)(tau) dtau||_space / (T^omega *
    ||Vg||_space^(k+1)) at T = 1, where T^omega = 1; both norms sample 12
    times, and the Duhamel sweep runs on the given number of panels).  The
    larger ratio is returned, doubled.  A probe with ||g||_{H^s} = 0 raises
    ValueError; a probe so large that a norm, a power or the ratio overflows
    raises DoubleRangeError, without a numpy warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        hs = sobolev_norm(g, prob.s)
        if hs == 0.0:
            raise ValueError("calibration needs a nonzero probe")
        prop = Propagator(prob.symbol, prob.grid)
        cfg = WeightedNormConfig.default(prob.s, prob.k, prob.symbol.p, 1.0, n_times=12)
        forcing = lambda tau: [nonlinearity_eval(apply_semigroup(prop, g, tau), prob.k, prob.mode)]
        try:
            denom = prob.space_norm((apply_semigroup(prop, g, t) for t in cfg.sample_times), cfg)
            num = duhamel_norm(prob, prop, forcing, cfg, panels)[0]
            return 2.0 * max(denom / hs, num / denom ** (prob.k + 1.0))
        except (BlowUpError, OverflowError) as exc:
            raise DoubleRangeError(
                f"the calibration probe (||g||_H^s = {hs:.6g}) leaves the double range: {exc}"
            ) from exc


class PicardSolution:
    """Last iterate v^n: its band below the dealias cutoff at the stored
    times, plus one-sweep access anywhere.

    Above the band v^n is the free flow V(t)v0 to the bit (see
    picard_iterate).  at(times) returns the iterate v^n at each stored time,
    formed as V(t)v0 with the band written over its first modes; every other
    time in [0, T] gets one more Picard application Psi(v^n).  All the
    off-grid times of one call share one duhamel_sweep, which forms the
    forcing of v^n at each node from its band as it reaches it; no nodal
    forcing is kept.  A time outside [0, T] is a ValueError.
    The two differ by at most the last increment.
    """

    def __init__(self, prop, prob, t_final, panels, stored_bands):
        self.prop = prop
        self.prob = prob
        self.t_final = t_final
        self.panels = panels
        self._stored = stored_bands

    def _integrals(self, times) -> dict:
        """{t: int_0^t V(t - tau) N(v^n)(tau) dtau} for the distinct times, by one sweep."""
        for t in times:
            if t < 0 or t > self.t_final * (1 + 1e-12):
                raise ValueError(f"time {t} outside the solution interval [0, {self.t_final}]")
        ordered = sorted(set(times))
        prob = self.prob
        forcing = lambda tau: _nonlinearity(prob.grid, self._stored[tau], prob.k, prob.mode)
        sweep = duhamel_sweep(self.prop, forcing, ordered, self.t_final, self.panels)
        return dict(zip(ordered, sweep, strict=True))

    def at(self, times) -> list[SpectralField]:
        """The solution at each of times, in the order given."""
        times = [float(t) for t in times]
        stored, prop, v0 = self._stored, self.prop, self.prob.initial_data
        integrals = self._integrals([t for t in times if t not in stored])
        out = []
        for t in times:
            spec = apply_semigroup(prop, v0, t).spec
            if t in stored:
                spec[:stored[t].size] = stored[t]
            else:
                spec = spec - integrals[t]
            out.append(SpectralField(self.prob.grid, spec))
        return out

    def duhamel_parts(self, times) -> list[SpectralField]:
        """The signed integral term of the solution, v(t) - V(t)v0, at each of times."""
        times = [float(t) for t in times]
        integrals = self._integrals(times)
        return [SpectralField(self.prob.grid, -integrals[t]) for t in times]

    def __call__(self, t: float) -> SpectralField:
        """The solution at one time: at([t])."""
        return self.at([t])[0]

    def duhamel_part(self, t: float) -> SpectralField:
        """The signed integral term at one time: duhamel_parts([t])."""
        return self.duhamel_parts([t])[0]


def picard_iterate(
    prob: IvpProblem,
    r: float,
    t_final: float,
    *,
    max_iter: int,
    tol: float,
    panels: int,
) -> tuple[PicardSolution, PicardTrace]:
    """Iterate v^(n+1) = Psi(v^n) from the free evolution until the space norm
    of the increment drops below tol.

    One set of fields is held, and of each field only its first
    grid.dealias_cutoff coefficients, copied so that no view keeps a half
    spectrum alive: every forcing is exactly 0 from the cutoff on, so there
    each iterate is the free flow V(t)v0 to the bit, and the forcing at a
    node reads the band alone.  Each time's band of v^n is replaced by that
    of v^(n+1) as the sweep yields it, which duhamel_sweep's order allows
    (every node of a panel is evaluated before any time in the panel is
    yielded, so no node reads a replaced band).  The free evolution V(t)v0
    is formed again at each time, and the increment and size norms stream
    time by time, as the two rows of one stack; the increment is the
    difference of the two bands with +0 above them, which v^(n+1) - v^n is
    there.
    Iterates leaving the ball (space norm above 10r) raise DivergenceError:
    either the parameters are inadmissible or the calibrated constant is too
    small.
    """
    if not 0 < t_final <= 1:
        raise ValueError(f"t_final must lie in (0, 1], got {t_final}")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    grid = prob.grid
    prop = Propagator(prob.symbol, grid)
    cfg = WeightedNormConfig.default(prob.s, prob.k, prob.symbol.p, t_final)
    nodes = duhamel_nodes(t_final, panels).ravel()
    eval_times = sorted(
        {float(t) for t in nodes}
        | {float(t) for t in cfg.sample_times}
        | {float(t_final)}
    )
    v0 = prob.initial_data
    cut = grid.dealias_cutoff
    held = {t: apply_semigroup(prop, v0, t).spec[:cut].copy() for t in eval_times}
    sample_times = set(cfg.sample_times)
    forcing = lambda tau: _nonlinearity(grid, held[tau], prob.k, prob.mode)

    def advance(it):
        """Replace held by the band of the next iterate, time by time; yield
        the stack [v^(n+1) - v^n, v^(n+1)] at each sample time."""
        sweep = duhamel_sweep(prop, forcing, eval_times, t_final, panels=panels)
        for t, integral in zip(eval_times, sweep, strict=True):
            free = apply_semigroup(prop, v0, t).spec
            # at a sample time v^(n+1) is formed as row 1 of [increment, v^(n+1)]
            pair = np.zeros((2,) + free.shape, dtype=complex) if t in sample_times else None
            spec = np.subtract(free, integral, out=None if pair is None else pair[1])
            if not np.all(np.isfinite(spec)):
                raise BlowUpError(f"iterate {it} became non-finite at t={t:g}")
            band = spec[:cut].copy()
            if pair is not None:
                np.subtract(band, held[t], out=pair[0, :cut])
                yield SpectralField(grid, pair)
            held[t] = band

    trace = PicardTrace(r=r, t_final=t_final, c_calibrated=None)
    prev_increment = None
    for it in range(1, max_iter + 1):
        increment, size = prob.space_norm(advance(it), cfg).tolist()
        ratio = None
        if prev_increment is not None and prev_increment > 0:
            ratio = increment / prev_increment
        trace.iterates.append(IterationRecord(it, size, increment, ratio))
        if r > 0 and size > 10.0 * r:
            raise DivergenceError(
                f"iterate {it} left the ball: space norm {size:.4g} > 10*r = {10 * r:.4g}"
            )
        prev_increment = increment
        if increment <= tol:
            trace.converged = True
            break
    solution = PicardSolution(prop, prob, t_final, panels, held)
    return solution, trace


def solve(
    prob: IvpProblem,
    max_iter: int = 40,
    tol: float | None = None,
    panels: int = 16,
) -> tuple[PicardSolution, PicardTrace]:
    """Calibrate c on the initial data, select (r, T), and run the Picard
    iteration; the trace records c, None on zero data (r = 0, T = 1)."""
    _admissible_omega(prob)
    with np.errstate(over="ignore"):  # an infinite norm is calibrate_c's DoubleRangeError
        hs0 = sobolev_norm(prob.initial_data, prob.s)
    c, r, t_final = None, 0.0, 1.0
    if hs0 != 0.0:
        c = calibrate_c(prob, prob.initial_data, panels)
        r, t_final = select_radius_and_time(prob, c)
    if tol is None:
        tol = min(1e-6, max(1e-12, 1e-8 * r))
    solution, trace = picard_iterate(prob, r, t_final, max_iter=max_iter, tol=tol, panels=panels)
    trace.c_calibrated = c
    return solution, trace


# ---------------------------------------------------------------------------
# Reference integrator: exponential time differencing, fourth order.
# ---------------------------------------------------------------------------


def _etdrk4_coefficients(z: np.ndarray, dt: float):
    """Stage coefficients with phi-functions evaluated by contour averaging.

    Each coefficient is the mean of the defining formula over 32 points on a
    unit circle around dt*z, which is exact for these entire functions and
    avoids the cancellation of the direct formulas near z = 0.  The circle
    points are summed one at a time: the traced peak is about 14 arrays of
    z's length, the six returned included, whatever the number of points.
    """
    w = dt * z
    q, f1, f2, f3 = (np.zeros_like(w) for _ in range(4))
    for c in np.exp(2j * np.pi * (np.arange(32) + 0.5) / 32):
        pts = w + c
        ez = np.exp(pts)
        square, cube = pts ** 2, pts ** 3
        q += (np.exp(pts / 2.0) - 1.0) / pts
        f1 += (-4.0 - pts + ez * (4.0 - 3.0 * pts + square)) / cube
        f2 += (2.0 + pts + ez * (pts - 2.0)) / cube
        f3 += (-4.0 - 3.0 * pts - square + ez * (4.0 - pts)) / cube
    q, f1, f2, f3 = (dt * (acc / 32) for acc in (q, f1, f2, f3))
    return np.exp(w), np.exp(w / 2.0), q, f1, f2, f3


@dataclass
class ReferenceRun:
    """Step times, L^2 history and final state of a reference solve."""

    grid: GridSpec
    times: np.ndarray
    l2_norms: np.ndarray
    final: SpectralField


def reference_integrate(prob: IvpProblem, t_final: float, n_steps: int) -> ReferenceRun:
    """Integrate the problem with ETDRK4 over [0, t_final].

    The linear multiplier i*xi^3 + eta*Phi is treated exactly per step, the
    (dealiased) nonlinearity explicitly; the scheme is therefore exact on
    purely linear problems.  t_final must be finite and >= 0 (t_final = 0
    returns the data) and n_steps an integer >= 1; anything else is a
    ValueError.
    """
    if not 0 <= t_final < math.inf:
        raise ValueError(f"t_final must be finite and >= 0, got {t_final}")
    if not isinstance(n_steps, numbers.Integral):
        raise ValueError(f"n_steps must be an integer, got {n_steps!r}")
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    prop = Propagator(prob.symbol, prob.grid)
    dt = t_final / n_steps
    e_full, e_half, q, f1, f2, f3 = _etdrk4_coefficients(prop.exponent, dt)

    def nl(vhat: np.ndarray) -> np.ndarray:
        return -nonlinearity_eval(SpectralField(prob.grid, vhat), prob.k, prob.mode).spec

    def l2_norm(vhat: np.ndarray) -> float:
        return sobolev_norm(SpectralField(prob.grid, vhat), 0.0)

    vhat = prob.initial_data.spec.copy()
    times = [0.0]
    l2 = [l2_norm(vhat)]
    for step in range(1, n_steps + 1):
        n0 = nl(vhat)
        a = e_half * vhat + q * n0
        na = nl(a)
        b = e_half * vhat + q * na
        nb = nl(b)
        cstage = e_half * a + q * (2.0 * nb - n0)
        nc = nl(cstage)
        vhat = e_full * vhat + f1 * n0 + 2.0 * f2 * (na + nb) + f3 * nc
        norm = l2_norm(vhat)
        if not np.isfinite(norm) or (l2[-1] > 0 and norm > 10.0 * l2[-1]):
            raise StabilityError(
                f"norm grew by more than 10x in step {step}; reduce the step size"
            )
        times.append(step * dt)
        l2.append(norm)
    final = SpectralField(prob.grid, vhat)
    final.phys  # the run hands back the final state with its samples
    return ReferenceRun(
        grid=prob.grid,
        times=np.array(times),
        l2_norms=np.array(l2),
        final=final,
    )
