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
over its nodal forcing, with no interpolation of the iterate itself.

The independent cross-check is a fourth-order exponential time-differencing
Runge-Kutta scheme (Cox-Matthews stages, contour-averaged coefficients in the
style of Kassam-Trefethen) that treats the full linear multiplier exactly.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property

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
    returned with every higher mode, the Nyquist mode included, zero.
    It is the composition of its two halves: spectrum to powered samples,
    and powered samples to forcing spectrum.
    """
    return _to_forcing(_powered(f, k, mode), f.grid, mode)


def nonlinearity_difference(v: SpectralField, w: SpectralField, k: float,
                            mode: str) -> SpectralField:
    """N(v) - N(w) in difference form: the forward half of nonlinearity_eval
    applied once to P(v) - P(w).

    rfft is linear, so this equals nonlinearity_eval(v) - nonlinearity_eval(w)
    up to roundoff, with 2 inverse and 1 forward transform instead of 2 each.
    """
    if v.grid != w.grid:
        raise StructuralError("cannot difference fields on different grids")
    return _to_forcing(_powered(v, k, mode) - _powered(w, k, mode), v.grid, mode)


def _powered(f: SpectralField, k: float, mode: str) -> np.ndarray:
    """Samples of P(v) (conservative) or P(d_x u) (gradient) from the band below the cutoff."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    grid = f.grid
    cut = grid.dealias_cutoff
    kept = f.spec[:cut]
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
    return SpectralField(grid, out)


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
    and the P norms are returned in order.
    """
    sweep = duhamel_sweep(prop, forcing, cfg.sample_times, cfg.t_final, panels)
    stacks = ([SpectralField(prob.grid, spec) for spec in specs] for specs in sweep)
    return member_norms(prob.space_norm, stacks, cfg)


def member_norms(space, stacks, cfg: WeightedNormConfig) -> list[float]:
    """The space norm of each member of a stack of trajectories.

    stacks yields, for each of cfg.sample_times in order, a list of fields
    with one member each.  Each time's fields are normed at that time alone
    and dropped before the next time is formed; a member's norm is the max
    of its one-time norms, which is the number space gives for its whole
    trajectory.
    """
    best = None
    for t, fields in zip(cfg.sample_times, stacks, strict=True):
        at_t = replace(cfg, sample_times=(t,))
        norms = [space([f], at_t) for f in fields]
        best = norms if best is None else [max(b, n) for b, n in zip(best, norms)]
    return best


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
    """Last iterate v^n: stored fields plus single-sweep access anywhere.

    Calling the solution at a stored time returns the iterate v^n there; any
    other time in [0, T] returns one more Picard application Psi(v^n), by one
    duhamel_sweep against the nodal forcing of v^n, which the first such call
    evaluates and keeps.  The two differ by at most the last increment.
    """

    def __init__(self, prop, prob, t_final, panels, stored_fields):
        self.prop = prop
        self.prob = prob
        self.t_final = t_final
        self.panels = panels
        self._v0_spec = prob.initial_data.spec.copy()
        self._stored = dict(stored_fields)

    @cached_property
    def _nodal_forcing(self) -> dict:
        nodes = duhamel_nodes(self.t_final, self.panels).ravel()
        return {
            float(tau): nonlinearity_eval(self._stored[float(tau)], self.prob.k, self.prob.mode)
            for tau in nodes
        }

    def _integral(self, t: float) -> np.ndarray:
        if t < 0 or t > self.t_final * (1 + 1e-12):
            raise ValueError(f"time {t} outside the solution interval [0, {self.t_final}]")
        sweep = duhamel_sweep(self.prop, self._nodal_forcing.__getitem__, [t], self.t_final,
                              self.panels)
        return next(sweep)

    def __call__(self, t: float) -> SpectralField:
        t = float(t)
        if t in self._stored:
            return self._stored[t]
        spec = self.prop.multiplier(t) * self._v0_spec - self._integral(t)
        return SpectralField(self.prob.grid, spec)

    def duhamel_part(self, t: float) -> SpectralField:
        """The signed integral term of the solution, v(t) - V(t)v0."""
        return SpectralField(self.prob.grid, -self._integral(float(t)))


def picard_iterate(
    prob: IvpProblem,
    r: float,
    t_final: float,
    max_iter: int = 40,
    tol: float = 1e-9,
    panels: int = 16,
    calibrated_c: float | None = None,
) -> tuple[PicardSolution, PicardTrace]:
    """Iterate v^(n+1) = Psi(v^n) from the free evolution until the space norm
    of the increment drops below tol.

    Iterates leaving the ball (space norm above 10r) raise DivergenceError:
    either the parameters are inadmissible or the calibrated constant is too
    small.
    """
    if not 0 < t_final <= 1:
        raise ValueError(f"t_final must lie in (0, 1], got {t_final}")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    prop = Propagator(prob.symbol, prob.grid)
    cfg = WeightedNormConfig.default(prob.s, prob.k, prob.symbol.p, t_final)
    space = prob.space_norm
    nodes = duhamel_nodes(t_final, panels).ravel()
    eval_times = sorted(
        {float(t) for t in nodes}
        | {float(t) for t in cfg.sample_times}
        | {float(t_final)}
    )
    free_specs = {t: prop.multiplier(t) * prob.initial_data.spec for t in eval_times}
    current = {t: SpectralField(prob.grid, free_specs[t]) for t in eval_times}

    trace = PicardTrace(r=r, t_final=t_final, c_calibrated=calibrated_c)
    prev_increment = None
    for it in range(1, max_iter + 1):
        forcing = lambda tau, _cur=current: nonlinearity_eval(_cur[tau], prob.k, prob.mode)
        sweep = duhamel_sweep(prop, forcing, eval_times, t_final, panels=panels)
        new = {}
        for t, integral in zip(eval_times, sweep):
            spec = free_specs[t] - integral
            if not np.all(np.isfinite(spec)):
                raise BlowUpError(f"iterate {it} became non-finite at t={t:g}")
            new[t] = SpectralField(prob.grid, spec)
        increment = space((new[t] - current[t] for t in cfg.sample_times), cfg)
        size = space((new[t] for t in cfg.sample_times), cfg)
        ratio = None
        if prev_increment is not None and prev_increment > 0:
            ratio = increment / prev_increment
        trace.iterates.append(IterationRecord(it, size, increment, ratio))
        if r > 0 and size > 10.0 * r:
            raise DivergenceError(
                f"iterate {it} left the ball: space norm {size:.4g} > 10*r = {10 * r:.4g}"
            )
        current = new
        prev_increment = increment
        if increment <= tol:
            trace.converged = True
            break
    solution = PicardSolution(prop, prob, t_final, panels, current)
    return solution, trace


def solve(
    prob: IvpProblem,
    max_iter: int = 40,
    tol: float | None = None,
    panels: int = 16,
) -> tuple[PicardSolution, PicardTrace]:
    """Calibrate c on the initial data, select (r, T), and run the Picard iteration."""
    _admissible_omega(prob)
    with np.errstate(over="ignore"):  # an infinite norm is calibrate_c's DoubleRangeError
        hs0 = sobolev_norm(prob.initial_data, prob.s)
    if hs0 == 0.0:
        return picard_iterate(prob, 0.0, 1.0, panels=panels)
    c = calibrate_c(prob, prob.initial_data, panels)
    r, t_final = select_radius_and_time(prob, c)
    if tol is None:
        tol = min(1e-6, max(1e-12, 1e-8 * r))
    return picard_iterate(prob, r, t_final, max_iter=max_iter, tol=tol, panels=panels,
                          calibrated_c=c)


# ---------------------------------------------------------------------------
# Reference integrator: exponential time differencing, fourth order.
# ---------------------------------------------------------------------------


def _etdrk4_coefficients(z: np.ndarray, dt: float):
    """Stage coefficients with phi-functions evaluated by contour averaging.

    Each coefficient is the mean of the defining formula over 32 points on a
    unit circle around dt*z, which is exact for these entire functions and
    avoids the cancellation of the direct formulas near z = 0.
    """
    w = dt * z
    circle = np.exp(2j * np.pi * (np.arange(32) + 0.5) / 32)
    pts = w[:, None] + circle[None, :]
    ez = np.exp(pts)
    q = dt * np.mean((np.exp(pts / 2.0) - 1.0) / pts, axis=1)
    f1 = dt * np.mean((-4.0 - pts + ez * (4.0 - 3.0 * pts + pts ** 2)) / pts ** 3, axis=1)
    f2 = dt * np.mean((2.0 + pts + ez * (pts - 2.0)) / pts ** 3, axis=1)
    f3 = dt * np.mean((-4.0 - 3.0 * pts - pts ** 2 + ez * (4.0 - pts)) / pts ** 3, axis=1)
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
    purely linear problems.
    """
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
