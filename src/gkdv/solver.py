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
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    AdmissibilityError,
    BlowUpError,
    DivergenceError,
    StabilityError,
    StructuralError,
)
from .norms import WeightedNormConfig, omega_k, sobolev_norm, x_norm, y_norm
from .semigroup import (
    Propagator,
    duhamel_nodes,
    duhamel_sweep,
    duhamel_trajectory,
    free_trajectory,
)
from .spectral import GridSpec, SpectralField, linear_combination
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

    def to_json_dict(self) -> dict:
        return {
            "r": self.r,
            "t_final": self.t_final,
            "c_calibrated": self.c_calibrated,
            "converged": self.converged,
            "iterates": [
                {
                    "index": rec.index,
                    "space_norm": rec.space_norm,
                    "increment_norm": rec.increment_norm,
                    "contraction_ratio": rec.contraction_ratio,
                }
                for rec in self.iterates
            ],
        }


def signed_power(values: np.ndarray, k: float) -> np.ndarray:
    """v^(k+1) for integer k+1, else the sign-preserving power |v|^k * v.

    The sign-preserving convention keeps the nonlinearity odd and real for
    every real k > 0 and agrees with the integer case on nonnegative data.
    An integer power is formed by binary exponentiation (squarings and
    products), because libm pow, which ** calls, is about 50x slower on
    negative bases.
    """
    if k <= 0:
        raise ValueError(f"nonlinearity degree must be positive, got {k}")
    kp1 = k + 1.0
    if abs(kp1 - round(kp1)) < 1e-12:
        out = np.array(values, dtype=float)
        for bit in bin(int(round(kp1)))[3:]:
            np.square(out, out=out)
            if bit == "1":
                np.multiply(out, values, out=out)
        return out
    return np.abs(values) ** k * values


def nonlinearity_eval(f: SpectralField, k: float, mode: str) -> SpectralField:
    """Nonlinear term N(v): d_x(P(v)) (conservative) or P(d_x u) (gradient).

    Only the kept modes below the dealias cutoff enter or leave the pointwise
    power: the slice spec[:cut] (times i*xi in gradient mode) goes through
    one inverse real transform, which zero-pads it, and the first cut modes
    of one forward real transform (times i*xi in conservative mode) are
    returned with every higher mode, the Nyquist mode included, zero.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    grid = f.grid
    cut = grid.dealias_cutoff
    ixi = 1j * grid.xi[:cut]
    kept = f.spec[:cut]
    if mode == "gradient":
        kept = kept * ixi
    powered = signed_power(np.fft.irfft(kept, grid.n_points, norm="forward"), k)
    if not np.all(np.isfinite(powered)):
        raise BlowUpError("pointwise power overflowed; field amplitude too large")
    out = np.zeros_like(f.spec)
    out[:cut] = np.fft.rfft(powered, norm="forward")[:cut]
    if mode == "conservative":
        out[:cut] *= ixi
    return SpectralField(grid, out)


def select_radius_and_time(prob: IvpProblem, c: float) -> tuple[float, float]:
    """Ball radius and existence time: r = 4c*||v0||_{H^s}, c*T^omega*r^k = 1/4.

    T is capped at 1, the standing assumption of the weighted spaces.
    """
    if c <= 0:
        raise ValueError(f"constant c must be positive, got {c}")
    w = omega_k(prob.k, prob.symbol.p)
    if w <= 0:
        raise AdmissibilityError(
            f"contraction exponent {w:.4g} is nonpositive for k={prob.k}, "
            f"p={prob.symbol.p}; the pair is outside the admissible range p > 3k/2 + 1"
        )
    hs = sobolev_norm(prob.initial_data, prob.s)
    r = 4.0 * c * hs
    if r == 0.0:
        return 0.0, 1.0
    t_final = min(1.0, (1.0 / (4.0 * c * r ** prob.k)) ** (1.0 / w))
    return r, t_final


def calibrate_c(
    prob: IvpProblem,
    probe_set,
    t_cal: float = 1.0,
    panels: int = 16,
    grading: float = 2.0,
    n_times: int = 12,
) -> float:
    """Empirical constant of the fixed-point estimates, with a 2x safety factor.

    The radius rule uses one constant for both sides of the argument: the
    free iterate must fit in the ball (c at least the linear-estimate ratio
    ||V(.)g||_space / ||g||_{H^s}) and the Duhamel term must contract (c at
    least ||int V(t-tau) N(Vg)(tau) dtau||_space / (T^omega *
    ||Vg||_space^(k+1)) at T = t_cal).  The maximum of both ratios over the
    probes is returned, doubled.  Zero probes are skipped; an all-zero set is
    an error.
    """
    prop = Propagator(prob.symbol, prob.grid)
    cfg = WeightedNormConfig.default(prob.s, prob.k, prob.symbol.p, t_cal, n_times=n_times)
    w = omega_k(prob.k, prob.symbol.p)
    space = prob.space_norm
    ratios = []
    for g in probe_set:
        hs = sobolev_norm(g, prob.s)
        if hs == 0.0:
            continue
        traj = free_trajectory(prop, g)
        denom = space(traj, cfg).total
        ratios.append(denom / hs)
        forcing = lambda tau, _traj=traj: nonlinearity_eval(_traj(tau), prob.k, prob.mode)
        dtraj = duhamel_trajectory(prop, forcing, cfg.sample_times, t_cal,
                                   panels=panels, grading=grading)
        num = space(dtraj, cfg).total
        ratios.append(num / (t_cal ** w * denom ** (prob.k + 1.0)))
    if not ratios:
        raise ValueError("calibration needs at least one nonzero probe")
    return 2.0 * max(ratios)


class PicardSolution:
    """Converged iterate: stored fields plus single-sweep access anywhere.

    Calling the solution at a stored time returns the stored field; any other
    time in [0, T] is produced by one duhamel_sweep against the nodal forcing
    of the stored iterate, which the first such call evaluates and keeps.
    """

    def __init__(self, prop, prob, t_final, panels, grading, stored_fields):
        self.prop = prop
        self.prob = prob
        self.t_final = t_final
        self.panels = panels
        self.grading = grading
        self._v0_spec = prob.initial_data.spec.copy()
        self._stored = dict(stored_fields)
        self.times = np.array(sorted(self._stored))

    @cached_property
    def _nodal_forcing(self) -> dict:
        nodes = duhamel_nodes(self.t_final, self.panels, self.grading).ravel()
        return {
            float(tau): nonlinearity_eval(self._stored[float(tau)], self.prob.k, self.prob.mode)
            for tau in nodes
        }

    def _integral(self, t: float) -> np.ndarray:
        if t < 0 or t > self.t_final * (1 + 1e-12):
            raise ValueError(f"time {t} outside the solution interval [0, {self.t_final}]")
        sweep = duhamel_sweep(self.prop, self._nodal_forcing.__getitem__, [t], self.t_final,
                              self.panels, self.grading)
        return next(sweep)

    def __call__(self, t: float) -> SpectralField:
        t = float(t)
        if t in self._stored:
            return self._stored[t]
        spec = self.prop.multiplier(t) * self._v0_spec - self._integral(t)
        return SpectralField(self.prob.grid, spec)

    def free_part(self, t: float) -> SpectralField:
        return SpectralField(self.prob.grid, self.prop.multiplier(t) * self._v0_spec)

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
    grading: float = 2.0,
    norm_times=None,
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
    if norm_times is None:
        cfg = WeightedNormConfig.default(prob.s, prob.k, prob.symbol.p, t_final)
    else:
        cfg = WeightedNormConfig(prob.s, prob.k, prob.symbol.p, t_final, tuple(norm_times))
    space = prob.space_norm
    nodes = duhamel_nodes(t_final, panels, grading).ravel()
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
        sweep = duhamel_sweep(prop, forcing, eval_times, t_final, panels=panels, grading=grading)
        new = {}
        for t, integral in zip(eval_times, sweep):
            spec = free_specs[t] - integral
            if not np.all(np.isfinite(spec)):
                raise BlowUpError(f"iterate {it} became non-finite at t={t:g}")
            new[t] = SpectralField(prob.grid, spec)
        increment = space(
            lambda t: linear_combination(new[t], current[t], 1.0, -1.0), cfg
        ).total
        size = space(lambda t: new[t], cfg).total
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
    solution = PicardSolution(prop, prob, t_final, panels, grading, current)
    return solution, trace


def solve(
    prob: IvpProblem,
    probes=None,
    max_iter: int = 40,
    tol: float | None = None,
    panels: int = 16,
    grading: float = 2.0,
) -> tuple[PicardSolution, PicardTrace]:
    """Calibrate c, select (r, T), and run the Picard iteration."""
    w = omega_k(prob.k, prob.symbol.p)
    if w <= 0:
        raise AdmissibilityError(
            f"contraction exponent {w:.4g} is nonpositive for k={prob.k}, "
            f"p={prob.symbol.p}; the pair is outside the admissible range p > 3k/2 + 1"
        )
    hs0 = sobolev_norm(prob.initial_data, prob.s)
    if hs0 == 0.0:
        solution, trace = picard_iterate(
            prob, 0.0, 1.0, max_iter=2, tol=max(tol or 0.0, 1e-300),
            panels=panels, grading=grading,
        )
        return solution, trace
    c = calibrate_c(prob, probes if probes is not None else [prob.initial_data],
                    panels=panels, grading=grading)
    r, t_final = select_radius_and_time(prob, c)
    if tol is None:
        tol = min(1e-6, max(1e-12, 1e-8 * r))
    return picard_iterate(
        prob, r, t_final, max_iter=max_iter, tol=tol, panels=panels,
        grading=grading, calibrated_c=c,
    )


# ---------------------------------------------------------------------------
# Reference integrator: exponential time differencing, fourth order.
# ---------------------------------------------------------------------------


def _etdrk4_coefficients(z: np.ndarray, dt: float, n_contour: int = 32):
    """Stage coefficients with phi-functions evaluated by contour averaging.

    Each coefficient is the mean of the defining formula over 32 points on a
    unit circle around dt*z, which is exact for these entire functions and
    avoids the cancellation of the direct formulas near z = 0.
    """
    w = dt * z
    circle = np.exp(2j * np.pi * (np.arange(n_contour) + 0.5) / n_contour)
    pts = w[:, None] + circle[None, :]
    ez = np.exp(pts)
    q = dt * np.mean((np.exp(pts / 2.0) - 1.0) / pts, axis=1)
    f1 = dt * np.mean((-4.0 - pts + ez * (4.0 - 3.0 * pts + pts ** 2)) / pts ** 3, axis=1)
    f2 = dt * np.mean((2.0 + pts + ez * (pts - 2.0)) / pts ** 3, axis=1)
    f3 = dt * np.mean((-4.0 - 3.0 * pts - pts ** 2 + ez * (4.0 - pts)) / pts ** 3, axis=1)
    return np.exp(w), np.exp(w / 2.0), q, f1, f2, f3


@dataclass
class ReferenceRun:
    """Step times, L^2 history and requested snapshots of a reference solve."""

    grid: GridSpec
    times: np.ndarray
    l2_norms: np.ndarray
    snapshots: dict
    final: SpectralField

    def at(self, t: float) -> SpectralField:
        for key, fieldval in self.snapshots.items():
            if abs(key - t) <= 1e-9 * max(1.0, abs(t)):
                return fieldval
        raise KeyError(f"no snapshot stored at t={t}")


def reference_integrate(
    prob: IvpProblem,
    t_final: float,
    n_steps: int = 2048,
    snapshot_times=(),
    include_nonlinearity: bool = True,
) -> ReferenceRun:
    """Integrate the problem with ETDRK4 over [0, t_final].

    The linear multiplier i*xi^3 + eta*Phi is treated exactly per step, the
    (dealiased) nonlinearity explicitly; the scheme is therefore exact on
    purely linear problems.  Snapshot times must align with the step grid.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    prop = Propagator(prob.symbol, prob.grid)
    dt = t_final / n_steps
    e_full, e_half, q, f1, f2, f3 = _etdrk4_coefficients(prop.exponent, dt)

    want = {}
    for t in snapshot_times:
        j = int(round(t / dt))
        if not 0 <= j <= n_steps or abs(j * dt - t) > 1e-9 * max(1.0, t_final):
            raise ValueError(f"snapshot time {t} does not align with the step grid")
        want[j] = float(t)

    def nl(vhat: np.ndarray) -> np.ndarray:
        if not include_nonlinearity:
            return np.zeros_like(vhat)
        return -nonlinearity_eval(SpectralField(prob.grid, vhat), prob.k, prob.mode).spec

    def l2_norm(vhat: np.ndarray) -> float:
        return sobolev_norm(SpectralField(prob.grid, vhat), 0.0)

    vhat = prob.initial_data.spec.copy()
    times = [0.0]
    l2 = [l2_norm(vhat)]
    snapshots = {}
    if 0 in want:
        snapshots[want[0]] = SpectralField(prob.grid, vhat.copy())
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
        if step in want:
            snapshots[want[step]] = SpectralField(prob.grid, vhat.copy())
    final = SpectralField(prob.grid, vhat)
    final.phys  # the run hands back the final state with its samples
    return ReferenceRun(
        grid=prob.grid,
        times=np.array(times),
        l2_norms=np.array(l2),
        snapshots=snapshots,
        final=final,
    )
