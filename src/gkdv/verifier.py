"""Numerical experiments for the decay, boundedness and contraction estimates.

Every check produces an EstimateReport with the fitted exponent, the
theoretical exponent, the fit window, the empirical constant and a verdict at
a stated tolerance.  Upper-bound estimates are verified one-sided: a fitted
decay faster than allowed fails, a slower one passes (flagged "pass-weak"
when the probe is clearly not extremal).  All randomness is seeded.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DoubleRangeError
from .norms import (
    WeightedNormConfig,
    _weighted_sup,
    gamma_k,
    lebesgue_norm,
    omega_k,
    sobolev_norm,
    spectral_lq_norm,
)
from .probes import rough_field
from .semigroup import Propagator, _lattice_sup, apply_semigroup, smoothing_norm_profile
from .solver import (
    IvpProblem,
    calibrate_c,
    duhamel_norm,
    nonlinearity_difference,
    nonlinearity_eval,
    picard_iterate,
    select_radius_and_time,
)
from .spectral import GridSpec, SpectralField, apply_multiplier_values
from .symbols import DissipativeSymbol, _conditions_hold, threshold_M

DEFAULT_LENGTH = 200.0 * np.pi
DEFAULT_N_POINTS = 2 ** 13

# The T values of verify_nonlinear_estimate, 2^-10 ... 2^-5.
_GROWTH_T_VALUES = tuple(2.0 ** (-j) for j in range(10, 4, -1))

# Seeds of verify_weighted_linear normed as one stack at most, whatever n_seeds.
_STACK_MEMBERS = 16

# Fitted exponents this far above the theoretical bound indicate the probe
# never saturates the estimate; the verdict is then "pass-weak".
_WEAK_MARGIN = 0.3


def _one_sided_verdict(fitted: float, theo: float, margin: float) -> str:
    """Verdict of a lower bound on a fitted exponent; a NaN fit fails."""
    if not fitted >= theo - margin:
        return "fail"
    return "pass-weak" if fitted > theo + _WEAK_MARGIN else "pass"


@dataclass
class EstimateReport:
    """Outcome of one estimate check."""

    estimate_id: str
    theoretical_exponent: float | None
    fitted_exponent: float | None
    fit_window: tuple
    residual: float
    empirical_constant: float
    tolerance: float
    verdict: str  # "pass" | "pass-weak" | "fail" | "skipped"
    notes: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.verdict in ("pass", "pass-weak", "skipped")


def render_report_table(reports) -> str:
    """Aligned text table of reports for human consumption."""
    headers = ("estimate", "theoretical", "fitted", "constant", "verdict")
    rows = [headers]
    for r in reports:
        rows.append(
            (
                r.estimate_id,
                "-" if r.theoretical_exponent is None else f"{r.theoretical_exponent:+.4f}",
                "-" if r.fitted_exponent is None else f"{r.fitted_exponent:+.4f}",
                f"{r.empirical_constant:.4g}",
                r.verdict,
            )
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(headers))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)


def fit_power_law(xs, ys) -> tuple[float, float, float]:
    """Least-squares line through (log x, log y).

    Returns (exponent, constant, residual) with residual the max absolute
    deviation of log y from the fit line.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size < 3 or xs.shape != ys.shape:
        raise ValueError("need at least 3 matching samples")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("power-law fit needs strictly positive data")
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    residual = float(np.max(np.abs(ly - (slope * lx + intercept))))
    return float(slope), float(np.exp(intercept)), residual


def _nonzero(values, what: str, grid: GridSpec) -> np.ndarray:
    """values as a float array; DoubleRangeError naming what and the grid when
    one of them is 0, as on a torus so long or so short that a probe's norms
    underflow.  No power law fits a 0."""
    values = np.asarray(values, dtype=float)
    if np.any(values == 0):
        raise DoubleRangeError(
            f"{what} underflows to 0 on the grid (length {grid.length:g}, "
            f"{grid.n_points} points)"
        )
    return values


def _lattice_for_profile(sym: DissipativeSymbol, theta: float, tau_min: float) -> GridSpec:
    """Frequency lattice wide enough to keep the profile maximizer interior."""
    if theta == 0:
        need = 8.0
    else:
        need = 3.0 * (theta / (sym.p * sym.eta * tau_min)) ** (1.0 / sym.p) + 8.0
    n = DEFAULT_N_POINTS
    while np.pi * n / DEFAULT_LENGTH < need and n < 2 ** 23:
        n *= 2
    return GridSpec(DEFAULT_LENGTH, n)


def _auto_tau_window(sym: DissipativeSymbol, theta: float) -> tuple:
    """Window deep enough that the profile maximizer sits above xi ~ 40.

    The bracket weight follows its -theta/p law only once the maximizer
    frequency (theta/(p*eta*tau))^(1/p) dwarfs the +1 in the bracket; the
    returned window places it in [40, 40*100^(1/p)].  Where p*eta*40^p
    leaves the double range, so that the window's lower end is not a
    positive double, no window exists and DoubleRangeError says so.
    """
    if theta == 0:
        return (1e-4, 1e-2)
    try:
        tau_hi = min(1e-2, theta / (sym.p * sym.eta * 40.0 ** sym.p))
    except OverflowError:
        tau_hi = 0.0
    if not tau_hi / 100.0 > 0:
        raise DoubleRangeError(
            f"no tau window for {sym.name}: the symbol scale p*eta*40^p with "
            f"p={sym.p:g}, eta={sym.eta:g} leaves the double range; set verify.tau_window"
        )
    return (tau_hi / 100.0, tau_hi)


def verify_multiplier_decay(
    sym: DissipativeSymbol,
    theta: float,
    tau_window: tuple | None = None,
    rel_tol: float = 0.05,
    weight: str = "bracket",
) -> EstimateReport:
    """Fit the decay of sup_xi (1+|xi|)^theta exp(eta*tau*Phi) against tau.

    The theoretical exponent is -theta/p.  The bracket weight approaches that
    law only as tau -> 0 (the maximizer must sit far above xi = 1), which is
    why the default window adapts to (p, theta); weight="homogeneous"
    replaces the bracket by |xi|^theta, for which the law is exact at every
    tau, as a supplementary diagnostic.  Both weights take the sup over one
    lattice and raise ResolutionError when a maximizer sits at its edge.

    With an explicit tau_window the bracket-weight verdict still compares the
    finite-window slope with the asymptotic -theta/p, so a "fail" there is
    expected unless the maximizer (theta/(p*eta*tau_max))^(1/p) >> 1.
    """
    if weight not in ("bracket", "homogeneous"):
        raise ValueError("weight must be 'bracket' or 'homogeneous'")
    if not 0 <= theta < np.inf:
        raise ValueError(f"theta must be finite and nonnegative, got {theta}")
    if tau_window is None:
        tau_window = _auto_tau_window(sym, theta)
    taus = np.geomspace(tau_window[0], tau_window[1], 24)
    grid = _lattice_for_profile(sym, theta, taus[0])
    if weight == "bracket":
        profile = smoothing_norm_profile(sym, theta, taus, grid)
    else:
        profile = _lattice_sup(sym, grid.xi ** theta, taus, grid)
    theo = -theta / sym.p
    fitted, constant, residual = fit_power_law(taus, profile)
    if theta == 0:
        ok = abs(fitted) <= 1e-3
        tol = 1e-3
    else:
        tol = rel_tol * abs(theo)
        ok = abs(fitted - theo) <= tol
    return EstimateReport(
        estimate_id=f"multiplier-decay-{weight}-{sym.name}-theta{theta:g}",
        theoretical_exponent=theo,
        fitted_exponent=fitted,
        fit_window=(float(taus[0]), float(taus[-1])),
        residual=residual,
        empirical_constant=constant,
        tolerance=tol,
        verdict="pass" if ok else "fail",
        notes={"n_points": grid.n_points, "weight": weight},
    )


def verify_weighted_linear(
    sym: DissipativeSymbol,
    k: float,
    *,
    s: float,
    grid: GridSpec,
    base_seed: int,
    n_seeds: int = 10,
) -> EstimateReport:
    """Check the weighted decay of the free evolution of barely-L^2 data.

    On 20 times geometrically spaced over [1e-4, 1]: (a) the decay exponent
    of ||d_x V(t) w0||_{L^{2(k+1)}}, fitted on t <= 0.1, must not fall below
    -gamma_k/p - 0.05; (b) the sup and across-decades ratio of the weighted
    quantity are reported; (c) the ratio x_norm(V(.)w0)/||w0||_{H^s} over
    n_seeds >= 1 draws on grid, seeded base_seed, base_seed + 1, ..., gives
    the empirical constant, required stable within 20% of the mean.

    The draws are normed in stacks of at most _STACK_MEMBERS: each draw is
    made alone, its H^s norm taken, and only its first live_modes(t_min)
    coefficients kept, past which V(t) is exactly 0 at every sample time.
    A stack takes one multiplier per sample time, and w0 is its first
    member, whose ||d_x V(t) w0|| the x_norm pass already forms.  The report
    has the bits of a check that norms one seed at a time.
    """
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be >= 1, got {n_seeds}")
    prop = Propagator(sym, grid)
    q = 2.0 * (k + 1.0)
    wexp = gamma_k(k) / sym.p
    theo = -wexp
    margin, spread_tol = 0.05, 0.2

    cfg = WeightedNormConfig.default(s, k, sym.p, 1.0)
    ts = np.array(cfg.sample_times)
    # V(t)w is exactly 0 past live_modes(t), which shrinks as t grows; a
    # stack keeps at least mode 0
    live = max(1, prop.live_modes(cfg.sample_times[0]))
    constants = []
    for first in range(0, n_seeds, _STACK_MEMBERS):
        seeds = range(base_seed + first, base_seed + min(n_seeds, first + _STACK_MEMBERS))
        held, hs = [], []
        for seed in seeds:
            wi = rough_field(grid, sobolev_index=0.0, seed=seed)
            hs.append(sobolev_norm(wi, s))
            held.append(wi.spec[:live].copy())
        stack = SpectralField(grid, np.array(held))
        free = (apply_semigroup(prop, stack, t) for t in cfg.sample_times)
        # x_norm of each member, keeping each time's L^q norms
        parts = []
        xs = _weighted_sup(free, cfg, q, (None, 0.0, s), wexp, parts)
        if first == 0:
            # the decay fit reads ||d_x V(t) w0||_L^q off row 0
            ys = _nonzero([norms[0.0][0] for norms in parts],
                          f"||d_x V(t) w0||_L^{q:g}", grid)
        constants += [x / h for x, h in zip(xs, hs)]
    constants = np.array(constants)
    mean_c = float(np.mean(constants))
    spread = float(np.max(np.abs(constants - mean_c)) / mean_c)

    mask = ts <= 1e-1
    fitted, _, residual = fit_power_law(ts[mask], ys[mask])

    weighted = ts ** wexp * ys
    sup_weighted = float(np.max(weighted))
    ratio_decades = float(np.max(weighted) / np.min(weighted))

    verdict = _one_sided_verdict(fitted, theo, margin) if spread <= spread_tol else "fail"
    return EstimateReport(
        estimate_id=f"weighted-linear-{sym.name}-k{k:g}",
        theoretical_exponent=theo,
        fitted_exponent=fitted,
        fit_window=(float(ts[mask][0]), float(ts[mask][-1])),
        residual=residual,
        empirical_constant=float(np.max(constants)),
        tolerance=margin,
        verdict=verdict,
        notes={
            "sup_weighted": sup_weighted,
            "weighted_ratio_across_decades": ratio_decades,
            "per_seed_constants": [float(c) for c in constants],
            "constant_spread": spread,
            "spread_tolerance": spread_tol,
        },
    )


def _inadmissible_report(ident: str, w: float, tolerance: float) -> EstimateReport:
    """Skipped report for a (k, p) pair with nonpositive contraction exponent."""
    return EstimateReport(
        estimate_id=ident,
        theoretical_exponent=w,
        fitted_exponent=None,
        fit_window=(0.0, 0.0),
        residual=0.0,
        empirical_constant=0.0,
        tolerance=tolerance,
        verdict="skipped",
        notes={"status": "inadmissible", "reason": "contraction exponent nonpositive"},
    )


def verify_nonlinear_estimate(prob: IvpProblem, *, seed: int) -> EstimateReport:
    """Growth in T of the Duhamel nonlinear term of a free rough probe.

    The space norm of int_0^t V(t-tau) N(V(.)g)(tau) dtau over (0, T], sampled
    at 10 times, must grow no slower than T^omega_k allows on T = 2^-10 ...
    2^-5: fitted exponent >= omega_k - 0.1.
    Inadmissible (k, p) pairs produce a skipped report before any Duhamel work.
    """
    margin = 0.1
    w = omega_k(prob.k, prob.symbol.p)
    ident = f"nonlinear-growth-{prob.symbol.name}-k{prob.k:g}"
    if w <= 0:
        return _inadmissible_report(ident, w, margin)
    t_values = np.asarray(_GROWTH_T_VALUES)
    prop = Propagator(prob.symbol, prob.grid)
    g = rough_field(prob.grid, sobolev_index=prob.s, seed=seed)
    forcing = lambda tau: [nonlinearity_eval(apply_semigroup(prop, g, tau), prob.k, prob.mode)]
    lhs = []
    for t_final in t_values:
        cfg = WeightedNormConfig.default(prob.s, prob.k, prob.symbol.p, t_final, n_times=10)
        lhs.append(duhamel_norm(prob, prop, forcing, cfg, 12)[0])
    lhs = _nonzero(lhs, "the Duhamel term's space norm", prob.grid)
    fitted, constant, residual = fit_power_law(t_values, lhs)
    return EstimateReport(
        estimate_id=ident,
        theoretical_exponent=w,
        fitted_exponent=fitted,
        fit_window=(float(t_values[0]), float(t_values[-1])),
        residual=residual,
        empirical_constant=constant,
        tolerance=margin,
        verdict=_one_sided_verdict(fitted, w, margin),
        notes={"lhs": [float(v) for v in lhs]},
    )


def contraction_probe_exponent(k: float) -> float:
    """Spectral slope of the scaling-critical pair family for degree k.

    A random-phase field with coefficient law (1+|xi|)^(-a) has, by the
    variance of the (k+1)-fold spectral convolution, a nonlinear term whose
    L^2 norm under the free flow carries the time weight (3k+2)/(2p) exactly
    when a = (1-2k)/(2(k+1)); for k = 1 that is a mildly growing spectrum.
    """
    return (1.0 - 2.0 * k) / (2.0 * (k + 1.0))


def default_contraction_window(prob: IvpProblem) -> list[float]:
    """Geometric T window deep enough for the ratio scaling to be asymptotic.

    The effective bandwidth (eta*T)^(-1/p) must stay well below the dealias
    cutoff across the whole window, so T_lo pins it at cutoff/3.2 and the
    window spans a factor 64 upward.  Where T_lo leaves the double range,
    as on a torus near 1e100 long, no window exists and DoubleRangeError
    says so.
    """
    cutoff_xi = prob.grid.dealias_cutoff * 2.0 * np.pi / prob.grid.length
    try:
        t_lo = (cutoff_xi / 3.2) ** (-prob.symbol.p) / prob.symbol.eta
    except OverflowError:
        t_lo = np.inf
    if not 0 < t_lo < np.inf:
        raise DoubleRangeError(
            f"no contraction window on the grid (length {prob.grid.length:g}, "
            f"{prob.grid.n_points} points): T_lo = (cutoff/3.2)^-p/eta leaves the double range"
        )
    t_hi = min(64.0 * t_lo, 1.0)
    return list(np.geomspace(t_hi / 64.0, t_hi, 6))


def verify_contraction_scaling(prob: IvpProblem, *, seed: int, n_pairs: int = 2) -> EstimateReport:
    """Fit the T-scaling of the Duhamel map's Lipschitz ratio on ball pairs.

    For pairs (v, w) of free evolutions of scaling-critical random data the
    measured rho(T) = max ||Psi(v)-Psi(w)|| / ||v-w|| should scale as
    T^omega_k; pass when the fitted exponent is within 15% of omega_k.
    Inadmissible (k, p) pairs produce a skipped report.  Per T the pairs
    share each propagator multiplier and one Duhamel sweep over their
    stacked forcings.

    The discrete sup over (0, T] takes 8 samples down to an absolute time floor
    shared by every T in the sweep; a floor relative to T would drag a
    spurious T-dependence into the denominator.
    """
    rel_tol = 0.15
    w = omega_k(prob.k, prob.symbol.p)
    ident = f"contraction-scaling-{prob.symbol.name}-k{prob.k:g}"
    if w <= 0:
        return _inadmissible_report(ident, w, rel_tol)
    t_values = np.asarray(default_contraction_window(prob), dtype=float)
    t_floor = 1e-4 * t_values[0]
    prop = Propagator(prob.symbol, prob.grid)
    space = prob.space_norm
    probe_exp = contraction_probe_exponent(prob.k)

    pairs = []
    for i in range(n_pairs):
        gv = rough_field(prob.grid, seed=seed + 2 * i, spectral_exponent=probe_exp)
        gw = rough_field(prob.grid, seed=seed + 2 * i + 1, spectral_exponent=probe_exp)
        pairs.append((gv, gw))
    # the v and the w of every pair as two stacks, a row per pair
    vs = SpectralField(prob.grid, np.array([v.spec for v, _ in pairs]))
    ws = SpectralField(prob.grid, np.array([w.spec for _, w in pairs]))

    def free_pairs(which, t):
        # One multiplier serves both members of every pair.
        m = prop.multiplier(t)
        return [[apply_multiplier_values(g, m) for g in pair] for pair in which]

    def free_diffs(t):
        # V(t)v - V(t)w of every pair, a row each, from one multiplier
        m = prop.multiplier(t)
        return apply_multiplier_values(vs, m) - apply_multiplier_values(ws, m)

    rhos = []
    for t_final in t_values:
        times = tuple(np.geomspace(t_floor, t_final, 8))
        cfg = WeightedNormConfig(prob.s, prob.k, prob.symbol.p, t_final, times)
        denoms = space((free_diffs(t) for t in times), cfg)
        kept = [(pair, denom) for pair, denom in zip(pairs, denoms.tolist())
                if not denom < 1e-12]
        best = 0.0
        if kept:
            live, denoms = zip(*kept)
            # one sweep over the stacked forcings N(v) - N(w), a member per live pair
            forcing = lambda tau: [nonlinearity_difference(v, w, prob.k, prob.mode)
                                   for v, w in free_pairs(live, tau)]
            for num, denom in zip(duhamel_norm(prob, prop, forcing, cfg, 10), denoms):
                best = max(best, num / denom)
        rhos.append(best)
    rhos = _nonzero(rhos, "rho(T)", prob.grid)
    fitted, constant, residual = fit_power_law(t_values, rhos)
    tol = rel_tol * abs(w)
    ok = abs(fitted - w) <= tol
    return EstimateReport(
        estimate_id=ident,
        theoretical_exponent=w,
        fitted_exponent=fitted,
        fit_window=(float(t_values[0]), float(t_values[-1])),
        residual=residual,
        empirical_constant=constant,
        tolerance=tol,
        verdict="pass" if ok else "fail",
        notes={
            "rhos": [float(v) for v in rhos],
            "t_values": [float(v) for v in t_values],
            "probe_spectral_exponent": probe_exp,
            "sample_time_floor": float(t_floor),
        },
    )


def verify_smoothing(
    prob: IvpProblem, *, seed: int, s: float | None = None, t_horizon: float | None = None
) -> EstimateReport:
    """Regularity gain of the free flow and of the Duhamel term of the fixed point.

    At the probe time t0 = T/2: (a) free smoothing: ||V(t0)w0||_{H^(s+mu)}
    for data with an H^s-law spectrum stabilizes, within 10%, between the
    problem grid and its 2x refinement; (b) the fixed point's Duhamel term
    does the same in H^(s+mu); (c) the H^(s+mu) continuity sequence along
    five dyadic approaches to t0 decreases.
    mu = (p-1-s)/2 in the window s < p-1, else 1/2.

    The probe data is synthesized here (seeded, nested across the two grids);
    the problem's own initial_data field is not used.  t_horizon overrides
    the selection rule's existence time: the refinement comparison needs the
    probe time well above the coarse grid's smoothing scale nyquist^(-p), and
    the worst-case selection rule can land far below it.  Both fixed-point
    runs take 16 panels, at most 40 iterations and tol 1e-9, and the
    convergence of both is part of the verdict.
    """
    if s is None:
        s = prob.s
    stab_tol = 0.10
    p = prob.symbol.p
    mu = 0.5 * (p - 1.0 - s) if s < p - 1.0 else 0.5
    coarse = prob.grid
    fine = GridSpec(coarse.length, 2 * coarse.n_points, coarse.dealias_fraction)

    data_c = rough_field(coarse, sobolev_index=s, seed=seed, amplitude=0.15)
    data_f = rough_field(fine, sobolev_index=s, seed=seed, amplitude=0.15)
    prob_c = replace(prob, grid=coarse, initial_data=data_c, s=s)
    prob_f = replace(prob, grid=fine, initial_data=data_f, s=s)

    c = calibrate_c(prob_c, data_c, 16)
    r, t_final = select_radius_and_time(prob_c, c)
    if t_horizon is not None:
        t_final = t_horizon
    sol_c, trace_c = picard_iterate(prob_c, r, t_final, max_iter=40, tol=1e-9, panels=16)
    sol_f, trace_f = picard_iterate(prob_f, r, t_final, max_iter=40, tol=1e-9, panels=16)
    t_probe = 0.5 * t_final

    free_c = sobolev_norm(apply_semigroup(sol_c.prop, data_c, t_probe), s + mu)
    free_f = sobolev_norm(apply_semigroup(sol_f.prop, data_f, t_probe), s + mu)
    free_ratio = abs(free_f - free_c) / free_c

    approach = [t_probe + (t_final - t_probe) * 2.0 ** (-j) for j in range(1, 6)]
    base, *near = sol_c.duhamel_parts([t_probe] + approach)
    duh_c = sobolev_norm(base, s + mu)
    duh_f = sobolev_norm(sol_f.duhamel_part(t_probe), s + mu)
    duh_ratio = abs(duh_f - duh_c) / duh_c if duh_c > 0 else 0.0

    deltas = [sobolev_norm(f - base, s + mu) for f in near]
    decreasing = all(b < a for a, b in zip(deltas[:-1], deltas[1:]))

    converged = trace_c.converged and trace_f.converged
    ok = converged and free_ratio <= stab_tol and duh_ratio <= stab_tol and decreasing
    return EstimateReport(
        estimate_id=f"smoothing-{prob.symbol.name}-s{s:g}",
        theoretical_exponent=None,
        fitted_exponent=None,
        fit_window=(float(coarse.n_points), float(fine.n_points)),
        residual=max(free_ratio, duh_ratio),
        empirical_constant=duh_c,
        tolerance=stab_tol,
        verdict="pass" if ok else "fail",
        notes={
            "mu": mu,
            "t_probe": float(t_probe),
            "t_final": float(t_final),
            "converged": converged,
            "free_refinement_ratio": free_ratio,
            "duhamel_refinement_ratio": duh_ratio,
            "continuity_deltas": [float(d) for d in deltas],
            "continuity_decreasing": decreasing,
        },
    )


def verify_hausdorff_young(field_set, p1: float) -> EstimateReport:
    """Empirical constant of ||f||_{L^p1} <= C ||f^||_{L^q1}, 1/p1 + 1/q1 = 1.

    At p1 = 2 the ratio is exactly 1 (Parseval), and on the discrete
    transform the constant is at most 1 for every p1 >= 2 (Riesz-Thorin
    between Parseval and the l^1 -> l^inf bound).  The check passes when the
    constant is at most 1 + tolerance; a non-finite constant fails.
    """
    if p1 < 2:
        raise ValueError(f"Hausdorff-Young needs p1 >= 2, got {p1}")
    q1 = p1 / (p1 - 1.0) if np.isfinite(p1) else 1.0
    ratios = [lebesgue_norm(f, p1) / spectral_lq_norm(f, q1) for f in field_set]
    constant = float(np.max(ratios))
    tolerance = 0.10
    return EstimateReport(
        estimate_id=f"hausdorff-young-p{p1:g}",
        theoretical_exponent=None,
        fitted_exponent=None,
        fit_window=(p1, q1),
        residual=0.0,
        empirical_constant=constant,
        tolerance=tolerance,
        verdict="pass" if constant <= 1.0 + tolerance else "fail",
        notes={"ratios": [float(v) for v in ratios], "q1": q1},
    )


def verify_threshold_conditions(sym: DissipativeSymbol, xi_max: float = 64.0) -> EstimateReport:
    """Re-validate the three high-frequency conditions on 10^4 points above M."""
    m = threshold_M(sym, xi_max)
    xs = np.linspace(m, xi_max, 10 ** 4)
    viol = ~_conditions_hold(sym, xs)
    n_viol = int(np.count_nonzero(viol))
    notes = {"threshold_m": float(m), "n_samples": xs.size, "violations": n_viol}
    if n_viol:
        notes["first_violating_xi"] = float(xs[np.argmax(viol)])
    return EstimateReport(
        estimate_id=f"threshold-conditions-{sym.name}",
        theoretical_exponent=None,
        fitted_exponent=None,
        fit_window=(float(m), float(xi_max)),
        residual=float(n_viol),
        empirical_constant=float(m),
        tolerance=0.0,
        verdict="pass" if n_viol == 0 else "fail",
        notes=notes,
    )
