import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from gkdv import semigroup, verifier
from gkdv.errors import BlowUpError, DivergenceError
from gkdv.norms import WeightedNormConfig, gamma_k, lebesgue_norm, sobolev_norm, x_norm
from gkdv.probes import rough_field
from gkdv.semigroup import Propagator, apply_semigroup, duhamel_nodes, duhamel_sweep
from gkdv.solver import IterationRecord, PicardTrace, nonlinearity_difference, nonlinearity_eval
from gkdv.spectral import GridSpec, SpectralField, fractional_derivative_shifted
from gkdv.verifier import (
    EstimateReport,
    _nonzero,
    _one_sided_verdict,
    contraction_probe_exponent,
    default_contraction_window,
    fit_power_law,
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
        return [lebesgue_norm(fractional_derivative_shifted(f, 0.0), q),
                lebesgue_norm(fractional_derivative_shifted(f, cfg.s), q)]

    parts = {
        "x": lambda f: [lebesgue_norm(f, q)] + derivatives(f),
        "y": derivatives,
        "z": lambda f: [lebesgue_norm(f, 2.0 * cfg.k + 1.0)],
        "z_tilde": lambda f: [lebesgue_norm(fractional_derivative_shifted(f, 0.0), 2)],
    }[space]
    w = (1.0 + abs(cfg.s)) / cfg.p if space == "z_tilde" else cfg.weight_exponent
    return max(sobolev_norm(f, cfg.s) + sum(t ** w * v for v in parts(f))
               for t, f in zip(cfg.sample_times, fields, strict=True))


def spatial_derivative(f):
    """d_x f by the multiplier i*xi written out here, zero at the unpaired
    Nyquist mode: an oracle for fractional_derivative_shifted(f, 0.0)."""
    ixi = 1j * f.grid.xi
    ixi[-1] = 0.0
    return SpectralField(f.grid, f.spec * ixi)


def band_limit(f):
    """f with every mode at or above the grid's dealias cutoff zeroed."""
    spec = f.spec.copy()
    spec[f.grid.dealias_cutoff:] = 0.0
    return SpectralField(f.grid, spec)


def stack_fields(fields):
    """The fields, all on one grid, as one stack, a member per row; its band
    is the widest of theirs, as duhamel_sweep took a list of fields."""
    stack = SpectralField(fields[0].grid, np.array([f.spec for f in fields]))
    stack.band = max(f.band for f in fields)
    return stack


def padded_multiplier(prop, t):
    """exp(t*z) on every stored mode: prop.multiplier(t), the live prefix,
    padded with +0 to the full half spectrum."""
    m = prop.multiplier(t)
    out = np.zeros_like(prop.exponent)
    out[: m.size] = m
    return out


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
            acc += (half * weight) * padded_multiplier(prop, t - tau) * forcing(tau).spec
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


def contour_etdrk4_coefficients(z, dt):
    """Reference ETDRK4 coefficients from one (modes x 32) contour array.

    The 2-D form solver._etdrk4_coefficients first had: all 32 circle points
    around dt*z at once, each coefficient dt times np.mean over the circle.
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


def peak_half_spectra(run, grid):
    """tracemalloc peak of run(), in half spectra of grid: (n/2 + 1) complex
    numbers, 16 bytes each."""
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / ((grid.n_points // 2 + 1) * 16)


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


def three_set_picard(prob, r, t_final, max_iter=40, tol=1e-9, panels=16):
    """Reference Picard loop holding three sets of fields at every evaluation
    time: the free evolution, v^n and v^(n+1), with the increment and size
    norms taken over whole trajectories.  Returns the last iterate's fields by
    time and the trace.  This is the loop picard_iterate ran before it held
    one set."""
    prop = Propagator(prob.symbol, prob.grid)
    cfg = WeightedNormConfig.default(prob.s, prob.k, prob.symbol.p, t_final)
    space = prob.space_norm
    nodes = duhamel_nodes(t_final, panels).ravel()
    eval_times = sorted(
        {float(t) for t in nodes}
        | {float(t) for t in cfg.sample_times}
        | {float(t_final)}
    )
    free_specs = {t: apply_semigroup(prop, prob.initial_data, t).spec for t in eval_times}
    current = {t: SpectralField(prob.grid, free_specs[t]) for t in eval_times}

    trace = PicardTrace(r=r, t_final=t_final, c_calibrated=None)
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
            raise DivergenceError(f"iterate {it} left the ball")
        current = new
        prev_increment = increment
        if increment <= tol:
            trace.converged = True
            break
    return current, trace


def per_time_solution(prob, stored, t_final, t, panels=16):
    """The solution at t from the stored fields of the last iterate, by one
    sweep of its own over the cached nodal forcing, as PicardSolution ran one
    time at a time: (solution spectrum, signed Duhamel spectrum)."""
    prop = Propagator(prob.symbol, prob.grid)
    nodal = {float(tau): nonlinearity_eval(stored[float(tau)], prob.k, prob.mode)
             for tau in duhamel_nodes(t_final, panels).ravel()}
    integral = next(duhamel_sweep(prop, nodal.__getitem__, [t], t_final, panels))
    if t in stored:
        return stored[t].spec, -integral
    return apply_semigroup(prop, prob.initial_data, t).spec - integral, -integral


def per_seed_weighted_linear(sym, k, *, s, grid, base_seed, n_seeds):
    """Reference verify_weighted_linear, one seed at a time: the decay fit on
    its own evolution of the first draw, then x_norm of each draw's free flow
    over the 20 sample times, each field the whole half spectrum.  This is
    the check as it ran before its seeds were normed as stacks."""
    prop = Propagator(sym, grid)
    q = 2.0 * (k + 1.0)
    wexp = gamma_k(k) / sym.p
    theo = -wexp
    margin, spread_tol = 0.05, 0.2

    cfg = WeightedNormConfig.default(s, k, sym.p, 1.0)
    ts = np.array(cfg.sample_times)
    w0 = rough_field(grid, sobolev_index=0.0, seed=base_seed)
    ys = _nonzero(
        [lebesgue_norm(fractional_derivative_shifted(apply_semigroup(prop, w0, t), 0.0), q)
         for t in ts],
        f"||d_x V(t) w0||_L^{q:g}", grid,
    )
    mask = ts <= 1e-1
    fitted, _, residual = fit_power_law(ts[mask], ys[mask])

    weighted = ts ** wexp * ys
    sup_weighted = float(np.max(weighted))
    ratio_decades = float(np.max(weighted) / np.min(weighted))

    constants = []
    for i in range(n_seeds):
        wi = w0 if i == 0 else rough_field(grid, sobolev_index=0.0, seed=base_seed + i)
        free = (apply_semigroup(prop, wi, t) for t in cfg.sample_times)
        constants.append(x_norm(free, cfg) / sobolev_norm(wi, s))
    constants = np.array(constants)
    mean_c = float(np.mean(constants))
    spread = float(np.max(np.abs(constants - mean_c)) / mean_c)

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


def per_pair_contraction_rhos(prob, *, seed, n_pairs):
    """Reference rho(T) of verify_contraction_scaling, one pair at a time:
    each pair's denominator from its own free differences, and its numerator
    from a forcing N(V(tau)v) - N(V(tau)w) of its own and one Duhamel sweep
    over it.  The probes are drawn through verifier.rough_field, so a test
    that replaces it replaces them here too."""
    prop = Propagator(prob.symbol, prob.grid)
    probe_exp = contraction_probe_exponent(prob.k)
    pairs = [[verifier.rough_field(prob.grid, seed=seed + 2 * i + j, spectral_exponent=probe_exp)
              for j in (0, 1)] for i in range(n_pairs)]
    t_values = np.asarray(default_contraction_window(prob), dtype=float)
    rhos = []
    for t_final in t_values:
        times = tuple(np.geomspace(1e-4 * t_values[0], t_final, 8))
        cfg = WeightedNormConfig(prob.s, prob.k, prob.symbol.p, t_final, times)
        best = 0.0
        for v, w in pairs:
            denom = prob.space_norm((apply_semigroup(prop, v, t) - apply_semigroup(prop, w, t)
                                     for t in times), cfg)
            if denom < 1e-12:
                continue
            forcing = lambda tau, v=v, w=w: nonlinearity_difference(
                apply_semigroup(prop, v, tau), apply_semigroup(prop, w, tau), prob.k, prob.mode)
            sweep = duhamel_sweep(prop, forcing, times, t_final, 10)
            num = prob.space_norm((SpectralField(prob.grid, spec) for spec in sweep), cfg)
            best = max(best, num / denom)
        rhos.append(best)
    return rhos


class FftCalls(Counter):
    """Transform calls counted by name; lengths lists (name, points) per call
    in call order, points being the length of the physical side.  clear()
    empties both."""

    def __init__(self):
        super().__init__()
        self.lengths = []

    def clear(self):
        super().clear()
        self.lengths.clear()


def _transform_points(name, a, n=None, *_, **__):
    """Physical length of one numpy.fft call: n if given, else from a."""
    if n is None:
        size = np.shape(a)[-1]
        n = 2 * (size - 1) if name == "irfft" else size
    return n


@pytest.fixture
def fft_calls(monkeypatch):
    """Count calls of numpy.fft.{fft, ifft, rfft, irfft} by name, and record
    each call's transform length in .lengths."""
    calls = FftCalls()
    for name in ("fft", "ifft", "rfft", "irfft"):
        orig = getattr(np.fft, name)

        def counted(*args, _orig=orig, _name=name, **kwargs):
            calls[_name] += 1
            calls.lengths.append((_name, _transform_points(_name, *args, **kwargs)))
            return _orig(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls


@pytest.fixture
def small_grid():
    return GridSpec(2.0 * np.pi, 64)


@pytest.fixture
def medium_grid():
    return GridSpec(100.0, 512)
