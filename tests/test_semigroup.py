import functools
import math

import numpy as np
import pytest

from gkdv.errors import ResolutionError, StructuralError
from gkdv.norms import lebesgue_norm
from gkdv.semigroup import (
    Propagator,
    apply_semigroup,
    duhamel_sweep,
    smoothing_norm_profile,
)
from gkdv.solver import nonlinearity_eval
from gkdv.spectral import (
    GridSpec,
    SpectralField,
    coherent_field,
    linear_combination,
)
from gkdv.symbols import builtin_symbol, symbol_constants
from gkdv.probes import gaussian_field

from conftest import gl_duhamel


def single_mode(grid, k, amp=0.5):
    spec = np.zeros(grid.n_points // 2 + 1, complex)
    spec[k] = amp
    return SpectralField(grid, spec)


@pytest.fixture
def grid():
    return GridSpec(2 * np.pi, 128)


class TestApplySemigroup:
    def test_identity_at_zero(self, grid):
        prop = Propagator(builtin_symbol("kdv-ks"), grid)
        w = gaussian_field(grid, width=0.7)
        out = apply_semigroup(prop, w, 0.0)
        assert np.array_equal(out.spec, w.spec)

    def test_single_mode_scalar_oracle(self, grid):
        prop = Propagator(builtin_symbol("pure-power", p=2), grid)
        w = single_mode(grid, 5)
        t = 0.13
        out = apply_semigroup(prop, w, t)
        xi = grid.xi[5]
        expected = 0.5 * np.exp(1j * t * xi ** 3 - t * xi ** 2)
        assert out.spec[5] == pytest.approx(expected, rel=1e-13)

    def test_group_law(self, grid):
        prop = Propagator(builtin_symbol("kdv-ks"), grid)
        w = gaussian_field(grid, width=0.7)
        a = apply_semigroup(prop, apply_semigroup(prop, w, 0.31), 0.17)
        b = apply_semigroup(prop, w, 0.48)
        num = np.sqrt(np.sum(np.abs(a.spec - b.spec) ** 2))
        den = np.sqrt(np.sum(np.abs(w.spec) ** 2))
        assert num / den <= 1e-12

    def test_forward_only(self, grid):
        prop = Propagator(builtin_symbol("kdv-ks"), grid)
        with pytest.raises(ValueError, match="not invertible"):
            apply_semigroup(prop, gaussian_field(grid, width=0.7), -0.1)

    def test_l2_bound_with_cm(self, grid):
        sym = builtin_symbol("kdv-ks")
        prop = Propagator(sym, grid)
        consts = symbol_constants(sym, float(grid.nyquist))
        w = gaussian_field(grid, width=0.7)
        n0 = lebesgue_norm(w, 2)
        for t in (0.05, 0.3, 1.0):
            nt = lebesgue_norm(apply_semigroup(prop, w, t), 2)
            assert nt <= np.exp(sym.eta * t * consts.sup_phi) * n0 * (1 + 1e-12)

    def test_l2_decay_for_nonpositive_symbols(self, grid):
        for name, p in (("pure-power", 3.0), ("kdv-burgers", None)):
            sym = builtin_symbol(name, p=p) if p else builtin_symbol(name)
            prop = Propagator(sym, grid)
            w = gaussian_field(grid, width=0.7)
            norms = [lebesgue_norm(apply_semigroup(prop, w, t), 2)
                     for t in np.linspace(0.0, 1.0, 9)]
            assert np.all(np.diff(norms) <= 1e-12)


def sweep_at(prop, forcing, t, **kwargs):
    """The Duhamel integral at the single time t, with t as the horizon."""
    return SpectralField(prop.grid, next(duhamel_sweep(prop, forcing, [t], t, **kwargs)))


def scaled(field, c):
    return linear_combination(field, field, c, 0.0)


def poly_kernel_integral(z, t, k):
    """int_0^t exp(z*(t - s)) s^k ds per mode, independently of the package.

    Small |z*t| sums the series t^(k+1) k! sum_j (z*t)^j/(j+k+1)!; elsewhere
    the closed form k!/z^(k+1) (exp(z*t) - sum_{j<=k} (z*t)^j/j!) has no
    harmful cancellation.
    """
    w = z * t
    out = np.empty_like(w)
    small = np.abs(w) <= 2.0
    series = np.zeros(np.count_nonzero(small), dtype=complex)
    for j in reversed(range(40)):
        series = series * w[small] + math.factorial(k) / math.factorial(j + k + 1)
    out[small] = t ** (k + 1) * series
    wb, zb = w[~small], z[~small]
    head = sum(wb ** j / math.factorial(j) for j in range(k + 1))
    out[~small] = math.factorial(k) / zb ** (k + 1) * (np.exp(wb) - head)
    return out


class TestDuhamelIntegral:
    def test_zero_forcing(self, grid):
        prop = Propagator(builtin_symbol("kdv-ks"), grid)
        zero = coherent_field(grid, np.zeros(grid.n_points))
        out = sweep_at(prop, lambda tau: zero, 0.4)
        assert np.all(out.spec == 0)

    def test_free_evolution_forcing_oracle(self, grid):
        # forcing V(tau)g makes the integrand V(t)g, constant in tau; the
        # Gauss-Legendre reference is exact there, the product rule is not
        prop = Propagator(builtin_symbol("pure-power", p=2), grid)
        g = gaussian_field(grid, width=0.7)
        t = 0.37
        out = gl_duhamel(prop, functools.partial(apply_semigroup, prop, g), t, panels=8)
        expected = t * np.asarray(apply_semigroup(prop, g, t).spec)
        err = np.max(np.abs(out.spec - expected)) / np.max(np.abs(expected))
        assert err <= 1e-8

    def test_scalar_closed_form_and_order(self, grid):
        prop = Propagator(builtin_symbol("pure-power", p=2), grid)
        w = single_mode(grid, 3)
        a = -0.7
        forcing = lambda tau: SpectralField(grid, w.spec * np.exp(a * tau))
        b = prop.exponent[3]
        t = 0.9
        exact = 0.5 * (np.exp(b * t) - np.exp(a * t)) / (b - a)
        errs = []
        for panels in (1, 2, 4):
            out = sweep_at(prop, forcing, t, panels=panels, grading=1.0)
            errs.append(abs(out.spec[3] - exact))
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
        assert errs[-1] < errs[0]
        assert max(orders) >= 4.0

    @pytest.mark.parametrize("panels", [1, 4])
    def test_exact_on_panelwise_cubic_forcing(self, grid, panels):
        # a cubic in tau times a fixed field is its own interpolant on every
        # panel, so only roundoff separates the sweep from the exact integral
        prop = Propagator(builtin_symbol("kdv-ks"), grid)
        g = gaussian_field(grid, width=0.7)
        poly = (0.3, -1.2, 2.5, -4.0)
        forcing = lambda tau: scaled(g, sum(c * tau ** k for k, c in enumerate(poly)))
        times = [0.0, 0.013, 0.2, 0.37, 0.5]
        for t, spec in zip(times, duhamel_sweep(prop, forcing, times, 0.5, panels=panels)):
            exact = g.spec * sum(
                c * poly_kernel_integral(prop.exponent, t, k) for k, c in enumerate(poly)
            )
            assert np.max(np.abs(spec - exact)) <= 1e-13 * np.max(np.abs(exact))

    @pytest.mark.parametrize("t", [0.05, 0.3])
    def test_matches_gl_oracle_on_nonlinear_forcing(self, grid, t):
        prop = Propagator(builtin_symbol("kdv-ks"), grid)
        g = gaussian_field(grid, amplitude=1.0, width=0.7)
        free = functools.partial(apply_semigroup, prop, g)
        forcing = lambda tau: nonlinearity_eval(free(tau), 1.0, "conservative")
        out = sweep_at(prop, forcing, t)
        ref = gl_duhamel(prop, forcing, t, panels=64)
        assert np.max(np.abs(out.spec - ref.spec)) <= 1e-8 * np.max(np.abs(ref.spec))

    def test_linearity_in_forcing(self, grid):
        prop = Propagator(builtin_symbol("kdv-ks"), grid)
        g1 = gaussian_field(grid, width=0.5)
        g2 = gaussian_field(grid, width=0.9, center=1.0)
        f1 = functools.partial(apply_semigroup, prop, g1)
        f2 = functools.partial(apply_semigroup, prop, g2)
        combo = lambda tau: SpectralField(grid, 2.0 * f1(tau).spec - 0.5 * f2(tau).spec)
        t = 0.3
        lhs = sweep_at(prop, combo, t)
        rhs = 2.0 * sweep_at(prop, f1, t).spec - 0.5 * sweep_at(prop, f2, t).spec
        assert np.max(np.abs(lhs.spec - rhs)) <= 1e-12 * np.max(np.abs(rhs))

    def test_incompatible_grid_rejected(self, grid):
        prop = Propagator(builtin_symbol("kdv-ks"), grid)
        other = GridSpec(2 * np.pi, 64)
        bad = gaussian_field(other, width=0.7)
        with pytest.raises(StructuralError):
            sweep_at(prop, lambda tau: bad, 0.2)

    def test_time_domain(self, grid):
        prop = Propagator(builtin_symbol("kdv-ks"), grid)
        zero = coherent_field(grid, np.zeros(grid.n_points))
        assert np.all(next(duhamel_sweep(prop, lambda tau: zero, [0.0], 0.4)) == 0)
        with pytest.raises(ValueError):
            sweep_at(prop, lambda tau: zero, 1.5)
        with pytest.raises(ValueError):
            duhamel_sweep(prop, lambda tau: zero, [0.5], 0.4)
        with pytest.raises(ValueError):
            duhamel_sweep(prop, lambda tau: zero, [0.3, 0.1], 0.4)


class TestSmoothingProfile:
    def test_flat_for_zero_weight(self):
        g = GridSpec(200 * np.pi, 2 ** 12)
        sym = builtin_symbol("pure-power", p=2)
        prof = smoothing_norm_profile(sym, 0.0, [0.01, 0.1, 1.0], g)
        assert np.allclose(prof, 1.0)

    def test_kdv_ks_zero_weight_grows_with_sup(self):
        g = GridSpec(200 * np.pi, 2 ** 12)
        sym = builtin_symbol("kdv-ks")
        taus = [0.1, 0.5, 1.0]
        prof = smoothing_norm_profile(sym, 0.0, taus, g)
        for value, tau in zip(prof, taus):
            assert value == pytest.approx(np.exp(sym.eta * tau / 4.0), rel=1e-3)

    def test_matches_calculus_oracle(self):
        # dense golden-section maximization of (1+xi)^theta*exp(-tau*xi^p)
        g = GridSpec(200 * np.pi, 2 ** 15)
        p, theta = 2.0, 1.0
        sym = builtin_symbol("pure-power", p=p)
        taus = [1e-4, 1e-3, 1e-2]
        prof = smoothing_norm_profile(sym, theta, taus, g)
        for value, tau in zip(prof, taus):
            xs = np.linspace(0.0, g.nyquist, 400001)
            oracle = np.max((1 + xs) ** theta * np.exp(-tau * xs ** p))
            assert value == pytest.approx(oracle, rel=1e-5)

    def test_boundary_maximizer_raises(self):
        g = GridSpec(2 * np.pi, 64)  # nyquist 32, far below the maximizer
        sym = builtin_symbol("pure-power", p=2)
        with pytest.raises(ResolutionError):
            smoothing_norm_profile(sym, 2.0, [1e-6], g)

    def test_input_validation(self):
        g = GridSpec(2 * np.pi, 64)
        sym = builtin_symbol("pure-power", p=2)
        with pytest.raises(ValueError):
            smoothing_norm_profile(sym, -1.0, [0.1], g)
        with pytest.raises(ValueError):
            smoothing_norm_profile(sym, 1.0, [0.0], g)
