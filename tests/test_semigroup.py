import functools
import math
import warnings

import numpy as np
import pytest

from gkdv import semigroup
from gkdv.errors import ResolutionError, StructuralError
from gkdv.norms import lebesgue_norm
from gkdv.semigroup import (
    Propagator,
    _panel_bounds,
    _panel_step,
    apply_semigroup,
    duhamel_sweep,
    smoothing_norm_profile,
)
from gkdv.solver import nonlinearity_eval
from gkdv.spectral import GridSpec, SpectralField, coherent_field
from gkdv.symbols import builtin_symbol, symbol_constants, tabulated_symbol
from gkdv.probes import gaussian_field

from conftest import full_band_sweep, gl_duhamel, panel_step


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


# Symbols for the live-prefix rule: kdv-ks has Re z > 0 at low xi, and the
# table's bumps make Re z rise and fall again along xi.
LIVE_PREFIX_SYMBOLS = {
    "kdv-ks": builtin_symbol("kdv-ks"),
    "ostrovsky": builtin_symbol("ostrovsky"),
    "pure-power": builtin_symbol("pure-power", p=2),
    "tabulated-bumps": tabulated_symbol(
        "bumps", 2.0, [0.0, 20.0, 21.0, 22.0, 40.0, 41.0, 42.0, 100.0],
        [0.0, 0.0, 400.0, 0.0, 0.0, 1600.0, 0.0, 0.0], q=1.9, c_phi1=1600.0,
    ),
}


class TestLivePrefix:
    """multiplier and the sweep skip modes known to be 0 and still give the full-band values."""

    @pytest.fixture(params=sorted(LIVE_PREFIX_SYMBOLS))
    def prop(self, request):
        return Propagator(LIVE_PREFIX_SYMBOLS[request.param], GridSpec(100.0, 2048))

    @pytest.mark.parametrize("t", [0.0, 1e-300, 1e-4, 1.0])
    def test_multiplier_matches_full_exp(self, prop, t):
        # == counts -0.0 equal to +0.0: the values agree up to the sign of zero
        assert np.array_equal(prop.multiplier(t), np.exp(t * prop.exponent))

    def test_multiplier_with_cut_between_two_modes(self, prop):
        # a t whose bound 746/t falls halfway between two consecutive distinct
        # values of -max(Re z[k:]), half way along the spectrum
        decay = prop._suffix_decay
        k = int(np.searchsorted(decay, decay[decay.size // 2], side="right"))
        t = 2.0 * semigroup._EXP_UNDERFLOW / (decay[k - 1] + decay[k])
        assert prop.live_modes(t) == k
        full = np.exp(t * prop.exponent)
        assert np.any(full[k - 8:k] != 0) and np.all(full[k:] == 0)
        assert np.array_equal(prop.multiplier(t), full)

    def test_every_mode_live_for_nonpositive_time(self, prop):
        assert prop.live_modes(0.0) == prop.live_modes(-0.5) == prop.exponent.size

    def test_sweep_widens_when_forcing_leaves_the_band(self, grid):
        # the forcing gains content above the dealias cutoff from the third
        # node of the sixth panel on, so the sweep widens its band mid-panel
        prop = Propagator(builtin_symbol("kdv-ks"), grid)
        cut = grid.dealias_cutoff
        g = gaussian_field(grid, amplitude=1.0, width=0.7)
        free = functools.partial(apply_semigroup, prop, g)
        t_final = 0.4
        nodes = semigroup.duhamel_nodes(t_final, 16)
        onset = 0.5 * (nodes[5, 1] + nodes[5, 2])
        high = single_mode(grid, cut + 3, amp=1.0e3)

        def forcing(tau):
            inner = nonlinearity_eval(free(tau), 1.0, "conservative")
            assert not inner.spec[cut:].any()
            return inner if tau < onset else SpectralField(grid, inner.spec + tau * high.spec)

        new = list(duhamel_sweep(prop, forcing, _panel_bounds(t_final, 16)[1:], t_final,
                                 panels=16))
        ref = full_band_sweep(prop, forcing, t_final)
        assert np.any(ref[-1][cut:] != 0)
        for a, b in zip(new, ref):
            assert np.max(np.abs(a - b)) <= 1e-14 * np.max(np.abs(b))


def sweep_at(prop, forcing, t):
    """The Duhamel integral at the single time t, with t as the horizon, on 16 panels."""
    return SpectralField(prop.grid, next(duhamel_sweep(prop, forcing, [t], t, panels=16)))


def scaled(field, c):
    return SpectralField(field.grid, c * field.spec)


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
            # equal panels, so doubling the count halves every panel width
            bounds = t * (np.arange(panels + 1) / panels)
            nodes = bounds[:-1, None] + np.diff(bounds)[:, None] * semigroup._UNIT_NODES
            out = SpectralField(grid, next(semigroup._sweep(prop, forcing, [t], bounds, nodes)))
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
        assert np.all(next(duhamel_sweep(prop, lambda tau: zero, [0.0], 0.4, panels=16)) == 0)
        with pytest.raises(ValueError):
            sweep_at(prop, lambda tau: zero, 1.5)
        with pytest.raises(ValueError):
            duhamel_sweep(prop, lambda tau: zero, [0.5], 0.4, panels=16)
        with pytest.raises(ValueError):
            duhamel_sweep(prop, lambda tau: zero, [0.3, 0.1], 0.4, panels=16)


class TestStackedSweep:
    """A forcing that returns a list of P fields sweeps them as one stack."""

    T_FINAL = 0.4
    TIMES = [0.0, 1e-3, 0.05, 0.2, 0.37, 0.4]

    @staticmethod
    def forcings(grid, prop, high_from=None):
        """Three nonlinear forcings; with high_from the second gains content
        above the dealias cutoff from that time on, the others never do."""
        probes = [gaussian_field(grid, amplitude=a, width=wd, center=c)
                  for a, wd, c in ((1.0, 0.7, 0.0), (0.6, 0.5, 1.0), (0.9, 0.9, -1.5))]
        high = single_mode(grid, grid.dealias_cutoff + 3, amp=1.0e3)

        def forcing(i, tau):
            out = nonlinearity_eval(apply_semigroup(prop, probes[i], tau), 1.0, "conservative")
            if i == 1 and high_from is not None and tau >= high_from:
                out = SpectralField(grid, out.spec + tau * high.spec)
            return out

        return [functools.partial(forcing, i) for i in range(3)]

    def sweep(self, prop, forcing):
        return list(duhamel_sweep(prop, forcing, self.TIMES, self.T_FINAL, panels=16))

    @pytest.mark.parametrize("widens", [False, True], ids=["band", "widened"])
    def test_members_match_separate_sweeps(self, grid, widens):
        prop = Propagator(builtin_symbol("kdv-ks"), grid)
        cut = grid.dealias_cutoff
        nodes = semigroup.duhamel_nodes(self.T_FINAL, 16)
        # mid-panel in the sixth panel, as in the single-forcing widening test
        onset = 0.5 * (nodes[5, 1] + nodes[5, 2]) if widens else None
        forcings = self.forcings(grid, prop, onset)
        stacked = self.sweep(prop, lambda tau: [f(tau) for f in forcings])
        separate = [self.sweep(prop, f) for f in forcings]
        assert len(stacked) == len(self.TIMES)
        for j, specs in enumerate(stacked):
            assert specs.shape == (3, grid.n_points // 2 + 1)
            for member, alone in zip(specs, separate):
                # == counts -0.0 equal to +0.0: above the band of a member
                # that never leaves it, the widened stack gives exp(z*h)*0 +
                # G_m*0, where its own sweep writes +0
                assert np.array_equal(member, alone[j])
        assert np.any(stacked[-1][1, cut:] != 0) == widens
        assert not np.any(stacked[-1][[0, 2], cut:])

    def test_stack_of_one_matches_the_single_forcing(self, grid):
        prop = Propagator(builtin_symbol("kdv-ks"), grid)
        f = self.forcings(grid, prop)[0]
        stacked = self.sweep(prop, lambda tau: [f(tau)])
        single = self.sweep(prop, f)
        assert all(a.shape == (1,) + b.shape and np.array_equal(a[0], b)
                   for a, b in zip(stacked, single))

    @pytest.mark.parametrize("bad", ["other-grid", "array"])
    def test_malformed_stack_rejected(self, grid, bad):
        prop = Propagator(builtin_symbol("kdv-ks"), grid)
        f = self.forcings(grid, prop)[0]
        other = gaussian_field(GridSpec(2 * np.pi, 64), width=0.7)
        forcing = {
            "other-grid": lambda tau: [f(tau), other],
            "array": lambda tau: f(tau).spec,
        }[bad]
        with pytest.raises(StructuralError):
            self.sweep(prop, forcing)


# G_0..G_3 of w, G_m(w) = int_0^1 exp(w*nu) (1-nu)^m dnu, at |w| = 0.49, 0.5,
# 0.51 and 2 (real, imaginary and mixed), computed once at 50 digits by
#
#     import mpmath
#     mpmath.mp.dps = 50
#     def G(m, w):
#         w = mpmath.mpc(w)
#         return mpmath.quad(lambda nu: mpmath.exp(w * nu) * (1 - nu) ** m, [0, 1])
#     for r in (0.49, 0.5, 0.51, 2.0):
#         for w in (complex(r), complex(-r), 1j * r, r * (-0.6 + 0.8j)):
#             print((w, tuple(complex(G(m, w)) for m in range(4))))
G_MOMENTS_50_DIGITS = [
    ((0.49+0j), ((1.2904412652150592+0j), (0.5927372759491002+0j), (0.3785194936697969+0j), (0.27664996124365476+0j))),
    ((-0.49+0j), ((0.7905583792154774+0j), (0.4274318791520869+0j), (0.296196411624135+0j), (0.22736890842366309+0j))),
    (0.49j, ((0.9604609962676695+0.24013702324465j), (0.4900755576421429+0.08069184435169498j), (0.3293544667416122+0.04050792799125357j), (0.24800772239543004+0.02436040770441542j))),
    ((-0.294+0.392j), ((0.8459834515927994+0.15953049852314652j), (0.44904964869966846+0.0561121216568827j), (0.3079996249212452+0.028951053249533103j), (0.23486367947068987+0.01773266191806503j))),
    ((0.5+0j), ((1.2974425414002564+0j), (0.5948850828005126+0j), (0.37954033120205033+0j), (0.2772419872123021+0j))),
    ((-0.5+0j), ((0.7869386805747332+0j), (0.4261226388505337+0j), (0.2955094445978652+0j), (0.22694333241280867+0j))),
    (0.5j, ((0.958851077208406+0.24483487621925457j), (0.48966975243850913+0.08229784558318799j), (0.32919138233275197+0.04132099024596346j), (0.24792594147578076+0.024851706003488027j))),
    ((-0.3+0.4j), ((0.8427746054600077+0.16207212911361493j), (0.4479858800297747+0.05707407632764985j), (0.3074709321770203+0.02946740071836141j), (0.23454816761086164+0.01805688296420144j))),
    ((0.51+0j), ((1.304492539109581+0j), (0.5970441943325118+0j), (0.38056546797063434+0j), (0.2778360861017707+0j))),
    ((-0.51+0j), ((0.7833420023288903+0j), (0.42481960327668566+0j), (0.294825085189468+0j), (0.22651910672861983+0j))),
    (0.51j, ((0.957210288005701+0.24952057324362498j), (0.4892560259678921+0.083901396067253j), (0.32902508261667845+0.04213323149846233j), (0.247842538226249+0.025342651274440582j))),
    ((-0.306+0.40800000000000003j), ((0.8395660691075665+0.16458718249328455j), (0.44692177358840735+0.05802908866269819j), (0.30694198736123196+0.029980893849628324j), (0.23423248625272644+0.01837964981120072j))),
    ((2+0j), ((3.194528049465325+0j), (1.0972640247326626+0j), (0.5972640247326626+0j), (0.39589603709899385+0j))),
    ((-2+0j), ((0.43233235838169365+0j), (0.28383382080915315+0j), (0.21616617919084682+0j), (0.17575073121372975+0j))),
    (2j, ((0.45464871341284085+0.7080734182735712j), (0.3540367091367856+0.2726756432935796j), (0.2726756432935796+0.1459632908632144j), (0.21894493629482162+0.09098653505963064j))),
    ((-1.2+1.6j), ((0.42306473157885544+0.31319815575820187j), (0.2983598428296241+0.1368146606409973j), (0.23043582281502337+0.07922332935170236j), (0.1876757546885218+0.05217601620543985j))),
]


class TestPanelStep:
    """The product-rule step against the two-exponential oracle and 50-digit moments."""

    WIDTH = 2e-3

    @pytest.fixture(scope="class")
    def kdvks_8192(self):
        prop = Propagator(builtin_symbol("kdv-ks"), GridSpec(100.0, 8192))
        rng = np.random.default_rng(3)
        shape = prop.exponent.shape
        # the carry is scaled like the panel integral, so neither term hides
        # the other's error
        acc = self.WIDTH * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        coeffs = rng.standard_normal((4,) + shape) + 1j * rng.standard_normal((4,) + shape)
        return prop, acc, coeffs

    @pytest.mark.parametrize("h", [0.0, 5e-6, 1e-4, 1e-3, WIDTH])
    def test_matches_oracle_step(self, kdvks_8192, h):
        prop, acc, coeffs = kdvks_8192
        live = prop.live_modes(h)
        new = _panel_step(prop.exponent, live, acc, coeffs, self.WIDTH, h)
        ref = panel_step(prop.exponent, live, acc, coeffs, self.WIDTH, h)
        assert np.max(np.abs(new - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_sweep_at_panel_bounds_matches_oracle(self, monkeypatch):
        grid = GridSpec(100.0, 8192)
        prop = Propagator(builtin_symbol("kdv-ks"), grid)
        g = gaussian_field(grid, amplitude=1.0, width=4.0)
        free = functools.partial(apply_semigroup, prop, g)
        forcing = lambda tau: nonlinearity_eval(free(tau), 1.0, "conservative")
        t_final = 1e-3
        times = list(_panel_bounds(t_final, 16))
        new = list(duhamel_sweep(prop, forcing, times, t_final, panels=16))
        monkeypatch.setattr(semigroup, "_panel_step", panel_step)
        ref = list(duhamel_sweep(prop, forcing, times, t_final, panels=16))
        assert len(new) == len(ref) == 17
        for a, b in zip(new[1:], ref[1:]):
            assert np.max(np.abs(a - b)) <= 1e-14 * np.max(np.abs(b))
        assert np.all(new[0] == 0) and np.all(ref[0] == 0)

    @pytest.mark.parametrize("w, moments", G_MOMENTS_50_DIGITS)
    def test_moments_match_50_digit_values(self, w, moments):
        # with acc = 0, h = width = 1 and coeffs the m-th unit cubic, the
        # step returns G_m(z) itself.  Above |w| = 0.5 the upward recursion
        # amplifies roundoff by up to 3!/|w|^3, about 45 at |w| = 0.51.
        z = np.array([w])
        tol = 1e-13 if 0.5 < abs(w) < 1.0 else 1e-15
        for m, exact in enumerate(moments):
            coeffs = np.zeros((4, 1), dtype=complex)
            coeffs[m] = 1.0
            got = _panel_step(z, 1, np.zeros(1, dtype=complex), coeffs, 1.0, 1.0)[0]
            assert abs(got - exact) <= tol * abs(exact), (m, got, exact)

    def test_zero_exponent_emits_no_warning(self, grid):
        # kdv-ks has z = 0 on mode 0 and t = 0 makes every w = 0, where the
        # upward recursion divides by zero before the series overwrites it;
        # at t = 1e-300 it overflows there instead
        prop = Propagator(builtin_symbol("kdv-ks"), grid)
        assert prop.exponent[0] == 0
        g = gaussian_field(grid, width=0.7)
        forcing = functools.partial(apply_semigroup, prop, g)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = list(duhamel_sweep(prop, forcing, [0.0, 1e-300, 0.1, 0.4], 0.4,
                                     panels=16))
        assert all(np.all(np.isfinite(spec)) for spec in out)
        assert np.all(out[0] == 0)


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
