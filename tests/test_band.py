"""Banded free fields: the free flow V(t)w carries the band past which its
coefficients are exactly 0, and every norm and derivative of it equals what
the full-length product w.spec * exp(t*z) gives."""

import numpy as np
import pytest

from gkdv.errors import MultiplierEvaluationError
from gkdv.norms import WeightedNormConfig, lebesgue_norm, sobolev_norm, x_norm
from gkdv.probes import gaussian_field, rough_field
from gkdv.semigroup import Propagator, apply_semigroup, duhamel_sweep
from gkdv.solver import nonlinearity_difference, nonlinearity_eval
from gkdv.spectral import (
    GridSpec,
    SpectralField,
    apply_multiplier_values,
    coherent_field,
    fractional_derivative_shifted,
    zero_field,
)
from gkdv.symbols import builtin_symbol

from conftest import padded_multiplier

TIMES = (0.0, 1e-8, 1e-6, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0)


def full_product(prop, w0, t):
    """The free flow as the full-length product of the spectrum and the padded multiplier(t).

    The multiplier is bound to a name: numpy may compute spec * <temporary>
    in place in the temporary, and an in-place complex multiply rounds
    differently from one into a new array."""
    m = padded_multiplier(prop, t)
    return SpectralField(w0.grid, w0.spec * m)


@pytest.fixture(params=[(50 * np.pi, 2 ** 12, "kdv-ks"), (50 * np.pi, 2 ** 15, "pure-power")],
                ids=["kdv-ks-4096", "pure-power-32768"])
def flow(request):
    length, n, name = request.param
    grid = GridSpec(length, n)
    sym = builtin_symbol(name, p=4.0) if name == "pure-power" else builtin_symbol(name)
    return Propagator(sym, grid), rough_field(grid, sobolev_index=0.0, seed=3)


class TestFreeFlowBand:
    def test_spectra_equal_the_full_product(self, flow):
        prop, w0 = flow
        bands = []
        for t in TIMES:
            out = apply_semigroup(prop, w0, t)
            assert out.band == min(w0.band, prop.live_modes(t))
            assert np.array_equal(out.spec, full_product(prop, w0, t).spec)
            assert not out.spec[out.band:].any()
            bands.append(out.band)
        # every mode is live at t = 0, a few per cent at t = 1
        assert bands[0] == w0.spec.size
        assert bands[-1] < w0.spec.size // 10
        assert bands == sorted(bands, reverse=True)

    def test_norms_equal_the_full_products(self, flow):
        prop, w0 = flow
        for t in TIMES:
            band, full = apply_semigroup(prop, w0, t), full_product(prop, w0, t)
            for s in (0.0, 0.5, -0.3, 2.0):
                assert sobolev_norm(band, s) == sobolev_norm(full, s)
            assert lebesgue_norm(band, 4) == lebesgue_norm(full, 4)
            d_band, d_full = (fractional_derivative_shifted(f, 0.0) for f in (band, full))
            assert d_band.band == band.band
            assert np.array_equal(d_band.spec, d_full.spec)
            assert lebesgue_norm(d_band, 4) == lebesgue_norm(d_full, 4)
            assert sobolev_norm(d_band, 0.0) == sobolev_norm(d_full, 0.0)

    @pytest.mark.parametrize("s", [0.0, 0.5])
    def test_x_norm_equals_the_full_products(self, flow, s):
        prop, w0 = flow
        cfg = WeightedNormConfig.default(s, 1.0, prop.symbol.p, 1.0)
        banded = x_norm((apply_semigroup(prop, w0, t) for t in cfg.sample_times), cfg)
        full = x_norm((full_product(prop, w0, t) for t in cfg.sample_times), cfg)
        assert banded == full

    def test_flow_of_a_banded_field_keeps_the_narrower_band(self, flow):
        prop, w0 = flow
        early = apply_semigroup(prop, w0, 1e-3)
        later = apply_semigroup(prop, early, 1e-4)
        assert later.band == min(early.band, prop.live_modes(1e-4))
        assert apply_semigroup(prop, early, 0.0).band == early.band

    def test_difference_keeps_the_larger_band(self, flow):
        prop, w0 = flow
        a, b = apply_semigroup(prop, w0, 1e-2), apply_semigroup(prop, w0, 1e-4)
        assert a.band < b.band
        for diff in (a - b, b - a):
            assert diff.band == b.band
            assert not diff.spec[diff.band:].any()
            assert sobolev_norm(diff, 0.0) == sobolev_norm(SpectralField(a.grid, diff.spec), 0.0)


class TestOneFreeFlowForm:
    """V(t)w is formed one way: the live prefix multiplier(t) applied by
    apply_multiplier_values."""

    @pytest.mark.parametrize("name", ["kdv-ks", "ostrovsky", "kdv-burgers"])
    @pytest.mark.parametrize("n", [2 ** 12, 2 ** 13, 2 ** 14, 2 ** 15])
    def test_padded_product_agrees_to_rounding(self, name, n):
        # the padded multiplier times the spectrum, the factors in the other
        # order, differs from the prefix product by the rounding of one
        # complex multiply at most (2.2e-16 relative was the largest seen)
        g = GridSpec(50 * np.pi, n)
        prop = Propagator(builtin_symbol(name), g)
        for w0 in (rough_field(g, sobolev_index=0.0, seed=n), gaussian_field(g, width=2.0)):
            for t in (0.0, 1e-8, 1e-6, 1e-4, 1e-2, 0.5, 1.0):
                old = padded_multiplier(prop, t) * w0.spec
                new = apply_semigroup(prop, w0, t).spec
                assert np.all(np.abs(old - new) <= 4.5e-16 * np.abs(old)), t


class TestForcingBand:
    """A forcing of the nonlinearity carries the dealias cutoff as its band,
    and a sweep steps on the widest band of the forcings it reads."""

    @pytest.mark.parametrize("mode", ["conservative", "gradient"])
    def test_nonlinearity_band_is_the_cutoff(self, mode):
        g = GridSpec(50 * np.pi, 2 ** 10)
        v, w = rough_field(g, seed=1), rough_field(g, seed=2)
        for f in (nonlinearity_eval(v, 1.0, mode), nonlinearity_difference(v, w, 1.0, mode)):
            assert f.band == g.dealias_cutoff
            assert not f.spec[f.band:].any()

    def test_full_band_forcing_gives_the_banded_bits(self):
        g = GridSpec(50 * np.pi, 2 ** 12)
        cut = g.dealias_cutoff
        prop = Propagator(builtin_symbol("kdv-ks"), g)
        w0 = rough_field(g, seed=4)
        banded = lambda tau: nonlinearity_eval(apply_semigroup(prop, w0, tau), 1.0, "conservative")
        full = lambda tau: SpectralField(g, banded(tau).spec)
        assert full(0.0).band == g.xi.size
        times = [0.0, 1e-3, 0.05, 0.2]
        for a, b in zip(duhamel_sweep(prop, banded, times, 0.2, 16),
                        duhamel_sweep(prop, full, times, 0.2, 16), strict=True):
            assert a[:cut].tobytes() == b[:cut].tobytes()
            assert not a[cut:].any() and not b[cut:].any()


class TestFullBandElsewhere:
    def test_fields_built_any_other_way_span_the_half_spectrum(self):
        g = GridSpec(50 * np.pi, 2 ** 10)
        size = g.xi.size
        rough = rough_field(g, seed=1)
        fields = [
            rough,
            gaussian_field(g, width=2.0),
            coherent_field(g, np.cos(g.x)),
            zero_field(g),
            SpectralField(g, np.zeros(size, complex)),
            apply_multiplier_values(rough, np.exp(-g.xi)),
            fractional_derivative_shifted(rough, 0.5),
            rough - gaussian_field(g, width=2.0),
            apply_semigroup(Propagator(builtin_symbol("kdv-ks"), g), rough, 0.0),
        ]
        assert [f.band for f in fields] == [size] * len(fields)


def derivative_on_full_frequencies(f, s):
    """fractional_derivative_shifted(f, s) with its multiplier cut from the
    whole frequency array, Nyquist entry zeroed, as it was first built."""
    xi = np.array(f.grid.xi)
    xi[-1] = 0.0
    return apply_multiplier_values(f, 1j * xi[: f.band] ** (s + 1.0))


class TestDerivativeOnTheBand:
    @pytest.mark.parametrize("s", [0.0, 0.5, -0.5, 2.0])
    def test_free_fields_keep_their_bits(self, flow, s):
        prop, w0 = flow
        for t in TIMES:
            f = apply_semigroup(prop, w0, t)
            got, want = fractional_derivative_shifted(f, s), derivative_on_full_frequencies(f, s)
            assert got.band == want.band == f.band
            assert got.spec.tobytes() == want.spec.tobytes(), t

    @pytest.mark.parametrize("s", [0.0, 0.5, -0.5, 2.0])
    def test_band_ends_at_and_below_the_nyquist_mode(self, s):
        # the full band zeroes the Nyquist entry; a band one mode short of it
        # must not zero its own last entry
        g = GridSpec(50 * np.pi, 2 ** 10)
        rough = rough_field(g, seed=2)
        short = apply_multiplier_values(rough, np.ones(g.xi.size - 1))
        assert rough.band == g.xi.size and short.band == g.xi.size - 1
        for f in (rough, short):
            got, want = fractional_derivative_shifted(f, s), derivative_on_full_frequencies(f, s)
            assert got.band == want.band == f.band
            assert got.spec.tobytes() == want.spec.tobytes()
        assert fractional_derivative_shifted(rough, s).spec[-1] == 0.0
        assert fractional_derivative_shifted(short, s).spec[-2] != 0.0


class TestNonFiniteMultiplier:
    def test_semigroup_overflow_names_the_frequency(self):
        # kdv-ks at eta = 1e4 grows like exp(2500 t) near xi = 0.7
        g = GridSpec(50 * np.pi, 2 ** 10)
        prop = Propagator(builtin_symbol("kdv-ks", eta=1e4), g)
        with pytest.raises(MultiplierEvaluationError, match="xi="), np.errstate(over="ignore"):
            apply_semigroup(prop, rough_field(g, seed=1), 1.0)

    def test_derivative_overflow_inside_the_band_names_the_frequency(self):
        g = GridSpec(50 * np.pi, 2 ** 12)
        free = apply_semigroup(Propagator(builtin_symbol("pure-power", p=4.0), g),
                               rough_field(g, seed=1), 1e-4)
        assert free.band < free.spec.size
        with pytest.raises(MultiplierEvaluationError, match="xi="), \
                np.errstate(over="ignore", invalid="ignore"):
            fractional_derivative_shifted(free, 400.0)

    def test_full_multiplier_is_checked_past_the_band(self):
        g = GridSpec(50 * np.pi, 2 ** 12)
        free = apply_semigroup(Propagator(builtin_symbol("pure-power", p=4.0), g),
                               rough_field(g, seed=1), 1e-2)
        values = np.ones_like(g.xi)
        values[-1] = np.inf
        with pytest.raises(MultiplierEvaluationError, match="xi="):
            apply_multiplier_values(free, values)
