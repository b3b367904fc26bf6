import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkdv.errors import MultiplierEvaluationError, StructuralError
from gkdv.norms import lebesgue_norm, sobolev_norm
from gkdv.probes import rough_field
from gkdv.solver import MODES, nonlinearity_eval
from gkdv.spectral import (
    GridSpec,
    SpectralField,
    apply_multiplier_values,
    coherent_field,
    fractional_derivative_shifted,
)

from conftest import band_limit, spatial_derivative


def random_field(grid, seed=0, band_limited=True):
    rng = np.random.default_rng(seed)
    f = coherent_field(grid, rng.standard_normal(grid.n_points))
    return band_limit(f) if band_limited else f


class TestGridSpec:
    def test_frequencies(self):
        g = GridSpec(10.0, 8)
        assert np.allclose(g.xi, 2 * np.pi / 10.0 * np.arange(0, 5))
        assert g.h == 10.0 / 8

    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(-1.0, 64)
        with pytest.raises(ValueError):
            GridSpec(1.0, 48)  # not a power of two
        with pytest.raises(ValueError):
            GridSpec(1.0, 64, dealias_fraction=0.0)

    def test_dealias_cutoff_rounds(self):
        g = GridSpec(1.0, 8, dealias_fraction=2 / 3)
        assert g.dealias_cutoff == 3


class TestTransforms:
    def test_constant_field_dc_mode(self, small_grid):
        f = coherent_field(small_grid, np.ones(small_grid.n_points))
        nonzero = np.abs(f.spec) > 1e-14
        assert nonzero.sum() == 1
        assert nonzero[0]
        assert f.spec[0] == pytest.approx(1.0)

    def test_single_harmonic(self):
        g = GridSpec(10.0, 64)
        f = coherent_field(g, np.cos(2 * np.pi * g.x / g.length))
        nonzero = np.flatnonzero(np.abs(f.spec) > 1e-14)
        assert set(nonzero) == {1}
        assert np.abs(f.spec[1]) == pytest.approx(0.5, rel=1e-14)

    @pytest.mark.parametrize("n", [64, 256, 1024])
    def test_parseval_direct_sums(self, n):
        g = GridSpec(37.0, n)
        rng = np.random.default_rng(n)
        f = coherent_field(g, rng.standard_normal(n))
        phys_side = np.sum(f.phys ** 2) * g.h
        spec_side = g.length * np.sum(g.mode_weights * np.abs(f.spec) ** 2)
        assert abs(phys_side - spec_side) <= 1e-12 * phys_side

    def test_round_trip(self, small_grid):
        f = random_field(small_grid, band_limited=False)
        back = SpectralField(small_grid, f.spec)
        assert np.max(np.abs(back.phys - f.phys)) <= 1e-12 * np.max(np.abs(f.phys))

    def test_zero_spectrum(self, small_grid):
        out = SpectralField(small_grid, np.zeros(33, complex))
        assert np.all(out.phys == 0)

    def test_single_mode_matches_exponential(self):
        # With the left-endpoint phase convention the mode-k basis function
        # sampled on the grid is exp(i*xi_k*(x + L/2)).
        g = GridSpec(10.0, 32)
        spec = np.zeros(17, complex)
        spec[3] = 1.0
        f = SpectralField(g, spec)
        xi3 = g.xi[3]
        expected = 2 * np.cos(xi3 * (g.x + g.length / 2))
        assert np.max(np.abs(f.phys - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_shape_mismatch_raises(self, small_grid):
        with pytest.raises(StructuralError):
            coherent_field(small_grid, np.ones(32))
        with pytest.raises(StructuralError):
            SpectralField(small_grid, np.ones(64, complex))


class TestNarrowField:
    """A 1-D spec of its first W modes is the field zero-padded to the half
    spectrum, to the bit."""

    @staticmethod
    def same_bits(a, b):
        return np.array_equal(np.asarray(a).view(float), np.asarray(b).view(float))

    @pytest.mark.parametrize("n", [256, 4096])
    def test_band_gives_the_bits_of_the_padded_field(self, n):
        grid = GridSpec(50 * np.pi, n)
        spec = rough_field(grid, seed=3).spec
        for width in (1, 7, grid.dealias_cutoff, n // 2, n // 2 + 1):
            narrow = SpectralField(grid, spec[:width])
            padded = SpectralField(grid, np.where(np.arange(spec.size) < width, spec, 0))
            assert narrow.band == width and padded.band == spec.size
            assert self.same_bits(narrow.phys, padded.phys)
            for s in (0.0, 0.5, -0.5):
                assert self.same_bits(sobolev_norm(narrow, s), sobolev_norm(padded, s))
            for q in (2, 3, 4, np.inf):
                assert self.same_bits(lebesgue_norm(narrow, q), lebesgue_norm(padded, q))
            for s in (0.0, 0.5):
                d_narrow = fractional_derivative_shifted(narrow, s)
                d_padded = fractional_derivative_shifted(padded, s)
                assert d_narrow.band == width
                assert self.same_bits(d_narrow.spec, d_padded.spec[:width])
                assert self.same_bits(d_narrow.phys, d_padded.phys)
            for mode in MODES:
                assert self.same_bits(nonlinearity_eval(narrow, 1.5, mode).spec,
                                      nonlinearity_eval(padded, 1.5, mode).spec)

    def test_other_shapes_rejected(self, small_grid):
        for shape in ((2, 3, 33), (34,), (2, 34), (0,), (2, 0)):
            with pytest.raises(StructuralError):
                SpectralField(small_grid, np.ones(shape, complex))


class TestMultipliers:
    def test_identity(self, small_grid):
        f = random_field(small_grid)
        out = apply_multiplier_values(f, np.ones_like(small_grid.xi))
        assert np.array_equal(out.spec, f.spec)

    def test_derivative_of_sine(self):
        g = GridSpec(2 * np.pi * 3, 128)
        f = coherent_field(g, np.sin(g.x))
        df = fractional_derivative_shifted(f, 0.0)
        assert np.max(np.abs(df.phys - np.cos(g.x))) <= 1e-10

    def test_composition(self, small_grid):
        f = random_field(small_grid)
        xi = small_grid.xi
        m1 = 1.0 / (1.0 + xi ** 2)
        m2 = np.exp(-np.abs(xi) / 10.0)
        a = apply_multiplier_values(apply_multiplier_values(f, m1), m2)
        b = apply_multiplier_values(f, m1 * m2)
        assert np.max(np.abs(a.spec - b.spec)) <= 1e-12 * np.max(np.abs(b.spec) + 1e-30)

    def test_odd_callable_acts_as_zero_on_nyquist(self, small_grid):
        f = random_field(small_grid, band_limited=False)
        out = fractional_derivative_shifted(f, 0.0)
        assert out.spec[-1] == 0
        assert np.array_equal(out.spec[:-1], 1j * small_grid.xi[:-1] * f.spec[:-1])

    def test_multiplier_must_be_a_prefix_of_the_lattice(self, small_grid):
        f = random_field(small_grid)
        size = small_grid.xi.size
        with pytest.raises(StructuralError):
            apply_multiplier_values(f, np.ones(size + 1))
        with pytest.raises(StructuralError):
            apply_multiplier_values(f, np.ones((1, size)))
        with pytest.raises(StructuralError):
            apply_multiplier_values(f, np.float64(1.0))

    def test_prefix_multiplier_sets_the_band(self, small_grid):
        f = random_field(small_grid, band_limited=False)
        size = small_grid.xi.size
        short = apply_multiplier_values(f, np.full(size // 3, 2.0))
        assert short.band == size // 3
        assert np.array_equal(short.spec[: size // 3], 2.0 * f.spec[: size // 3])
        assert not short.spec[size // 3:].any()
        # a prefix longer than the field's band keeps that band
        assert apply_multiplier_values(short, np.ones(size // 2)).band == size // 3
        assert apply_multiplier_values(short, np.ones(size // 5)).band == size // 5
        assert apply_multiplier_values(f, np.ones(0)).band == 0

    def test_non_finite_multiplier_names_frequency(self, small_grid):
        f = random_field(small_grid)
        xi = small_grid.xi
        with pytest.raises(MultiplierEvaluationError, match="xi="):
            apply_multiplier_values(f, np.where(xi == 0, np.inf, 1.0))

    @settings(max_examples=20, deadline=None)
    @given(alpha=st.floats(-3, 3), beta=st.floats(-3, 3), seed=st.integers(0, 50))
    def test_linearity(self, alpha, beta, seed):
        g = GridSpec(2 * np.pi, 64)
        f = random_field(g, seed=seed)
        h = random_field(g, seed=seed + 1)
        m = np.exp(-np.abs(g.xi)) + 0.3
        combo = apply_multiplier_values(SpectralField(g, alpha * f.spec + beta * h.spec), m)
        parts = SpectralField(
            g, alpha * apply_multiplier_values(f, m).spec + beta * apply_multiplier_values(h, m).spec
        )
        scale = np.max(np.abs(parts.spec)) + 1e-12
        assert np.max(np.abs(combo.spec - parts.spec)) <= 1e-12 * scale


class TestDifference:
    def test_matches_spectra(self, small_grid):
        f, h = random_field(small_grid, seed=1), random_field(small_grid, seed=2)
        assert np.array_equal((f - h).spec, f.spec - h.spec)

    def test_different_grids_raise(self, small_grid):
        other = GridSpec(small_grid.length, 2 * small_grid.n_points)
        with pytest.raises(StructuralError, match="different grids"):
            random_field(small_grid) - random_field(other)


class TestFractionalDerivative:
    def test_s_zero_matches_plain_derivative(self, small_grid):
        f = random_field(small_grid)
        a = fractional_derivative_shifted(f, 0.0)
        b = spatial_derivative(f)
        assert np.array_equal(a.spec, b.spec)

    def test_s_one_two_path(self):
        g = GridSpec(2 * np.pi * 4, 128)
        f = band_limit(coherent_field(g, np.sin(g.x)))
        a = fractional_derivative_shifted(f, 1.0)
        xi = np.array(g.xi)
        xi[g.n_points // 2] = 0.0
        b = SpectralField(g, f.spec * (1j * xi * np.abs(xi)))
        assert np.max(np.abs(a.phys - b.phys)) <= 1e-12 * np.max(np.abs(b.phys))

    def test_negative_order_finite_with_zero_mode(self, small_grid):
        f = random_field(small_grid)
        out = fractional_derivative_shifted(f, -0.5)
        assert np.all(np.isfinite(out.phys))
        assert out.spec[0] == 0

    def test_domain_error(self, small_grid):
        with pytest.raises(ValueError):
            fractional_derivative_shifted(random_field(small_grid), -1.0)
