import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkdv import norms
from gkdv.errors import BlowUpError
from gkdv.norms import (
    WeightedNormConfig,
    gamma_k,
    integer_power,
    lebesgue_norm,
    omega_k,
    sobolev_norm,
    spectral_lq_norm,
    x_norm,
    y_norm,
    z_norm,
    z_tilde_norm,
)
from gkdv.probes import gaussian_field, rough_field
from gkdv.semigroup import Propagator, apply_semigroup
from gkdv.spectral import (
    GridSpec,
    SpectralField,
    apply_multiplier_values,
    coherent_field,
    fractional_derivative_shifted,
    zero_field,
)
from gkdv.symbols import builtin_symbol

from conftest import padded_multiplier, spatial_derivative, trajectory_norm


def cfg_for(s=0.0, k=1.0, p=4.0, t_final=1.0, n_times=8):
    return WeightedNormConfig.default(s, k, p, t_final, n_times=n_times)


def one_time_cfg(t, s=0.0, k=1.0, p=4.0):
    """A config whose only sample time is t: a norm is then ||f||_{H^s} plus
    the weighted part at t."""
    return WeightedNormConfig(s, k, p, 1.0, (t,))


class TestLebesgue:
    def test_constant_field(self):
        g = GridSpec(10.0, 64)
        f = coherent_field(g, np.full(64, -2.0))
        for q in (1, 2, 4):
            assert lebesgue_norm(f, q) == pytest.approx(2.0 * 10.0 ** (1.0 / q), rel=1e-13)
        assert lebesgue_norm(f, np.inf) == pytest.approx(2.0)

    def test_q2_matches_parseval(self):
        g = GridSpec(17.0, 256)
        rng = np.random.default_rng(5)
        f = coherent_field(g, rng.standard_normal(256))
        phys = lebesgue_norm(f, 2)
        spec = np.sqrt(g.length * np.sum(g.mode_weights * np.abs(f.spec) ** 2))
        assert phys == pytest.approx(spec, rel=1e-12)

    def test_sine_fourth_power(self):
        # integral of sin^4 over a 2*pi period is 3*pi/4
        g = GridSpec(2 * np.pi, 256)
        f = coherent_field(g, np.sin(g.x))
        assert lebesgue_norm(f, 4) == pytest.approx((3 * np.pi / 4) ** 0.25, rel=1e-12)

    def test_domain_error(self):
        g = GridSpec(2 * np.pi, 64)
        f = coherent_field(g, np.ones(64))
        with pytest.raises(ValueError):
            lebesgue_norm(f, 0.5)

    def test_integer_exponent_by_multiplication(self, monkeypatch):
        # q = 4 is |f|^2 squared; other integers stay within a few ulp of pow
        g = GridSpec(17.0, 256)
        f = coherent_field(g, np.random.default_rng(8).standard_normal(256))
        mag = np.abs(f.phys)
        exponents = []
        monkeypatch.setattr(norms, "integer_power",
                            lambda v, n: exponents.append(n) or integer_power(v, n))
        assert lebesgue_norm(f, 4.0) == (np.sum(np.square(np.square(mag))) * g.h) ** 0.25
        for q in (1, 2, 3, 5, 6, 7):
            assert lebesgue_norm(f, q) == pytest.approx(
                (np.sum(mag ** float(q)) * g.h) ** (1.0 / q), rel=1e-15)
        assert lebesgue_norm(f, 2.5) == (np.sum(mag ** 2.5) * g.h) ** 0.4
        assert exponents == [4, 1, 2, 3, 5, 6, 7]

    @pytest.mark.parametrize("n", range(1, 10))
    def test_integer_power_matches_pow(self, n):
        v = np.random.default_rng(n).standard_normal(64)
        out = integer_power(v, n)
        # at most 4 roundings for n < 16, amplified by the squarings after them: < 10 ulp
        assert np.max(np.abs(out - v ** float(n)) / np.abs(v ** float(n))) <= 2e-15
        if n <= 2:
            assert np.array_equal(out, v ** n)


def full_grid_norm(spec, n, length, q):
    """(sum |irfft(spec, n)|^q * h)^(1/q): the n-point rectangle rule."""
    samples = np.fft.irfft(spec, n, norm="forward")
    return (np.sum(np.abs(samples) ** q) * (length / n)) ** (1.0 / q)


def inverse_lengths(fft_calls):
    return [n for name, n in fft_calls.lengths if name == "irfft"]


class TestExactSubgrid:
    """Even-q norms of band-limited fields are summed on the coarsest
    power-of-two grid that integrates |f|^q exactly."""

    @staticmethod
    def band_limited(n, top):
        """A rough field times exp(t*z) of the p = 4 pure power, with t
        = xi_top^-4 so that mode top keeps about e^-1 of its size, and every
        mode above top set to 0: its highest nonzero mode is top."""
        g = GridSpec(50 * np.pi, n)
        w = rough_field(g, sobolev_index=0.0, seed=n)
        prop = Propagator(builtin_symbol("pure-power", p=4), g)
        spec = w.spec * padded_multiplier(prop, g.xi[top] ** -4.0)
        spec[top + 1:] = 0.0
        assert spec[top] != 0
        return SpectralField(g, spec)

    @pytest.mark.parametrize("n", [2 ** e for e in range(8, 16)])
    @pytest.mark.parametrize("q", [2, 4, 6, 8])
    def test_matches_full_grid_sum_at_the_band_edge(self, fft_calls, n, q):
        # for m = n/2 and n/16: K = (m-1)//q is the highest mode the m-point
        # rule integrates exactly (q*K < m), K = ceil(m/q) the lowest that
        # needs the 2m-point rule (q*K >= m)
        for m in (n // 2, n // 16):
            for top, points in (((m - 1) // q, m), (-(-m // q), 2 * m)):
                f = self.band_limited(n, top)
                expected = full_grid_norm(f.spec, n, f.grid.length, q)
                fft_calls.clear()
                assert lebesgue_norm(f, q) == pytest.approx(expected, rel=1e-14)
                assert inverse_lengths(fft_calls) == [points]
                assert "phys" not in f.__dict__ or points == n

    @pytest.mark.parametrize("q", [2, 4, 6, 8])
    def test_single_mode_closed_form(self, fft_calls, q):
        # cos(2*pi*K*x/L) has every mode below K empty; the integral of
        # cos^q over one length L is L * C(q, q/2) / 2^q
        g = GridSpec(10.0, 1024)
        expected = (g.length * math.comb(q, q // 2) / 2 ** q) ** (1.0 / q)
        for mode in (1, 7, 33, 100):
            spec = np.zeros(513, complex)
            spec[mode] = 0.5
            fft_calls.clear()
            assert lebesgue_norm(SpectralField(g, spec), q) == pytest.approx(expected, rel=1e-14)
            assert inverse_lengths(fft_calls) == [min(1 << (q * mode).bit_length(), 1024)]

    @pytest.mark.parametrize("q", [3, 2.5, np.inf])
    def test_other_exponents_use_the_n_samples(self, fft_calls, q):
        f = self.band_limited(1024, 10)
        mag = np.abs(np.fft.irfft(f.spec, 1024, norm="forward"))
        expected = (np.max(mag) if q == np.inf
                    else (np.sum(mag ** q) * f.grid.h) ** (1.0 / q))
        fft_calls.clear()
        assert lebesgue_norm(f, q) == pytest.approx(expected, rel=1e-15)
        assert inverse_lengths(fft_calls) == [1024]
        assert "phys" in f.__dict__

    @pytest.mark.parametrize("q", [2, 4, 6, 8])
    def test_full_band_fields_use_the_n_samples(self, fft_calls, q):
        # a nonzero mode K with q*K >= n/2 keeps the n-point sum, bit for bit;
        # the rough field fills every mode but the Nyquist one
        g = GridSpec(17.0, 512)
        for f in (rough_field(g, sobolev_index=0.0, seed=2),
                  self.band_limited(512, -(-256 // q))):
            fft_calls.clear()
            value = lebesgue_norm(f, q)
            assert inverse_lengths(fft_calls) == [512]
            assert value == (np.sum(integer_power(np.abs(f.phys), q)) * f.grid.h) ** (1.0 / q)

    @pytest.mark.parametrize("q", [2, 4, 6, 8])
    def test_zero_field_gives_zero(self, q):
        assert lebesgue_norm(zero_field(GridSpec(10.0, 256)), q) == 0.0

    def test_constant_field_on_one_point(self, fft_calls):
        # K = 0: one sample is the exact rectangle rule for a constant
        f = SpectralField(GridSpec(10.0, 256), np.r_[-2.0, np.zeros(128)])
        fft_calls.clear()
        assert lebesgue_norm(f, 4) == pytest.approx(2.0 * 10.0 ** 0.25, rel=1e-15)
        assert inverse_lengths(fft_calls) == [1]

    def test_nan_inside_the_band_is_a_named_blow_up(self):
        f = self.band_limited(4096, 300)
        spec = f.spec.copy()
        spec[123] = np.nan
        bad = SpectralField(f.grid, spec)
        assert np.isnan(lebesgue_norm(bad, 4))
        assert np.isnan(lebesgue_norm(fractional_derivative_shifted(bad, 0.0), 4))
        with pytest.raises(BlowUpError, match="t=0.5"):
            x_norm([bad], one_time_cfg(0.5))

    def test_x_norm_lengths_on_a_free_flow(self, fft_calls):
        # at s = 0, x_norm transforms f and d_x f once each; on V(t)w both
        # have the highest nonzero mode K < live_modes(t), so at q = 4 the
        # grid has the smallest power of two above 4*K
        n = 4096
        g = GridSpec(50 * np.pi, n)
        prop = Propagator(builtin_symbol("pure-power", p=4), g)
        w = rough_field(g, sobolev_index=0.0, seed=0)
        for t in (1e-2, 1.0):
            f = apply_semigroup(prop, w, t)
            top = np.flatnonzero(f.spec)[-1]
            assert top < prop.live_modes(t)
            m = 1 << int(4 * top).bit_length()
            fft_calls.clear()
            x_norm([f], one_time_cfg(t))
            assert inverse_lengths(fft_calls) == [m, m]
            assert m < n
        fft_calls.clear()
        x_norm([w], one_time_cfg(1.0))
        assert inverse_lengths(fft_calls) == [n, n]


class TestSobolev:
    def test_s0_equals_l2(self):
        g = GridSpec(11.0, 128)
        rng = np.random.default_rng(1)
        f = coherent_field(g, rng.standard_normal(128))
        assert sobolev_norm(f, 0.0) == pytest.approx(lebesgue_norm(f, 2), rel=1e-12)

    def test_single_mode(self):
        g = GridSpec(10.0, 64)
        spec = np.zeros(33, complex)
        spec[4] = 0.5
        f = SpectralField(g, spec)
        xi4 = abs(g.xi[4])
        for s in (-0.5, 0.0, 1.3):
            assert sobolev_norm(f, s) == pytest.approx(
                (1 + xi4) ** s * lebesgue_norm(f, 2), rel=1e-12
            )

    def test_monotone_in_s(self):
        g = GridSpec(10.0, 128)
        rng = np.random.default_rng(2)
        f = coherent_field(g, rng.standard_normal(128))
        values = [sobolev_norm(f, s) for s in (-1.0, -0.3, 0.0, 0.5, 2.0)]
        assert np.all(np.diff(values) >= 0)


class TestExponents:
    def test_closed_form_values(self):
        assert gamma_k(1.0) == 5.0 / 4.0
        assert gamma_k(2.0) == 4.0 / 3.0
        assert omega_k(1.0, 4.0) == 3.0 / 8.0
        assert omega_k(1.0, 3.0) == 1.0 / 6.0
        assert omega_k(1.0, 2.5) == 0.0

    def test_gamma_asymptote(self):
        assert 1.49 < gamma_k(1000.0) < 1.5

    def test_random_closed_forms(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            k = float(rng.uniform(0.1, 8.0))
            p = float(rng.uniform(0.5, 9.0))
            assert gamma_k(k) == (3 * k + 2) / (2 * (k + 1))
            assert omega_k(k, p) == (2 * p - 3 * k - 2) / (2 * p)

    def test_gamma_domain(self):
        with pytest.raises(ValueError):
            gamma_k(0.0)


class TestHomogeneityAndTriangle:
    @settings(max_examples=20, deadline=None)
    @given(alpha=st.floats(-5, 5), q=st.sampled_from([1.0, 2.0, 4.0]), seed=st.integers(0, 30))
    def test_homogeneous(self, alpha, q, seed):
        g = GridSpec(9.0, 64)
        rng = np.random.default_rng(seed)
        values = rng.standard_normal(64)
        f = coherent_field(g, values)
        fa = coherent_field(g, alpha * values)
        assert lebesgue_norm(fa, q) == pytest.approx(abs(alpha) * lebesgue_norm(f, q), abs=1e-12)
        assert sobolev_norm(fa, 0.7) == pytest.approx(abs(alpha) * sobolev_norm(f, 0.7), abs=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 50))
    def test_triangle(self, seed):
        g = GridSpec(9.0, 64)
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(64)
        b = rng.standard_normal(64)
        fa, fb, fab = (coherent_field(g, v) for v in (a, b, a + b))
        for q in (1.0, 2.0, 4.0):
            assert lebesgue_norm(fab, q) <= lebesgue_norm(fa, q) + lebesgue_norm(fb, q) + 1e-10
        assert sobolev_norm(fab, 0.5) <= sobolev_norm(fa, 0.5) + sobolev_norm(fb, 0.5) + 1e-10


class TestSpectralLq:
    def test_parseval_ratio_one(self):
        g = GridSpec(13.0, 128)
        rng = np.random.default_rng(7)
        f = coherent_field(g, rng.standard_normal(128))
        assert spectral_lq_norm(f, 2) == pytest.approx(lebesgue_norm(f, 2), rel=1e-12)


class TestTrajectoryNorms:
    @pytest.mark.parametrize("s", [0.0, 0.5])
    def test_equals_direct_sup(self, s):
        # each trajectory norm is the sup of ||f||_{H^s} + t^w * (sum of its
        # weighted parts), to the last bit, on a free rough trajectory
        g = GridSpec(200 * np.pi, 2 ** 10)
        w0 = rough_field(g, sobolev_index=s, seed=3)
        prop = Propagator(builtin_symbol("kdv-ks"), g)
        cfg = WeightedNormConfig(s, 1.0, 4.0, 0.5, tuple(np.geomspace(1e-4, 0.5, 9)))
        fields = [apply_semigroup(prop, w0, t) for t in cfg.sample_times]
        norms_by_space = {"x": x_norm, "y": y_norm, "z": z_norm, "z_tilde": z_tilde_norm}
        for space, norm in norms_by_space.items():
            value = norm(iter(fields), cfg)
            assert type(value) is float
            assert value == trajectory_norm(space, fields, cfg)

    def test_zero_trajectory(self):
        g = GridSpec(10.0, 64)
        zero = coherent_field(g, np.zeros(64))
        cfg = cfg_for()
        fields = [zero] * len(cfg.sample_times)
        assert x_norm(fields, cfg) == 0.0
        assert y_norm(fields, cfg) == 0.0
        assert z_norm(fields, cfg) == 0.0
        assert z_tilde_norm(fields, cfg) == 0.0

    def test_stationary_smooth_weight_vanishes(self):
        # for a time-independent field the weighted part scales exactly like
        # t^(gamma_k/p), so it vanishes as t -> 0; on one sample time the
        # norm minus ||f||_{H^s} is that weighted part
        g = GridSpec(40.0, 256)
        bump = gaussian_field(g, width=2.0)
        times = cfg_for(t_final=1.0, n_times=12).sample_times
        hs = sobolev_norm(bump, 0.0)
        weighted = {t: x_norm([bump], one_time_cfg(t)) - hs for t in (times[0], times[-1])}
        expected_ratio = (times[0] / times[-1]) ** one_time_cfg(1.0).weight_exponent
        assert weighted[times[0]] == pytest.approx(
            weighted[times[-1]] * expected_ratio, rel=1e-10
        )
        # the H^s part is ||f||_{H^s} itself
        q = 4.0
        dx = lebesgue_norm(fractional_derivative_shifted(bump, 0.0), q)
        parts = [lebesgue_norm(bump, q), dx, dx]
        for t in (times[0], times[-1]):
            cfg = one_time_cfg(t)
            assert x_norm([bump], cfg) == pytest.approx(
                hs + t ** cfg.weight_exponent * sum(parts), rel=1e-12
            )

    def test_free_rough_trajectory_weighted_bounded(self):
        g = GridSpec(200 * np.pi, 2 ** 12)
        w0 = rough_field(g, sobolev_index=0.0, seed=4)
        prop = Propagator(builtin_symbol("kdv-ks"), g)
        l2 = lebesgue_norm(w0, 2)
        for t in np.geomspace(1e-4, 1.0, 12):
            f = apply_semigroup(prop, w0, t)
            # the weighted part at t, the sum of the three components
            assert x_norm([f], one_time_cfg(t)) - sobolev_norm(f, 0.0) <= 10.0 * l2

    def test_y_norm_components_coincide_at_s0(self):
        g = GridSpec(40.0, 256)
        bump = gaussian_field(g, width=2.0)
        hs = sobolev_norm(bump, 0.0)
        dx = lebesgue_norm(fractional_derivative_shifted(bump, 0.0), 4.0)
        assert dx == lebesgue_norm(spatial_derivative(bump), 4.0)
        for t in cfg_for(s=0.0).sample_times:
            cfg = one_time_cfg(t)
            # w_dx_lq + w_dxs_lq with both equal to t^w * ||d_x f||_{L^q}
            assert y_norm([bump], cfg) - hs == pytest.approx(
                2.0 * t ** cfg.weight_exponent * dx, rel=1e-12
            )

    @pytest.mark.parametrize("s", [0.0, 0.5])
    def test_derivative_component_transformed_once_at_s0(self, fft_calls, s):
        # the samples of f are cached; d_x f and D^s d_x f each take one
        # inverse transform, but at s = 0 D^s d_x f is d_x f bit for bit, so
        # one value serves both components and the second transform is not made
        g = GridSpec(40.0, 256)
        cfg = cfg_for(s=s)
        fields = [gaussian_field(g, width=2.0 + 0.1 * i) for i in range(len(cfg.sample_times))]
        q = 2.0 * (cfg.k + 1.0)
        fft_calls.clear()
        x_norm(fields, cfg)
        per_time = 1 if s == 0 else 2
        assert fft_calls["irfft"] == per_time * len(fields)
        for t, f in zip(cfg.sample_times, fields):
            w = t ** cfg.weight_exponent
            dx = lebesgue_norm(spatial_derivative(f), q)
            dxs = lebesgue_norm(fractional_derivative_shifted(f, s), q)
            if s == 0:
                assert dxs == dx
            expected = sobolev_norm(f, s) + (w * lebesgue_norm(f, q) + w * dx + w * dxs)
            assert x_norm([f], one_time_cfg(t, s=s)) == expected
        fft_calls.clear()
        y_norm([gaussian_field(g, width=2.0)] * len(cfg.sample_times), cfg)
        assert fft_calls["irfft"] == per_time * len(cfg.sample_times)

    def test_y_leq_x_at_s0(self):
        g = GridSpec(40.0, 256)
        bump = gaussian_field(g, width=2.0)
        cfg = cfg_for(s=0.0)
        fields = [bump] * len(cfg.sample_times)
        assert y_norm(fields, cfg) <= x_norm(fields, cfg) + 1e-14

    def test_z_tilde_stationary_oracle(self):
        g = GridSpec(40.0, 256)
        bump = gaussian_field(g, width=2.0)
        s, p, t_final = 0.5, 4.0, 0.8
        cfg = WeightedNormConfig(s, 1.0, p, t_final, tuple(np.geomspace(1e-3, t_final, 10)))
        expected = sobolev_norm(bump, s) + t_final ** ((1 + abs(s)) / p) * lebesgue_norm(
            fractional_derivative_shifted(bump, 0.0), 2
        )
        fields = [bump] * len(cfg.sample_times)
        assert z_tilde_norm(fields, cfg) == pytest.approx(expected, rel=1e-12)

    def test_z_finite_whenever_x_finite(self):
        g = GridSpec(40.0, 256)
        rng = np.random.default_rng(9)
        f = coherent_field(g, rng.standard_normal(256))
        cfg = cfg_for()
        fields = [f] * len(cfg.sample_times)
        assert np.isfinite(x_norm(fields, cfg))
        assert np.isfinite(z_norm(fields, cfg))

    def test_blow_up_named_time(self):
        g = GridSpec(10.0, 64)
        bad = SpectralField(g, np.full(33, np.nan, complex))
        cfg = cfg_for()
        with pytest.raises(BlowUpError, match="t="):
            x_norm([bad] * len(cfg.sample_times), cfg)

    def test_field_count_must_match_sample_times(self):
        g = GridSpec(40.0, 256)
        bump = gaussian_field(g, width=2.0)
        cfg = cfg_for()
        n = len(cfg.sample_times)
        for count in (n - 1, n + 1):
            with pytest.raises(ValueError):
                x_norm([bump] * count, cfg)
            with pytest.raises(ValueError):
                z_norm([bump] * count, cfg)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            WeightedNormConfig(0.0, 1.0, 4.0, 1.5, (0.1,))
        with pytest.raises(ValueError):
            WeightedNormConfig(0.0, 1.0, 4.0, 1.0, (0.5, 0.1))
        with pytest.raises(ValueError):
            WeightedNormConfig(0.0, -1.0, 4.0, 1.0, (0.1,))

    @pytest.mark.parametrize("times", [(0.1, np.nan), (np.nan, 0.1), (np.nan,),
                                       (0.1, np.inf)])
    def test_non_finite_sample_time_rejected(self, times):
        with pytest.raises(ValueError, match="finite"):
            WeightedNormConfig(0.0, 1.0, 4.0, 1.0, times)

    def test_default_spacing(self):
        cfg = WeightedNormConfig.default(0.0, 1.0, 4.0, 0.5, n_times=20)
        ts = np.asarray(cfg.sample_times)
        assert len(ts) == 20
        assert ts[0] == pytest.approx(1e-4 * 0.5)
        assert ts[-1] == pytest.approx(0.5)
        ratios = ts[1:] / ts[:-1]
        assert np.allclose(ratios, ratios[0])

    def test_weight_exponent(self):
        cfg = WeightedNormConfig.default(0.0, 1.0, 4.0, 1.0)
        assert cfg.weight_exponent == gamma_k(1.0) / 4.0


def bits(values):
    """The doubles of values as an array, compared by .view(float) below."""
    return np.asarray(values, dtype=float)


class TestStackedNorms:
    """A stack of P members, spec (P, n/2 + 1) or its first W columns, gives
    each member's norm with the bits of that member normed alone."""

    GRIDS = [2 ** j for j in range(8, 16)]

    @staticmethod
    def members(grid, count, seed):
        """count fields whose highest nonzero modes, and so exact sample
        counts, differ, each with a band at or a little past that mode."""
        rng = np.random.default_rng(seed)
        size = grid.xi.size
        out = []
        for i in range(count):
            top = max(1, int(size * (1.0, 0.5, 0.2, 1 / 16, 1 / 64)[i % 5]))
            spec = np.zeros(size, dtype=complex)
            spec[:top] = rng.standard_normal(top) + 1j * rng.standard_normal(top)
            f = SpectralField(grid, spec)
            f.band = min(size, top + i % 3)
            out.append(f)
        return out

    @staticmethod
    def stacks(fields):
        """The full-width stack of fields and the stack of their first W
        columns, W the widest band."""
        full = SpectralField(fields[0].grid, np.array([f.spec for f in fields]))
        full.band = width = max(f.band for f in fields)
        narrow = SpectralField(fields[0].grid, np.array([f.spec[:width] for f in fields]))
        assert narrow.band == width
        return full, narrow

    @pytest.mark.parametrize("n", GRIDS)
    @pytest.mark.parametrize("count", [1, 2, 10])
    def test_sobolev_and_lebesgue(self, n, count):
        g = GridSpec(100.0, n)
        fields = self.members(g, count, seed=n + count)
        for stack in self.stacks(fields):
            for s in (-0.5, 0.0, 0.5):
                want = bits([sobolev_norm(f, s) for f in fields])
                assert np.array_equal(bits(sobolev_norm(stack, s)).view(float), want.view(float))
            for q in (2, 3, 4, 6, np.inf):
                want = bits([lebesgue_norm(f, q) for f in fields])
                got = lebesgue_norm(stack, q)
                assert got.shape == (count,)
                assert np.array_equal(bits(got).view(float), want.view(float)), q
                counts = [norms._exact_sample_count(f, q)[0] for f in fields]
                assert norms._exact_sample_count(stack, q) == counts
        if count == 10 and n >= 2 ** 10:
            # the members fall into several exact sample counts
            assert len(set(norms._exact_sample_count(stack, 4))) >= 3

    @pytest.mark.parametrize("n", [2 ** 8, 2 ** 12, 2 ** 15])
    def test_multipliers_act_on_every_row(self, n):
        g = GridSpec(100.0, n)
        fields = self.members(g, 10, seed=1)
        values = Propagator(builtin_symbol("kdv-ks"), g).multiplier(1e-3)
        for stack in self.stacks(fields):
            width = stack.spec.shape[1]
            for s in (-0.5, 0.0, 0.5):
                got = fractional_derivative_shifted(stack, s)
                assert got.band == stack.band and got.spec.shape == stack.spec.shape
                for row, f in zip(got.spec, fields):
                    want = fractional_derivative_shifted(f, s).spec
                    assert np.array_equal(row.view(float), want[:width].view(float))
            got = apply_multiplier_values(stack, values)
            assert got.band == min(stack.band, values.size)
            for row, f in zip(got.spec, fields):
                want = apply_multiplier_values(f, values).spec
                assert np.array_equal(row.view(float), want[:width].view(float))
                assert not np.any(want[width:])

    @pytest.mark.parametrize("n,s,k", [(n, s, k) for n in (2 ** 8, 2 ** 12)
                                       for s in (-0.5, 0.0, 0.5) for k in (1.0, 2.0)]
                             + [(2 ** 15, -0.5, 1.0), (2 ** 15, 0.5, 2.0)])
    def test_trajectory_norms(self, n, s, k):
        # free flows of members with different bands: the exact sample
        # counts differ across members and shrink along the trajectory
        g = GridSpec(100.0, n)
        fields = self.members(g, 10, seed=2)
        prop = Propagator(builtin_symbol("kdv-ks"), g)
        cfg = WeightedNormConfig(s, k, 4.0, 0.5, tuple(np.geomspace(1e-5, 0.5, 6)))
        for stack in self.stacks(fields):
            for norm in (x_norm, y_norm, z_norm, z_tilde_norm):
                got = norm((apply_semigroup(prop, stack, t) for t in cfg.sample_times), cfg)
                want = bits([norm([apply_semigroup(prop, f, t) for t in cfg.sample_times], cfg)
                             for f in fields])
                assert np.array_equal(bits(got).view(float), want.view(float)), norm.__name__

    def test_one_field_gives_a_float(self):
        g = GridSpec(100.0, 256)
        f = self.members(g, 1, seed=0)[0]
        assert type(sobolev_norm(f, 0.5)) is float
        for q in (2, 3, np.inf):
            assert type(lebesgue_norm(f, q)) is float

    def test_blow_up_in_one_member_names_the_time(self):
        g = GridSpec(100.0, 256)
        fields = self.members(g, 3, seed=0)
        fields[1].spec[2] = np.nan
        stack, _ = self.stacks(fields)
        cfg = one_time_cfg(0.25)
        with pytest.raises(BlowUpError, match="t=0.25"):
            x_norm([stack], cfg)
