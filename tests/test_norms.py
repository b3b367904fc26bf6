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
    coherent_field,
    fractional_derivative_shifted,
    spatial_derivative,
)
from gkdv.symbols import builtin_symbol

from conftest import trajectory_norm


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
        parts = [lebesgue_norm(bump, q), lebesgue_norm(spatial_derivative(bump), q),
                 lebesgue_norm(fractional_derivative_shifted(bump, 0.0), q)]
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
        dx = lebesgue_norm(spatial_derivative(bump), 4.0)
        assert lebesgue_norm(fractional_derivative_shifted(bump, 0.0), 4.0) == dx
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
        from gkdv.spectral import spatial_derivative

        expected = sobolev_norm(bump, s) + t_final ** ((1 + abs(s)) / p) * lebesgue_norm(
            spatial_derivative(bump), 2
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
