import json
from collections import Counter
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from gkdv import semigroup, verifier
from gkdv.errors import DoubleRangeError, ResolutionError
from gkdv.probes import gaussian_field
from gkdv.runconfig import RunConfig
from gkdv.semigroup import Propagator
from gkdv.spectral import GridSpec, zero_field
from gkdv.solver import IvpProblem
from gkdv.symbols import DissipativeSymbol, builtin_symbol, threshold_M
from gkdv.verifier import (
    EstimateReport,
    contraction_probe_exponent,
    fit_power_law,
    render_report_table,
    verify_contraction_scaling,
    verify_hausdorff_young,
    verify_multiplier_decay,
    verify_nonlinear_estimate,
    verify_smoothing,
    verify_threshold_conditions,
    verify_weighted_linear,
)

from conftest import peak_half_spectra, per_pair_contraction_rhos, per_seed_weighted_linear


class TestFitPowerLaw:
    def test_exact_power_law(self):
        xs = np.geomspace(0.1, 10.0, 12)
        ys = 3.0 * xs ** (-1.25)
        exponent, constant, residual = fit_power_law(xs, ys)
        assert exponent == pytest.approx(-1.25, abs=1e-10)
        assert constant == pytest.approx(3.0, rel=1e-10)
        assert residual <= 1e-12

    def test_constant_data(self):
        xs = np.geomspace(1.0, 100.0, 8)
        exponent, constant, _ = fit_power_law(xs, np.full(8, 7.0))
        assert exponent == pytest.approx(0.0, abs=1e-12)
        assert constant == pytest.approx(7.0, rel=1e-12)

    def test_noisy_recovery(self):
        rng = np.random.default_rng(0)
        xs = np.geomspace(0.01, 1.0, 40)
        ys = xs ** (-2.0) * (1.0 + 0.01 * rng.standard_normal(40))
        exponent, _, _ = fit_power_law(xs, ys)
        assert exponent == pytest.approx(-2.0, abs=0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_power_law([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            fit_power_law([1.0, 2.0, -3.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            fit_power_law([1.0, 2.0, 3.0], [1.0, 0.0, 3.0])


class TestMultiplierDecay:
    def test_zero_weight_flat(self):
        rep = verify_multiplier_decay(builtin_symbol("pure-power", p=3), 0.0)
        assert rep.verdict == "pass"
        assert abs(rep.fitted_exponent) <= 1e-3

    @pytest.mark.parametrize("p,theta", [(2.0, 1.0), (2.0, 2.0), (4.0, 2.0)])
    def test_pure_power_decay(self, p, theta):
        rep = verify_multiplier_decay(builtin_symbol("pure-power", p=p), theta)
        assert rep.verdict == "pass"
        assert rep.fitted_exponent == pytest.approx(-theta / p, rel=0.05)

    def test_homogeneous_weight_exact(self):
        rep = verify_multiplier_decay(
            builtin_symbol("pure-power", p=4), 2.0, tau_window=(1e-4, 1e-2),
            weight="homogeneous",
        )
        assert rep.verdict == "pass"
        assert rep.fitted_exponent == pytest.approx(-0.5, rel=1e-4)

    @pytest.mark.parametrize("weight", ["bracket", "homogeneous"])
    def test_lattice_edge_maximizer_raises(self, monkeypatch, weight):
        # a 256-point lattice (nyquist 1.28) lies far below this window's
        # maximizers (theta/(p*eta*tau))^(1/p) = 1e3 ... 1e4, so neither
        # weight's sup is on it; a fit to its edge values would read ~0
        monkeypatch.setattr(verifier, "_lattice_for_profile",
                            lambda sym, theta, tau_min: GridSpec(verifier.DEFAULT_LENGTH, 256))
        with pytest.raises(ResolutionError, match="lattice edge"):
            verify_multiplier_decay(builtin_symbol("pure-power", p=2), 2.0,
                                    tau_window=(1e-8, 1e-6), weight=weight)

    def test_mislabelled_order_fails_on_the_exponent(self):
        # negative control: labelled p = 4, but Phi = -xi^2 is of order 2, so
        # the homogeneous sup decays like tau^(-theta/2) = tau^-1 where the
        # label claims tau^-0.5; the fit crosses the lower end of its band
        mislabelled = DissipativeSymbol("mislabelled", p=4.0, q=3.9, c_phi1=1.0,
                                        phi1=lambda xi: np.abs(xi) ** 4 - xi ** 2)
        rep = verify_multiplier_decay(mislabelled, 2.0, tau_window=(1e-2, 0.5),
                                      weight="homogeneous")
        assert rep.verdict == "fail"
        assert rep.theoretical_exponent == -0.5
        assert rep.fitted_exponent < rep.theoretical_exponent - rep.tolerance
        assert rep.fitted_exponent == pytest.approx(-1.0, abs=1e-3)
        pure = verify_multiplier_decay(builtin_symbol("pure-power", p=4), 2.0,
                                       tau_window=(1e-2, 0.5), weight="homogeneous")
        assert pure.verdict == "pass"
        assert abs(pure.fitted_exponent - pure.theoretical_exponent) <= pure.tolerance

    @pytest.mark.parametrize("weight", ["bracket", "homogeneous"])
    @pytest.mark.parametrize("theta,window", [(1.0, (np.nan, 1e-2)), (1.0, (1e-4, np.nan)),
                                              (np.nan, None), (np.inf, (1e-4, 1e-2))])
    def test_non_finite_arguments_raise_value_error(self, weight, theta, window):
        with pytest.raises(ValueError, match="tau|theta"):
            verify_multiplier_decay(builtin_symbol("kdv-ks"), theta, tau_window=window,
                                    weight=weight)

    def test_report_is_reproducible(self):
        a = verify_multiplier_decay(builtin_symbol("kdv-ks"), 1.0)
        b = verify_multiplier_decay(builtin_symbol("kdv-ks"), 1.0)
        assert asdict(a) == asdict(b)


class TestWeightedLinear:
    def test_pure_power_passes(self):
        g = GridSpec(200 * np.pi, 2 ** 11)
        rep = verify_weighted_linear(builtin_symbol("pure-power", p=4), 1.0, s=0.0, grid=g,
                                     n_seeds=4, base_seed=0)
        assert rep.verdict in ("pass", "pass-weak")
        assert rep.fitted_exponent >= rep.theoretical_exponent - 0.05
        assert rep.notes["constant_spread"] <= 0.2
        assert len(rep.notes["per_seed_constants"]) == 4

    def test_mislabelled_order_fails_on_the_exponent(self):
        # negative control: labelled p = 4, but Phi = -|xi|^4 + (|xi|^4 - xi^2)
        # = -xi^2 decays like order 2, faster than the p = 4 bound allows;
        # the seed constants stay within their spread, so the fitted exponent
        # alone crosses theoretical_exponent - tolerance
        g = GridSpec(50 * np.pi, 4096)
        mislabelled = DissipativeSymbol("mislabelled", p=4.0, q=3.9, c_phi1=1.0,
                                        phi1=lambda xi: np.abs(xi) ** 4 - xi ** 2)
        rep = verify_weighted_linear(mislabelled, 1.0, s=0.0, grid=g, base_seed=0)
        assert rep.verdict == "fail"
        assert rep.fitted_exponent < rep.theoretical_exponent - rep.tolerance
        assert rep.notes["constant_spread"] <= rep.notes["spread_tolerance"]
        pure = verify_weighted_linear(builtin_symbol("pure-power", p=4), 1.0, s=0.0, grid=g,
                                      base_seed=0)
        assert pure.verdict in ("pass", "pass-weak")

    def test_smooth_data_weighted_vanishes(self):
        # smooth data is not extremal: the weighted quantity decays to 0 as
        # t -> 0 instead of saturating
        from gkdv.norms import gamma_k, lebesgue_norm
        from gkdv.semigroup import Propagator, apply_semigroup
        from gkdv.spectral import fractional_derivative_shifted

        g = GridSpec(100.0, 512)
        sym = builtin_symbol("kdv-ks")
        prop = Propagator(sym, g)
        w0 = gaussian_field(g, amplitude=1.0, width=4.0)
        wexp = gamma_k(1.0) / 4.0
        ts = np.geomspace(1e-4, 1.0, 8)
        weighted = [
            t ** wexp
            * lebesgue_norm(fractional_derivative_shifted(apply_semigroup(prop, w0, t), 0.0), 4)
            for t in ts
        ]
        # bounded derivative: the weighted quantity tracks the weight itself
        assert weighted[0] <= 2.0 * (ts[0] / ts[-1]) ** wexp * weighted[-1]


class TestWeightedLinearStacks:
    """verify_weighted_linear norms its seeds in stacks of at most 16; the
    report must be the one-seed-at-a-time oracle's, bit for bit."""

    LENGTH = 50 * np.pi
    SYMBOLS = {"pure-power": lambda: builtin_symbol("pure-power", p=4),
               "kdv-ks": lambda: builtin_symbol("kdv-ks")}

    @pytest.mark.parametrize("n_points", [2 ** 12, 2 ** 15])
    @pytest.mark.parametrize("symbol", SYMBOLS)
    @pytest.mark.parametrize("s", [0.0, 0.5])
    @pytest.mark.parametrize("base_seed,n_seeds", [(0, 1), (7, 10), (0, 17)])
    def test_report_equals_the_per_seed_oracle(self, n_points, symbol, s, base_seed, n_seeds):
        args = (self.SYMBOLS[symbol](), 1.0)
        kwargs = dict(s=s, grid=GridSpec(self.LENGTH, n_points), base_seed=base_seed,
                      n_seeds=n_seeds)
        got = asdict(verify_weighted_linear(*args, **kwargs))
        want = asdict(per_seed_weighted_linear(*args, **kwargs))
        # json writes each float by its shortest round-trip repr: equal text is equal bits
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
        assert len(got["notes"]["per_seed_constants"]) == n_seeds

    @pytest.mark.parametrize("n_seeds,stacks", [(1, 1), (16, 1), (17, 2), (40, 3)])
    def test_one_multiplier_per_sample_time_per_stack(self, monkeypatch, n_seeds, stacks):
        calls = Counter()
        multiplier = Propagator.multiplier

        def counted(self, t):
            calls[t] += 1
            return multiplier(self, t)

        monkeypatch.setattr(Propagator, "multiplier", counted)
        verify_weighted_linear(builtin_symbol("pure-power", p=4), 1.0, s=0.0,
                               grid=GridSpec(self.LENGTH, 2 ** 10), base_seed=0, n_seeds=n_seeds)
        assert len(calls) == 20 and set(calls.values()) == {stacks}

    def test_peak_does_not_grow_past_one_stack(self):
        g = GridSpec(self.LENGTH, 2 ** 15)
        sym = builtin_symbol("pure-power", p=4)

        def peak(n_seeds):
            return peak_half_spectra(
                lambda: verify_weighted_linear(sym, 1.0, s=0.0, grid=g, base_seed=0,
                                               n_seeds=n_seeds), g)

        full_stack = peak(16)
        assert peak(17) <= full_stack
        assert peak(40) <= full_stack

    def test_no_seeds_is_a_value_error(self):
        with pytest.raises(ValueError, match="n_seeds"):
            verify_weighted_linear(builtin_symbol("kdv-ks"), 1.0, s=0.0,
                                   grid=GridSpec(self.LENGTH, 256), base_seed=0, n_seeds=0)


class TestNonlinearEstimate:
    def test_inadmissible_skipped(self, monkeypatch):
        def no_duhamel(*args, **kwargs):
            raise AssertionError("an inadmissible pair must not reach the Duhamel sweep")

        monkeypatch.setattr("gkdv.solver.duhamel_sweep", no_duhamel)
        g = GridSpec(100.0, 256)
        prob = IvpProblem(symbol=builtin_symbol("kdv-burgers"), grid=g, k=1.0,
                          mode="conservative", s=0.0, initial_data=zero_field(g))
        rep = verify_nonlinear_estimate(prob, seed=0)
        assert rep.verdict == "skipped"
        assert rep.notes["status"] == "inadmissible"
        assert rep.fitted_exponent is None
        assert rep.passed

    def test_default_t_values(self):
        g = GridSpec(100.0, 256)
        prob = IvpProblem(symbol=builtin_symbol("kdv-ks"), grid=g, k=1.0,
                          mode="conservative", s=0.0, initial_data=zero_field(g))
        rep = verify_nonlinear_estimate(prob, seed=0)
        assert rep.fit_window == (2.0 ** -10, 2.0 ** -5)
        assert len(rep.notes["lhs"]) == 6
        assert rep.fitted_exponent is not None

    def test_growth_bound(self):
        g = GridSpec(100 * np.pi, 2 ** 11)
        prob = IvpProblem(symbol=builtin_symbol("kdv-ks"), grid=g, k=1.0,
                          mode="conservative", s=0.0, initial_data=zero_field(g))
        rep = verify_nonlinear_estimate(prob, seed=0)
        assert rep.passed
        assert rep.fitted_exponent >= rep.theoretical_exponent - 0.1

    def test_growth_bound_gradient_mode(self):
        g = GridSpec(100 * np.pi, 2 ** 11)
        prob = IvpProblem(symbol=builtin_symbol("kdv-ks"), grid=g, k=1.0,
                          mode="gradient", s=0.5, initial_data=zero_field(g))
        rep = verify_nonlinear_estimate(prob, seed=1)
        assert rep.passed
        assert rep.fitted_exponent >= rep.theoretical_exponent - 0.1


class TestContractionScaling:
    def test_inadmissible_skipped(self):
        g = GridSpec(100.0, 256)
        prob = IvpProblem(symbol=builtin_symbol("kdv-burgers"), grid=g, k=1.0,
                          mode="conservative", s=0.0, initial_data=zero_field(g))
        rep = verify_contraction_scaling(prob, seed=0)
        assert rep.verdict == "skipped"
        assert rep.notes["status"] == "inadmissible"

    def test_every_pair_skipped_is_a_named_failure(self, monkeypatch):
        # zero probes make every pair difference vanish, so rho(T) = 0 at each T;
        # the power-law fit used to raise a bare ValueError on it
        monkeypatch.setattr("gkdv.verifier.rough_field", lambda grid, **kwargs: zero_field(grid))
        g = GridSpec(100.0, 256)
        prob = IvpProblem(symbol=builtin_symbol("kdv-ks"), grid=g, k=1.0,
                          mode="conservative", s=0.0, initial_data=zero_field(g))
        with pytest.raises(DoubleRangeError, match=r"rho\(T\) underflows to 0"):
            verify_contraction_scaling(prob, seed=0)

    @staticmethod
    def count_work(monkeypatch):
        """Count Propagator.multiplier and semigroup._panel_step calls from now on."""
        counts = Counter()
        multiplier, panel_step = Propagator.multiplier, semigroup._panel_step

        def counted_multiplier(self, t):
            counts["multiplier"] += 1
            return multiplier(self, t)

        def counted_panel_step(*args):
            counts["panel_step"] += 1
            return panel_step(*args)

        monkeypatch.setattr(Propagator, "multiplier", counted_multiplier)
        monkeypatch.setattr(semigroup, "_panel_step", counted_panel_step)
        return counts

    @staticmethod
    def small_problem():
        g = GridSpec(50 * np.pi, 256)
        return IvpProblem(symbol=builtin_symbol("kdv-ks"), grid=g, k=1.0,
                          mode="conservative", s=0.0, initial_data=zero_field(g))

    def test_work_shared_by_the_pairs(self, monkeypatch):
        # per T: one multiplier at each of the 8 sample times and at each of
        # the 40 forcing nodes, whatever the number of pairs, and one sweep of
        # 8 sample steps and 10 panel carries for the stacked pair forcings
        counts = self.count_work(monkeypatch)
        verify_contraction_scaling(self.small_problem(), seed=0, n_pairs=2)
        assert counts == Counter(multiplier=6 * (8 + 40), panel_step=6 * (8 + 10))

    def test_pair_of_identical_probes_is_skipped(self, monkeypatch):
        # seed 1 draws the probe of seed 0, so the first pair has v = w and a
        # zero denominator: rho(T) is that of the second pair alone, the pair
        # of seeds 2 and 3
        prob = self.small_problem()
        alone = verify_contraction_scaling(prob, seed=2, n_pairs=1)
        rough = verifier.rough_field
        monkeypatch.setattr(verifier, "rough_field", lambda grid, *, seed, **kwargs:
                            rough(grid, seed=0 if seed == 1 else seed, **kwargs))
        counts = self.count_work(monkeypatch)
        rep = verify_contraction_scaling(prob, seed=0, n_pairs=2)
        assert rep.notes["rhos"] == alone.notes["rhos"]
        assert counts["panel_step"] == 6 * (8 + 10)

    @pytest.mark.parametrize("name, n, mode, s, seed, n_pairs", [
        ("kdv-ks", 2 ** 12, "gradient", 0.5, 0, 2),
        ("kdv-ks", 2 ** 11, "conservative", 0.0, 7, 3),
        ("ostrovsky", 2 ** 11, "conservative", 0.0, 0, 3),
        ("dropped-pair", 256, "conservative", 0.0, 0, 3),
    ])
    def test_rhos_equal_the_per_pair_sweeps(self, monkeypatch, name, n, mode, s, seed, n_pairs):
        # the stacked pairs give each rho(T) the bits of one sweep per pair;
        # in "dropped-pair" seed 1 draws the probe of seed 0, so the first
        # pair has v = w and is dropped from every T
        if name == "dropped-pair":
            name, grid = "kdv-ks", GridSpec(50 * np.pi, n)
            rough = verifier.rough_field
            monkeypatch.setattr(verifier, "rough_field", lambda grid, *, seed, **kwargs:
                                rough(grid, seed=0 if seed == 1 else seed, **kwargs))
        else:
            grid = GridSpec(50 * np.pi, n)
        prob = IvpProblem(symbol=builtin_symbol(name), grid=grid, k=1.0, mode=mode, s=s,
                          initial_data=zero_field(grid))
        rhos = verify_contraction_scaling(prob, seed=seed, n_pairs=n_pairs).notes["rhos"]
        want = per_pair_contraction_rhos(prob, seed=seed, n_pairs=n_pairs)
        assert [float.hex(r) for r in rhos] == [float.hex(float(r)) for r in want]

    def test_mislabelled_order_fails_on_the_exponent(self):
        # negative control: labelled p = 4, but Phi = -xi^2 smooths like
        # order 2, so rho(T) grows with T faster than T^omega_k allows and the
        # fitted exponent crosses omega_k + tolerance; the pure power of the
        # labelled order passes on the same grid and seed
        g = GridSpec(50 * np.pi, 4096)
        mislabelled = DissipativeSymbol("mislabelled", p=4.0, q=3.9, c_phi1=1.0,
                                        phi1=lambda xi: np.abs(xi) ** 4 - xi ** 2)
        reports = {}
        for sym in (mislabelled, builtin_symbol("pure-power", p=4)):
            prob = IvpProblem(symbol=sym, grid=g, k=1.0, mode="conservative", s=0.0,
                              initial_data=zero_field(g))
            reports[sym.name] = verify_contraction_scaling(prob, seed=0)
        rep, pure = reports["mislabelled"], reports["pure-power-4"]
        assert rep.theoretical_exponent == pure.theoretical_exponent == pytest.approx(0.375)
        assert rep.verdict == "fail"
        assert rep.fitted_exponent > rep.theoretical_exponent + rep.tolerance
        assert pure.verdict == "pass"
        assert abs(pure.fitted_exponent - pure.theoretical_exponent) <= pure.tolerance

    def test_probe_exponent_values(self):
        assert contraction_probe_exponent(1.0) == pytest.approx(-0.25)
        assert contraction_probe_exponent(0.5) == pytest.approx(0.0)

    def test_smoke_small_grid(self):
        # small grid keeps this fast; scaling verdicts at desk scale are
        # exercised by the acceptance suite
        g = GridSpec(50 * np.pi, 2 ** 12)
        prob = IvpProblem(symbol=builtin_symbol("kdv-ks"), grid=g, k=1.0,
                          mode="conservative", s=0.0, initial_data=zero_field(g))
        rep = verify_contraction_scaling(prob, seed=0, n_pairs=1)
        assert rep.fitted_exponent is not None
        assert len(rep.notes["rhos"]) == 6
        assert all(r > 0 for r in rep.notes["rhos"])


class TestSmoothing:
    @staticmethod
    def shipped_problem():
        """configs/verify-pure-power.json (pure power p = 4, seed 7) on 4096 points."""
        data = json.loads((Path(__file__).parents[1] / "configs"
                           / "verify-pure-power.json").read_text())
        data["grid"]["n_points"] = 4096
        return RunConfig.from_dict(data, "verify").build_problem()

    def test_probe_below_the_smoothing_scale_fails_on_both_refinements(self):
        # negative control: the coarse grid smooths on the scale nyquist^-p =
        # 81.9^-4 = 2.2e-8.  At t_horizon 1e-8 the probe time 5e-9 lies below
        # it, so the coarse and fine grids disagree in H^(s+mu), free and
        # Duhamel part alike; at 1e-6 the probe lies far above it
        prob = self.shipped_problem()
        rep = verify_smoothing(prob, seed=7, t_horizon=1e-8)
        notes = rep.notes
        assert rep.verdict == "fail"
        assert notes["converged"] and notes["continuity_decreasing"]
        assert notes["free_refinement_ratio"] > rep.tolerance == 0.10
        assert notes["duhamel_refinement_ratio"] > rep.tolerance
        assert notes["free_refinement_ratio"] == pytest.approx(0.407, abs=1e-3)
        assert notes["duhamel_refinement_ratio"] == pytest.approx(3.44, abs=1e-2)
        assert rep.residual == notes["duhamel_refinement_ratio"]

        ok = verify_smoothing(prob, seed=7, t_horizon=1e-6)
        assert ok.verdict == "pass"
        assert ok.notes["converged"] and ok.notes["continuity_decreasing"]
        assert ok.notes["free_refinement_ratio"] == 0.0
        assert ok.notes["duhamel_refinement_ratio"] == pytest.approx(0.0081, abs=1e-4)
        assert ok.residual <= ok.tolerance


class TestHausdorffYoung:
    def test_parseval_case(self):
        g = GridSpec(50.0, 256)
        fields = [gaussian_field(g, amplitude=a, width=2.0 + a) for a in (0.5, 1.0, 2.0)]
        rep = verify_hausdorff_young(fields, 2.0)
        assert rep.verdict == "pass"
        assert rep.empirical_constant == pytest.approx(1.0, rel=1e-12)

    def test_single_mode_closed_form(self):
        from gkdv.spectral import SpectralField

        g = GridSpec(10.0, 64)
        spec = np.zeros(33, complex)
        spec[2] = 0.5
        f = SpectralField(g, spec)
        p1 = 4.0
        q1 = p1 / (p1 - 1.0)
        # f = cos(xi_2(x + L/2)): ||f||_4 = (3L/8)^(1/4), coefficients both L/2
        expected_num = (3.0 * g.length / 8.0) ** 0.25
        expected_den = (2.0 * (g.length / 2.0) ** q1 / g.length) ** (1.0 / q1)
        rep = verify_hausdorff_young([f], p1)
        assert rep.notes["ratios"][0] == pytest.approx(expected_num / expected_den, rel=1e-10)

    def test_exponent_domain(self):
        g = GridSpec(50.0, 256)
        with pytest.raises(ValueError):
            verify_hausdorff_young([gaussian_field(g)], 1.5)

    @pytest.mark.parametrize("p1", [2.0, 4.0])
    def test_doubled_norm_fails(self, monkeypatch, p1):
        # the discrete constant is at most 1; a lebesgue_norm that doubles
        # every norm gives 2.0 and 1.87 on these fields
        g = GridSpec(50.0, 256)
        fields = [gaussian_field(g, amplitude=1.0 + 0.1 * i, width=g.length / (20.0 + i))
                  for i in range(4)]
        assert verify_hausdorff_young(fields, p1).verdict == "pass"
        norm = verifier.lebesgue_norm
        monkeypatch.setattr(verifier, "lebesgue_norm", lambda f, q: 2.0 * norm(f, q))
        rep = verify_hausdorff_young(fields, p1)
        assert rep.empirical_constant > 1.0 + rep.tolerance
        assert rep.verdict == "fail"

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_constant_fails(self, monkeypatch, bad):
        g = GridSpec(50.0, 256)
        monkeypatch.setattr(verifier, "lebesgue_norm", lambda f, q: bad)
        assert verify_hausdorff_young([gaussian_field(g)], 4.0).verdict == "fail"


class TestThresholdConditions:
    def test_pure_power_trivial(self):
        rep = verify_threshold_conditions(builtin_symbol("pure-power", p=2))
        assert rep.verdict == "pass"
        assert rep.notes["violations"] == 0

    def test_kdv_ks_above_threshold(self):
        rep = verify_threshold_conditions(builtin_symbol("kdv-ks"))
        assert rep.verdict == "pass"

    def test_shrunk_threshold_fails_with_location(self, monkeypatch):
        sym = builtin_symbol("ostrovsky")
        m = threshold_M(sym, 64.0)
        monkeypatch.setattr("gkdv.verifier.threshold_M", lambda sym, xi_max: m / 2.0)
        rep = verify_threshold_conditions(sym)
        assert rep.verdict == "fail"
        assert rep.notes["violations"] > 0
        assert m / 2.0 <= rep.notes["first_violating_xi"] < m


class TestReporting:
    def test_json_round_trip(self):
        rep = EstimateReport(
            estimate_id="demo",
            theoretical_exponent=-0.5,
            fitted_exponent=-0.49,
            fit_window=(1e-4, 1e-2),
            residual=0.01,
            empirical_constant=2.0,
            tolerance=0.025,
            verdict="pass",
            notes={"x": 1},
        )
        payload = json.loads(json.dumps(asdict(rep)))
        assert payload["estimate_id"] == "demo"
        assert payload["fit_window"] == [1e-4, 1e-2]
        assert rep.passed

    def test_table_rendering(self):
        reps = [
            EstimateReport("a", -0.5, -0.51, (0.0, 1.0), 0.0, 1.0, 0.05, "pass"),
            EstimateReport("b", None, None, (0.0, 1.0), 0.0, 2.0, 0.0, "skipped"),
        ]
        table = render_report_table(reps)
        assert "a" in table and "skipped" in table
        assert len(table.splitlines()) == 4
