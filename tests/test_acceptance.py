"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.
Criterion 1 at its stated window tau in [1e-4, 1e-2] checks the
bracket-weighted multiplier supremum three ways: its fitted slope against
the exact slope of the continuum supremum over the same taus, that continuum
supremum against the -theta/p law deep in the asymptotic regime, and the
rescaled lattice profile tau^(theta/p) * sup against explicit two-sided
constants.  The window is pre-asymptotic for the bracket weight, so each line
also prints the offset of the fitted slope from -theta/p.
"""

import numpy as np
import pytest

from gkdv.norms import gamma_k, lebesgue_norm, omega_k, sobolev_norm
from gkdv.probes import gaussian_field
from gkdv.semigroup import Propagator, apply_semigroup, smoothing_norm_profile
from gkdv.solver import (
    IvpProblem,
    picard_iterate,
    reference_integrate,
    solve,
)
from gkdv.spectral import GridSpec, zero_field
from gkdv.symbols import builtin_symbol
from gkdv.errors import AdmissibilityError
from gkdv.verifier import (
    DEFAULT_LENGTH,
    DEFAULT_N_POINTS,
    fit_power_law,
    verify_contraction_scaling,
    verify_multiplier_decay,
    verify_smoothing,
    verify_threshold_conditions,
    verify_weighted_linear,
)

from conftest import bracket_sup, rel_l2


def report(criterion, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    return ok


class TestCriterion1MultiplierDecay:
    WINDOW = (1e-4, 1e-2)
    COMBOS = [(p, theta) for p in (2.0, 3.0, 4.0) for theta in (0.5, 1.0, 2.0)]

    def test_stated_window_bracket_weight(self):
        taus = np.geomspace(*self.WINDOW, 24)
        deep = np.geomspace(1e-12, 1e-10, 24)
        failures = []
        for p, theta in self.COMBOS:
            sym = builtin_symbol("pure-power", p=p)
            rep = verify_multiplier_decay(sym, theta, tau_window=self.WINDOW, rel_tol=0.05)
            law = rep.theoretical_exponent
            # (a) the fitted slope against the exact slope on the same taus
            window_exp, _, _ = fit_power_law(taus, bracket_sup(p, theta, taus))
            window_dev = abs(rep.fitted_exponent - window_exp) / abs(window_exp)
            # (b) the continuum reference obeys the -theta/p law asymptotically
            deep_exp, _, _ = fit_power_law(deep, bracket_sup(p, theta, deep))
            deep_dev = abs(deep_exp - law) / abs(law)
            # (c) xi^theta <= (1+xi)^theta <= 2^theta max(1, xi)^theta puts
            # tau^(theta/p) * sup in [c, 2^theta (1 + c)] for every tau <= 1
            grid = GridSpec(DEFAULT_LENGTH, rep.notes["n_points"])
            scaled = taus ** (theta / p) * np.array(
                smoothing_norm_profile(sym, theta, taus, grid)
            )
            c = (theta / (p * np.e)) ** (theta / p)
            upper = 2.0 ** theta * (1.0 + c)
            ok = (
                window_dev <= 1e-3
                and deep_dev <= 0.01
                and scaled.min() >= c
                and scaled.max() <= upper
            )
            rel_dev = abs(rep.fitted_exponent - law) / abs(law)
            line = (
                f"p={p:g} theta={theta:g} fitted={rep.fitted_exponent:+.4f} "
                f"window={window_exp:+.4f} (rel {window_dev:.1e} <= 1e-3) "
                f"target={law:+.4f} rel_dev={100 * rel_dev:.1f}% "
                f"asymptotic={deep_exp:+.4f} "
                f"scaled sup in [{scaled.min():.3f}, {scaled.max():.3f}] "
                f"within [{c:.3f}, {upper:.3f}]"
            )
            if not report("criterion 1 (multiplier decay, stated window)", ok, line):
                failures.append(line)
        assert not failures, (
            "at tau in [1e-4, 1e-2] the bracket-weighted sup must match the exact "
            "window slope of the continuum sup to 1e-3, that sup must reach -theta/p "
            "to 1% on tau in [1e-12, 1e-10], and tau^(theta/p) * sup must stay within "
            f"[(theta/(p e))^(theta/p), 2^theta (1 + (theta/(p e))^(theta/p))]: {failures}"
        )

    def test_machinery_exact_where_law_exact(self):
        # homogeneous weight |xi|^theta at the same window: the law is exact
        all_ok = True
        for p, theta in self.COMBOS:
            sym = builtin_symbol("pure-power", p=p)
            rep = verify_multiplier_decay(
                sym, theta, tau_window=self.WINDOW, weight="homogeneous", rel_tol=0.05
            )
            dev = abs(rep.fitted_exponent - rep.theoretical_exponent)
            all_ok &= dev <= 1e-3
        report("criterion 1 (machinery check, homogeneous weight)", all_ok,
               "all nine pairs exact to 1e-3")
        assert all_ok

    def test_bracket_weight_asymptotic_window(self):
        # with the window adapted to (p, theta) the bracket weight passes 5%
        all_ok = True
        for p, theta in self.COMBOS:
            sym = builtin_symbol("pure-power", p=p)
            rep = verify_multiplier_decay(sym, theta, rel_tol=0.05)
            all_ok &= rep.verdict == "pass"
        report("criterion 1 (bracket weight, adaptive window)", all_ok, "all nine pairs within 5%")
        assert all_ok


class TestCriterion2WeightedLinear:
    @pytest.mark.parametrize("k,p", [(1.0, 3.0), (1.0, 4.0), (2.0, 5.0)])
    def test_decay_and_constants(self, k, p):
        sym = builtin_symbol("pure-power", p=p)
        rep = verify_weighted_linear(sym, k, s=0.0, grid=GridSpec(DEFAULT_LENGTH, DEFAULT_N_POINTS),
                                     n_seeds=10, base_seed=0)
        bound = -gamma_k(k) / p - 0.05
        ok = rep.fitted_exponent >= bound and rep.notes["constant_spread"] <= 0.2
        report(
            "criterion 2 (weighted linear estimate)",
            ok,
            f"(k={k:g}, p={p:g}) fitted={rep.fitted_exponent:+.4f} >= {bound:+.4f}, "
            f"constant spread {100 * rep.notes['constant_spread']:.1f}% <= 20%",
        )
        assert ok


class TestCriterion3ContractionScaling:
    def test_kdv_ks_scaling(self):
        grid = GridSpec(50 * np.pi, 2 ** 15)
        prob = IvpProblem(symbol=builtin_symbol("kdv-ks"), grid=grid, k=1.0,
                          mode="conservative", s=0.0, initial_data=zero_field(grid))
        rep = verify_contraction_scaling(prob, n_pairs=2, seed=0)
        w = rep.theoretical_exponent
        rel = abs(rep.fitted_exponent - w) / w
        ok = rep.verdict == "pass"
        report("criterion 3 (contraction scaling, kdv-ks)", ok,
               f"fitted={rep.fitted_exponent:+.4f} omega={w:+.4f} rel_dev={100 * rel:.1f}% <= 15%")
        assert ok

    def test_ostrovsky_scaling(self):
        grid = GridSpec(50 * np.pi, 2 ** 16)
        prob = IvpProblem(symbol=builtin_symbol("ostrovsky"), grid=grid, k=1.0,
                          mode="conservative", s=0.0, initial_data=zero_field(grid))
        rep = verify_contraction_scaling(prob, n_pairs=2, seed=0)
        w = rep.theoretical_exponent
        rel = abs(rep.fitted_exponent - w) / w
        ok = rep.verdict == "pass"
        report("criterion 3 (contraction scaling, ostrovsky)", ok,
               f"fitted={rep.fitted_exponent:+.4f} omega={w:+.4f} rel_dev={100 * rel:.1f}% <= 15%")
        assert ok

    @pytest.mark.parametrize("name", ["kdv-ks", "ostrovsky"])
    def test_selected_radius_ratios(self, name):
        grid = GridSpec(100.0, 512)
        data = gaussian_field(grid, amplitude=0.02, width=4.0)
        prob = IvpProblem(symbol=builtin_symbol(name), grid=grid, k=1.0,
                          mode="conservative", s=0.0, initial_data=data)
        sol, trace = solve(prob, tol=1e-12)
        ratios = [r.contraction_ratio for r in trace.iterates if r.contraction_ratio is not None]
        ok = trace.converged and len(ratios) >= 1 and max(ratios) <= 0.55
        report("criterion 3 (per-iteration ratios at selected radius)", ok,
               f"{name}: converged={trace.converged}, max ratio "
               f"{max(ratios) if ratios else float('nan'):.3g} <= 0.55")
        assert ok


class TestCriterion4CrossValidation:
    @pytest.mark.parametrize("name", ["kdv-ks", "ostrovsky"])
    def test_k1_solver_path(self, name):
        grid = GridSpec(100.0, 512)
        data = gaussian_field(grid, amplitude=0.02, width=4.0)
        prob = IvpProblem(symbol=builtin_symbol(name), grid=grid, k=1.0,
                          mode="conservative", s=0.0, initial_data=data)
        sol, trace = solve(prob, tol=1e-12)
        ref = reference_integrate(prob, trace.t_final, n_steps=1024)
        rel = rel_l2(sol(trace.t_final).phys, ref.final.phys)
        ok = trace.converged and rel <= 1e-6
        report("criterion 4 (cross-validation, k=1)", ok,
               f"{name}: rel L2 at T={trace.t_final:.3g} is {rel:.2e} <= 1e-6")
        assert ok

    @pytest.mark.parametrize("name", ["kdv-ks", "ostrovsky"])
    def test_k2_fixed_horizon(self, name):
        grid = GridSpec(100.0, 512)
        data = gaussian_field(grid, amplitude=0.4, width=4.0)
        prob = IvpProblem(symbol=builtin_symbol(name), grid=grid, k=2.0,
                          mode="conservative", s=0.0, initial_data=data)
        r = 8.0 * sobolev_norm(data, 0.0)
        t_final = 0.01
        sol, trace = picard_iterate(prob, r, t_final, max_iter=40, tol=1e-11, panels=16)
        ref = reference_integrate(prob, t_final, n_steps=1024)
        rel = rel_l2(sol(t_final).phys, ref.final.phys)
        ok = trace.converged and rel <= 1e-6
        report("criterion 4 (cross-validation, k=2)", ok,
               f"{name}: rel L2 at T={t_final} is {rel:.2e} <= 1e-6")
        assert ok


class TestCriterion5SemigroupExactness:
    def test_group_law(self):
        grid = GridSpec(100.0, 1024)
        worst = 0.0
        for name in ("kdv-ks", "ostrovsky", "kdv-burgers"):
            prop = Propagator(builtin_symbol(name), grid)
            w = gaussian_field(grid, amplitude=1.0, width=3.0)
            for s_, t_ in ((0.1, 0.2), (0.05, 0.6), (0.33, 0.47)):
                a = apply_semigroup(prop, apply_semigroup(prop, w, s_), t_)
                b = apply_semigroup(prop, w, s_ + t_)
                num = np.sqrt(np.sum(np.abs(a.spec - b.spec) ** 2))
                den = np.sqrt(np.sum(np.abs(w.spec) ** 2))
                worst = max(worst, num / den)
        ok = worst <= 1e-12
        report("criterion 5 (group law)", ok, f"worst relative defect {worst:.2e} <= 1e-12")
        assert ok

    def test_l2_monotone_for_nonpositive_symbols(self):
        grid = GridSpec(100.0, 1024)
        ok = True
        for sym in (builtin_symbol("pure-power", p=2), builtin_symbol("pure-power", p=3),
                    builtin_symbol("pure-power", p=4), builtin_symbol("kdv-burgers")):
            prop = Propagator(sym, grid)
            w = gaussian_field(grid, amplitude=1.0, width=3.0)
            norms = [lebesgue_norm(apply_semigroup(prop, w, t), 2)
                     for t in np.linspace(0.0, 1.0, 11)]
            ok &= bool(np.all(np.diff(norms) <= 1e-12))
        report("criterion 5 (L2 non-increase for nonpositive symbols)", ok, "all sampled t")
        assert ok


class TestCriterion6StructureConstants:
    def test_closed_forms(self):
        checks = [
            (gamma_k(1.0), 5.0 / 4.0),
            (gamma_k(2.0), 4.0 / 3.0),
            (omega_k(1.0, 4.0), 3.0 / 8.0),
            (omega_k(1.0, 3.0), 1.0 / 6.0),
        ]
        ok = all(got == want for got, want in checks)
        report("criterion 6 (structure constants)", ok,
               "gamma(1)=5/4, gamma(2)=4/3, omega(k=1,p=4)=3/8, omega(k=1,p=3)=1/6 exact")
        assert ok


class TestCriterion7Smoothing:
    def test_duhamel_smoothing_and_continuity(self):
        grid = GridSpec(100 * np.pi, 1024)
        prob = IvpProblem(symbol=builtin_symbol("kdv-ks"), grid=grid, k=1.0,
                          mode="conservative", s=-0.5, initial_data=zero_field(grid))
        rep = verify_smoothing(prob, s=-0.5, seed=7, t_horizon=0.08)
        ok = rep.verdict == "pass"
        report(
            "criterion 7 (smoothing)",
            ok,
            f"mu={rep.notes['mu']}, duhamel refinement ratio "
            f"{100 * rep.notes['duhamel_refinement_ratio']:.2f}% <= 10%, continuity "
            f"decreasing={rep.notes['continuity_decreasing']}",
        )
        assert ok
        assert rep.notes["mu"] == pytest.approx(1.75)


class TestCriterion8ConservationDegeneration:
    def test_small_eta_l2_drift(self):
        sym = builtin_symbol("kdv-ks", eta=1e-8)
        grid = GridSpec(100.0, 1024)
        data = gaussian_field(grid, amplitude=0.3, width=4.0)
        prob = IvpProblem(symbol=sym, grid=grid, k=1.0, mode="conservative", s=0.0,
                          initial_data=data)
        run = reference_integrate(prob, 0.1, n_steps=2048)
        drift = float(np.max(np.abs(run.l2_norms - run.l2_norms[0])) / run.l2_norms[0])
        ok = drift <= 1e-6
        report("criterion 8 (conservation degeneration)", ok,
               f"relative L2 drift {drift:.2e} <= 1e-6 at eta=1e-8")
        assert ok


class TestCriterion9AdmissibilityGating:
    def test_contraction_path_refuses(self):
        grid = GridSpec(100.0, 512)
        data = gaussian_field(grid, amplitude=0.05, width=4.0)
        prob = IvpProblem(symbol=builtin_symbol("kdv-burgers"), grid=grid, k=1.0,
                          mode="conservative", s=0.0, initial_data=data)
        with pytest.raises(AdmissibilityError):
            solve(prob)
        report("criterion 9 (gating)", True, "p=2, k=1 rejected by the contraction path")

    def test_linear_suite_still_passes(self):
        sym = builtin_symbol("kdv-burgers")
        decay = verify_multiplier_decay(sym, 1.0)
        linear = verify_weighted_linear(sym, 1.0, s=0.0,
                                        grid=GridSpec(DEFAULT_LENGTH, DEFAULT_N_POINTS),
                                        n_seeds=4, base_seed=0)
        threshold = verify_threshold_conditions(sym)
        ok = decay.verdict == "pass" and linear.passed and threshold.verdict == "pass"
        report("criterion 9 (linear checks for the gated pair)", ok,
               f"decay={decay.verdict}, weighted-linear={linear.verdict}, "
               f"threshold={threshold.verdict}")
        assert ok
