from collections import Counter
from dataclasses import asdict

import numpy as np
import pytest

from gkdv.errors import (
    AdmissibilityError,
    BlowUpError,
    DivergenceError,
    StabilityError,
    StructuralError,
)
from gkdv.norms import WeightedNormConfig, sobolev_norm, x_norm
from gkdv.probes import gaussian_field, rough_field
from gkdv.semigroup import Propagator, apply_semigroup, duhamel_sweep
from gkdv.solver import (
    MODES,
    IvpProblem,
    calibrate_c,
    duhamel_norm,
    nonlinearity_difference,
    nonlinearity_eval,
    picard_iterate,
    reference_integrate,
    select_radius_and_time,
    signed_power,
    solve,
)
from gkdv.spectral import (
    GridSpec,
    SpectralField,
    coherent_field,
    fractional_derivative_shifted,
    zero_field,
)
from gkdv.verifier import verify_weighted_linear

from conftest import band_limit, rel_l2


def make_problem(name="kdv-ks", grid=None, k=1.0, mode="conservative", s=0.0,
                 amplitude=0.05, width=4.0, eta=1.0):
    grid = grid or GridSpec(100.0, 512)
    data = gaussian_field(grid, amplitude=amplitude, width=width)
    sym = builtin(name, eta)
    return IvpProblem(symbol=sym, grid=grid, k=k, mode=mode, s=s, initial_data=data)


def builtin(name, eta=1.0):
    from gkdv.symbols import builtin_symbol

    if name == "pure-power-4":
        return builtin_symbol("pure-power", p=4.0, eta=eta)
    return builtin_symbol(name, eta=eta)


class TestSignedPower:
    def test_integer_exponent(self):
        v = np.array([-2.0, -0.5, 0.0, 1.5])
        assert np.array_equal(signed_power(v, 1.0), v ** 2)
        assert np.array_equal(signed_power(v, 2.0), v ** 3)

    def test_fractional_sign_preserving(self):
        v = np.array([-4.0, 4.0])
        out = signed_power(v, 0.5)
        assert out[1] == pytest.approx(8.0)
        assert out[0] == pytest.approx(-8.0)

    def test_fractional_on_nonnegative(self):
        v = np.linspace(0.0, 2.0, 11)
        assert np.allclose(signed_power(v, 0.5), v ** 1.5)

    @pytest.mark.parametrize("kp1", [2, 3, 4, 5, 6])
    def test_integer_powers_match_np_power(self, kp1):
        v = np.random.default_rng(kp1).standard_normal(4096)
        ref = np.power(v, kp1)
        assert np.max(np.abs(signed_power(v, kp1 - 1.0) - ref) / np.abs(ref)) <= 1e-14

    def test_near_integer_takes_integer_branch(self):
        # exact cubes; |v|^(2 + 1e-13) * v would miss them by ~1e-13 relative
        v = np.array([-2.0, -0.5, -3.0, 1.5])
        out = signed_power(v, 2.0 + 1e-13)
        assert np.array_equal(out, np.array([-8.0, -0.125, -27.0, 3.375]))

    def test_nonpositive_degree_rejected(self):
        with pytest.raises(ValueError):
            signed_power(np.ones(4), 0.0)
        with pytest.raises(ValueError):
            signed_power(np.ones(4), -3.0)

    def test_overflow_and_nan_raise_blow_up(self):
        g = GridSpec(100.0, 256)
        u = gaussian_field(g, amplitude=1.0, width=6.0).phys
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(BlowUpError):
                nonlinearity_eval(coherent_field(g, 1e110 * u), 2.0, "conservative")
            u[17] = np.nan
            with pytest.raises(BlowUpError):
                nonlinearity_eval(coherent_field(g, u), 2.0, "conservative")


class TestNonlinearity:
    def test_zero(self):
        g = GridSpec(100.0, 256)
        out = nonlinearity_eval(zero_field(g), 1.0, "conservative")
        assert np.all(out.phys == 0)

    def test_quadratic_trig_identity(self):
        # d_x(sin^2 x) = sin(2x)
        g = GridSpec(2 * np.pi * 4, 256)
        f = coherent_field(g, np.sin(g.x))
        out = nonlinearity_eval(f, 1.0, "conservative")
        assert np.max(np.abs(out.phys - np.sin(2 * g.x))) <= 1e-10

    def test_gradient_mode_pointwise(self):
        g = GridSpec(100.0, 512)
        u = gaussian_field(g, amplitude=1.0, width=6.0)
        out = nonlinearity_eval(u, 0.5, "gradient")
        du = fractional_derivative_shifted(band_limit(u), 0.0).phys
        manual = band_limit(coherent_field(g, signed_power(du, 0.5))).phys
        assert np.max(np.abs(out.phys - manual)) <= 1e-12

    def test_mode_validation(self):
        g = GridSpec(100.0, 256)
        with pytest.raises(ValueError):
            nonlinearity_eval(zero_field(g), 1.0, "weird")
        with pytest.raises(ValueError):
            nonlinearity_eval(zero_field(g), -1.0, "conservative")


class TestNonlinearityDifference:
    """N(v) - N(w) in difference form against two nonlinearity_eval calls."""

    @staticmethod
    def pair(grid):
        # a rough and a smooth part, so both the band and the power carry content
        v = SpectralField(grid, 0.3 * rough_field(grid, seed=5).spec
                          + gaussian_field(grid, amplitude=0.8, width=6.0).spec)
        w = SpectralField(grid, 0.3 * rough_field(grid, seed=6).spec
                          + gaussian_field(grid, amplitude=0.7, width=5.0, center=3.0).spec)
        return v, w

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("k", [1.0, 1.5, 2.0])
    def test_matches_two_evaluations(self, k, mode):
        # rfft is linear: only roundoff separates the forms, a few ulp of the
        # largest coefficient of N(v) and N(w)
        grid = GridSpec(100.0, 512)
        v, w = self.pair(grid)
        nv, nw = nonlinearity_eval(v, k, mode), nonlinearity_eval(w, k, mode)
        new = nonlinearity_difference(v, w, k, mode)
        scale = max(np.max(np.abs(nv.spec)), np.max(np.abs(nw.spec)))
        assert np.max(np.abs(new.spec - (nv - nw).spec)) <= 4 * np.finfo(float).eps * scale
        assert not new.spec[grid.dealias_cutoff:].any()

    def test_one_pair_forcing_is_two_inverse_and_one_forward_transform(self, fft_calls):
        v, w = self.pair(GridSpec(100.0, 512))
        fft_calls.clear()
        nonlinearity_difference(v, w, 1.0, "conservative")
        assert fft_calls == Counter(irfft=2, rfft=1)

    def test_overflowed_member_raises_blow_up(self):
        grid = GridSpec(100.0, 256)
        v, w = self.pair(grid)
        huge = SpectralField(grid, 1e110 * v.spec)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(BlowUpError):  # inf - finite
                nonlinearity_difference(huge, w, 2.0, "conservative")
            with pytest.raises(BlowUpError):  # inf - inf is nan
                nonlinearity_difference(huge, huge, 2.0, "gradient")

    def test_different_grids_and_mode_rejected(self):
        v, _ = self.pair(GridSpec(100.0, 256))
        other, _ = self.pair(GridSpec(100.0, 512))
        with pytest.raises(StructuralError):
            nonlinearity_difference(v, other, 1.0, "conservative")
        with pytest.raises(ValueError):
            nonlinearity_difference(v, v, 1.0, "weird")


class TestSelection:
    def test_zero_data(self):
        prob = make_problem(amplitude=0.0)
        assert select_radius_and_time(prob, 1.0) == (0.0, 1.0)

    def test_formula_values(self):
        # c = 1, ||v0||_{H^s} = 1, k = 1, p = 4: r = 4, T = (1/16)^(8/3)
        grid = GridSpec(100.0, 512)
        data = gaussian_field(grid, amplitude=1.0, width=4.0)
        scale = sobolev_norm(data, 0.0)
        data = gaussian_field(grid, amplitude=1.0 / scale, width=4.0)
        prob = IvpProblem(symbol=builtin("pure-power-4"), grid=grid, k=1.0,
                          mode="conservative", s=0.0, initial_data=data)
        r, t_final = select_radius_and_time(prob, 1.0)
        assert r == pytest.approx(4.0, rel=1e-12)
        assert t_final == pytest.approx((1.0 / 16.0) ** (8.0 / 3.0), rel=1e-12)
        assert t_final == pytest.approx(6.1e-4, rel=0.02)

    def test_doubling_data(self):
        prob1 = make_problem(name="pure-power-4", amplitude=0.05)
        prob2 = make_problem(name="pure-power-4", amplitude=0.10)
        r1, t1 = select_radius_and_time(prob1, 1.0)
        r2, t2 = select_radius_and_time(prob2, 1.0)
        k, p = 1.0, 4.0
        w = (2 * p - 3 * k - 2) / (2 * p)
        assert r2 == pytest.approx(2 * r1, rel=1e-12)
        assert t2 == pytest.approx(t1 * 2.0 ** (-k / w), rel=1e-10)

    def test_inadmissible_pair_rejected(self):
        prob = make_problem(name="kdv-burgers")  # p = 2, k = 1
        with pytest.raises(AdmissibilityError):
            select_radius_and_time(prob, 1.0)
        with pytest.raises(AdmissibilityError):
            solve(prob)


class TestDuhamelNorm:
    @pytest.mark.parametrize("mode", ["conservative", "gradient"])
    def test_members_get_the_norm_of_their_own_sweep(self, mode):
        # each member's norm, streamed time by time, is the float the space
        # norm gives for the trajectory of that member's own sweep
        prob = make_problem(mode=mode, s=0.0 if mode == "conservative" else 0.5)
        prop = Propagator(prob.symbol, prob.grid)
        probes = [gaussian_field(prob.grid, amplitude=a, width=w, center=c)
                  for a, w, c in ((0.3, 4.0, 0.0), (0.2, 2.0, 5.0))]
        forcings = [lambda tau, g=g: nonlinearity_eval(apply_semigroup(prop, g, tau), 1.0, mode)
                    for g in probes]
        cfg = WeightedNormConfig.default(prob.s, 1.0, prob.symbol.p, 0.5, n_times=6)
        stacked = duhamel_norm(prob, prop, lambda tau: [f(tau) for f in forcings], cfg, 8)
        alone = [prob.space_norm((SpectralField(prob.grid, spec) for spec in
                                  duhamel_sweep(prop, f, cfg.sample_times, 0.5, 8)), cfg)
                 for f in forcings]
        assert stacked == alone and len(set(alone)) == 2


class TestCalibration:
    def test_zero_probe_is_an_error(self):
        prob = make_problem()
        with pytest.raises(ValueError):
            calibrate_c(prob, zero_field(prob.grid), 16)

    def test_deterministic(self):
        prob = make_problem()
        c1 = calibrate_c(prob, prob.initial_data, 16)
        c2 = calibrate_c(prob, prob.initial_data, 16)
        assert c1 == c2


class TestPicard:
    def test_zero_data_converges_immediately(self):
        prob = make_problem(amplitude=0.0)
        sol, trace = picard_iterate(prob, 0.0, 1.0, tol=1e-12)
        assert trace.converged
        assert len(trace.iterates) == 1
        assert np.all(sol(0.7).phys == 0)

    def test_contraction_at_selected_radius(self):
        prob = make_problem(name="kdv-ks", amplitude=0.02)
        sol, trace = solve(prob, tol=1e-12)
        assert trace.converged
        ratios = [r.contraction_ratio for r in trace.iterates if r.contraction_ratio is not None]
        assert ratios, "expected at least one contraction ratio"
        assert max(ratios) <= 0.55
        increments = [r.increment_norm for r in trace.iterates]
        assert np.all(np.diff(increments) <= 1e-15)

    def test_cross_validation_with_reference(self):
        prob = make_problem(name="kdv-ks", amplitude=0.4)
        r = 8.0 * sobolev_norm(prob.initial_data, 0.0)
        t_final = 0.01
        sol, trace = picard_iterate(prob, r, t_final, tol=1e-11)
        assert trace.converged
        ref = reference_integrate(prob, t_final, n_steps=512)
        assert rel_l2(sol(t_final).phys, ref.final.phys) <= 1e-6

    def test_divergence_detected(self):
        prob = make_problem(amplitude=0.4)
        with pytest.raises(DivergenceError):
            picard_iterate(prob, 1e-3, 0.01, tol=1e-12)

    def test_fixed_point_residual(self):
        prob = make_problem(name="kdv-ks", amplitude=0.3)
        tol = 1e-10
        r = 8.0 * sobolev_norm(prob.initial_data, 0.0)
        sol, trace = picard_iterate(prob, r, 0.01, tol=tol)
        assert trace.converged
        cfg = WeightedNormConfig.default(0.0, 1.0, 4.0, 0.01)
        prop = Propagator(prob.symbol, prob.grid)

        def residual_at(t):
            free = apply_semigroup(prop, prob.initial_data, t)
            return SpectralField(prob.grid, free.spec + sol.duhamel_part(t).spec - sol(t).spec)

        residual = x_norm((residual_at(t) for t in cfg.sample_times), cfg)
        assert residual <= 2 * tol

    def test_off_grid_call_matches_batch_sweep(self):
        prob = make_problem(name="kdv-ks", amplitude=0.3)
        r = 8.0 * sobolev_norm(prob.initial_data, 0.0)
        t_final = 0.01
        sol, trace = picard_iterate(prob, r, t_final, tol=1e-10)
        assert trace.converged
        t_off = 0.37 * t_final
        assert t_off not in sol._stored
        prop = Propagator(prob.symbol, prob.grid)
        # the stored iterate at the sweep nodes gives the nodal forcing
        forcing = lambda tau: nonlinearity_eval(sol(tau), prob.k, prob.mode)
        times = [0.1 * t_final, t_off, t_final]
        batch = dict(zip(times, duhamel_sweep(prop, forcing, times, t_final, panels=16)))
        expected = prop.multiplier(t_off) * prob.initial_data.spec - batch[t_off]
        assert np.array_equal(sol(t_off).spec, expected)
        assert np.array_equal(sol.duhamel_part(t_off).spec, -batch[t_off])

    def test_first_iterate_obeys_linear_bound(self):
        g = GridSpec(200 * np.pi, 2 ** 11)
        sym = builtin("kdv-ks")
        rep = verify_weighted_linear(sym, 1.0, grid=g, n_seeds=4, base_seed=0)
        w0 = rough_field(g, sobolev_index=0.0, seed=99)
        prop = Propagator(sym, g)
        cfg = WeightedNormConfig.default(0.0, 1.0, 4.0, 1.0, n_times=10)
        free = [apply_semigroup(prop, w0, t) for t in cfg.sample_times]
        ratio = x_norm(free, cfg) / sobolev_norm(w0, 0.0)
        assert ratio <= 1.25 * rep.empirical_constant


class TestReferenceIntegrator:
    def test_zero_data(self):
        prob = make_problem(amplitude=0.0)
        run = reference_integrate(prob, 0.1, n_steps=16)
        assert np.all(run.final.phys == 0)
        assert np.all(run.l2_norms == 0)

    def test_exact_on_linear_part(self, monkeypatch):
        # j steps of the same dt to j*dt, so every run shares the ETDRK4
        # coefficients; a zero nonlinearity leaves the linear part alone
        prob = make_problem(name="kdv-ks", amplitude=0.4)
        monkeypatch.setattr("gkdv.solver.nonlinearity_eval",
                            lambda f, k, mode: zero_field(f.grid))
        dt = 0.08 / 16
        prop = Propagator(prob.symbol, prob.grid)
        for j in range(1, 17):
            t = j * dt
            run = reference_integrate(prob, t, n_steps=j)
            exact = apply_semigroup(prop, prob.initial_data, t)
            assert rel_l2(run.final.phys, exact.phys) <= 1e-12

    def test_self_convergence_order(self):
        # amplitude and horizon chosen so the nonlinear truncation error
        # dominates roundoff across the step range
        prob = make_problem(name="kdv-ks", amplitude=2.0, width=3.0)
        t_final = 0.5
        runs = {n: reference_integrate(prob, t_final, n_steps=n).final for n in (8, 16, 256)}
        e1 = rel_l2(runs[8].phys, runs[256].phys)
        e2 = rel_l2(runs[16].phys, runs[256].phys)
        order = np.log2(e1 / e2)
        assert order >= 3.5

    def test_l2_monotone_for_nonpositive_symbol(self):
        prob = make_problem(name="pure-power-4", amplitude=0.3)
        run = reference_integrate(prob, 0.1, n_steps=256)
        rel_increase = np.diff(run.l2_norms) / run.l2_norms[:-1]
        assert np.max(rel_increase) <= 1e-10

    def test_stability_guard(self):
        prob = make_problem(name="kdv-ks", amplitude=50.0, width=2.0)
        with pytest.raises(StabilityError):
            reference_integrate(prob, 1.0, n_steps=2)


class TestSolve:
    def test_zero_data(self):
        prob = make_problem(amplitude=0.0)
        sol, trace = solve(prob)
        assert trace.converged
        assert trace.t_final == 1.0
        assert trace.r == 0.0
        assert np.all(sol(1.0).phys == 0)

    def test_gaussian_ostrovsky_continuity(self):
        prob = make_problem(name="ostrovsky", amplitude=0.02)
        sol, trace = solve(prob, tol=1e-12)
        assert trace.converged
        t_final = trace.t_final
        for m in (8, 16):
            ts = np.linspace(0.0, t_final, m + 1)
            norms = [sobolev_norm(sol(t), 0.0) for t in ts]
            jumps = np.abs(np.diff(norms))
            if m == 8:
                coarse_jump = np.max(jumps)
            else:
                assert np.max(jumps) <= 0.7 * coarse_jump + 1e-15

    def test_grid_refinement_agreement(self):
        coarse = GridSpec(100.0, 256)
        fine = GridSpec(100.0, 512)
        t_final = 0.01
        sols = {}
        for g in (coarse, fine):
            data = gaussian_field(g, amplitude=0.4, width=4.0)
            prob = IvpProblem(symbol=builtin("kdv-ks"), grid=g, k=1.0,
                              mode="conservative", s=0.0, initial_data=data)
            r = 8.0 * sobolev_norm(data, 0.0)
            sol, trace = picard_iterate(prob, r, t_final, tol=1e-11)
            assert trace.converged
            sols[g.n_points] = sol(t_final).phys
        assert rel_l2(sols[256], sols[512][::2]) <= 1e-6

    def test_data_to_solution_first_order_smoothness(self):
        # directional difference quotients of the data-to-solution map
        # stabilize linearly as the step shrinks
        g = GridSpec(100.0, 256)
        base = gaussian_field(g, amplitude=0.3, width=4.0)
        direction = gaussian_field(g, amplitude=1.0, width=6.0, center=5.0)
        t_final = 0.01
        r = 20.0

        def solution_at(data):
            prob = IvpProblem(symbol=builtin("kdv-ks"), grid=g, k=1.0,
                              mode="conservative", s=0.0, initial_data=data)
            sol, trace = picard_iterate(prob, r, t_final, tol=1e-12)
            assert trace.converged
            return sol(t_final).phys

        base_sol = solution_at(base)

        def quotient(eps):
            bumped = coherent_field(g, base.phys + eps * direction.phys)
            return (solution_at(bumped) - base_sol) / eps

        q1, q2, q4 = quotient(1e-2), quotient(5e-3), quotient(2.5e-3)
        e1 = np.max(np.abs(q1 - q4))
        e2 = np.max(np.abs(q2 - q4))
        assert e2 < e1  # quotients stabilize
        assert e1 / e2 == pytest.approx(3.0, abs=1.0)  # first-order rate

    def test_trace_serialization(self):
        prob = make_problem(name="kdv-ks", amplitude=0.02)
        _, trace = solve(prob, tol=1e-12)
        payload = asdict(trace)
        assert payload["converged"] is True
        assert payload["r"] == trace.r
        assert len(payload["iterates"]) == len(trace.iterates)
        assert {"index", "space_norm", "increment_norm", "contraction_ratio"} <= set(
            payload["iterates"][0]
        )


class TestProblemValidation:
    def test_mode_and_k(self):
        g = GridSpec(100.0, 256)
        data = gaussian_field(g, amplitude=0.1)
        with pytest.raises(ValueError):
            IvpProblem(symbol=builtin("kdv-ks"), grid=g, k=1.0, mode="bogus", s=0.0,
                       initial_data=data)
        with pytest.raises(ValueError):
            IvpProblem(symbol=builtin("kdv-ks"), grid=g, k=0.0, mode="gradient", s=0.5,
                       initial_data=data)

    def test_regularity_warnings(self):
        g = GridSpec(100.0, 256)
        data = gaussian_field(g, amplitude=0.1)
        with pytest.warns(UserWarning):
            IvpProblem(symbol=builtin("kdv-ks"), grid=g, k=1.0, mode="conservative",
                       s=-1.5, initial_data=data)
        with pytest.warns(UserWarning):
            IvpProblem(symbol=builtin("kdv-ks"), grid=g, k=1.0, mode="gradient",
                       s=0.0, initial_data=data)
