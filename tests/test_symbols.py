import numpy as np
import pytest

from gkdv.errors import HypothesisViolationError, MultiplierEvaluationError
from gkdv.symbols import (
    DissipativeSymbol,
    builtin_symbol,
    evaluate_phi,
    symbol_constants,
    tabulated_symbol,
    threshold_M,
    upper_bound_CM,
    validate_decomposition,
)


class TestBuiltins:
    def test_kdv_burgers(self):
        sym = builtin_symbol("kdv-burgers")
        assert sym.p == 2
        assert evaluate_phi(sym, 1.0) == pytest.approx(-1.0)
        assert sym.phi1 is None

    def test_ostrovsky_from_hilbert_transform(self):
        # eta*(H d_x + H d_x^3) acts per mode as eta*(|xi| - |xi|^3), so
        # Phi(xi) = |xi| - |xi|^3 reproduces the equation's sign convention.
        sym = builtin_symbol("ostrovsky")
        for xi in (0.3, 1.0, 2.7):
            sgn = np.sign(xi)
            h_dx = -1j * sgn * (1j * xi)          # per-mode symbol of H d_x
            h_dx3 = -1j * sgn * (1j * xi) ** 3    # per-mode symbol of H d_x^3
            assert np.imag(h_dx) == pytest.approx(0.0)
            assert evaluate_phi(sym, xi) == pytest.approx(np.real(h_dx + h_dx3))
        assert evaluate_phi(sym, 1.0) == pytest.approx(0.0)
        assert (sym.p, sym.q, sym.c_phi1) == (3.0, 1.0, 1.0)

    def test_kdv_ks(self):
        sym = builtin_symbol("kdv-ks")
        assert evaluate_phi(sym, 1.0) == pytest.approx(0.0)
        assert evaluate_phi(sym, 2.0) == pytest.approx(4.0 - 16.0)
        # maximum of xi^2 - xi^4 sits at xi^2 = 1/2
        assert upper_bound_CM(sym, 2.0) == pytest.approx(0.25, abs=1e-10)

    def test_pure_power_needs_p(self):
        with pytest.raises(ValueError):
            builtin_symbol("pure-power")
        sym = builtin_symbol("pure-power", p=2.5)
        assert evaluate_phi(sym, 2.0) == pytest.approx(-(2.0 ** 2.5))

    def test_fixed_order_builtin_rejects_other_p(self):
        # a sweep or config p used to be dropped silently for these symbols
        for name, order in (("kdv-burgers", 2.0), ("ostrovsky", 3.0), ("kdv-ks", 4.0)):
            assert builtin_symbol(name, p=order).p == order
            with pytest.raises(ValueError, match="fixed order"):
                builtin_symbol(name, p=order + 2.0)

    def test_unknown_name_lists_available(self):
        with pytest.raises(KeyError, match="ostrovsky"):
            builtin_symbol("no-such-symbol")

    def test_evenness(self):
        for name in ("kdv-burgers", "ostrovsky", "kdv-ks"):
            sym = builtin_symbol(name)
            xs = np.linspace(0.1, 9.0, 40)
            assert np.allclose(evaluate_phi(sym, xs), evaluate_phi(sym, -xs))

    def test_pure_power_at_zero(self):
        assert evaluate_phi(builtin_symbol("pure-power", p=2), 0.0) == 0.0


class TestValidation:
    def test_pure_power_always_valid(self):
        assert validate_decomposition(builtin_symbol("pure-power", p=3), 50.0)

    def test_ostrovsky_valid(self):
        assert validate_decomposition(builtin_symbol("ostrovsky"), 100.0)

    def test_wrong_metadata_detected(self):
        # claiming the kdv-ks perturbation grows like (1+|xi|) must fail
        bad = DissipativeSymbol(name="bad", p=4.0, q=1.0, c_phi1=1.0, phi1=lambda xi: xi ** 2)
        assert not validate_decomposition(bad, 50.0)

    def test_monotone_in_constant(self):
        base = dict(name="m", p=4.0, q=2.0, phi1=lambda xi: xi ** 2)
        assert validate_decomposition(DissipativeSymbol(c_phi1=1.0, **base), 40.0)
        assert validate_decomposition(DissipativeSymbol(c_phi1=2.5, **base), 40.0)

    def test_non_finite_phi1(self):
        bad = DissipativeSymbol(name="nan", p=2.0, q=1.0, c_phi1=1.0,
                                phi1=lambda xi: np.where(np.abs(xi) > 1, np.nan, 0.0))
        with pytest.raises(MultiplierEvaluationError):
            evaluate_phi(bad, np.array([0.5, 2.0]))

    def test_metadata_constraints(self):
        with pytest.raises(ValueError):
            DissipativeSymbol(name="x", p=2.0, q=2.0)  # q must be < p
        with pytest.raises(ValueError):
            DissipativeSymbol(name="x", p=2.0, eta=0.0)


class TestThreshold:
    def test_pure_power_threshold_is_one(self):
        m = threshold_M(builtin_symbol("pure-power", p=2), 64.0, tol=1e-10)
        assert m == pytest.approx(1.0, abs=1e-8)

    def test_kdv_ks_threshold(self):
        # |Phi1|/|xi|^4 <= 1/2 needs xi^2 >= 2, the binding condition
        m = threshold_M(builtin_symbol("kdv-ks"), 64.0, tol=1e-10)
        assert m >= np.sqrt(2) - 1e-8
        assert m == pytest.approx(np.sqrt(2), abs=1e-6)

    def test_ostrovsky_threshold_reevaluates(self):
        sym = builtin_symbol("ostrovsky")
        m = threshold_M(sym, 64.0, tol=1e-10)
        assert m ** 3 - m > 1.0 - 1e-9  # Phi < -1 holds at the threshold

    def test_inadmissible_range_raises(self):
        # a perturbation breaking |Phi1| <= |xi|^p/2 everywhere on the range
        bad = tabulated_symbol("bad", p=2.0, q=1.9, c_phi1=100.0, eta=1.0,
                               xi_table=[0.0, 100.0], phi1_table=[0.0, 0.9 * 100.0 ** 2])
        with pytest.raises(HypothesisViolationError):
            threshold_M(bad, 10.0)

    def test_decay_above_threshold(self):
        for name in ("kdv-burgers", "ostrovsky", "kdv-ks"):
            sym = builtin_symbol(name)
            m = threshold_M(sym, 64.0)
            xs = np.linspace(m, 64.0, 500)
            phi = evaluate_phi(sym, xs)
            for t in (0.1, 0.5, 1.0):
                assert np.all(np.exp(t * phi) <= np.exp(-t) + 1e-15)


class TestUpperBound:
    def test_pure_power_sup_is_zero(self):
        assert upper_bound_CM(builtin_symbol("pure-power", p=3), 5.0) == pytest.approx(0.0, abs=1e-12)

    def test_ostrovsky_value(self):
        # maximize |xi| - |xi|^3 at |xi| = 1/sqrt(3)
        got = upper_bound_CM(builtin_symbol("ostrovsky"), 1.0)
        assert got == pytest.approx(2.0 / (3.0 * np.sqrt(3.0)), abs=1e-10)

    def test_exp_phi_bounded_by_cm(self):
        sym = builtin_symbol("kdv-ks")
        consts = symbol_constants(sym, 64.0)
        xs = np.linspace(0.0, 64.0, 3000)
        phi = evaluate_phi(sym, xs)
        for t in (0.1, 0.5, 1.0):
            assert np.max(np.exp(t * phi)) <= np.exp(t * consts.sup_phi) * (1 + 1e-12)
        assert consts.c_m >= np.max(phi[xs <= consts.threshold_m]) - 1e-12


class TestTabulated:
    def test_interpolation_even(self):
        sym = tabulated_symbol("custom", p=3.0, q=1.0, c_phi1=2.0, eta=1.0,
                               xi_table=[0.0, 1.0, 2.0], phi1_table=[0.0, 1.5, 2.0])
        assert evaluate_phi(sym, 0.5) == pytest.approx(-(0.5 ** 3) + 0.75)
        assert evaluate_phi(sym, -0.5) == evaluate_phi(sym, 0.5)

    def test_table_validation(self):
        with pytest.raises(ValueError):
            tabulated_symbol("c", p=2.0, q=0.0, c_phi1=0.0, eta=1.0,
                             xi_table=[1.0, 0.5], phi1_table=[0.0, 0.0])
