"""The half-spectrum field representation against full complex-FFT oracles.

Fields hold only the rfft half spectrum and form samples on demand.  These
tests check the representation and the fused nonlinearity against direct
computations on all n modes, and count the transforms each operation makes.
"""

from collections import Counter

import numpy as np
import pytest

from gkdv.semigroup import Propagator, apply_semigroup
from gkdv.solver import nonlinearity_eval
from gkdv.spectral import GridSpec, coherent_field, fractional_derivative_shifted
from gkdv.symbols import builtin_symbol, evaluate_phi

from conftest import full_spectrum_nonlinearity, spatial_derivative

SIZES = [64, 128, 256, 512, 1024]


def real_field(n, seed, length=40.0, scale=1.0):
    rng = np.random.default_rng(seed)
    grid = GridSpec(length, n)
    return grid, scale * rng.standard_normal(n)


def full_xi(grid):
    return 2.0 * np.pi * np.fft.fftfreq(grid.n_points, d=grid.h)


def rel_max(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


@pytest.mark.parametrize("mode", ["conservative", "gradient"])
@pytest.mark.parametrize("k", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("n", SIZES)
def test_nonlinearity_matches_full_spectrum_oracle(n, k, mode):
    # gradient mode differentiates before the power; keep amplitudes order one
    grid, values = real_field(n, seed=n + int(10 * k), scale=1.0 if mode == "conservative" else 0.1)
    out = nonlinearity_eval(coherent_field(grid, values), k, mode)
    ref_spec, ref_phys = full_spectrum_nonlinearity(grid, values, k, mode)
    assert rel_max(out.spec, ref_spec[: n // 2 + 1]) <= 1e-12
    assert rel_max(out.phys, ref_phys) <= 1e-12


@pytest.mark.parametrize("mode", ["conservative", "gradient"])
@pytest.mark.parametrize("k", [1.0, 1.5, 2.0])
@pytest.mark.parametrize(
    "grid", [GridSpec(40.0, 256, dealias_fraction=1.0), GridSpec(2 * np.pi, 4)],
    ids=["cut-half-n", "cut-1"],
)
def test_nonlinearity_at_extreme_cutoffs(grid, k, mode):
    # cut = n/2 keeps every mode below Nyquist; cut = 1 keeps the mean only,
    # whose derivative is zero, so both sides must be exactly zero there
    values = np.random.default_rng(7).standard_normal(grid.n_points)
    values *= 1.0 if mode == "conservative" else 0.1
    out = nonlinearity_eval(coherent_field(grid, values), k, mode)
    ref_spec, ref_phys = full_spectrum_nonlinearity(grid, values, k, mode)
    n = grid.n_points
    assert out.spec[n // 2] == 0
    assert np.max(np.abs(out.spec - ref_spec[: n // 2 + 1])) <= 1e-12 * np.max(np.abs(ref_spec))
    assert np.max(np.abs(out.phys - ref_phys)) <= 1e-12 * np.max(np.abs(ref_phys))


@pytest.mark.parametrize("n", SIZES)
def test_spec_is_the_nonnegative_half_of_the_fft(n):
    grid, values = real_field(n, seed=n)
    f = coherent_field(grid, values)
    assert f.spec.shape == (n // 2 + 1,)
    assert rel_max(f.spec, np.fft.fft(values)[: n // 2 + 1] / n) <= 1e-14
    assert np.array_equal(f.phys, values)


@pytest.mark.parametrize("n", [64, 1024])
def test_spatial_derivative_matches_full_fft(n):
    grid, values = real_field(n, seed=3)
    xi = full_xi(grid)
    xi[n // 2] = 0.0
    direct = 1j * xi * np.fft.fft(values) / n
    f = coherent_field(grid, values)
    out = fractional_derivative_shifted(f, 0.0)
    assert np.array_equal(out.spec, spatial_derivative(f).spec)
    assert rel_max(out.spec, direct[: n // 2 + 1]) <= 1e-12
    assert rel_max(out.phys, np.fft.ifft(direct).real * n) <= 1e-12


@pytest.mark.parametrize("name", ["kdv-ks", "ostrovsky"])
@pytest.mark.parametrize("t", [0.0, 1e-6, 1e-3, 0.2])
def test_apply_semigroup_matches_full_fft(name, t):
    grid, values = real_field(256, seed=5, length=2 * np.pi * 4)
    sym = builtin_symbol(name)
    xi = full_xi(grid)
    xi_disp = xi.copy()
    xi_disp[grid.n_points // 2] = 0.0
    z = 1j * xi_disp ** 3 + sym.eta * evaluate_phi(sym, xi)
    direct = np.exp(t * z) * np.fft.fft(values) / grid.n_points
    out = apply_semigroup(Propagator(sym, grid), coherent_field(grid, values), t)
    assert rel_max(out.spec, direct[: grid.n_points // 2 + 1]) <= 1e-12
    assert rel_max(out.phys, np.fft.ifft(direct).real * grid.n_points) <= 1e-12


@pytest.mark.parametrize("mode", ["conservative", "gradient"])
@pytest.mark.parametrize("k", [1.0, 1.5, 2.0])
def test_nonlinearity_makes_one_real_transform_pair(fft_calls, k, mode):
    grid, values = real_field(512, seed=1, scale=0.1)
    f = coherent_field(grid, values)
    fft_calls.clear()
    nonlinearity_eval(f, k, mode)
    assert fft_calls == Counter(irfft=1, rfft=1)


@pytest.mark.parametrize("op", ["spatial_derivative", "apply_semigroup"])
def test_spectral_operations_transform_only_when_samples_are_read(fft_calls, op):
    grid, values = real_field(512, seed=2)
    f = coherent_field(grid, values)
    apply = {
        "spatial_derivative": lambda g: fractional_derivative_shifted(g, 0.0),
        "apply_semigroup": lambda g: apply_semigroup(
            Propagator(builtin_symbol("kdv-ks"), grid), g, 0.1
        ),
    }[op]
    fft_calls.clear()
    out = apply(f)
    assert sum(fft_calls.values()) == 0
    samples = out.phys
    assert out.phys is samples
    assert fft_calls == Counter(irfft=1)
