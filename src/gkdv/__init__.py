"""Pseudo-spectral laboratory for generalized KdV equations with dissipative perturbations."""

__version__ = "0.1.0"

from .spectral import (
    GridSpec,
    SpectralField,
    coherent_field,
    fractional_derivative_shifted,
)
from .symbols import (
    DissipativeSymbol,
    SymbolConstants,
    builtin_symbol,
    evaluate_phi,
    symbol_constants,
    tabulated_symbol,
    threshold_M,
    upper_bound_CM,
    validate_decomposition,
)
from .semigroup import Propagator, apply_semigroup, duhamel_sweep, smoothing_norm_profile
from .norms import (
    NormReport,
    WeightedNormConfig,
    gamma_k,
    lebesgue_norm,
    omega_k,
    sobolev_norm,
    x_norm,
    y_norm,
    z_norm,
    z_tilde_norm,
)
from .probes import gaussian_field, rough_field
from .solver import (
    IvpProblem,
    PicardTrace,
    calibrate_c,
    nonlinearity_eval,
    picard_iterate,
    reference_integrate,
    select_radius_and_time,
    solve,
)
from .verifier import (
    EstimateReport,
    fit_power_law,
    verify_contraction_scaling,
    verify_hausdorff_young,
    verify_multiplier_decay,
    verify_nonlinear_estimate,
    verify_smoothing,
    verify_threshold_conditions,
    verify_weighted_linear,
)

__all__ = [name for name in dir() if not name.startswith("_")]
