"""Dissipative symbol family Phi(xi) = -|xi|^p + Phi1(xi).

A symbol is admissible when the perturbation obeys |Phi1(xi)| <= C*(1+|xi|^q)
with 0 <= q < p.  Above a finite threshold frequency M three conditions hold
simultaneously: Phi < -1, |Phi1|/|xi|^p <= 1/2 and |Phi| >= |xi|^p / 2.  The
constants M and C_M (an upper bound for Phi below M) are found here by a
scan-plus-bisection search on a finite frequency range.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import HypothesisViolationError, MultiplierEvaluationError

log = logging.getLogger(__name__)

# Width at which threshold_M stops bisecting the last violation boundary.
_THRESHOLD_TOL = 1e-9


@dataclass(frozen=True)
class DissipativeSymbol:
    """Parametric description of Phi(xi) = -|xi|^p + Phi1(xi).

    phi1 is a vectorized callable (None means identically zero); c_phi1 and q
    are the claimed growth metadata for the perturbation, validated separately
    by validate_decomposition.  eta > 0 is the dissipation coefficient.
    """

    name: str
    p: float
    q: float = 0.0
    c_phi1: float = 0.0
    eta: float = 1.0
    phi1: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if not self.p > 0:
            raise ValueError(f"leading order p must be positive, got {self.p}")
        if not 0 <= self.q < self.p:
            raise ValueError(f"perturbation order must satisfy 0 <= q < p, got q={self.q}")
        if self.c_phi1 < 0:
            raise ValueError("perturbation constant must be nonnegative")
        if not self.eta > 0:
            raise ValueError(f"dissipation coefficient must be positive, got {self.eta}")


@dataclass(frozen=True)
class SymbolConstants:
    """Threshold frequency M, upper bound C_M below it, and the global sup of Phi."""

    threshold_m: float
    c_m: float
    sup_phi: float


def evaluate_phi(sym: DissipativeSymbol, xi):
    """Evaluate Phi(xi) = -|xi|^p + Phi1(xi); accepts scalars or arrays."""
    arr = np.asarray(xi, dtype=float)
    with np.errstate(over="ignore"):  # -inf is the limit for a large p
        out = -np.abs(arr) ** sym.p
    if sym.phi1 is not None:
        pert = np.asarray(sym.phi1(arr), dtype=float)
        if not np.all(np.isfinite(pert)):
            bad = np.asarray(~np.isfinite(pert)).nonzero()[0]
            where = arr.flat[bad[0]] if arr.ndim else float(arr)
            raise MultiplierEvaluationError(f"Phi1 is not finite at xi={where:.6g}")
        out = out + pert
    if np.ndim(xi) == 0:
        return float(out)
    return out


_BUILTINS = {
    # KdV with -eta*v_xx damping: Phi(xi) = -xi^2.
    "kdv-burgers": dict(p=2.0, q=0.0, c_phi1=0.0, phi1=None),
    # Hilbert-transform damping -eta*(H d_x + H d_x^3): Phi(xi) = |xi| - |xi|^3.
    "ostrovsky": dict(p=3.0, q=1.0, c_phi1=1.0, phi1=lambda xi: np.abs(xi)),
    # Kuramoto-Sivashinsky damping eta*(d_x^2 + d_x^4): Phi(xi) = xi^2 - xi^4.
    "kdv-ks": dict(p=4.0, q=2.0, c_phi1=1.0, phi1=lambda xi: xi ** 2),
}


def builtin_symbol(name: str, p: float | None = None, eta: float = 1.0) -> DissipativeSymbol:
    """Look up a built-in symbol; "pure-power" additionally needs p, and a p
    given for any other builtin must equal its fixed order."""
    if name == "pure-power":
        if p is None or not p > 0:
            raise ValueError("pure-power symbol requires an explicit order p > 0")
        return DissipativeSymbol(name=f"pure-power-{p:g}", p=float(p), eta=eta)
    try:
        params = _BUILTINS[name]
    except KeyError:
        available = ", ".join(sorted(_BUILTINS) + ["pure-power"])
        raise KeyError(f"unknown symbol '{name}'; available: {available}") from None
    if p is not None and float(p) != params["p"]:
        raise ValueError(f"symbol {name!r} has the fixed order p = {params['p']:g}, got p = {p}")
    return DissipativeSymbol(name=name, eta=eta, **params)


def tabulated_symbol(name: str, p: float, xi_table, phi1_table, **params) -> DissipativeSymbol:
    """Custom symbol with Phi1 given by linear interpolation of a (|xi|, Phi1) table.

    params (q, c_phi1, eta) go to DissipativeSymbol, whose defaults apply to
    any left out.
    """
    xs = np.asarray(xi_table, dtype=float)
    ys = np.asarray(phi1_table, dtype=float)
    if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 2:
        raise ValueError("tabulated symbol needs matching 1-d tables with >= 2 rows")
    if np.any(np.diff(xs) <= 0):
        raise ValueError("tabulated frequencies must be strictly increasing")

    def phi1(xi):
        return np.interp(np.abs(xi), xs, ys)

    return DissipativeSymbol(name=name, p=p, phi1=phi1, **params)


def validate_decomposition(sym: DissipativeSymbol, xi_max: float) -> bool:
    """Check |Phi1(xi)| <= c_phi1*(1+|xi|^q) on 2048 evenly spaced points of [0, xi_max]."""
    if not xi_max > 0:
        raise ValueError("xi_max must be positive")
    xs = np.linspace(0.0, xi_max, 2048)
    if sym.phi1 is None:
        return True
    pert = np.abs(np.asarray(sym.phi1(xs), dtype=float))
    bound = sym.c_phi1 * (1.0 + xs ** sym.q)
    bad = pert > bound
    if np.any(bad):
        k = int(np.argmax(bad))
        log.warning(
            "decomposition bound fails for symbol %s at xi=%.6g: |Phi1|=%.6g > %.6g",
            sym.name,
            xs[k],
            pert[k],
            bound[k],
        )
        return False
    return True


def _conditions_hold(sym: DissipativeSymbol, xi) -> np.ndarray:
    """The three high-frequency conditions, evaluated pointwise for xi > 0."""
    xs = np.asarray(xi, dtype=float)
    phi = np.atleast_1d(np.asarray(evaluate_phi(sym, xs), dtype=float))
    xs = np.atleast_1d(xs)
    with np.errstate(over="ignore"):
        lead = xs ** sym.p
    pert = np.zeros_like(xs) if sym.phi1 is None else np.asarray(sym.phi1(xs), dtype=float)
    ok = (phi < -1.0) & (np.abs(pert) <= 0.5 * lead) & (np.abs(phi) >= 0.5 * lead)
    return ok


def threshold_M(sym: DissipativeSymbol, xi_max: float) -> float:
    """Smallest sampled M with all three conditions holding on [M, xi_max].

    Scans a dense lattice, then bisects the last violation boundary down to
    a width of 1e-9.  Raises when the conditions fail even near xi_max.
    """
    if not xi_max > 0:
        raise ValueError("xi_max must be positive")
    if not _conditions_hold(sym, np.asarray([xi_max]))[0]:
        raise HypothesisViolationError(
            f"symbol {sym.name} fails its high-frequency conditions at xi={xi_max:g}; "
            "enlarge the scan range or reject the symbol"
        )
    n_scan = 4096
    xs = np.linspace(xi_max / n_scan, xi_max, n_scan)
    ok = _conditions_hold(sym, xs)
    if ok.all():
        return float(xs[0])
    last_bad = int(np.nonzero(~ok)[0][-1])
    if last_bad == n_scan - 1:  # unreachable given the xi_max pre-check
        raise HypothesisViolationError(f"symbol {sym.name} inadmissible up to xi_max")
    lo, hi = xs[last_bad], xs[last_bad + 1]
    while hi - lo > _THRESHOLD_TOL:
        mid = 0.5 * (lo + hi)
        if _conditions_hold(sym, np.asarray([mid]))[0]:
            hi = mid
        else:
            lo = mid
    return float(hi)


def _golden_max(fun, lo: float, hi: float) -> float:
    """Golden-section maximizer of a scalar function on [lo, hi], at most 80 steps."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(80):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(d)
        if b - a < 1e-14 * max(1.0, abs(b)):
            break
    return max(fc, fd)


def upper_bound_CM(sym: DissipativeSymbol, m: float) -> float:
    """Supremum of Phi over |xi| <= m by dense sampling plus local refinement."""
    if not m > 0:
        raise ValueError("m must be positive")
    xs = np.linspace(0.0, m, 4097)
    vals = np.asarray(evaluate_phi(sym, xs), dtype=float)
    i = int(np.argmax(vals))
    best = float(vals[i])
    lo = xs[max(i - 1, 0)]
    hi = xs[min(i + 1, xs.size - 1)]
    if hi > lo:
        best = max(best, _golden_max(lambda t: float(evaluate_phi(sym, t)), lo, hi))
    return best


def symbol_constants(sym: DissipativeSymbol, xi_max: float) -> SymbolConstants:
    """Compute (M, C_M, sup Phi) on the finite range [0, xi_max]."""
    m = threshold_M(sym, xi_max)
    return SymbolConstants(
        threshold_m=m,
        c_m=upper_bound_CM(sym, m),
        sup_phi=upper_bound_CM(sym, xi_max),
    )
