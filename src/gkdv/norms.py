"""Lebesgue, Sobolev and time-weighted trajectory norms.

The Sobolev bracket is 1 + |xi| throughout.  Trajectory norms replace the
continuum sup over (0, T] by a max over a finite sample-time grid (a lower
bound of the true norm); sample grids should include geometrically spaced
small times, which WeightedNormConfig.default provides.  A trajectory is
passed as its fields at those sample times, in order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BlowUpError
from .spectral import SpectralField, fractional_derivative_shifted, spatial_derivative


def integer_power(values: np.ndarray, n: int) -> np.ndarray:
    """values**n for an integer n >= 1 by squarings and products, without libm pow."""
    out = np.array(values, dtype=float)
    for bit in bin(n)[3:]:
        np.square(out, out=out)
        if bit == "1":
            np.multiply(out, values, out=out)
    return out


def lebesgue_norm(f: SpectralField, q: float) -> float:
    """Discrete L^q norm (rectangle rule); q = inf gives the max norm."""
    if q == np.inf:
        return float(np.max(np.abs(f.phys)))
    if q < 1:
        raise ValueError(f"Lebesgue exponent must satisfy q >= 1, got {q}")
    mag = np.abs(f.phys)
    powered = integer_power(mag, int(q)) if float(q).is_integer() else mag ** q
    return float((np.sum(powered) * f.grid.h) ** (1.0 / q))


def spectral_lq_norm(f: SpectralField, q: float) -> float:
    """L^q norm of the continuum-scale transform, measure dxi/(2*pi).

    The coefficient of mode k at continuum scale is length * spec[k]; the
    measure dxi/(2*pi) = 1/length per mode, with each stored mode counted
    as often as it occurs in the full spectrum, makes this norm match the
    physical L^2 norm exactly at q = 2 (Parseval).
    """
    coeffs = f.grid.length * np.abs(f.spec)
    if q == np.inf:
        return float(np.max(coeffs))
    if q < 1:
        raise ValueError(f"Lebesgue exponent must satisfy q >= 1, got {q}")
    return float((np.sum(f.grid.mode_weights * coeffs ** q) / f.grid.length) ** (1.0 / q))


def sobolev_norm(f: SpectralField, s: float) -> float:
    """H^s norm: L^2 norm of (1+|xi|)^s-weighted coefficients."""
    w = 1.0 if s == 0 else (1.0 + f.grid.xi) ** s
    return float(np.sqrt(f.grid.length * np.sum(f.grid.mode_weights * (w * np.abs(f.spec)) ** 2)))


def gamma_k(k: float) -> float:
    """Time-weight exponent numerator (3k+2)/(2(k+1)); lies in (1, 3/2) for k > 0."""
    if k <= 0:
        raise ValueError(f"nonlinearity degree must be positive, got {k}")
    return (3.0 * k + 2.0) / (2.0 * (k + 1.0))


def omega_k(k: float, p: float) -> float:
    """Contraction exponent (2p - 3k - 2)/(2p); positive iff p > (3/2)k + 1.

    Negative values are returned as-is and gated by callers.
    """
    return (2.0 * p - 3.0 * k - 2.0) / (2.0 * p)


@dataclass(frozen=True)
class WeightedNormConfig:
    """Parameters of the time-weighted spaces on (0, t_final]."""

    s: float
    k: float
    p: float
    t_final: float
    sample_times: tuple

    def __post_init__(self):
        if self.k <= 0 or self.p <= 0:
            raise ValueError("k and p must be positive")
        if not 0 < self.t_final <= 1:
            raise ValueError(f"t_final must lie in (0, 1], got {self.t_final}")
        ts = np.asarray(self.sample_times, dtype=float)
        if ts.size == 0 or np.any(ts <= 0) or np.any(np.diff(ts) < 0):
            raise ValueError("sample_times must be nonempty, positive and sorted")
        if ts[-1] > self.t_final * (1 + 1e-12):
            raise ValueError("sample_times must not exceed t_final")

    @property
    def weight_exponent(self) -> float:
        return gamma_k(self.k) / self.p

    @classmethod
    def default(cls, s, k, p, t_final, n_times: int = 20):
        """n_times sample times geometrically spaced over [1e-4*t_final, t_final]."""
        times = tuple(np.geomspace(1e-4 * t_final, t_final, n_times))
        return cls(s=s, k=k, p=p, t_final=t_final, sample_times=times)


@dataclass
class NormReport:
    """Per-time norm components and their discrete sup."""

    space: str
    h_s: float
    components: list = field(default_factory=list)  # (time, name, value) rows
    total: float = 0.0


def _weighted_report(fields, cfg: WeightedNormConfig, weighted_parts, space: str,
                     wexp: float | None = None) -> NormReport:
    """Shared driver: sup over sample times of H^s plus weighted component sum.

    fields holds the trajectory at cfg.sample_times, one field per time in
    order; a count that differs raises ValueError.  Each weighted part at
    time t carries the factor t^wexp, by default cfg.weight_exponent; a norm
    function listed under two names is evaluated once per time.
    """
    if wexp is None:
        wexp = cfg.weight_exponent
    rows = []
    sup_total = 0.0
    sup_hs = 0.0
    for t, f in zip(cfg.sample_times, fields, strict=True):
        hs = sobolev_norm(f, cfg.s)
        weighted = 0.0
        part_rows = []
        norms = {fn: fn(f) for fn in dict.fromkeys(fn for _, fn in weighted_parts)}
        for name, norm_fn in weighted_parts:
            value = t ** wexp * norms[norm_fn]
            part_rows.append((t, name, value))
            weighted += value
        if not np.isfinite(hs) or not np.isfinite(weighted):
            raise BlowUpError(f"non-finite norm at sample time t={t:g}")
        rows.append((t, "hs", hs))
        rows.extend(part_rows)
        sup_hs = max(sup_hs, hs)
        sup_total = max(sup_total, hs + weighted)
    return NormReport(space=space, h_s=sup_hs, components=rows, total=sup_total)


def _derivative_parts(cfg: WeightedNormConfig, q: float) -> list:
    """w_dx_lq and w_dxs_lq; at s = 0 they agree bit for bit and share one function."""
    dx = lambda f: lebesgue_norm(spatial_derivative(f), q)
    dxs = dx if cfg.s == 0 else lambda f: lebesgue_norm(fractional_derivative_shifted(f, cfg.s), q)
    return [("w_dx_lq", dx), ("w_dxs_lq", dxs)]


def x_norm(fields, cfg: WeightedNormConfig) -> NormReport:
    """Space norm for the conservative-form problem.

    fields is an iterable of SpectralField, the trajectory at
    cfg.sample_times in order; it is read once, and a count other than
    len(cfg.sample_times) raises ValueError.  Per sample t:
    ||f(t)||_{H^s} + t^(gamma_k/p) * ( ||f||_{L^q} + ||d_x f||_{L^q}
    + ||D^s d_x f||_{L^q} ),  q = 2(k+1); the report's total is the max of
    the sum over sample times.
    """
    q = 2.0 * (cfg.k + 1.0)
    parts = [("w_lq", lambda f: lebesgue_norm(f, q))] + _derivative_parts(cfg, q)
    return _weighted_report(fields, cfg, parts, space="x")


def y_norm(fields, cfg: WeightedNormConfig) -> NormReport:
    """Space norm for the gradient-form problem (two weighted components).

    fields is read as in x_norm.
    """
    q = 2.0 * (cfg.k + 1.0)
    return _weighted_report(fields, cfg, _derivative_parts(cfg, q), space="y")


def z_norm(fields, cfg: WeightedNormConfig) -> float:
    """Auxiliary smoothing norm: sup of H^s plus t^(gamma_k/p)*||f||_{L^(2k+1)}.

    fields is read as in x_norm.  The odd exponent 2k+1 is intentional and
    differs from the 2(k+1) used by x_norm/y_norm.
    """
    q = 2.0 * cfg.k + 1.0
    parts = [("w_lq", lambda f: lebesgue_norm(f, q))]
    return _weighted_report(fields, cfg, parts, space="z").total


def z_tilde_norm(fields, cfg: WeightedNormConfig) -> float:
    """Auxiliary norm: sup of H^s plus t^((1+|s|)/p)*||d_x f||_{L^2}.

    fields is read as in x_norm.
    """
    parts = [("w_dx_l2", lambda f: lebesgue_norm(spatial_derivative(f), 2))]
    return _weighted_report(fields, cfg, parts, space="z_tilde",
                            wexp=(1.0 + abs(cfg.s)) / cfg.p).total
