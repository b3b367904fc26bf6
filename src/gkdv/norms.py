"""Lebesgue, Sobolev and time-weighted trajectory norms.

An L^q norm is the rectangle rule on the samples of a field.  For an even
integer q, |f|^q = f^q is a trigonometric polynomial of degree q*K when K is
the highest stored mode with a nonzero coefficient, and the m-point rectangle
rule integrates it exactly once m > q*K.  lebesgue_norm therefore sums on the
smallest power of two m <= n with q*K < m, formed from the first m/2 + 1
coefficients: the same number as the n-point sum up to roundoff, at a
fraction of its cost on band-limited fields such as the dissipative free flow
V(t)w past Propagator.live_modes(t).  Odd or non-integer q, q = inf and any
field with q*K >= n/2 use the n samples of f.phys.

Every norm reads a field's coefficients below its band only (see
spectral.SpectralField): the search for K starts there, and the Sobolev norm
forms its terms there and sums them with the zeros past it, so a band-limited
field such as the free flow pays for its live modes and gets the same bits.

The Sobolev bracket is 1 + |xi| throughout.  Trajectory norms replace the
continuum sup over (0, T] by a max over a finite sample-time grid (a lower
bound of the true norm); sample grids should include geometrically spaced
small times, which WeightedNormConfig.default provides.  A trajectory is
passed as its fields at those sample times, in order, and each trajectory
norm returns that max as one float: sup_t ||f(t)||_{H^s} + t^w * (sum of
its weighted components).

Every norm also takes a stack of P members (see spectral.SpectralField) and
returns an array of P values, each with the bits of its member normed alone:
a field is a stack of one, and both run the same code.  A stack shares one
multiplier per derivative and one inverse transform per group of members
with the same exact sample count m; each member is then powered and summed
on its own m points, never on a wider grid, and np.sum runs over each row
alone, so every member keeps the pairwise order of its own sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BlowUpError
from .spectral import SpectralField, fractional_derivative_shifted


def integer_power(values: np.ndarray, n: int) -> np.ndarray:
    """values**n for an integer n >= 1 by squarings and products, without libm pow."""
    out = np.array(values, dtype=float)
    for bit in bin(n)[3:]:
        np.square(out, out=out)
        if bit == "1":
            np.multiply(out, values, out=out)
    return out


def _rows(f: SpectralField) -> np.ndarray:
    """The spectra of f's members, one per row: a field is a stack of one."""
    return f.spec.reshape(-1, f.spec.shape[-1])


def _per_member(values: np.ndarray, f: SpectralField):
    """values, one per member of f, as a float for a field and an array for a stack."""
    return float(values[0]) if f.spec.ndim == 1 else values


def _exact_sample_count(f: SpectralField, q: float) -> list[int]:
    """For each member of f: the smallest power of two m <= n with q*K < m
    for an even integer q, else n.

    K is the highest mode of the member with a nonzero (or non-finite)
    coefficient.  The scan runs from f.band down, one halving of m at a
    time, and halves past the band without reading a coefficient; each
    halving looks at the lowest mode it would drop before the rest, so a
    member with high modes leaves after one coefficient.
    """
    n = f.grid.n_points
    rows = _rows(f)
    if not (float(q).is_integer() and q % 2 == 0):
        return [n] * len(rows)
    counts = []
    for spec in rows:
        m, top = n, f.band
        while m > 1:
            lo = -(-(m // 2) // int(q))  # lowest mode K with q*K >= m/2
            if lo < top and (spec[lo] != 0 or spec[lo:top].any()):
                break
            m, top = m // 2, min(lo, top)
        counts.append(m)
    return counts


def lebesgue_norm(f: SpectralField, q: float):
    """Discrete L^q norm (rectangle rule); q = inf gives the max norm.

    For an even integer q the sum runs on the smallest power-of-two grid of
    m <= n points with q*K < m, K the highest nonzero mode of f: there the
    m-point rule integrates |f|^q exactly, so it equals the n-point sum up
    to roundoff.  The m samples come from one inverse transform of the first
    m/2 + 1 coefficients; f.phys is neither formed nor kept.  Every other q,
    and a field with q*K >= n/2, is summed on the n samples of f.phys.

    A stack gives one norm per member.  Its members are grouped by m, each
    group takes one inverse transform of its rows, and each row is then
    powered and summed on its own: the bits of the member normed alone.
    """
    if q == np.inf:
        return _per_member(np.max(np.abs(f.phys.reshape(-1, f.grid.n_points)), axis=-1), f)
    if q < 1:
        raise ValueError(f"Lebesgue exponent must satisfy q >= 1, got {q}")
    n = f.grid.n_points
    counts = _exact_sample_count(f, q)
    rows = _rows(f)
    out = np.empty(len(counts))
    for m in dict.fromkeys(counts):
        members = [i for i, c in enumerate(counts) if c == m]
        pick = slice(None) if len(members) == len(counts) else members
        if m == n:
            mags = np.abs(f.phys.reshape(-1, n)[pick])
        else:
            mags = np.fft.irfft(rows[pick, : m // 2 + 1], m, norm="forward")
            np.abs(mags, out=mags)
        for i, mag in zip(members, mags):
            powered = integer_power(mag, int(q)) if float(q).is_integer() else mag ** q
            out[i] = (np.sum(powered) * (f.grid.length / m)) ** (1.0 / q)
    return _per_member(out, f)


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


def sobolev_norm(f: SpectralField, s: float):
    """H^s norm: L^2 norm of (1+|xi|)^s-weighted coefficients.

    The terms are formed below f.band only and summed over the whole half
    spectrum, zeros included, which keeps np.sum's pairwise order.  A stack
    gives one norm per member, its rows summed in turn in one half-spectrum
    buffer.
    """
    band = f.band
    w = 1.0 if s == 0 else (1.0 + f.grid.xi[:band]) ** s
    rows = _rows(f)
    terms = np.zeros(f.grid.xi.size)
    sums = np.empty(len(rows))
    for i, row in enumerate(rows):
        np.multiply(f.grid.mode_weights[:band], (w * np.abs(row[:band])) ** 2, out=terms[:band])
        sums[i] = np.sum(terms)
    return _per_member(np.sqrt(f.grid.length * sums), f)


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
        if (ts.size == 0 or not np.all(np.isfinite(ts)) or np.any(ts <= 0)
                or np.any(np.diff(ts) < 0)):
            raise ValueError("sample_times must be nonempty, finite, positive and sorted")
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


def _weighted_sup(fields, cfg: WeightedNormConfig, q: float, orders: tuple, wexp: float,
                  components):
    """Shared driver: sup over sample times of H^s plus weighted component sum.

    fields holds the trajectory at cfg.sample_times, one field per time in
    order; a count that differs raises ValueError.  Each weighted component is
    the L^q norm of f itself (order None) or of D^o d_x f (order o, with
    o = 0.0 the plain derivative) and carries the factor t^wexp at time t;
    each distinct order is evaluated once per time, so an order listed twice
    is transformed once and added twice.  Fields that are stacks of P members
    give P sups, one per member, each with the bits of that member's
    trajectory normed alone.  components, when not None, is a list that
    receives each time's {order: L^q norm} in order.
    """
    sup_total = 0.0
    for t, f in zip(cfg.sample_times, fields, strict=True):
        hs = sobolev_norm(f, cfg.s)
        norms = {
            o: lebesgue_norm(f if o is None else fractional_derivative_shifted(f, o), q)
            for o in dict.fromkeys(orders)
        }
        if components is not None:
            components.append(norms)
        weighted = 0.0
        for o in orders:
            weighted += t ** wexp * norms[o]
        if not (np.isfinite(hs).all() and np.isfinite(weighted).all()):
            raise BlowUpError(f"non-finite norm at sample time t={t:g}")
        sup_total = np.maximum(sup_total, hs + weighted)
    return sup_total if np.ndim(sup_total) else float(sup_total)


def x_norm(fields, cfg: WeightedNormConfig) -> float:
    """Space norm for the conservative-form problem, as one number.

    fields is an iterable of SpectralField, the trajectory at
    cfg.sample_times in order; it is read once, and a count other than
    len(cfg.sample_times) raises ValueError.  Returns the max over sample
    times t of ||f(t)||_{H^s} + t^(gamma_k/p) * ( ||f||_{L^q} + ||d_x f||_{L^q}
    + ||D^s d_x f||_{L^q} ),  q = 2(k+1).
    """
    q = 2.0 * (cfg.k + 1.0)
    return _weighted_sup(fields, cfg, q, (None, 0.0, cfg.s), cfg.weight_exponent, None)


def y_norm(fields, cfg: WeightedNormConfig) -> float:
    """Space norm for the gradient-form problem: sup of H^s plus
    t^(gamma_k/p) * ( ||d_x f||_{L^q} + ||D^s d_x f||_{L^q} ),  q = 2(k+1).

    fields is read as in x_norm.
    """
    q = 2.0 * (cfg.k + 1.0)
    return _weighted_sup(fields, cfg, q, (0.0, cfg.s), cfg.weight_exponent, None)


def z_norm(fields, cfg: WeightedNormConfig) -> float:
    """Auxiliary smoothing norm: sup of H^s plus t^(gamma_k/p)*||f||_{L^(2k+1)}.

    fields is read as in x_norm.  The odd exponent 2k+1 is intentional and
    differs from the 2(k+1) used by x_norm/y_norm.
    """
    return _weighted_sup(fields, cfg, 2.0 * cfg.k + 1.0, (None,), cfg.weight_exponent, None)


def z_tilde_norm(fields, cfg: WeightedNormConfig) -> float:
    """Auxiliary norm: sup of H^s plus t^((1+|s|)/p)*||d_x f||_{L^2}.

    fields is read as in x_norm.
    """
    return _weighted_sup(fields, cfg, 2, (0.0,), (1.0 + abs(cfg.s)) / cfg.p, None)
