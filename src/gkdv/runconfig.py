"""Strict JSON run configurations: parsing, validation, builders, hashing.

Unknown keys abort before any computation; a seed is mandatory so that every
randomized experiment is reproducible.  The canonical serialization (sorted
keys, fixed separators) backs the deterministic config hash used as run id.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .probes import gaussian_field, rough_field
from .solver import IvpProblem
from .spectral import GridSpec, SpectralField, zero_field
from .symbols import (
    DissipativeSymbol,
    builtin_symbol,
    tabulated_symbol,
    validate_decomposition,
)

SUITES = ("all", "linear", "nonlinear", "smoothing")

_COMMON_KEYS = {"symbol", "grid", "k", "s", "mode", "seed"}
_ALLOWED = {
    "solve": _COMMON_KEYS | {"initial_data", "output_times", "solver"},
    "verify": _COMMON_KEYS | {"suite", "verify"},
    "sweep": _COMMON_KEYS | {"sweep", "suite", "verify"},
}
# The keys of each section; every section is a JSON object.
_SECTIONS = {
    "grid": {"length", "n_points", "dealias_fraction"},
    "symbol": {"name", "p", "q", "c_phi1", "eta", "table"},
    "initial_data": {"type", "amplitude", "width", "center", "sobolev_index", "seed"},
    "solver": {"max_iter", "tol", "panels"},
    "verify": {"theta_values", "tau_window", "n_seeds", "n_pairs", "hy_exponents", "xi_max",
               "t_horizon"},
    "sweep": {"k", "p", "s"},
}


def _number(test):
    return lambda v: isinstance(v, (int, float)) and not isinstance(v, bool) and test(v)


def _list_of(test):
    return lambda v: isinstance(v, list) and all(map(_number(test), v))


def _integer(least, most):
    return _number(lambda v: least <= v <= most and v % 1 == 0)


def _in_unit(v) -> bool:
    return 0 < v <= 1


# Accepted values of the top-level k, s, seed, suite and output_times and of
# the numeric grid, symbol, initial_data, solver and verify keys, as (description,
# test); a null value means unset and is not checked.  s > -1 is where every
# space norm's shifted fractional derivative is defined.  A count above
# _MAX_COUNT is refused: its loops or arrays would not end or fit.  So is a
# sweep with more than _MAX_COUNT combinations, before any is built.
_MAX_COUNT = 10_000
_RANGES = {
    "suite": (f"one of {SUITES}", lambda v: v in SUITES),
    "s": ("a number > -1", _number(lambda v: v > -1)),
    "seed": ("an integer >= 0", _integer(0, math.inf)),
    "n_points": ("an integer >= 2", _integer(2, math.inf)),
    **dict.fromkeys(["n_seeds", "n_pairs", "panels", "max_iter"],
                    (f"an integer in [1, {_MAX_COUNT}]", _integer(1, _MAX_COUNT))),
    **dict.fromkeys(["k", "length", "width", "tol", "xi_max", "p", "eta"],
                    ("a number > 0", _number(lambda v: v > 0))),
    **dict.fromkeys(["q", "c_phi1"], ("a number >= 0", _number(lambda v: v >= 0))),
    "dealias_fraction": ("a number in (0, 1]", _number(_in_unit)),
    "theta_values": ("a list of numbers >= 0", _list_of(lambda v: v >= 0)),
    "hy_exponents": ("a list of numbers >= 2", _list_of(lambda v: v >= 2)),
    "output_times": ("a list of numbers >= 0", _list_of(lambda v: v >= 0)),
    "t_horizon": ("a number in (0, 1]", _number(_in_unit)),
    "tau_window": ("two numbers lo, hi with 0 < lo < hi <= 1",
                   lambda v: _list_of(_in_unit)(v) and len(v) == 2 and v[0] < v[1]),
}


def _check_keys(section: dict, allowed: set, context: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {context}")


def _check_finite(value, key: str) -> None:
    """Reject NaN and +-Infinity, which Python's json accepts, anywhere under key."""
    if isinstance(value, float) and not np.isfinite(value):
        raise ConfigError(f"{key!r} must be a finite number, got {value!r}")
    if isinstance(value, dict):
        for name, item in value.items():
            _check_finite(item, f"{key}.{name}")
    elif isinstance(value, list):
        for item in value:
            _check_finite(item, key)


def _check_ranges(section: dict, context: str) -> None:
    for key, (accepted, ok) in _RANGES.items():
        if section.get(key) is not None and not ok(section[key]):
            raise ConfigError(f"{key!r} in {context} must be {accepted}, got {section[key]!r}")


def _set_keys(section: dict, **casts) -> dict:
    """Keyword arguments for the keys a config section sets, each cast as given.

    A key that is absent or null is left out, so the called function's own
    default applies.
    """
    return {key: cast(section[key]) for key, cast in casts.items() if section.get(key) is not None}


@dataclass
class RunConfig:
    """Validated configuration for one CLI command."""

    command: str
    raw: dict

    @classmethod
    def from_dict(cls, data: dict, command: str) -> "RunConfig":
        if command not in _ALLOWED:
            raise ConfigError(f"unknown command {command!r}")
        if not isinstance(data, dict):
            raise ConfigError("configuration root must be a JSON object")
        for key, value in data.items():
            _check_finite(value, key)
        _check_keys(data, _ALLOWED[command], f"{command} config")
        for key in ("symbol", "grid", "seed"):
            if key not in data:
                raise ConfigError(f"missing required key '{key}'")
        if not isinstance(data["seed"], int):
            raise ConfigError("seed must be an integer")
        for name, keys in _SECTIONS.items():
            if name in data:
                if not isinstance(data[name], dict):
                    raise ConfigError(f"{name} section must be a JSON object, got {data[name]!r}")
                _check_keys(data[name], keys, f"{name} section")
        if command == "sweep" and not data.get("sweep"):
            raise ConfigError("sweep section must list at least one of k/p/s")
        for key, values in data.get("sweep", {}).items():
            if not (_list_of(lambda v: True)(values) and values):
                raise ConfigError(f"sweep {key!r} must be a non-empty list of numbers, "
                                  f"got {values!r}")
        n_combos = math.prod(len(values) for values in data.get("sweep", {}).values())
        if n_combos > _MAX_COUNT:
            raise ConfigError(f"sweep has {n_combos} combinations, more than {_MAX_COUNT}")
        if command == "solve" and "initial_data" not in data:
            raise ConfigError("solve config requires an initial_data section")
        _check_ranges(data, f"{command} config")
        for name in ("grid", "symbol", "initial_data", "solver", "verify"):
            _check_ranges(data.get(name, {}), f"{name} section")
        return cls(command=command, raw=data)

    @classmethod
    def from_file(cls, path, command: str) -> "RunConfig":
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot parse config {path}: {exc}") from exc
        return cls.from_dict(data, command)

    def canonical_json(self) -> str:
        return json.dumps(self.raw, sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        import hashlib  # OpenSSL loads only for a run that hashes its config

        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    @property
    def seed(self) -> int:
        return self.raw["seed"]

    @property
    def suite(self) -> str:
        return self.raw.get("suite", "all")

    def build_grid(self) -> GridSpec:
        g = self.raw["grid"]
        try:
            return GridSpec(length=float(g["length"]), n_points=int(g["n_points"]),
                            **_set_keys(g, dealias_fraction=float))
        except (KeyError, ValueError, TypeError) as exc:
            raise ConfigError(f"invalid grid section: {exc}") from exc

    def build_symbol(self) -> DissipativeSymbol:
        """The configured symbol; a tabulated one must keep its stated bound
        |Phi1| <= c_phi1*(1 + |xi|^q) on the grid's range [0, nyquist], checked
        at every table row in it (exact for q <= 1) and on an even sampling."""
        sec = self.raw["symbol"]
        name = sec.get("name")
        if name is None:
            raise ConfigError("symbol section requires a name")
        try:
            if sec.get("table") is None:
                return builtin_symbol(name, p=sec.get("p"), **_set_keys(sec, eta=float))
            rows_xi = [row[0] for row in sec["table"]]
            sym = tabulated_symbol(name, float(sec["p"]), rows_xi, [row[1] for row in sec["table"]],
                                   **_set_keys(sec, q=float, c_phi1=float, eta=float))
        except (KeyError, ValueError, TypeError) as exc:
            raise ConfigError(f"invalid symbol section: {exc}") from exc
        nyquist = self.build_grid().nyquist
        rows_xi = np.asarray(rows_xi, dtype=float)
        rows_xi = rows_xi[(rows_xi >= 0) & (rows_xi <= nyquist)]
        over_at_rows = np.abs(sym.phi1(rows_xi)) > sym.c_phi1 * (1.0 + rows_xi ** sym.q)
        if np.any(over_at_rows) or not validate_decomposition(sym, nyquist):
            raise ConfigError(
                f"tabulated symbol {name!r} breaks its bound |Phi1| <= c_phi1*(1 + |xi|^q) "
                f"on the resolved range [0, {nyquist:.6g}]"
            )
        return sym

    def build_initial_data(self, grid: GridSpec) -> SpectralField:
        sec = self.raw.get("initial_data", {"type": "zero"})
        kind = sec.get("type")
        if kind == "zero":
            return zero_field(grid)
        try:
            if kind == "gaussian":
                return gaussian_field(grid, **_set_keys(sec, amplitude=float, width=float,
                                                        center=float))
            if kind == "rough":
                opts = _set_keys(sec, sobolev_index=float, seed=int, amplitude=float)
                opts.setdefault("seed", self.seed)
                return rough_field(grid, **opts)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"invalid initial_data section: {exc}") from exc
        raise ConfigError(f"unknown initial_data type {kind!r}")

    def build_problem(self) -> IvpProblem:
        grid = self.build_grid()
        symbol = self.build_symbol()
        initial_data = self.build_initial_data(grid)
        try:
            return IvpProblem(
                symbol=symbol,
                grid=grid,
                k=float(self.raw.get("k", 1.0)),
                mode=self.raw.get("mode", "conservative"),
                s=float(self.raw.get("s", 0.0)),
                initial_data=initial_data,
            )
        except (ValueError, TypeError) as exc:
            raise ConfigError(str(exc)) from exc

    def sweep_configs(self) -> list["RunConfig"]:
        """One verify config per Cartesian (k, p, s) combination of the sweep
        section, with k and s at the top level and p in the symbol section; a
        key the section does not list keeps the base config's value."""
        sec = self.raw["sweep"]
        base = {key: value for key, value in self.raw.items() if key != "sweep"}
        axes = [[(key, v) for v in sec[key]] for key in ("k", "p", "s") if key in sec]
        configs = []
        for combo in itertools.product(*axes):
            raw = {**base, "symbol": dict(base["symbol"])}
            for key, value in combo:
                (raw["symbol"] if key == "p" else raw)[key] = value
            try:
                configs.append(RunConfig.from_dict(raw, "verify"))
            except ConfigError as exc:
                raise ConfigError(f"sweep combination {dict(combo)}: {exc}") from exc
        return configs
