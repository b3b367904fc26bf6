"""Strict JSON run configurations: parsing, validation, builders, hashing.

_KEYS has one row per accepted key: its accepted values, their test and the
type it is passed on as.  from_dict checks each section against its rows in
one pass, so an unknown key or a refused value (a bool, a numeric string,
NaN, an infinity or an integer beyond the double range where a number
belongs) aborts before any computation; so does a key set in the symbol or
initial_data section that the configured kind of symbol or data does not
read (_READ_BY).  opts is the one way to read a value, and null means
unset.  A seed is mandatory so that every randomized experiment is
reproducible.  The canonical serialization (sorted keys, fixed
separators) backs the deterministic config hash used as run id.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .probes import gaussian_field, rough_field
from .solver import MODES, IvpProblem
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


# One row of the key table: the accepted values, as the error message names
# them, their test, and the type the key is passed on as.
_Row = namedtuple("_Row", "accepted test cast")


def _is_number(v) -> bool:
    """A finite double: not a bool, a string, NaN, an infinity or an int past the double range."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _is_list(v, test) -> bool:
    return isinstance(v, list) and all(map(test, v))


def _floats(v) -> list:
    return [float(x) for x in v]


def _number(accepted, test):
    """The row of a number key, passed on as a float."""
    return _Row(accepted, lambda v: _is_number(v) and test(v), float)


def _integer(accepted, least, most):
    """The row of a whole-number key (2 or 2.0), passed on as an int."""
    return _Row(accepted, lambda v: _is_number(v) and v % 1 == 0 and least <= v <= most, int)


def _numbers(accepted, test):
    """The row of a list-of-numbers key, passed on as a list of floats."""
    return _Row(accepted, lambda v: _is_list(v, lambda x: _is_number(x) and test(x)), _floats)


def _choice(options):
    return _Row(f"one of {options}", lambda v: v in options, str)


# A count above _MAX_COUNT is refused: its loops or arrays would not end or
# fit.  So is a sweep with more than _MAX_COUNT combinations, before any is built.
_MAX_COUNT = 10_000
_COUNT = _integer(f"an integer in [1, {_MAX_COUNT}]", 1, _MAX_COUNT)
_INDEX = _integer("an integer >= 0", 0, math.inf)
_ANY = _number("a finite number", lambda v: True)
_POSITIVE = _number("a number > 0", lambda v: v > 0)
_NON_NEGATIVE = _number("a number >= 0", lambda v: v >= 0)
_IN_UNIT = _number("a number in (0, 1]", lambda v: 0 < v <= 1)
_AXIS = _Row("a non-empty list of numbers", lambda v: _is_list(v, _is_number) and v != [], _floats)

# One row per accepted key, keyed by section with None for the top-level keys
# that are not sections.  s > -1 is where every space norm's shifted
# fractional derivative is defined.
_KEYS = {
    None: {
        "k": _POSITIVE,
        "s": _number("a number > -1", lambda v: v > -1),
        "mode": _choice(MODES),
        "seed": _INDEX,
        "suite": _choice(SUITES),
        "output_times": _numbers("a list of numbers >= 0", lambda v: v >= 0),
    },
    "grid": {
        "length": _POSITIVE, "dealias_fraction": _IN_UNIT,
        "n_points": _integer("an integer >= 2", 2, math.inf),
    },
    "symbol": {
        "name": _Row("a string", lambda v: isinstance(v, str), str),
        "p": _POSITIVE, "eta": _POSITIVE, "q": _NON_NEGATIVE, "c_phi1": _NON_NEGATIVE,
        # passed on as its xi and Phi1 columns
        "table": _Row("a list of rows [xi, Phi1], exactly two numbers per row",
                      lambda v: _is_list(v, lambda r: _is_list(r, _is_number) and len(r) == 2),
                      lambda v: (_floats(row[0] for row in v), _floats(row[1] for row in v))),
    },
    "initial_data": {
        "type": _choice(("zero", "gaussian", "rough")),
        "amplitude": _ANY, "center": _ANY, "sobolev_index": _ANY,
        "width": _POSITIVE, "seed": _INDEX,
    },
    "solver": {"max_iter": _COUNT, "tol": _POSITIVE, "panels": _COUNT},
    "verify": {
        "theta_values": _numbers("a list of numbers >= 0", lambda v: v >= 0),
        "tau_window": _Row("two numbers lo, hi with 0 < lo < hi <= 1",
                           lambda v: _is_list(v, _IN_UNIT.test) and len(v) == 2 and v[0] < v[1],
                           lambda v: tuple(_floats(v))),
        "hy_exponents": _numbers("a list of numbers >= 2", lambda v: v >= 2),
        "n_seeds": _COUNT, "n_pairs": _COUNT, "xi_max": _POSITIVE, "t_horizon": _IN_UNIT,
    },
    "sweep": dict.fromkeys(("k", "p", "s"), _AXIS),
}
# The keys of each section, which is a JSON object.
_SECTIONS = {name: set(rows) for name, rows in _KEYS.items() if name is not None}

# The keys each kind of symbol and of initial data reads.  A symbol is
# tabulated when its table is set, else builtin; the type key names the kind
# of initial data.  Any other key set in the section would be ignored.
_READ_BY = {
    "builtin symbol": {"name", "p", "eta"},
    "tabulated symbol": {"name", "p", "eta", "q", "c_phi1", "table"},
    "zero data": {"type"},
    "gaussian data": {"type", "amplitude", "width", "center"},
    "rough data": {"type", "amplitude", "sobolev_index", "seed"},
}


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
        for name, rows in _KEYS.items():
            section = data if name is None else data.get(name, {})
            context = f"{command} config" if name is None else f"{name} section"
            if not isinstance(section, dict):
                raise ConfigError(f"{context} must be a JSON object, got {section!r}")
            unknown = set(section) - (_ALLOWED[command] if name is None else set(rows))
            if unknown:
                raise ConfigError(f"unknown key(s) {sorted(unknown)} in {context}")
            for key, value in section.items():
                if key in rows and value is not None and not rows[key].test(value):
                    raise ConfigError(f"{key!r} in {context} must be {rows[key].accepted}, "
                                      f"got {value!r}")
        for key in ("symbol", "grid", "seed"):
            if key not in data:
                raise ConfigError(f"missing required key '{key}'")
        if not isinstance(data["seed"], int):
            raise ConfigError("seed must be an integer")
        cfg = cls(command=command, raw=data)
        axes = cfg.opts("sweep", "k", "p", "s")
        if command == "sweep" and not axes:
            raise ConfigError("sweep section must list at least one of k/p/s")
        n_combos = math.prod(map(len, axes.values()))
        if n_combos > _MAX_COUNT:
            raise ConfigError(f"sweep has {n_combos} combinations, more than {_MAX_COUNT}")
        if command == "solve" and not cfg.opts("initial_data", "type"):
            raise ConfigError("solve config requires an initial_data section with a type")
        tabulated = data["symbol"].get("table") is not None
        kinds = {"symbol": "tabulated symbol" if tabulated else "builtin symbol"}
        if command == "solve":
            kinds["initial_data"] = f"{data['initial_data']['type']} data"
        for name, kind in kinds.items():
            unread = sorted(key for key, value in data[name].items()
                            if value is not None and key not in _READ_BY[kind])
            if unread:
                raise ConfigError(f"{kind} does not read key(s) {unread} of the {name} section")
        return cfg

    @classmethod
    def from_file(cls, path, command: str) -> "RunConfig":
        # ValueError also covers an integer literal past Python's digit limit
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot parse config {path}: {exc}") from exc
        return cls.from_dict(data, command)

    def canonical_json(self) -> str:
        return json.dumps(self.raw, sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        import hashlib  # OpenSSL loads only for a run that hashes its config

        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    def opts(self, section: str | None, *keys: str) -> dict:
        """The given keys of a section (None for the top level) that are set
        and not null, each cast to the type of its row; a key left out takes
        the default of what it feeds."""
        values = self.raw if section is None else self.raw.get(section, {})
        rows = _KEYS[section]
        return {key: rows[key].cast(values[key]) for key in keys if values.get(key) is not None}

    @property
    def seed(self) -> int:
        return self.opts(None, "seed")["seed"]

    @property
    def suite(self) -> str:
        return self.opts(None, "suite").get("suite", "all")

    def build_grid(self) -> GridSpec:
        try:
            return GridSpec(**self.opts("grid", "length", "n_points", "dealias_fraction"))
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"invalid grid section: {exc}") from exc

    def build_symbol(self) -> DissipativeSymbol:
        """The configured symbol; a tabulated one must keep its stated bound
        |Phi1| <= c_phi1*(1 + |xi|^q) on the grid's range [0, nyquist], checked
        at every table row in it (exact for q <= 1) and on an even sampling."""
        sec = self.opts("symbol", "name", "p", "table")
        if "name" not in sec:
            raise ConfigError("symbol section requires a name")
        name = sec["name"]
        try:
            if "table" not in sec:
                return builtin_symbol(name, **self.opts("symbol", "p", "eta"))
            rows_xi, rows_phi1 = sec["table"]
            sym = tabulated_symbol(name, sec["p"], rows_xi, rows_phi1,
                                   **self.opts("symbol", "q", "c_phi1", "eta"))
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"invalid symbol section: {exc}") from exc
        nyquist = self.build_grid().nyquist
        rows_xi = np.asarray(rows_xi)
        rows_xi = rows_xi[(rows_xi >= 0) & (rows_xi <= nyquist)]
        over_at_rows = np.abs(sym.phi1(rows_xi)) > sym.c_phi1 * (1.0 + rows_xi ** sym.q)
        if np.any(over_at_rows) or not validate_decomposition(sym, nyquist):
            raise ConfigError(
                f"tabulated symbol {name!r} breaks its bound |Phi1| <= c_phi1*(1 + |xi|^q) "
                f"on the resolved range [0, {nyquist:.6g}]"
            )
        return sym

    def build_initial_data(self, grid: GridSpec) -> SpectralField:
        """The configured data; verify and sweep, which take no initial_data, start from zero."""
        kind = self.opts("initial_data", "type").get("type", "zero")
        if kind == "gaussian":
            return gaussian_field(grid, **self.opts("initial_data", "amplitude", "width", "center"))
        if kind == "rough":
            opts = self.opts("initial_data", "sobolev_index", "seed", "amplitude")
            return rough_field(grid, **{"seed": self.seed, **opts})
        return zero_field(grid)

    def build_problem(self) -> IvpProblem:
        grid = self.build_grid()
        top = {"k": 1.0, "mode": "conservative", "s": 0.0, **self.opts(None, "k", "mode", "s")}
        return IvpProblem(symbol=self.build_symbol(), grid=grid,
                          initial_data=self.build_initial_data(grid), **top)

    def sweep_configs(self) -> list["RunConfig"]:
        """One verify config per Cartesian (k, p, s) combination of the sweep
        section, with k and s at the top level and p in the symbol section; a
        key the section does not list keeps the base config's value."""
        sec = self.opts("sweep", "k", "p", "s")
        base = {key: value for key, value in self.raw.items() if key != "sweep"}
        axes = [[(key, v) for v in values] for key, values in sec.items()]
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
