import copy
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from gkdv import cli, runconfig
from gkdv.cli import main
from gkdv.errors import ConfigError
from gkdv.runconfig import RunConfig
from gkdv.solver import solve


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def solve_config(**overrides):
    cfg = {
        "symbol": {"name": "kdv-ks"},
        "grid": {"length": 100.0, "n_points": 256},
        "k": 1.0,
        "s": 0.0,
        "mode": "conservative",
        "seed": 11,
        "initial_data": {"type": "gaussian", "amplitude": 0.05, "width": 4.0},
        "output_times": [0.0005],
    }
    cfg.update(overrides)
    return cfg


def verify_config(**overrides):
    cfg = {
        "symbol": {"name": "pure-power", "p": 4.0},
        "grid": {"length": 100.0, "n_points": 256},
        "k": 1.0,
        "s": 0.0,
        "mode": "conservative",
        "seed": 3,
        "verify": {
            "theta_values": [1.0],
            "n_seeds": 3,
            "n_pairs": 1,
            "hy_exponents": [2.0],
            "xi_max": 8.0,
        },
    }
    cfg.update(overrides)
    return cfg


class TestRunConfig:
    def test_round_trip_and_hash(self, tmp_path):
        path = write_config(tmp_path, "a.json", solve_config())
        cfg = RunConfig.from_file(path, "solve")
        again = RunConfig.from_dict(json.loads(cfg.canonical_json()), "solve")
        assert cfg.config_hash() == again.config_hash()

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            RunConfig.from_dict(solve_config(bogus=1), "solve")
        bad_grid = solve_config()
        bad_grid["grid"] = {"length": 1.0, "n_points": 64, "oops": 2}
        with pytest.raises(ConfigError, match="grid"):
            RunConfig.from_dict(bad_grid, "solve")

    def test_null_means_unset_in_grid_symbol_and_initial_data(self):
        # a null key takes the default of the function it feeds, as in solver and verify
        unset = RunConfig.from_dict(solve_config(), "solve").build_problem()
        nulls = solve_config(
            symbol={"name": "kdv-ks", "eta": None, "p": None, "table": None},
            grid={"length": 100.0, "n_points": 256, "dealias_fraction": None},
            initial_data={"type": "gaussian", "amplitude": 0.05, "width": 4.0, "center": None},
        )
        prob = RunConfig.from_dict(nulls, "solve").build_problem()
        assert prob.symbol.eta == 1.0
        assert prob.grid == unset.grid
        assert np.array_equal(prob.initial_data.spec, unset.initial_data.spec)

    def test_seed_required(self):
        cfg = solve_config()
        del cfg["seed"]
        with pytest.raises(ConfigError, match="seed"):
            RunConfig.from_dict(cfg, "solve")

    def test_initial_data_required_for_solve(self):
        cfg = solve_config()
        del cfg["initial_data"]
        with pytest.raises(ConfigError):
            RunConfig.from_dict(cfg, "solve")

    def test_builders(self):
        cfg = RunConfig.from_dict(solve_config(), "solve")
        prob = cfg.build_problem()
        assert prob.grid.n_points == 256
        assert prob.symbol.name == "kdv-ks"
        assert prob.k == 1.0

    def test_tabulated_symbol_from_config(self):
        raw = verify_config()
        raw["symbol"] = {
            "name": "custom",
            "p": 3.0,
            "q": 1.0,
            "c_phi1": 2.0,
            "eta": 1.0,
            "table": [[0.0, 0.0], [1.0, 1.0], [10.0, 10.0]],
        }
        cfg = RunConfig.from_dict(raw, "verify")
        sym = cfg.build_symbol()
        assert sym.p == 3.0
        from gkdv.symbols import evaluate_phi

        assert evaluate_phi(sym, 2.0) == pytest.approx(-8.0 + 2.0)

    def test_tabulated_symbol_breaking_its_bound_rejected(self, tmp_path):
        # |Phi1| reaches 50 where c_phi1*(1 + |xi|^q) is 0.2; the solve used to
        # report convergence at r ~ 1e19, T ~ 1e-106 and exit 0.  The second
        # table's spike is narrower than the spacing of an even sampling of
        # [0, nyquist], so only its table row shows it.
        tables = [
            [[0.0, 0.0], [1.0, 50.0], [100.0, 50.0]],
            [[0.0, 0.0], [1.0, 0.0], [1.0005, 50.0], [1.001, 0.0], [100.0, 0.0]],
        ]
        for i, table in enumerate(tables):
            cfg = solve_config(
                symbol={"name": "custom", "p": 4.0, "q": 0.0, "c_phi1": 0.1, "eta": 1.0,
                        "table": table},
                initial_data={"type": "gaussian", "amplitude": 0.02, "width": 4.0},
            )
            with pytest.raises(ConfigError, match="bound"):
                RunConfig.from_dict(cfg, "solve").build_symbol()
            path = write_config(tmp_path, f"custom{i}.json", cfg)
            out = tmp_path / f"out{i}"
            res = CliRunner().invoke(main, ["solve", "--config", path, "--out", str(out)])
            assert res.exit_code == 2
            assert not out.exists()


OUT_OF_RANGE = [
    ("verify", "verify", "hy_exponents", [1.0]),
    ("verify", "verify", "theta_values", [-1.0]),
    ("verify", "verify", "n_tau", 2),
    ("verify", "verify", "n_seeds", 0),
    ("verify", "verify", "n_seeds", 2.5),
    ("verify", "verify", "panels", 0),
    ("verify", "verify", "t_horizon", 5.0),
    ("verify", "verify", "t_values", [0.5, 2.0, 4.0]),
    ("solve", None, "output_times", [-0.1]),
    ("solve", "solver", "panels", 0),
    ("solve", "solver", "max_iter", 0),
    ("solve", "solver", "max_iter", 3.7),
    ("solve", None, "k", "x"),
    ("solve", None, "k", 0),
    ("solve", None, "s", "x"),
    ("solve", None, "s", -5.0),
    ("solve", "initial_data", "width", 0.0),
    ("solve", "grid", "n_points", 256.5),
    ("solve", "initial_data", "seed", 2.5),
    ("solve", None, "seed", True),
    ("verify", None, "seed", -1),
    ("solve", "solver", "tol", float("inf")),
    ("solve", "grid", "length", float("inf")),
    ("solve", "initial_data", "amplitude", float("nan")),
    ("solve", "solver", "max_iter", 1e300),
    ("verify", "symbol", "p", True),
    ("solve", "symbol", "eta", True),
]


@pytest.mark.parametrize("command,section,key,value", OUT_OF_RANGE,
                         ids=[f"{case[0]}-{case[2]}" for case in OUT_OF_RANGE])
def test_out_of_range_value_exit_2_without_run_dir(tmp_path, command, section, key, value):
    cfg = verify_config() if command == "verify" else solve_config()
    target = cfg if section is None else cfg.setdefault(section, {})
    target[key] = value
    path = write_config(tmp_path, "range.json", cfg)
    res = CliRunner().invoke(main, [command, "--config", path, "--out", str(tmp_path / "out")])
    assert res.exit_code == 2
    assert "config error" in res.output and key in res.output
    assert not (tmp_path / "out").exists()


TABULATED = {"name": "custom", "p": 3.0, "q": 1.0, "c_phi1": 2.0}
GAUSSIAN = {"type": "gaussian", "amplitude": 0.05, "width": 4.0}
# Refused values, each as the sections or top-level keys it changes and the
# key it names; rough data and table rows need their whole section.
REFUSED = {
    # a numeric string or a bool used to run as the number it casts to
    "amplitude-numeric-string": ("solve", {"initial_data": {**GAUSSIAN, "amplitude": "0.02"}},
                                 "amplitude"),
    "center-bool": ("solve", {"initial_data": {**GAUSSIAN, "center": False}}, "center"),
    "rough-sobolev_index-numeric-string": (
        "solve", {"initial_data": {"type": "rough", "amplitude": 0.05, "sobolev_index": "1"}},
        "sobolev_index"),
    # a short row used to crash with an IndexError, a long row's third column
    # to be ignored
    "table-short-row": ("verify", {"symbol": {**TABULATED, "table": [[0, 0], [1]]}}, "table"),
    "table-long-row": ("verify", {"symbol": {**TABULATED, "table": [[0, 0], [1, 1, 5]]}},
                       "table"),
    # an integer literal beyond the double range used to raise OverflowError,
    # for tol and xi_max after the run directory was made
    "k-past-double-range": ("solve", {"k": 10**400}, "k"),
    "length-past-double-range": ("solve", {"grid": {"length": 10**400, "n_points": 256}},
                                 "length"),
    "tol-past-double-range": ("solve", {"solver": {"tol": 10**400}}, "tol"),
    "xi_max-past-double-range": ("verify", {"verify": {"xi_max": 10**400}}, "xi_max"),
}


@pytest.mark.parametrize("command,changes,key", REFUSED.values(), ids=REFUSED.keys())
def test_refused_value_exit_2_without_run_dir(tmp_path, command, changes, key):
    cfg = verify_config(**changes) if command == "verify" else solve_config(**changes)
    path = write_config(tmp_path, "refused.json", cfg)
    res = CliRunner().invoke(main, [command, "--config", path, "--out", str(tmp_path / "out")])
    assert res.exit_code == 2
    assert "config error" in res.output and key in res.output
    assert not (tmp_path / "out").exists()


def test_integer_literal_past_the_digit_limit_exit_2_without_run_dir(tmp_path):
    # Python refuses to parse an integer of more than 4300 digits; the
    # ValueError used to escape as a traceback
    text = json.dumps(solve_config(k=0)).replace('"k": 0', '"k": 1' + "0" * 5000)
    path = tmp_path / "digits.json"
    path.write_text(text)
    res = CliRunner().invoke(main, ["solve", "--config", str(path), "--out", str(tmp_path / "out")])
    assert res.exit_code == 2
    assert "config error" in res.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["elsewhere", 5])
@pytest.mark.parametrize("command", ["solve", "verify"])
def test_output_dir_key_exit_2_without_run_dir(tmp_path, monkeypatch, command, value):
    # only --out and GKDV_OUT set the output root, so a config key for it is
    # unknown, whatever its value
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("GKDV_OUT", raising=False)
    cfg = verify_config(suite="linear") if command == "verify" else solve_config()
    cfg["output_dir"] = value
    path = write_config(tmp_path, "output-dir.json", cfg)
    res = CliRunner().invoke(main, [command, "--config", path])
    assert res.exit_code == 2
    assert "config error: unknown key(s) ['output_dir']" in res.output
    assert [entry.name for entry in tmp_path.iterdir()] == ["output-dir.json"]


# Valid configs on which a computed quantity leaves the double range; each
# used to escape as an uncaught OverflowError or ValueError.  A verify or sweep
# config runs the linear suite unless it sets its own.
RANGE_FAILURES = {
    # the automatic tau window needs 40^p
    "tau-window": ("verify", {"symbol": {"name": "pure-power", "p": 1e6}},
                   "verification failure: no tau window"),
    "existence-time": ("solve", {"grid": {"length": 1e300, "n_points": 256}},
                       "solver failure: existence time T=0 leaves the double range"),
    "weighted-linear-norm": ("verify", {"grid": {"length": 1e300, "n_points": 256}},
                             "verification failure: ||d_x V(t) w0||_L^4 underflows to 0"),
    # the free rough probe vanishes on both tori, and so does its Duhamel term
    "duhamel-norm-long-torus": ("verify", {"grid": {"length": 1e300, "n_points": 256},
                                           "suite": "nonlinear"},
                                "verification failure: the Duhamel term's space norm "
                                "underflows to 0"),
    "duhamel-norm-short-torus": ("verify", {"grid": {"length": 1e-3, "n_points": 256},
                                            "suite": "nonlinear"},
                                 "verification failure: the Duhamel term's space norm "
                                 "underflows to 0"),
    # the contraction window needs (cutoff/3.2)^-p
    "contraction-window": ("verify", {"grid": {"length": 1e100, "n_points": 256},
                                      "suite": "nonlinear"},
                           "verification failure: no contraction window"),
    # the p = 4 combination finishes; p = 1e6 has no tau window
    "sweep-tau-window": ("sweep", {"sweep": {"p": [4.0, 1e6]}},
                         "sweep failure: no tau window"),
}


@pytest.mark.parametrize("command,changes,message", RANGE_FAILURES.values(),
                         ids=RANGE_FAILURES.keys())
def test_double_range_is_a_named_failure(tmp_path, command, changes, message):
    if command in ("verify", "sweep"):
        cfg = verify_config(**{"suite": "linear", **changes})
    else:
        cfg = solve_config(**changes)
    path = write_config(tmp_path, "range.json", cfg)
    with np.errstate(over="ignore"):  # the 1e300 torus overflows its Gaussian's exponent
        res = CliRunner().invoke(main, [command, "--config", path, "--out", str(tmp_path / "out")])
    assert isinstance(res.exception, SystemExit) and res.exit_code == 1
    assert message in res.output
    assert (next((tmp_path / "out").iterdir()) / "manifest.json").exists()


VERIFY_CHECKS = ("verify_multiplier_decay", "verify_weighted_linear", "verify_hausdorff_young",
                 "verify_threshold_conditions", "verify_nonlinear_estimate",
                 "verify_contraction_scaling", "verify_smoothing")
# Two valid values of each verify key.
VERIFY_KEY_VALUES = {
    "theta_values": ([1.0], [2.0]),
    "tau_window": ([1e-4, 1e-2], [1e-3, 1e-1]),
    "n_seeds": (2, 3),
    "n_pairs": (1, 2),
    "hy_exponents": ([2.0], [4.0]),
    "xi_max": (8.0, 16.0),
    "t_horizon": (0.5, 0.25),
}


def _numeric(value) -> bool:
    if isinstance(value, (tuple, list)):
        return all(map(_numeric, value))
    return isinstance(value, (int, float))


def check_arguments(monkeypatch, verify: dict, **overrides) -> dict:
    """The numeric arguments of every call _verify_reports makes to each check
    on the suite 'all', with the checks replaced by recorders; overrides
    replace top-level keys of the config."""
    calls = {name: [] for name in VERIFY_CHECKS}
    for name in VERIFY_CHECKS:
        def record(*args, _calls=calls[name], **kwargs):
            _calls.append(([a for a in args if _numeric(a)],
                           {key: v for key, v in kwargs.items() if _numeric(v)}))
        monkeypatch.setattr(cli, name, record)
    cfg = RunConfig.from_dict(verify_config(verify=verify, **overrides), "verify")
    list(cli._verify_reports(cfg, cfg.build_problem(), "all"))
    return calls


def test_each_verify_key_reaches_one_check(monkeypatch):
    assert set(VERIFY_KEY_VALUES) == runconfig._SECTIONS["verify"]
    first = {key: values[0] for key, values in VERIFY_KEY_VALUES.items()}
    base = check_arguments(monkeypatch, first)
    for key, (_, other) in VERIFY_KEY_VALUES.items():
        changed = check_arguments(monkeypatch, {**first, key: other})
        reached = [name for name in VERIFY_CHECKS if changed[name] != base[name]]
        assert len(reached) == 1, (key, reached)


def test_config_seed_reaches_every_seeded_check(monkeypatch):
    verify = {key: values[0] for key, values in VERIFY_KEY_VALUES.items()}
    base = check_arguments(monkeypatch, verify)
    reseeded = check_arguments(monkeypatch, verify, seed=4)
    moved = {name for name in VERIFY_CHECKS if reseeded[name] != base[name]}
    assert moved == {"verify_weighted_linear", "verify_nonlinear_estimate",
                     "verify_contraction_scaling", "verify_smoothing"}


INITIAL_DATA = {
    "gaussian":{"type": "gaussian", "amplitude": 0.05, "width": 4.0, "center": 0.0},
    "rough": {"type": "rough", "amplitude": 0.05, "sobolev_index": 0.5, "seed": 4},
}
UNCASTABLE_INITIAL_DATA = [(kind, key) for kind, section in INITIAL_DATA.items()
                           for key in section if key not in ("type", "width")]


@pytest.mark.parametrize("kind,key", UNCASTABLE_INITIAL_DATA,
                         ids=[f"{kind}-{key}" for kind, key in UNCASTABLE_INITIAL_DATA])
def test_uncastable_initial_data_exit_2_without_run_dir(tmp_path, kind, key):
    section = {**INITIAL_DATA[kind], key: "x"}
    path = write_config(tmp_path, "data.json", solve_config(initial_data=section))
    res = CliRunner().invoke(main, ["solve", "--config", path, "--out", str(tmp_path / "out")])
    assert res.exit_code == 2
    assert "config error" in res.output and "initial_data" in res.output
    assert not (tmp_path / "out").exists()


# A key the configured kind of symbol or data does not read, which used to be
# accepted and ignored: each run as the changes it makes and the key it names.
UNREAD = {
    "builtin-symbol-q": ({"symbol": {"name": "kdv-ks", "q": 0.5}}, "q"),
    "builtin-symbol-c_phi1": ({"symbol": {"name": "kdv-ks", "c_phi1": 7}}, "c_phi1"),
    "rough-data-width": ({"initial_data": {**INITIAL_DATA["rough"], "width": 3}}, "width"),
    "gaussian-data-seed": ({"initial_data": {**INITIAL_DATA["gaussian"], "seed": 1}}, "seed"),
    "zero-data-amplitude": ({"initial_data": {"type": "zero", "amplitude": 1.0}}, "amplitude"),
}


@pytest.mark.parametrize("changes,key", UNREAD.values(), ids=UNREAD.keys())
def test_unread_key_exit_2_without_run_dir(tmp_path, changes, key):
    path = write_config(tmp_path, "unread.json", solve_config(**changes))
    res = CliRunner().invoke(main, ["solve", "--config", path, "--out", str(tmp_path / "out")])
    assert res.exit_code == 2
    assert "config error" in res.output and repr(key) in res.output
    assert not (tmp_path / "out").exists()


def test_unread_key_refused_for_verify_and_each_sweep_combination():
    builtin_q = {"symbol": {"name": "pure-power", "p": 4.0, "q": 0.5}}
    with pytest.raises(ConfigError, match="builtin symbol.*'q'"):
        RunConfig.from_dict(verify_config(**builtin_q), "verify")
    with pytest.raises(ConfigError, match="builtin symbol.*'q'"):
        RunConfig.from_dict(verify_config(sweep={"k": [1.0]}, **builtin_q), "sweep")


def test_keys_each_kind_reads_are_accepted_and_null_stays_unset():
    tabulated = {**TABULATED, "eta": 1.0, "table": [[0.0, 0.0], [10.0, 1.0]]}
    RunConfig.from_dict(verify_config(symbol=tabulated), "verify").build_symbol()
    for kind, section in INITIAL_DATA.items():
        RunConfig.from_dict(solve_config(initial_data=section), "solve").build_problem()
    nulls = solve_config(symbol={"name": "kdv-ks", "q": None, "c_phi1": None, "table": None},
                         initial_data={**INITIAL_DATA["rough"], "width": None, "center": None})
    RunConfig.from_dict(nulls, "solve").build_problem()
    zero = solve_config(initial_data={"type": "zero", "amplitude": None, "seed": None})
    RunConfig.from_dict(zero, "solve").build_problem()


MALFORMED = {
    "grid-not-object": ("verify", {"grid": 5}),
    "sweep-entry-not-list": ("sweep", {"sweep": {"k": 1.0}}),
    "sweep-entry-not-numbers": ("sweep", {"sweep": {"k": ["a"]}}),
    "sweep-entry-empty": ("sweep", {"sweep": {"p": []}}),
    "sweep-unknown-suite": ("sweep", {"sweep": {"k": [1.0]}, "suite": "everything"}),
}


@pytest.mark.parametrize("command,changes", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_shape_exit_2_without_run_dir(tmp_path, command, changes):
    cfg = verify_config(**changes)
    if command == "sweep":
        cfg.setdefault("sweep", {"k": [1.0]})
    path = write_config(tmp_path, "shape.json", cfg)
    res = CliRunner().invoke(main, [command, "--config", path, "--out", str(tmp_path / "out")])
    assert res.exit_code == 2
    assert "config error" in res.output
    assert not (tmp_path / "out").exists()


SHIPPED_CONFIGS = {"kdvks.json": "solve", "sweep.json": "sweep",
                   "verify-pure-power.json": "verify"}


@pytest.mark.parametrize("path", sorted((Path(__file__).parents[1] / "configs").glob("*.json")),
                         ids=lambda path: path.name)
def test_shipped_configs_build(path):
    cfg = RunConfig.from_file(path, SHIPPED_CONFIGS[path.name])
    for each in cfg.sweep_configs() if cfg.command == "sweep" else [cfg]:
        each.build_problem()


class TestSolveCommand:
    def test_zero_data_success(self, tmp_path):
        cfg = solve_config(initial_data={"type": "zero"}, output_times=[0.5])
        path = write_config(tmp_path, "zero.json", cfg)
        runner = CliRunner()
        res = runner.invoke(main, ["solve", "--config", path, "--out", str(tmp_path / "out")])
        assert res.exit_code == 0
        run_dirs = list((tmp_path / "out").iterdir())
        assert len(run_dirs) == 1
        traj = (run_dirs[0] / "data" / "trajectory_000.csv").read_text().splitlines()
        assert traj[0] == "x,value"
        values = np.array([float(line.split(",")[1]) for line in traj[1:]])
        assert np.all(values == 0)
        trace = json.loads((run_dirs[0] / "reports" / "picard_trace.json").read_text())
        assert trace["converged"]
        assert len(trace["iterates"]) == 1
        assert (trace["r"], trace["t_final"], trace["c_calibrated"]) == (0.0, 1.0, None)

    def test_deterministic_outputs(self, tmp_path):
        path = write_config(tmp_path, "s.json", solve_config())
        runner = CliRunner()
        for sub in ("o1", "o2"):
            res = runner.invoke(main, ["solve", "--config", path, "--out", str(tmp_path / sub)])
            assert res.exit_code == 0
        manifests = [
            json.loads(next((tmp_path / sub).rglob("manifest.json")).read_text())
            for sub in ("o1", "o2")
        ]
        sums = [[f["sha256"] for f in m["files"]] for m in manifests]
        assert sums[0] == sums[1]

    def test_trajectory_csv_is_repr_of_each_sample(self, tmp_path):
        cfg = solve_config(output_times=[0.0002, 0.0005])
        path = write_config(tmp_path, "s.json", cfg)
        res = CliRunner().invoke(main, ["solve", "--config", path, "--out", str(tmp_path / "o")])
        assert res.exit_code == 0
        prob = RunConfig.from_file(path, "solve").build_problem()
        solution, trace = solve(prob)
        for idx, t in enumerate(cfg["output_times"]):
            fld = solution(min(t, trace.t_final))
            lines = ["x,value"] + [
                f"{float(x)!r},{float(v)!r}" for x, v in zip(prob.grid.x, fld.phys)
            ]
            written = next((tmp_path / "o").rglob(f"trajectory_{idx:03d}.csv")).read_text()
            assert written == "\n".join(lines) + "\n"

    def test_manifest_lists_all_files(self, tmp_path):
        path = write_config(tmp_path, "s.json", solve_config())
        runner = CliRunner()
        res = runner.invoke(main, ["solve", "--config", path, "--out", str(tmp_path / "out")])
        assert res.exit_code == 0
        run_dir = next((tmp_path / "out").iterdir())
        manifest = json.loads((run_dir / "manifest.json").read_text())
        listed = {f["path"] for f in manifest["files"]}
        on_disk = {
            str(p.relative_to(run_dir))
            for p in run_dir.rglob("*")
            if p.is_file() and p.name != "manifest.json"
        }
        assert listed == on_disk
        assert "reports/picard_trace.json" in listed

    def test_solver_grading_key_unknown_exit_2(self, tmp_path):
        # the Duhamel mesh grading is fixed in the engine, not a setting
        path = write_config(tmp_path, "grading.json", solve_config(solver={"grading": 2.0}))
        res = CliRunner().invoke(main, ["solve", "--config", path, "--out", str(tmp_path / "out")])
        assert res.exit_code == 2
        assert "unknown key(s) ['grading']" in res.output
        assert not (tmp_path / "out").exists()

    def test_config_error_exit_2(self, tmp_path):
        path = write_config(tmp_path, "bad.json", solve_config(bogus=1))
        runner = CliRunner()
        res = runner.invoke(main, ["solve", "--config", path])
        assert res.exit_code == 2

    def test_malformed_json_exit_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        runner = CliRunner()
        res = runner.invoke(main, ["solve", "--config", str(path)])
        assert res.exit_code == 2

    def test_solver_failure_exit_1(self, tmp_path):
        # kdv-burgers with k = 1 is outside the contraction range
        cfg = solve_config(symbol={"name": "kdv-burgers"})
        path = write_config(tmp_path, "inadmissible.json", cfg)
        runner = CliRunner()
        res = runner.invoke(main, ["solve", "--config", path, "--out", str(tmp_path / "out")])
        assert res.exit_code == 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("amplitude,exit_code", [(1e4, 0), (1e20, 0), (1e60, 1), (1e200, 1)])
    def test_calibration_overflow_is_a_named_failure(self, tmp_path, amplitude, exit_code):
        # at 1e60 the calibration probe's Duhamel term has L^4 norm ~1e480;
        # at 1e200 its H^s norm overflows too.  Numpy used to warn "overflow
        # encountered in square" and the run named only a sample time.
        cfg = solve_config(initial_data={"type": "gaussian", "amplitude": amplitude, "width": 4.0})
        path = write_config(tmp_path, "large.json", cfg)
        res = CliRunner().invoke(main, ["solve", "--config", path, "--out", str(tmp_path / "out")])
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert res.exit_code == exit_code
        assert ("solver failure: the calibration probe" in res.output) == (exit_code == 1)
        assert (next((tmp_path / "out").iterdir()) / "manifest.json").exists()

    def test_unconverged_picard_exit_1(self, tmp_path):
        cfg = solve_config(solver={"max_iter": 1, "tol": 1e-30})
        path = write_config(tmp_path, "unconverged.json", cfg)
        runner = CliRunner()
        res = runner.invoke(main, ["solve", "--config", path, "--out", str(tmp_path / "out")])
        assert res.exit_code == 1
        assert "no convergence" in res.output
        run_dir = next((tmp_path / "out").iterdir())
        trace = json.loads((run_dir / "reports" / "picard_trace.json").read_text())
        assert trace["converged"] is False
        assert len(trace["iterates"]) == 1
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert "reports/picard_trace.json" in {f["path"] for f in manifest["files"]}

    def test_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GKDV_OUT", str(tmp_path / "envout"))
        path = write_config(tmp_path, "s.json", solve_config())
        runner = CliRunner()
        res = runner.invoke(main, ["solve", "--config", path])
        assert res.exit_code == 0
        assert (tmp_path / "envout").exists()


class TestVerifyCommand:
    def test_linear_suite_passes(self, tmp_path):
        path = write_config(tmp_path, "v.json", verify_config())
        runner = CliRunner()
        res = runner.invoke(
            main, ["verify", "--config", path, "--suite", "linear", "--out", str(tmp_path / "out")]
        )
        assert res.exit_code == 0
        run_dir = next((tmp_path / "out").iterdir())
        reports = list((run_dir / "reports").glob("*.json"))
        assert len(reports) >= 3
        assert (run_dir / "reports" / "summary.txt").exists()

    def test_null_list_keys_take_their_defaults(self, tmp_path):
        # a null theta_values or hy_exponents used to raise an uncaught TypeError
        cfg = verify_config()
        cfg["verify"].update(theta_values=None, hy_exponents=None)
        path = write_config(tmp_path, "v.json", cfg)
        res = CliRunner().invoke(
            main, ["verify", "--config", path, "--suite", "linear", "--out", str(tmp_path / "out")]
        )
        assert res.exit_code == 0
        run_dir = next((tmp_path / "out").iterdir())
        names = {p.name for p in (run_dir / "reports").glob("*.json")}
        assert {"multiplier-decay-bracket-pure-power-4-theta1.json",
                "hausdorff-young-p2.json", "hausdorff-young-p4.json"} <= names

    def test_failed_check_keeps_finished_reports(self, tmp_path):
        # the weighted-linear check raises on a 1e300 torus; the
        # multiplier-decay report before it used to be discarded
        cfg = verify_config(grid={"length": 1e300, "n_points": 256})
        path = write_config(tmp_path, "v.json", cfg)
        res = CliRunner().invoke(
            main, ["verify", "--config", path, "--suite", "linear", "--out", str(tmp_path / "out")]
        )
        assert res.exit_code == 1
        assert "verification failure: " in res.output
        run_dir = next((tmp_path / "out").iterdir())
        name = "reports/multiplier-decay-bracket-pure-power-4-theta1.json"
        assert json.loads((run_dir / name).read_text())["verdict"] == "pass"
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert name in {entry["path"] for entry in manifest["files"]}

    def test_rerun_replaces_the_run_directory(self, tmp_path):
        # --suite is not part of the run id; the linear run used to keep the
        # nonlinear run's reports, and its manifest vouched for them
        path = write_config(tmp_path, "v.json", verify_config())
        out = tmp_path / "out"
        runner = CliRunner()
        args = ["verify", "--config", path, "--out", str(out), "--suite"]
        assert runner.invoke(main, [*args, "nonlinear"]).exit_code == 1
        (out / "other.txt").write_text("not a run\n")
        assert runner.invoke(main, [*args, "linear"]).exit_code == 0
        assert (out / "other.txt").read_text() == "not a run\n"
        run_dir = next(p for p in out.iterdir() if p.is_dir())
        manifest = json.loads((run_dir / "manifest.json").read_text())
        listed = {entry["path"] for entry in manifest["files"]}
        on_disk = {
            str(p.relative_to(run_dir))
            for p in run_dir.rglob("*")
            if p.is_file() and p.name != "manifest.json"
        }
        assert listed == on_disk
        stale = ("reports/nonlinear-growth-", "reports/contraction-scaling-")
        assert not any(name.startswith(stale) for name in listed)

    @pytest.mark.filterwarnings("error")
    def test_large_pure_power_runs_without_overflow_warning(self, tmp_path):
        # |xi|^190 overflows to inf, so Phi = -inf; numpy used to warn about it
        path = write_config(tmp_path, "v.json",
                            verify_config(symbol={"name": "pure-power", "p": 190.0}))
        res = CliRunner().invoke(
            main, ["verify", "--config", path, "--suite", "linear", "--out", str(tmp_path / "out")]
        )
        assert res.exception is None
        assert res.exit_code == 0

    def test_bad_grid_exit_2_without_run_dir(self, tmp_path):
        path = write_config(tmp_path, "grid.json",
                            verify_config(grid={"length": 100.0, "n_points": 100}))
        res = CliRunner().invoke(main, ["verify", "--config", path, "--out", str(tmp_path / "out")])
        assert res.exit_code == 2
        assert "config error" in res.output
        assert not (tmp_path / "out").exists()

    def test_inadmissible_pair_skips_contraction(self, tmp_path):
        cfg = verify_config(symbol={"name": "kdv-burgers"})
        cfg["initial_data"] = {"type": "zero"}
        del cfg["initial_data"]  # verify config takes no initial_data section
        path = write_config(tmp_path, "v2.json", cfg)
        runner = CliRunner()
        res = runner.invoke(
            main,
            ["verify", "--config", path, "--suite", "nonlinear", "--out", str(tmp_path / "out")],
        )
        assert res.exit_code == 0
        run_dir = next((tmp_path / "out").iterdir())
        payloads = [json.loads(p.read_text()) for p in (run_dir / "reports").glob("*.json")]
        verdicts = {p["estimate_id"]: p["verdict"] for p in payloads}
        skipped = [v for key, v in verdicts.items() if key.startswith("contraction")]
        assert skipped == ["skipped"]
        growth = [v for key, v in verdicts.items() if key.startswith("nonlinear-growth")]
        assert growth == ["skipped"]

    def test_fixed_order_symbol_with_other_p_exit_2(self, tmp_path):
        # kdv-ks used to run at its own p = 4 and exit 0
        cfg = verify_config(symbol={"name": "kdv-ks", "p": 6.0})
        path = write_config(tmp_path, "ks6.json", cfg)
        res = CliRunner().invoke(main, ["verify", "--config", path, "--suite", "linear",
                                        "--out", str(tmp_path / "out")])
        assert res.exit_code == 2
        assert "fixed order" in res.output
        assert not (tmp_path / "out").exists()

    def test_bad_suite_exit_2(self, tmp_path):
        cfg = verify_config(suite="everything")
        path = write_config(tmp_path, "v3.json", cfg)
        runner = CliRunner()
        res = runner.invoke(main, ["verify", "--config", path])
        assert res.exit_code == 2


class TestSweepCommand:
    def sweep_cfg(self):
        cfg = verify_config()
        cfg["sweep"] = {"k": [1.0], "p": [4.0]}
        cfg["suite"] = "linear"
        return cfg

    def test_single_point_matches_verify(self, tmp_path):
        runner = CliRunner()
        vpath = write_config(tmp_path, "v.json", verify_config())
        res_v = runner.invoke(
            main, ["verify", "--config", vpath, "--suite", "linear", "--out", str(tmp_path / "vo")]
        )
        assert res_v.exit_code == 0
        spath = write_config(tmp_path, "s.json", self.sweep_cfg())
        res_s = runner.invoke(main, ["sweep", "--config", spath, "--out", str(tmp_path / "so")])
        assert res_s.exit_code == 0
        run_dir = next((tmp_path / "so").iterdir())
        rows = (run_dir / "data" / "sweep.csv").read_text().splitlines()
        header, body = rows[0], rows[1:]
        assert header == "k,p,s,estimate_id,theoretical,fitted,verdict"
        vdir = next((tmp_path / "vo").iterdir())
        fitted_verify = {}
        for p in (vdir / "reports").glob("*.json"):
            payload = json.loads(p.read_text())
            fitted_verify[payload["estimate_id"]] = payload["fitted_exponent"]
        for line in body:
            parts = line.split(",")
            estimate_id, fitted = parts[3], parts[5]
            if fitted:
                assert float(fitted) == fitted_verify[estimate_id]

    def test_cartesian_counts(self, tmp_path):
        cfg = self.sweep_cfg()
        cfg["sweep"] = {"k": [1.0, 2.0], "p": [4.0, 5.0]}
        cfg["verify"]["theta_values"] = [1.0]
        path = write_config(tmp_path, "s2.json", cfg)
        runner = CliRunner()
        res = runner.invoke(main, ["sweep", "--config", path, "--out", str(tmp_path / "out")])
        assert res.exit_code == 0
        run_dir = next((tmp_path / "out").iterdir())
        rows = (run_dir / "data" / "sweep.csv").read_text().splitlines()[1:]
        combos = {tuple(r.split(",")[:3]) for r in rows}
        assert len(combos) == 4

    @pytest.mark.parametrize("sweep", [{"p": [4.0, -1.0]}, {"k": [1.0, -2.0]}])
    def test_invalid_combination_exit_2(self, tmp_path, sweep):
        cfg = self.sweep_cfg()
        cfg["sweep"] = sweep
        path = write_config(tmp_path, "bad-sweep.json", cfg)
        runner = CliRunner()
        res = runner.invoke(main, ["sweep", "--config", path, "--out", str(tmp_path / "out")])
        assert res.exit_code == 2
        assert "config error" in res.output
        assert not (tmp_path / "out").exists()

    def run_sweep_csv(self, tmp_path, cfg):
        path = write_config(tmp_path, "sweep.json", cfg)
        res = CliRunner().invoke(main, ["sweep", "--config", path, "--out", str(tmp_path / "out")])
        run_dir = next((tmp_path / "out").iterdir())
        rows = (run_dir / "data" / "sweep.csv").read_text().splitlines()[1:]
        return res, [row.split(",") for row in rows]

    def test_fixed_order_symbol_over_k_labels_its_own_p(self, tmp_path):
        # the p column used to read the config's absent symbol.p and crash
        cfg = self.sweep_cfg()
        cfg["symbol"] = {"name": "kdv-ks"}
        cfg["sweep"] = {"k": [1.0, 2.0]}
        res, rows = self.run_sweep_csv(tmp_path, cfg)
        assert res.exit_code == 0
        assert {row[0] for row in rows} == {"1.0", "2.0"}
        assert {row[1] for row in rows} == {"4.0"}

    def test_fixed_order_symbol_over_p_exit_2(self, tmp_path):
        # the p = 6 rows used to be labelled 6.0 but run at p = 4
        cfg = self.sweep_cfg()
        cfg["symbol"] = {"name": "kdv-ks"}
        cfg["sweep"] = {"p": [4.0, 6.0]}
        path = write_config(tmp_path, "ks-p.json", cfg)
        res = CliRunner().invoke(main, ["sweep", "--config", path, "--out", str(tmp_path / "out")])
        assert res.exit_code == 2
        assert "fixed order" in res.output
        assert not (tmp_path / "out").exists()

    def test_tabulated_symbol_over_p_runs_each_p(self, tmp_path):
        # the sweep's p used to be ignored for a tabulated symbol
        cfg = self.sweep_cfg()
        cfg["symbol"] = {"name": "custom", "p": 3.0, "q": 1.0, "c_phi1": 2.0, "eta": 1.0,
                         "table": [[0.0, 0.0], [1.0, 1.5], [10.0, 4.0]]}
        cfg["sweep"] = {"p": [4.0, 6.0]}
        _, rows = self.run_sweep_csv(tmp_path, cfg)
        decay = {row[1]: float(row[4]) for row in rows if row[3].startswith("multiplier-decay")}
        assert decay == {"4.0": pytest.approx(-1.0 / 4.0), "6.0": pytest.approx(-1.0 / 6.0)}

    def test_jobs_config_key_rejected(self, tmp_path):
        # --jobs is the only parallelism control; a config key would be ignored
        cfg = self.sweep_cfg()
        cfg["jobs"] = 4
        path = write_config(tmp_path, "jobs-sweep.json", cfg)
        res = CliRunner().invoke(main, ["sweep", "--config", path, "--out", str(tmp_path / "out")])
        assert res.exit_code == 2
        assert "unknown key(s) ['jobs']" in res.output
        assert not (tmp_path / "out").exists()

    def test_parallel_jobs_match_serial(self, tmp_path):
        cfg = self.sweep_cfg()
        cfg["sweep"] = {"k": [1.0, 2.0]}
        path = write_config(tmp_path, "s3.json", cfg)
        runner = CliRunner()
        outputs = {}
        for label, jobs in (("serial", "1"), ("parallel", "2")):
            res = runner.invoke(
                main,
                ["sweep", "--config", path, "--jobs", jobs, "--out", str(tmp_path / label)],
            )
            assert res.exit_code == 0
            run_dir = next((tmp_path / label).iterdir())
            outputs[label] = (run_dir / "data" / "sweep.csv").read_text()
        assert outputs["serial"] == outputs["parallel"]

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_nonpositive_jobs_exit_2_without_run_dir(self, tmp_path, jobs):
        # --jobs 0 and below used to run serially without a word
        path = write_config(tmp_path, "s.json", self.sweep_cfg())
        res = CliRunner().invoke(
            main, ["sweep", "--config", path, "--jobs", jobs, "--out", str(tmp_path / "out")]
        )
        assert res.exit_code == 2
        assert "--jobs" in res.output
        assert not (tmp_path / "out").exists()

    def test_pool_never_outnumbers_the_combinations(self, tmp_path, monkeypatch):
        # the pool forks every worker it is asked for, so --jobs 64 used to fork 64
        pools = []

        class SerialPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
        cfg = self.sweep_cfg()
        cfg["sweep"] = {"k": [1.0, 2.0]}
        path = write_config(tmp_path, "s2.json", cfg)
        outputs = {}
        for jobs in ("1", "64"):
            res = CliRunner().invoke(
                main, ["sweep", "--config", path, "--jobs", jobs, "--out", str(tmp_path / jobs)]
            )
            assert res.exit_code == 0
            outputs[jobs] = (next((tmp_path / jobs).iterdir()) / "data" / "sweep.csv").read_text()
        assert pools == [2]
        assert outputs["64"] == outputs["1"]

    @pytest.mark.parametrize("one_cpu", ["affinity", "cpu_count"])
    def test_pool_never_outnumbers_the_usable_cpus(self, tmp_path, monkeypatch, one_cpu):
        # --jobs 4 on a process pinned to one CPU used to fork 2 workers for 2 combinations
        pools = []

        def no_pool(max_workers):
            pools.append(max_workers)
            raise AssertionError("one usable CPU needs no pool")

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
        if one_cpu == "affinity":
            monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        else:
            monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
        cfg = self.sweep_cfg()
        cfg["sweep"] = {"k": [1.0, 2.0]}
        path = write_config(tmp_path, "s2.json", cfg)
        outputs = {}
        for jobs in ("1", "4"):
            res = CliRunner().invoke(
                main, ["sweep", "--config", path, "--jobs", jobs, "--out", str(tmp_path / jobs)]
            )
            assert res.exit_code == 0
            outputs[jobs] = (next((tmp_path / jobs).iterdir()) / "data" / "sweep.csv").read_text()
        assert pools == []
        assert outputs["4"] == outputs["1"]

    def test_oversized_sweep_exit_2_before_any_combination_is_built(self, tmp_path, monkeypatch):
        # a 101 x 100 sweep used to build and check all 10,100 combinations, then run them
        def not_built(self):
            raise AssertionError("no combination may be built")

        monkeypatch.setattr(RunConfig, "sweep_configs", not_built)
        cfg = self.sweep_cfg()
        cfg["sweep"] = {"k": [1.0 + 0.01 * i for i in range(101)],
                        "s": [0.01 * i for i in range(100)]}
        path = write_config(tmp_path, "big.json", cfg)
        res = CliRunner().invoke(main, ["sweep", "--config", path, "--out", str(tmp_path / "out")])
        assert res.exit_code == 2
        assert "10100 combinations" in res.output
        assert not (tmp_path / "out").exists()


# One key of a valid config set to a value from this list at a time.
BOUNDARY_VALUES = [float("nan"), float("inf"), float("-inf"), 0, -1, 2.5, 1e300, "x", True,
                   None, [], {}]
INTEGER_KEYS = {"seed", "n_points", "n_seeds", "n_pairs", "panels", "max_iter"}


def boundary_bases():
    """Valid configs, each under its name with the command it runs, that
    between them set every key outside the sweep section."""
    solve = solve_config(solver={"max_iter": 20, "tol": 1e-10, "panels": 16})
    solve["grid"]["dealias_fraction"] = 0.5
    solve["symbol"]["eta"] = 1.0
    solve["initial_data"]["center"] = 1.0
    rough = solve_config(initial_data=INITIAL_DATA["rough"])
    tabulated = verify_config(suite="linear", symbol={
        **TABULATED, "eta": 1.0, "table": [[0.0, 0.0], [1.0, 1.5], [10.0, 4.0]]})
    tabulated["verify"].update(tau_window=[1e-4, 1e-2], t_horizon=0.5)
    return {"solve": ("solve", solve), "verify": ("verify", verify_config(suite="linear")),
            "solve-rough": ("solve", rough), "verify-tabulated": ("verify", tabulated)}


BOUNDARY_BASES = boundary_bases()
BOUNDARY_KEYS = [
    (name, section, key)
    for name, (_, base) in BOUNDARY_BASES.items()
    for section, keys in [(None, list(base))] + [
        (section, list(sec)) for section, sec in base.items() if isinstance(sec, dict)]
    for key in keys
]
boundary_cases = st.tuples(st.sampled_from(BOUNDARY_KEYS), st.sampled_from(BOUNDARY_VALUES))


def test_boundary_keys_cover_every_row_of_the_key_table_outside_sweep():
    accepted = {key if name is None else f"{name}.{key}"
                for name, rows in runconfig._KEYS.items() if name != "sweep" for key in rows}
    sampled = {key if section is None else f"{section}.{key}"
               for _, section, key in BOUNDARY_KEYS}
    assert accepted <= sampled


def with_boundary_value(case):
    (name, section, key), value = case
    command, base = BOUNDARY_BASES[name]
    raw = copy.deepcopy(base)
    (raw if section is None else raw[section])[key] = value
    return command, raw


def integer_values(raw):
    """(key, value) of every integer key the config sets, in any section."""
    for name, value in raw.items():
        if isinstance(value, dict):
            yield from integer_values(value)
        elif name in INTEGER_KEYS and value is not None:
            yield name, value


class TestConfigBoundary:
    """Extreme values overflow numpy arithmetic on purpose; only the outcome is checked."""

    @settings(max_examples=300, deadline=None)
    @given(case=boundary_cases)
    def test_config_error_or_exact_integers(self, case):
        command, raw = with_boundary_value(case)
        try:
            cfg = RunConfig.from_dict(raw, command)
            with np.errstate(all="ignore"):
                prob = cfg.build_problem()
        except ConfigError:
            return
        for name, value in integer_values(raw):
            assert type(value) in (int, float) and value == int(value), (name, value)
        assert prob.grid.n_points == raw["grid"]["n_points"]
        assert type(cfg.seed) is int and cfg.seed == raw["seed"]

    @settings(max_examples=25, deadline=None)
    @given(case=boundary_cases)
    def test_cli_exits_0_1_or_2(self, case):
        command, raw = with_boundary_value(case)
        with tempfile.TemporaryDirectory() as tmp:
            path = write_config(Path(tmp), "boundary.json", raw)
            out = Path(tmp) / "out"
            with np.errstate(all="ignore"):
                res = CliRunner().invoke(main, [command, "--config", path, "--out", str(out)])
            assert isinstance(res.exception, (SystemExit, type(None))), res.exception
            assert res.exit_code in (0, 1, 2)
            assert res.exit_code != 2 or not out.exists()
