"""How many settings and public names src/gkdv exposes: every parameter
default and every config key is a setting that tests and benchmarks must
cover, and every exported name needs a caller outside the tests, so all three
may only fall."""

import ast
import copy
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gkdv
from gkdv import runconfig
from gkdv.errors import ConfigError
from gkdv.runconfig import RunConfig

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "gkdv"

# The defaulted parameters of src/gkdv once each setting has one owner.
MAX_DEFAULTED = 20

# The leaf keys a config accepts once each verify key feeds one check.
MAX_CONFIG_KEYS = 34

# Exported because they encode the paper's spaces and constants, not because
# the program calls them.
PAPER_NAMES = {"z_norm", "z_tilde_norm", "symbol_constants"}


def defaulted_parameter_count(root: Path) -> int:
    """Positional and keyword-only defaults of every def, private ones included."""
    count = 0
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                count += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
    return count


def test_defaulted_parameter_count():
    assert defaulted_parameter_count(SRC) <= MAX_DEFAULTED


def config_key_count() -> int:
    """The top-level keys that are not sections, plus the keys of every section."""
    top_level = set().union(*runconfig._ALLOWED.values()) - set(runconfig._SECTIONS)
    return len(top_level) + sum(len(keys) for keys in runconfig._SECTIONS.values())


def test_config_key_count():
    assert config_key_count() <= MAX_CONFIG_KEYS


def accepted_keys() -> set:
    """The top-level keys that are not sections, plus section.key for the keys
    of every section."""
    top_level = set().union(*runconfig._ALLOWED.values()) - set(runconfig._SECTIONS)
    return top_level | {f"{name}.{key}" for name, keys in runconfig._SECTIONS.items()
                        for key in keys}


def readme_key_rows() -> set:
    """The keys named in backticks in the first column of the README's key table."""
    lines = (ROOT / "README.md").read_text().splitlines()
    start = lines.index("| key | accepted values | fed to |") + 2
    rows = itertools.takewhile(lambda line: line.startswith("|"), lines[start:])
    return {key for row in rows for key in re.findall(r"`([^`]+)`", row.split("|")[1])}


def test_readme_key_table_matches_the_accepted_keys():
    assert readme_key_rows() == accepted_keys()


# A valid config of each command; every accepted key is a key of one of them.
BASES = {
    "solve": {"symbol": {"name": "kdv-ks"}, "grid": {"length": 100.0, "n_points": 256},
              "seed": 1, "initial_data": {"type": "zero"}},
    "verify": {"symbol": {"name": "kdv-ks"}, "grid": {"length": 100.0, "n_points": 256},
               "seed": 1},
    "sweep": {"symbol": {"name": "kdv-ks"}, "grid": {"length": 100.0, "n_points": 256},
              "seed": 1, "sweep": {"k": [1.0]}},
}
STRING_KEYS = {"mode", "suite", "symbol.name", "initial_data.type"}


def with_key(key: str, value) -> tuple:
    """The command and a copy of its base config with key set to value."""
    section, _, leaf = key.rpartition(".")
    command = next(c for c in BASES if (section or leaf) in runconfig._ALLOWED[c])
    raw = copy.deepcopy(BASES[command])
    (raw.setdefault(section, {}) if section else raw)[leaf] = value
    return command, raw


def test_every_key_refuses_a_bool_and_every_number_key_a_numeric_string():
    """A key added without a row of the key table would accept both."""
    for key in sorted(accepted_keys()):
        values = [True] if key in STRING_KEYS else [True, "1"]
        for value in values:
            command, raw = with_key(key, value)
            with pytest.raises(ConfigError, match=re.escape(repr(key.split(".")[-1]))):
                RunConfig.from_dict(raw, command)


def test_cli_decodes_no_config_itself():
    """cli.py reads config values only through RunConfig.opts: no .raw and no
    private name of runconfig, so config decoding stays in one module."""
    tree = ast.parse((SRC / "cli.py").read_text())
    raw_reads = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and node.attr == "raw"]
    private = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "runconfig"
               for alias in node.names if alias.name.startswith("_")]
    private += [node.attr for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and isinstance(node.value, ast.Name) and node.value.id == "runconfig"]
    assert raw_reads == [] and private == []


# Registered on the click group by decorator, so nothing calls them by name.
CLICK_COMMANDS = {"solve_cmd", "verify_cmd", "sweep_cmd"}


def module_level_names(root: Path) -> set:
    """Every def and class at the top level of a module, private ones included."""
    return {node.name for path in sorted(root.glob("*.py"))
            for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}


def test_public_names_have_a_caller():
    """Every exported name and every module-level def and class is used in
    src/gkdv (apart from the package's __init__.py and its own def or class
    line) or in bench/, or is a paper name or a click command."""
    lines = [line for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"
             for line in path.read_text().splitlines()]
    lines += [line for path in sorted((ROOT / "bench").rglob("*.py"))
              for line in path.read_text().splitlines()]

    def has_caller(name):
        use = re.compile(rf"\b{name}\b")
        definition = re.compile(rf"\s*(def|class)\s+{name}\b")
        return any(use.search(line) and not definition.match(line) for line in lines)

    names = set(gkdv.__all__) | module_level_names(SRC)
    uncalled = sorted(name for name in names - PAPER_NAMES - CLICK_COMMANDS
                      if not has_caller(name))
    assert uncalled == []


# Libraries no op of the paper's machinery uses: OpenSSL (hashing a run's
# config and files), the process pool (which no run loads: side_by_side
# forks its workers bare) and numpy.polynomial with its LAPACK set-up.
NOT_LOADED_AT_IMPORT = {"hashlib", "_hashlib", "multiprocessing",
                        "concurrent.futures.process", "numpy.polynomial"}


def test_import_loads_no_hashing_pool_or_polynomial_modules():
    """Importing gkdv and its CLI loads none of them.  The baseline is the set
    a bare numpy import loads, since numpy 1.x imports numpy.polynomial itself."""
    probe = ("import sys, numpy\n"
             "base = set(sys.modules)\n"
             "import gkdv, gkdv.cli\n"
             "print('\\n'.join(sorted(set(sys.modules) - base)))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    added = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                           capture_output=True, text=True).stdout.split()
    assert "gkdv.cli" in added
    assert sorted(NOT_LOADED_AT_IMPORT & set(added)) == []


def test_side_by_side_runs_load_no_process_pool():
    """A contraction check and a 2-job sweep fork their workers bare, so they
    load neither multiprocessing nor concurrent.futures.process."""
    probe = ("import json, os, sys, tempfile\n"
             "import numpy as np\n"
             "from gkdv import cli, tasks, verifier\n"
             "from gkdv.solver import IvpProblem\n"
             "from gkdv.spectral import GridSpec, zero_field\n"
             "from gkdv.symbols import builtin_symbol\n"
             "tasks.usable_cpus = lambda: 2\n"
             "forks, fork = [], os.fork\n"
             "def counted_fork():\n"
             "    pid = fork()\n"
             "    forks.append(pid)\n"
             "    return pid\n"
             "os.fork = counted_fork\n"
             "grid = GridSpec(50 * np.pi, 256)\n"
             "prob = IvpProblem(symbol=builtin_symbol('kdv-ks'), grid=grid, k=1.0,\n"
             "                  mode='conservative', s=0.0, initial_data=zero_field(grid))\n"
             "verifier.verify_contraction_scaling(prob, seed=0, n_pairs=1)\n"
             "with tempfile.TemporaryDirectory() as tmp:\n"
             "    path = os.path.join(tmp, 'sweep.json')\n"
             "    with open(path, 'w') as out:\n"
             "        json.dump(json.loads(sys.argv[1]), out)\n"
             "    code = cli.run_sweep(path, 2, tmp)\n"
             "print(json.dumps({'code': code, 'forks': len(forks),\n"
             "                  'loaded': sorted(set(sys.argv[2:]) & set(sys.modules))}))\n")
    sweep = {**BASES["sweep"], "suite": "linear", "sweep": {"k": [1.0, 2.0]}}
    pools = ["multiprocessing", "concurrent.futures.process"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", probe, json.dumps(sweep), *pools], env=env,
                         check=True, capture_output=True, text=True).stdout
    # one fork for the check's 6 T values on 2 workers, one for the 2 combinations
    assert json.loads(out.splitlines()[-1]) == {"code": 0, "forks": 2, "loaded": []}
