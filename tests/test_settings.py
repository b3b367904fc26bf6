"""How many settings and public names src/gkdv exposes: every parameter
default is a setting that tests and benchmarks must cover, and every exported
name needs a caller outside the tests, so both may only fall."""

import ast
import re
from pathlib import Path

import gkdv

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "gkdv"

# The defaulted parameters of src/gkdv once each setting has one owner.
MAX_DEFAULTED = 40

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


def test_public_names_have_a_caller():
    """Every exported name is used in src/gkdv (apart from the package's
    __init__.py and its own def or class line) or in bench/, or is a paper name."""
    lines = [line for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"
             for line in path.read_text().splitlines()]
    lines += [line for path in sorted((ROOT / "bench").rglob("*.py"))
              for line in path.read_text().splitlines()]

    def has_caller(name):
        use = re.compile(rf"\b{name}\b")
        definition = re.compile(rf"\s*(def|class)\s+{name}\b")
        return any(use.search(line) and not definition.match(line) for line in lines)

    uncalled = [name for name in gkdv.__all__ if name not in PAPER_NAMES and not has_caller(name)]
    assert uncalled == []
