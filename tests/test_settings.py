"""How many settings src/gkdv exposes: every parameter default is a setting
that tests and benchmarks must cover, so the count may only fall."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "gkdv"

# The defaulted parameters of src/gkdv once each setting has one owner.
MAX_DEFAULTED = 53


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
