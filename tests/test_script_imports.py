"""The demos and the benchmark harness import only names meltfront has.

They run outside the test suite, so a public name removed from the package
would otherwise surface only when a demo or a benchmark is run.  Each
script is parsed, not run: every ``meltfront`` module it imports is
imported, and every name it takes from one must resolve.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted([*ROOT.glob("demos/*.py"), *ROOT.glob("benchmarks/*.py")])


def meltfront_imports(path: Path):
    """``(module, name)`` per import from meltfront in ``path``; ``name`` is
    None for a plain ``import meltfront...``."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "meltfront":
                    yield alias.name, None
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and (node.module or "").split(".")[0] == "meltfront":
            for alias in node.names:
                yield node.module, alias.name


def test_scripts_are_found():
    names = {f"{p.parent.name}/{p.name}" for p in SCRIPTS}
    assert {"demos/front_3d.py", "benchmarks/workloads.py"} <= names


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_script_imports_resolve(path):
    for module, name in meltfront_imports(path):
        owner = importlib.import_module(module)
        if name is None or name == "*" or hasattr(owner, name):
            continue
        # ``from meltfront import cli`` names a submodule
        try:
            importlib.import_module(f"{module}.{name}")
        except ModuleNotFoundError as exc:
            if exc.name != f"{module}.{name}":
                raise
            pytest.fail(f"{path.name} imports {name!r} from {module}, which has no such name")
