"""The scripts that run outside the test suite import only names meltfront has.

They are the demos, the benchmark harness, the identity gate under
``tools/`` and README's ``python`` blocks.  A public name removed from the
package would otherwise surface only when one of them is run.  Each script
is parsed, not run: every ``meltfront`` module it imports is imported, and
every name it takes from one must resolve.  So must every name that
``__all__`` of meltfront or of a submodule lists, or ``from <module> import *``
fails.
"""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted([*ROOT.glob("demos/*.py"), *ROOT.glob("benchmarks/*.py"),
                  *ROOT.glob("tools/*.py")])


def embedded_scripts():
    """``(label, source)`` per sub-command of the identity gate that imports
    meltfront, and per fenced ``python`` block of README.md.

    The sub-commands ``march`` and ``replace`` of ``tools/identity.py`` were
    the heredocs ``march.py`` and ``replace.py`` of the CI workflow; their
    labels keep those names."""
    gate = (ROOT / "tools" / "identity.py").read_text()
    for node in ast.parse(gate).body:
        if isinstance(node, ast.FunctionDef) and node.name in ("march", "replace"):
            yield f"tests.yml/{node.name}.py", ast.get_source_segment(gate, node)
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.S | re.M)
    for k, body in enumerate(blocks, start=1):
        yield f"README.md/python-{k}", body


EMBEDDED = list(embedded_scripts())


def meltfront_imports(source: str, filename: str):
    """``(module, name)`` per import from meltfront in ``source``; ``name`` is
    None for a plain ``import meltfront...``."""
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "meltfront":
                    yield alias.name, None
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and (node.module or "").split(".")[0] == "meltfront":
            for alias in node.names:
                yield node.module, alias.name


def assert_imports_resolve(source: str, label: str):
    for module, name in meltfront_imports(source, label):
        owner = importlib.import_module(module)
        if name is None or name == "*" or hasattr(owner, name):
            continue
        # ``from meltfront import cli`` names a submodule
        try:
            importlib.import_module(f"{module}.{name}")
        except ModuleNotFoundError as exc:
            if exc.name != f"{module}.{name}":
                raise
            pytest.fail(f"{label} imports {name!r} from {module}, which has no such name")


def test_scripts_are_found():
    names = {f"{p.parent.name}/{p.name}" for p in SCRIPTS}
    assert {"demos/front_3d.py", "benchmarks/workloads.py", "tools/identity.py"} <= names


def test_embedded_scripts_are_found():
    labels = {label for label, _ in EMBEDDED}
    assert {"tests.yml/march.py", "tests.yml/replace.py", "README.md/python-1",
            "README.md/python-2"} <= labels
    for label, source in EMBEDDED:
        assert any(meltfront_imports(source, label)), f"{label} imports nothing from meltfront"


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_script_imports_resolve(path):
    assert_imports_resolve(path.read_text(), path.name)


@pytest.mark.parametrize("label, source", EMBEDDED, ids=[label for label, _ in EMBEDDED])
def test_embedded_script_imports_resolve(label, source):
    assert_imports_resolve(source, label)


def test_every_exported_name_resolves():
    package = importlib.import_module("meltfront")
    modules = [package] + [importlib.import_module(f"meltfront.{m.name}")
                           for m in pkgutil.iter_modules(package.__path__)]
    stale = [f"{m.__name__}.{name}" for m in modules for name in getattr(m, "__all__", ())
             if not hasattr(m, name)]
    assert len(modules) > 8 and stale == []
