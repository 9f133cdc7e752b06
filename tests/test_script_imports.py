"""The scripts that run outside the test suite import only names meltfront has.

They are the demos, the benchmark harness, the Python heredocs of the CI
workflow and README's ``python`` blocks.  A public name removed from the
package would otherwise surface only when one of them is run.  Each script
is parsed, not run: every ``meltfront`` module it imports is imported, and
every name it takes from one must resolve.
"""

import ast
import importlib
import re
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted([*ROOT.glob("demos/*.py"), *ROOT.glob("benchmarks/*.py")])


def embedded_scripts():
    """``(label, source)`` per ``cat > ".../<name>.py" <<'EOF'`` heredoc of the
    CI workflow and per fenced ``python`` block of README.md."""
    workflow = ROOT / ".github" / "workflows" / "tests.yml"
    heredoc = re.compile(r"""cat > "[^"\n]*/([\w.]+\.py)" <<'EOF'\n(.*?)\n[ \t]*EOF\n""", re.S)
    for name, body in heredoc.findall(workflow.read_text()):
        yield f"tests.yml/{name}", textwrap.dedent(body)
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
    assert {"demos/front_3d.py", "benchmarks/workloads.py"} <= names


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
