"""The demos import only names that magic_meter defines.

Running all six demos takes about 20 s on a 2-core x86 machine, 18 s of it
in demo 04, so this reads their imports with `ast` instead: a rename in the
package then fails here rather than in a demo.  The CI workflow runs the
demos themselves.
"""
import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def _package_imports(path: Path):
    """(module, name) for each `from magic_meter... import name`, and
    (module, None) for each `import magic_meter...`, in one demo."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "magic_meter":
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((a.name, None) for a in node.names if a.name.split(".")[0] == "magic_meter")


def test_demos_are_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_exist(demo):
    imports = list(_package_imports(demo))
    assert imports, f"{demo.name} imports nothing from magic_meter"
    for module, name in imports:
        mod = importlib.import_module(module)
        assert name is None or hasattr(mod, name), f"{demo.name}: {module} has no {name}"
