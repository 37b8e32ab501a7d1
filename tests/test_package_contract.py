"""The package declares only what its code keeps: every console script imports, and
every module uses each name it imports."""

import ast
import importlib
from pathlib import Path

import pytest

_PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
_MODULES = sorted(p for p in (_PYPROJECT.parent / "src" / "protoselect").glob("*.py")
                  if p.name != "__init__.py")


def test_every_script_target_imports():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    scripts = tomllib.loads(_PYPROJECT.read_text())["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in filter(None, attr.split(".")):
            obj = getattr(obj, part)
        assert callable(obj), f"script {name} names {target}, which is not callable"


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            imported |= {(alias.asname or alias.name).partition(".")[0] for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert not imported - used, f"{path.name} imports unused {sorted(imported - used)}"
