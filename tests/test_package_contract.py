"""The package declares only what its code keeps: every console script imports."""

import importlib
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

_PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_every_script_target_imports():
    scripts = tomllib.loads(_PYPROJECT.read_text())["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in filter(None, attr.split(".")):
            obj = getattr(obj, part)
        assert callable(obj), f"script {name} names {target}, which is not callable"
