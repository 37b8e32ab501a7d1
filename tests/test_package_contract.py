"""The package declares only what its code keeps: every console script imports, every
exported name resolves, every module uses each name it imports, no public function
takes a parameter named with a leading underscore, the kernel formula, the distance
GEMM, the Cholesky factorization and the freezing of an array are each written in one
place, ranking computes kernel values only through the kernel module's public passes,
and every function that takes a Gram is checked with a raw array in its place."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import protoselect

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


def test_every_exported_name_resolves():
    assert len(set(protoselect.__all__)) == len(protoselect.__all__)
    assert not [name for name in protoselect.__all__ if not hasattr(protoselect, name)]


# The functions that may call each primitive: a second copy of the kernel formula, or a
# second way to factor a block, fails. Distances are not kernel values, so the one
# function that computes the median bandwidth's exact distances may call cdist too, and
# pdist has no caller. The GEMM of augmented rows, which estimates the median filter's
# squared distances and the mean map's kernel exponents, is kernel._gemm alone.
# nnqp._factor is the one Cholesky factorization, so scipy.linalg's wrappers have no
# caller at all.
_ONLY_CALLER = {"cdist": {"kernel._cross_kernel", "kernel._exact_distances"},
                "exp": {"kernel._cross_kernel"}, "pdist": set(),
                "matmul": {"kernel._gemm"},
                "dpotrf": {"nnqp._factor"}, "cho_factor": set(), "cho_solve": set(),
                "cholesky": set(), "solve_triangular": set()}


def _calls(node, where):
    """(callee name, enclosing module.function) of every call below node."""
    for child in ast.iter_child_nodes(node):
        inner = where
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{where}.{child.name}"
        elif isinstance(child, ast.Call):
            func = child.func
            if isinstance(func, ast.Attribute):
                # math.exp of a scalar (the oracle's bounds) is not a kernel
                owner = getattr(func.value, "id", None)
                yield (None if owner == "math" else func.attr), where
            else:
                yield getattr(func, "id", None), where
        yield from _calls(child, inner)


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_kernel_primitives_have_one_caller(path):
    calls = _calls(ast.parse(path.read_text()), path.stem)
    stray = [(name, where) for name, where in calls
             if name in _ONLY_CALLER and where not in _ONLY_CALLER[name]]
    assert not stray, f"{path.name} calls primitives outside their own callers: {stray}"


def test_ranking_imports_no_private_kernel_name():
    # Then every kernel pass rank_sources takes is a mean_map or kernel_matrix call,
    # which perfbench's spans wrap and time as kernel work.
    tree = ast.parse((_PYPROJECT.parent / "src" / "protoselect" / "ranking.py").read_text())
    private = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "kernel"
               for alias in node.names if alias.name.startswith("_")]
    assert not private, f"ranking.py imports private kernel names {private}"


def _freezes(node, where):
    """Enclosing module.function of each `.flags.writeable = ...` or `.setflags(...)` below node."""
    for child in ast.iter_child_nodes(node):
        inner = where
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{where}.{child.name}"
        elif isinstance(child, ast.Assign) and any(
                isinstance(t, ast.Attribute) and t.attr == "writeable"
                and isinstance(t.value, ast.Attribute) and t.value.attr == "flags"
                for t in child.targets):
            yield where
        elif (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
              and child.func.attr == "setflags"):
            yield where
        yield from _freezes(child, inner)


def test_arrays_are_frozen_in_one_place():
    # A value class holds an array through errors.as_held, which freezes it with
    # errors.read_only; only the Gram freezes its own diagonal and row views.
    found = sorted(where for path in _MODULES
                   for where in _freezes(ast.parse(path.read_text()), path.stem))
    assert found == ["errors.read_only", "kernel.KernelMatrix._hold", "kernel.KernelMatrix.rows"]


def _public_functions(tree):
    """Each module-level function and each method of a module-level class, where neither
    the class's name nor the function's starts with an underscore."""
    for node in tree.body:
        public_class = isinstance(node, ast.ClassDef) and not node.name.startswith("_")
        yield from (f for f in (node.body if public_class else [node])
                    if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not f.name.startswith("_"))


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_no_public_function_takes_a_private_parameter(path):
    # A parameter named with an underscore is a setting a caller is told not to set: a
    # caller that needs a private input calls the private function that takes it.
    hidden = [f"{f.name}({a.arg})" for f in _public_functions(ast.parse(path.read_text()))
              for a in (f.args.posonlyargs + f.args.args + f.args.kwonlyargs
                        + [a for a in (f.args.vararg, f.args.kwarg) if a])
              if a.arg.startswith("_")]
    assert not hidden, f"{path.name} has public functions with private parameters: {hidden}"


def test_every_gram_argument_is_checked():
    # test_validation.py gives each function in RAW_GRAM_CALLS a raw array as K and expects
    # InputError; a new public function that takes K must join them.
    from test_validation import RAW_GRAM_CALLS
    takes_gram = set()
    for path in _MODULES:
        module = importlib.import_module(f"protoselect.{path.stem}")
        takes_gram |= {function for name, function in inspect.getmembers(module, inspect.isfunction)
                       if function.__module__ == module.__name__ and not name.startswith("_")
                       and "K" in inspect.signature(function).parameters}
    assert sorted(f.__name__ for f in takes_gram) == sorted(f.__name__ for f in RAW_GRAM_CALLS)
