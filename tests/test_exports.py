"""The public surface: every name a module exports exists.

A deleted function or class must leave its module's ``__all__`` with
it, or ``from papr_shaper.<module> import *`` fails for every caller.
No module imports another's private (``_``-prefixed) names.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import papr_shaper
from papr_shaper import errors

MODULES = sorted(m.name for m in pkgutil.iter_modules(papr_shaper.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"papr_shaper.{name}")
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []


def test_no_module_imports_a_private_name():
    found = []
    for path in sorted(Path(papr_shaper.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                found += [f"{path.name}: {node.module}.{a.name}"
                          for a in node.names if a.name.startswith("_")]
    assert found == []


def test_errors_export_every_error_class():
    defined = [n for n, v in vars(errors).items()
               if isinstance(v, type) and v.__module__ == errors.__name__]
    assert sorted(errors.__all__) == sorted(defined)
    assert issubclass(errors.ConfigError, ValueError)
