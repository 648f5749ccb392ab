"""The public surface: every name a module exports exists.

A deleted function or class must leave its module's ``__all__`` with
it, or ``from papr_shaper.<module> import *`` fails for every caller.
No module imports another's private (``_``-prefixed) names. Every
``module.name``, ``kern.name`` and ``c.name`` the README cites exists.
"""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import papr_shaper
from papr_shaper import errors
from papr_shaper.modem import Constellation, ModemKernel, build_constellation, get_kernel

from helpers import SINE1, cfg_for

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
    assert sorted(errors.__all__) == sorted(defined + ["check_count"])
    assert issubclass(errors.ConfigError, ValueError)


def _readme_references():
    """(owner, name) of every `owner.name...` code span of the README
    whose owner is a package module, ``kern`` or ``c``; file names such
    as `cli.py` are skipped."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    spans = re.findall(r"`([^`\n]+)`", readme.read_text(encoding="utf-8"))
    refs = {m.groups() for m in (re.match(r"(\w+)\.(\w+)", span) for span in spans) if m}
    return sorted((owner, name) for owner, name in refs
                  if (owner in MODULES or owner in ("kern", "c")) and name != "py")


def test_readme_cites_only_names_that_exist():
    owners = {
        "kern": (ModemKernel, get_kernel(cfg_for(N=4, pulse=SINE1))),
        "c": (Constellation, build_constellation(4)),
        **{m: (importlib.import_module(f"papr_shaper.{m}"),) for m in MODULES},
    }
    refs = _readme_references()
    missing = [f"{owner}.{name}" for owner, name in refs
               if not any(hasattr(o, name) for o in owners[owner])]
    assert len(refs) > 20 and missing == []
