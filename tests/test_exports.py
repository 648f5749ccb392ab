"""The public surface: every name a module exports exists.

A deleted function or class must leave its module's ``__all__`` with
it, or ``from papr_shaper.<module> import *`` fails for every caller.
"""

import importlib
import pkgutil

import pytest

import papr_shaper
from papr_shaper import errors

MODULES = sorted(m.name for m in pkgutil.iter_modules(papr_shaper.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"papr_shaper.{name}")
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []


def test_errors_export_every_error_class():
    defined = [n for n, v in vars(errors).items()
               if isinstance(v, type) and v.__module__ == errors.__name__]
    assert sorted(errors.__all__) == sorted(defined)
    assert issubclass(errors.ConfigError, ValueError)
