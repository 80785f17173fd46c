"""Every name a ``logmult`` module lists in ``__all__`` exists.

A stale entry otherwise fails only at ``from logmult.<module> import *``.
"""

import importlib
import pkgutil

import pytest

import logmult

MODULES = sorted(info.name for info in pkgutil.iter_modules(logmult.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"logmult.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
