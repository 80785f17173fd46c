"""Static checks on the package layout.

Every name a ``logmult`` module lists in ``__all__`` exists: a stale entry
otherwise fails only at ``from logmult.<module> import *``.  FFT calls live in
``field.py`` alone, so one module owns every transform and its sizes.
"""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import logmult

MODULES = sorted(info.name for info in pkgutil.iter_modules(logmult.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"logmult.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_fft_is_called_only_in_field():
    pattern = re.compile(r"\b(np|numpy)\.fft\b|from numpy import fft\b|import numpy\.fft\b")
    users = sorted(
        path.name for path in Path(logmult.__file__).parent.glob("*.py") if pattern.search(path.read_text())
    )
    assert users == ["field.py"]
