"""Static checks on the package layout.

Every name a ``logmult`` module lists in ``__all__`` exists: a stale entry
otherwise fails only at ``from logmult.<module> import *``.  FFT calls live in
``field.py`` alone, so one module owns every transform and its sizes.  A
spectrum's full-size ``coefficients`` are scattered from its boxes on each
read, so they are read only where a full array is the point.
"""

import ast
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


def test_full_size_coefficients_are_read_only_at_named_sites():
    sites = set()
    for path in sorted(Path(logmult.__file__).parent.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if isinstance(func, ast.FunctionDef):
                for node in ast.walk(func):
                    if isinstance(node, ast.Attribute) and node.attr == "coefficients":
                        sites.add((path.name, func.name))
    assert sites == {("multiplier.py", "spectrum_on")}
