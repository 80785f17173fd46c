"""Static checks on the package layout.

Every name a ``logmult`` module lists in ``__all__`` exists: a stale entry
otherwise fails only at ``from logmult.<module> import *``.  FFT calls live in
``field.py`` alone, so one module owns every transform and its sizes.  A
translation's complex phase is built by ``field._phase`` alone (behind
``translation_phase`` and the multiplier core, from one split of the shift),
whose argument stays small for any size of shift, packets' phases included;
the fold's twiddles, whose arguments stay small too, are the one other named
site.  A set of certified bins is cut into boxes by ``field.bin_boxes`` only
inside ``field._certified_bins``, the one cached layout every other reader
shares.  A certificate is met with another only by the one band rule,
``field.piece_plan``, and by ``field.convolve``.  In ``lp_ops`` each call plans its pieces in
``_plans``, the one caller of ``piece_plan``, and ``_pieces``, the one caller of
``_inverted``, builds every one.  A counterexample config is validated once, by its own
``CxConfig.validation``, which every builder reads.  Every log law is fitted by
``shifted_lab._log_law_fit``, the one ``np.polyfit`` call.  A spectrum's full-size
``coefficients`` are scattered from its boxes on each read, so they are read
only where a full array is the point.  The CLI uses
only the public names of the other modules.
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


def is_complex_exp(node):
    """A call of some ``exp`` with a complex literal in it: a complex phase being built."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "exp"
        and any(isinstance(c, ast.Constant) and isinstance(c.value, complex) for c in ast.walk(node))
    )


def test_complex_phases_are_built_only_at_named_sites():
    sites, unowned = set(), 0
    for path in sorted(Path(logmult.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        calls = {id(node) for node in ast.walk(tree) if is_complex_exp(node)}
        owned = set()
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                for node in ast.walk(func):
                    if id(node) in calls:
                        sites.add((path.name, func.name))
                        owned.add(id(node))
        unowned += len(calls - owned)
    assert unowned == 0
    assert sites == {("field.py", "_phase"), ("field.py", "_twiddles")}


def calls_bin_boxes(node):
    return isinstance(node, ast.Call) and "bin_boxes" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))


def test_bin_boxes_is_called_only_by_the_layout_cache():
    sites, calls = set(), 0
    for path in sorted(Path(logmult.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        found = [node for node in ast.walk(tree) if calls_bin_boxes(node)]
        calls += len(found)
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef) and any(node in found for node in ast.walk(func)):
                sites.add((path.name, func.name))
    assert (sites, calls) == ({("field.py", "_certified_bins")}, 1)


def calls_meet(node):
    return isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "meet"


def test_certificates_are_met_only_by_the_band_rule_and_convolve():
    sites, calls = set(), 0
    for path in sorted(Path(logmult.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        found = [node for node in ast.walk(tree) if calls_meet(node)]
        calls += len(found)
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef) and any(node in found for node in ast.walk(func)):
                sites.add((path.name, func.name))
    assert (sites, calls) == ({("field.py", "piece_plan"), ("field.py", "convolve")}, 2)


def calls_named(node, name):
    return isinstance(node, ast.Call) and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))


@pytest.mark.parametrize("name, site", [("piece_plan", "_plans"), ("_inverted", "_pieces")])
def test_lp_ops_plans_its_pieces_in_one_place_and_builds_them_in_one(name, site):
    tree = ast.parse((Path(logmult.__file__).parent / "lp_ops.py").read_text())
    found = [node for node in ast.walk(tree) if calls_named(node, name)]
    sites = {
        func.name for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef) and any(node in found for node in ast.walk(func))
    }
    assert found and sites == {site}


def calls_validate_config(node):
    return isinstance(node, ast.Call) and "validate_config" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))


def test_validate_config_is_called_only_by_the_configs_one_validation():
    sites, calls = set(), 0
    for path in sorted(Path(logmult.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        found = [node for node in ast.walk(tree) if calls_validate_config(node)]
        calls += len(found)
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef) and any(node in found for node in ast.walk(func)):
                sites.add((path.name, func.name))
    assert (sites, calls) == ({("counterexample.py", "validation")}, 1)


def test_full_size_coefficients_are_read_only_at_named_sites():
    sites = set()
    for path in sorted(Path(logmult.__file__).parent.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if isinstance(func, ast.FunctionDef):
                for node in ast.walk(func):
                    if isinstance(node, ast.Attribute) and node.attr == "coefficients":
                        sites.add((path.name, func.name))
    assert sites == {("multiplier.py", "spectrum_on")}


def test_cli_reads_no_private_name_of_another_module():
    tree = ast.parse((Path(logmult.__file__).parent / "cli.py").read_text())
    modules, private = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:  # from . import counterexample as cx
                modules.update(alias.asname or alias.name for alias in node.names)
            else:
                private += [f"{node.module}.{alias.name}" for alias in node.names if alias.name.startswith("_")]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            if node.attr.startswith("_"):
                private.append(f"{node.value.id}.{node.attr}")
    assert modules and private == []


def calls_polyfit(node):
    return isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "polyfit"


def test_every_log_law_is_fitted_by_the_one_builder():
    sites, calls, imports = set(), 0, []
    for path in sorted(Path(logmult.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        found = [node for node in ast.walk(tree) if calls_polyfit(node)]
        calls += len(found)
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef) and any(node in found for node in ast.walk(func)):
                sites.add((path.name, func.name))
        imports += [path.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                    for alias in node.names if alias.name == "_line_fit"]
    assert (sites, calls, imports) == ({("shifted_lab.py", "_log_law_fit")}, 1, [])
