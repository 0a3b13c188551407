"""The storage of a series, sorted q-rows of integer numerators over one
common denominator, is a decision of series.py alone (README, Design
notes).  Every other module reads a series through its public API
(`==`, `terms()`, `coefficient()`, `z_slices()`, ...) and builds one
through public constructors (`from_z_slices`, `monomial`, ...), so the
storage can change in series.py and nowhere else.  This guard parses the
sources and fails on any read of the rows (`._rows`, `._den`) or of the
derived term map (`._terms`), any call of `._raw` or `._reduced`, or any
import of a private name from the series module outside series.py."""

import ast
import pathlib

import qbailey

SRC = pathlib.Path(qbailey.__file__).parent

PRIVATE_ATTRIBUTES = {"_rows", "_den", "_terms", "_raw", "_reduced"}


def _format_leaks(tree, module):
    """(module, what) of each use of the storage's private surface, in
    source order: an attribute in PRIVATE_ATTRIBUTES, or an `_`-name
    imported from the series module."""
    leaks = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in PRIVATE_ATTRIBUTES:
            leaks.append((node.lineno, node.col_offset, module, f".{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "series":
            leaks += [(node.lineno, node.col_offset, module, f"import {alias.name}")
                      for alias in node.names if alias.name.startswith("_")]
    return [leak[2:] for leak in sorted(leaks)]


def test_only_series_reads_the_term_map():
    leaks = [leak for path in sorted(SRC.glob("*.py")) if path.stem != "series"
             for leak in _format_leaks(ast.parse(path.read_text()), path.stem)]
    assert leaks == []


def test_the_guard_finds_leaks():
    source = "\n".join([
        "from .series import TruncatedSeries, _norm",
        "from qbailey.series import _exact",
        "from .report import _first_failure",
        "def f(a, b):",
        "    x = a._terms",
        "    return TruncatedSeries._raw(a.trunc, {**x, **b._terms})",
        "def g(a):",
        "    return a._rows[0]",
    ])
    assert _format_leaks(ast.parse(source), "m") == [
        ("m", "import _norm"), ("m", "import _exact"), ("m", "._terms"),
        ("m", "._raw"), ("m", "._terms"), ("m", "._rows")]
