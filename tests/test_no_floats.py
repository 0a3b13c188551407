"""No floating point anywhere (README, Design notes): every value is an
int or a Fraction.  The runtime half refuses a float given as a
coefficient, base, index or point value; this guard is the static half.
It parses the sources and fails on any float literal (complex ones
included: an imaginary literal is a float) and on any call of `float`,
so that no module makes an inexact number of its own."""

import ast
import pathlib

import qbailey

SRC = pathlib.Path(qbailey.__file__).parent


def _float_sites(tree):
    """Sorted line numbers of the float literals and `float(...)` calls."""
    return sorted({node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))
                   or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                   and node.func.id == "float"})


def test_no_float_in_the_sources():
    found = [f"{path.stem}:{line}" for path in sorted(SRC.glob("*.py"))
             for line in _float_sites(ast.parse(path.read_text()))]
    assert found == []


def test_the_guard_finds_floats():
    source = "\n".join([
        "x = 0.5",
        "y = Fraction(1, 2)",
        "z = 1e-3 * n",
        "w = float(text)",
        "label = '0.5 float(x)'",
        "v = 2j",
        "u = [float(a) for a in values]",
        "n = int(3)",
        "r = self.float(x)",
        "f = lambda: 1.",
    ])
    assert _float_sites(ast.parse(source)) == [1, 3, 4, 6, 7, 10]
