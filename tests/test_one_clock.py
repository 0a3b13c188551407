"""Each report has one clock, started where its work starts, and both
clocks are in report.py: `_compare` starts it before it builds the two
sides, `_first_failure` before its lazy chain of sub-checks runs
(README, Reports and determinism).  A clock started anywhere else can
leave a report's work outside its wall time or charge it with another
report's, so this guard parses the sources and fails on any other
`Stopwatch(...)` call, and on any other module that imports Stopwatch."""

import ast
import pathlib

import qbailey

SRC = pathlib.Path(qbailey.__file__).parent

CLOCKS = [("report", "_compare"), ("report", "_first_failure")]


def _stopwatch_sites(tree, module):
    """(module, enclosing function) of each Stopwatch(...) call, in
    source order; module-level calls are enclosed by None."""
    sites = []

    def visit(node, function):
        if isinstance(node, ast.FunctionDef):
            function = node.name
        if isinstance(node, ast.Call):
            fn = node.func
            name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
            if name == "Stopwatch":
                sites.append((module, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return sites


def _stopwatch_imports(tree):
    """Line numbers of the imports that bind Stopwatch."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and any(alias.name.split(".")[-1] == "Stopwatch" for alias in node.names)]


def _sources():
    return [(path.stem, ast.parse(path.read_text())) for path in sorted(SRC.glob("*.py"))]


def test_one_clock_per_report():
    found = sorted(site for module, tree in _sources()
                   for site in _stopwatch_sites(tree, module))
    assert found == CLOCKS


def test_no_other_module_imports_the_stopwatch():
    assert {module: lines for module, tree in _sources()
            if (lines := _stopwatch_imports(tree))} == {}


def test_the_guard_finds_stopwatches():
    source = "\n".join([
        "watch = Stopwatch()",
        "def f():",
        "    w = report.Stopwatch()",
        "    def g():",
        "        return _compare(x, y, z, {}, Stopwatch())",
        "    return Stopwatch",
    ])
    assert _stopwatch_sites(ast.parse(source), "m") == [("m", None), ("m", "f"), ("m", "g")]


def test_the_guard_finds_stopwatch_imports():
    source = "\n".join([
        "from .report import IdentityReport, Stopwatch",
        "from qbailey.report import _compare",
        "import qbailey.report.Stopwatch",
        "def f():",
        "    from .report import Stopwatch as clock",
    ])
    assert _stopwatch_imports(ast.parse(source)) == [1, 3, 5]
