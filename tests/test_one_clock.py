"""Each report has one clock, started where its work starts: `_timed`
in cli.py starts it before the two sides are built, `_first_failure` in
report.py before its lazy chain of sub-checks runs, and the Bailey
transform check before it forms its two sums (README, Reports and
determinism).  A clock started anywhere else can leave a report's
work outside its wall time or charge it with another report's, so this
guard parses the sources and fails on any other `Stopwatch(...)` call."""

import ast
import pathlib

import qbailey

SRC = pathlib.Path(qbailey.__file__).parent

CLOCKS = [("bailey", "bailey_transform_check"), ("cli", "_timed"),
          ("report", "_first_failure")]


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


def test_one_clock_per_report():
    found = sorted(site for path in sorted(SRC.glob("*.py"))
                   for site in _stopwatch_sites(ast.parse(path.read_text()), path.stem))
    assert found == CLOCKS


def test_the_guard_finds_stopwatches():
    source = "\n".join([
        "watch = Stopwatch()",
        "def f():",
        "    w = report.Stopwatch()",
        "    def g():",
        "        return series_report(x, y, z, {}, Stopwatch())",
        "    return Stopwatch",
    ])
    assert _stopwatch_sites(ast.parse(source), "m") == [("m", None), ("m", "f"), ("m", "g")]
