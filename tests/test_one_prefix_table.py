"""Every finite q-Pochhammer-type product is a read of one memoized
prefix table per base and kind (README, Design notes).  A loop of
binomial updates anywhere else rebuilds a prefix that a table already
holds, or keeps a second copy of it.  This guard parses the sources and
fails on any `mul_binomial`/`div_binomial` call inside a `for` or
`while` loop or a comprehension, in every module but series.py, where
the binomial updates are defined.  The one table grows through its
kind's step, called once per new entry: the steps make their binomial
updates outside any loop, so the table's own loop names neither method."""

import ast
import pathlib

import qbailey

SRC = pathlib.Path(qbailey.__file__).parent

_LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _binomial_calls_in_loops(tree):
    """Sorted line numbers of the mul_binomial/div_binomial calls that
    lie inside a loop or a comprehension."""
    lines = set()

    def visit(node, in_loop):
        if (in_loop and isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("mul_binomial", "div_binomial")):
            lines.add(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, in_loop or isinstance(node, _LOOPS))

    visit(tree, False)
    return sorted(lines)


def test_no_binomial_update_loop_outside_the_prefix_table():
    found = [f"{path.stem}:{line}" for path in sorted(SRC.glob("*.py"))
             if path.name != "series.py"
             for line in _binomial_calls_in_loops(ast.parse(path.read_text()))]
    assert found == []


def test_the_guard_finds_binomial_loops():
    source = "\n".join([
        "for k in range(n):",
        "    result = result.mul_binomial(c, e_q + k)",
        "while len(table) <= n:",
        "    table.append(table[-1].div_binomial(c, len(table)))",
        "[one.mul_binomial(c, j) for j in range(n)]",
        "sum_of_products(trunc, ((x.div_binomial(1, l), y) for l in range(n)))",
        "{j: one.mul_binomial(c, j) for j in range(n)}",
        "for x in xs:",
        "    def f(a):",
        "        return a.mul_binomial(1, e_s=1)",
        "num = poch.mul_binomial(1, e_q=2 * n, e_t=1)",
        "table.append(step(table[-1], c, e_q))",
        "for k in range(n):",
        "    step = TruncatedSeries.mul_binomial",
    ])
    assert _binomial_calls_in_loops(ast.parse(source)) == [2, 4, 5, 6, 7, 10]
