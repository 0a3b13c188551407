"""Every finite q-Pochhammer-type product is a read of one memoized
prefix table per base and kind (README, Design notes).  A loop of
binomial updates anywhere else rebuilds a prefix that a table already
holds, or keeps a second copy of it.  This guard parses the sources and
fails on any `mul_binomial`/`div_binomial` call inside a `for` or
`while` loop or a comprehension, in every module but series.py, where
the binomial updates are defined.  The one table grows through its
kind's step, called once per new entry: the steps make their binomial
updates outside any loop, so the table's own loop names neither method.

At a rational point the Pochhammer values are int pairs in one prefix
table per base and direction, and `_poch_pair` is the one code that
reads or grows them: a second guard fails on any other mention of
`RationalPoint._poch_tables` in the sources."""

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


def _poch_table_mentions(tree):
    """Sorted (scope, line) of each mention of `_poch_tables`, the scope
    being the innermost enclosing function or class, or "<module>"."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = node.name
        name = (node.attr if isinstance(node, ast.Attribute)
                else node.id if isinstance(node, ast.Name) else None)
        if name == "_poch_tables":
            found.add((scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "<module>")
    return sorted(found)


def test_poch_tables_are_read_only_by_the_pair_reader():
    mentions = {path.stem: _poch_table_mentions(ast.parse(path.read_text()))
                for path in sorted(SRC.glob("*.py"))}
    scopes = {(stem, scope) for stem, found in mentions.items() for scope, _ in found}
    assert scopes == {("hypergeometric", "RationalPoint"), ("hypergeometric", "_poch_pair")}
    # the one mention in the class is its field declaration
    assert len([line for scope, line in mentions["hypergeometric"]
                if scope == "RationalPoint"]) == 1


def test_the_guard_finds_poch_table_mentions():
    source = "\n".join([
        "class RationalPoint:",
        "    _poch_tables: dict = field(default_factory=dict)",
        "    def _prefix_table(self, key):",
        "        return self._poch_tables[key]",
        "def _poch_pair(a, n, point, inverse):",
        "    table = point._poch_tables.get((a, n >= 0))",
        "def s_sum(d, n, point):",
        "    tables = point._poch_tables",
        "_poch_tables = {}",
    ])
    assert _poch_table_mentions(ast.parse(source)) == [
        ("<module>", 9), ("RationalPoint", 2), ("_poch_pair", 6), ("_prefix_table", 4),
        ("s_sum", 8)]
