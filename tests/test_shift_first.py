"""No src/qbailey code shifts a product it has just formed.  A shift
after a product drops every term that it pushes past a cap, and the
product formed those terms for nothing; the monomial belongs on a narrow
factor before the product (README, Design notes).  This guard parses the
sources and fails on any `.shift(...)` in q, t or s whose receiver is a
`*` or `**` product, a `sum_of_products(...)` call, a `.scale(...)` of
one, or a name that its function binds to one, so that the waste cannot
creep back.  A shift in z alone drops nothing: z is never truncated."""

import ast
import pathlib

import qbailey

SRC = pathlib.Path(qbailey.__file__).parent


def _is_product(node, formed) -> bool:
    """Whether node is a freshly formed product: a `*` or `**`, a
    sum_of_products(...) call, a .scale(...) of one, or a name in
    `formed`, the names its function binds to one."""
    if isinstance(node, ast.BinOp):
        return isinstance(node.op, (ast.Mult, ast.Pow))
    if isinstance(node, ast.Call):
        fn = node.func
        name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
        return name == "sum_of_products" or (
            name == "scale" and isinstance(fn, ast.Attribute) and _is_product(fn.value, formed))
    return isinstance(node, ast.Name) and node.id in formed


def _own_nodes(scope):
    """The nodes of a module or function, not descending into the
    functions defined inside it."""
    for child in ast.iter_child_nodes(scope):
        yield child
        if not isinstance(child, ast.FunctionDef):
            yield from _own_nodes(child)


def _capped_shift(node) -> bool:
    """Whether node is a .shift(...) call that can push terms past a
    cap: one with a q-, t- or s-exponent (z is never truncated)."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "shift"
            and (bool(node.args) or any(k.arg in ("e_q", "e_t", "e_s") for k in node.keywords)))


def _shifted_products(tree):
    """Sorted line numbers of the capped .shift(...) calls on a product."""
    lines = set()
    for scope in [tree, *(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef))]:
        nodes = list(_own_nodes(scope))
        formed = {target.id for node in nodes if isinstance(node, ast.Assign)
                  for target in node.targets
                  if isinstance(target, ast.Name) and _is_product(node.value, set())}
        lines.update(node.lineno for node in nodes
                     if _capped_shift(node) and _is_product(node.func.value, formed))
    return sorted(lines)


def test_no_shift_after_a_product():
    found = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
             for line in _shifted_products(ast.parse(path.read_text()))]
    assert found == []


def test_the_guard_finds_shifted_products():
    source = "\n".join([
        "(a * b).shift(e_t=n)",
        "(a ** 2).shift(e_q=1)",
        "TruncatedSeries.sum_of_products(trunc, pairs).shift(e_t=n)",
        "(a * b).scale(-1).shift(e_s=2)",
        "def f(a, b):",
        "    inner = sum_of_products(trunc, pairs)",
        "    return inner.shift(e_t=1)",
        "a.shift(e_t=n) * b",
        "a.scale(-1).shift(e_q=3) * b",
        "table[d].shift(e_t=n)",
        "(a * b).shift(e_z=2)",
        "def g(inner):",
        "    return inner.shift(e_t=1)",
    ])
    assert _shifted_products(ast.parse(source)) == [1, 2, 3, 4, 7]
