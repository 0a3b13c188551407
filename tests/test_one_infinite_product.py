"""Every n-free product of infinite q-Pochhammers is one read of the
memoized `qfunctions.infinite_product` (README, Design notes).  A
product multiplied out by hand builds again what that cache holds, or
keeps a second copy of it.  This guard parses the sources and fails on
any `*` chain with two or more `poch_infinite`/`inv_poch_infinite`
calls on a literal base tuple, or with one such call beside an
`infinite_product` call.  A base that is not a literal, such as
(1, 2 * n, 2, 0, 0), depends on n and is left alone."""

import ast
import pathlib

import qbailey

SRC = pathlib.Path(qbailey.__file__).parent


def _is_mult(node):
    return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)


def _factors(node):
    """The operands of the `*` chain rooted at node, nested `*` flattened."""
    if _is_mult(node):
        return _factors(node.left) + _factors(node.right)
    return [node]


def _called(node):
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def _is_literal_base(node):
    try:
        ast.literal_eval(node)
    except ValueError:
        return False
    return isinstance(node, ast.Tuple)


def _hand_built_products(tree):
    """Sorted line numbers of the `*` chains that multiply out an n-free
    product of infinite Pochhammers by hand."""
    lines = set()

    def visit(node, in_chain):
        if _is_mult(node) and not in_chain:
            factors = _factors(node)
            literal = sum(1 for f in factors
                          if _called(f) in ("poch_infinite", "inv_poch_infinite")
                          and f.args and _is_literal_base(f.args[0]))
            read = any(_called(f) == "infinite_product" for f in factors)
            if literal >= 2 or (literal and read):
                lines.add(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, _is_mult(node) and _is_mult(child))

    visit(tree, False)
    return sorted(lines)


def test_no_hand_built_infinite_product():
    found = [f"{path.stem}:{line}" for path in sorted(SRC.glob("*.py"))
             for line in _hand_built_products(ast.parse(path.read_text()))]
    assert found == []


def test_the_guard_finds_hand_built_products():
    source = "\n".join([
        "x = poch_infinite((1, 1, 0, 2, 0), trunc) * inv_poch_infinite((1, 0, 0, 1, 0), trunc)",
        "x = ((s + 1) * poch_infinite((1, 1, 0, 2, 0), trunc)",
        "     * qf.inv_poch_infinite((1, 0, 0, 1, 0), trunc))",
        "x = infinite_product((), den, trunc) * poch_infinite((1, 0, 0, 1, -1), trunc)",
        "x = f(poch_infinite((1, 0, 0, 1, 1), trunc) * poch_infinite((1, 0, 0, 1, -1), trunc))",
        "x = poch_infinite((1, 2 * n, 2, 0, 0), trunc) * poch_infinite((1, 0, 0, 1, 0), trunc)",
        "x = infinite_product(num, (), trunc) * infinite_product((), den, trunc)",
        "x = product * poch_infinite(a, trunc)",
        "x = s * poch_infinite((1, 0, 0, 1, 0), trunc)",
        "x = poch_infinite((1, 0, 0, 1, 0), trunc) + inv_poch_infinite((1, 0, 0, 1, 0), trunc)",
    ])
    assert _hand_built_products(ast.parse(source)) == [1, 2, 4, 5]
