"""No src/qbailey code enumerates index tuples.  Every multisum is summed
one index at a time, as a level recurrence (README, Design notes), so an
enumeration of whole index tuples with itertools' combinatoric iterators
is a sum that went back to forming one product chain per tuple.  This
guard parses the sources and fails on any `from itertools import` of
combinations, combinations_with_replacement, product or permutations,
and on any `itertools.<name>` use of them, so that the waste cannot
creep back."""

import ast
import pathlib

import qbailey

SRC = pathlib.Path(qbailey.__file__).parent
TUPLE_ITERATORS = {"combinations", "combinations_with_replacement", "product", "permutations"}


def _tuple_enumerations(tree):
    """Sorted (line, name) pairs of the itertools tuple iterators that
    the module imports or reads."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "itertools":
            found.update((node.lineno, alias.name) for alias in node.names
                         if alias.name in TUPLE_ITERATORS)
        elif (isinstance(node, ast.Attribute) and node.attr in TUPLE_ITERATORS
              and isinstance(node.value, ast.Name) and node.value.id == "itertools"):
            found.add((node.lineno, node.attr))
    return sorted(found)


def test_no_index_tuple_enumeration():
    found = [f"{path.name}:{line} {name}" for path in sorted(SRC.glob("*.py"))
             for line, name in _tuple_enumerations(ast.parse(path.read_text()))]
    assert found == []


def test_the_guard_finds_tuple_enumerations():
    source = "\n".join([
        "from itertools import combinations, combinations_with_replacement",
        "from itertools import accumulate, product",
        "import itertools",
        "pairs = itertools.permutations(range(3), 2)",
        "from itertools import chain",
        "table.product(a, b)",
    ])
    assert _tuple_enumerations(ast.parse(source)) == [
        (1, "combinations"), (1, "combinations_with_replacement"), (2, "product"),
        (4, "permutations")]
