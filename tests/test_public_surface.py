"""Every public function and method under src/qbailey is used by the
package itself or is deliberate library API.  A helper that only the
tests call belongs in the tests; this guard finds one by parsing the
sources, so none can creep back into src/."""

import ast
import pathlib

import qbailey

SRC = pathlib.Path(qbailey.__file__).parent

# Public names no src/qbailey module calls: the API shown in README
# "Library use" (the sums read Pochhammer values as int pairs, so the
# reduced-Fraction readers `poch_value` and `inv_poch_value` are library
# API only), the per-representation builders the CLI looks up by name
# (macdonald.REPRESENTATIONS), and the test oracle `invert`, kept while
# perfbench/tracer.py wraps it.  A name the package reads needs no
# entry, and test_library_api_is_unreferenced keeps it out.
LIBRARY_API = frozenset({
    "bailey.verify_bailey_pair",
    "hypergeometric.inv_poch_value",
    "hypergeometric.poch_value",
    "macdonald.bosonic_index",
    "macdonald.fermionic2_index",
    "macdonald.original_index",
    "series.TruncatedSeries.invert",
})


def _definitions(tree, module):
    """(qualified name, bare name) of the public top-level functions and
    the public methods of top-level classes; dunders are left out."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield f"{module}.{node.name}", node.name
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{module}.{node.name}.{item.name}", item.name


def _references(node, inside, out):
    """Every name and attribute read in the tree, except a function's
    reads of its own name from within its own body."""
    if isinstance(node, ast.FunctionDef):
        inside = inside | {node.name}
    if isinstance(node, ast.Name) and node.id not in inside:
        out.add(node.id)
    elif isinstance(node, ast.Attribute) and node.attr not in inside:
        out.add(node.attr)
    for child in ast.iter_child_nodes(node):
        _references(child, inside, out)


def _surface():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    referenced = set()
    for tree in trees.values():
        _references(tree, frozenset(), referenced)
    defined = dict(d for module, tree in trees.items() for d in _definitions(tree, module))
    return defined, referenced


def test_public_callables_are_used_or_library_api():
    defined, referenced = _surface()
    unused = sorted(qual for qual, name in defined.items()
                    if not name.startswith("_") and name not in referenced
                    and qual not in LIBRARY_API)
    assert unused == []


def test_library_api_names_exist():
    defined, _ = _surface()
    assert sorted(LIBRARY_API - set(defined)) == []


def test_library_api_is_unreferenced():
    # an allowlisted name that the package has come to read would keep
    # its entry after the reason for it is gone
    _, referenced = _surface()
    assert sorted(qual for qual in LIBRARY_API if qual.rsplit(".", 1)[1] in referenced) == []


def test_only_the_report_module_builds_reports():
    # every verdict is assembled in report.py, so that what a report
    # holds, and how its status follows from the mismatch, has one home
    builders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                fn = node.func
                name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
                if name == "IdentityReport":
                    builders.append(path.stem)
    assert builders and set(builders) == {"report"}


def report_imports(module: str) -> list[str]:
    """The names a module imports from the report module.  A module
    with no import at all fails: the parse saw nothing to check."""
    imported = []
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            imported += [f"{node.module or ''}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    assert imported
    return [name for name in imported if "report" in name.split(".")]


def test_hypergeometric_builds_no_report():
    # the rational-point and index modules return values and sides;
    # cli.py labels them, so neither imports from the report module
    assert report_imports("hypergeometric") == []


def test_macdonald_builds_no_report():
    assert report_imports("macdonald") == []
