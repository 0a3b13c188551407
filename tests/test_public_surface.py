"""src/qbailey keeps only what a CLI run reaches, and reports are built
in one place.

The first three tests read the traced run of test_reach.py: every
top-level function and method of a top-level class, private and dunder
ones included, starts in the run or is allowlisted with its reason, and
every hand-kept allowlist entry is defined and never starts (an entry
whose path has come to run would keep its reason after it is gone).
The others check that report.py assembles every verdict and that the
modules that build sides or values import nothing from it."""

import ast
import pathlib

import qbailey
import test_reach as reach

SRC = pathlib.Path(qbailey.__file__).parent


def test_public_callables_are_used_or_library_api():
    _, started = reach.run_argvs()
    assert sorted(reach.defined() - started - reach.allowed()) == []


def test_library_api_names_exist():
    assert sorted(set(reach.HAND_KEPT) - reach.defined()) == []


def test_library_api_is_unreferenced():
    _, started = reach.run_argvs()
    assert sorted(set(reach.HAND_KEPT) & started) == []


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
