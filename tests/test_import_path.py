"""Starting the CLI loads no introspection machinery (README, Design
notes).  `dataclasses` pulls in inspect, ast, dis, tokenize, linecache
and copy, and `typing` is a large import of its own; the value types are
validated namedtuples and the annotations are strings, so neither is
needed.  A fresh interpreter without site-packages (whose `.pth` files
may import typing themselves) imports `qbailey.cli` and lists what it
loaded, and the sources are parsed for any import of the two modules."""

import ast
import os
import pathlib
import subprocess
import sys

import qbailey

SRC = pathlib.Path(qbailey.__file__).parent
HEAVY = ("dataclasses", "inspect", "typing", "ast", "dis", "tokenize")


def _loaded_after(statement: str) -> set:
    """The HEAVY modules in sys.modules after `statement` runs in a
    fresh `python -S` with the package's sources on the path."""
    code = f"import sys\n{statement}\nprint(' '.join(m for m in {HEAVY!r} if m in sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    return set(out.split())


def test_importing_the_cli_loads_no_introspection():
    assert _loaded_after("import qbailey.cli") == set()


def test_the_harness_sees_an_introspection_import():
    assert "dataclasses" in _loaded_after("import qbailey.cli\nimport dataclasses")


def _heavy_imports(tree):
    """Sorted line numbers of the imports of dataclasses or typing."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] in ("dataclasses", "typing") for name in names):
            lines.add(node.lineno)
    return sorted(lines)


def test_no_dataclasses_or_typing_import_in_the_sources():
    found = [f"{path.stem}:{line}" for path in sorted(SRC.glob("*.py"))
             for line in _heavy_imports(ast.parse(path.read_text()))]
    assert found == []


def test_the_guard_finds_dataclasses_and_typing_imports():
    source = "\n".join([
        "import dataclasses",
        "from dataclasses import dataclass, field",
        "import os, typing",
        "from typing import Callable",
        "from collections.abc import Callable",
        "from .typing import x",
        "def f():",
        "    import typing as t",
        "import typing_extensions",
    ])
    assert _heavy_imports(ast.parse(source)) == [1, 2, 3, 4, 8]
