"""Every function and method defined in src/qbailey runs in a CLI run, or
is named in an allowlist with its reason.  qbailey's checks are CLI
runs, so code that only the tests call belongs in the tests.

One fresh interpreter sets `sys.setprofile` before `import qbailey.cli`
and runs `cli.main` on ARGVS: every verify id at its defaults with
`--json`, a chain with a zero parameter, every table representation, a
JSON table, the text selftest and a usage error.  It records the (file, qualified name)
of every code object that starts.  The sources are parsed for every
top-level function and every method of a top-level class, private and
dunder names included; one the run never starts fails the guard unless
it is allowlisted.  A function nothing names can never run, so no dead
helper passes.

The allowlist has three kinds of entry:
- the names perfbench/tracer.py wraps by name (its SERIES_METHODS keys
  and HG_VALUE_FNS), read from that file and never copied here.  Of
  these, the run misses `invert`, `__neg__`, `__rsub__`, `poch_value`
  and `inv_poch_value`.  Dropping a name from the tracer (as the
  benchmark's own change drops `invert`) makes this guard fail until the
  name leaves src/ too;
- library API kept on purpose (LIBRARY_API);
- paths that run only on a failure or for debugging (FAILURE_PATHS).

The run, the allowlist and the walk are kept here; the three checks on
what ran are in test_public_surface.py, under the names of the static
check they replaced: every definition runs or is allowlisted, every
hand-kept entry is defined, and none of them has come to run.
"""

import ast
import functools
import json
import os
import pathlib
import subprocess
import sys

import qbailey
from qbailey import cli, macdonald
from test_tracer_bindings import tracer

SRC = pathlib.Path(qbailey.__file__).parent

SEEDED = ("lemma-b1", "appx-c")     # random points: a fixed seed
ARGVS = [
    *(["verify", identity, "--json", *(["--seed", "1"] if identity in SEEDED else [])]
      for identity in cli._RUNNERS),
    ["verify", "corollary-special", "--pair", "chain(1;0;1/2)", "--json"],
    *(["table", "--rep", rep, "--nq", "4", "--nt", "4"]
      for rep in (*macdonald.REPRESENTATIONS, "schur", "hall-littlewood")),
    ["table", "--rep", "bosonic", "--nq", "4", "--nt", "4", "--format", "json"],
    ["selftest"],
    ["verify", "thm-main", "--k", "0"],
]

LIBRARY_API = {
    "bailey.verify_bailey_pair": "ROADMAP item 10 gives it a verify id",
}

FAILURE_PATHS = {
    "series.TruncatedSeries.coefficient": "report.first_mismatch reads it on a mismatch only",
    "errors.PoleError.__init__": "raised only where a denominator factor is zero",
    "series.TruncatedSeries.__hash__": "refuses to hash a series, which no run tries",
    "series.TruncatedSeries._preview": "the text of a NonInvertible error and of repr",
    "series.TruncatedSeries.__repr__": "debug text",
}

HAND_KEPT = {**LIBRARY_API, **FAILURE_PATHS}

# Runs ARGVS under a profile hook and prints the sorted (file, qualified
# name) pairs of the code objects that started.  Output of the runs is
# discarded, since only what ran matters here.
CHILD = """
import contextlib, io, json, sys
started = set()
def hook(frame, event, arg):
    if event == "call":
        started.add(frame.f_code)
sys.setprofile(hook)
import qbailey.cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [qbailey.cli.main(argv) for argv in json.loads(sys.argv[1])]
sys.setprofile(None)
print(json.dumps({"codes": codes,
                  "started": sorted({(c.co_filename, c.co_qualname) for c in started})}))
"""


def allowed() -> set:
    """Every allowlisted name: the tracer-bound ones and the hand-kept ones."""
    return ({f"series.TruncatedSeries.{name}" for name in tracer.SERIES_METHODS}
            | {f"hypergeometric.{name}" for name in tracer.HG_VALUE_FNS}
            | set(HAND_KEPT))


def _definitions(tree, module: str) -> list:
    """`module.name` of every top-level function and `module.Class.name`
    of every method of a top-level class, in source order; functions
    nested in either are left out."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            out.append(f"{module}.{node.name}")
        elif isinstance(node, ast.ClassDef):
            out += [f"{module}.{node.name}.{item.name}"
                    for item in node.body if isinstance(item, ast.FunctionDef)]
    return out


def defined() -> set:
    return {name for path in sorted(SRC.glob("*.py"))
            for name in _definitions(ast.parse(path.read_text()), path.stem)}


@functools.cache
def run_argvs():
    """(exit codes, names started) of ARGVS run in one fresh process,
    run once per test session."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(ARGVS)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    started = {f"{pathlib.Path(file).stem}.{qualname}" for file, qualname in out["started"]
               if pathlib.Path(file).parent == SRC}
    return out["codes"], started


def test_the_argvs_run_in_full():
    codes, _ = run_argvs()
    # every run passes but the usage error, so every check ran in full
    assert codes == [0] * (len(ARGVS) - 1) + [2]


def test_the_walk_counts_functions_and_methods_only():
    source = "\n".join([
        "def f(x):",
        "    def inner(y):",
        "        return y",
        "    return inner(x)",
        "class C:",
        "    size = 1",
        "    def __init__(self):",
        "        self.g = lambda: 0",
        "    @property",
        "    def _p(self):",
        "        def helper():",
        "            return 1",
        "        return helper()",
        "    class Inner:",
        "        def deep(self):",
        "            return 2",
        "x = f",
    ])
    assert _definitions(ast.parse(source), "m") == ["m.f", "m.C.__init__", "m.C._p"]
