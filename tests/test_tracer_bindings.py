"""The benchmark tracer (perfbench/tracer.py) records its per-layer
metrics under names it looks up in qbailey.  A renamed or deleted
function would silently zero its metric, and a ring method missing from
TruncatedSeries makes `--trace 1` fail; these tests read the tracer's
name lists and check them against the package."""

import importlib.util
import os
import subprocess
import sys

import pytest

from qbailey import bailey, hypergeometric, macdonald, qfunctions, report
from qbailey.series import TruncatedSeries

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(PERFBENCH, "tracer.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


def test_series_methods_exist():
    missing = [name for name in tracer.SERIES_METHODS if name not in TruncatedSeries.__dict__]
    assert missing == []


@pytest.mark.parametrize("module, names", [
    (qfunctions, tracer.QFUNCTIONS_FNS),
    (macdonald, tracer.MACDONALD_FNS),
    (bailey, tracer.BAILEY_VERIFY_FNS),
    (hypergeometric, tracer.HG_VALUE_FNS + ("draw_point",)),
    (report, ("first_mismatch",)),
], ids=["qfunctions", "macdonald", "bailey", "hypergeometric", "report"])
def test_traced_functions_exist(module, names):
    # the tracer wraps public callables defined in their own module
    for name in names:
        obj = getattr(module, name, None)
        assert callable(obj), f"{module.__name__}.{name} is gone"
        assert obj.__module__ == module.__name__, f"{module.__name__}.{name} is an import"


def test_pair_family_entry_methods_exist():
    # bailey.entry spans come from PairFamily.__getitem__ and .core
    assert {"__getitem__", "core"} <= set(bailey.PairFamily.__dict__)


def test_tracer_installs():
    # install wraps every public callable and fails if any original is
    # still reachable, e.g. through a module-level dict of functions
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import qbailey.cli; "
            "from tracer import Tracer; Tracer().install()")
    src = os.path.dirname(os.path.dirname(qfunctions.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code, PERFBENCH],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
