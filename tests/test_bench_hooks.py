"""The benchmark's trace hooks must name functions the package still has.

perfbench/tracing.py wraps package functions by name and raises MissingHook
at install time when one is gone. That error otherwise shows only in a
traced bench run; this test puts it in the test suite. perfbench is not a
package, so tracing.py is loaded by file path.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import mfgsolver

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_hook_resolves():
    for info in pkgutil.iter_modules(mfgsolver.__path__):
        importlib.import_module(f"mfgsolver.{info.name}")
    tracing = load_tracing()
    assert tracing.missing_hooks(tracing.TRACE_HOOKS + tracing.COUNT_HOOKS) == []
