"""The benchmark's traced run wraps module-level names of the package.

A refactor that renames or removes one of them would abort that run; this
test makes it fail here instead.  It only reads perfbench/tracing.py.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_trace_hook_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module in {module for module, _, _ in tracing.HOOKS}:
        importlib.import_module(module)
    assert len(tracing.resolve_hooks()) == len(tracing.HOOKS)
