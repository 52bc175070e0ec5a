"""The benchmark's traced run wraps module-level names of the package, and
its jobs call the package with fixed arguments.

A refactor that renames or removes one of those names, or drops a parameter
that a job passes, would abort that run; these tests make it fail here
instead.  They only read perfbench/tracing.py and perfbench/jobs.py.
"""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"
JOBS = PERFBENCH / "jobs.py"


def _load(path, name):
    """The module at path, registered under name while it runs (dataclasses
    look their module up in sys.modules)."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module


def test_every_trace_hook_resolves():
    tracing = _load(TRACING, "perfbench_tracing")
    for module in {module for module, _, _ in tracing.HOOKS}:
        importlib.import_module(module)
    assert len(tracing.resolve_hooks()) == len(tracing.HOOKS)


def _dotted(node):
    """[a, b, c] of the call target a.b.c, or None if it is not a name chain."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id, *reversed(parts)] if isinstance(node, ast.Name) else None


def _in_package(obj):
    name = getattr(obj, "__module__", None) or getattr(obj, "__name__", "")
    return isinstance(name, str) and name.split(".")[0] == "logse"


def test_every_package_call_of_the_jobs_binds():
    # each call in jobs.py whose target is reached from a package name binds
    # to that target's signature; calls with *args or **kwargs are skipped
    jobs = _load(JOBS, "perfbench_jobs")
    bound = set()
    for node in ast.walk(ast.parse(JOBS.read_text())):
        if not isinstance(node, ast.Call) or (path := _dotted(node.func)) is None:
            continue
        target = vars(jobs).get(path[0])
        if not _in_package(target):
            continue
        for attr in path[1:]:
            target = getattr(target, attr)
        if any(isinstance(arg, ast.Starred) for arg in node.args) or any(
                keyword.arg is None for keyword in node.keywords):
            continue
        call = ".".join(path)
        try:
            inspect.signature(target).bind(
                *node.args, **{keyword.arg: keyword.value for keyword in node.keywords})
        except TypeError as exc:
            raise AssertionError(f"jobs.py line {node.lineno}: {call}: {exc}") from exc
        bound.add(call)
    assert {"numerics.linear_ground_state", "numerics.self_consistent_minimal_model",
            "numerics.residual", "numerics.solve_radial_poisson", "logse.entropy",
            "cli.main"} <= bound
