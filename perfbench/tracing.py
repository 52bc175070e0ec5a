"""Outside-in tracing of the logse layers.

The traced run replaces module-level names of the package with timing
wrappers at run time and restores them afterwards; nothing under ``src/`` is
edited.  Each wrapped call inside a job records one span
``(hook, start, end, parent, job)``.  Spans stay in memory and are written
once, after the run.  Calls made outside a job (the benchmark's own output
checks) pass straight through and record nothing.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict

# (module, attribute, layer).  "Class.method" attributes are wrapped on the
# class.  The module logse.numerics.residual is shadowed on its package by the
# function of the same name, so every module is looked up in sys.modules.
HOOKS = [
    ("logse.cli", "main", "cli"),
    ("logse.cli", "ground_state_from_coupling_values", "imagtime"),
    ("logse.cli", "evolve_real_time", "realtime"),
    ("logse.cli", "self_consistent_minimal_model", "scf"),
    ("logse.cli", "write_csv", "output.write_csv"),
    ("logse.cli", "write_json", "output.write_json"),
    ("logse.cli", "l2_distance", "grids.l2_distance"),
    ("logse.cli", "entropy", "observables.entropy"),
    ("logse.cli", "internal_energy", "observables.internal_energy"),
    # entry points the benchmark calls directly, through these namespaces
    ("logse", "entropy", "observables.entropy"),
    ("logse.numerics", "linear_ground_state", "imagtime"),
    ("logse.numerics", "self_consistent_minimal_model", "scf"),
    ("logse.numerics", "residual", "residual"),
    ("logse.numerics", "solve_radial_poisson", "poisson"),
    # calls between layers inside the package
    ("logse.numerics.imagtime", "second_difference_dirichlet", "stencils.second_difference"),
    ("logse.numerics.residual", "radial_laplacian_interior", "stencils.radial_laplacian"),
    ("logse.numerics.realtime", "solve_banded", "realtime.cn_solve"),
    ("logse.numerics.poisson", "cumulative_trapezoid", "poisson.quadrature"),
    ("logse.numerics.scf", "solve_radial_poisson", "poisson"),
    ("logse.numerics.scf", "ground_state_from_coupling_values", "imagtime"),
    ("logse.grids", "simpson", "simpson"),
    ("logse.observables", "simpson", "simpson"),
    ("logse.grids", "RadialWavefunction.norm", "grids.norm"),
    ("logse.analytic", "AnalyticSolution.sample", "analytic.sample"),
]


class HookMissing(RuntimeError):
    """A traced name no longer exists; the traced run must not report zeros."""


def _resolve(module_name: str, attr: str):
    module = sys.modules.get(module_name)
    if module is None:
        raise HookMissing(f"module {module_name} is not imported")
    owner, _, name = attr.rpartition(".")
    target = getattr(module, owner) if owner else module
    if not hasattr(target, name):
        raise HookMissing(f"{module_name}.{attr} does not exist")
    return target, name


def resolve_hooks():
    """(owner, name) of every hook; raises HookMissing if one is gone."""
    return [_resolve(module, attr) for module, attr, _ in HOOKS]


class Tracer:
    """Span recorder; install() wraps every hook, uninstall() restores them."""

    def __init__(self):
        self.spans = []          # (hook index, start, end, parent index, job)
        self.counts = defaultdict(int)
        self.stepped_busy_s = 0.0  # busy time of the imagtime calls that report steps
        self.job = None          # id of the running job; None outside jobs
        self._stack = []
        self._saved = []

    def install(self):
        resolved = resolve_hooks()
        for hook_id, ((target, name), hook) in enumerate(zip(resolved, HOOKS)):
            original = getattr(target, name)
            self._saved.append((target, name, original))
            setattr(target, name, self._wrap(hook_id, hook[2], original))

    def uninstall(self):
        while self._saved:
            target, name, original = self._saved.pop()
            setattr(target, name, original)

    def _wrap(self, hook_id, layer, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if self.job is None:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (hook_id, start, end, parent, self.job)
            self._count(layer, args, out, end - start)
            return out

        return traced

    def _count(self, layer, args, out, duration):
        """Work counts read from a traced call's arguments and result."""
        counts = self.counts
        if layer == "imagtime" and hasattr(out, "steps"):
            counts["imagtime.steps"] += out.steps
            self.stepped_busy_s += duration
        elif layer == "realtime":
            counts["realtime.steps"] += out.steps
        elif layer == "scf":
            counts["scf.sweeps"] += out.sweeps
        elif layer == "output.write_csv":
            counts["output.rows"] += len(args[2][0])
            counts["output.bytes"] += os.path.getsize(args[0])
        elif layer == "output.write_json":
            counts["output.bytes"] += os.path.getsize(args[0])

    def write(self, path, meta: dict):
        """Write the spans as JSON lines after a header naming each hook."""
        with open(path, "w") as fh:
            header = {"meta": meta, "fields": ["hook", "start", "end", "parent", "job"],
                      "hooks": [f"{m}.{a}" for m, a, _ in HOOKS]}
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def layer_totals(self) -> dict:
        """Per-layer calls, busy time and self time over all recorded spans.

        Busy time counts only the outermost span of a layer, so a layer that
        calls itself is not counted twice.  Self time is a span's duration
        minus the durations of its direct children.
        """
        spans = self.spans
        layer_of = [HOOKS[span[0]][2] for span in spans]
        child_time = [0.0] * len(spans)
        for span in spans:
            if span[3] is not None:
                child_time[span[3]] += span[2] - span[1]
        totals = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for i, span in enumerate(spans):
            layer = layer_of[i]
            entry = totals[layer]
            duration = span[2] - span[1]
            entry["calls"] += 1
            entry["self_s"] += duration - child_time[i]
            if not _has_ancestor_in(spans, layer_of, span[3], layer):
                entry["busy_s"] += duration
        return dict(totals)

    def calls_under(self, layer: str, ancestor_hook: tuple) -> int:
        """Number of spans of `layer` nested under spans of one hook."""
        spans = self.spans
        hook_id = HOOKS.index(ancestor_hook)
        n = 0
        for span in spans:
            if HOOKS[span[0]][2] != layer:
                continue
            parent = span[3]
            while parent is not None:
                if spans[parent][0] == hook_id:
                    n += 1
                    break
                parent = spans[parent][3]
        return n


def _has_ancestor_in(spans, layer_of, parent, layer) -> bool:
    while parent is not None:
        if layer_of[parent] == layer:
            return True
        parent = spans[parent][3]
    return False
