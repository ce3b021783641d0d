"""Spans around the calls into each torusmix module, recorded from outside.

:func:`install` wraps every public function of the package at *every*
binding that holds it: ``cli``, ``covariance`` and ``simulate`` import
functions by name (``from .operators import generator``), so wrapping only
the defining module would miss those calls.  Each span records its name,
start, end and parent; a layer's self time is its spans' durations minus
their children's.  Counts that cost time to compute (block sizes, dense
bytes, member-steps, quadrature steps, bytes written) are taken here, so
only a traced run pays for them.
"""

from __future__ import annotations

import importlib
import math
import os
import sys
import threading
import time
from collections import defaultdict

MODULES = ("cli", "covariance", "fields", "flows", "operators", "simulate", "spectral")
CLI_PUBLIC = ("main", "run", "parse_spec", "validate_report")

# function name -> layer; functions not listed fall into MODULE_LAYER, then
# into "<module>.other"
MODULE_LAYER = {"flows": "flows.build"}
LAYERS = {
    "advection_matrix": "operators.assembly",
    "dissipation_matrix": "operators.assembly",
    "generator": "operators.assembly",
    "invariant_blocks": "operators.blocks",
    "semigroup_norm": "operators.semigroup_norm",
    "lyapunov_covariance": "covariance.lyapunov",
    "covariance_by_quadrature": "covariance.quadrature",
    "h1_trace": "covariance.diagnostics",
    "block_operator_norm": "covariance.diagnostics",
    "covariance_distance": "covariance.diagnostics",
    "eigenvalue_summary": "covariance.diagnostics",
    "shear_limit_covariance": "covariance.diagnostics",
    "write_covariance": "covariance.export",
    "read_covariance": "covariance.export",
    "simulate": "simulate.run",
    "gaussian_increment_covariance": "simulate.increment",
    "empirical_covariance": "simulate.empirical",
    "spectrum": "spectral.spectrum",
    "h1_growth_average": "spectral.growth",
    "streamline_projection": "spectral.streamline",
    "sample_grid": "fields.grid",
    "field_from_grid": "fields.grid",
    "parse_spec": "cli.parse",
    "run": "cli.run_self",
    "main": "cli.main_self",
}


def _public_functions(module):
    names = getattr(module, "__all__", None) or CLI_PUBLIC
    for name in names:
        obj = getattr(module, name, None)
        if callable(obj) and not isinstance(obj, type):
            yield name, obj


class Tracer:
    """Span recorder: records while installed, until :meth:`uninstall`."""

    def __init__(self):
        self.spans = []                 # [name, start, end, parent_index]
        self.counts = defaultdict(float)
        self.maxima = defaultdict(float)
        self._stack = []
        self._main = threading.main_thread()
        self._restore = []              # (module, attribute, original)
        self._module_of = {}            # function name -> defining module

    def install(self, package) -> int:
        """Wrap every public function at every binding; return bindings wrapped."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        self._module_of.clear()
        wrappers = {}
        for short in MODULES:
            module = importlib.import_module(f"{package.__name__}.{short}")
            for name, fn in _public_functions(module):
                if getattr(fn, "__module__", None) == module.__name__:
                    if name in self._module_of:
                        raise ValueError(f"public name {name!r} defined twice")
                    self._module_of[name] = short
                    wrappers[id(fn)] = (fn, self._wrap(name, fn))
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == package.__name__ or name.startswith(package.__name__ + ".")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)][1])
        return len(self._restore)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _wrap(self, name, fn):
        tracer = self
        count = _COUNTERS.get(name)

        def traced(*args, **kwargs):
            if threading.current_thread() is not tracer._main:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, time.perf_counter(), None, parent]
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._stack.pop()
                span[2] = time.perf_counter()
            if count is not None:
                count(tracer, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.maxima.clear()

    def self_times(self) -> dict:
        """Self time per function name (span minus its children)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for (name, start, end, _), c in zip(self.spans, child):
            out[name] += end - start - c
        return out

    def layer_self_times(self) -> dict:
        out = defaultdict(float)
        for name, t in self.self_times().items():
            module = self._module_of[name]
            out[LAYERS.get(name) or MODULE_LAYER.get(module, f"{module}.other")] += t
        return out


def _arg(args, kwargs, i, key):
    return kwargs[key] if key in kwargs else args[i]


def _count_assembly(tr, args, kwargs, out):
    tr.counts["operators.assembly_calls"] += 1
    if not out.is_sparse:
        n = out.shape[0]
        tr.counts["operators.dense_mb"] += n * n * 8 / 1e6


def _count_blocks(tr, args, kwargs, out):
    sizes = [len(b) for b in out]
    tr.counts["operators.block_count"] += len(sizes)
    tr.counts["operators.block_cube_sum"] += float(sum(b**3 for b in sizes))
    tr.maxima["operators.block_max"] = max(tr.maxima["operators.block_max"], max(sizes))


def _count_lyapunov(tr, args, kwargs, out):
    tr.counts["covariance.lyapunov_calls"] += 1
    tr.maxima["covariance.residual_fro_max"] = max(
        tr.maxima["covariance.residual_fro_max"], out.meta["residual_fro"])


def _count_quadrature(tr, args, kwargs, out):
    T, h = _arg(args, kwargs, 2, "T"), _arg(args, kwargs, 3, "h")
    tr.counts["covariance.quadrature_steps"] += math.ceil(T / h)


def _count_export(tr, args, kwargs, out):
    target = _arg(args, kwargs, 1, "path_or_file")
    if isinstance(target, (str, bytes, os.PathLike)):
        tr.counts["covariance.export_mb"] += os.path.getsize(target) / 1e6


def _count_simulate(tr, args, kwargs, out):
    config = out.config
    tr.counts["simulate.member_steps"] += config.ensemble * round(config.horizon / config.dt)
    tr.counts["simulate.samples"] += out.accumulator.count


def _count_grid(tr, args, kwargs, out):
    tr.counts["fields.grid_calls"] += 1


def _count_semigroup_norm(tr, args, kwargs, out):
    tr.counts["operators.semigroup_norm_calls"] += 1


_COUNTERS = {
    "advection_matrix": _count_assembly,
    "dissipation_matrix": _count_assembly,
    "generator": _count_assembly,
    "invariant_blocks": _count_blocks,
    "semigroup_norm": _count_semigroup_norm,
    "lyapunov_covariance": _count_lyapunov,
    "covariance_by_quadrature": _count_quadrature,
    "write_covariance": _count_export,
    "simulate": _count_simulate,
    "sample_grid": _count_grid,
    "field_from_grid": _count_grid,
}
