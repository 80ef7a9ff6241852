"""Per-layer tracing for the benchmark's traced run.

A traced run swaps each layer function's name, in the modules that call it,
for a wrapper that records a span (name, start, end, parent span, pipeline
id) plus a few counts taken from the call's arguments and result.  Spans
stay in memory and are written out when the run ends.  Only spans opened
inside a pipeline are recorded, so the untimed correctness checks, which
call some of the same functions, leave no trace.  ``installed`` restores
every swapped name on exit, before any untraced work runs.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    pipeline: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; records only while a pipeline is open."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._pipeline: Optional[int] = None

    @contextmanager
    def pipeline(self, pipeline_id: int):
        self._pipeline = pipeline_id
        try:
            with self.span("pipeline"):
                yield
        finally:
            self._pipeline = None

    @contextmanager
    def span(self, name: str):
        if self._pipeline is None:
            yield None
            return
        parent = self._stack[-1] if self._stack else None
        sp = Span(name, time.perf_counter(), math.nan, parent, self._pipeline)
        self._stack.append(len(self.spans))
        self.spans.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()


def _union_length(intervals) -> float:
    total, reach = 0.0, -math.inf
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent].append(sp)
    return [
        sp.duration
        - _union_length(
            (max(c.start, sp.start), min(c.end, sp.end)) for c in children[i]
        )
        for i, sp in enumerate(spans)
    ]


# ---------------------------------------------------------------------------
# the layers and what each wrapper records
# ---------------------------------------------------------------------------


def _call(sp, fn, args, kwargs):
    return fn(*args, **kwargs)


def _newton(sp, fn, args, kwargs):
    approx = fn(*args, **kwargs)
    sp.attrs["iterations"] = int(approx.iterations)
    sp.attrs["latent_dim"] = int(np.size(approx.mode))
    return approx


def _design_bytes(sp, fn, args, kwargs):
    block = fn(*args, **kwargs)
    sp.attrs["bytes"] = int(block.values.nbytes)
    return block


def _curve_bytes(sp, fn, args, kwargs):
    curve = fn(*args, **kwargs)
    sp.attrs["bytes"] = int(curve.samples.nbytes)
    return curve


def _file_bytes(sp, fn, args, kwargs):
    out = fn(*args, **kwargs)
    sp.attrs["bytes"] = os.path.getsize(args[0])
    return out


def grid_diagnostics(grid) -> dict:
    """Point count, effective sample size and the mass on the outermost nodes."""
    w = np.asarray(grid.weights, dtype=float)
    dev = np.atleast_2d(grid.points) - np.atleast_1d(grid.mode)
    z = np.abs(np.linalg.solve(np.atleast_2d(grid.chol_cov), dev.T).T)
    edge = np.any(np.isclose(z, z.max(axis=0), rtol=1e-9, atol=0.0), axis=1)
    return {
        "grid_points": int(w.size),
        "grid_ess": float(1.0 / np.sum(w**2)),
        "edge_mass": float(w[edge].sum()),
    }


def _quadrature(sp, fn, args, kwargs):
    log_post, *rest = args
    calls = 0

    def counted(theta):
        nonlocal calls
        calls += 1
        return log_post(theta)

    try:
        grid = fn(counted, *rest, **kwargs)
    finally:
        sp.attrs["log_post_calls"] = calls
    sp.attrs.update(grid_diagnostics(grid))
    return grid


@dataclass(frozen=True)
class Layer:
    """A span name and where its function is bound: ``module`` or ``module:Class``."""

    name: str
    attr: str
    owners: tuple
    observe: Callable = _call


_INF, _CLI = "osplines.inference", "osplines.cli"
_SIM, _EXACT = "osplines.simbench", "osplines.exact"

LAYERS = (
    Layer("basis.design_matrix", "design_matrix", (_INF,), _design_bytes),
    Layer("inference.build_model", "build_model", (_INF, _CLI, _SIM)),
    Layer("inference.newton_mode", "newton_mode", (_INF,), _newton),
    Layer("aghq.adapt_quadrature", "adapt_quadrature", (_INF, _EXACT), _quadrature),
    Layer("inference.aghq_fit", "aghq_fit", (_INF, _CLI, _SIM)),
    Layer("inference.posterior_function", "posterior_function", (_INF, _CLI, _SIM), _curve_bytes),
    Layer("inference.posterior_moments", "posterior_moments", (_INF, _SIM)),
    Layer("inference.condition_number", "condition_number", (_INF, _CLI)),
    Layer("cli.DataTable.load", "load", (_CLI + ":DataTable",)),
    Layer("cli.write_csv", "write_csv", (_CLI,), _file_bytes),
    Layer("exact.exact_hierarchical_fit", "exact_hierarchical_fit", (_EXACT, _SIM)),
    Layer("exact.IWPKernel.cov_matrix", "cov_matrix", (_EXACT + ":IWPKernel",)),
)


def _owner(spec: str):
    module, _, cls = spec.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def _wrap(tracer: Tracer, layer: Layer, raw):
    if isinstance(raw, (classmethod, staticmethod)):
        return type(raw)(_wrap(tracer, layer, raw.__func__))

    @functools.wraps(raw)
    def traced(*args, **kwargs):
        with tracer.span(layer.name) as sp:
            if sp is None:
                return raw(*args, **kwargs)
            return layer.observe(sp, raw, args, kwargs)

    return traced


@contextmanager
def installed(tracer: Tracer):
    """Swap every layer's bindings for tracing wrappers; restore them on exit."""
    patches = []
    try:
        for layer in LAYERS:
            found = False
            for spec in layer.owners:
                owner = _owner(spec)
                raw = vars(owner).get(layer.attr)
                if raw is None:
                    continue
                patches.append((owner, layer.attr, raw))
                setattr(owner, layer.attr, _wrap(tracer, layer, raw))
                found = True
            if not found:
                raise LookupError(f"layer {layer.name}: '{layer.attr}' is bound nowhere")
        yield
    finally:
        for owner, attr, raw in reversed(patches):
            setattr(owner, attr, raw)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# name -> unit; BENCHMARK.json lists the same names under per_layer
PER_LAYER_UNITS = {
    "basis.design_matrix.calls": "count",
    "basis.design_matrix.s": "s",
    "basis.design_matrix.bytes": "B",
    "inference.build_model.s": "s",
    "inference.newton_mode.calls": "count",
    "inference.newton_mode.s": "s",
    "inference.newton_mode.per_call_s": "s",
    "inference.newton_mode.iterations": "count",
    "inference.newton_mode.latent_dim": "count",
    "aghq.adapt_quadrature.s": "s",
    "aghq.adapt_quadrature.self_s": "s",
    "aghq.log_post.calls": "count",
    "aghq.grid_points": "count",
    "aghq.kept_solve_ratio": "ratio",
    "aghq.grid_ess": "points",
    "aghq.edge_mass": "frac",
    "inference.aghq_fit.s": "s",
    "inference.aghq_fit.self_s": "s",
    "inference.posterior_function.calls": "count",
    "inference.posterior_function.s": "s",
    "inference.posterior_function.bytes": "B",
    "inference.posterior_moments.calls": "count",
    "inference.posterior_moments.s": "s",
    "inference.condition_number.calls": "count",
    "inference.condition_number.s": "s",
    "cli.DataTable.load.s": "s",
    "cli.write_csv.s": "s",
    "cli.write_csv.bytes": "B",
    "exact.exact_hierarchical_fit.s": "s",
    "exact.exact_hierarchical_fit.self_s": "s",
    "exact.IWPKernel.cov_matrix.calls": "count",
    "exact.IWPKernel.cov_matrix.s": "s",
    "trace.pass_s": "s",
    "trace.overhead_frac": "frac",
}


def layer_metrics(spans: list[Span], pass_s: float, overhead_frac: float) -> dict:
    """Per-layer totals over the traced pass, keyed as in PER_LAYER_UNITS.

    ``pass_s`` is the traced pass's pipeline time and ``overhead_frac`` the
    median of traced / untraced time over pipelines that ran both ways, less 1.

    Layers that did not run report zero; grid ESS and edge mass are means
    over the quadrature grids built in the pass.
    """
    selfs = self_times(spans)
    calls, secs, own = defaultdict(int), defaultdict(float), defaultdict(float)
    attrs = defaultdict(lambda: defaultdict(float))
    for sp, st in zip(spans, selfs):
        calls[sp.name] += 1
        secs[sp.name] += sp.duration
        own[sp.name] += st
        for key, val in sp.attrs.items():
            attrs[sp.name][key] += val
    newton, quad = "inference.newton_mode", "aghq.adapt_quadrature"
    grids = calls[quad]
    values = {
        "aghq.log_post.calls": attrs[quad]["log_post_calls"],
        "aghq.grid_points": attrs[quad]["grid_points"],
        "aghq.kept_solve_ratio": (
            attrs[quad]["grid_points"] / calls[newton] if calls[newton] else 0.0
        ),
        "aghq.grid_ess": attrs[quad]["grid_ess"] / grids if grids else 0.0,
        "aghq.edge_mass": attrs[quad]["edge_mass"] / grids if grids else 0.0,
        "inference.newton_mode.per_call_s": secs[newton] / calls[newton] if calls[newton] else 0.0,
        "inference.newton_mode.iterations": attrs[newton]["iterations"],
        "inference.newton_mode.latent_dim": max(
            (sp.attrs["latent_dim"] for sp in spans if sp.name == newton), default=0
        ),
        "trace.pass_s": pass_s,
        "trace.overhead_frac": overhead_frac,
    }
    for name in PER_LAYER_UNITS:
        if name not in values:
            layer, _, kind = name.rpartition(".")
            table = {"calls": calls, "s": secs, "self_s": own}.get(kind)
            values[name] = table[layer] if table is not None else attrs[layer][kind]
    counted = {name for name, unit in PER_LAYER_UNITS.items() if unit in ("count", "B")}
    return {
        name: {"value": int(values[name]) if name in counted else values[name], "unit": unit}
        for name, unit in PER_LAYER_UNITS.items()
    }


def span_records(spans: list[Span]) -> list[dict]:
    """Spans as JSON-ready records, with self time."""
    return [
        {
            "name": sp.name, "start": sp.start, "end": sp.end, "parent": sp.parent,
            "pipeline": sp.pipeline, "self_s": st, **sp.attrs,
        }
        for sp, st in zip(spans, self_times(spans))
    ]
