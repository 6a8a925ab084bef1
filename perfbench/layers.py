"""What the traced run wraps in :mod:`repro`, and the per-layer metrics.

Layers are named after the modules they measure.  Every target is
optional: a function or method a later version of the program no longer
has is skipped, and its metrics read 0, so the benchmark keeps running
while the program is refactored.

Callers that bound a name at import time (``from repro.engine import
run_scheduler``) still see the wrapper, because :func:`patch_function`
replaces the original object in *every* loaded ``repro`` module, not
just the one that defines it.  Methods are wrapped on their class, and
on every subclass that overrides them.  Whatever escapes shows up as
``other_s``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
from typing import Callable, Dict, Iterable, Mapping

from perfbench.tracer import Tracer, self_times, span_counts

__all__ = [
    "PER_LAYER", "install", "layer_metrics", "patch_function", "patch_method",
    "self_time_table",
]

#: ``(layer, module, function)`` wrapped in a span.
FUNCTIONS = (
    ("experiments.campaign_build", "repro.experiments", "campaign_for"),
    ("experiments.point", "repro.runner.backends.base", "run_one"),
    ("runner.sweep", "repro.runner.sweep", "run_sweep"),
    ("runner.sweep", "repro.runner.sweep", "run_campaign"),
    ("runner.hashing.key", "repro.runner.hashing", "point_key"),
    ("runner.hashing.code_version", "repro.runner.hashing", "code_version"),
    ("analysis.tables.format", "repro.analysis.tables", "format_table"),
    ("engine.fast_batch", "repro.engine.batch", "run_batch"),
    ("engine.model_batch", "repro.engine.model_batch", "run_model_batch"),
    ("engine.model_scalar", "repro.engine.model", "run_model"),
    ("simple.search", "repro.simple.bruteforce", "brute_force_best"),
    ("simple.search", "repro.simple.minmin", "min_min"),
    ("simple.search", "repro.simple.thrifty", "thrifty"),
    ("simple.search", "repro.simple.alternating", "alternating_greedy"),
)

#: ``(layer, module, class, methods)`` wrapped in a span.
METHODS = (
    ("runner.cache.get", "repro.runner.cache", "ResultCache", ("get", "get_many")),
    ("runner.cache.put", "repro.runner.cache", "ResultCache", ("put", "put_many")),
    (
        "runner.cache.fold", "repro.runner.cache", "ResultCache",
        ("manifest_keys", "manifest", "quarantined", "stats", "_folded_sweep"),
    ),
    ("runner.backends.map", "repro.runner.backends.serial", "SerialBackend", ("map",)),
    ("engine.fast_run", "repro.engine.fast", "FastEngine", ("run",)),
    ("sim.des_run", "repro.sim.core", "Environment", ("run",)),
)

#: ``(layer, module, base class, method)`` wrapped on every subclass
#: that defines it.
SUBCLASS_METHODS = tuple(
    (f"schedulers.{method}", "repro.schedulers.base", "ChunkScheduler", method)
    for method in ("chunk_param", "build_chunks", "assign", "plan_signatures")
)

#: ``(counter, module, class or None, attributes)`` counted, not timed:
#: these run millions of times per sweep.
COUNTERS = (
    ("scenarios.rate_calls", "repro.scenarios.model", "Scenario", ("c_rate", "w_rate")),
    ("runner.cache.fsyncs", "os", None, ("fsync",)),
)

#: Per-layer metrics, in the order ``BENCHMARK.json`` lists them:
#: ``name -> unit``.
PER_LAYER: Dict[str, str] = {
    "import.total_s": "s",
    "import.scipy_s": "s",
    "experiments.campaign_build_s": "s",
    "experiments.points": "count",
    "experiments.point_self_s": "s",
    "capacity.grid_build_s": "s",
    "capacity.shortlist_s": "s",
    "schedulers.build_chunks_s": "s",
    "schedulers.build_chunks_calls": "count",
    "schedulers.assign_s": "s",
    "schedulers.plan_signatures_s": "s",
    "schedulers.chunk_param_s": "s",
    "engine.fast_run_s": "s",
    "engine.fast_runs": "count",
    "engine.fast_batch_s": "s",
    "engine.model_batch_s": "s",
    "engine.model_items": "count",
    "engine.model_vectorized_frac": "1",
    "engine.model_scalar_s": "s",
    "engine.model_scalar_runs": "count",
    "sim.des_run_s": "s",
    "simple.search_s": "s",
    "scenarios.rate_calls": "count",
    "runner.cache.put_s": "s",
    "runner.cache.fsyncs": "count",
    "runner.cache.bytes_written": "B",
    "runner.cache.get_s": "s",
    "runner.cache.fold_s": "s",
    "runner.cache.hits": "count",
    "runner.cache.misses": "count",
    "runner.cache.hit_ratio": "1",
    "runner.hashing.key_s": "s",
    "runner.hashing.keys": "count",
    "runner.backends.map_self_s": "s",
    "runner.sweep.self_s": "s",
    "analysis.tables.format_s": "s",
    "analysis.tables.rows": "count",
    "bench.harness_s": "s",
    "trace.wall_s": "s",
    "other_s": "s",
    "trace.overhead_s": "s",
}


# -- wrapping -------------------------------------------------------------


def _module(name: str):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def patch_function(module, attr: str, make: Callable[[Callable], Callable]) -> bool:
    """Replace ``module.attr`` with ``make(original)`` wherever it is bound."""
    original = getattr(module, attr, None) if module is not None else None
    if not callable(original):
        return False
    wrapper = make(original)
    for loaded in list(sys.modules.values()):
        name = getattr(loaded, "__name__", "")
        if name != "repro" and not name.startswith("repro."):
            continue
        for key, value in list(vars(loaded).items()):
            if value is original:
                setattr(loaded, key, wrapper)
    setattr(module, attr, wrapper)
    return True


def patch_method(cls, attr: str, make: Callable[[Callable], Callable]) -> bool:
    raw = cls.__dict__.get(attr)
    if raw is None:
        return False
    if isinstance(raw, (staticmethod, classmethod)):
        setattr(cls, attr, type(raw)(make(raw.__func__)))
    elif callable(raw):
        setattr(cls, attr, make(raw))
    else:
        return False
    return True


def _subclasses(cls) -> Iterable[type]:
    seen = {cls}
    todo = [cls]
    while todo:
        current = todo.pop()
        yield current
        for sub in current.__subclasses__():
            if sub not in seen:
                seen.add(sub)
                todo.append(sub)


def _count_cache_get(tracer: Tracer, args, kwargs, result) -> None:
    hit = isinstance(result, tuple) and len(result) == 2 and bool(result[1])
    tracer.count("runner.cache.hits" if hit else "runner.cache.misses")


def _count_points(tracer: Tracer, args, kwargs, result) -> None:
    sweeps = getattr(result, "sweeps", ())
    tracer.count("experiments.points", sum(len(s.points) for s in sweeps))


def _count_rows(tracer: Tracer, args, kwargs, result) -> None:
    rows = args[0] if args else kwargs.get("rows", ())
    tracer.count("analysis.tables.rows", len(rows))


AFTER = {
    ("repro.runner.cache", "get"): _count_cache_get,
    ("repro.experiments", "campaign_for"): _count_points,
    ("repro.analysis.tables", "format_table"): _count_rows,
}


def _model_batch_counters(tracer: Tracer, fn: Callable) -> Callable:
    """``run_model_batch`` with its ``counters`` always collected."""
    if "counters" not in inspect.signature(fn).parameters:
        return fn

    @functools.wraps(fn)
    def call(*args, **kwargs):
        counters = kwargs.get("counters")
        if counters is None and len(args) < 3:
            counters = kwargs["counters"] = {}
        elif counters is None:
            counters = args[2]
        result = fn(*args, **kwargs)
        tracer.count("engine.model_items", len(result))
        tracer.count("engine.model_vectorized", counters.get("vectorized", 0))
        return result

    return call


def install(tracer: Tracer) -> int:
    """Wrap every available target; returns how many were wrapped."""
    wrapped = 0
    for layer, module_name, attr in FUNCTIONS:
        after = AFTER.get((module_name, attr))

        def make(fn, layer=layer, after=after):
            if layer == "engine.model_batch":
                fn = _model_batch_counters(tracer, fn)
            return tracer.wrap(fn, layer, after)

        wrapped += patch_function(_module(module_name), attr, make)
    for layer, module_name, class_name, attrs in METHODS:
        cls = getattr(_module(module_name), class_name, None)
        if cls is None:
            continue
        for attr in attrs:
            after = AFTER.get((module_name, attr))
            wrapped += patch_method(
                cls, attr, lambda fn, layer=layer, after=after: tracer.wrap(fn, layer, after)
            )
    _module("repro.schedulers")  # load every scheduler subclass
    for layer, module_name, base_name, attr in SUBCLASS_METHODS:
        base = getattr(_module(module_name), base_name, None)
        if base is None:
            continue
        for cls in _subclasses(base):
            wrapped += patch_method(
                cls, attr, lambda fn, layer=layer: tracer.wrap(fn, layer)
            )
    for name, module_name, class_name, attrs in COUNTERS:
        owner = _module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name, None)
        if owner is None:
            continue
        for attr in attrs:
            if module_name == "os":
                original = getattr(os, attr)
                setattr(os, attr, tracer.counter(original, name))
                wrapped += 1
            else:
                wrapped += patch_method(
                    owner, attr, lambda fn, name=name: tracer.counter(fn, name)
                )
    return wrapped


# -- metrics --------------------------------------------------------------


def layer_metrics(
    spans, counts: Mapping[str, float], traced_wall: float
) -> Dict[str, float]:
    """Per-layer metrics from one traced process's spans and counters.

    ``import.scipy_s``, ``runner.cache.bytes_written`` and
    ``trace.overhead_s`` need facts from outside the process; the caller
    fills them in.
    """
    own = self_times(spans)
    calls = span_counts(spans)

    def s(*layers: str) -> float:
        return sum(own.get(layer, 0.0) for layer in layers)

    hits = counts.get("runner.cache.hits", 0)
    misses = counts.get("runner.cache.misses", 0)
    items = counts.get("engine.model_items", 0)
    metrics = {
        "import.total_s": s("import"),
        "experiments.campaign_build_s": s("experiments.campaign_build"),
        "experiments.points": counts.get("experiments.points", 0),
        "experiments.point_self_s": s("experiments.point"),
        "capacity.grid_build_s": s("capacity.grid_build"),
        "capacity.shortlist_s": s("capacity.shortlist"),
        "schedulers.build_chunks_s": s("schedulers.build_chunks"),
        "schedulers.build_chunks_calls": calls.get("schedulers.build_chunks", 0),
        "schedulers.assign_s": s("schedulers.assign"),
        "schedulers.plan_signatures_s": s("schedulers.plan_signatures"),
        "schedulers.chunk_param_s": s("schedulers.chunk_param"),
        "engine.fast_run_s": s("engine.fast_run"),
        "engine.fast_runs": calls.get("engine.fast_run", 0),
        "engine.fast_batch_s": s("engine.fast_batch"),
        "engine.model_batch_s": s("engine.model_batch"),
        "engine.model_items": items,
        "engine.model_vectorized_frac": (
            counts.get("engine.model_vectorized", 0) / items if items else 0.0
        ),
        "engine.model_scalar_s": s("engine.model_scalar"),
        "engine.model_scalar_runs": calls.get("engine.model_scalar", 0),
        "sim.des_run_s": s("sim.des_run"),
        "simple.search_s": s("simple.search"),
        "scenarios.rate_calls": counts.get("scenarios.rate_calls", 0),
        "runner.cache.put_s": s("runner.cache.put"),
        "runner.cache.fsyncs": counts.get("runner.cache.fsyncs", 0),
        "runner.cache.get_s": s("runner.cache.get"),
        "runner.cache.fold_s": s("runner.cache.fold"),
        "runner.cache.hits": hits,
        "runner.cache.misses": misses,
        "runner.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "runner.hashing.key_s": s("runner.hashing.key", "runner.hashing.code_version"),
        "runner.hashing.keys": calls.get("runner.hashing.key", 0),
        "runner.backends.map_self_s": s("runner.backends.map"),
        "runner.sweep.self_s": s("runner.sweep"),
        "analysis.tables.format_s": s("analysis.tables.format"),
        "analysis.tables.rows": counts.get("analysis.tables.rows", 0),
        "bench.harness_s": s("bench.harness"),
        "trace.wall_s": traced_wall,
        "other_s": traced_wall - sum(own.values()),
    }
    return metrics


def self_time_table(spans, traced_wall: float) -> str:
    """Human-readable self time per layer, largest first."""
    own = self_times(spans)
    calls = span_counts(spans)
    own["(other)"] = traced_wall - sum(own.values())
    lines = [f"{'layer':<32s} {'self_s':>9s} {'share':>7s} {'calls':>8s}"]
    for name, value in sorted(own.items(), key=lambda kv: -kv[1]):
        share = value / traced_wall if traced_wall > 0 else 0.0
        lines.append(
            f"{name:<32s} {value:9.4f} {share:7.1%} {calls.get(name, 0):8d}"
        )
    lines.append(f"{'traced wall':<32s} {traced_wall:9.4f}")
    return "\n".join(lines)
