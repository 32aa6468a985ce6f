"""In-memory span tracer that instruments ``repro`` from the outside.

The traced run wraps the public functions each layer exposes; nothing in
``src/repro`` knows it is being measured.  A span records its layer, start,
end, thread and the span that caused it (the innermost open span of the same
thread).  Spans stay in memory until the run ends; :meth:`Tracer.summary`
then folds them into per-layer self time, call counts and the counts the
wrappers observed (cache hits, simulated blocks, ...).

A layer's self time is its span durations minus the time its child spans
cover, so the self times of all layers add up to the traced wall time.
"""

from __future__ import annotations

import collections
import functools
import importlib.abc
import itertools
import json
import sys
import threading
import time
from typing import Callable, Dict, List, Optional

#: layers of the engines that simulate thread blocks; the outermost of
#: these spans carries the launch's ``blocks_executed``
ENGINE_LAYERS = ("gpu.scalar", "gpu.batched", "trace.replay")


class Tracer:
    """Collects spans from any number of threads."""

    def __init__(self) -> None:
        #: (span id, parent id, layer, start, end, blocks)
        self.spans: List[tuple] = []
        #: free-form event counts (cache hits, fallbacks, ...)
        self.counts: Dict[str, int] = collections.Counter()
        #: free-form wait samples in seconds (queue waits)
        self.waits: Dict[str, List[float]] = collections.defaultdict(list)
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, layer: str, fn: Callable, args, kwargs,
             observe: Optional[Callable] = None):
        """Run ``fn`` inside a span of ``layer``."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        blocks = getattr(result, "blocks_executed", 0) \
            if layer in ENGINE_LAYERS else 0
        self.spans.append((span_id, parent, layer, start, end, int(blocks)))
        if observe is not None:
            observe(self, result, args, kwargs)
        return result

    def wrap(self, fn: Callable, layer, observe=None) -> Callable:
        """Wrapper of ``fn``; ``layer`` is a name or ``(args, kwargs) -> name``
        (``None`` runs the call without a span)."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = layer(args, kwargs) if callable(layer) else layer
            if name is None:
                return fn(*args, **kwargs)
            return tracer.call(name, fn, args, kwargs, observe)

        return traced

    # -- results --------------------------------------------------------------
    def summary(self) -> Dict[str, object]:
        """Self time and count per layer, engine blocks, event counts."""
        by_id = {span[0]: span for span in self.spans}
        child_time: Dict[int, float] = collections.defaultdict(float)
        for span_id, parent, _layer, start, end, _blocks in self.spans:
            if parent:
                child_time[parent] += end - start
        layers: Dict[str, Dict[str, float]] = {}
        blocks: Dict[str, Dict[str, float]] = {}
        for span_id, parent, layer, start, end, n_blocks in self.spans:
            entry = layers.setdefault(layer, {"self_s": 0.0, "total_s": 0.0,
                                              "count": 0})
            entry["self_s"] += (end - start) - child_time[span_id]
            entry["total_s"] += end - start
            entry["count"] += 1
            if layer in ENGINE_LAYERS:
                outer = _engine_ancestor(by_id, parent) is None
                engine = blocks.setdefault(layer, {"blocks": 0, "seconds": 0.0,
                                                   "outer_blocks": 0})
                engine["blocks"] += n_blocks
                engine["seconds"] += end - start
                if outer:
                    engine["outer_blocks"] += n_blocks
        return {"layers": layers, "engines": blocks,
                "counts": dict(self.counts),
                "waits": {k: list(v) for k, v in self.waits.items()},
                "spans": len(self.spans)}

    def dump(self, path: str) -> None:
        """Write the summary and every span (id, parent, layer, start, end,
        blocks) as JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"summary": self.summary(), "spans": self.spans}, handle)


def _engine_ancestor(by_id: Dict[int, tuple], parent: int) -> Optional[int]:
    while parent:
        span = by_id.get(parent)
        if span is None:
            return None
        if span[2] in ENGINE_LAYERS:
            return parent
        parent = span[1]
    return None


# ---------------------------------------------------------------------------
# imports
# ---------------------------------------------------------------------------

class _ImportSpans(importlib.abc.MetaPathFinder):
    """Puts a span around the execution of selected modules' code."""

    def __init__(self, tracer: Tracer, layers: Dict[str, str]) -> None:
        self.tracer = tracer
        self.layers = layers

    def find_spec(self, fullname, path, target=None):
        layer = self.layers.get(fullname)
        if layer is None:
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(fullname, path, target)
            if spec is not None:
                break
        else:
            return None
        loader = spec.loader
        exec_module = loader.exec_module
        tracer = self.tracer

        class _Loader(importlib.abc.Loader):
            def create_module(self, spec):
                return loader.create_module(spec)

            def exec_module(self, module):
                tracer.call(layer, exec_module, (module,), {})

        spec.loader = _Loader()
        return spec


def trace_imports(tracer: Tracer, layers: Dict[str, str]) -> None:
    """Span the import of each module named in ``layers`` (module -> layer)."""
    sys.meta_path.insert(0, _ImportSpans(tracer, layers))


def start(import_program: Callable):
    """Traced start-up of a benchmark process: span the program's import
    (``repro.import``, with ``baselines.import`` inside it), then instrument
    every layer.  Returns ``(tracer, what import_program returned)``."""
    tracer = Tracer()
    trace_imports(tracer, {"repro.baselines": "baselines.import"})
    imported = tracer.call("repro.import", import_program, (), {})
    instrument(tracer)
    return tracer, imported


# ---------------------------------------------------------------------------
# instrumenting the program's layers
# ---------------------------------------------------------------------------

def _rebind(original: Callable, replacement: Callable) -> None:
    """Point every ``repro`` module global bound to ``original`` at the wrapper
    (modules that did ``from x import f`` hold their own reference)."""
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")) or module is None:
            continue
        namespace = getattr(module, "__dict__", {})
        for attr, value in list(namespace.items()):
            if value is original:
                setattr(module, attr, replacement)


def patch_function(tracer: Tracer, module, name: str, layer,
                   observe=None) -> None:
    original = getattr(module, name)
    _rebind(original, tracer.wrap(original, layer, observe))


def patch_method(tracer: Tracer, cls, name: str, layer,
                 observe=None) -> None:
    original = cls.__dict__[name]
    setattr(cls, name, tracer.wrap(original, layer, observe))


def _engine_of_launch(args, kwargs) -> Optional[str]:
    """Layer of one ``Kernel.launch`` call (replay launches have their own)."""
    batch_size = kwargs.get("batch_size", args[6] if len(args) > 6 else "auto")
    if batch_size == "replay":
        return None
    return "gpu.scalar" if batch_size == 1 else "gpu.batched"


def _count_if(event: str, predicate: Callable) -> Callable:
    def observe(tracer, result, args, kwargs):
        if predicate(result, args, kwargs):
            tracer.counts[event] += 1
    return observe


def instrument(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the benchmark reports.

    Imports the modules it patches, so call it after the import being
    measured as set-up has finished.
    """
    from repro import serialization
    from repro.analysis import scenario as analysis_scenario
    from repro.core import performance_model
    from repro.experiments import cache as experiments_cache
    from repro.experiments import jobs as experiments_jobs
    from repro.gpu.kernel import Kernel
    from repro.scenarios import registry, sweep
    from repro.service import queue as service_queue
    from repro.service.store import ResultStore
    from repro.trace import replay
    from repro.tuning import tuner

    patch_function(tracer, experiments_cache, "digest_source_tree",
                   "experiments.code_version")
    patch_function(tracer, experiments_jobs, "execute_job",
                   "experiments.execute_job")
    patch_function(tracer, sweep, "jobs", "scenarios.jobs")
    patch_method(tracer, registry.Scenario, "build_plan", "core.plan")
    patch_method(tracer, registry.Scenario, "oracle_output", "baselines.oracle")
    patch_method(tracer, registry.Scenario, "run",
                 lambda args, kwargs: "core.model" if (
                     kwargs.get("engine", args[6] if len(args) > 6 else None)
                     == "model") else None)
    patch_method(tracer, Kernel, "launch", _engine_of_launch)
    patch_function(tracer, replay, "replay_launch", "trace.replay")
    patch_function(tracer, replay, "record_trace", "trace.record")
    patch_function(tracer, replay, "compile_trace", "trace.compile")
    patch_function(tracer, replay, "get_program", "trace.get_program",
                   _count_if("trace.program_hit",
                             lambda result, a, k: result[0] is not None))
    patch_function(tracer, replay, "record_fallback", "trace.fallback")
    patch_method(tracer, replay.ReplaySession, "run_chunk", "trace.run_chunk")
    patch_method(tracer, replay.ReplaySession, "__init__", "trace.session",
                 _count_if("trace.counter_memo_hit",
                           lambda result, a, k: not k.get(
                               "account", a[5] if len(a) > 5 else True)))
    cache_cls = experiments_cache.SimulationCache
    patch_method(tracer, cache_cls, "lookup", "experiments.cache.lookup",
                 _count_if("experiments.cache.hit",
                           lambda result, a, k: result is not None))
    patch_method(tracer, cache_cls, "store", "experiments.cache.store")
    patch_method(tracer, cache_cls, "claim", "experiments.cache.claim")
    patch_function(tracer, serialization, "stable_digest",
                   "serialization.stable_digest")
    for name in ("upsert", "get", "claim", "create_run", "set_cell_status",
                 "run_progress", "list_runs"):
        patch_method(tracer, ResultStore, name, f"service.store.{name}")
    patch_function(tracer, tuner, "run_tuning", "tuning.run")
    for name in dir(performance_model):
        if name.startswith("model_") or name == "predict_launch":
            patch_function(tracer, performance_model, name,
                           "core.performance_model")
    patch_function(tracer, analysis_scenario, "analyze_scenario",
                   "analysis.analyze")
    _instrument_queue(tracer, service_queue.WorkerPool)


def _instrument_queue(tracer: Tracer, pool_cls) -> None:
    """Queue wait: ``WorkerPool.submit`` -> the cell's ``_run_one`` start."""
    submitted: Dict[str, collections.deque] = collections.defaultdict(
        collections.deque)
    lock = threading.Lock()
    submit, run_one = pool_cls.submit, pool_cls._run_one

    @functools.wraps(submit)
    def traced_submit(self, run_id, cell, job, priority=0):
        with lock:
            submitted[job.key].append(time.perf_counter())
        return submit(self, run_id, cell, job, priority=priority)

    @functools.wraps(run_one)
    def traced_run_one(self, job):
        now = time.perf_counter()
        with lock:
            queue = submitted.get(job.key)
            started = queue.popleft() if queue else None
        if started is not None:
            tracer.waits["service.queue.wait"].append(now - started)
        return run_one(self, job)

    pool_cls.submit = traced_submit
    pool_cls._run_one = traced_run_one
