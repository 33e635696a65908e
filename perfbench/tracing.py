"""Outside-in host wall-clock tracing for the benchmark's traced run.

The program under test has no wall-clock instrumentation of its own, so
the traced run wraps calls into each layer's public functions from here:
every wrapped call is a span on one nested stack, and a layer's *self
time* is its spans' durations minus the part their child spans cover.
Nothing in ``src/`` is edited; the wrappers are installed on the loaded
classes and modules and removed again on exit.

Functions are patched in the module that defines them *and* in every
``repro`` module that imported them by name (``from x import f`` binds
a second reference that patching ``x.f`` alone would miss).  Methods are
patched on the named class and on every loaded subclass that overrides
them.  ``repro.parallel`` is never patched.  A boundary that no longer
resolves raises :class:`MissingBoundary`, so a refactor that moves a
layer cannot silently drop it from the trace.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Tuple

#: The span every timed pass runs inside; its self time is the share of
#: the pass no layer accounts for (``trace.coverage`` is the rest).
ROOT = "bench.pass"

#: Modules never patched: the worker-pool layer is slated for removal,
#: and the benchmark keeps ``repro.parallel.workers`` at 0 anyway.
SKIP_PREFIXES = ("repro.parallel",)


def _count_arg(position: int, name: str) -> Callable:
    def amount(args, kwargs, _result) -> float:
        if name in kwargs:
            return kwargs[name]
        return args[position] if len(args) > position else 1
    return amount


def _calls(_args, _kwargs, _result) -> float:
    return 1


def _returned(_args, _kwargs, result) -> float:
    return result


#: (layer, "module:qualname", {counter name: amount(args, kwargs, result)}).
#: A layer's self time is reported as ``<layer>_s``.
BOUNDARIES: Tuple[Tuple[str, str, Dict[str, Callable]], ...] = (
    ("sql.parse", "repro.sql.parser:parse_script", {"sql.parse_calls": _calls}),
    ("plan.analyze", "repro.plan.analyzer:Analyzer.analyze", {}),
    ("plan.compile", "repro.plan.physical:PhysicalCompiler.compile",
     {"plan.compiles": _calls}),
    ("stats.collect", "repro.stats.model:collect_table_stats",
     {"stats.tables_collected": _calls}),
    ("simulate.self", "repro.simulate.events:Simulator.run", {}),
    ("simulate.leases", "repro.simulate.leases:LeaseManager.acquire", {}),
    ("simulate.leases", "repro.simulate.leases:LeaseManager.acquire_gang", {}),
    ("simulate.leases", "repro.simulate.leases:LeaseManager.release", {}),
    ("simulate.leases", "repro.simulate.leases:LeaseManager.cancel", {}),
    ("simulate.leases", "repro.simulate.leases:LeaseManager.cancel_gang", {}),
    ("simulate.leases", "repro.simulate.leases:LeaseLedger.record_grant",
     {"simulate.lease_grants": _count_arg(4, "count")}),
    ("exec.map", "repro.exec.mapper:ExecMapper.process_batch",
     {"exec.map_batches": _calls, "exec.rows_read": _returned}),
    ("exec.map", "repro.exec.mapper:ExecMapper.close", {}),
    ("exec.reduce", "repro.engines.base:run_reducer_functionally",
     {"exec.reduce_calls": _calls}),
    ("shuffle.buffers",
     "repro.engines.datampi.buffers:SendPartitionList.add_many", {}),
    ("shuffle.buffers", "repro.engines.datampi.buffers:ReceiveManager.deliver",
     {}),
    ("storage.scan", "repro.engines.base:scan_split", {}),
    ("storage.scan", "repro.engines.base:scan_split_batch", {}),
    ("storage.scan", "repro.storage.formats.base:StoredFile.scan",
     {"storage.scan_calls": _calls}),
    ("storage.scan", "repro.storage.formats.base:StoredFile.scan_batch",
     {"storage.scan_calls": _calls}),
    ("storage.encode", "repro.storage.formats.base:FileFormat.build", {}),
    ("storage.hdfs_write", "repro.storage.hdfs:HDFS.write", {}),
    ("sched.submit", "repro.sched.scheduler:WorkloadScheduler.submit",
     {"sched.submitted": _calls}),
)

#: Modules whose import registers the subclasses and by-name importers
#: the boundaries must reach (formats, every engine, the scheduler).
PRELOAD = (
    "repro",
    "repro.storage.formats",
    "repro.engines.local",
    "repro.engines.hadoop.engine",
    "repro.engines.datampi.engine",
    "repro.engines.llap.engine",
    "repro.sched.scheduler",
    "repro.core.driver",
)


class MissingBoundary(RuntimeError):
    """A boundary in :data:`BOUNDARIES` no longer resolves."""


class Tracer:
    """Nested host-clock spans reduced to per-layer self time and counts."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[list] = []  # [layer, start, seconds in children]

    def enter(self, layer: str) -> None:
        self._stack.append([layer, self.clock(), 0.0])

    def exit(self) -> None:
        layer, start, children = self._stack.pop()
        elapsed = self.clock() - start
        self.self_s[layer] += elapsed - children
        if self._stack:
            self._stack[-1][2] += elapsed

    def coverage(self) -> float:
        """Share of the root spans' time that some layer accounts for."""
        total = sum(self.self_s.values())
        if total <= 0:
            return 0.0
        return 1.0 - self.self_s.get(ROOT, 0.0) / total


def _wrap(fn: Callable, layer: str, counters: Dict[str, Callable],
          tracer: Tracer) -> Callable:
    # calls made outside a root span (set-up, checks, the oracle) run
    # untraced, so every recorded span nests inside some pass
    counts = tracer.counts
    stack = tracer._stack
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def traced_generator(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            for name, amount in counters.items():
                counts[name] += amount(args, kwargs, None)
            return _step_traced(tracer, layer, fn(*args, **kwargs))
        return traced_generator

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not stack:
            return fn(*args, **kwargs)
        tracer.enter(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        for name, amount in counters.items():
            counts[name] += amount(args, kwargs, result)
        return result
    return traced


def _step_traced(tracer: Tracer, layer: str, gen):
    """Drive *gen*, timing each resume as one span.

    A generator's body runs in slices between yields, interleaved with
    the simulator; only the slices are the layer's time.
    """
    send_value, thrown = None, None
    while True:
        tracer.enter(layer)
        try:
            item = gen.send(send_value) if thrown is None else gen.throw(thrown)
        except StopIteration as stop:
            return stop.value
        finally:
            tracer.exit()
        try:
            send_value, thrown = (yield item), None
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as exc:  # re-raised inside the wrapped generator
            send_value, thrown = None, exc


def _resolve(target: str):
    module_name, _, qualname = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise MissingBoundary(f"{target}: {exc}") from None
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            raise MissingBoundary(f"{target}: no {part!r}")
    fn = getattr(owner, parts[-1], None)
    if not callable(fn):
        raise MissingBoundary(f"{target}: no callable {parts[-1]!r}")
    return owner, parts[-1], fn


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _patch_sites(owner, name: str, fn) -> List[Tuple[object, str, object]]:
    """Every (holder, attribute, original) the boundary must replace."""
    if inspect.isclass(owner):
        sites = [(owner, name, owner.__dict__[name])] if name in owner.__dict__ else []
        for sub in _subclasses(owner):
            if name in sub.__dict__:
                sites.append((sub, name, sub.__dict__[name]))
        return sites
    sites = []
    for module_name, module in sorted(sys.modules.items()):
        if module is None or module_name.startswith(SKIP_PREFIXES):
            continue
        if module_name != "repro" and not module_name.startswith("repro."):
            continue
        for attr, value in vars(module).items():
            if value is fn:
                sites.append((module, attr, value))
    return sites


@contextmanager
def installed(tracer: Tracer, boundaries=BOUNDARIES):
    """Wrap every boundary for the duration of the ``with`` block."""
    for module_name in PRELOAD:
        importlib.import_module(module_name)
    plan = []
    for layer, target, counters in boundaries:
        owner, name, fn = _resolve(target)
        sites = _patch_sites(owner, name, fn)
        if not sites:
            raise MissingBoundary(f"{target}: nothing to patch")
        plan.extend((holder, attr, original, layer, counters)
                    for holder, attr, original in sites)
    patched: List[Tuple[object, str, object]] = []
    try:
        for holder, attr, original, layer, counters in plan:
            setattr(holder, attr, _wrap(original, layer, counters, tracer))
            patched.append((holder, attr, original))
        yield tracer
    finally:
        for holder, attr, original in reversed(patched):
            setattr(holder, attr, original)


@contextmanager
def traced_pass(tracer: Tracer):
    """Run the block as one traced pass: boundaries wrapped, inside a
    root span."""
    with installed(tracer):
        tracer.enter(ROOT)
        try:
            yield tracer
        finally:
            tracer.exit()
