"""Outside-in layer timing for the benchmark's traced runs.

The checker's own spans (``repro.telemetry``) bill most Presburger work to
whichever caller is on top of the stack, so the benchmark does not use them
for its per-layer split.  Instead :class:`LayerClock` wraps the public entry
points of each layer -- parse, def-use analysis, ADDG extraction, the
checker engine, the ``Set``/``Map`` algebra, the decision backends, the
service, scenario and diagnostics functions -- from the benchmark's own code,
and keeps one stack of active layers:

* a layer's **self time** is the time it was on top of the stack, so the self
  times of every layer add up to the wall time of the outermost call;
* a layer's **outer time** and **calls** count only calls made while no frame
  of the same layer is active (``presburger.calls`` counts the outermost
  ``Set``/``Map`` calls, not the calls they make to each other).

A call into a layer that is already on top of the stack passes straight
through.  Only the thread that installed the clock is timed.  Nothing is
installed unless the run is traced, so untraced runs measure the program
as shipped.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Tuple

_ns = time.perf_counter_ns

#: Metadata key under which a forked pool worker ships its layer totals home.
CHILD_KEY = "perfbench.layers"


class LayerClock:
    """Self time, outermost time and outermost calls per layer."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.tid = threading.get_ident()
        self.stack: List[list] = []
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.outer_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self._depth: Dict[str, int] = defaultdict(int)
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ #
    def totals(self) -> Dict[str, Dict[str, int]]:
        """A copy of the accumulated counters (for deltas around a call)."""
        return {
            "self_ns": dict(self.self_ns),
            "outer_ns": dict(self.outer_ns),
            "calls": dict(self.calls),
        }

    def adopt_child(self) -> None:
        """Restart the clock in a forked child (drops the parent's frames)."""
        self.pid = os.getpid()
        self.tid = threading.get_ident()
        self.stack = []
        self._depth = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.outer_ns = defaultdict(int)
        self.calls = defaultdict(int)

    def wrap(self, layer: str, fn: Callable) -> Callable:
        clock = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = clock.stack
            if (stack and stack[-1][0] == layer) or threading.get_ident() != clock.tid:
                return fn(*args, **kwargs)
            now = _ns()
            if stack:
                top = stack[-1]
                clock.self_ns[top[0]] += now - top[1]
            depth = clock._depth
            outermost = depth[layer] == 0
            depth[layer] += 1
            frame = [layer, now]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = _ns()
                stack.pop()
                depth[layer] -= 1
                clock.self_ns[layer] += end - frame[1]
                if outermost:
                    clock.outer_ns[layer] += end - now
                    clock.calls[layer] += 1
                if stack:
                    stack[-1][1] = end

        return timed

    # ------------------------------------------------------------------ #
    def patch_function(self, layer: str, module: Any, name: str, wrapped: Callable = None) -> None:
        """Replace ``module.name`` everywhere a loaded ``repro`` module binds it."""
        original = getattr(module, name)
        replacement = wrapped if wrapped is not None else self.wrap(layer, original)
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded is None or not (loaded_name == "repro" or loaded_name.startswith("repro.")):
                continue
            for attr, value in list(vars(loaded).items()):
                if value is original:
                    self._patches.append((loaded, attr, original))
                    setattr(loaded, attr, replacement)

    def patch_methods(self, layer: str, cls: type, names: Tuple[str, ...] = ()) -> None:
        """Wrap *names* of *cls* (default: every public plain or static method)."""
        for attr, value in list(vars(cls).items()):
            if names and attr not in names:
                continue
            if not names and attr.startswith("_"):
                continue
            if isinstance(value, staticmethod):
                replacement: Any = staticmethod(self.wrap(layer, value.__func__))
            elif callable(value) and not isinstance(value, (classmethod, type)):
                replacement = self.wrap(layer, value)
            else:
                continue
            self._patches.append((cls, attr, value))
            setattr(cls, attr, replacement)

    def uninstall(self) -> None:
        """Restore every patched attribute (last patch first)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def install(clock: LayerClock) -> None:
    """Wrap the layer entry points of the ``repro`` package into *clock*."""
    import repro.addg
    import repro.analysis
    import repro.diagnostics
    import repro.lang
    import repro.presburger
    import repro.scenarios
    import repro.service
    import repro.service.executor as executor
    import repro.solvers.crosscheck
    import repro.verifier
    from repro.checker.engine import Engine

    clock.patch_methods("verifier", repro.verifier.Verifier, ("check", "compile"))
    clock.patch_function("lang.parse", repro.lang, "parse_program")
    clock.patch_function("lang.print", repro.lang, "program_to_text")
    clock.patch_function("lang.interp", repro.lang, "run_program")
    clock.patch_function("lang.interp", repro.lang, "run_program_traced")
    clock.patch_function("analysis", repro.analysis, "check_dataflow")
    clock.patch_function("addg", repro.addg, "build_addg")
    clock.patch_methods(
        "checker",
        Engine,
        (
            "__init__",
            "output_term",
            "compare",
            "correspondence_obligations",
            "apply_suspect_heuristic",
            "record_opcache_stats",
        ),
    )
    clock.patch_methods("presburger", repro.presburger.Set)
    clock.patch_methods("presburger", repro.presburger.Map)
    for name in ("transitive_closure", "parse_set", "parse_map"):
        clock.patch_function("presburger", repro.presburger, name)
    clock.patch_methods(
        "solvers",
        repro.solvers.crosscheck.CrossCheckBackend,
        ("is_feasible", "is_subset", "is_equal", "is_disjoint", "sample_point"),
    )
    clock.patch_function("service.fingerprint", repro.service, "job_fingerprint")
    clock.patch_methods("service.cache_get", repro.service.ResultCache, ("get",))
    clock.patch_methods("service.cache_put", repro.service.ResultCache, ("put",))
    clock.patch_methods("service", repro.service.BatchExecutor, ("run",))
    clock.patch_function("scenarios", repro.scenarios, "build_scenarios")
    clock.patch_function("scenarios", repro.scenarios, "scenario_jobs")
    clock.patch_function("diagnostics", repro.diagnostics, "attach_failure_report")
    clock.patch_function(
        "service.job", executor, "execute_job", _child_shipping(clock, executor.execute_job)
    )


def _child_shipping(clock: LayerClock, execute_job: Callable) -> Callable:
    """``execute_job`` timed as ``service.job``; pool workers ship their totals.

    A ``fork`` pool worker inherits the wrapped functions and the parent's
    clock.  On its first job it restarts the clock, and every job result then
    carries the worker's layer deltas in its metadata under
    :data:`CHILD_KEY`, for :func:`take_child_totals` in the parent.  The
    wrapper keeps ``execute_job``'s module and name, so the pool still
    pickles it by reference.
    """
    timed = clock.wrap("service.job", execute_job)
    parent_pid = clock.pid

    @functools.wraps(execute_job)
    def shipping(*args, **kwargs):
        if os.getpid() == parent_pid:
            return timed(*args, **kwargs)
        if clock.pid != os.getpid():
            clock.adopt_child()
        from repro.presburger import opcache

        before = clock.totals()
        cache_before = opcache.snapshot()
        outcome = timed(*args, **kwargs)
        cache = opcache.snapshot().delta(cache_before)
        outcome.metadata[CHILD_KEY] = {
            "pid": os.getpid(),
            "delta": delta(clock, before),
            "opcache": [cache.hits, cache.misses, cache.evictions, cache.intern_hits, cache.intern_misses],
        }
        return outcome

    return shipping


def delta(clock: LayerClock, before: Dict[str, Dict[str, int]]) -> Dict[str, Dict[str, int]]:
    """What *clock* accumulated since the :meth:`LayerClock.totals` *before*."""
    after = clock.totals()
    return {
        kind: {
            layer: value - before[kind].get(layer, 0)
            for layer, value in values.items()
            if value != before[kind].get(layer, 0)
        }
        for kind, values in after.items()
    }


def take_child_totals(results) -> Tuple[List[Dict[str, Dict[str, int]]], List[int]]:
    """Remove the totals pool workers shipped in *results*' metadata.

    Returns the layer deltas and the summed opcache counters (hits, misses,
    evictions, intern hits, intern misses) of every job a worker ran.
    """
    deltas = []
    cache = [0, 0, 0, 0, 0]
    for outcome in results:
        shipped = outcome.metadata.pop(CHILD_KEY, None)
        if not shipped or shipped["pid"] == os.getpid():
            continue
        deltas.append(shipped["delta"])
        cache = [total + value for total, value in zip(cache, shipped["opcache"])]
    return deltas, cache
