"""Per-layer wrappers for the traced run.

:class:`LayerRecorder` swaps public functions and methods of the
program for timing wrappers for the length of one fleet run, and puts
every original back afterwards.  A module-level function is replaced
in every ``repro`` module that bound it by name (``from x import f``),
so call sites that use the imported name are reached too.

Spans live in memory.  A layer's ``.s`` is inclusive time over its
outermost calls; a call into a layer that is already active (for
example ``FleetSpec.base_trace`` calling ``synthetic_trace``) adds no
span and no count.  ``.self_s`` is ``.s`` minus the time spent in
other wrapped layers below it.

Wrappers run in this process only: pool workers never report back, so
the traced run executes with one worker.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

from pb_config import SPAN_LAYERS

#: ``(layer, module, class or None, attribute)`` of every timed target.
SPAN_TARGETS: Tuple[Tuple[str, str, Optional[str], str], ...] = (
    ("solar", "repro.fleet.spec", "FleetSpec", "base_trace"),
    ("solar", "repro.fleet.spec", None, "node_trace"),
    ("solar", "repro.solar.days", None, "synthetic_trace"),
    ("core.offline", "repro.core.offline", "OfflinePipeline", "run"),
    (
        "energy.sizing",
        "repro.core.offline",
        "OfflinePipeline",
        "size_capacitors",
    ),
    ("core.longterm", "repro.core.longterm", "LongTermOptimizer", "optimize"),
    ("core.ann", "repro.core.ann.dbn", "DBN", "fit"),
    ("sim.engine", "repro.sim.engine", None, "simulate"),
    ("sim.batch", "repro.sim.batch", None, "simulate_batch"),
    ("sim.checkpoint", "repro.sim.checkpoint", None, "result_fingerprint"),
    ("fleet.result", "repro.fleet.result", "FleetAggregate", "from_nodes"),
    ("fleet.result", "repro.fleet.result", "FleetAggregate", "merge"),
    ("fleet.result", "repro.fleet.result", "FleetResult", "fingerprint"),
    (
        "reliability.supervisor",
        "repro.reliability.supervisor",
        None,
        "supervised_map",
    ),
    ("perf.cache", "repro.perf.cache", "ArtifactCache", "get"),
    ("perf.cache", "repro.perf.cache", "ArtifactCache", "put"),
)

#: Counted, not timed: one call per simulated day of capacitor sizing.
DAY_SIM_TARGET = ("repro.energy.sizing", "simulate_day_migration")


def _program_modules() -> List[object]:
    return [
        module
        for name, module in list(sys.modules.items())
        if name == "repro" or name.startswith("repro.")
    ]


def _graph_key(pipeline) -> str:
    from repro.perf.cache import describe_graph

    return json.dumps(describe_graph(pipeline.graph), sort_keys=True)


class LayerRecorder:
    """In-memory spans and counters at the program's layer boundaries."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.total: Counter = Counter()
        self.self_time: Counter = Counter()
        self.counts: Counter = Counter()
        self.offline_workloads: set = set()
        self._active: set = set()
        self._child_time: List[List[float]] = []
        self._patches: List[Tuple[object, str, object]] = []
        self._originals: Dict[int, Tuple[Callable, Callable]] = {}

    # ------------------------------------------------------------------
    # Observations made after a wrapped call returns
    # ------------------------------------------------------------------
    def _after(self, attr: str, args, result, sizing_before: int) -> None:
        if attr == "run":  # OfflinePipeline.run
            if self.calls["energy.sizing"] > sizing_before:
                self.counts["offline_runs"] += 1
                self.offline_workloads.add(_graph_key(args[0]))
        elif attr == "simulate_batch":
            self.counts["batched_nodes"] += len(args[0])
        elif attr == "get":
            self.counts["cache_gets"] += 1
            self.counts["cache_hits"] += result is not None
        elif attr == "put":
            if result is not None:
                self.counts["cache_bytes_written"] += os.path.getsize(result)
        elif attr == "supervised_map":
            self.counts["retries"] += result.retries
            self.counts["timeouts"] += result.timeouts
            self.counts["pool_rebuilds"] += result.pool_rebuilds

    def _timed(self, layer: str, attr: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if layer in self._active:
                return fn(*args, **kwargs)
            sizing_before = self.calls["energy.sizing"]
            below = [0.0]
            self._active.add(layer)
            self._child_time.append(below)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._child_time.pop()
                self._active.discard(layer)
                if self._child_time:
                    self._child_time[-1][0] += elapsed
                self.calls[layer] += 1
                self.total[layer] += elapsed
                self.self_time[layer] += elapsed - below[0]
            self._after(attr, args, result, sizing_before)
            return result

        return wrapper

    def _counted(self, key: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------------------
    # Install / restore
    # ------------------------------------------------------------------
    def _set(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _replace_function(self, original, wrapper) -> None:
        self._originals[id(wrapper)] = (wrapper, original)
        for module in _program_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("wrappers already installed")
        for layer, modname, clsname, attr in SPAN_TARGETS:
            module = importlib.import_module(modname)
            if clsname is None:
                original = getattr(module, attr)
                self._replace_function(
                    original, self._timed(layer, attr, original)
                )
                continue
            owner = getattr(module, clsname)
            original = vars(owner)[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(
                    self._timed(layer, attr, original.__func__)
                )
            else:
                wrapped = self._timed(layer, attr, original)
            self._set(owner, attr, wrapped)
        modname, attr = DAY_SIM_TARGET
        original = getattr(importlib.import_module(modname), attr)
        self._replace_function(original, self._counted("day_sims", original))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)
        # A module first imported while the wrappers were in place bound
        # a wrapper by name; give it the original too.
        for module in _program_modules():
            for attr, value in list(vars(module).items()):
                wrapper, original = self._originals.get(
                    id(value), (None, None)
                )
                if wrapper is value:
                    setattr(module, attr, original)
        self._originals.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # ------------------------------------------------------------------
    def metrics(
        self, simulated: int, served: int, shard_seconds: List[float]
    ) -> Dict[str, Tuple[float, Optional[str]]]:
        """Per-layer metrics as ``name -> (value, base of the ratio)``.

        ``simulated``/``served`` are the run's computed and
        checkpoint-served node counts; ``shard_seconds`` the compute
        time of every computed shard.
        """
        out: Dict[str, Tuple[float, Optional[str]]] = {}
        for layer in SPAN_LAYERS:
            out[f"{layer}.calls"] = (self.calls[layer], None)
            out[f"{layer}.s"] = (self.total[layer], None)
            out[f"{layer}.self_s"] = (self.self_time[layer], None)
        c = self.counts

        def ratio(num, den):
            return (num / den if den else 0.0, f"{num}/{den}")

        runs = c["offline_runs"]
        out["core.offline.runs"] = (runs, None)
        out["core.offline.runs_per_workload"] = ratio(
            runs, len(self.offline_workloads)
        )
        out["energy.sizing.day_sims"] = (c["day_sims"], None)
        out["sim.batch.nodes_per_call"] = ratio(
            c["batched_nodes"], self.calls["sim.batch"]
        )
        out["sim.batch.eligible_frac"] = ratio(c["batched_nodes"], simulated)
        out["fleet.shard_s.p50"] = (
            statistics.median(shard_seconds) if shard_seconds else 0.0,
            None,
        )
        out["fleet.shard_s.max"] = (max(shard_seconds, default=0.0), None)
        out["reliability.supervisor.retries"] = (c["retries"], None)
        out["reliability.supervisor.timeouts"] = (c["timeouts"], None)
        out["reliability.supervisor.pool_rebuilds"] = (
            c["pool_rebuilds"],
            None,
        )
        out["perf.cache.hit_frac"] = ratio(c["cache_hits"], c["cache_gets"])
        out["perf.cache.bytes_written"] = (c["cache_bytes_written"], None)
        out["perf.cache.nodes_served"] = (served, None)
        return out

