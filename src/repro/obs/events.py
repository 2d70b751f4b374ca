"""Structured event bus for the simulator.

Every consequential moment of a run has a typed event: the per-slot
scheduling decision, a deadline miss, a brownout, a capacitor-switch
attempt (accepted *or* rejected by the Eq. 22 threshold), the coarse
stage's per-period output, and the δ-rule fallback to the cheap
inter-task pass.  Emitters (:mod:`repro.sim.engine`,
:mod:`repro.node.pmu`, :mod:`repro.core.online`) go through an
:class:`Observer`, which stamps events with the simulation clock,
fans them out to sinks, and keeps the run's metrics and phase timings.

The default observer is :data:`NULL_OBSERVER`: disabled, no sinks, and
every emit helper returns after one boolean check — the instrumented
engine with observability off is behaviourally and numerically
identical to an uninstrumented one (guarded by test).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from .metrics import MetricsRegistry
from .profile import NULL_SPAN, PhaseProfiler

__all__ = [
    "Event",
    "SlotDecisionEvent",
    "DeadlineMissEvent",
    "BrownoutEvent",
    "CapacitorSwitchEvent",
    "CoarseDecisionEvent",
    "DeltaFallbackEvent",
    "PeriodEndEvent",
    "FaultInjectionEvent",
    "PolicyFallbackEvent",
    "FaultScenarioEvent",
    "CheckpointEvent",
    "InvariantViolationEvent",
    "FleetShardEvent",
    "PoolDecisionEvent",
    "TaskRetryEvent",
    "WorkerLostEvent",
    "ShardTimeoutEvent",
    "NodeQuarantinedEvent",
    "CacheWriteFailedEvent",
    "KNOWN_RECORD_KINDS",
    "Observer",
    "NULL_OBSERVER",
]


def _json_safe(value):
    """Coerce numpy scalars / tuples to plain JSON types."""
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    return value


@dataclasses.dataclass(frozen=True)
class Event:
    """Base event: everything is stamped with the simulation clock.

    ``slot`` is ``-1`` for period-level events; a slot equal to the
    timeline's ``slots_per_period`` marks the end-of-period boundary
    (where final deadline checks run).
    """

    kind = "event"

    day: int
    period: int
    slot: int

    def to_dict(self) -> Dict[str, object]:
        rec: Dict[str, object] = {"kind": self.kind}
        for f in dataclasses.fields(self):
            rec[f.name] = _json_safe(getattr(self, f.name))
        return rec


@dataclasses.dataclass(frozen=True)
class SlotDecisionEvent(Event):
    """One per simulated slot: what ran and how the slot went."""

    kind = "slot_decision"

    ready: Tuple[int, ...]
    chosen: Tuple[int, ...]
    solar_power: float
    load_power: float
    run_fraction: float


@dataclasses.dataclass(frozen=True)
class DeadlineMissEvent(Event):
    """Tasks newly marked missed at this slot boundary (Eq. 5)."""

    kind = "deadline_miss"

    tasks: Tuple[int, ...]
    final: bool  # True for the end-of-period sweep


@dataclasses.dataclass(frozen=True)
class BrownoutEvent(Event):
    """Storage could not cover the deficit; the load ran partially."""

    kind = "brownout"

    run_fraction: float
    needed_energy: float
    delivered_energy: float
    active_index: int
    active_voltage: float


@dataclasses.dataclass(frozen=True)
class CapacitorSwitchEvent(Event):
    """A capacitor selection attempt at the PMU.

    ``accepted`` is the Eq. (22) outcome; ``forced`` marks the
    unconditional path used by offline/oracle schedulers.
    """

    kind = "capacitor_switch"

    previous: int
    requested: int
    accepted: bool
    forced: bool
    active_usable_energy: float
    threshold: float


@dataclasses.dataclass(frozen=True)
class CoarseDecisionEvent(Event):
    """Per-period coarse output: capacitor, α, task subset, fine mode."""

    kind = "coarse_decision"

    cap_index: int
    alpha: float
    intra_mode: bool
    task_subset: Tuple[int, ...]


@dataclasses.dataclass(frozen=True)
class DeltaFallbackEvent(Event):
    """``|1 - α| > δ``: the cheap inter-task pass replaces intra-task."""

    kind = "delta_fallback"

    alpha: float
    delta: float


@dataclasses.dataclass(frozen=True)
class FaultInjectionEvent(Event):
    """A runtime fault window activated or deactivated.

    ``phase`` is ``"start"`` when the window begins and ``"end"`` when
    it clears; ``target`` is the affected capacitor index for
    component-level faults, ``-1`` otherwise.
    """

    kind = "fault_injected"

    fault: str
    phase: str
    severity: float
    target: int
    duration_slots: int


@dataclasses.dataclass(frozen=True)
class PolicyFallbackEvent(Event):
    """The online coarse stage degraded instead of crashing.

    ``stage`` names the rung of the degradation ladder that handled
    the failure: ``retry``, ``fallback_policy``, ``inter_task_only``
    or ``quarantine``.
    """

    kind = "policy_fallback"

    stage: str
    reason: str
    failure_streak: int


@dataclasses.dataclass(frozen=True)
class FaultScenarioEvent(Event):
    """A pre-run trace-degradation scenario was applied."""

    kind = "fault_scenario"

    scenario: str
    faults: Tuple[str, ...]
    lost_energy_fraction: float


@dataclasses.dataclass(frozen=True)
class CheckpointEvent(Event):
    """A crash-safe simulation checkpoint was written."""

    kind = "checkpoint"

    path: str
    flat_period: int


@dataclasses.dataclass(frozen=True)
class InvariantViolationEvent(Event):
    """An online invariant monitor flagged a physics/accounting breach.

    Emitted through the engine's ``monitors`` hook (see
    :mod:`repro.verify.invariants`); ``severity`` is ``error`` or
    ``warning`` with the semantics of
    :class:`~repro.verify.report.Violation`.
    """

    kind = "invariant_violation"

    check: str
    message: str
    severity: str


@dataclasses.dataclass(frozen=True)
class FleetShardEvent(Event):
    """One shard of a fleet run finished (computed or checkpoint hit).

    Fleet events carry no simulation clock — shards span whole runs —
    so the base fields are the zeroed defaults.
    """

    kind = "fleet_shard"

    shard_index: int
    num_shards: int
    node_ids: Tuple[int, ...]
    cached: bool
    seconds: float
    #: Running P² estimate of the fleet's median node DMR at the time
    #: this shard landed; ``-1.0`` when unknown (no nodes seen yet).
    p50_dmr_est: float = -1.0


@dataclasses.dataclass(frozen=True)
class PoolDecisionEvent(Event):
    """How :func:`repro.reliability.supervisor.supervised_map` planned
    a fan-out (:func:`repro.perf.parallel.plan_pool`).

    ``mode`` is ``"pool"`` or ``"serial"``; ``reason`` is the
    human-readable why (tiny job list, single-core host, ...).  No
    simulation clock — planning happens outside any run.
    """

    kind = "pool_decision"

    requested: int
    cpu_count: int
    items: int
    workers: int
    mode: str
    reason: str


@dataclasses.dataclass(frozen=True)
class TaskRetryEvent(Event):
    """The supervisor re-dispatched a failed or timed-out pool task.

    ``attempt`` is the 0-based attempt that just failed; ``reason`` is
    the structured why (``raised``, ``worker_lost``, ``timeout``) and
    ``error_type`` the exception class name when one was raised.  No
    simulation clock — supervision happens outside any run.
    """

    kind = "task_retry"

    label: str
    index: int
    attempt: int
    reason: str
    error_type: str
    backoff_s: float


@dataclasses.dataclass(frozen=True)
class WorkerLostEvent(Event):
    """A pool worker died (``BrokenProcessPool``); the pool was rebuilt.

    ``inflight`` counts the tasks that were in flight when the pool
    broke — each is re-dispatched into the rebuilt pool.
    """

    kind = "worker_lost"

    label: str
    inflight: int
    rebuilds: int
    reason: str


@dataclasses.dataclass(frozen=True)
class ShardTimeoutEvent(Event):
    """A supervised task exceeded its per-task timeout.

    The worker running it cannot be cancelled cooperatively, so the
    pool is rebuilt and every in-flight task re-dispatched; only the
    expired task is charged an attempt.
    """

    kind = "shard_timeout"

    label: str
    index: int
    attempt: int
    timeout_s: float
    reason: str


@dataclasses.dataclass(frozen=True)
class NodeQuarantinedEvent(Event):
    """A fleet node's simulation raised and was quarantined.

    The node becomes a structured ``FailedNode`` record on the fleet
    result instead of aborting the shard; ``spec_digest`` pins the
    node configuration that failed, ``retries`` how many in-shard
    re-attempts were made before giving up.
    """

    kind = "node_quarantined"

    node_id: int
    node_policy: str
    error_type: str
    spec_digest: str
    retries: int
    reason: str


@dataclasses.dataclass(frozen=True)
class CacheWriteFailedEvent(Event):
    """An artifact-cache write failed (read-only or full disk).

    The write degrades to a logged cache-miss — the artifact is simply
    recomputed next time — rather than crashing the run.
    """

    kind = "cache_write_failed"

    artifact_kind: str
    digest: str
    reason: str


@dataclasses.dataclass(frozen=True)
class PeriodEndEvent(Event):
    """Aggregate outcome of one period."""

    kind = "period_end"

    dmr: float
    miss_count: int
    brownout_slots: int
    solar_energy: float
    load_energy: float


class Observer:
    """Event bus + metrics + phase profiler for one or more runs.

    Parameters
    ----------
    sinks:
        Objects with ``write(record: dict)`` (see :mod:`repro.obs.sinks`);
        optionally ``flush()`` / ``close()``.
    enabled:
        Defaults to True; :data:`NULL_OBSERVER` is the disabled
        singleton the engine uses when no observer is passed.
    """

    def __init__(self, sinks: Sequence = (), enabled: bool = True) -> None:
        self.sinks: List = list(sinks)
        self.enabled = enabled
        self.metrics = MetricsRegistry()
        self.profiler = PhaseProfiler() if enabled else None
        self.tracer = None
        self.day = -1
        self.period = -1
        self.slot = -1

    # ------------------------------------------------------------------
    def set_time(self, day: int, period: int, slot: int = -1) -> None:
        """Advance the simulation clock used to stamp events."""
        self.day = day
        self.period = period
        self.slot = slot

    def span(self, name: str):
        """Profiling context manager; no-op when disabled."""
        if self.profiler is None:
            return NULL_SPAN
        return self.profiler.span(name)

    def emit(self, event: Event) -> None:
        """Fan an already-built event out to every sink."""
        if not self.enabled:
            return
        record = event.to_dict()
        for sink in self.sinks:
            sink.write(record)

    def emit_record(self, record: Dict[str, object]) -> None:
        """Fan a raw record dict out (span records, worker re-emits)."""
        if not self.enabled:
            return
        for sink in self.sinks:
            sink.write(record)

    def start_trace(self, name: str, *parts):
        """Attach a :class:`~repro.obs.trace.Tracer` with a derived id.

        Span records flow through :meth:`emit_record` into the same
        sinks as events.  Returns the disabled
        :data:`~repro.obs.trace.NULL_TRACER` when this observer is
        off, so callers can use the result unconditionally.
        """
        from .trace import NULL_TRACER, Tracer, derive_trace_id

        if not self.enabled:
            return NULL_TRACER
        self.tracer = Tracer(self.emit_record, derive_trace_id(name, *parts))
        return self.tracer

    # ------------------------------------------------------------------
    # Typed emit helpers (each guards itself; near-zero cost when off).
    # ------------------------------------------------------------------
    def slot_decision(
        self,
        ready: Tuple[int, ...],
        chosen: Tuple[int, ...],
        solar_power: float,
        load_power: float,
        run_fraction: float,
    ) -> None:
        if not self.enabled:
            return
        self.metrics.counter("slots_simulated_total").inc()
        self.emit(
            SlotDecisionEvent(
                day=self.day,
                period=self.period,
                slot=self.slot,
                ready=tuple(ready),
                chosen=tuple(chosen),
                solar_power=float(solar_power),
                load_power=float(load_power),
                run_fraction=float(run_fraction),
            )
        )

    def deadline_miss(
        self, tasks: Tuple[int, ...], final: bool = False
    ) -> None:
        if not self.enabled or not tasks:
            return
        self.metrics.counter("deadline_misses_total").inc(len(tasks))
        self.emit(
            DeadlineMissEvent(
                day=self.day,
                period=self.period,
                slot=self.slot,
                tasks=tuple(int(t) for t in tasks),
                final=final,
            )
        )

    def brownout(
        self,
        run_fraction: float,
        needed_energy: float,
        delivered_energy: float,
        active_index: int,
        active_voltage: float,
    ) -> None:
        if not self.enabled:
            return
        self.metrics.counter("brownout_slots_total").inc()
        self.emit(
            BrownoutEvent(
                day=self.day,
                period=self.period,
                slot=self.slot,
                run_fraction=float(run_fraction),
                needed_energy=float(needed_energy),
                delivered_energy=float(delivered_energy),
                active_index=int(active_index),
                active_voltage=float(active_voltage),
            )
        )

    def capacitor_switch(
        self,
        previous: int,
        requested: int,
        accepted: bool,
        forced: bool,
        active_usable_energy: float,
        threshold: float,
    ) -> None:
        if not self.enabled:
            return
        self.metrics.counter("capacitor_switch_attempts_total").inc()
        if accepted:
            self.metrics.counter("capacitor_switches_accepted_total").inc()
        self.emit(
            CapacitorSwitchEvent(
                day=self.day,
                period=self.period,
                slot=self.slot,
                previous=int(previous),
                requested=int(requested),
                accepted=bool(accepted),
                forced=bool(forced),
                active_usable_energy=float(active_usable_energy),
                threshold=float(threshold),
            )
        )

    def coarse_decision(
        self,
        cap_index: int,
        alpha: float,
        intra_mode: bool,
        task_subset: Sequence[int],
    ) -> None:
        if not self.enabled:
            return
        self.metrics.counter("coarse_decisions_total").inc()
        self.emit(
            CoarseDecisionEvent(
                day=self.day,
                period=self.period,
                slot=-1,
                cap_index=int(cap_index),
                alpha=float(alpha),
                intra_mode=bool(intra_mode),
                task_subset=tuple(int(t) for t in task_subset),
            )
        )

    def delta_fallback(self, alpha: float, delta: float) -> None:
        if not self.enabled:
            return
        self.metrics.counter("delta_fallbacks_total").inc()
        self.emit(
            DeltaFallbackEvent(
                day=self.day,
                period=self.period,
                slot=-1,
                alpha=float(alpha),
                delta=float(delta),
            )
        )

    def fault_injected(
        self,
        fault: str,
        phase: str,
        severity: float,
        target: int,
        duration_slots: int,
    ) -> None:
        if not self.enabled:
            return
        if phase == "start":
            self.metrics.counter("faults_injected_total").inc()
        self.emit(
            FaultInjectionEvent(
                day=self.day,
                period=self.period,
                slot=self.slot,
                fault=str(fault),
                phase=str(phase),
                severity=float(severity),
                target=int(target),
                duration_slots=int(duration_slots),
            )
        )

    def policy_fallback(
        self, stage: str, reason: str, failure_streak: int
    ) -> None:
        if not self.enabled:
            return
        self.metrics.counter("policy_fallbacks_total").inc()
        self.emit(
            PolicyFallbackEvent(
                day=self.day,
                period=self.period,
                slot=-1,
                stage=str(stage),
                reason=str(reason),
                failure_streak=int(failure_streak),
            )
        )

    def fault_scenario(
        self,
        scenario: str,
        faults: Sequence[str],
        lost_energy_fraction: float,
    ) -> None:
        if not self.enabled:
            return
        self.metrics.counter("fault_scenarios_applied_total").inc()
        self.emit(
            FaultScenarioEvent(
                day=self.day,
                period=self.period,
                slot=-1,
                scenario=str(scenario),
                faults=tuple(str(f) for f in faults),
                lost_energy_fraction=float(lost_energy_fraction),
            )
        )

    def invariant_violation(
        self, check: str, message: str, severity: str = "error"
    ) -> None:
        if not self.enabled:
            return
        self.metrics.counter("invariant_violations_total").inc()
        self.emit(
            InvariantViolationEvent(
                day=self.day,
                period=self.period,
                slot=-1,
                check=check,
                message=message,
                severity=severity,
            )
        )

    def checkpoint_saved(self, path: str, flat_period: int) -> None:
        if not self.enabled:
            return
        self.metrics.counter("checkpoints_written_total").inc()
        self.emit(
            CheckpointEvent(
                day=self.day,
                period=self.period,
                slot=-1,
                path=str(path),
                flat_period=int(flat_period),
            )
        )
        # A checkpoint marks durable progress: push buffered events to
        # disk too, so the trace never trails the resumable state.
        for sink in self.sinks:
            flush = getattr(sink, "flush", None)
            if flush is not None:
                flush()

    def period_end(
        self,
        dmr: float,
        miss_count: int,
        brownout_slots: int,
        solar_energy: float,
        load_energy: float,
    ) -> None:
        if not self.enabled:
            return
        self.metrics.counter("periods_simulated_total").inc()
        self.emit(
            PeriodEndEvent(
                day=self.day,
                period=self.period,
                slot=-1,
                dmr=float(dmr),
                miss_count=int(miss_count),
                brownout_slots=int(brownout_slots),
                solar_energy=float(solar_energy),
                load_energy=float(load_energy),
            )
        )

    def fleet_shard(
        self,
        shard_index: int,
        num_shards: int,
        node_ids: Sequence[int],
        cached: bool,
        seconds: float,
        p50_dmr_est: float = -1.0,
    ) -> None:
        if not self.enabled:
            return
        self.metrics.counter("fleet_shards_total").inc()
        if cached:
            self.metrics.counter("fleet_shard_cache_hits_total").inc()
        self.metrics.counter("fleet_nodes_total").inc(len(node_ids))
        self.emit(
            FleetShardEvent(
                day=-1,
                period=-1,
                slot=-1,
                shard_index=int(shard_index),
                num_shards=int(num_shards),
                node_ids=tuple(int(i) for i in node_ids),
                cached=bool(cached),
                seconds=float(seconds),
                p50_dmr_est=float(p50_dmr_est),
            )
        )

    def pool_decision(
        self,
        requested: int,
        cpu_count: int,
        items: int,
        workers: int,
        mode: str,
        reason: str,
    ) -> None:
        if not self.enabled:
            return
        self.metrics.counter("pool_decisions_total").inc()
        self.emit(
            PoolDecisionEvent(
                day=-1,
                period=-1,
                slot=-1,
                requested=int(requested),
                cpu_count=int(cpu_count),
                items=int(items),
                workers=int(workers),
                mode=str(mode),
                reason=str(reason),
            )
        )

    def task_retry(
        self,
        label: str,
        index: int,
        attempt: int,
        reason: str,
        error_type: str = "",
        backoff_s: float = 0.0,
    ) -> None:
        if not self.enabled:
            return
        self.metrics.counter("task_retries_total").inc()
        self.emit(
            TaskRetryEvent(
                day=-1,
                period=-1,
                slot=-1,
                label=str(label),
                index=int(index),
                attempt=int(attempt),
                reason=str(reason),
                error_type=str(error_type),
                backoff_s=float(backoff_s),
            )
        )

    def worker_lost(
        self, label: str, inflight: int, rebuilds: int, reason: str
    ) -> None:
        if not self.enabled:
            return
        self.metrics.counter("workers_lost_total").inc()
        self.metrics.counter("pool_rebuilds_total").inc()
        self.emit(
            WorkerLostEvent(
                day=-1,
                period=-1,
                slot=-1,
                label=str(label),
                inflight=int(inflight),
                rebuilds=int(rebuilds),
                reason=str(reason),
            )
        )

    def shard_timeout(
        self,
        label: str,
        index: int,
        attempt: int,
        timeout_s: float,
        reason: str,
    ) -> None:
        if not self.enabled:
            return
        self.metrics.counter("shard_timeouts_total").inc()
        self.emit(
            ShardTimeoutEvent(
                day=-1,
                period=-1,
                slot=-1,
                label=str(label),
                index=int(index),
                attempt=int(attempt),
                timeout_s=float(timeout_s),
                reason=str(reason),
            )
        )

    def node_quarantined(
        self,
        node_id: int,
        node_policy: str,
        error_type: str,
        spec_digest: str,
        retries: int,
        reason: str,
    ) -> None:
        if not self.enabled:
            return
        self.metrics.counter("nodes_quarantined_total").inc()
        self.emit(
            NodeQuarantinedEvent(
                day=-1,
                period=-1,
                slot=-1,
                node_id=int(node_id),
                node_policy=str(node_policy),
                error_type=str(error_type),
                spec_digest=str(spec_digest),
                retries=int(retries),
                reason=str(reason),
            )
        )

    def cache_write_failed(
        self, artifact_kind: str, digest: str, reason: str
    ) -> None:
        if not self.enabled:
            return
        self.metrics.counter("cache_write_failures_total").inc()
        self.emit(
            CacheWriteFailedEvent(
                day=-1,
                period=-1,
                slot=-1,
                artifact_kind=str(artifact_kind),
                digest=str(digest),
                reason=str(reason),
            )
        )

    # ------------------------------------------------------------------
    def finish(
        self,
        result_summary: Optional[Dict[str, float]] = None,
        scheduler: Optional[str] = None,
    ) -> None:
        """Write the ``run_summary`` trailer record and flush sinks.

        The trailer carries the metrics snapshot, the per-phase timing
        snapshot, and the run's headline numbers — this is what
        ``repro obs summarize`` renders without re-running anything.
        """
        if not self.enabled:
            return
        record: Dict[str, object] = {
            "kind": "run_summary",
            "scheduler": scheduler,
            "result": _json_safe(result_summary) if result_summary else {},
            "metrics": self.metrics.snapshot(),
            "profile": self.profiler.snapshot() if self.profiler else {},
        }
        for sink in self.sinks:
            sink.write(record)
            flush = getattr(sink, "flush", None)
            if flush is not None:
                flush()

    def close(self) -> None:
        """Close every sink that supports it."""
        for sink in self.sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                close()


#: Disabled singleton: the engine's default when no observer is given.
NULL_OBSERVER = Observer(sinks=(), enabled=False)

#: Every record kind this build can emit: the typed events above plus
#: the ``run_summary`` trailer and ``span`` trace records.  The
#: summarize surface skips-and-counts anything outside this set, so
#: traces from newer builds degrade gracefully instead of failing.
KNOWN_RECORD_KINDS = frozenset(
    cls.kind
    for cls in (
        SlotDecisionEvent,
        DeadlineMissEvent,
        BrownoutEvent,
        CapacitorSwitchEvent,
        CoarseDecisionEvent,
        DeltaFallbackEvent,
        PeriodEndEvent,
        FaultInjectionEvent,
        PolicyFallbackEvent,
        FaultScenarioEvent,
        CheckpointEvent,
        InvariantViolationEvent,
        FleetShardEvent,
        PoolDecisionEvent,
        TaskRetryEvent,
        WorkerLostEvent,
        ShardTimeoutEvent,
        NodeQuarantinedEvent,
        CacheWriteFailedEvent,
    )
) | {"run_summary", "span"}
