"""Fleet execution: shard nodes over the process pool, checkpoint shards.

A :class:`FleetRunner` expands a :class:`~repro.fleet.spec.FleetSpec`
into shards of node ids and fans them out over
:func:`repro.reliability.supervisor.supervised_map`.  Each shard is a
tiny
picklable work item ``(spec, node_ids, shard_index, span_context)``;
the worker rebuilds the base trace, derives every node's configuration
from ``(fleet seed, node id)``, simulates it inside ``shard``/``node``
spans and returns one :class:`~repro.fleet.result.NodeSummary` per
node plus its collected span records.

Two layers of reuse ride on the existing artifact cache:

- *shard checkpoints* (kind ``fleet-shard``): every finished shard is
  written under a digest of the fleet spec and its node ids, so a
  killed or re-invoked fleet run only recomputes the missing shards —
  and re-aggregation (``repro fleet report`` from cache, changed
  worker counts) is free;
- *shared offline stages* (kind ``policy``): when the ``proposed``
  policy is in the pool, the DBN pipeline trains once per distinct
  workload and every node with that workload loads the artifact.
  In front of it, the process-local trained-policy memo means a
  ``--no-cache`` fleet also trains once per workload per process.

Determinism contract: node summaries are pure functions of ``(fleet
seed, node id)``; shards are combined in node-id order; therefore
``FleetResult.fingerprint()`` is bit-identical for any worker count,
shard size or shard executor — the default node-major batched engine
(:mod:`repro.sim.batch`) and the scalar per-node engine produce the
same bytes (guarded by tests, the batched-vs-per-node oracle and the
``repro fleet`` acceptance check).

Execution is *supervised* (:mod:`repro.reliability.supervisor`): a
raising node is retried in its worker and then quarantined into a
:class:`~repro.fleet.result.FailedNode` record instead of aborting the
run (``on_node_error="quarantine"``, the default; ``"fail"`` restores
abort-on-first-error), hung shards are re-dispatched under
``task_timeout``, and dead workers rebuild the pool.  A degraded run
keeps the determinism contract over the *healthy subset*: the
fingerprint equals a fault-free run of the same fleet restricted to
the same healthy node ids (``exclude_nodes``), whatever the worker
count.  The :class:`~repro.reliability.chaos.ChaosSpec` hook injects
worker kills, hangs and poison nodes deterministically to prove it.
"""

from __future__ import annotations

import functools
import time
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..energy.capacitor import SuperCapacitor
from ..node.node import SensorNode
from ..obs.events import NULL_OBSERVER, Observer
from ..obs.sketch import P2Quantile
from ..obs.trace import NULL_TRACER, activate, collecting_tracer
from ..perf.cache import ArtifactCache, cache_enabled, default_cache, hash_key
from ..perf.parallel import resolve_workers
from ..reliability.chaos import ChaosPlan, ChaosSpec
from ..reliability.supervisor import (
    SupervisorError,
    SupervisorPolicy,
    TaskFailure,
    supervised_map,
)
from ..schedulers import (
    DVFSLoadMatchingScheduler,
    GreedyEDFScheduler,
    InterTaskScheduler,
    IntraTaskScheduler,
    RandomScheduler,
)
from ..sim.checkpoint import result_fingerprint
from ..sim.engine import simulate
from ..verify.strategies import build_graph
from .result import FailedNode, FleetAggregate, FleetResult, NodeSummary
from .spec import FleetSpec, NodeSpec, node_trace

__all__ = [
    "DEFAULT_SHARD_SIZE",
    "FleetRunner",
    "node_spec_digest",
    "run_fleet",
    "simulate_node",
    "simulate_shard_batch",
]

#: Shard executors: ``batch`` advances every eligible node of a shard
#: through one node-major :mod:`repro.sim.batch` engine (per-node
#: fallback for ineligible configs); ``per-node`` steps one scalar
#: engine per node.  Bit-identical by contract — guarded by the
#: batched-vs-per-node oracle and the conformance test wall.
ENGINES = ("batch", "per-node")

#: Nodes per work item: the widest batch whose peak RSS stays within
#: +5% of the 32-node shards it replaced.  The batched engine pays its
#: per-slot Python overhead once per shard, so throughput grows with
#: width; its columnar books keep memory near flat until the weather
#: and period books themselves dominate.  Measured with
#: ``perfbench/run.py --seed 0 --seconds 20`` (1024-node fleet, median
#: of 3-7 runs) on a 2-core x86-64 Xeon, Linux, Python 3.11.7, numpy
#: 2.4.6:
#:
#: ======  =====================  ======================
#: width   fleet_default          fleet_resume_pool
#:         (serial, cold cache)   (2 workers, half warm)
#: ======  =====================  ======================
#: 32 *    52.6 nodes/s, 44.8 MB  84.1 nodes/s, 40.1 MB
#: 64      87.0 nodes/s, 44.5 MB  152 nodes/s, 40.0 MB
#: 128     150 nodes/s, 44.9 MB   211 nodes/s, 40.0 MB
#: 256     184 nodes/s, 46.2 MB   294 nodes/s, 40.2 MB
#: 512     221 nodes/s, 49.0 MB   198 nodes/s, 49.1 MB
#: ======  =====================  ======================
#:
#: (* the previous default, before the columnar books.)  512 breaks
#: the memory bound on both workloads, and leaves a 1024-node resume
#: with one pending shard for two workers.  A constant, never derived
#: from the worker count: the shard layout keys the checkpoint
#: digests, so a worker-dependent layout would make a fleet
#: checkpointed on one worker count miss every checkpoint on another.
DEFAULT_SHARD_SIZE = 256

#: Artifact-cache namespace of shard checkpoints.
SHARD_KIND = "fleet-shard"


# ----------------------------------------------------------------------
# Per-node simulation (runs inside worker processes)
# ----------------------------------------------------------------------
def _make_scheduler(policy: str, scheduler_seed: int):
    if policy == "asap":
        return GreedyEDFScheduler()
    if policy == "inter-task":
        return InterTaskScheduler()
    if policy == "intra-task":
        return IntraTaskScheduler()
    if policy == "dvfs":
        return DVFSLoadMatchingScheduler()
    if policy == "random":
        return RandomScheduler(scheduler_seed)
    raise ValueError(f"unknown fleet policy {policy!r}")


def _proposed_policy(fleet: FleetSpec, graph_kind: str):
    """Train the paper's pipeline for one workload, once per process.

    The training budget is the fleet's small ``proposed_*`` knobs.  The
    trained-policy memo (:func:`~repro.core.offline.trained_policy`)
    serves every later node of the workload in this process, with or
    without ``--no-cache``; the ``policy`` disk cache, when enabled,
    shares the artifact across processes and runs as well.
    """
    from ..core.offline import OfflinePipeline, memo_trace, trained_policy

    pipeline = OfflinePipeline(
        build_graph(graph_kind),
        pretrain_epochs=fleet.proposed_epochs,
        finetune_epochs=fleet.proposed_epochs,
        augment_per_period=1,
        seed=fleet.seed,
    )
    cache = default_cache() if cache_enabled() else None
    return trained_policy(
        pipeline, memo_trace(fleet.train_timeline(), fleet.seed), cache=cache
    )


def _summarize(spec: NodeSpec, graph, result) -> NodeSummary:
    """Reduce one node's :class:`SimulationResult` to its summary.

    Shared by the per-node and batched executors so both paths derive
    the fingerprint (and every aggregate input) identically.
    """
    return NodeSummary(
        node_id=spec.node_id,
        graph_kind=spec.graph_kind,
        policy=spec.policy,
        num_tasks=len(graph),
        panel_scale=spec.panel_scale,
        bank_farads=tuple(spec.bank_farads),
        dmr=result.dmr,
        energy_utilization=result.energy_utilization,
        migration_efficiency=result.migration_efficiency,
        brownout_slots=result.total_brownout_slots,
        solar_energy=result.total_solar_energy,
        load_energy=result.total_load_energy,
        fingerprint=result_fingerprint(result),
    )


def simulate_node(fleet: FleetSpec, base_trace, spec: NodeSpec) -> NodeSummary:
    """Simulate one fleet node and reduce it to a :class:`NodeSummary`.

    Pure function of the fleet spec, the shared base trace and the
    node spec — no global state, safe in any worker process.
    """
    graph = build_graph(spec.graph_kind)
    trace = node_trace(base_trace, spec)
    if spec.policy == "proposed":
        policy = _proposed_policy(fleet, spec.graph_kind)
        node = policy.make_node()
        scheduler = policy.make_scheduler()
    else:
        node = SensorNode(
            [SuperCapacitor(capacitance=c) for c in spec.bank_farads],
            num_nvps=graph.num_nvps,
        )
        scheduler = _make_scheduler(spec.policy, spec.scheduler_seed)
    result = simulate(node, graph, trace, scheduler, strict=False)
    return _summarize(spec, graph, result)


def _batch_eligible(specs: Sequence[NodeSpec]) -> List[tuple]:
    """``(position, spec, graph)`` of every batch-eligible spec.

    Eligible means a policy in :data:`~repro.sim.batch.BATCH_POLICIES`
    (every fleet policy but ``dvfs``, ``proposed`` included) and a
    task count within the batch width.  Nodes of one workload share
    one (immutable) graph.
    """
    from ..sim.batch import batch_ineligibility

    kinds = {spec.graph_kind for spec in specs}
    graphs = {kind: build_graph(kind) for kind in kinds}
    return [
        (i, spec, graphs[spec.graph_kind])
        for i, spec in enumerate(specs)
        if batch_ineligibility(spec.policy, graphs[spec.graph_kind]) is None
    ]


def _batch_summaries(
    fleet: FleetSpec, base_trace, eligible
) -> Dict[int, NodeSummary]:
    """Summaries of :func:`_batch_eligible` nodes, keyed by position.

    The one batch-and-summarise step of both shard executors and the
    batched-vs-per-node oracle.  Each ``proposed`` workload is trained
    first, through the trained-policy memo, and its rows carry the
    trained policy and its bank.  Each case draws its weather lazily,
    so the batch holds it once; banks share one frozen device per
    capacitance; and the columnar results are summarised node by
    node, so one node's period records are alive at a time.
    """
    from ..sim.batch import BatchCase, simulate_batch

    farads = {c for _, spec, _ in eligible for c in spec.bank_farads}
    devices = {c: SuperCapacitor(capacitance=c) for c in farads}
    trained = {
        kind: _proposed_policy(fleet, kind)
        for kind in sorted(
            {s.graph_kind for _, s, _ in eligible if s.policy == "proposed"}
        )
    }

    def case(spec, graph) -> BatchCase:
        policy = (
            trained[spec.graph_kind] if spec.policy == "proposed" else None
        )
        return BatchCase(
            graph=graph,
            trace=functools.partial(node_trace, base_trace, spec),
            capacitors=(
                tuple(devices[c] for c in spec.bank_farads)
                if policy is None
                else policy.capacitors
            ),
            policy=spec.policy,
            scheduler_seed=spec.scheduler_seed,
            trained=policy,
        )

    results = simulate_batch(
        [case(spec, graph) for _, spec, graph in eligible]
    )
    return {
        i: _summarize(spec, graph, result)
        for (i, spec, graph), result in zip(eligible, results)
    }


def simulate_shard_batch(
    fleet: FleetSpec, base_trace, specs: Sequence[NodeSpec]
) -> List[NodeSummary]:
    """Batched counterpart of mapping :func:`simulate_node` over specs.

    Eligible nodes run through one node-major engine
    (:func:`_batch_summaries`); the rest — ``dvfs`` nodes, oversized
    graphs — run through :func:`simulate_node`.
    Summaries come back in input order and are bit-identical to the
    per-node path (the batched-vs-per-node oracle holds this contract).
    """
    specs = list(specs)
    done = _batch_summaries(fleet, base_trace, _batch_eligible(specs))
    return [
        done[i] if i in done else simulate_node(fleet, base_trace, spec)
        for i, spec in enumerate(specs)
    ]


def node_spec_digest(spec: NodeSpec) -> str:
    """Content digest of one node's exact configuration.

    Recorded on every :class:`~repro.fleet.result.FailedNode` so a
    quarantined node can be reproduced in isolation from its fleet.
    """
    import dataclasses

    return hash_key(
        {"artifact": "node-spec", **dataclasses.asdict(spec)}
    )


def _run_shard(item):
    """Worker entry point: simulate one shard of node ids, supervised.

    Module-level (picklable) on purpose; takes the shared base trace
    from the worker's per-process memo rather than shipping the power
    array per item.

    The work item is ``(spec, node_ids, shard_index, ctx_wire,
    chaos_plan, node_retries, on_node_error, engine, attempt)``:
    ``ctx_wire`` is the parent's serialized span context (or ``None``
    when untraced) and ``attempt`` is the supervisor's re-dispatch
    count (chaos keys first-attempt-only faults off it).  The worker
    opens a ``shard`` span keyed by the shard index and one ``node``
    span per per-node-simulated id — explicit keys, so the span ids
    are identical whichever process (or attempt) runs the shard — and
    returns the collected span records with the summaries for the
    parent to re-emit.

    With ``engine="batch"`` (and no chaos plan — chaos faults are
    keyed per node, so chaos runs always step per node) the shard's
    batch-eligible nodes advance together through one
    :mod:`repro.sim.batch` engine under a single ``batch`` child span
    instead of per-node ``node`` spans; ineligible nodes — and, if the
    batched engine itself raises, every node it covered — fall back to
    the per-node loop below, which keeps its retry/quarantine
    semantics.  Summaries are reassembled in ``node_ids`` order either
    way, so the executor never shows through the fingerprint.

    A node whose simulation raises is retried up to ``node_retries``
    times in place (immediately — the engine is deterministic, the
    retries absorb environmental interference) and then either
    quarantined into a :class:`~repro.fleet.result.FailedNode`
    (``on_node_error="quarantine"``) or re-raised to the supervisor
    (``"fail"``).  Returns ``(summaries, failed, seconds, records)``.
    """
    (
        fleet, node_ids, shard_index, ctx_wire,
        chaos, node_retries, on_node_error, engine, attempt,
    ) = item
    if chaos is not None:
        chaos.on_shard_start(shard_index, attempt)
    start = time.perf_counter()
    tracer, records = collecting_tracer(ctx_wire)
    base = fleet.base_trace()
    done: Dict[int, NodeSummary] = {}
    failed: List[FailedNode] = []
    with activate(tracer):
        with tracer.span(
            "shard",
            key=shard_index,
            attrs={
                "shard_index": shard_index,
                "n_nodes": len(node_ids),
                "engine": engine,
            },
        ):
            eligible = (
                _batch_eligible([fleet.node_spec(i) for i in node_ids])
                if engine == "batch" and chaos is None
                else []
            )
            if eligible:
                with tracer.span(
                    "batch",
                    key=shard_index,
                    attrs={
                        "shard_index": shard_index,
                        "n_nodes": len(eligible),
                    },
                ) as span:
                    try:
                        batched = _batch_summaries(fleet, base, eligible)
                    except KeyboardInterrupt:
                        raise
                    except Exception as exc:
                        # Whole-batch failure: annotate and let the
                        # per-node loop (with its retry/quarantine
                        # machinery) re-run every covered node.
                        span.annotate(
                            failed=True, error_type=type(exc).__name__
                        )
                    else:
                        for i, summary in batched.items():
                            done[node_ids[i]] = summary
                        span.annotate(n_batched=len(batched))
            for node_id in node_ids:
                if node_id in done:
                    continue
                spec = fleet.node_spec(node_id)
                with tracer.span(
                    "node",
                    key=node_id,
                    attrs={"node_id": node_id, "policy": spec.policy},
                ) as span:
                    retries = 0
                    while True:
                        try:
                            if chaos is not None:
                                chaos.on_node_start(node_id, attempt)
                            summary = simulate_node(fleet, base, spec)
                        except KeyboardInterrupt:
                            raise
                        except Exception as exc:
                            if retries < node_retries:
                                retries += 1
                                continue
                            if on_node_error == "fail":
                                raise
                            span.annotate(
                                failed=True,
                                error_type=type(exc).__name__,
                            )
                            failed.append(
                                FailedNode(
                                    node_id=node_id,
                                    policy=spec.policy,
                                    graph_kind=spec.graph_kind,
                                    error_type=type(exc).__name__,
                                    message=str(exc),
                                    spec_digest=node_spec_digest(spec),
                                    retries=retries,
                                )
                            )
                            break
                        else:
                            span.annotate(dmr=summary.dmr)
                            done[node_id] = summary
                            break
    summaries = [done[i] for i in node_ids if i in done]
    return summaries, failed, time.perf_counter() - start, records


# ----------------------------------------------------------------------
# The runner
# ----------------------------------------------------------------------
class FleetRunner:
    """Shard a fleet across the process pool and aggregate the results.

    Parameters
    ----------
    spec:
        The fleet to run.
    workers:
        Process count (``None`` → ``$REPRO_WORKERS`` → serial).  Never
        affects results, only wall-clock.
    shard_size:
        Nodes per work item (default :data:`DEFAULT_SHARD_SIZE`).
        Never affects results.
    engine:
        Shard executor (:data:`ENGINES`): ``"batch"`` (default)
        advances every batch-eligible node of a shard through one
        node-major :mod:`repro.sim.batch` engine and steps the rest
        per node; ``"per-node"`` forces the scalar engine everywhere.
        Bit-identical by contract, so it never affects results — only
        nodes/s — and shard checkpoints are shared across engines.
        Chaos runs always execute per node (faults key on node ids).
    cache:
        Shard-checkpoint store.  ``None`` uses the default artifact
        cache when caching is enabled (``REPRO_NO_CACHE`` unset);
        ``False`` disables shard checkpointing outright.
    observer:
        Receives one ``fleet_shard`` event per shard, supervisor
        events (``task_retry``/``worker_lost``/``shard_timeout``/
        ``node_quarantined``) plus the run trailer via
        :meth:`Observer.finish`.
    max_retries:
        Supervisor re-dispatches per shard (and in-worker retries per
        node) beyond the first attempt.
    task_timeout:
        Per-shard wall-clock budget in seconds (``None`` disables).
        Forces pool mode: a hung shard can only be abandoned from
        another process.
    on_node_error:
        ``"quarantine"`` (default) records a raising node as a
        :class:`~repro.fleet.result.FailedNode` and completes the run
        degraded; ``"fail"`` aborts on the first permanent failure
        with :class:`~repro.reliability.supervisor.SupervisorError`.
    chaos:
        Optional :class:`~repro.reliability.chaos.ChaosSpec` injecting
        deterministic worker kills, hangs, and poison nodes.  Forces
        pool mode while active.  The chaos descriptor is mixed into
        shard-checkpoint digests so chaos runs never pollute the
        clean-run cache.
    exclude_nodes:
        Node ids to skip entirely — the tool for reproducing a
        degraded run's healthy subset fault-free.  Never affects the
        summaries of the nodes that do run.
    """

    def __init__(
        self,
        spec: FleetSpec,
        workers: Optional[int] = None,
        shard_size: Optional[int] = None,
        cache=None,
        observer: Optional[Observer] = None,
        max_retries: int = 2,
        task_timeout: Optional[float] = None,
        on_node_error: str = "quarantine",
        chaos: Optional[ChaosSpec] = None,
        exclude_nodes: Optional[Sequence[int]] = None,
        engine: str = "batch",
    ) -> None:
        if shard_size is not None and shard_size < 1:
            raise ValueError(f"shard_size must be >= 1, got {shard_size}")
        if engine not in ENGINES:
            raise ValueError(
                f"engine must be one of {ENGINES}, got {engine!r}"
            )
        if on_node_error not in ("quarantine", "fail"):
            raise ValueError(
                "on_node_error must be 'quarantine' or 'fail', got "
                f"{on_node_error!r}"
            )
        if max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {max_retries}"
            )
        self.spec = spec
        self.workers = resolve_workers(workers)
        self.shard_size = int(shard_size or DEFAULT_SHARD_SIZE)
        if cache is False:
            self.cache: Optional[ArtifactCache] = None
        elif cache is None:
            self.cache = default_cache() if cache_enabled() else None
        else:
            self.cache = cache
        self.observer = observer if observer is not None else NULL_OBSERVER
        self.max_retries = int(max_retries)
        self.task_timeout = task_timeout
        self.on_node_error = on_node_error
        self.chaos = chaos if chaos is not None and chaos.active else None
        self.exclude_nodes: FrozenSet[int] = frozenset(
            exclude_nodes or ()
        )
        self.engine = engine

    # ------------------------------------------------------------------
    def shards(self) -> List[Tuple[int, ...]]:
        """Node ids partitioned into contiguous shards.

        Excluded nodes are dropped *before* sharding, so an
        ``--exclude-nodes`` re-run packs the surviving ids into a
        different shard layout — which the determinism contract says
        must not matter.
        """
        ids = [
            i for i in range(self.spec.n_nodes)
            if i not in self.exclude_nodes
        ]
        return [
            tuple(ids[lo : lo + self.shard_size])
            for lo in range(0, len(ids), self.shard_size)
        ]

    def _shard_digest(self, node_ids: Sequence[int]) -> str:
        # Deliberately engine-independent: both executors are
        # bit-identical (oracle-guarded), so a checkpoint written by
        # either serves both.
        key = {
            "artifact": SHARD_KIND,
            "fleet": self.spec.describe(),
            "shard": list(node_ids),
        }
        if self.chaos is not None:
            # Chaos mutates outcomes (quarantines, retry counts):
            # never share checkpoints with clean runs.
            key["chaos"] = self.chaos.describe()
        return hash_key(key)

    # ------------------------------------------------------------------
    def _quarantine_shard(
        self, node_ids: Sequence[int], failure: TaskFailure
    ) -> List[FailedNode]:
        """Turn a permanently-failed *shard* into per-node records.

        Reached only under ``on_node_error="quarantine"`` when the
        supervisor gave up on the whole work item (timeout exhausted,
        worker died in isolation): blame cannot be pinned on one node,
        so every node of the shard is quarantined with the shard's
        failure reason.
        """
        return [
            FailedNode(
                node_id=node_id,
                policy=self.spec.node_spec(node_id).policy,
                graph_kind=self.spec.node_spec(node_id).graph_kind,
                error_type=failure.error_type,
                message=f"shard failed: {failure.message}",
                spec_digest=node_spec_digest(self.spec.node_spec(node_id)),
                retries=failure.retries,
            )
            for node_id in node_ids
        ]

    def _emit_quarantines(self, failed: Sequence[FailedNode]) -> None:
        for f in failed:
            self.observer.node_quarantined(
                node_id=f.node_id,
                node_policy=f.policy,
                error_type=f.error_type,
                spec_digest=f.spec_digest,
                retries=f.retries,
                reason=(
                    f"{f.error_type} on every allowed attempt: "
                    f"{f.message}"
                ),
            )

    @staticmethod
    def _load_checkpoint(cached):
        """Tolerant shard-checkpoint read.

        Pre-supervision checkpoints stored a bare summary list; the
        supervised format is ``(summaries, failed)``.  Anything else
        is a corrupt entry — reported as ``None`` (recompute).
        """
        if isinstance(cached, list):
            return cached, []
        if (
            isinstance(cached, tuple)
            and len(cached) == 2
            and isinstance(cached[0], list)
            and isinstance(cached[1], list)
        ):
            return cached
        return None

    def run(self) -> FleetResult:
        """Simulate every node; returns the aggregate.

        Checkpointed shards are loaded instead of recomputed; pending
        shards fan out over the supervised process pool, are
        checkpointed as they land, and emit their ``fleet_shard``
        event *at completion* (in completion order — this is the
        live-progress pulse).  Summaries always combine in node-id
        order, so the aggregate fingerprint is independent of all of
        this — including retries, quarantines and pool rebuilds.

        When the observer is enabled the run is traced: a ``fleet_run``
        root span whose context rides inside each worker payload, so
        shard/node spans from every process reassemble under one root.
        """
        shards = self.shards()
        if not shards:
            raise ValueError(
                "fleet has no nodes to run (everything excluded?)"
            )
        start = time.perf_counter()
        obs = self.observer
        if self.cache is not None:
            # Route this run's cache-write failures through the bus.
            self.cache.observer = obs
        tracer = getattr(obs, "tracer", None)
        if tracer is None:
            tracer = (
                obs.start_trace("fleet", self.spec.seed, self.spec.n_nodes)
                if obs.enabled
                else NULL_TRACER
            )
        plan: Optional[ChaosPlan] = (
            self.chaos.plan(
                [i for ids in shards for i in ids], len(shards)
            )
            if self.chaos is not None
            else None
        )
        ready: Dict[int, List[NodeSummary]] = {}
        failed_by_shard: Dict[int, List[FailedNode]] = {}
        pending: List[int] = []
        shard_aggs: dict = {}
        dmr_stream = P2Quantile(0.5)

        with tracer.span(
            "fleet_run",
            attrs={
                "n_nodes": self.spec.n_nodes,
                "num_shards": len(shards),
                "workers": self.workers,
            },
        ):
            for index, node_ids in enumerate(shards):
                cached = (
                    self._load_checkpoint(
                        self.cache.get(
                            SHARD_KIND, self._shard_digest(node_ids)
                        )
                    )
                    if self.cache is not None
                    else None
                )
                if cached is not None:
                    summaries, failed = cached
                    ready[index] = summaries
                    if failed:
                        failed_by_shard[index] = failed
                        self._emit_quarantines(failed)
                    with tracer.span(
                        "shard",
                        key=index,
                        attrs={
                            "shard_index": index,
                            "n_nodes": len(node_ids),
                            "cached": True,
                        },
                    ):
                        pass
                    for summary in summaries:
                        dmr_stream.add(summary.dmr)
                    obs.fleet_shard(
                        index, len(shards), node_ids, cached=True,
                        seconds=0.0,
                        p50_dmr_est=dmr_stream.estimate(-1.0),
                    )
                else:
                    pending.append(index)

            wire = (
                tracer.context().to_wire() if tracer.enabled else None
            )

            def _landed(position: int, out) -> None:
                summaries, failed, seconds, records = out
                index = pending[position]
                ready[index] = summaries
                if failed:
                    failed_by_shard[index] = failed
                    self._emit_quarantines(failed)
                for record in records:
                    obs.emit_record(record)
                if self.cache is not None:
                    self.cache.put(
                        SHARD_KIND,
                        self._shard_digest(shards[index]),
                        (summaries, failed),
                    )
                for summary in summaries:
                    dmr_stream.add(summary.dmr)
                obs.fleet_shard(
                    index, len(shards), shards[index], cached=False,
                    seconds=seconds,
                    p50_dmr_est=dmr_stream.estimate(-1.0),
                )

            policy = SupervisorPolicy(
                max_retries=self.max_retries,
                task_timeout=self.task_timeout,
                backoff_seed=self.spec.seed,
                on_error=(
                    "fail" if self.on_node_error == "fail"
                    else "quarantine"
                ),
            )

            def _payload(item, attempt):
                # The supervisor re-dispatches with a fresh attempt
                # number; chaos keys first-attempt-only faults off it.
                return item[:-1] + (attempt,)

            base_items = [
                (
                    self.spec, shards[i], i, wire,
                    plan, self.max_retries, self.on_node_error,
                    self.engine, 0,
                )
                for i in pending
            ]
            sup = supervised_map(
                _run_shard,
                base_items,
                policy=policy,
                n_workers=self.workers,
                observer=obs,
                on_result=_landed,
                prepare=_payload,
                labels=[f"shard-{i}" for i in pending],
                # Chaos kills call os._exit in the worker: never run
                # them in this process.
                force_pool=plan is not None,
            )
            for failure in sup.failures:
                index = pending[failure.index]
                ready[index] = []
                failed = self._quarantine_shard(shards[index], failure)
                failed_by_shard[index] = failed
                self._emit_quarantines(failed)

        for index in sorted(ready):
            shard_aggs[index] = FleetAggregate.from_nodes(
                ready[index], failed_by_shard.get(index, ())
            )
        aggregate: Optional[FleetAggregate] = None
        for index in sorted(shard_aggs):
            aggregate = (
                shard_aggs[index]
                if aggregate is None
                else aggregate.merge(shard_aggs[index])
            )

        nodes = [s for index in sorted(ready) for s in ready[index]]
        failed_nodes = [
            f for index in sorted(failed_by_shard)
            for f in failed_by_shard[index]
        ]
        if not nodes:
            raise SupervisorError(
                [
                    TaskFailure(
                        index=f.node_id,
                        label=f"node-{f.node_id}",
                        error_type=f.error_type,
                        message=f.message,
                        retries=f.retries,
                    )
                    for f in failed_nodes
                ]
                or [
                    TaskFailure(
                        index=-1, label="fleet",
                        error_type="RuntimeError",
                        message="no healthy nodes", retries=0,
                    )
                ]
            )
        wall = time.perf_counter() - start
        # Throughput counts computed nodes only: nodes served from
        # shard checkpoints cost a cache read, not a simulation.
        computed = sum(len(shards[i]) for i in pending)
        result = FleetResult(
            nodes,
            config={
                **self.spec.describe(),
                "workers": self.workers,
                "shard_size": self.shard_size,
                "engine": self.engine,
                "shards": len(shards),
                "wall_time_s": wall,
                "nodes_computed": computed,
                "nodes_served": sum(map(len, shards)) - computed,
                "nodes_per_s": computed / wall if wall > 0 else 0.0,
                "max_retries": self.max_retries,
                "task_timeout": self.task_timeout,
                "on_node_error": self.on_node_error,
                "supervisor": {
                    "retries": sup.retries,
                    "timeouts": sup.timeouts,
                    "pool_rebuilds": sup.pool_rebuilds,
                },
                **(
                    {"chaos": self.chaos.describe()}
                    if self.chaos is not None
                    else {}
                ),
                **(
                    {"exclude_nodes": sorted(self.exclude_nodes)}
                    if self.exclude_nodes
                    else {}
                ),
            },
            aggregate=aggregate,
            failed_nodes=failed_nodes,
        )
        self.observer.finish(
            result_summary=result.summary(), scheduler="fleet"
        )
        return result


def run_fleet(
    spec: FleetSpec,
    workers: Optional[int] = None,
    shard_size: Optional[int] = None,
    cache=None,
    observer: Optional[Observer] = None,
    max_retries: int = 2,
    task_timeout: Optional[float] = None,
    on_node_error: str = "quarantine",
    chaos: Optional[ChaosSpec] = None,
    exclude_nodes: Optional[Sequence[int]] = None,
    engine: str = "batch",
) -> FleetResult:
    """One-call convenience wrapper around :class:`FleetRunner`."""
    return FleetRunner(
        spec,
        workers=workers,
        shard_size=shard_size,
        cache=cache,
        observer=observer,
        max_retries=max_retries,
        task_timeout=task_timeout,
        on_node_error=on_node_error,
        chaos=chaos,
        exclude_nodes=exclude_nodes,
        engine=engine,
    ).run()
