"""Static description of the fleet benchmark: workloads, metrics, layers.

Nothing here imports the ``repro`` package, so the orchestrator
(:mod:`run`) can read it without paying, or depending on, the program
under test.  ``BENCHMARK.json`` at the repository root repeats the
metric names and units; a self-test holds the two in step.
"""

from __future__ import annotations

import dataclasses
import re
from typing import Dict, Optional, Tuple

#: Metric names must match this (BENCHMARK.json contract).
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


@dataclasses.dataclass(frozen=True)
class Workload:
    """One fleet run as ``repro fleet run`` would start it.

    ``policies`` ``None`` keeps the FleetSpec default pool
    (asap/inter-task/intra-task/random); ``workers`` ``None`` is the
    CLI's serial default.  ``cache`` is ``"cold"`` (fresh, empty store),
    ``"off"`` (``--no-cache``) or ``"half"`` (a fresh copy of a store
    holding every other shard checkpoint of a finished run).
    ``sample`` is how many node ids the output check re-simulates
    through the per-node reference.
    """

    name: str
    n_nodes: int
    policies: Optional[Tuple[str, ...]]
    workers: Optional[int]
    cache: str
    sample: int
    why: str


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="fleet_default",
            n_nodes=1024,
            policies=None,
            workers=None,
            cache="cold",
            sample=16,
            why=(
                "repro fleet run defaults on a cold cache: batch engine, "
                "shard size 32, serial; sim.batch does the work, "
                "core.offline none"
            ),
        ),
        Workload(
            name="fleet_proposed_nocache",
            n_nodes=32,
            policies=("proposed",),
            workers=None,
            cache="off",
            sample=4,
            why=(
                "the paper's proposed scheduler with --no-cache: the "
                "offline stage retrains per node; sim.batch does nothing"
            ),
        ),
        Workload(
            name="fleet_resume_pool",
            n_nodes=1024,
            policies=None,
            workers=2,
            cache="half",
            sample=16,
            why=(
                "fleet_default resumed on 2 workers from a store holding "
                "half its shard checkpoints: cache reads beside writes, "
                "pool dispatch and IPC"
            ),
        ),
    )
}

#: ``repro fleet run --nodes 1024 --seed 0`` fingerprint, committed in
#: BENCH_perf.json (``fleet_batch``).  Every 1024-node default-pool
#: fleet at seed 0 must reproduce it whatever the engine, shard size,
#: worker count or cache state.
SEED0_FINGERPRINT_1024 = (
    "d70763d70903a55d874f743a61801f29ef909ba20c1d5a404506f63f79503a50"
)


def expected_fingerprint(workload: Workload, seed: int) -> Optional[str]:
    """The committed fingerprint a run must reproduce, where one exists."""
    if seed == 0 and workload.n_nodes == 1024 and workload.policies is None:
        return SEED0_FINGERPRINT_1024
    return None


def nodes_per_s(simulated: int, wall_s: float) -> float:
    """Throughput over nodes computed in the run; checkpoint-served
    nodes never count."""
    return simulated / wall_s


#: End-to-end metrics of the untraced runs: name -> unit.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "wall_s": "s",
    "nodes_per_s": "nodes/s",
    "peak_rss_mb": "MB",
}

#: Layers wrapped in the traced run, in table order.  Each gets
#: ``<layer>.calls``, ``<layer>.s`` (inclusive) and ``<layer>.self_s``.
SPAN_LAYERS: Tuple[str, ...] = (
    "solar",
    "core.offline",
    "energy.sizing",
    "core.longterm",
    "core.ann",
    "sim.engine",
    "sim.batch",
    "sim.checkpoint",
    "fleet.result",
    "reliability.supervisor",
    "perf.cache",
)

#: Per-layer metrics beyond the calls/s/self_s triples:
#: name -> (unit, better).
LAYER_EXTRAS: Dict[str, Tuple[str, str]] = {
    "cli.import_s": ("s", "lower"),
    "core.offline.runs": ("count", "lower"),
    "core.offline.runs_per_workload": ("runs/workload", "lower"),
    "energy.sizing.day_sims": ("count", "lower"),
    "sim.batch.nodes_per_call": ("nodes/call", "higher"),
    "sim.batch.eligible_frac": ("frac", "higher"),
    "fleet.shard_s.p50": ("s", "lower"),
    "fleet.shard_s.max": ("s", "lower"),
    "reliability.supervisor.retries": ("count", "lower"),
    "reliability.supervisor.timeouts": ("count", "lower"),
    "reliability.supervisor.pool_rebuilds": ("count", "lower"),
    "perf.cache.hit_frac": ("frac", "higher"),
    "perf.cache.bytes_written": ("bytes", "lower"),
    "perf.cache.nodes_served": ("count", "higher"),
    "trace.overhead_frac": ("frac", "lower"),
}


def per_layer_metrics() -> Dict[str, Tuple[str, str]]:
    """Every per-layer metric: name -> (unit, better)."""
    metrics: Dict[str, Tuple[str, str]] = {}
    for layer in SPAN_LAYERS:
        metrics[f"{layer}.calls"] = ("count", "lower")
        metrics[f"{layer}.s"] = ("s", "lower")
        metrics[f"{layer}.self_s"] = ("s", "lower")
    metrics.update(LAYER_EXTRAS)
    return metrics


#: Which end-to-end metric each layer should move, and on which
#: workload (written down before measuring; see README.md).
LAYER_MAP: Dict[str, Tuple[str, str]] = {
    "cli": ("setup_s", "all workloads"),
    "solar": ("wall_s", "fleet_default, fleet_proposed_nocache"),
    "core.offline": ("nodes_per_s", "fleet_proposed_nocache only"),
    "energy.sizing": ("nodes_per_s", "fleet_proposed_nocache only"),
    "core.longterm": ("nodes_per_s", "fleet_proposed_nocache only"),
    "core.ann": ("nodes_per_s", "fleet_proposed_nocache only"),
    "sim.engine": ("wall_s", "fleet_proposed_nocache"),
    "sim.batch": (
        "nodes_per_s, peak_rss_mb",
        "fleet_default, fleet_resume_pool",
    ),
    "sim.checkpoint": ("wall_s", "all workloads"),
    "fleet.result": ("wall_s", "fleet_default, fleet_resume_pool"),
    "fleet.shard_s": ("wall_s", "fleet_resume_pool (slowest shard)"),
    "reliability.supervisor": ("wall_s", "fleet_resume_pool"),
    "perf.cache": ("wall_s", "fleet_resume_pool"),
    "trace": ("none (traced run only)", "all workloads"),
}
