"""Drive one fleet run through the public API, and check its output.

Imported only after ``import repro.cli`` has been timed (see
:mod:`child`), and by the self-tests.  Everything goes through
``FleetSpec``, ``FleetRunner``, ``simulate_node`` and the
``REPRO_CACHE_DIR``/``REPRO_NO_CACHE`` environment that
``repro fleet run`` itself reads.
"""

from __future__ import annotations

import os
import resource
import shutil
import time
from pathlib import Path
from typing import List, Optional, Tuple

from repro.fleet import FleetRunner, FleetSpec, simulate_node
from repro.obs import Observer

from pb_config import Workload

#: Artifact-cache namespace the fleet runner checkpoints shards under.
SHARD_KIND = "fleet-shard"


class ShardLog(Observer):
    """A disabled observer that keeps the runner's ``fleet_shard`` calls.

    Disabled, so the runner takes exactly the untraced path users get
    with no observer (no tracer, no sinks); only the per-shard
    callback is kept: how many nodes each shard held, whether it was
    served from a checkpoint, and its compute seconds.
    """

    def __init__(self) -> None:
        super().__init__(enabled=False)
        self.shards: List[Tuple[int, bool, float]] = []

    def fleet_shard(
        self,
        shard_index,
        num_shards,
        node_ids,
        cached,
        seconds,
        p50_dmr_est=-1.0,
    ) -> None:
        self.shards.append((len(node_ids), bool(cached), float(seconds)))

    @property
    def simulated(self) -> int:
        """Nodes computed in this run (checkpoint-served ones excluded)."""
        return sum(n for n, cached, _ in self.shards if not cached)

    @property
    def served(self) -> int:
        """Nodes served from shard checkpoints."""
        return sum(n for n, cached, _ in self.shards if cached)

    def computed_shard_seconds(self) -> List[float]:
        return [s for _, cached, s in self.shards if not cached]


def fleet_spec(workload: Workload, seed: int) -> FleetSpec:
    kwargs = {"n_nodes": workload.n_nodes, "seed": seed}
    if workload.policies is not None:
        kwargs["policies"] = workload.policies
    return FleetSpec(**kwargs)


def sample_ids(n_nodes: int, count: int) -> List[int]:
    """``count`` node ids spread evenly over ``[0, n_nodes)``."""
    if count >= n_nodes:
        return list(range(n_nodes))
    if count == 1:
        return [0]
    return sorted(
        {round(k * (n_nodes - 1) / (count - 1)) for k in range(count)}
    )


def point_cache(cache_dir: Path, enabled: bool) -> None:
    """Aim the program's artifact cache at ``cache_dir`` (or disable it)."""
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    if enabled:
        os.environ.pop("REPRO_NO_CACHE", None)
    else:
        os.environ["REPRO_NO_CACHE"] = "1"


def prepare(workload: Workload, cache_dir: Path, half_store: Optional[Path]):
    """Fresh cache directory for one run, seeded per the workload."""
    if workload.cache == "half":
        shutil.copytree(half_store, cache_dir)
    else:
        cache_dir.mkdir(parents=True)
    point_cache(cache_dir, enabled=workload.cache != "off")


def run_once(spec: FleetSpec, workers: Optional[int], shard_size=None):
    """One ``FleetRunner.run()``; returns ``(result, shard_log, wall_s)``."""
    log = ShardLog()
    runner = FleetRunner(
        spec, workers=workers, shard_size=shard_size, observer=log
    )
    start = time.perf_counter()
    result = runner.run()
    wall = time.perf_counter() - start
    return result, log, wall


def make_half_store(full_store: Path, half_store: Path) -> List[str]:
    """Copy every other shard checkpoint, in sorted file-name order.

    Returns the kept file names.  The result is what a killed run
    leaves behind: half its shards checkpointed, scattered over the
    fleet.
    """
    files = sorted((full_store / SHARD_KIND).glob("*.pkl"))
    kept = files[0::2]
    target = half_store / SHARD_KIND
    target.mkdir(parents=True)
    for path in kept:
        shutil.copy2(path, target / path.name)
    return [p.name for p in kept]


def check_sample(spec: FleetSpec, result, ids: List[int]) -> List[int]:
    """Node ids whose summary differs from the per-node reference."""
    base = spec.base_trace()
    by_id = {n.node_id: n for n in result.nodes}
    return [
        i
        for i in ids
        if by_id.get(i) != simulate_node(spec, base, spec.node_spec(i))
    ]


def peak_rss_mb() -> float:
    """Larger of this process's and its reaped children's peak RSS."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0
