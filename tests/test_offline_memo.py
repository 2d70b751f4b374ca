"""The process-local offline memos of :mod:`repro.core.offline`.

A ``--no-cache`` fleet of ``proposed`` nodes trains each workload once
per process, the memo never shows through a node's summary or the
fleet fingerprint, and memoised traces are shared read-only.
"""

import numpy as np
import pytest

from repro.core import offline
from repro.core.offline import OfflinePipeline, memo_trace
from repro.fleet import FleetRunner, FleetSpec, simulate_node
from repro.timeline import Timeline
from repro.verify.strategies import build_graph

#: Six ``proposed`` nodes over two task kinds (both drawn at seed 0).
PROPOSED = FleetSpec(
    n_nodes=6, seed=0, policies=("proposed",), task_mix=("wam", "ecg")
)


@pytest.fixture(autouse=True)
def _no_disk_cache(monkeypatch, tmp_path):
    """``--no-cache``: no disk reads or writes, none outside tmp_path."""
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))


def _count_runs(monkeypatch) -> list:
    calls = []
    real = OfflinePipeline.run

    def counted(self, *args, **kwargs):
        calls.append(self.graph.name)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(OfflinePipeline, "run", counted)
    return calls


def test_no_cache_fleet_trains_once_per_workload(monkeypatch, fresh_memos):
    kinds = {PROPOSED.node_spec(i).graph_kind for i in range(6)}
    assert kinds == {"wam", "ecg"}
    calls = _count_runs(monkeypatch)
    FleetRunner(PROPOSED, workers=1, cache=False).run()
    assert len(calls) == 2
    assert len(set(calls)) == 2


def test_memo_never_shows_through_a_summary(fresh_memos):
    result = FleetRunner(PROPOSED, workers=1, cache=False).run()
    fresh_memos()
    base = PROPOSED.base_trace()
    for node in result.nodes:
        spec = PROPOSED.node_spec(node.node_id)
        assert simulate_node(PROPOSED, base, spec) == node


@pytest.mark.parametrize(
    "workers, shard_size", [(2, None), (1, 1), (2, 1)]
)
def test_fingerprint_invariant_to_workers_and_shards(
    workers, shard_size, fresh_memos
):
    reference = FleetRunner(PROPOSED, workers=1, cache=False).run()
    fresh_memos()
    other = FleetRunner(
        PROPOSED, workers=workers, shard_size=shard_size, cache=False
    ).run()
    assert other.fingerprint() == reference.fingerprint()


def test_memo_is_keyed_by_cache_key(monkeypatch, fresh_memos):
    """Equal configurations built separately share one training; a
    changed knob trains again."""
    calls = _count_runs(monkeypatch)
    tl = Timeline(
        num_days=1, periods_per_day=6, slots_per_period=20, slot_seconds=30.0
    )
    trace = memo_trace(tl, 3)

    def pipe(epochs):
        return OfflinePipeline(
            build_graph("wam"), pretrain_epochs=epochs,
            finetune_epochs=epochs, augment_per_period=1,
        )

    first = offline.trained_policy(pipe(2), trace)
    assert offline.trained_policy(pipe(2), trace) is first
    assert len(calls) == 1
    assert offline.trained_policy(pipe(3), trace) is not first
    assert len(calls) == 2


def test_memoised_traces_are_shared_and_read_only(fresh_memos):
    base = PROPOSED.base_trace()
    assert PROPOSED.base_trace() is base
    with pytest.raises(ValueError):
        base.power[0, 0, 0] = 1.0
    tl = PROPOSED.timeline()
    assert memo_trace(tl, PROPOSED.seed) is base
    assert memo_trace(tl, PROPOSED.seed + 1) is not base
    fresh_memos()
    rebuilt = PROPOSED.base_trace()
    assert rebuilt is not base
    np.testing.assert_array_equal(rebuilt.power, base.power)
