"""Self-tests of the benchmark's own logic, on tiny fleets.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import pb_fleet
import pb_layers
from pb_config import (
    END_TO_END,
    METRIC_NAME,
    WORKLOADS,
    nodes_per_s,
    per_layer_metrics,
)
from repro.fleet import FleetSpec

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def cache_env(monkeypatch):
    """Let the benchmark steer the cache variables; restore them after."""
    monkeypatch.setenv("REPRO_CACHE_DIR", "unused")
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    monkeypatch.delenv("REPRO_WORKERS", raising=False)


def _tree(root: Path):
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def _cold_run(spec, cache_dir):
    pb_fleet.point_cache(cache_dir, enabled=True)
    return pb_fleet.run_once(spec, workers=None, shard_size=2)


# ----------------------------------------------------------------------
def test_metric_names_match_contract_and_benchmark_json():
    e2e = dict(END_TO_END)
    layers = per_layer_metrics()
    names = list(e2e) + list(layers)
    assert len(names) == len(set(names))
    for name in names:
        assert METRIC_NAME.fullmatch(name) and len(name) <= 64, name

    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in config["end_to_end"]} == e2e
    assert {
        m["name"]: (m["unit"], m["better"]) for m in config["per_layer"]
    } == layers
    assert {w["name"]: w["why"] for w in config["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_nodes_per_s_excludes_cache_served_nodes(tmp_path, cache_env):
    spec = FleetSpec(n_nodes=8, seed=0)
    cold, cold_log, _ = _cold_run(spec, tmp_path / "cold")
    assert (cold_log.simulated, cold_log.served) == (8, 0)

    kept = pb_fleet.make_half_store(tmp_path / "cold", tmp_path / "half")
    assert len(kept) == 2
    workload = dataclasses.replace(WORKLOADS["fleet_resume_pool"], n_nodes=8)
    pb_fleet.prepare(workload, tmp_path / "resume", tmp_path / "half")
    resumed, log, wall = pb_fleet.run_once(spec, workers=None, shard_size=2)

    assert (log.simulated, log.served) == (4, 4)
    assert len(resumed) == 8
    assert nodes_per_s(log.simulated, wall) == 4 / wall
    assert resumed.fingerprint() == cold.fingerprint()


def test_half_filled_store_is_identical_across_setups(tmp_path, cache_env):
    spec = FleetSpec(n_nodes=8, seed=3)
    for run in ("a", "b"):
        _cold_run(spec, tmp_path / f"cold-{run}")
        pb_fleet.make_half_store(
            tmp_path / f"cold-{run}", tmp_path / f"half-{run}"
        )
    half = _tree(tmp_path / "half-a")
    assert len(half) == 2
    assert _tree(tmp_path / "half-b") == half

    workload = dataclasses.replace(WORKLOADS["fleet_resume_pool"], n_nodes=8)
    for setup in ("x", "y"):
        pb_fleet.prepare(workload, tmp_path / setup, tmp_path / "half-a")
        assert _tree(tmp_path / setup) == half


def _bindings():
    """Identity snapshot of every program module and wrapped class."""
    snap = {}
    for module in pb_layers._program_modules():
        for name, value in vars(module).items():
            snap[(module.__name__, name)] = value
    for _, modname, clsname, _ in pb_layers.SPAN_TARGETS:
        if clsname is not None:
            owner = getattr(sys.modules[modname], clsname)
            for name, value in vars(owner).items():
                snap[(f"{modname}.{clsname}", name)] = value
    return snap


def test_wrappers_restore_the_original_functions(tmp_path, cache_env):
    recorder = pb_layers.LayerRecorder()
    recorder.install()
    recorder.uninstall()  # every target module is imported now
    before = _bindings()

    recorder = pb_layers.LayerRecorder()
    with recorder.installed():
        import repro.fleet.runner as runner

        original = before[("repro.fleet.runner", "simulate")]
        assert runner.simulate is not original
        # A module imported while wrapped binds the wrapper by name.
        late = types.ModuleType("repro._perfbench_late")
        late.simulate = runner.simulate
        sys.modules[late.__name__] = late
        spec = FleetSpec(n_nodes=4, seed=0)
        _cold_run(spec, tmp_path / "cache")
    try:
        assert late.simulate is original
    finally:
        del sys.modules[late.__name__]
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []
    assert recorder.calls["sim.batch"] == 2
    assert recorder.calls["core.offline"] == 0


def test_layer_counts_on_a_tiny_proposed_fleet(tmp_path, cache_env):
    spec = FleetSpec(n_nodes=2, seed=0, policies=("proposed",))
    pb_fleet.point_cache(tmp_path / "cache", enabled=False)
    recorder = pb_layers.LayerRecorder()
    with recorder.installed():
        _, log, _ = pb_fleet.run_once(spec, workers=None)
    metrics = recorder.metrics(
        log.simulated, log.served, log.computed_shard_seconds()
    )
    assert metrics["core.offline.calls"][0] == 2
    assert metrics["core.offline.runs"][0] == 2
    assert metrics["sim.batch.calls"][0] == 0
    assert metrics["sim.engine.calls"][0] == 2
    assert metrics["perf.cache.calls"][0] == 0
    assert metrics["sim.batch.eligible_frac"] == (0.0, "0/2")
    assert metrics["energy.sizing.day_sims"][0] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__", "tests"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet_default",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
