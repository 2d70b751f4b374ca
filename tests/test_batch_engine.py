"""Conformance wall for the batched node-major engine (`repro.sim.batch`).

The batched engine's contract is *bit-identity* with the per-node
scalar engine — not statistical agreement.  This suite pins it:

- differential conformance over the 4 canonical solar days, all 7
  runtime fault scenarios (via the dispatcher's per-node fallback) and
  heterogeneous ``fleet_variations`` populations;
- degenerate batch shapes: a single node, a shard of identical nodes,
  a shard where every node differs;
- hypothesis properties: batch-split invariance, node-order
  permutation invariance, per-row physics invariants on batched state;
- the paper's ``proposed`` scheduler as batch rows: mixed with every
  baseline, Eq. (22) switches granted and refused, both δ modes and
  the degradation ladder, per-period ``active_index`` included;
- "teeth": a deliberately corrupted leakage row, or one proposed row's
  corrupted coarse decision, must surface as a structured Violation
  naming exactly the offending node.
"""

import dataclasses
import tracemalloc
import zlib
from typing import Callable, Optional

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import DEFAULT_BANK_FARADS, quick_node
from repro.core.online import CoarsePolicy, HeuristicPolicy, ProposedScheduler
from repro.energy.capacitor import SuperCapacitor
from repro.fleet import FleetRunner, FleetSpec, simulate_node, simulate_shard_batch
from repro.fleet.runner import _proposed_policy
from repro.fleet.spec import node_trace
from repro.reliability import RUNTIME_SCENARIOS, FaultInjector, runtime_scenario
from repro.schedulers import GreedyEDFScheduler, IntraTaskScheduler
from repro.sim import result_fingerprint
from repro.sim.batch import (
    BATCH_POLICIES,
    MAX_BATCH_TASKS,
    BatchCase,
    batch_ineligibility,
    simulate_batch,
    simulate_cases,
)
from repro.sim.engine import simulate
from repro.solar import four_day_trace, synthetic_trace
from repro.tasks import Task, TaskGraph, paper_benchmarks
from repro.timeline import Timeline
from repro.verify.oracles import oracle_batch_vs_per_node
from repro.verify.strategies import build_graph, fleet_variations, random_trace, tiny_timeline


@pytest.fixture(autouse=True)
def _no_default_cache(monkeypatch):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")


def _default_bank():
    return tuple(
        SuperCapacitor(capacitance=c) for c in DEFAULT_BANK_FARADS
    )


def _case_from_variation(var, trace):
    return BatchCase(
        graph=build_graph(var["graph_kind"]),
        trace=trace,
        capacitors=tuple(
            SuperCapacitor(capacitance=c) for c in var["bank_farads"]
        ),
        policy=var["policy"],
        scheduler_seed=var["scheduler_seed"],
    )


def _per_node_reference(case):
    """The scalar engine run the batched result must match bit-for-bit."""
    from repro.sim.batch import _simulate_per_node

    return _simulate_per_node(
        dataclasses.replace(case)
    )


def _assert_identical(batched, reference, label=""):
    got = result_fingerprint(batched)
    want = result_fingerprint(reference)
    assert got == want, f"{label}: batched engine diverged from per-node"


# ----------------------------------------------------------------------
# Differential conformance: canonical days, fault scenarios, fleets
# ----------------------------------------------------------------------
class TestCanonicalConformance:
    def test_four_canonical_days_bit_identical(self):
        """All 4 canonical days, batched as one shard, vs per-node."""
        graph = paper_benchmarks()["WAM"]
        tl = Timeline(4, 144, 20, 30.0)
        four = four_day_trace(tl)
        cases = [
            BatchCase(
                graph=graph,
                trace=four.day_slice(day),
                capacitors=_default_bank(),
                policy="intra-task",
            )
            for day in range(4)
        ]
        results = simulate_batch(cases)
        for day, batched in enumerate(results):
            reference = simulate(
                quick_node(graph), graph, four.day_slice(day),
                IntraTaskScheduler(), strict=False,
            )
            _assert_identical(batched, reference, f"canonical-day{day + 1}")

    def test_all_fault_scenarios_via_dispatcher(self):
        """Fault cases route per-node; the dispatcher must not disturb
        them and must interleave them correctly with batched cases."""
        graph = paper_benchmarks()["WAM"]
        tl = Timeline(1, 24, 20, 30.0)
        trace = synthetic_trace(tl, seed=3)
        cases = []
        for scenario in sorted(RUNTIME_SCENARIOS):
            cases.append(
                BatchCase(
                    graph=graph,
                    trace=trace,
                    capacitors=_default_bank(),
                    policy="asap",
                    fault_injector=FaultInjector(
                        runtime_scenario(scenario, tl, seed=0), tl
                    ),
                )
            )
            # Interleave an eligible case so batched/per-node results
            # must reassemble in input order.
            cases.append(
                BatchCase(
                    graph=graph, trace=trace,
                    capacitors=_default_bank(), policy="asap",
                )
            )
        results = simulate_cases(cases)
        assert len(results) == len(cases)
        for scenario, batched in zip(sorted(RUNTIME_SCENARIOS), results[::2]):
            reference = simulate(
                quick_node(graph), graph, trace, GreedyEDFScheduler(),
                strict=False,
                fault_injector=FaultInjector(
                    runtime_scenario(scenario, tl, seed=0), tl
                ),
            )
            _assert_identical(batched, reference, f"fault-{scenario}")
        clean = simulate(
            quick_node(graph), graph, trace, GreedyEDFScheduler(),
            strict=False,
        )
        for batched in results[1::2]:
            _assert_identical(batched, clean, "interleaved-clean")

    def test_heterogeneous_fleet_population(self):
        """Mixed policies, banks, panel scales: the fleet shard adapter
        equals a simulate_node map, summary for summary."""
        fleet = FleetSpec(n_nodes=12, seed=5)
        base = fleet.base_trace()
        specs = [fleet.node_spec(i) for i in range(fleet.n_nodes)]
        batched = simulate_shard_batch(fleet, base, specs)
        for spec, got in zip(specs, batched):
            assert got == simulate_node(fleet, base, spec), (
                f"node {spec.node_id} ({spec.policy}/{spec.graph_kind})"
            )


class TestDegenerateShapes:
    def _clean_case(self, seed=0, policy="asap"):
        tl = tiny_timeline()
        return BatchCase(
            graph=paper_benchmarks()["ECG"],
            trace=synthetic_trace(tl, seed=seed),
            capacitors=_default_bank(),
            policy=policy,
        )

    def test_single_node_batch(self):
        case = self._clean_case()
        (batched,) = simulate_batch([case])
        _assert_identical(batched, _per_node_reference(case), "n=1")

    def test_identical_shard(self):
        case = self._clean_case(policy="intra-task")
        results = simulate_batch([case, case, case])
        reference = _per_node_reference(case)
        fps = {result_fingerprint(r) for r in results}
        assert fps == {result_fingerprint(reference)}

    def test_all_different_shard(self):
        tl = tiny_timeline()
        cases = [
            BatchCase(
                graph=build_graph(kind),
                trace=synthetic_trace(tl, seed=i),
                capacitors=tuple(
                    SuperCapacitor(capacitance=c) for c in farads
                ),
                policy=policy,
                scheduler_seed=i,
            )
            for i, (kind, policy, farads) in enumerate(
                [
                    ("wam", "asap", (1.0, 47.0)),
                    ("ecg", "inter-task", (4.7,)),
                    ("shm", "intra-task", (2.0, 10.0, 47.0)),
                    ("random:11", "random", (0.5, 1.0)),
                ]
            )
        ]
        for case, batched in zip(cases, simulate_batch(cases)):
            _assert_identical(
                batched, _per_node_reference(case), case.policy
            )

    def test_empty_batch(self):
        assert simulate_batch([]) == []

    def test_trace_factory_matches_trace(self):
        """A case may carry a weather factory; the engine draws it into
        its own solar array with the identical result."""
        case = self._clean_case(seed=3, policy="inter-task")
        drawn = dataclasses.replace(case, trace=lambda: case.trace)
        (want,) = simulate_batch([case])
        (got,) = simulate_batch([drawn])
        assert result_fingerprint(got) == result_fingerprint(want)

    def test_results_index_like_a_sequence(self):
        cases = [self._clean_case(seed=i) for i in range(3)]
        results = simulate_batch(cases)
        assert len(results) == 3
        assert result_fingerprint(results[-1]) == result_fingerprint(
            results[2]
        )
        with pytest.raises(IndexError):
            results[3]
        # Each read rebuilds the node's records from the columnar books.
        assert results[0].periods is not results[0].periods
        assert [result_fingerprint(r) for r in results] == [
            result_fingerprint(r) for r in list(results)
        ]

    def test_ineligible_case_raises(self):
        case = self._clean_case()
        case.policy = "dvfs"
        with pytest.raises(ValueError, match="not batch-eligible"):
            simulate_batch([case])

    def test_untrained_proposed_case_raises(self):
        case = self._clean_case(policy="proposed")
        with pytest.raises(ValueError, match="needs a trained policy"):
            simulate_batch([case])


class TestEligibility:
    def test_reasons(self):
        graph = paper_benchmarks()["WAM"]
        assert batch_ineligibility("asap", graph) is None
        assert "not batched" in batch_ineligibility("dvfs", graph)
        assert batch_ineligibility("proposed", graph) is None
        assert "per-node" in batch_ineligibility(
            "asap", graph, fault_injector=object()
        )
        wide = TaskGraph(
            [
                Task(f"t{i}", 60.0, 600.0, 0.01, nvp=0)
                for i in range(MAX_BATCH_TASKS + 1)
            ]
        )
        assert "MAX_BATCH_TASKS" in batch_ineligibility("asap", wide)
        assert set(BATCH_POLICIES) == {
            "asap", "inter-task", "intra-task", "random", "proposed"
        }


# ----------------------------------------------------------------------
# The paper's proposed scheduler as batch rows
# ----------------------------------------------------------------------
#: A fleet holding every batched policy, two of them ``proposed``.
MIXED = FleetSpec(n_nodes=10, seed=3, policies=BATCH_POLICIES)


@pytest.fixture(scope="module")
def trained_wam():
    """The fleet-budget trained policy of the WAM workload."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_NO_CACHE", "1")
        return _proposed_policy(MIXED, "wam")


class _SteeredPolicy(CoarsePolicy):
    """A coarse stage that exercises every branch of the batch rows.

    Wraps a real coarse policy; call ``k`` requests capacitor
    ``k % H``, alternates α between the intra-task (α = 1) and lazy
    inter-task (α = 3) modes, every third call drops a task picked by
    a checksum of the inputs (so any drift in the view the row builds
    changes the schedule), and raises on the calls in ``fail_calls``.
    """

    def __init__(self, inner: CoarsePolicy, n_caps: int, fail_calls=()):
        self.inner = inner
        self.n_caps = n_caps
        self.fail_calls = set(fail_calls)
        self.calls = 0

    def decide(self, prev_solar, voltages, accumulated_dmr):
        k = self.calls
        self.calls += 1
        if k in self.fail_calls:
            raise RuntimeError(f"stub inference failure on call {k}")
        _, _, te = self.inner.decide(prev_solar, voltages, accumulated_dmr)
        te = np.ones(len(te), dtype=bool)
        if k % 3 == 2:
            inputs = np.concatenate(
                [prev_solar, voltages, [accumulated_dmr]]
            )
            te[zlib.crc32(inputs.tobytes()) % len(te)] = False
        return k % self.n_caps, 1.0 if k % 2 == 0 else 3.0, te


@dataclasses.dataclass
class _SteeredTrained:
    """What a batch row reads of a trained policy, with a steered DBN."""

    trained: object
    switch_threshold: float
    fail_calls: tuple = ()
    fallback: Optional[Callable[[], CoarsePolicy]] = None

    @property
    def capacitors(self):
        return self.trained.capacitors

    @property
    def graph(self):
        return self.trained.graph

    def make_scheduler(self):
        inner = self.trained.make_scheduler().policy
        return ProposedScheduler(
            _SteeredPolicy(inner, len(self.capacitors), self.fail_calls),
            delta=self.trained.delta,
            fallback_policy=self.fallback() if self.fallback else None,
        )


def _proposed_case(trained, node_id=0):
    spec = MIXED.node_spec(node_id)
    return BatchCase(
        graph=trained.graph,
        trace=node_trace(MIXED.base_trace(), spec),
        capacitors=tuple(trained.capacitors),
        policy="proposed",
        trained=trained,
    )


def _assert_rows_match_per_node(cases):
    """Every batched row equals its per-node run, records included."""
    results = simulate_batch(cases)
    for i, (case, batched) in enumerate(zip(cases, results)):
        reference = _per_node_reference(case)
        _assert_identical(batched, reference, f"row {i}")
        assert [p.active_index for p in batched.periods] == [
            p.active_index for p in reference.periods
        ]
        assert batched.scheduler_name == reference.scheduler_name
    return results


class TestProposedRows:
    def test_mixed_with_every_baseline(self):
        """Proposed rows beside asap/inter/intra/random rows, one batch:
        every NodeSummary equals simulate_node."""
        base = MIXED.base_trace()
        specs = MIXED.node_specs()
        assert {s.policy for s in specs} == set(BATCH_POLICIES)
        assert sum(s.policy == "proposed" for s in specs) >= 2
        for spec, got in zip(specs, simulate_shard_batch(MIXED, base, specs)):
            assert got == simulate_node(MIXED, base, spec), (
                f"node {spec.node_id} ({spec.policy}/{spec.graph_kind})"
            )

    def test_trained_rows_match_per_node(self, trained_wam):
        """The trained policy itself, three nodes' weather."""
        _assert_rows_match_per_node(
            [_proposed_case(trained_wam, i) for i in range(3)]
        )

    def test_eq22_grants_switches_under_a_raised_threshold(
        self, trained_wam
    ):
        steered = _SteeredTrained(trained_wam, switch_threshold=1e9)
        (result,) = _assert_rows_match_per_node([_proposed_case(steered)])
        active = [p.active_index for p in result.periods]
        assert len(set(active)) == len(trained_wam.capacitors)

    def test_eq22_refuses_switches_under_a_zero_threshold(
        self, trained_wam
    ):
        steered = _SteeredTrained(trained_wam, switch_threshold=0.0)
        (result,) = _assert_rows_match_per_node([_proposed_case(steered)])
        assert {p.active_index for p in result.periods} == {0}

    def test_both_delta_modes_and_default_threshold(
        self, trained_wam, monkeypatch
    ):
        """α alternates 1 and 3: intra-task and lazy inter-task periods
        in one row, beside an unsteered row of the same workload."""
        import repro.sim.batch as batch_mod

        modes = []
        real = batch_mod._row_scheduler

        def spy(row, trained):
            scheduler = real(row, trained)
            hook = scheduler.on_period_start

            def on_period_start(view):
                hook(view)
                modes.append((row, scheduler.intra_mode))

            scheduler.on_period_start = on_period_start
            return scheduler

        monkeypatch.setattr(batch_mod, "_row_scheduler", spy)
        steered = _SteeredTrained(
            trained_wam, switch_threshold=trained_wam.switch_threshold
        )
        _assert_rows_match_per_node(
            [_proposed_case(steered, 1), _proposed_case(trained_wam, 2)]
        )
        assert {mode for row, mode in modes if row == 0} == {True, False}

    @pytest.mark.parametrize("with_fallback", [False, True])
    def test_degradation_ladder_matches_per_node(
        self, trained_wam, with_fallback, monkeypatch
    ):
        """Primary failures: retries, the fallback policy or the
        inter-task-only rung, then quarantine — all replayed per row."""
        import repro.sim.batch as batch_mod

        built = []
        real = batch_mod._row_scheduler

        def record(row, trained):
            built.append(real(row, trained))
            return built[-1]

        monkeypatch.setattr(batch_mod, "_row_scheduler", record)
        fallback = None
        if with_fallback:
            def fallback():
                return HeuristicPolicy(
                    trained_wam.graph,
                    trained_wam.capacitors,
                    MIXED.timeline().period_seconds,
                )
        steered = _SteeredTrained(
            trained_wam,
            switch_threshold=1e9,
            # Calls 0-5 fail: three failed periods quarantine the
            # primary; calls 9-10 fail once more after it returns.
            fail_calls=(0, 1, 2, 3, 4, 5, 9, 10),
            fallback=fallback,
        )
        _assert_rows_match_per_node(
            [_proposed_case(steered, 0), _proposed_case(trained_wam, 3)]
        )
        # 3 periods x 2 failed attempts, 10 quarantined periods with no
        # call, then 11 periods of one call each plus one retry.
        assert built[0].policy.calls == 6 + 11 + 1


# ----------------------------------------------------------------------
# Hypothesis properties
# ----------------------------------------------------------------------
def _tiny_cases(seed, n_nodes):
    """n heterogeneous eligible untrained cases on one tiny timeline."""
    tl = tiny_timeline(periods_per_day=3)
    variations = fleet_variations(
        seed,
        n_nodes,
        policies=tuple(p for p in BATCH_POLICIES if p != "proposed"),
    )
    return [
        _case_from_variation(var, random_trace(tl, seed + i))
        for i, var in enumerate(variations)
    ]


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.integers(0, 10_000), st.integers(2, 5), st.data())
def test_batch_split_invariance(seed, n_nodes, data):
    """Running {A,B,C} as one batch equals {A}+{B,C} merged."""
    cases = _tiny_cases(seed, n_nodes)
    cut = data.draw(st.integers(1, n_nodes - 1))
    whole = [result_fingerprint(r) for r in simulate_batch(cases)]
    split = [
        result_fingerprint(r)
        for part in (cases[:cut], cases[cut:])
        for r in simulate_batch(part)
    ]
    assert whole == split


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.integers(0, 10_000), st.integers(2, 5), st.randoms())
def test_batch_order_permutation_invariance(seed, n_nodes, rnd):
    """A node's result never depends on where it sits in the batch."""
    cases = _tiny_cases(seed, n_nodes)
    order = list(range(n_nodes))
    rnd.shuffle(order)
    base = [result_fingerprint(r) for r in simulate_batch(cases)]
    shuffled = simulate_batch([cases[i] for i in order])
    assert [result_fingerprint(r) for r in shuffled] == [
        base[i] for i in order
    ]


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.integers(0, 10_000), st.integers(1, 4))
def test_batched_rows_respect_physics_invariants(seed, n_nodes):
    """Per-row accounting on batched state: rates, signs, bounds."""
    cases = _tiny_cases(seed, n_nodes)
    for case, result in zip(cases, simulate_batch(cases)):
        v_full = max(c.v_full for c in case.capacitors)
        assert 0.0 <= result.dmr <= 1.0
        for rec in result.periods:
            assert 0.0 <= rec.dmr <= 1.0
            assert 0 <= rec.miss_count <= len(case.graph)
            assert rec.solar_energy >= 0.0
            assert rec.load_energy >= 0.0
            assert rec.leakage_energy >= -1e-12
            assert rec.charged_energy >= 0.0
            # Load splits exactly into its two supply channels.
            assert rec.load_energy == pytest.approx(
                rec.direct_energy + rec.storage_energy, abs=1e-9
            )
            assert 0 <= rec.brownout_slots <= (
                case.trace.timeline.slots_per_period
            )
            assert np.all(rec.start_voltages >= 0.0)
            assert np.all(rec.start_voltages <= v_full + 1e-12)


# ----------------------------------------------------------------------
# Teeth: the conformance wall must actually bite
# ----------------------------------------------------------------------
class TestOracleTeeth:
    def test_clean_oracle_passes(self):
        out = oracle_batch_vs_per_node(n_nodes=6, seed=0, label="clean")
        assert out.passed
        assert out.checked == 6
        assert not out.violations

    def test_corrupted_leak_row_names_the_node(self, monkeypatch):
        """An off-by-one planted in one batched leakage row must come
        back as a structured Violation naming that node."""
        import repro.sim.batch as batch_mod

        target_row = 2
        real = batch_mod._node_leak_row

        def corrupt(node_index, devices):
            row = real(node_index, devices)
            if node_index == target_row:
                row = [x * 1.5 + 1e-7 for x in row]
            return row

        monkeypatch.setattr(batch_mod, "_node_leak_row", corrupt)
        out = oracle_batch_vs_per_node(n_nodes=6, seed=0, label="teeth")
        assert not out.passed
        assert {v.details["node_id"] for v in out.violations} == {
            target_row
        }
        v = out.violations[0]
        assert "fingerprint" in v.details["differing_fields"]
        assert v.details["policy"]
        assert v.details["graph_kind"]

    def test_clean_proposed_oracle_passes(self):
        out = oracle_batch_vs_per_node(
            n_nodes=4, seed=0, label="proposed", policies=("proposed",)
        )
        assert out.passed
        assert out.checked == 4

    def test_corrupted_coarse_decision_names_the_node(self, monkeypatch):
        """One proposed row's task subset inverted in the batch path
        only: the oracle must name exactly that node."""
        import repro.sim.batch as batch_mod

        target_row = 1
        real = batch_mod._row_scheduler

        class Inverted(CoarsePolicy):
            def __init__(self, inner):
                self.inner = inner

            def decide(self, prev_solar, voltages, accumulated_dmr):
                cap, alpha, te = self.inner.decide(
                    prev_solar, voltages, accumulated_dmr
                )
                return cap, alpha, ~np.asarray(te, dtype=bool)

        def corrupt(row, trained):
            scheduler = real(row, trained)
            if row == target_row:
                scheduler.policy = Inverted(scheduler.policy)
            return scheduler

        monkeypatch.setattr(batch_mod, "_row_scheduler", corrupt)
        out = oracle_batch_vs_per_node(
            n_nodes=4, seed=0, label="teeth", policies=("proposed",)
        )
        assert not out.passed
        assert {v.details["node_id"] for v in out.violations} == {
            target_row
        }
        assert out.violations[0].details["policy"] == "proposed"


# ----------------------------------------------------------------------
# Fleet-level engine equivalence
# ----------------------------------------------------------------------
class TestFleetEngines:
    def test_engine_fingerprints_identical(self):
        spec = FleetSpec(n_nodes=24, seed=9)
        batch = FleetRunner(
            spec, workers=1, cache=False, engine="batch"
        ).run()
        per_node = FleetRunner(
            spec, workers=1, cache=False, engine="per-node"
        ).run()
        assert batch.fingerprint() == per_node.fingerprint()
        assert batch.config["engine"] == "batch"
        assert per_node.config["engine"] == "per-node"

    def test_wide_shard_memory_stays_flat(self):
        """A 256-node batched shard peaks below 12 KB traced per node.

        Period books are columnar and summarised node by node, and the
        weather is drawn straight into the engine's one solar array, so
        per-node record objects and trace copies never pile up.
        """
        fleet = FleetSpec(n_nodes=256, seed=0)
        base = fleet.base_trace()
        specs = fleet.node_specs()
        simulate_shard_batch(fleet, base, specs[:4])  # warm imports
        tracemalloc.start()
        try:
            summaries = simulate_shard_batch(fleet, base, specs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(summaries) == fleet.n_nodes
        assert peak / fleet.n_nodes < 12 * 1024, (
            f"{peak / fleet.n_nodes / 1024:.1f} KB per node"
        )

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            FleetRunner(FleetSpec(n_nodes=2, seed=0), engine="warp")
