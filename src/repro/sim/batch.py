"""Batched node-major engine core: one vectorized step per fleet shard.

The per-node :class:`~repro.sim.engine.SimulationEngine` advances one
node per Python slot iteration; fleets pay that Python overhead once
per node.  This module keeps the *same* simulation semantics but turns
the state into node-major numpy arrays shaped ``(n_nodes, ...)`` —
remaining work, deadline misses, bank voltages, NVP power states — so
one slot update advances every node of a shard simultaneously.

Bit-identity contract
---------------------
The batched engine is not "approximately" the per-node engine: every
floating-point operation is replayed elementwise in the same order, so
``result_fingerprint`` of a batched run equals the per-node run
byte-for-byte.  The layout decisions that make this work:

* **Task space vs position space.**  Runtime state (remaining, missed,
  started) lives in original task order; the static priority order the
  schedulers use — sorted by ``(deadline_slot, index)`` — is a
  precomputed per-node permutation, applied through a precomputed
  row-index/permutation fancy-index pair.
  Padded task slots (heterogeneous graph sizes) complete the
  permutation bijectively so scatters are exact.
* **Sequential masked sums.**  ``np.sum`` uses pairwise accumulation,
  which is *not* the left-to-right order of the scalar engine's
  ``sum(...)``; load powers are therefore accumulated with
  ``np.add.accumulate`` along the (≤ :data:`MAX_BATCH_TASKS`) position
  columns and leakage losses with an explicit loop over the bank
  columns, adding a masked ``0.0`` where a node did not choose the
  task — exact, because ``x + 0.0`` is ``x`` for every non-negative
  ``x``.
* **One capacitor kernel.**  Charge, discharge and leak run through
  :class:`~repro.energy.kernel.BankRows` with one row per node — the
  same row kernel capacitor sizing uses — which replays
  :class:`~repro.energy.capacitor.CapacitorState` elementwise (masked
  4-substep recurrences, Python ``**`` for the leakage power).
* **Per-node Python only off the hot path.**  WCMA prediction and
  energy admission (inter-task rows) run per node once per *period*;
  the ``random`` policy keeps its per-node ``Generator`` draw loop so
  the consumed stream is identical.
* **The paper's scheduler keeps its own coarse stage.**  Each
  ``proposed`` row owns a :class:`~repro.core.online.ProposedScheduler`
  whose ``on_period_start`` runs once per period on a
  :class:`~repro.sim.views.PeriodStartView` built from the row's state
  (the DBN forward pass and the degradation ladder are therefore the
  per-node code itself).  Its ``request_capacitor`` applies Eq. (22)
  to the row and moves the row's active column
  (:meth:`~repro.energy.kernel.BankRows.select`).  The selected subset
  becomes the row's admission mask; per slot, rows with
  ``|1 - α| <= δ`` join the intra-task combo kernel and the others
  take the lazy inter-task pass, a greedy loop over positions.

Eligibility: :func:`batch_ineligibility` names why a case cannot take
the batched path (unsupported policy — only ``dvfs`` today —, too many
tasks for the exact subset-enumeration table, a fault injector).
``proposed`` cases must also carry their trained policy
(:attr:`BatchCase.trained`).  :func:`simulate_cases` dispatches —
batched where possible, the per-node engine otherwise — so callers get
one uniform entry point.
"""

from __future__ import annotations

import dataclasses
from itertools import combinations
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..energy.capacitor import SuperCapacitor
from ..energy.kernel import BankRows, device_leak_row
from ..schedulers.lsa import admit_by_energy
from ..solar.prediction import WCMAPredictor
from ..solar.trace import SolarTrace
from ..tasks.graph import TaskGraph
from ..timeline import Timeline
from .recorder import PeriodRecord, SimulationResult
from .state import COMPLETION_EPS
from .views import BankView, PeriodStartView

__all__ = [
    "BATCH_POLICIES",
    "MAX_BATCH_TASKS",
    "BatchCase",
    "BatchResults",
    "batch_ineligibility",
    "simulate_batch",
    "simulate_cases",
]

#: Policies the batched core implements (same decision rules as the
#: per-node schedulers of the fleet pool; ``dvfs`` is not batched).
BATCH_POLICIES: Tuple[str, ...] = (
    "asap",
    "inter-task",
    "intra-task",
    "random",
    "proposed",
)

#: Largest task count the batched intra-task subset table enumerates —
#: the same bound as ``best_power_match(max_exact=12)``.
MAX_BATCH_TASKS = 12

#: Batched policy name -> scheduler ``name`` recorded on results.
_SCHEDULER_NAMES = {
    "asap": "asap-edf",
    "inter-task": "inter-task-lsa",
    "intra-task": "intra-task",
    "random": "random",
}


@dataclasses.dataclass(eq=False)
class BatchCase:
    """One node's configuration for a batched run.

    Defaults mirror what :func:`repro.fleet.runner.simulate_node`
    builds: a :class:`~repro.node.node.SensorNode` with default panel,
    PMU and NVPs — only the pieces that vary across a fleet (graph,
    weather, bank sizes, policy, seed) are parameters here.  A
    ``proposed`` case carries its
    :class:`~repro.core.offline.TrainedPolicy` in :attr:`trained`,
    whose capacitors are the case's bank.
    """

    graph: TaskGraph
    #: The node's weather, or a zero-argument callable that draws it.
    #: The batched engine draws a callable straight into its solar
    #: array and keeps no per-node copy.
    trace: Union[SolarTrace, Callable[[], SolarTrace]]
    capacitors: Tuple[SuperCapacitor, ...]
    policy: str
    scheduler_seed: int = 0
    #: Present only so dispatchers can carry fault-scenario cases; a
    #: non-None injector always routes to the per-node engine.
    fault_injector: object = None
    #: The trained policy of a ``proposed`` case: its switch threshold
    #: ``E_th`` and ``make_scheduler()`` drive the row.
    trained: object = None

    def solar_trace(self) -> SolarTrace:
        """The node's weather, drawn now if :attr:`trace` is a callable."""
        return self.trace() if callable(self.trace) else self.trace


def batch_ineligibility(
    policy: str,
    graph: Optional[TaskGraph],
    fault_injector: object = None,
) -> Optional[str]:
    """Why a case cannot take the batched path; ``None`` when it can."""
    if policy not in BATCH_POLICIES:
        return f"policy {policy!r} not batched"
    if fault_injector is not None:
        return "fault injection is per-node"
    if graph is not None and len(graph) > MAX_BATCH_TASKS:
        return f"{len(graph)} tasks exceeds MAX_BATCH_TASKS"
    return None


#: Leakage-row hook of the batch's :class:`BankRows`, looked up when a
#: batch is built, so the conformance suite can plant a deliberate
#: corruption in a single node's leakage row and prove the
#: batched-vs-per-node oracle pinpoints that node.
_node_leak_row = device_leak_row


def _row_scheduler(row: int, trained):
    """The scheduler of batch row ``row`` of a trained policy.

    Looked up when a batch is built, like :data:`_node_leak_row`, so
    the conformance suite can corrupt a single row's coarse decision.
    """
    return trained.make_scheduler()


def simulate_batch(cases: Sequence[BatchCase]) -> Sequence[SimulationResult]:
    """Simulate every case in one node-major batch; results in order.

    Every case must be batch-eligible (see :func:`batch_ineligibility`)
    and share one timeline; use :func:`simulate_cases` for transparent
    per-node fallback.  The results are a :class:`BatchResults`: each
    node's :class:`SimulationResult` is built from the batch's columnar
    books when it is read, so iterating keeps one node's period
    records alive at a time (``list(...)`` them to keep every node's).
    """
    cases = list(cases)
    if not cases:
        return []
    for i, case in enumerate(cases):
        reason = batch_ineligibility(
            case.policy, case.graph, case.fault_injector
        )
        if case.policy == "proposed" and case.trained is None:
            reason = "policy 'proposed' needs a trained policy"
        if reason is not None:
            raise ValueError(f"case {i} is not batch-eligible: {reason}")
    return _BatchEngine(cases).run()


def simulate_cases(cases: Sequence[BatchCase]) -> List[SimulationResult]:
    """Batch the eligible cases, per-node the rest; results in order."""
    cases = list(cases)
    eligible = [
        i for i, c in enumerate(cases)
        if batch_ineligibility(c.policy, c.graph, c.fault_injector) is None
    ]
    results: Dict[int, SimulationResult] = dict(
        zip(eligible, simulate_batch([cases[i] for i in eligible]))
    )
    return [
        results[i] if i in results else _simulate_per_node(case)
        for i, case in enumerate(cases)
    ]


def _simulate_per_node(case: BatchCase) -> SimulationResult:
    """Per-node reference path for ineligible cases (and the oracle)."""
    from ..node.node import SensorNode
    from ..schedulers import (
        DVFSLoadMatchingScheduler,
        GreedyEDFScheduler,
        InterTaskScheduler,
        IntraTaskScheduler,
        RandomScheduler,
    )
    from .engine import simulate

    makers = {
        "asap": lambda: GreedyEDFScheduler(),
        "inter-task": lambda: InterTaskScheduler(),
        "intra-task": lambda: IntraTaskScheduler(),
        "dvfs": lambda: DVFSLoadMatchingScheduler(),
        "random": lambda: RandomScheduler(case.scheduler_seed),
        "proposed": lambda: case.trained.make_scheduler(),
    }
    if case.policy not in makers:
        raise ValueError(f"unknown batch policy {case.policy!r}")
    node_kwargs = {}
    if case.trained is not None:
        node_kwargs["switch_threshold"] = case.trained.switch_threshold
    node = SensorNode(
        list(case.capacitors), num_nvps=case.graph.num_nvps, **node_kwargs
    )
    return simulate(
        node,
        case.graph,
        case.solar_trace(),
        makers[case.policy](),
        strict=False,
        fault_injector=case.fault_injector,
    )


# ----------------------------------------------------------------------
# Columnar period books
# ----------------------------------------------------------------------
#: The float books of a :class:`PeriodRecord`, in the engine's
#: accumulation order (the last axis of :attr:`BatchResults.energy`).
_ENERGY_FIELDS = (
    "solar_energy",
    "load_energy",
    "direct_energy",
    "storage_energy",
    "charged_energy",
    "offered_surplus",
    "leakage_energy",
)


class BatchResults(Sequence[SimulationResult]):
    """The period books of one batch, stored node-major.

    The engine writes each period's books for every node into
    preallocated arrays — ``miss_count``/``brownouts``/``active_index``
    ``(n, periods)``, ``energy`` ``(n, periods, 7)``
    (:data:`_ENERGY_FIELDS`), ``executed`` ``(n, periods, t_max)`` and
    ``start_voltages`` ``(n, periods, c_max)`` — instead of one
    :class:`PeriodRecord` per
    node and period.  Indexing builds that node's
    :class:`SimulationResult` from its row, so a consumer iterating
    node by node keeps one node's record objects alive at a time.
    The rebuilt records are field-for-field what the per-node engine
    records, so :func:`~repro.sim.checkpoint.result_fingerprint` is
    unchanged.
    """

    def __init__(
        self,
        timeline: Timeline,
        scheduler_names: List[str],
        t_ns: List[int],
        c_ns: List[int],
        active: List[int],
    ) -> None:
        n, periods = len(scheduler_names), timeline.total_periods
        self.timeline = timeline
        self._names = scheduler_names
        self._t_ns = t_ns
        self._c_ns = c_ns
        self._day_period = [
            timeline.unflatten_period(p) for p in range(periods)
        ]
        self.miss_count = np.zeros((n, periods), dtype=np.int32)
        self.brownouts = np.zeros((n, periods), dtype=np.int32)
        self.energy = np.zeros((n, periods, len(_ENERGY_FIELDS)))
        self.executed = np.zeros((n, periods, max(t_ns)), dtype=bool)
        self.start_voltages = np.zeros((n, periods, max(c_ns)))
        #: Each period's active capacitor after the coarse hook; rows
        #: that never switch keep their initial column throughout.
        self.active_index = np.repeat(
            np.asarray(active, dtype=np.int16)[:, None], periods, axis=1
        )

    def record_period(
        self,
        flat_p: int,
        miss_count: np.ndarray,
        executed: np.ndarray,
        energies: Sequence[np.ndarray],
        brownouts: np.ndarray,
    ) -> None:
        """Store one finished period's books for every node."""
        self.miss_count[:, flat_p] = miss_count
        self.executed[:, flat_p] = executed
        for k, column in enumerate(energies):
            self.energy[:, flat_p, k] = column
        self.brownouts[:, flat_p] = brownouts

    def __len__(self) -> int:
        return len(self._names)

    def __getitem__(self, row: int) -> SimulationResult:
        n = len(self)
        if not -n <= row < n:
            raise IndexError(f"batch row {row} out of range [0, {n})")
        row %= n
        t_n, c_n = self._t_ns[row], self._c_ns[row]
        executed = self.executed[row, :, :t_n]
        volts = self.start_voltages[row, :, :c_n]
        records = [
            PeriodRecord(
                day=day,
                period=period,
                dmr=misses / t_n,
                miss_count=misses,
                executed=executed[p].copy(),
                **dict(zip(_ENERGY_FIELDS, energies)),
                brownout_slots=brown,
                start_voltages=volts[p].copy(),
                active_index=active,
            )
            for p, ((day, period), misses, energies, brown, active) in (
                enumerate(
                    zip(
                        self._day_period,
                        self.miss_count[row].tolist(),
                        self.energy[row].tolist(),
                        self.brownouts[row].tolist(),
                        self.active_index[row].tolist(),
                    )
                )
            )
        ]
        return SimulationResult(self.timeline, self._names[row], records)


# ----------------------------------------------------------------------
# The paper's coarse stage, one row at a time
# ----------------------------------------------------------------------
class _ProposedRow:
    """A ``proposed`` row's scheduler and its PMU-side switch rule.

    :meth:`start_period` hands the scheduler the
    :class:`PeriodStartView` the per-node engine would build, and
    :meth:`request` replays ``PMU.request_capacitor`` (Eq. 22) on the
    row's voltages, so the coarse stage's float sequence is the
    per-node one.  A granted switch is left in :attr:`switch_to` for
    the engine to apply to the bank.
    """

    def __init__(
        self, row: int, scheduler, devices, threshold: float
    ) -> None:
        if threshold < 0:
            raise ValueError(
                f"switch_threshold must be >= 0, got {threshold}"
            )
        self.row = row
        self.scheduler = scheduler
        self.devices = tuple(devices)
        self.threshold = threshold
        caps = np.array([d.capacitance for d in self.devices])
        caps.setflags(write=False)
        self.capacitances = caps
        self.cutoff = np.array(
            [0.5 * d.capacitance * d.v_cutoff * d.v_cutoff for d in devices]
        )
        #: The node's bank starts on capacitor 0, as ``CapacitorBank``.
        self.active = 0
        self.switch_to: Optional[int] = None
        self.dmr_sum = 0.0
        self._volts: Optional[np.ndarray] = None

    def start_period(
        self,
        timeline: Timeline,
        graph: TaskGraph,
        flat_p: int,
        volts: np.ndarray,
        last_energy: Optional[float],
        last_powers: Optional[np.ndarray],
    ) -> None:
        """Run the scheduler's coarse hook for period ``flat_p``."""
        self._volts = volts
        self.switch_to = None
        stored = 0.5 * self.capacitances * volts * volts
        day, period = timeline.unflatten_period(flat_p)
        self.scheduler.on_period_start(
            PeriodStartView(
                timeline=timeline,
                graph=graph,
                day=day,
                period=period,
                bank=BankView(
                    capacitances=self.capacitances,
                    voltages=volts,
                    usable_energies=np.maximum(stored - self.cutoff, 0.0),
                    active_index=self.active,
                ),
                accumulated_dmr=self.dmr_sum / flat_p if flat_p else 0.0,
                last_period_energy=last_energy,
                last_period_powers=last_powers,
                request_capacitor=self.request,
                force_capacitor=self.force,
            )
        )
        if self.switch_to is not None:
            self.active = self.switch_to

    def request(self, index: int) -> bool:
        """Eq. (22): switch only while the active usable energy is
        below ``E_th``; True if ``index`` is now active."""
        current = self.active if self.switch_to is None else self.switch_to
        if index == current:
            return True
        dev = self.devices[current]
        usable = max(
            dev.energy_at(float(self._volts[current]))
            - dev.energy_at(dev.v_cutoff),
            0.0,
        )
        if usable < self.threshold:
            self.force(index)
            return True
        return False

    def force(self, index: int) -> None:
        """Unconditional switch (``PMU.force_capacitor``)."""
        if not 0 <= index < len(self.devices):
            raise IndexError(
                f"index {index} out of range [0, {len(self.devices)})"
            )
        self.switch_to = index


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class _BatchEngine:
    """Node-major state and the vectorized slot update."""

    def __init__(self, cases: List[BatchCase]) -> None:
        self.cases = cases
        self.n = len(cases)
        self._rows = np.arange(self.n)
        self._setup_solar()
        self._setup_tasks()
        self._setup_bank()
        self._setup_policies()

    def _setup_solar(self) -> None:
        """The ``(n, total_periods, slots)`` solar powers, one gather
        per slot.

        Each node's trace is drawn (when a case carries a factory) and
        copied into its row in turn, so the batch holds the weather
        once, not once per node plus once stacked.
        """
        first = self.cases[0].solar_trace()
        tl = first.timeline
        self.tl = tl
        self._solar = np.empty(
            (self.n, tl.total_periods, tl.slots_per_period)
        )
        for i, case in enumerate(self.cases):
            trace = first if i == 0 else case.solar_trace()
            if trace.timeline != tl:
                raise ValueError(
                    f"case {i} timeline differs from case 0; a batch "
                    "shares one timeline"
                )
            self._solar[i] = trace.power.reshape(
                tl.total_periods, tl.slots_per_period
            )

    # ------------------------------------------------------------------
    def _setup_tasks(self) -> None:
        """Task-space constants and the priority-order permutation."""
        tl, n = self.tl, self.n
        graphs = [case.graph for case in self.cases]
        self.graphs = graphs
        self.t_ns = [len(g) for g in graphs]
        t_max = max(self.t_ns)
        self.t_max = t_max
        self.valid = np.zeros((n, t_max), dtype=bool)
        self.exec0 = np.zeros((n, t_max))
        powers = np.zeros((n, t_max))
        dls = np.full((n, t_max), -1, dtype=np.int64)
        nvp = np.zeros((n, t_max), dtype=np.int64)
        pred = np.zeros((n, t_max, t_max), dtype=bool)
        desc = np.zeros((n, t_max, t_max), dtype=bool)
        perm = np.zeros((n, t_max), dtype=np.int64)
        self.powers_list: List[List[float]] = []
        for row, g in enumerate(graphs):
            t_n = self.t_ns[row]
            self.valid[row, :t_n] = True
            self.exec0[row, :t_n] = [t.execution_time for t in g.tasks]
            task_powers = [t.power for t in g.tasks]
            self.powers_list.append(task_powers)
            powers[row, :t_n] = task_powers
            row_dls = [tl.deadline_slot(t.deadline) for t in g.tasks]
            dls[row, :t_n] = row_dls
            for i in range(t_n):
                nvp[row, i] = g.nvp_of(i)
                for p in g.predecessors(i):
                    pred[row, i, p] = True
                for d in g.descendants(i):
                    desc[row, i, d] = True
            order = sorted(range(t_n), key=lambda i: (row_dls[i], i))
            perm[row, :t_n] = order
            perm[row, t_n:] = np.arange(t_n, t_max)
        self.powers = powers
        self.dls = dls
        self.nvp = nvp
        self.pred = pred
        self.desc = desc
        self.perm = perm
        # Static priority-position views of the per-task constants.
        self.powers_pos = np.take_along_axis(powers, perm, axis=1)
        self.dls_pos = np.take_along_axis(dls, perm, axis=1)
        nvp_pos = np.take_along_axis(nvp, perm, axis=1)
        self._pos_range = np.arange(t_max)
        # nvp_before[i, p, q]: position q precedes p on p's NVP.
        self.nvp_before = (nvp_pos[:, None, :] == nvp_pos[:, :, None]) & (
            self._pos_range[None, :] < self._pos_range[:, None]
        )
        self._pos_bits = (1 << self._pos_range).astype(np.int16)
        # Fancy-index pair equivalent to take/put_along_axis(perm) but
        # without rebuilding the index tuple every slot.
        self._gather_rows = self._rows[:, None]
        self.k_max = max(g.num_nvps for g in graphs)
        # nvp_onehot[i, t, k]: task t of row i runs on NVP k.
        self.nvp_onehot = self.valid[:, :, None] & (
            nvp[:, :, None] == np.arange(self.k_max)
        )
        # cycle_cost accumulates 3e-6 per transitioned NVP by repeated
        # addition in the scalar engine; precompute that prefix sum the
        # same way so k transitions index the identical float.
        costs = [0.0]
        for _ in range(self.k_max):
            costs.append(costs[-1] + 3.0e-6)
        self._cycle_table = np.array(costs)

    def _setup_bank(self) -> None:
        """Bank constants, padded column-wise, and each row's active column.

        Baseline policies pin the largest capacitor at the first period
        and never switch (``StaticLargestCapacitorMixin``); the random
        policy never selects at all.  Their active column is fixed
        here, so they pay nothing per slot for switching.  ``proposed``
        rows start on capacitor 0 and move at period starts under
        Eq. (22) (:meth:`~repro.energy.kernel.BankRows.select`).
        """
        banks = [list(case.capacitors) for case in self.cases]
        self.c_ns = [len(b) for b in banks]
        active = [
            0
            if case.policy in ("random", "proposed")
            else int(np.array([d.capacitance for d in devices]).argmax())
            for case, devices in zip(self.cases, banks)
        ]
        self.bank = BankRows(banks, active, leak_row=_node_leak_row)

    def _setup_policies(self) -> None:
        """Policy row groups plus the intra-task subset table."""
        policies = [case.policy for case in self.cases]
        self.is_asap = np.array([p == "asap" for p in policies])
        self.is_lsa = np.array([p == "inter-task" for p in policies])
        self.is_intra = np.array([p == "intra-task" for p in policies])
        self.is_proposed = np.array([p == "proposed" for p in policies])
        self.idx_lsa = np.flatnonzero(self.is_lsa)
        self.idx_intra = np.flatnonzero(self.is_intra)
        self.idx_proposed = np.flatnonzero(self.is_proposed)
        self.idx_random = np.flatnonzero(
            np.array([p == "random" for p in policies])
        )
        self.proposed: List[_ProposedRow] = []
        for i in self.idx_proposed.tolist():
            case = self.cases[i]
            scheduler = _row_scheduler(i, case.trained)
            scheduler.bind(self.tl, case.graph)
            self.proposed.append(
                _ProposedRow(
                    i, scheduler, case.capacitors,
                    case.trained.switch_threshold,
                )
            )
        self.names = [
            _SCHEDULER_NAMES.get(case.policy) for case in self.cases
        ]
        for row in self.proposed:
            self.names[row.row] = row.scheduler.name
        # One persistent generator per random node: the stream carries
        # across slots and periods exactly like RandomScheduler's.
        # (row, bound rng.random, nvp list, power list) tuples keep the
        # per-slot Python loop free of attribute lookups.
        self.random_rows = [
            (
                int(i),
                np.random.default_rng(
                    self.cases[i].scheduler_seed
                ).random,
                self.nvp[i].tolist(),
                self.powers_list[i],
            )
            for i in self.idx_random
        ]
        # Intra-task rows enumerate nonempty position subsets the way
        # best_power_match does: sizes ascending, lexicographic within
        # a size.  Restricting the table to the current optional set
        # (bitmask inclusion) visits the same combinations in the same
        # order, because relabeling optional positions is monotone.
        # Proposed rows get table rows too; a period in intra mode
        # uses them.
        self.idx_combo = np.flatnonzero(self.is_intra | self.is_proposed)
        if self.idx_combo.size:
            t_combo = max(self.t_ns[i] for i in self.idx_combo)
            combos = [
                combo
                for r in range(1, t_combo + 1)
                for combo in combinations(range(t_combo), r)
            ]
            # int16 holds every MAX_BATCH_TASKS-bit mask and keeps the
            # per-slot (intra rows, combos) availability temporary small.
            self.combo_bits = np.array(
                [sum(1 << p for p in combo) for combo in combos],
                dtype=np.int16,
            )
            # Power sums are static per node: accumulate each combo in
            # ascending position order like the scalar sum(...) does.
            pos = self.powers_pos[self.idx_combo]
            sums = np.zeros((self.idx_combo.size, len(combos)))
            for j, combo in enumerate(combos):
                acc = pos[:, combo[0]].copy()
                for p in combo[1:]:
                    acc = acc + pos[:, p]
                sums[:, j] = acc
            self.combo_sums = sums
        self.predictors = {
            int(i): WCMAPredictor(self.tl) for i in self.idx_lsa
        }

    # ------------------------------------------------------------------
    def run(self) -> "BatchResults":
        tl = self.tl
        n, t_max, k_max = self.n, self.t_max, self.k_max
        dt = tl.slot_seconds
        slots = tl.slots_per_period
        perm = self.perm
        powers_pos = self.powers_pos
        has_lsa = self.idx_lsa.size > 0
        has_random = self.idx_random.size > 0
        has_proposed = self.idx_proposed.size > 0
        has_admission = has_lsa or has_proposed

        bank = self.bank
        v = bank.v0.copy()
        powered = np.ones((n, k_max), dtype=bool)
        # Admission filter: everything admitted except what the LSA
        # rows restrict per period (cold-start admits the full set)
        # and the proposed rows' coarse subsets.
        admitted = np.ones((n, t_max), dtype=bool)
        books = BatchResults(
            tl, self.names, self.t_ns, self.c_ns, bank.active.tolist()
        )
        # Rows of the intra-task combo kernel and of the lazy inter-task
        # pass; static unless proposed rows pick a mode per period.
        combo_idx = self.idx_combo
        run_combo = combo_idx.size > 0
        if run_combo:
            combo_sums = self.combo_sums
            combo_powers = powers_pos[combo_idx]
        run_lazy = False
        solar_e = None

        for flat_p in range(tl.total_periods):
            day, period = tl.unflatten_period(flat_p)
            if has_lsa and flat_p > 0:
                self._admit_lsa(day, period, v, admitted)
            if has_proposed:
                intra = self._coarse_proposed(flat_p, v, admitted, solar_e)
                keep = (self.is_intra | intra)[self.idx_combo]
                combo_idx = self.idx_combo[keep]
                combo_sums = self.combo_sums[keep]
                combo_powers = powers_pos[combo_idx]
                run_combo = combo_idx.size > 0
                lazy_idx = np.flatnonzero(self.is_proposed & ~intra)
                lazy_powers = powers_pos[lazy_idx]
                run_lazy = lazy_idx.size > 0
                books.active_index[:, flat_p] = bank.active
            if run_combo:
                combo_rows = np.arange(combo_idx.size)
            if has_admission:
                admitted_pos = admitted[self._gather_rows, perm]
            books.start_voltages[:, flat_p] = v
            remaining = self.exec0.copy()
            missed = np.zeros((n, t_max), dtype=bool)
            started = np.zeros((n, t_max), dtype=bool)
            solar_e = np.zeros(n)
            load_e = np.zeros(n)
            direct_e = np.zeros(n)
            storage_e = np.zeros(n)
            charged_e = np.zeros(n)
            offered_e = np.zeros(n)
            leak_e = np.zeros(n)
            brownouts = np.zeros(n, dtype=np.int64)
            solar_period = self._solar[:, flat_p, :]

            for slot in range(slots):
                # Deadline check at slot start, with the dependence
                # cascade (descendants of an incomplete missed task).
                done = remaining <= COMPLETION_EPS
                live = ~(done | missed)
                newly = (self.dls == slot) & live
                if newly.any():
                    cascade = (
                        (newly[:, :, None] & self.desc).any(axis=1) & live
                    )
                    missed |= newly | cascade
                    live &= ~missed
                blocked = (self.pred & ~done[:, None, :]).any(axis=2)
                # Padded positions have deadline slot -1: never open.
                ready = live & (slot < self.dls) & ~blocked
                solar_vec = solar_period[:, slot]

                # Priority-position gathers + slack (must-run) test.
                gr = self._gather_rows
                ready_pos = ready[gr, perm]
                rem_pos = remaining[gr, perm]
                work_slots = -np.floor_divide(-rem_pos, dt)
                must = (self.dls_pos - slot) - work_slots <= 0.0

                # First-claim-wins NVP filter in priority order: a
                # candidate loses its NVP to any earlier candidate on
                # the same NVP (which runs, or lost to one that does).
                cand = ready_pos & admitted_pos if has_admission else ready_pos
                per_nvp = cand & ~(
                    cand[:, None, :] & self.nvp_before
                ).any(axis=2)
                # The sequential load sums every policy reuses:
                # ``total_load`` adds the whole claimed queue position
                # by position and ``mand_load`` its must-run
                # subsequence.  ``add.accumulate`` adds left to right —
                # exactly the scalar ``sum(...)`` order (unlike the
                # pairwise ``np.sum``); unclaimed positions add ``0.0``.
                col_power = np.where(per_nvp, powers_pos, 0.0)
                total_load = np.add.accumulate(col_power, axis=1)[:, -1]
                mand_load = np.add.accumulate(
                    np.where(must, col_power, 0.0), axis=1
                )[:, -1]

                # Policy decisions (position space).  The sequential
                # sums above equal the scalar engine's load for every
                # single-segment decision (asap queue, LSA queue or
                # mandatory subset); intra-task and proposed rows extend
                # mand_load with their picked positions, in order, below.
                chosen_pos = per_nvp & self.is_asap[:, None]
                load = np.where(self.is_asap, total_load, 0.0)
                if has_lsa:
                    mand = per_nvp & must
                    run_all = total_load <= solar_vec + 1e-12
                    lsa_choice = np.where(
                        run_all[:, None], per_nvp, mand
                    )
                    chosen_pos |= lsa_choice & self.is_lsa[:, None]
                    load = np.where(
                        self.is_lsa,
                        np.where(run_all, total_load, mand_load),
                        load,
                    )
                if run_combo or run_lazy:
                    optional = per_nvp & ~must
                if run_combo:
                    c_mand = mand_load[combo_idx]
                    budget = np.maximum(solar_vec[combo_idx] - c_mand, 0.0)
                    ob = np.where(
                        optional[combo_idx], self._pos_bits, np.int16(0)
                    ).sum(axis=1, dtype=np.int16)
                    affordable = combo_sums <= (budget + 1e-12)[:, None]
                    available = (
                        self.combo_bits[None, :] & ~ob[:, None]
                    ) == 0
                    vals = np.where(
                        available & affordable, combo_sums, -1.0
                    )
                    best = vals.argmax(axis=1)
                    best_val = vals[combo_rows, best]
                    picked_bits = np.where(
                        best_val > 0.0, self.combo_bits[best], 0
                    )
                    picked = (
                        (picked_bits[:, None] >> self._pos_range) & 1
                    ).astype(bool)
                    # mand_load, then the picked positions in order.
                    intra_load = np.add.accumulate(
                        np.concatenate(
                            (
                                c_mand[:, None],
                                np.where(picked, combo_powers, 0.0),
                            ),
                            axis=1,
                        ),
                        axis=1,
                    )[:, -1]
                    chosen_pos[combo_idx] |= (
                        per_nvp[combo_idx] & must[combo_idx]
                    ) | picked
                    load[combo_idx] = intra_load
                if run_lazy:
                    # fine_grained_decision's lazy pass: must-run tasks,
                    # then each optional one in priority order while
                    # current solar still covers the running load.
                    opt = optional[lazy_idx]
                    lazy_load = mand_load[lazy_idx]
                    taken = per_nvp[lazy_idx] & must[lazy_idx]
                    cover = solar_vec[lazy_idx] + 1e-12
                    for p in np.flatnonzero(opt.any(axis=0)).tolist():
                        with_p = lazy_load + lazy_powers[:, p]
                        take = opt[:, p] & (with_p <= cover)
                        lazy_load = np.where(take, with_p, lazy_load)
                        taken[:, p] |= take
                    chosen_pos[lazy_idx] |= taken
                    load[lazy_idx] = lazy_load
                chosen = np.zeros((n, t_max), dtype=bool)
                chosen[gr, perm] = chosen_pos

                if has_random:
                    self._decide_random(ready, chosen, load)

                # PMU routing: the three supply_slot branches as masks.
                usable_solar = solar_vec * 0.98
                b1 = load <= 0.0
                b2 = ~b1 & (usable_solar >= load)
                b3 = ~(b1 | b2)
                needed = (load - usable_solar) * dt
                delivered = bank.discharge(v, b3, needed)
                fraction = np.minimum(
                    delivered / np.where(b3, needed, 1.0), 1.0
                )
                run_fraction = np.where(b3, fraction, 1.0)
                offered_idle = usable_solar * ((1.0 - fraction) * dt)
                energy_in = np.where(
                    b1,
                    usable_solar * dt,
                    np.where(
                        b2, (usable_solar - load) * dt, offered_idle
                    ),
                )
                # Branches 1/2 always charge (even zero input: the
                # below-v_stop sqrt round-trip must still happen);
                # branch 3 charges only when idle surplus is positive.
                do_charge = b1 | b2 | (b3 & (offered_idle > 0.0))
                charged = bank.charge(v, do_charge, energy_in)
                direct = np.where(
                    b1,
                    0.0,
                    np.where(
                        b2, load * dt, usable_solar * fraction * dt
                    ),
                )
                storage = np.where(b3, delivered, 0.0)

                # Task progress (chosen tasks are never missed).
                progressed = run_fraction * dt
                remaining = np.where(
                    chosen,
                    np.maximum(remaining - progressed[:, None], 0.0),
                    remaining,
                )
                started |= chosen

                # NVP nonvolatility bookkeeping.
                chosen_any = chosen.any(axis=1)
                brown = (run_fraction < 1.0 - 1e-9) & chosen_any
                active_nvp = (chosen[:, :, None] & self.nvp_onehot).any(
                    axis=1
                )
                n_changed = np.where(
                    brown,
                    (active_nvp & powered).sum(axis=1),
                    (active_nvp & ~powered).sum(axis=1),
                )
                powered = np.where(
                    brown[:, None],
                    powered & ~active_nvp,
                    powered | active_nvp,
                )
                cycle_cost = self._cycle_table[n_changed]
                cmask = cycle_cost > 0.0
                if cmask.any():
                    bank.discharge(v, cmask, cycle_cost)
                brownouts += brown

                lost = bank.leak(v, dt)

                solar_e = solar_e + solar_vec * dt
                load_e = load_e + (direct + storage)
                direct_e = direct_e + direct
                storage_e = storage_e + storage
                charged_e = charged_e + charged
                offered_e = offered_e + energy_in
                leak_e = leak_e + lost

            # End of period: boundary deadline check + final sweep both
            # collapse to "every incomplete valid task is missed".
            missed |= self.valid & ~(remaining <= COMPLETION_EPS)
            miss_count = missed.sum(axis=1)
            if has_proposed:
                misses = miss_count.tolist()
                for row in self.proposed:
                    row.dmr_sum += misses[row.row] / self.t_ns[row.row]
            books.record_period(
                flat_p,
                miss_count,
                started,
                (
                    solar_e, load_e, direct_e, storage_e,
                    charged_e, offered_e, leak_e,
                ),
                brownouts,
            )
            for i in self.idx_lsa:
                self.predictors[int(i)].observe(
                    day, period, float(solar_e[i])
                )

        return books

    # ------------------------------------------------------------------
    def _coarse_proposed(
        self,
        flat_p: int,
        v: np.ndarray,
        admitted: np.ndarray,
        last_solar_e: Optional[np.ndarray],
    ) -> np.ndarray:
        """Each proposed row's coarse hook; returns the intra-mode mask.

        Writes each row's selected subset into ``admitted`` and applies
        the granted capacitor switches to the bank.
        """
        intra = np.zeros(self.n, dtype=bool)
        switched: List[Tuple[int, int]] = []
        for row in self.proposed:
            i = row.row
            t_n = self.t_ns[i]
            before = row.active
            row.start_period(
                self.tl,
                self.graphs[i],
                flat_p,
                v[i, : self.c_ns[i]].copy(),
                None if flat_p == 0 else float(last_solar_e[i]),
                None if flat_p == 0 else self._solar[i, flat_p - 1].copy(),
            )
            if row.active != before:
                switched.append((i, row.active))
            row_adm = np.zeros(self.t_max, dtype=bool)
            row_adm[list(row.scheduler.selected)] = True
            row_adm[t_n:] = True
            admitted[i] = row_adm
            intra[i] = row.scheduler.intra_mode
        if switched:
            rows, cols = zip(*switched)
            self.bank.select(rows, cols)
        return intra

    def _admit_lsa(
        self, day: int, period: int, v: np.ndarray, admitted: np.ndarray
    ) -> None:
        """Per-period WCMA admission for the inter-task rows.

        Cheap per-node Python (once per period, not per slot) so the
        real predictor and admission code run unchanged — their float
        sequences are part of the bit-identity contract.
        """
        bank = self.bank
        v_a = v[bank.rows, bank.active]
        stored_a = 0.5 * bank.c * v_a * v_a
        usable_a = np.maximum(stored_a - bank.e_cutoff, 0.0)
        for i in self.idx_lsa:
            i = int(i)
            predicted = self.predictors[i].predict(day, period)
            budget = predicted + 0.7 * float(usable_a[i])
            adm = admit_by_energy(self.graphs[i], budget, margin=1.0)
            # A new period replaces the previous admission set; padded
            # positions stay admitted (they are never ready anyway).
            row_adm = np.zeros(self.t_max, dtype=bool)
            for t in adm:
                row_adm[t] = True
            row_adm[self.t_ns[i]:] = True
            admitted[i] = row_adm

    def _decide_random(
        self, ready: np.ndarray, chosen: np.ndarray, load: np.ndarray
    ) -> None:
        """Per-node random draws, preserving each node's RNG stream.

        RandomScheduler draws once per ready task (ascending task
        order, *before* the NVP-availability check), so the consumed
        stream depends only on the ready set — replayed verbatim here.
        """
        ready_rows = ready[self.idx_random].tolist()
        for (i, draw, nvps, powers), ready_row in zip(
            self.random_rows, ready_rows
        ):
            chosen_tasks: List[int] = []
            used = 0
            for t, is_ready in enumerate(ready_row):
                if is_ready and draw() < 0.5:
                    k = nvps[t]
                    if not used >> k & 1:
                        used |= 1 << k
                        chosen_tasks.append(t)
            if chosen_tasks:
                chosen[i, chosen_tasks] = True
                load[i] = float(sum(powers[t] for t in chosen_tasks))
