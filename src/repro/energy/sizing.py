"""Super capacitor sizing (Section 4.1 of the paper).

Design-time procedure with three steps:

1. compute the daily migration-energy profile ``ΔE_{i,j,m}`` from the
   solar trace and an ASAP load profile (:func:`migration_series`);
2. per day, find the capacitance minimising the total migration loss —
   conversion, cycle and leakage losses, Eq. (10)–(11) — via
   :func:`optimal_daily_capacity`;
3. cluster the per-day optima ``{C_i^opt}`` into ``H`` values, weighted
   by the day's solar energy, and use cluster means as the capacities
   of the distributed bank (:func:`cluster_capacities`).
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .capacitor import SuperCapacitor

__all__ = [
    "migration_series",
    "DayMigrationResult",
    "simulate_day_migration",
    "migration_grid",
    "optimal_daily_capacity",
    "cluster_capacities",
    "size_bank",
    "DEFAULT_CANDIDATES",
]

#: Default capacitance candidates for the sizing search, farads (the
#: E-series values a designer would actually order).  Capped at 47 F:
#: the node's volume/price constraints rule out larger parts
#: (Section 1 of the paper), which also keeps storage scarce relative
#: to the night workload — the regime all of the paper's experiments
#: operate in.
DEFAULT_CANDIDATES: Tuple[float, ...] = (
    0.5, 1.0, 2.0, 3.3, 4.7, 6.8, 10.0, 15.0, 22.0, 33.0, 47.0,
)


def migration_series(
    solar_power: np.ndarray, load_power: np.ndarray, slot_seconds: float
) -> np.ndarray:
    """Per-slot migrated energy ``ΔE`` (Eq. 2), joules.

    Positive entries are surplus pushed into the capacitor; negative
    entries are deficits drawn from it.
    """
    solar = np.asarray(solar_power, dtype=float)
    load = np.asarray(load_power, dtype=float)
    if solar.shape != load.shape:
        raise ValueError(
            f"solar {solar.shape} and load {load.shape} shapes differ"
        )
    if not slot_seconds > 0:
        raise ValueError(f"slot_seconds must be > 0, got {slot_seconds}")
    return (solar - load) * slot_seconds


@dataclasses.dataclass(frozen=True)
class DayMigrationResult:
    """Losses and service of one day's migration through one capacitor."""

    total_loss: float
    conversion_loss: float
    leakage_loss: float
    overflow_loss: float
    served: float
    unserved: float
    final_voltage: float

    @property
    def service_ratio(self) -> float:
        """Fraction of the deficit demand actually served."""
        demand = self.served + self.unserved
        return self.served / demand if demand > 0 else 1.0


def simulate_day_migration(
    capacitor: SuperCapacitor,
    delta_e: np.ndarray,
    slot_seconds: float,
    initial_voltage: Optional[float] = None,
) -> DayMigrationResult:
    """Run one day's ``ΔE`` series through a capacitor (Eq. 1, 10, 11).

    Surplus slots charge, deficit slots discharge, every slot leaks.
    Losses follow Eq. (10): energy that entered or was requested but
    did not reach the load, split by mechanism.
    """
    delta_e = np.asarray(delta_e, dtype=float)
    state = capacitor.fresh_state(initial_voltage)
    leakage = overflow = served = unserved = 0.0
    baseline = state.stored_energy
    for de in delta_e:
        if de > 0:
            eta_before = capacitor.charge_efficiency(state.voltage)
            stored = state.charge(de)
            # Input that the full capacitor rejected (approximately:
            # what an unconstrained charge at the slot-start efficiency
            # would have consumed beyond what was actually consumed).
            consumed = stored / max(eta_before, 1e-9)
            overflow += max(de - consumed, 0.0)
        elif de < 0:
            need = -de
            got = state.discharge(need)
            served += got
            unserved += max(need - got, 0.0)
        before = state.stored_energy
        state.leak(slot_seconds)
        leakage += before - state.stored_energy

    # Conversion loss from the exact energy balance: surplus input is
    # either rejected (overflow), leaked, delivered to deficit slots,
    # still stored, or lost in conversion.
    total_in = float(delta_e[delta_e > 0].sum())
    residual = state.stored_energy - baseline
    conversion = max(
        total_in - overflow - leakage - served - residual, 0.0
    )
    total_loss = conversion + leakage + overflow
    return DayMigrationResult(
        total_loss=total_loss,
        conversion_loss=conversion,
        leakage_loss=leakage,
        overflow_loss=overflow,
        served=served,
        unserved=unserved,
        final_voltage=state.voltage,
    )


def _migrate_rows(
    capacitors: Sequence[SuperCapacitor],
    days: np.ndarray,
    slot_seconds: float,
) -> List[List[DayMigrationResult]]:
    """Every equal-length day through every capacitor in one array pass.

    Row ``j * n_days + d`` runs day ``d`` through ``capacitors[j]`` on
    the shared row kernel; each row replays
    :func:`simulate_day_migration` bit for bit (same slot-start
    ``eta_before``, same per-book operation order).  Returns
    ``results[d][j]``.
    """
    # Imported on first use: ``repro.cli`` imports this module, and
    # only training needs the kernel.
    from .kernel import BankRows

    n_days, n_slots = days.shape
    rows = [cap for cap in capacitors for _ in range(n_days)]
    bank = BankRows([[cap] for cap in rows], [0] * len(rows))
    # Slot-major: delta[s] is every row's ΔE at slot s, contiguous.
    delta = np.ascontiguousarray(np.tile(days, (len(capacitors), 1)).T)
    surplus_at, deficit_at = delta > 0, delta < 0
    any_surplus = surplus_at.any(axis=1).tolist()
    any_deficit = deficit_at.any(axis=1).tolist()
    v = bank.v0.copy()
    zeros = np.zeros(len(rows))
    overflow, served, unserved, leakage = zeros, zeros, zeros, zeros
    for s in range(n_slots):
        de = delta[s]
        if any_surplus[s]:
            surplus = surplus_at[s]
            eta_before = bank.charge_efficiency(v[:, 0])
            stored = bank.charge(v, surplus, de)
            consumed = stored / np.maximum(eta_before, 1e-9)
            overflow = np.where(
                surplus, overflow + np.maximum(de - consumed, 0.0), overflow
            )
        if any_deficit[s]:
            deficit = deficit_at[s]
            need = -de
            got = bank.discharge(v, deficit, need)
            served = np.where(deficit, served + got, served)
            unserved = np.where(
                deficit, unserved + np.maximum(need - got, 0.0), unserved
            )
        leakage = leakage + bank.leak(v, slot_seconds)

    # Per-row closing books in scalar Python, as the reference does.
    total_in = [float(day[day > 0].sum()) for day in days]
    results: List[List[DayMigrationResult]] = [[] for _ in range(n_days)]
    for r, cap in enumerate(rows):
        d = r % n_days
        volts = float(v[r, 0])
        baseline = cap.energy_at(float(bank.v0[r, 0]))
        residual = cap.energy_at(volts) - baseline
        over, leak = float(overflow[r]), float(leakage[r])
        got = float(served[r])
        conversion = max(total_in[d] - over - leak - got - residual, 0.0)
        results[d].append(
            DayMigrationResult(
                total_loss=conversion + leak + over,
                conversion_loss=conversion,
                leakage_loss=leak,
                overflow_loss=over,
                served=got,
                unserved=float(unserved[r]),
                final_voltage=volts,
            )
        )
    return results


def migration_grid(
    capacitors: Sequence[SuperCapacitor],
    daily_delta_e: Sequence[np.ndarray],
    slot_seconds: float,
) -> List[List[DayMigrationResult]]:
    """:func:`simulate_day_migration` of every day through every capacitor.

    ``results[d][j]`` is day ``d`` through ``capacitors[j]``, equal
    field for field to the scalar call.  Days of one length share one
    array pass (rows = capacitors x days); ragged days take one pass
    per distinct length.
    """
    days = [np.asarray(de, dtype=float) for de in daily_delta_e]
    results: List[List[DayMigrationResult]] = [[] for _ in days]
    for length in sorted({len(de) for de in days}):
        group = [d for d, de in enumerate(days) if len(de) == length]
        stacked = np.array([days[d] for d in group]).reshape(
            len(group), length
        )
        grid = _migrate_rows(capacitors, stacked, slot_seconds)
        for d, row in zip(group, grid):
            results[d] = row
    return results


def _best_candidate(
    candidates: Sequence[float], results: Sequence[DayMigrationResult]
) -> Tuple[float, DayMigrationResult]:
    """Lowest-loss candidate among those within 5% of the best service."""
    best_served = max(r.served for r in results)
    tolerance = 0.05 * best_served if best_served > 0 else 0.0
    viable = [
        (c, r) for c, r in zip(candidates, results)
        if r.served >= best_served - tolerance
    ]
    return min(viable, key=lambda item: item[1].total_loss)


def optimal_daily_capacity(
    delta_e: np.ndarray,
    slot_seconds: float,
    candidates: Sequence[float] = DEFAULT_CANDIDATES,
    **capacitor_kwargs,
) -> Tuple[float, DayMigrationResult]:
    """Capacitance with the smallest migration loss for one day (Eq. 10).

    Candidates with worse *service* (energy actually delivered to
    deficit slots) are only preferred if no candidate serves more, so
    a tiny capacitor cannot win simply by storing (and thus losing)
    nothing.  Every candidate runs in one array pass
    (:func:`migration_grid`).
    """
    if not candidates:
        raise ValueError("need at least one candidate capacitance")
    caps = [
        SuperCapacitor(capacitance=c, **capacitor_kwargs) for c in candidates
    ]
    (results,) = migration_grid(caps, [delta_e], slot_seconds)
    return _best_candidate(candidates, results)


def _cluster_mean(values: np.ndarray, weights: np.ndarray) -> float:
    """Weighted mean of one cluster; unweighted when all its members
    weigh zero (a cluster of dark days)."""
    return np.average(values, weights=weights if weights.sum() > 0 else None)


def cluster_capacities(
    optima: Sequence[float],
    weights: Optional[Sequence[float]] = None,
    num_clusters: int = 4,
    max_iterations: int = 100,
) -> List[float]:
    """Cluster per-day optimal capacities into ``H`` bank values.

    Weighted 1-D k-means on log-capacitance (the paper clusters the
    per-day optima "based on the corresponding solar power", hence the
    solar-energy weights).  Returns the cluster means in ascending
    order; fewer clusters are returned when the optima take fewer
    distinct values.
    """
    if num_clusters < 1:
        raise ValueError(f"num_clusters must be >= 1, got {num_clusters}")
    values = np.asarray(optima, dtype=float)
    if len(values) == 0:
        raise ValueError("need at least one per-day optimum")
    if np.any(values <= 0):
        raise ValueError("capacities must be > 0")
    w = (
        np.ones_like(values)
        if weights is None
        else np.asarray(weights, dtype=float)
    )
    if w.shape != values.shape:
        raise ValueError("weights must match optima in length")
    if np.any(w < 0) or w.sum() <= 0:
        raise ValueError("weights must be >= 0 with a positive sum")

    unique = np.unique(values)
    k = min(num_clusters, len(unique))
    log_v = np.log10(values)
    centres = np.quantile(log_v, np.linspace(0.0, 1.0, k))
    centres = np.unique(centres)
    k = len(centres)

    for _ in range(max_iterations):
        assign = np.argmin(np.abs(log_v[:, None] - centres[None, :]), axis=1)
        new_centres = centres.copy()
        for j in range(k):
            mask = assign == j
            if mask.any():
                new_centres[j] = _cluster_mean(log_v[mask], w[mask])
        if np.allclose(new_centres, centres):
            break
        centres = new_centres

    assign = np.argmin(np.abs(log_v[:, None] - centres[None, :]), axis=1)
    means = []
    for j in range(k):
        mask = assign == j
        if mask.any():
            means.append(float(_cluster_mean(values[mask], w[mask])))
    return sorted(means)


def size_bank(
    daily_delta_e: Sequence[np.ndarray],
    slot_seconds: float,
    num_capacitors: int = 4,
    candidates: Sequence[float] = DEFAULT_CANDIDATES,
    daily_weights: Optional[Sequence[float]] = None,
    **capacitor_kwargs,
) -> List[SuperCapacitor]:
    """Full Section 4.1 pipeline: per-day optima → clustered bank.

    Every (candidate, day) pair runs in one array pass
    (:func:`migration_grid`).
    """
    if not candidates:
        raise ValueError("need at least one candidate capacitance")
    caps = [
        SuperCapacitor(capacitance=c, **capacitor_kwargs) for c in candidates
    ]
    optima = [
        _best_candidate(candidates, results)[0]
        for results in migration_grid(caps, daily_delta_e, slot_seconds)
    ]
    weights = daily_weights
    if weights is None:
        weights = [float(np.abs(de).sum()) for de in daily_delta_e]
        if sum(weights) <= 0:
            weights = None
    capacities = cluster_capacities(
        optima, weights=weights, num_clusters=num_capacitors
    )
    return [
        SuperCapacitor(capacitance=c, **capacitor_kwargs) for c in capacities
    ]
