"""Row-major capacitor physics: one masked slot update for many banks.

:class:`BankRows` holds ``rows`` capacitor banks padded to ``caps``
columns, each with one *active* column (per row, movable with
:meth:`BankRows.select`), and applies the slot update of
:class:`~repro.energy.capacitor.CapacitorState` to every row at once:
:meth:`BankRows.charge` and :meth:`BankRows.discharge` on the active
column, :meth:`BankRows.leak` on the whole ``(rows, caps)`` voltage
matrix.  It is the one array copy of that physics:

* the batched fleet engine (:mod:`repro.sim.batch`) calls it with one
  row per node;
* capacitor sizing (:mod:`repro.energy.sizing`) calls it with one row
  per (candidate capacitance, training day) and one column.

Every elementwise expression replays the scalar operation order, so a
row evolves bit for bit like its scalar ``CapacitorState``:

* charge/discharge keep the 4-substep voltage recurrence, with an
  ``alive`` mask standing in for the scalar ``break`` (a row that
  stops updating never resurrects);
* the leakage voltage power stays per-element Python ``**`` (numpy's
  pow ufunc is not bit-identical to libm's), as in
  :meth:`~repro.energy.bank.CapacitorBank.leak_all`;
* the regulator curves go through the same ``np.power`` ufunc as
  :meth:`~repro.energy.regulator.RegulatorCurve.efficiency`.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from .capacitor import SuperCapacitor

__all__ = ["BankRows", "device_leak_row"]


def device_leak_row(
    row: int, devices: Sequence[SuperCapacitor]
) -> List[float]:
    """Per-capacitor ``leak_coeff * C`` products of one row's bank.

    The default ``leak_row`` of :class:`BankRows`, looked up when a
    bank is built: replacing it (or passing another ``leak_row``)
    plants a corruption in one row to prove an oracle pinpoints it.
    """
    return [d.leak_coeff * d.capacitance for d in devices]


class BankRows:
    """Per-row bank constants and the masked slot physics over them.

    ``banks[i]`` is row ``i``'s capacitors and ``active[i]`` the column
    its charge and discharge touch; :meth:`select` moves it.  Padded
    columns get capacitance 1, zero volts and zero leak, so their leak
    update is exactly ``0 -> 0`` and adds ``+0.0`` to the row's loss.
    """

    def __init__(
        self,
        banks: Sequence[Sequence[SuperCapacitor]],
        active: Sequence[int],
        leak_row: Optional[
            Callable[[int, Sequence[SuperCapacitor]], List[float]]
        ] = None,
    ) -> None:
        leak_row = leak_row or device_leak_row
        n = len(banks)
        c_max = max(len(b) for b in banks)
        self.n, self.c_max = n, c_max
        self.rows = np.arange(n)
        self.active = np.asarray(active, dtype=np.int64)
        self.capacitance = np.ones((n, c_max))
        #: Initial voltages: every capacitor at its cut-off.
        self.v0 = np.zeros((n, c_max))
        self.leak_coeff_cap = np.zeros((n, c_max))
        self.parasitic = np.zeros((n, c_max))
        self.exps_flat: List[float] = []
        for row, devices in enumerate(banks):
            c_n = len(devices)
            self.capacitance[row, :c_n] = [d.capacitance for d in devices]
            self.v0[row, :c_n] = [d.v_cutoff for d in devices]
            self.leak_coeff_cap[row, :c_n] = leak_row(row, devices)
            self.parasitic[row, :c_n] = [
                d.parasitic_power for d in devices
            ]
            self.exps_flat.extend(d.leak_exponent for d in devices)
            self.exps_flat.extend(1.0 for _ in range(c_max - c_n))
        self._banks = banks
        # Active-column constants, one entry per row (see select()).
        devs = [banks[i][a] for i, a in enumerate(self.active.tolist())]
        for name, values in zip(
            self._ACTIVE_FIELDS, self._active_constants(devs)
        ):
            setattr(self, name, np.array(values, dtype=float))

    #: The per-row constants of each row's active column (``half_c``
    #: is ``0.5 * C``, the first product of ``0.5 * C * V * V``).
    _ACTIVE_FIELDS = (
        "c", "half_c", "e_full", "e_cutoff", "v_stop_chg", "v_stop_dis", "cyc",
        "in_eta", "in_exp", "in_vh", "out_eta", "out_exp", "out_vh",
    )

    @staticmethod
    def _active_constants(devs: Sequence[SuperCapacitor]) -> tuple:
        """:data:`_ACTIVE_FIELDS` values of ``devs``, in that order."""
        return (
            [d.capacitance for d in devs],
            [0.5 * d.capacitance for d in devs],
            [0.5 * d.capacitance * d.v_full * d.v_full for d in devs],
            [0.5 * d.capacitance * d.v_cutoff * d.v_cutoff for d in devs],
            [d.v_full - 1e-12 for d in devs],
            [d.v_cutoff + 1e-12 for d in devs],
            [d.cycle_efficiency for d in devs],
            [d.input_regulator.eta_max for d in devs],
            [d.input_regulator.exponent for d in devs],
            [d.input_regulator._vhalf_pow for d in devs],
            [d.output_regulator.eta_max for d in devs],
            [d.output_regulator.exponent for d in devs],
            [d.output_regulator._vhalf_pow for d in devs],
        )

    def select(self, rows: Sequence[int], cols: Sequence[int]) -> None:
        """Make ``cols[j]`` the active column of row ``rows[j]``.

        Re-gathers the active-column constants of those rows only, so
        rows that never switch pay nothing.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        self.active[rows] = cols
        devs = [
            self._banks[r][c] for r, c in zip(rows.tolist(), cols.tolist())
        ]
        for name, values in zip(
            self._ACTIVE_FIELDS, self._active_constants(devs)
        ):
            getattr(self, name)[rows] = values

    # ------------------------------------------------------------------
    def charge_efficiency(self, v_col: np.ndarray) -> np.ndarray:
        """``η_chr(V)·η_cycle`` of each row's active capacitor."""
        vp = v_col ** self.in_exp
        return (self.in_eta * vp / (vp + self.in_vh)) * self.cyc

    def charge(
        self, v: np.ndarray, mask: np.ndarray, energy_in: np.ndarray
    ) -> np.ndarray:
        """Masked ``CapacitorState.charge`` on the active column of ``v``.

        Updates ``v`` in place; returns the stored energy per row (0
        outside ``mask``).
        """
        rows, a = self.rows, self.active
        c, half_c = self.c, self.half_c
        v_col = v[rows, a]
        energy = half_c * v_col * v_col
        stored_total = np.zeros(self.n)
        chunk = energy_in / 4
        for _ in range(4):
            alive = mask & (v_col < self.v_stop_chg)
            if not alive.any():
                break
            eta = self.charge_efficiency(v_col)
            headroom = np.maximum(self.e_full - energy, 0.0)
            stored = np.minimum(chunk * eta, headroom)
            new_energy = np.minimum(
                np.maximum(energy + stored, 0.0), self.e_full
            )
            v_new = np.sqrt(2.0 * new_energy / c)
            e_new = half_c * v_new * v_new
            v_col = np.where(alive, v_new, v_col)
            energy = np.where(alive, e_new, energy)
            stored_total = np.where(
                alive, stored_total + stored, stored_total
            )
        v[rows, a] = v_col
        return stored_total

    def discharge(
        self, v: np.ndarray, mask: np.ndarray, energy_needed: np.ndarray
    ) -> np.ndarray:
        """Masked ``CapacitorState.discharge`` on the active column.

        Updates ``v`` in place; returns the delivered energy per row (0
        outside ``mask``).  A row that hits the cut-off stops updating
        for the remaining substeps — the masked scalar ``break``.
        """
        rows, a = self.rows, self.active
        c, half_c = self.c, self.half_c
        v_col = v[rows, a]
        energy = half_c * v_col * v_col
        delivered_total = np.zeros(self.n)
        chunk = energy_needed / 4
        for _ in range(4):
            alive = mask & (v_col > self.v_stop_dis)
            if not alive.any():
                break
            vp = v_col ** self.out_exp
            eta = (self.out_eta * vp / (vp + self.out_vh)) * self.cyc
            alive = alive & (eta > 0.0)
            usable = np.maximum(energy - self.e_cutoff, 0.0)
            drawn = np.minimum(
                chunk / np.where(eta > 0.0, eta, 1.0), usable
            )
            delivered = drawn * eta
            new_energy = np.minimum(
                np.maximum(energy - drawn, 0.0), self.e_full
            )
            v_new = np.sqrt(2.0 * new_energy / c)
            e_new = half_c * v_new * v_new
            v_col = np.where(alive, v_new, v_col)
            energy = np.where(alive, e_new, energy)
            delivered_total = np.where(
                alive, delivered_total + delivered, delivered_total
            )
        v[rows, a] = v_col
        return delivered_total

    def leak(self, v: np.ndarray, dt: float) -> np.ndarray:
        """``CapacitorBank.leak_all`` over every row; returns lost energy.

        The active column pays the full drain and clamps to
        ``[0, E_full]``; idle columns subtract the parasitic term back
        out (``(x + p0) - p0`` is not ``x`` in floating point).  The
        per-column accumulation matches the scalar per-capacitor sum.
        """
        rows, a = self.rows, self.active
        volts = v.ravel().tolist()
        powv = np.array(
            [vv ** e for vv, e in zip(volts, self.exps_flat)]
        ).reshape(v.shape)
        leak_power = self.leak_coeff_cap * powv + self.parasitic
        before = 0.5 * self.capacitance * v * v
        idle_power = np.maximum(leak_power - self.parasitic, 0.0)
        new_energy = np.maximum(before - idle_power * dt, 0.0)
        e_a = before[rows, a] - leak_power[rows, a] * dt
        e_a = np.minimum(np.maximum(e_a, 0.0), self.e_full)
        new_energy[rows, a] = e_a
        new_volts = np.sqrt(2.0 * new_energy / self.capacitance)
        after = 0.5 * self.capacitance * new_volts * new_volts
        diffs = before - after
        v[:] = new_volts
        lost = np.zeros(self.n)
        for col in range(self.c_max):
            lost = lost + diffs[:, col]
        return lost
