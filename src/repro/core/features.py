"""Feature encoding between physical quantities and the DBN.

The DBN consumes normalised inputs (Figure 6): the per-slot solar
power of the previous period scaled by the panel's peak output, the
per-capacitor terminal voltages scaled by the full-charge voltage, and
the accumulated DMR (already in [0, 1]).  Outputs: the α scalar is
scaled by :data:`ALPHA_SCALE` so its regression head trains on O(1)
values.
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence, Tuple

import numpy as np

from ..energy.capacitor import SuperCapacitor
from .longterm import TrainingSample

__all__ = ["FeatureCodec", "ALPHA_SCALE"]

#: α is stored scaled by this factor (α of ~1 is "load matches solar").
ALPHA_SCALE = 2.0


@dataclasses.dataclass(frozen=True)
class FeatureCodec:
    """Bidirectional encoder for DBN inputs/outputs.

    Parameters
    ----------
    slots_per_period:
        Number of per-slot solar inputs.
    capacitors:
        The bank (voltages are normalised per capacitor's ``V_H``).
    solar_scale:
        Power normalisation constant, watts (typically the panel's
        peak output).
    """

    slots_per_period: int
    capacitors: Tuple[SuperCapacitor, ...]
    solar_scale: float

    def __post_init__(self) -> None:
        if self.slots_per_period < 1:
            raise ValueError("slots_per_period must be >= 1")
        if not self.capacitors:
            raise ValueError("need at least one capacitor")
        if not self.solar_scale > 0:
            raise ValueError(f"solar_scale must be > 0, got {self.solar_scale}")

    @property
    def input_size(self) -> int:
        """Width of the encoded DBN input vector."""
        return self.slots_per_period + len(self.capacitors) + 1

    # ------------------------------------------------------------------
    def encode_input(
        self,
        prev_solar: np.ndarray,
        voltages: np.ndarray,
        accumulated_dmr: float,
    ) -> np.ndarray:
        """One normalised input row for the DBN."""
        prev_solar = np.asarray(prev_solar, dtype=float)
        voltages = np.asarray(voltages, dtype=float)
        if prev_solar.shape != (self.slots_per_period,):
            raise ValueError(
                f"prev_solar must have shape ({self.slots_per_period},), "
                f"got {prev_solar.shape}"
            )
        if voltages.shape != (len(self.capacitors),):
            raise ValueError(
                f"voltages must have shape ({len(self.capacitors)},), "
                f"got {voltages.shape}"
            )
        solar = np.clip(prev_solar / self.solar_scale, 0.0, 1.5)
        v_full = np.array([cap.v_full for cap in self.capacitors])
        v_norm = np.clip(voltages / v_full, 0.0, 1.0)
        dmr = np.clip(accumulated_dmr, 0.0, 1.0)
        return np.concatenate([solar, v_norm, [dmr]])

    def encode_samples(
        self, samples: Sequence[TrainingSample]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(X, cap_targets, alpha_targets, te_targets)`` matrices."""
        if not samples:
            raise ValueError("no samples to encode")
        x_rows: List[np.ndarray] = []
        caps: List[int] = []
        alphas: List[float] = []
        tes: List[np.ndarray] = []
        for s in samples:
            x_rows.append(
                self.encode_input(s.prev_solar, s.voltages, s.accumulated_dmr)
            )
            caps.append(s.cap_index)
            alphas.append(s.alpha / ALPHA_SCALE)
            tes.append(s.te.astype(float))
        return (
            np.vstack(x_rows),
            np.array(caps, dtype=int),
            np.array(alphas),
            np.vstack(tes),
        )

    # ------------------------------------------------------------------
    @staticmethod
    def decode_alpha(alpha_scaled: float) -> float:
        """Back to the physical α (Eq. 18 ratio)."""
        return float(alpha_scaled) * ALPHA_SCALE
