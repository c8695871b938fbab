"""Dynamic voltage and frequency scaling (DVFS) of the CPU sockets.

The paper's related work (Shin et al., ICCAD'09 — its ref. [5])
combines DVFS with fan control, and the paper's own conclusion points
to richer energy-performance runtime control as future work.  This
module adds p-states to the simulated server so that extension can be
studied:

* dynamic power scales with ``f · V^2`` relative to the nominal state,
* static (idle-floor) power scales with ``V^2``,
* running below nominal frequency stretches the same demanded work
  over more busy time: ``U_executed = U_demand * f_nom / f``, saturating
  at 100% (saturation means lost throughput, which the simulator
  accounts as a work deficit).

Leakage is kept on the paper's temperature-only model: its voltage
dependence is second-order over the narrow ladder used here and the
paper's fitted form has no voltage term.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from repro.units import validate_utilization_pct


@dataclass(frozen=True)
class PState:
    """One operating point of the voltage/frequency ladder."""

    frequency_ghz: float
    voltage_v: float

    def __post_init__(self) -> None:
        if self.frequency_ghz <= 0:
            raise ValueError("frequency_ghz must be positive")
        if self.voltage_v <= 0:
            raise ValueError("voltage_v must be positive")


@dataclass(frozen=True)
class DvfsSpec:
    """The p-state ladder, ordered from nominal (fastest) downward."""

    pstates: Tuple[PState, ...] = field(
        default_factory=lambda: (PState(frequency_ghz=1.65, voltage_v=1.0),)
    )

    def __post_init__(self) -> None:
        if not self.pstates:
            raise ValueError("need at least one p-state")
        freqs = [p.frequency_ghz for p in self.pstates]
        if any(b >= a for a, b in zip(freqs[:-1], freqs[1:])):
            raise ValueError("p-states must be strictly descending in frequency")
        volts = [p.voltage_v for p in self.pstates]
        if any(b > a for a, b in zip(volts[:-1], volts[1:])):
            raise ValueError("voltage must be non-increasing down the ladder")

    @property
    def nominal(self) -> PState:
        """The fastest (index 0) state."""
        return self.pstates[0]

    def __len__(self) -> int:
        return len(self.pstates)

    def state(self, index: int) -> PState:
        """Look up a p-state by ladder index."""
        if not 0 <= index < len(self.pstates):
            raise IndexError(f"p-state index {index} out of range")
        return self.pstates[index]

    # ------------------------------------------------------------------
    # scaling laws
    # ------------------------------------------------------------------
    def frequency_ratio(self, index: int) -> float:
        """``f / f_nom`` of p-state *index*."""
        return self.state(index).frequency_ghz / self.nominal.frequency_ghz

    def voltage_ratio(self, index: int) -> float:
        """``V / V_nom`` of p-state *index*."""
        return self.state(index).voltage_v / self.nominal.voltage_v

    def dynamic_power_scale(self, index: int) -> float:
        """Per-executed-percent dynamic power scale, ``(f/fn)(V/Vn)^2``."""
        return self.frequency_ratio(index) * self.voltage_ratio(index) ** 2

    def static_power_scale(self, index: int) -> float:
        """Idle-floor power scale, ``(V/Vn)^2``."""
        return self.voltage_ratio(index) ** 2

    def executed_utilization_pct(self, demand_pct: float, index: int) -> float:
        """Busy fraction when *demand_pct* of nominal work runs at state
        *index* — saturates at 100%."""
        validate_utilization_pct(demand_pct, "demand_pct")
        stretched = demand_pct / self.frequency_ratio(index)
        return min(100.0, stretched)

    def work_deficit_pct(self, demand_pct: float, index: int) -> float:
        """Demanded-but-unexecuted work at state *index*, in nominal
        utilization percent (0 when the state keeps up)."""
        validate_utilization_pct(demand_pct, "demand_pct")
        stretched = demand_pct / self.frequency_ratio(index)
        if stretched <= 100.0:
            return 0.0
        return (stretched - 100.0) * self.frequency_ratio(index)

    def stretch_chunk(self, demand_pct, index: int):
        """Vectorized executed utilization and deficit rate for a chunk.

        Returns ``(executed_pct, deficit_pct)`` arrays for a whole
        chunk of demanded utilizations at p-state *index*.  Every
        elementwise operation mirrors
        :meth:`executed_utilization_pct` / :meth:`work_deficit_pct`
        (IEEE add/mul/div/min are bit-identical between numpy and
        scalar Python), so chunked runs reproduce tick-by-tick traces
        exactly.
        """
        demand = np.asarray(demand_pct, dtype=float)
        ratio = self.frequency_ratio(index)
        stretched = demand / ratio
        executed = np.minimum(100.0, stretched)
        deficit = np.where(stretched <= 100.0, 0.0, (stretched - 100.0) * ratio)
        return executed, deficit

    def slowest_state_sustaining(
        self, demand_pct: float, headroom_pct: float = 90.0
    ) -> int:
        """Deepest p-state whose executed utilization stays below
        *headroom_pct* (nominal state if none qualifies)."""
        validate_utilization_pct(demand_pct, "demand_pct")
        if not 0.0 < headroom_pct <= 100.0:
            raise ValueError("headroom_pct must be in (0, 100]")
        best = 0
        for index in range(len(self.pstates)):
            if self.executed_utilization_pct(demand_pct, index) <= headroom_pct:
                best = index
            else:
                break
        return best

    def slowest_states_sustaining(
        self, demand_pct: np.ndarray, headroom_pct: float = 90.0
    ) -> np.ndarray:
        """:meth:`slowest_state_sustaining` of every element of *demand_pct*.

        Walks the ladder once for the whole array with the scalar
        method's elementwise arithmetic, so each element gets the
        identical state.  Raises the scalar ``ValueError`` for the
        first demand outside [0, 100] percent.
        """
        demand = np.asarray(demand_pct, dtype=float)
        # min/max propagate NaN, which fails both comparisons
        if demand.size and not (demand.min() >= 0.0 and demand.max() <= 100.0):
            valid = (demand >= 0.0) & (demand <= 100.0)
            validate_utilization_pct(float(demand[~valid][0]), "demand_pct")
        if not 0.0 < headroom_pct <= 100.0:
            raise ValueError("headroom_pct must be in (0, 100]")
        best = np.zeros(demand.shape, dtype=np.intp)
        sustaining = np.ones(demand.shape, dtype=bool)
        for index in range(len(self.pstates)):
            executed = np.minimum(100.0, demand / self.frequency_ratio(index))
            sustaining &= executed <= headroom_pct
            best[sustaining] = index
        return best


def default_dvfs_ladder() -> DvfsSpec:
    """A four-step ladder for the T3-class part (nominal 1.65 GHz)."""
    return DvfsSpec(
        pstates=(
            PState(frequency_ghz=1.65, voltage_v=1.00),
            PState(frequency_ghz=1.40, voltage_v=0.93),
            PState(frequency_ghz=1.20, voltage_v=0.87),
            PState(frequency_ghz=1.00, voltage_v=0.80),
        )
    )
