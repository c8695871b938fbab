"""The lookup table at the heart of the paper's controller.

The LUT maps workload utilization to the fan speed that minimizes
``P_leak + P_fan`` at that load (§V): it is generated offline from the
leakage and fan power analysis, then addressed at runtime by the
polled utilization level.  Querying rounds *up* to the next
characterized level so intermediate utilizations always get at least
as much cooling as their nearest characterized upper bound.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.optimizer import OptimizationResult, optimal_fan_speed
from repro.core.thermal_map import ThermalMap
from repro.models.fitting import CharacterizationSample, FittedPowerModel
from repro.models.leakage import FanPowerModel, LeakageModel
from repro.models.steady_state import (
    optimal_rpm_per_utilization,
    steady_state_map,
)
from repro.server.specs import ServerSpec
from repro.units import validate_utilization_pct

#: Utilization levels characterized in the paper (§IV).
PAPER_UTILIZATION_LEVELS_PCT = (10.0, 25.0, 40.0, 50.0, 60.0, 75.0, 90.0, 100.0)

#: Fan speeds characterized in the paper (§IV).
PAPER_FAN_SPEEDS_RPM = (1800.0, 2400.0, 3000.0, 3600.0, 4200.0)


#: Slack added to every level before the round-up comparison, percent.
LEVEL_SLACK_PCT = 1e-9


@dataclass(frozen=True)
class LookupTable:
    """Sorted (utilization level → optimum fan RPM) mapping."""

    levels_pct: Tuple[float, ...]
    rpms: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.levels_pct) != len(self.rpms) or not self.levels_pct:
            raise ValueError("levels and rpms must be equal-length, non-empty")
        if any(
            b <= a for a, b in zip(self.levels_pct[:-1], self.levels_pct[1:])
        ):
            raise ValueError("utilization levels must be strictly increasing")
        for level in self.levels_pct:
            validate_utilization_pct(level)
        if any(r <= 0 for r in self.rpms):
            raise ValueError("fan speeds must be positive")
        self._index_levels()

    def _index_levels(self) -> None:
        """The round-up thresholds both queries search, built once."""
        thresholds = np.array(self.levels_pct, dtype=float) + LEVEL_SLACK_PCT
        thresholds.flags.writeable = False
        # the last entry twice: utilizations above every level index it
        rpms = np.array([*self.rpms, self.rpms[-1]], dtype=float)
        rpms.flags.writeable = False
        object.__setattr__(self, "_thresholds", thresholds)
        object.__setattr__(self, "_rpm_array", rpms)

    def __getstate__(self) -> dict:
        # pickle the fields only; the threshold arrays are rebuilt
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            object.__setattr__(self, name, value)
        self._index_levels()

    def query(self, utilization_pct: float) -> float:
        """Fan speed for *utilization_pct* (rounds up to the next level).

        The entry is the first whose ``level + LEVEL_SLACK_PCT`` reaches
        the utilization; above every level, the last entry.
        """
        validate_utilization_pct(utilization_pct)
        index = bisect_left(self._thresholds, utilization_pct)
        return self.rpms[min(index, len(self.rpms) - 1)]

    def query_many(self, utilization_pct: np.ndarray) -> np.ndarray:
        """:meth:`query` of every element, as a float array.

        Raises :meth:`query`'s ``ValueError`` for the first element
        outside [0, 100] percent.
        """
        utilization = np.asarray(utilization_pct, dtype=float)
        # min/max propagate NaN, which fails both comparisons
        if utilization.size and not (
            utilization.min() >= 0.0 and utilization.max() <= 100.0
        ):
            valid = (utilization >= 0.0) & (utilization <= 100.0)
            validate_utilization_pct(float(utilization[~valid][0]))
        return self._rpm_array[self._thresholds.searchsorted(utilization)]

    def __len__(self) -> int:
        return len(self.levels_pct)

    def as_dict(self) -> Dict[float, float]:
        """Plain ``{level: rpm}`` mapping."""
        return dict(zip(self.levels_pct, self.rpms))

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        """Serialize to a JSON document."""
        return json.dumps(
            {
                "levels_pct": list(self.levels_pct),
                "rpms": list(self.rpms),
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, document: str) -> "LookupTable":
        """Deserialize from :meth:`to_json` output."""
        payload = json.loads(document)
        return cls(
            levels_pct=tuple(float(v) for v in payload["levels_pct"]),
            rpms=tuple(float(v) for v in payload["rpms"]),
        )

    def save(self, path: Union[str, Path]) -> Path:
        """Write the table to *path* as JSON."""
        path = Path(path)
        path.write_text(self.to_json())
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "LookupTable":
        """Read a table previously written by :meth:`save`."""
        return cls.from_json(Path(path).read_text())

    @classmethod
    def from_mapping(cls, mapping: Mapping[float, float]) -> "LookupTable":
        """Build from a ``{level: rpm}`` mapping (sorted by level)."""
        levels = tuple(sorted(float(k) for k in mapping))
        return cls(
            levels_pct=levels,
            rpms=tuple(float(mapping[level]) for level in levels),
        )


def build_lut_from_characterization(
    samples: Sequence[CharacterizationSample],
    fitted_model: FittedPowerModel,
    fan_power_model: FanPowerModel,
    candidates_rpm: Sequence[float] = PAPER_FAN_SPEEDS_RPM,
    levels_pct: Optional[Sequence[float]] = None,
    max_temperature_c: float = 75.0,
) -> Tuple[LookupTable, List[OptimizationResult]]:
    """The paper's offline LUT generation pipeline.

    1. Interpolate the measured steady-state temperature over the
       characterization grid (:class:`ThermalMap`).
    2. For each utilization level, minimize the *fitted* leakage plus
       the *measured* fan power across candidate speeds, subject to the
       75 °C reliability ceiling.

    Returns the LUT together with the per-level optimization details
    (useful for reporting and the Fig. 2 reproduction).
    """
    thermal_map = ThermalMap.from_samples(samples)
    if levels_pct is None:
        levels = sorted({s.utilization_pct for s in samples})
        # Always provide an idle entry so the controller has an answer
        # for utilizations below the lowest characterized level.
        if levels[0] > 0.0:
            levels = [0.0] + levels
    else:
        levels = sorted(levels_pct)
    leakage: LeakageModel = fitted_model.leakage

    results: List[OptimizationResult] = []
    mapping: Dict[float, float] = {}
    for level in levels:
        # Idle entries below the characterized grid reuse the lowest
        # characterized utilization's thermal behaviour (clamped in the
        # map), which is conservative.
        result = optimal_fan_speed(
            utilization_pct=level,
            candidates_rpm=candidates_rpm,
            thermal_map=thermal_map,
            leakage_model=leakage,
            fan_power_model=fan_power_model,
            max_temperature_c=max_temperature_c,
        )
        results.append(result)
        mapping[level] = result.fan_rpm
    return LookupTable.from_mapping(mapping), results


def build_lut_from_spec(
    spec: ServerSpec,
    candidates_rpm: Sequence[float] = PAPER_FAN_SPEEDS_RPM,
    levels_pct: Sequence[float] = (0.0,) + PAPER_UTILIZATION_LEVELS_PCT,
    max_temperature_c: float = 75.0,
    ambient_c: float = 24.0,
) -> LookupTable:
    """Oracle LUT built directly from the ground-truth server model.

    Used as a reference in tests and ablations: the data-driven LUT of
    :func:`build_lut_from_characterization` should agree with it when
    the characterization is clean.
    """
    grid = steady_state_map(
        utilizations_pct=levels_pct,
        fan_rpms=candidates_rpm,
        spec=spec,
        ambient_c=ambient_c,
    )
    best = optimal_rpm_per_utilization(grid, max_temperature_c=max_temperature_c)
    return LookupTable.from_mapping(
        {u: point.fan_rpm for u, point in best.items()}
    )
