"""The placement and controller-poll stages of the fleet tick.

Every fleet backend runs the same sequence per tick: CRAC supply →
recirculation inlet → rank → assign/respill → controller poll → RC
physics.  The physics belongs to the stepper (the vector kernel, the
per-simulator reference stepper, or a shard's kernel slice); the
stages before it are implemented once, here, and shared by the
``vector``/``reference`` tick loop of
:class:`~repro.fleet.engine.FleetEngine` and by the sharded backend
(:mod:`repro.engine.sharded`): :class:`FleetPlacement` is the
whole-fleet control plane, :class:`ControllerBank` polls a contiguous
slice of per-server controllers.
"""

from __future__ import annotations

from math import isnan
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.controllers.base import ControllerObservation, FanController
from repro.engine.kernel import POLL_EPS_S, plan_tick_times
from repro.fleet.scheduler import (
    FleetLoadArrays,
    SchedulingDecision,
    ServerLoadView,
)

if TYPE_CHECKING:  # annotation-only; avoids an import cycle at runtime
    from repro.fleet.engine import FleetEngine
    from repro.fleet.faults import FleetFaultPlan


def _build_views(arrays: FleetLoadArrays) -> List[ServerLoadView]:
    """Materialize per-server views for view-based placement policies."""
    slope = arrays.leakage_slope_w_per_c
    return [
        ServerLoadView(
            index=i,
            rack_index=int(arrays.rack_index[i]),
            utilization_pct=float(arrays.utilization_pct[i]),
            max_junction_c=float(arrays.max_junction_c[i]),
            inlet_c=float(arrays.inlet_c[i]),
            leakage_w=float(arrays.leakage_w[i]),
            leakage_slope_w_per_c=float(slope[i]),
            pstate_index=int(arrays.pstate_index[i]),
        )
        for i in range(len(arrays.utilization_pct))
    ]


class FleetPlacement:
    """Supply → inlet and rank → assign → respill over the whole fleet.

    Built once per run, after any checkpoint restore has swapped in the
    engine's scheduler.  Outage ticks write their respilled work and
    fault-attributable unserved demand into the caller's ``respilled``
    / ``fault_unserved`` traces.
    """

    def __init__(
        self,
        engine: "FleetEngine",
        dt_s: float,
        steps: int,
        plan: Optional["FleetFaultPlan"],
        respilled: np.ndarray,
        fault_unserved: np.ndarray,
    ) -> None:
        fleet = engine.fleet
        n = fleet.server_count
        self.n = n
        self.scheduler = engine.scheduler
        self.workload = engine.workload
        self.plan = plan
        self.respilled = respilled
        self.fault_unserved = fault_unserved
        self.rack_index = fleet.rack_index
        # the dense coupling matrix is only materialized when the fleet
        # actually recirculates: with no coupling the offsets are an
        # exact zero vector and the O(N^2) product (of zeros) is skipped
        self.coupling: Optional[np.ndarray] = (
            fleet.recirculation_matrix()
            if fleet.recirculation is not None
            else None
        )
        self.zero_offsets = np.zeros(n)
        times = plan_tick_times(steps, dt_s)[:steps]
        #: Start-of-tick times, accumulated like the simulators' clocks.
        self.times: List[float] = times.tolist()
        # Whole-horizon per-tick inputs: aggregate demand (the profile
        # is evaluated once, elementwise-stable) and, when any rack has
        # a CRAC model, the per-server supply series.  Dynamic
        # (queue-backed) workloads cannot be precomputed: their demand
        # depends on what earlier ticks executed, so they are asked
        # tick by tick.
        self.totals: Optional[List[float]] = None
        if not engine.workload.dynamic:
            self.totals = (
                engine.workload.profile.utilization_chunk(times)
                * engine.workload.server_count
            ).tolist()
        self.supply_base = fleet.supply_temperatures_c(0.0)
        self.supply_matrix: Optional[np.ndarray] = None
        if any(rack.crac is not None for rack in fleet.racks):
            self.supply_matrix = np.empty((steps, n))
            for column, model in enumerate(fleet.supply_models()):
                self.supply_matrix[:, column] = model.temperature_chunk(times)
        self.excursions = plan is not None and plan.has_excursions

    def inlet(
        self, tick: int, exhaust_rise: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(inlet, offsets)`` of ``tick`` from the previous exhaust rise.

        The term order is the one :class:`RecirculationAmbient` uses:
        ``(supply + excursion) + recirculation offset``.
        """
        if self.supply_matrix is not None:
            supply = self.supply_matrix[tick]
        else:
            supply = self.supply_base
        if self.excursions:
            supply = supply + self.plan.supply_delta[tick]
        if self.coupling is None:
            offsets = self.zero_offsets
        else:
            offsets = self.coupling @ exhaust_rise
        return supply + offsets, offsets

    def assign(self, tick: int, arrays: FleetLoadArrays) -> SchedulingDecision:
        """Rank once, fill ``tick``'s demand, attribute any outage respill."""
        if self.totals is not None:
            total_demand = self.totals[tick]
        else:
            total_demand = self.workload.total_demand_pct(self.times[tick])
        n = self.n
        scheduler = self.scheduler
        plan = self.plan
        # custom policies without an array ranking take the view path
        order = scheduler.policy.order_indices(arrays)
        if plan is None or not plan.outage_any[tick]:
            if order is None:
                return scheduler.assign(_build_views(arrays), total_demand)
            return scheduler.assign_indexed(order, n, total_demand)
        out_row = plan.outage[tick]
        if order is None:
            decision, counterfactual = scheduler.assign_with_spill(
                _build_views(arrays), total_demand, ~out_row
            )
        else:
            # degraded fill plus the all-up counterfactual — both along
            # the single policy ranking, so the respill/SLA attribution
            # needs no second ranking
            order = np.asarray(order)  # reprolint: disable=R003 -- outage ticks only; policies may return lists
            counterfactual = scheduler.assign_indexed(order, n, total_demand)
            decision = scheduler.assign_indexed(
                order[~out_row[order]], n, total_demand
            )
        self.respilled[tick] = float(
            counterfactual.allocations_pct[out_row].sum()
        )
        self.fault_unserved[tick] = max(
            0.0, decision.unserved_pct - counterfactual.unserved_pct
        )
        return decision


class ControllerBank:
    """Controllers of servers ``[lo, lo + len(controllers))``.

    Holds the per-server fan commands and poll clocks; array indices
    are local to the slice, while fan/p-state validation and sensor
    faults see the global server index ``lo + local``.  The stepper
    passed to :meth:`poll` must expose ``avg_junction_c()`` and
    ``set_pstate(local_index, pstate)``.
    """

    def __init__(
        self,
        engine: "FleetEngine",
        controllers: Sequence[FanController],
        plan: Optional["FleetFaultPlan"],
        lo: int = 0,
    ) -> None:
        self.engine = engine
        self.controllers = list(controllers)
        self.lo = lo
        self.decide_pstate_fns = [
            getattr(controller, "decide_pstate", None)
            for controller in self.controllers
        ]
        self.sensor_plan = (
            plan if plan is not None and plan.has_sensor_faults else None
        )
        width = len(self.controllers)
        self.rpm_command = np.empty(width)
        self.next_poll = np.zeros(width)
        self.next_poll_due = 0.0

    def reset(self, current_rpm: np.ndarray) -> None:
        """Reset every controller and seed the fan commands.

        A controller without an initial speed keeps the rotor speed
        the stepper starts at (``current_rpm``).
        """
        wanted: List[float] = []
        for li, controller in enumerate(self.controllers):
            controller.reset()
            initial = controller.initial_rpm()
            wanted.append(
                initial if initial is not None else float(current_rpm[li])
            )
        commands = np.array(wanted, dtype=float)
        index = self.engine.fleet.first_outside_fan_range(commands, self.lo)
        if index is not None:  # raises, naming the server
            self.engine._validated_command(index, wanted[index - self.lo])
        self.rpm_command[:] = commands
        self.next_poll[:] = 0.0
        self.next_poll_due = 0.0

    def state_arrays(self) -> Dict[str, np.ndarray]:
        """Copies of the commands and poll clocks, for checkpointing."""
        return {
            "rpm_command": self.rpm_command.copy(),
            "next_poll": self.next_poll.copy(),
            "next_poll_due": np.float64(self.next_poll_due),
        }

    def load_state_arrays(self, state: Dict[str, np.ndarray]) -> None:
        """Restore :meth:`state_arrays` output."""
        self.rpm_command[:] = state["rpm_command"]
        self.next_poll[:] = state["next_poll"]
        self.next_poll_due = float(state["next_poll_due"])

    def due(self, time_s: float) -> bool:
        """Whether any controller's poll clock has reached ``time_s``."""
        return time_s >= self.next_poll_due - POLL_EPS_S

    def poll(
        self,
        time_s: float,
        max_junction_c: np.ndarray,
        executed: np.ndarray,
        physics: Any,
    ) -> None:
        """Poll every due controller on the pre-step state.

        ``max_junction_c`` and ``executed`` are the previous tick's
        per-server hottest junction and executed utilization (local
        indexing); the junction mean is read from ``physics``.
        """
        lo = self.lo
        engine = self.engine
        controllers = self.controllers
        decide_pstate_fns = self.decide_pstate_fns
        sensor_plan = self.sensor_plan
        rpm_command = self.rpm_command
        next_poll = self.next_poll
        set_pstate = physics.set_pstate
        avg_junction_c = physics.avg_junction_c()
        for li in np.nonzero(time_s >= next_poll - POLL_EPS_S)[0]:
            controller = controllers[li]
            max_c = float(max_junction_c[li])
            avg_c = float(avg_junction_c[li])
            if sensor_plan is not None:
                max_c, avg_c = sensor_plan.transform_observation(
                    lo + int(li), time_s, max_c, avg_c
                )
            # A dropped-out channel (NaN reading) makes the BMC hold the
            # last fan and p-state commands; the poll clock still
            # advances.
            if not (isnan(max_c) or isnan(avg_c)):
                observation = ControllerObservation(
                    time_s=time_s,
                    max_cpu_temperature_c=max_c,
                    avg_cpu_temperature_c=avg_c,
                    utilization_pct=float(executed[li]),
                    current_rpm_command=float(rpm_command[li]),
                )
                wanted = controller.decide(observation)
                if wanted is not None and wanted != rpm_command[li]:
                    rpm_command[li] = engine._validated_command(
                        lo + int(li), wanted
                    )
                # Coordinated controllers additionally command a
                # p-state, polled on the same cadence and in the same
                # order as the single-server runner.
                decide_pstate = decide_pstate_fns[li]
                if decide_pstate is not None:
                    wanted_pstate = decide_pstate(observation)
                    if wanted_pstate is not None:
                        set_pstate(
                            int(li),
                            engine._validated_pstate(
                                lo + int(li), int(wanted_pstate)
                            ),
                        )
            # Advance past the current time: with dt_s larger than the
            # poll interval a single increment would let the poll clock
            # fall unboundedly behind.
            while time_s >= next_poll[li] - POLL_EPS_S:
                next_poll[li] += controller.poll_interval_s
        self.next_poll_due = next_poll.min()
