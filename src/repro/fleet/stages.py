"""The per-tick stages of the fleet tick, shared by every backend.

Every fleet backend runs the same sequence per tick: CRAC supply →
recirculation inlet → rank → assign/respill → controller poll → RC
physics → carried state.  The physics belongs to the stepper (the
vector kernel, the per-simulator reference stepper, or a shard's
kernel slice); everything around it is implemented once, here, and
shared by the ``vector``/``reference`` tick loop of
:class:`~repro.fleet.engine.FleetEngine` and by the sharded backend
(:mod:`repro.engine.sharded`):

* :class:`FleetPlacement` is the whole-fleet control plane (supply,
  coupling, ranking, fill, outage respill) and the only caller of the
  workload;
* :class:`ControllerBank` polls a contiguous slice of per-server
  controllers;
* :class:`ServerStep` is the per-server half of a tick over a slice:
  poll, fan-fault cap, physics into trace rows, critical trip, and
  the publish of the slice's :class:`FleetSummary`, the state one
  tick hands the next.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import isnan
from time import perf_counter
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.core.controllers.base import ControllerObservation, FanController
from repro.core.controllers.coordinated import CoordinatedController
from repro.core.controllers.lut import LUTController
from repro.engine.checkpoint import CheckpointError
from repro.engine.kernel import POLL_EPS_S, plan_tick_times
from repro.fleet.scheduler import (
    FleetLoadArrays,
    SchedulingDecision,
    ServerLoadView,
)
from repro.server.server import CriticalTemperatureError
from repro.server.thermal import substep_schedule
from repro.telemetry.segments import FLEET_TRACE_COLUMNS

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


#: The trace columns :meth:`FleetVectorKernel.step_into` writes, in its
#: positional order: every per-server column but the placement inlet.
STEP_OUTPUT_COLUMNS = tuple(c for c in FLEET_TRACE_COLUMNS if c != "inlet")


def raise_critical_trip(
    server: int, junction_c: float, threshold_c: float
) -> None:
    """Trip the run on *server*: the one fleet critical-trip message."""
    raise CriticalTemperatureError(
        f"server {server} junction reached {junction_c:.1f} degC "
        f"(critical threshold {threshold_c:.1f} degC)"
    )


@dataclass(eq=False)
class FleetSummary:
    """The per-server state one tick hands the next.

    What placement ranks on and the controller poll observes: one
    ``(N,)`` array per field (or a contiguous slice of one, see
    :meth:`view`), published in place by :class:`ServerStep` after
    every physics step, so the sharded backend can keep it in shared
    memory.  The leakage slope is an eager ``slope`` array in shard
    workers (the coordinator ranks without the kernels) and the lazy
    ``slope_fn`` of the stepper in-process.
    """

    exhaust_rise: np.ndarray
    executed: np.ndarray
    max_junction: np.ndarray
    leakage: np.ndarray
    pstate: np.ndarray
    slope: Optional[np.ndarray] = None
    slope_fn: Optional[Callable[[], np.ndarray]] = None

    #: The checkpointed arrays, one schema for every backend (the slope
    #: is recomputed from the restored physics).
    FIELDS = ("exhaust_rise", "executed", "max_junction", "leakage", "pstate")

    def view(self, lo: int, hi: int) -> "FleetSummary":
        """Servers ``[lo, hi)`` as views into the same storage."""
        return FleetSummary(
            *(getattr(self, name)[lo:hi] for name in self.FIELDS),
            slope=None if self.slope is None else self.slope[lo:hi],
            slope_fn=self.slope_fn,
        )

    def state_arrays(self) -> Dict[str, np.ndarray]:
        """Copies of the :attr:`FIELDS` arrays, for checkpointing."""
        return {name: np.array(getattr(self, name)) for name in self.FIELDS}

    def load_state_arrays(self, state: Dict[str, np.ndarray]) -> None:
        """Restore :meth:`state_arrays` output in place."""
        for name in self.FIELDS:
            if name not in state:
                raise CheckpointError(
                    f"checkpoint lacks the carried-state array {name!r} "
                    "(written by an older version?)"
                )
            getattr(self, name)[...] = state[name]


class FleetPlacement:
    """Supply → inlet and rank → assign → respill over the whole fleet.

    Built once per run, after any checkpoint restore has swapped in the
    engine's scheduler.  Outage ticks write their respilled work and
    fault-attributable unserved demand into the caller's ``respilled``
    / ``fault_unserved`` traces.  It is the only caller of the
    workload: demand in :meth:`assign`, the executed-work feedback of
    queue-backed workloads in :meth:`record`.
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
        self.dt_s = dt_s
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

    def place(
        self, tick: int, inlet: np.ndarray, summary: FleetSummary
    ) -> SchedulingDecision:
        """:meth:`assign` on the carried state and ``tick``'s inlet."""
        arrays = FleetLoadArrays(
            utilization_pct=summary.executed,
            max_junction_c=summary.max_junction,
            inlet_c=inlet,
            leakage_w=summary.leakage,
            pstate_index=summary.pstate,
            rack_index=self.rack_index,
            leakage_slope_w_per_c=summary.slope,
            leakage_slope_fn=summary.slope_fn,
        )
        return self.assign(tick, arrays)

    def record(self, tick: int, executed: np.ndarray) -> None:
        """Feed a queue-backed workload the work executed at ``tick``."""
        if self.totals is None:
            self.workload.record_executed(
                self.times[tick], float(executed.sum()), self.dt_s
            )


class _LUTFilter:
    """The polls at which a group of LUT controllers can act.

    The group shares one table and lockout.  ``decide`` changes
    nothing unless the table's target differs from the current command
    and the lockout has expired, so only those servers need a call.
    The bank's ``fan_clock`` mirrors each object's ``clock`` attribute
    (NaN for ``None``, which is never locked out).
    """

    clock = "_last_change_s"

    def __init__(self, members: np.ndarray, controller: Any) -> None:
        #: Bank-local indices of the group's servers, ascending.
        self.members = members
        #: The same servers as a slice when they are contiguous, so a
        #: poll with every member due reads views instead of copies.
        self.span: Any = members
        if members[-1] - members[0] + 1 == members.size:
            self.span = slice(int(members[0]), int(members[-1]) + 1)
        self.lut = controller.lut
        self.lockout_s = controller.lockout_s

    def acting(
        self,
        index: np.ndarray,
        time_s: float,
        utilization: np.ndarray,
        bank: "ControllerBank",
    ) -> np.ndarray:
        """Which servers of *index* a call would change (bool array)."""
        target = self.lut.query_many(utilization)
        locked = time_s - bank.fan_clock[index] < self.lockout_s
        return (target != bank.rpm_command[index]) & ~locked

    def refresh(self, controller: Any, li: int, bank: "ControllerBank") -> None:
        """Copy server *li*'s mirrored state from its object."""
        last = getattr(controller, self.clock)
        bank.fan_clock[li] = np.nan if last is None else last


class _CoordinatedFilter(_LUTFilter):
    """:class:`_LUTFilter` plus the p-state test of the coordinated policy.

    ``decide_pstate`` changes nothing unless its target state differs
    from the object's ``_pstate`` (mirrored in the bank's
    ``pstate_seen``).  A server is called if either test passes; the
    method whose test fails is then a pure no-op.
    """

    clock = "_last_fan_change_s"

    def __init__(self, members: np.ndarray, controller: Any) -> None:
        super().__init__(members, controller)
        self.dvfs = controller.dvfs
        self.headroom_pct = controller.headroom_pct
        self.frequency_ratio = np.array(
            [self.dvfs.frequency_ratio(i) for i in range(len(self.dvfs))]
        )

    def acting(self, index, time_s, utilization, bank) -> np.ndarray:
        current = bank.pstate_seen[index]
        demand = np.minimum(100.0, utilization * self.frequency_ratio[current])
        target = self.dvfs.slowest_states_sustaining(demand, self.headroom_pct)
        # saturated sockets hide the demand: escalate to nominal
        target[utilization >= self.headroom_pct] = 0
        fan = super().acting(index, time_s, utilization, bank)
        return fan | (target != current)

    def refresh(self, controller, li, bank) -> None:
        super().refresh(controller, li, bank)
        bank.pstate_seen[li] = controller._pstate


def _filter_key(controller: FanController) -> Optional[tuple]:
    """Group of servers whose polls one filter answers (None: no filter).

    Dispatch is on the exact type (:class:`LUTController`,
    :class:`CoordinatedController`): a subclass may change the policy,
    so it is always called.  Servers share a filter when their tables,
    lockouts (and ladders and headrooms) are equal.
    """
    kind = type(controller)
    key: tuple
    if kind is LUTController:
        key = (_LUTFilter, controller.lut, controller.lockout_s)
    elif kind is CoordinatedController:
        key = (
            _CoordinatedFilter,
            controller.lut,
            controller.lockout_s,
            controller.dvfs,
            controller.headroom_pct,
        )
    else:
        return None
    try:
        hash(key)
    except TypeError:  # a table or ladder built from lists
        return None
    return key


class ControllerBank:
    """Controllers of servers ``[lo, lo + len(controllers))``.

    Holds the per-server fan commands and poll clocks; array indices
    are local to the slice, while fan/p-state validation and sensor
    faults see the global server index ``lo + local``.  The stepper
    passed to :meth:`poll` must expose ``avg_junction_c(local_indices)``
    (all servers for ``None``) and ``set_pstates(local_indices, pstates)``.

    The controller objects are the only place a command changes.  A
    vectorized poll filter skips the calls it can prove are no-ops
    (see :class:`_LUTFilter`); every other due server is called.
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
        width = len(self.controllers)
        self.sensor_plan = None
        self.sensor_faulted: Optional[np.ndarray] = None
        if plan is not None and plan.has_sensor_faults:
            self.sensor_plan = plan
            self.sensor_faulted = plan.sensor_faulted[lo : lo + width]
        self.rpm_command = np.empty(width)
        self.next_poll = np.zeros(width)
        self.next_poll_due = 0.0
        self.poll_interval = np.array(
            [controller.poll_interval_s for controller in self.controllers],
            dtype=float,
        )
        # filter mirrors of the objects' lockout clocks and p-states
        self.fan_clock = np.full(width, np.nan)
        self.pstate_seen = np.zeros(width, dtype=np.intp)
        groups: Dict[tuple, List[int]] = {}
        # one object polled for several servers keeps order-dependent
        # state: it is always called
        uses = Counter(map(id, self.controllers))
        for li, controller in enumerate(self.controllers):
            key = _filter_key(controller)
            if key is not None and uses[id(controller)] == 1:
                groups.setdefault(key, []).append(li)
        self.filters = [
            key[0](np.array(members, dtype=np.intp), self.controllers[members[0]])
            for key, members in groups.items()
        ]
        #: The filter of each server (None: always called).
        self.filter_of: List[Optional[_LUTFilter]] = [None] * width
        for poll_filter in self.filters:
            for li in poll_filter.members.tolist():
                self.filter_of[li] = poll_filter
        # one poll's p-state changes: (server, p-state) rows, in order
        self._pstate_changes = np.empty((2, width), dtype=np.intp)

    def _refresh_filters(self) -> None:
        """Rebuild every filter mirror from the controller objects."""
        for li, poll_filter in enumerate(self.filter_of):
            if poll_filter is not None:
                poll_filter.refresh(self.controllers[li], li, self)

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
        self._refresh_filters()

    def state_arrays(self) -> Dict[str, np.ndarray]:
        """Copies of the commands and poll clocks, for checkpointing."""
        return {
            "rpm_command": self.rpm_command.copy(),
            "next_poll": self.next_poll.copy(),
            "next_poll_due": np.float64(self.next_poll_due),
        }

    def load_state_arrays(self, state: Dict[str, np.ndarray]) -> None:
        """Restore :meth:`state_arrays` output (the objects are restored)."""
        self.rpm_command[:] = state["rpm_command"]
        self.next_poll[:] = state["next_poll"]
        self.next_poll_due = float(state["next_poll_due"])
        self._refresh_filters()

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
        indexing); the junction means are read from ``physics``.
        Controllers are called in ascending server order, and only
        where a call can change a command (see the class docstring).
        """
        lo = self.lo
        engine = self.engine
        controllers = self.controllers
        decide_pstate_fns = self.decide_pstate_fns
        filter_of = self.filter_of
        rpm_command = self.rpm_command
        next_poll = self.next_poll
        interval = self.poll_interval
        due = time_s >= next_poll - POLL_EPS_S
        call = due.copy()
        max_c = max_junction_c
        avg_c = None
        if self.sensor_faulted is not None:
            faulted = np.flatnonzero(self.sensor_faulted & due)
            if faulted.size:
                max_c = max_c.copy()
                avg_c = physics.avg_junction_c().copy()
                transform = self.sensor_plan.transform_observation
                for li in faulted.tolist():
                    max_c[li], avg_c[li] = transform(
                        lo + li, time_s, float(max_c[li]), float(avg_c[li])
                    )
        all_due = due.all()
        for poll_filter in self.filters:
            if all_due:
                index = poll_filter.span
            else:
                index = poll_filter.members[due[poll_filter.members]]
            try:
                call[index] = poll_filter.acting(
                    index, time_s, executed[index], self
                )
            except ValueError:
                # an out-of-range utilization: every due member is
                # called, so the objects raise their own error in
                # server order
                pass
        called = call.nonzero()[0]
        if called.size:
            if avg_c is None:
                mean = physics.avg_junction_c(called)
            else:
                mean = avg_c[called]
            pstate_changes = self._pstate_changes
            changes = 0
            for li, hottest_c, mean_c, busy_pct, command_rpm in zip(
                called.tolist(),
                max_c[called].tolist(),
                mean.tolist(),
                executed[called].tolist(),
                rpm_command[called].tolist(),
            ):
                controller = controllers[li]
                # A dropped-out channel (NaN reading) makes the BMC
                # hold the last fan and p-state commands; the poll
                # clock still advances.  (A held server the filter
                # skipped is a no-op either way.)
                if isnan(hottest_c) or isnan(mean_c):
                    continue
                observation = ControllerObservation(
                    time_s, hottest_c, mean_c, busy_pct, command_rpm
                )
                wanted = controller.decide(observation)
                if wanted is not None and wanted != command_rpm:
                    rpm_command[li] = engine._validated_command(lo + li, wanted)
                # Coordinated controllers additionally command a
                # p-state, polled on the same cadence and in the same
                # order as the single-server runner.
                decide_pstate = decide_pstate_fns[li]
                if decide_pstate is not None:
                    wanted_pstate = decide_pstate(observation)
                    if wanted_pstate is not None:
                        pstate_changes[0, changes] = li
                        pstate_changes[1, changes] = engine._validated_pstate(
                            lo + li, int(wanted_pstate)
                        )
                        changes += 1
                poll_filter = filter_of[li]
                if poll_filter is None:
                    interval[li] = controller.poll_interval_s
                else:
                    poll_filter.refresh(controller, li, self)
            if changes:
                physics.set_pstates(*pstate_changes[:, :changes].tolist())
        # Advance past the current time: with dt_s larger than the
        # poll interval a single increment would let the poll clock
        # fall unboundedly behind.
        lag = due
        while lag.any():
            np.add(next_poll, interval, out=next_poll, where=lag)
            lag = time_s >= next_poll - POLL_EPS_S
        self.next_poll_due = next_poll.min()


class ServerStep:
    """The per-server half of one tick, over the servers of one bank.

    Polls the :class:`ControllerBank` on the carried
    :class:`FleetSummary`, caps the commands of degraded fan banks,
    steps the physics into row ``row`` of the caller's
    :data:`STEP_OUTPUT_COLUMNS` blocks (the whole-horizon trace
    in-process, a chunk buffer in a shard worker), checks the hottest
    junctions just written against their critical thresholds, and
    publishes the summary the next tick reads.  A trip calls
    ``on_trip(server, junction_c, threshold_c)`` for the first server
    over its threshold (global index); shard workers record it for the
    coordinator instead of raising.  ``timers`` are the optional
    (poll, physics) metrics-registry timers.
    """

    def __init__(
        self,
        physics: Any,
        bank: ControllerBank,
        plan: Optional["FleetFaultPlan"],
        summary: FleetSummary,
        columns: Sequence[np.ndarray],
        dt_s: float,
        on_trip: Callable[[int, float, float], None] = raise_critical_trip,
        timers: Optional[Sequence[Any]] = None,
    ) -> None:
        self.physics = physics
        self.bank = bank
        self.summary = summary
        self.columns = tuple(columns)
        self.dt_s = dt_s
        self.substeps, self.h = substep_schedule(dt_s)
        self.lo = lo = bank.lo
        self.rpm_cap: Optional[np.ndarray] = None
        if plan is not None and plan.has_fan_faults:
            self.rpm_cap = plan.rpm_cap[:, lo : lo + len(bank.controllers)]
        trip = bank.engine.trip_on_critical
        self.critical_c = physics.critical_c if trip else None
        self.on_trip = on_trip
        self.timers = timers

    def seed(self) -> None:
        """Publish the state before the first tick (idle, start temperatures)."""
        self.summary.max_junction[...], self.summary.leakage[...] = (
            self.physics.initial_views_data()
        )
        self.publish_slope()

    def publish_slope(self) -> None:
        """Refresh an eager leakage slope from the current physics state."""
        if self.summary.slope is not None:
            self.summary.slope[...] = self.physics.leakage_slope_w_per_c()

    def step(self, tick, time_s, demand_pct, inlet_c, row) -> None:
        """Poll, physics into ``row``, trip check, publish the summary."""
        bank = self.bank
        physics = self.physics
        summary = self.summary
        timers = self.timers
        if bank.due(time_s):
            if timers is not None:
                t0 = perf_counter()
            bank.poll(time_s, summary.max_junction, summary.executed, physics)
            if timers is not None:
                timers[0].add(perf_counter() - t0)

        # a degraded fan bank caps the achievable rotor speed below the
        # controller's command (the command itself is untouched)
        rpm_command = bank.rpm_command
        if self.rpm_cap is not None:
            rpm_command = np.minimum(rpm_command, self.rpm_cap[tick])

        if timers is not None:
            t0 = perf_counter()
        power, fan, junction, util, rpm, pstate, deficit = self.columns
        air_capacity, leakage_w = physics.step_into(
            self.dt_s,
            self.substeps,
            self.h,
            demand_pct,
            rpm_command,
            inlet_c,
            power[row],
            fan[row],
            junction[row],
            util[row],
            rpm[row],
            pstate[row],
            deficit[row],
        )
        critical_c = self.critical_c
        if critical_c is not None:
            over = junction[row] > critical_c
            if over.any():
                li = int(over.argmax())
                self.on_trip(
                    self.lo + li, float(junction[row, li]), float(critical_c[li])
                )

        # exhaust_temperature_rise_c, with the already-computed stream
        # heat capacity (identical expression and operands)
        np.divide(power[row], air_capacity, out=summary.exhaust_rise)
        summary.executed[...] = util[row]
        summary.max_junction[...] = junction[row]
        summary.leakage[...] = leakage_w
        summary.pstate[...] = pstate[row]
        self.publish_slope()
        if timers is not None:
            timers[1].add(perf_counter() - t0)
