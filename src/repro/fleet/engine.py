"""Lock-step multi-server simulation engine.

Steps every server in the fleet through the same tick sequence the
single-server :class:`~repro.server.server.ServerSimulator` uses:
CRAC supply → recirculation inlet → placement ranking → capacity fill
(with the outage respill) → controller polls → RC physics.  The
placement stage and the per-server step (poll, physics, carried
state) have one implementation, :mod:`repro.fleet.stages`, shared by
every backend; the backends differ only in who steps the physics.

Three backends are available:

* ``vector`` (default) — the kernelized loop: the
  :class:`~repro.engine.kernel.FleetVectorKernel` evaluates fan slew,
  airflow, the RC thermal substeps and the power decomposition as
  numpy arrays over all servers and sockets at once, persistent
  ``(N, ·)`` state arrays feed the placement policy directly
  (:meth:`~repro.fleet.scheduler.PlacementPolicy.order_indices`),
  per-tick inputs (aggregate demand, CRAC supplies) are precomputed
  for the whole horizon, and the physics writes straight into the
  preallocated trace block.  Custom view-based policies transparently
  fall back to per-tick
  :class:`~repro.fleet.scheduler.ServerLoadView` construction.
* ``reference`` — the same tick loop over one real
  :class:`ServerSimulator` per server, each deriving its inlet from its
  own :class:`RecirculationAmbient`; the independent check of the
  supply, coupling and physics arithmetic the vectorized math is
  tested against (together with the committed golden traces), the
  naive baseline of the scaling benchmark, and the backend for fleets
  with mixed socket counts.
* ``sharded`` — the ``vector`` stages partitioned across per-shard
  kernels (worker processes over shared memory, or in-process with
  ``shard_mode="inline"``) with trace columns streamed to
  memory-mapped ``.npy`` segments instead of held in RAM; traces are
  bit-identical to ``vector``.  See :mod:`repro.engine.sharded` and
  ``docs/scaling.md``.

Each server keeps its *own* controller instance (any
:class:`~repro.core.controllers.base.FanController`), polled on its own
cadence exactly as the single-server runner does.  Controllers that
additionally expose ``decide_pstate`` (the coordinated fan + DVFS
policy) have their p-state commands actuated per server: the demanded
allocation is stretched by ``f_nom / f`` into executed utilization
(numpy-batched, saturating at 100%), and the saturated remainder is
accumulated as a per-server work deficit that the fleet SLA metrics
combine with scheduler-unserved demand.  Controllers in the fleet
observe ground-truth junction temperatures and the previous tick's
executed utilization (the fleet engine trades the runner's
noisy-sensor / ``sar``-window emulation for scale).
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

if TYPE_CHECKING:  # observability taps; annotation-only imports
    from repro.obs.capture import FleetCapture
    from repro.obs.metrics import MetricsRegistry

import numpy as np

from repro.core.controllers.base import FanController
from repro.core.controllers.default import FixedSpeedController
from repro.engine.checkpoint import (
    CheckpointConfig,
    CheckpointError,
    CheckpointWriter,
    RunInterrupted,
    load_arrays,
    load_pickle,
    prune_checkpoints,
    read_manifest,
    require_fingerprint,
    resolve_checkpoint,
)
from repro.engine.kernel import FleetVectorKernel, settle_cold
from repro.fleet.faults import FaultSchedule, FleetFaultPlan
from repro.fleet.metrics import FleetMetrics, compute_fleet_metrics
from repro.fleet.scheduler import (
    FleetScheduler,
    FleetWorkload,
    RoundRobinPolicy,
)
from repro.fleet.stages import (
    STEP_OUTPUT_COLUMNS,
    ControllerBank,
    FleetPlacement,
    FleetSummary,
    ServerStep,
)
from repro.fleet.topology import Fleet, RecirculationAmbient
from repro.server.power import leakage_slope_w_per_c
from repro.server.server import ServerSimulator
from repro.telemetry.segments import (
    FLEET_SCALAR_TRACE_COLUMNS,
    FLEET_TRACE_COLUMNS,
    FLEET_TRACE_DTYPES,
)
from repro.units import airflow_heat_capacity_w_per_k
from repro.workloads.profile import UtilizationProfile

#: Checkpoint kind of the vector/reference tick loop (the run
#: fingerprint pins the backend on top of it).
_CHECKPOINT_KIND = "fleet-vector"

#: Metrics-registry timers of the tick loop: setup, then the per-tick
#: placement, poll, physics and capture phases.
_LOOP_TIMERS = (
    ("repro_fleet_setup", "Run setup: stepper build, controller reset, placement"),
    ("repro_fleet_placement", "Placement policy + scheduler assignment"),
    ("repro_fleet_control_poll", "Controller polls (fan + p-state decisions)"),
    ("repro_fleet_thermal_step", "Vectorized physics step (RC substeps + power)"),
    ("repro_fleet_trace_write", "Capture flushes into the timeseries store"),
)


class _ReferenceBackend:
    """One real :class:`ServerSimulator` per server: the naive stepper.

    Exposes the per-tick surface of
    :class:`~repro.engine.kernel.FleetVectorKernel`, so the ``reference``
    backend runs through the same tick loop as ``vector`` — but every
    server's physics, DVFS stretch and inlet arithmetic is the scalar
    simulator's own.  Each simulator derives its inlet from its own
    :class:`RecirculationAmbient`, fed the loop's recirculation offsets
    and CRAC excursions (:meth:`set_inlet_terms`), which keeps this
    backend an independent check of the supply, coupling and physics
    arithmetic.  Mixed socket counts are fine here.
    """

    #: No array state: the simulators checkpoint as objects.
    STATE_KEYS = ()

    def __init__(self, fleet: Fleet, seed: int, trip_on_critical: bool):
        self.sims: List[ServerSimulator] = [
            ServerSimulator(
                spec=spec,
                ambient=RecirculationAmbient(supply),
                seed=seed + i,
                trip_on_critical=trip_on_critical,
            )
            for i, (spec, supply) in enumerate(
                zip(fleet.servers, fleet.supply_models())
            )
        ]
        #: Per-server trip thresholds, °C (the sims also trip themselves).
        self.critical_c = np.array(
            [spec.critical_temperature_c for spec in fleet.servers]
        )

    @property
    def rpm(self) -> np.ndarray:
        """Mean rotor speed of every simulator's fan bank, RPM."""
        return np.array([sim.fans.mean_rpm for sim in self.sims])

    def set_pstates(self, server_indices, pstate_indices) -> None:
        """Switch each listed simulator to its p-state, in order."""
        for server_index, pstate_index in zip(server_indices, pstate_indices):
            self.sims[server_index].set_pstate(pstate_index)

    def force_cold_state(self, cold_start_rpm: float) -> None:
        """The experiment protocol's pre-``t = 0`` idle settle, per sim."""
        for sim in self.sims:
            settle_cold(sim, cold_start_rpm)

    def set_inlet_terms(
        self, offsets_c: np.ndarray, excursions_c: Optional[np.ndarray]
    ) -> None:
        """Install this tick's recirculation offsets and CRAC excursions.

        The sims read their inlet as ``(supply + excursion) + offset``,
        matching the loop's inlet arithmetic term for term.
        """
        for i, sim in enumerate(self.sims):
            sim.ambient.set_offset(float(offsets_c[i]))
            if excursions_c is not None:
                sim.ambient.set_excursion(float(excursions_c[i]))

    def _per_server(self, fn) -> np.ndarray:
        """``fn(sim, socket specs, junction temperatures)`` per server."""
        return np.array(
            [
                fn(sim, sim.spec.sockets, sim.thermal.state.junction_c)
                for sim in self.sims
            ]
        )

    def avg_junction_c(self, index=None) -> np.ndarray:
        """Per-server mean junction temperature, °C (of *index*, if given)."""
        sims = self.sims if index is None else [self.sims[i] for i in index]
        t_j = [sim.thermal.state.junction_c for sim in sims]
        return np.array([sum(t) / len(t) for t in t_j])

    def leakage_slope_w_per_c(self) -> np.ndarray:
        """Per-server ``dP_leak/dT_j`` summed over sockets, W/°C."""
        return self._per_server(
            lambda sim, socks, t_j: sum(
                float(leakage_slope_w_per_c(k.leak_k2_w, k.leak_k3_per_c, t))
                for k, t in zip(socks, t_j)
            )
        )

    def _leakage_w(self) -> np.ndarray:
        return self._per_server(
            lambda sim, socks, t_j: sum(
                sim.power_model.socket_leakage_w(k, t)
                for k, t in zip(socks, t_j)
            )
        )

    def initial_views_data(self):
        """(max_j, leakage_w) before the first tick."""
        return (
            self._per_server(lambda sim, socks, t_j: max(t_j)),
            self._leakage_w(),
        )

    def step_into(
        self,
        dt_s: float,
        substeps: int,
        h: float,
        demand_pct: np.ndarray,
        rpm_command: np.ndarray,
        inlet_c: np.ndarray,
        out_power: np.ndarray,
        out_fan: np.ndarray,
        out_junction: np.ndarray,
        out_util: np.ndarray,
        out_rpm: np.ndarray,
        out_pstate: np.ndarray,
        out_deficit: np.ndarray,
    ):
        """Step every simulator one tick and write the trace rows.

        ``substeps``/``h`` and ``inlet_c`` are unused: each simulator
        plans its own RC substeps and reads its inlet from its ambient.
        Returns ``(air_capacity_w_per_k, leakage_w)`` like the kernel.
        """
        airflow = np.empty(len(self.sims))
        for i, sim in enumerate(self.sims):
            demand = float(demand_pct[i])
            sim.set_fan_rpm(float(rpm_command[i]))
            index = sim.power_model.pstate_index
            # The same per-step deficit term the simulator accumulates
            # internally, surfaced per tick for the fleet traces.
            out_deficit[i] = sim.spec.dvfs.work_deficit_pct(demand, index)
            out_pstate[i] = index
            state = sim.step(dt_s, demand)
            out_power[i] = state.power.total_w
            out_fan[i] = state.power.fan_w
            out_rpm[i] = state.mean_fan_rpm
            out_util[i] = state.utilization_pct
            out_junction[i] = max(sim.thermal.state.junction_c)
            airflow[i] = sim.fans.total_airflow_cfm()
        if np.any(airflow <= 0.0):
            raise ValueError("airflow must be positive to carry exhaust heat")
        return airflow_heat_capacity_w_per_k(airflow), self._leakage_w()

    def checkpoint_state(self) -> Tuple[Dict[str, np.ndarray], object]:
        """``(arrays, objects)``: the simulators, pickled whole."""
        return {}, self.sims

    def restore_state(self, arrays, sims: List[ServerSimulator]) -> None:
        """Swap in checkpointed simulators."""
        if len(sims) != len(self.sims):
            raise CheckpointError(
                "checkpointed simulator count does not match the fleet"
            )
        self.sims = list(sims)


@dataclass
class FleetResult:
    """Traces and aggregates of one fleet run (ticks × servers)."""

    scheduler_name: str
    controller_name: str
    backend: str
    #: Tick length, s.
    dt_s: float
    #: Tick timestamps, s.
    times_s: np.ndarray
    #: Per-server wall power per tick, W.
    total_power_w: np.ndarray
    #: Per-server fan power per tick, W.
    fan_power_w: np.ndarray
    #: Hottest junction per server and tick, °C.
    max_junction_c: np.ndarray
    #: Executed (post-p-state-stretch) utilization per tick, %.
    utilization_pct: np.ndarray
    #: Per-server inlet temperature per tick, °C.
    inlet_c: np.ndarray
    #: Per-server mean fan speed per tick, RPM.
    mean_rpm: np.ndarray
    #: Demand the scheduler found no capacity for, single-server %.
    unserved_pct: np.ndarray
    #: P-state each server ran per tick (0 = nominal).
    pstate_index: np.ndarray
    #: DVFS deficit rate per tick and server, nominal percent.
    work_deficit_pct: np.ndarray
    metrics: FleetMetrics
    #: Per-tick per-server "any fault event active" mask (all False on
    #: fault-free runs).  See :mod:`repro.fleet.faults`.
    fault_active: Optional[np.ndarray] = None
    #: Work respilled off outage servers per tick, single-server %.
    respilled_pct: Optional[np.ndarray] = None
    #: Fault-attributable unserved demand per tick, single-server %.
    fault_unserved_pct: Optional[np.ndarray] = None

    @property
    def fleet_power_w(self) -> np.ndarray:
        """Summed fleet power per tick, W."""
        return self.total_power_w.sum(axis=1)

    @property
    def work_deficit_pct_s(self) -> np.ndarray:
        """Cumulative per-server DVFS deficit, %·s (ticks × servers).

        Accumulated with the same per-step additions as
        :attr:`ServerSimulator.work_deficit_pct_s`, so the N=1 trace is
        comparable bit-for-bit.
        """
        return np.cumsum(self.work_deficit_pct * self.dt_s, axis=0)

    @classmethod
    def from_traces(
        cls,
        fleet: Fleet,
        dt_s: float,
        trace: Mapping[str, np.ndarray],
        fault_active: np.ndarray,
        scheduler_name: str,
        controller_name: str,
        backend: str,
    ) -> "FleetResult":
        """Result and metrics of a finished trace block.

        *trace* maps every ``FLEET_TRACE_COLUMNS`` and
        ``FLEET_SCALAR_TRACE_COLUMNS`` name to its column: the in-RAM
        block of the tick loop or the streamed segments of the sharded
        backend.
        """
        metrics = compute_fleet_metrics(
            fleet,
            dt_s,
            trace["power"],
            trace["fan"],
            trace["junction"],
            trace["util"],
            trace["inlet"],
            trace["unserved"],
            work_deficit_pct=trace["deficit"],
            fault_active=fault_active,
            respilled_pct=trace["respilled"],
            fault_unserved_pct=trace["fault_unserved"],
        )
        return cls(
            scheduler_name=scheduler_name,
            controller_name=controller_name,
            backend=backend,
            dt_s=dt_s,
            times_s=np.arange(1, len(trace["unserved"]) + 1) * dt_s,
            total_power_w=trace["power"],
            fan_power_w=trace["fan"],
            max_junction_c=trace["junction"],
            utilization_pct=trace["util"],
            inlet_c=trace["inlet"],
            mean_rpm=trace["rpm"],
            unserved_pct=trace["unserved"],
            pstate_index=trace["pstate"],
            work_deficit_pct=trace["deficit"],
            metrics=metrics,
            fault_active=fault_active,
            respilled_pct=trace["respilled"],
            fault_unserved_pct=trace["fault_unserved"],
        )


@dataclass(frozen=True)
class FleetTickView:
    """Read-only per-tick snapshot yielded by :meth:`FleetEngine.run_stream`.

    Array fields are length-N views into the engine's trace block for
    the just-completed tick; ``time_s`` is the end-of-tick timestamp
    (the same grid as :attr:`FleetResult.times_s`).
    """

    tick: int
    time_s: float
    total_power_w: np.ndarray
    fan_power_w: np.ndarray
    max_junction_c: np.ndarray
    utilization_pct: np.ndarray
    inlet_c: np.ndarray
    mean_rpm: np.ndarray
    unserved_pct: float
    #: True for ticks re-emitted from a restored checkpoint prefix (a
    #: resumed stream replays them so consumers can rebuild derived
    #: state deterministically before live ticks arrive).
    replayed: bool = False


class FleetEngine:
    """Schedules, controls and steps N servers in lock-step."""

    def __init__(
        self,
        fleet: Fleet,
        workload: Union[FleetWorkload, UtilizationProfile],
        scheduler: Optional[FleetScheduler] = None,
        controller_factory: Optional[Callable[[int], FanController]] = None,
        backend: str = "vector",
        seed: int = 0,
        trip_on_critical: bool = True,
        cold_start: bool = False,
        cold_start_rpm: float = 3600.0,
        faults: Optional[FaultSchedule] = None,
        capture: Optional["FleetCapture"] = None,
        metrics: Optional["MetricsRegistry"] = None,
        shards: Optional[Union[int, Sequence[int]]] = None,
        trace_dir: Optional[str] = None,
        shard_mode: str = "auto",
        stream_chunk_ticks: Optional[int] = None,
        checkpoint: Optional[CheckpointConfig] = None,
        barrier_timeout_s: Optional[float] = None,
    ):
        if backend not in ("vector", "reference", "sharded"):
            raise ValueError(f"unknown backend {backend!r}")
        self.fleet = fleet
        if not isinstance(workload, FleetWorkload):
            workload = FleetWorkload(workload, fleet.server_count)
        if workload.server_count != fleet.server_count:
            raise ValueError(
                f"workload is sized for {workload.server_count} servers, "
                f"fleet has {fleet.server_count}"
            )
        # Dynamic workloads (e.g. the facility WorkloadQueue) evaluate
        # demand tick by tick against mutable queue state, which the
        # checkpoint writer does not persist — reject checkpointing up
        # front (every backend runs them).
        if workload.dynamic and checkpoint is not None:
            raise ValueError(
                "dynamic workloads cannot be checkpointed: queue state "
                "is not persisted"
            )
        self.workload = workload
        self.scheduler = (
            scheduler
            if scheduler is not None
            else FleetScheduler(RoundRobinPolicy())
        )
        if controller_factory is None:
            controller_factory = lambda index: FixedSpeedController()
        self.controllers: List[FanController] = [
            controller_factory(i) for i in range(fleet.server_count)
        ]
        self.backend = backend
        # Sharded-execution knobs (see repro.engine.sharded): the shard
        # partition, the streamed-trace directory (None = temporary),
        # the worker mode, and the spill-chunk length.  Validated here
        # so a bad partition fails at construction, not mid-run.
        if backend != "sharded" and (
            shards is not None
            or trace_dir is not None
            or stream_chunk_ticks is not None
        ):
            raise ValueError(
                "shards / trace_dir / stream_chunk_ticks require "
                f"backend='sharded', engine uses {backend!r}"
            )
        if shard_mode not in ("auto", "process", "inline"):
            raise ValueError(f"unknown shard_mode {shard_mode!r}")
        if stream_chunk_ticks is not None and int(stream_chunk_ticks) < 1:
            raise ValueError("stream_chunk_ticks must be >= 1")
        if shards is not None:
            from repro.telemetry.segments import partition_servers

            partition_servers(fleet.server_count, shards)
        if barrier_timeout_s is not None:
            if backend != "sharded":
                raise ValueError(
                    "barrier_timeout_s requires backend='sharded', "
                    f"engine uses {backend!r}"
                )
            if not float(barrier_timeout_s) > 0.0:
                raise ValueError("barrier_timeout_s must be positive")
        if checkpoint is not None and not isinstance(
            checkpoint, CheckpointConfig
        ):
            raise TypeError(
                "checkpoint must be a CheckpointConfig, got "
                f"{type(checkpoint).__name__}"
            )
        self.shards = shards
        self.trace_dir = trace_dir
        self.shard_mode = shard_mode
        self.stream_chunk_ticks = stream_chunk_ticks
        self.barrier_timeout_s = (
            float(barrier_timeout_s) if barrier_timeout_s is not None else None
        )
        #: Periodic run-state checkpointing (None = disabled); see
        #: :mod:`repro.engine.checkpoint` and ``docs/resilience.md``.
        self.checkpoint = checkpoint
        #: Last committed checkpoint of the current/most recent run.
        self.last_checkpoint_path = None
        #: Tick the most recent run resumed from (0 = started fresh).
        self.last_resume_tick = 0
        self._stop_requested = False
        self._checkpoint_requested = False
        #: Wall-clock / RSS figures of the most recent sharded run
        #: (None until one completes; see repro.engine.sharded).
        self.last_run_stats: Optional[Dict[str, object]] = None
        self.seed = seed
        self.trip_on_critical = trip_on_critical
        if cold_start:
            index = fleet.first_outside_fan_range(
                np.full(fleet.server_count, cold_start_rpm)
            )
            if index is not None:
                fan = fleet.servers[index].fan
                raise ValueError(
                    f"server {index}: cold_start_rpm {cold_start_rpm} "
                    f"outside supported range "
                    f"[{fan.rpm_min}, {fan.rpm_max}]"
                )
        self.cold_start = cold_start
        self.cold_start_rpm = float(cold_start_rpm)
        if faults is not None and not isinstance(faults, FaultSchedule):
            raise TypeError(
                f"faults must be a FaultSchedule, got {type(faults).__name__}"
            )
        if faults is not None:
            faults.validate_for(fleet)
        self.faults = faults
        # Observability taps (see repro.obs): both default to None and
        # cost nothing when absent.  ``capture`` streams trace rows
        # into a timeseries store at chunk granularity; ``metrics``
        # receives per-phase timers from the kernel loop.
        self.capture = capture
        self.metrics = metrics
        #: Result of the most recent completed run (set by ``run`` and
        #: by exhausting :meth:`run_stream`).
        self.last_result: Optional[FleetResult] = None

    # ------------------------------------------------------------------
    def _make_stepper(self):
        if self.backend == "vector":
            return FleetVectorKernel(self.fleet, metrics=self.metrics)
        return _ReferenceBackend(self.fleet, self.seed, self.trip_on_critical)

    def _validated_command(self, index: int, rpm: float) -> float:
        fleet = self.fleet
        if not fleet.fan_rpm_min[index] <= rpm <= fleet.fan_rpm_max[index]:
            fan = fleet.servers[index].fan
            raise ValueError(
                f"server {index}: rpm {rpm} outside supported range "
                f"[{fan.rpm_min}, {fan.rpm_max}]"
            )
        return float(rpm)

    def _validated_pstate(self, index: int, pstate: int) -> int:
        ladder_length = self.fleet.pstate_count[index]
        if not 0 <= pstate < ladder_length:
            raise ValueError(
                f"server {index}: p-state {pstate} outside the "
                f"{ladder_length}-state ladder"
            )
        return int(pstate)

    def _controller_label(self) -> str:
        """The controllers' common name, or ``"mixed"``."""
        names = {controller.name for controller in self.controllers}
        return names.pop() if len(names) == 1 else "mixed"

    # ------------------------------------------------------------------
    # checkpoint / cooperative-stop plumbing
    # ------------------------------------------------------------------
    def request_stop(self) -> None:
        """Ask the running loop to stop at the next tick boundary.

        With checkpointing configured the loop writes a final
        checkpoint first, then raises
        :class:`~repro.engine.checkpoint.RunInterrupted` carrying its
        path; without, it raises immediately.  Safe to call from a
        signal handler.
        """
        self._stop_requested = True

    def request_checkpoint(self) -> None:
        """Ask the running loop for an off-cadence checkpoint."""
        self._checkpoint_requested = True

    def _run_fingerprint(
        self, dt_s: float, steps: int, kind: str
    ) -> Dict[str, object]:
        """JSON-able run identity pinned into checkpoint manifests."""
        return {
            "kind": kind,
            "backend": self.backend,
            "server_count": self.fleet.server_count,
            "steps": int(steps),
            "dt_s": float(dt_s),
            "seed": self.seed,
            "scheduler": self.scheduler.name,
            "controllers": sorted({c.name for c in self.controllers}),
            "cold_start": bool(self.cold_start),
            "fault_events": len(self.faults.events)
            if self.faults is not None
            else 0,
        }

    def _write_run_checkpoint(
        self,
        kind: str,
        tick: int,
        dt_s: float,
        steps: int,
        plan: Optional[FleetFaultPlan],
        trace: Dict[str, np.ndarray],
        state: Dict[str, np.ndarray],
        physics_objects: object = None,
    ):
        """Commit one atomic checkpoint after ``tick`` completed ticks."""
        cfg = self.checkpoint
        writer = CheckpointWriter(cfg.root, tick)
        writer.arrays("state", state)
        writer.arrays("trace", {name: trace[name][:tick] for name in trace})
        writer.pickle(
            "control",
            {
                "controllers": self.controllers,
                "scheduler": self.scheduler,
                "sensor_channels": plan.sensor_channels
                if plan is not None
                else None,
                "physics": physics_objects,
            },
        )
        path = writer.commit(kind, self._run_fingerprint(dt_s, steps, kind))
        prune_checkpoints(cfg.root, cfg.keep)
        self.last_checkpoint_path = path
        self._checkpoint_requested = False
        return path

    def _load_run_checkpoint(
        self,
        resume_from,
        kind: str,
        dt_s: float,
        steps: int,
        plan: Optional[FleetFaultPlan],
        trace: Dict[str, np.ndarray],
    ):
        """Restore a tick-loop checkpoint; returns (tick, state, objects).

        Verifies payload checksums and the run fingerprint, refills the
        trace prefix, and swaps in the pickled controllers, scheduler
        and stateful fault-sensor channels.  ``objects`` is the
        stepper's pickled object state (None for the kernel).
        """
        directory = resolve_checkpoint(resume_from)
        manifest = read_manifest(directory)
        if manifest.get("kind") != kind:
            raise CheckpointError(
                f"checkpoint at {directory} is a {manifest.get('kind')!r} "
                f"checkpoint, this run needs {kind!r}"
            )
        require_fingerprint(
            manifest, self._run_fingerprint(dt_s, steps, kind)
        )
        tick = int(manifest["tick"])
        if not 0 < tick < steps:
            raise CheckpointError(
                f"checkpoint tick {tick} outside the run's 1..{steps - 1}"
            )
        state = load_arrays(directory, "state")
        saved_trace = load_arrays(directory, "trace")
        for name in trace:
            trace[name][:tick] = saved_trace[name]
        control = load_pickle(directory, "control")
        self.controllers = list(control["controllers"])
        if len(self.controllers) != self.fleet.server_count:
            raise CheckpointError(
                "checkpointed controller count does not match the fleet"
            )
        self.scheduler = control["scheduler"]
        channels = control["sensor_channels"]
        if plan is not None and channels is not None:
            plan.sensor_channels[:] = channels
        self.last_resume_tick = tick
        # until a newer checkpoint commits, the resumed-from one is
        # still the right restart point after another interruption
        self.last_checkpoint_path = directory
        return tick, state, control.get("physics")

    def _prepare_run(
        self,
        dt_s: float,
        duration_s: Optional[float],
        resume_from,
    ) -> Tuple[int, Optional[FleetFaultPlan]]:
        """The run preamble shared by every backend: ``(steps, plan)``.

        Validates the tick grid, resets the workload and the stop /
        checkpoint flags, and compiles the fault schedule once, on the
        engine's exact tick grid — every backend sees the same mask
        arrays, so none can disagree about event timing.  An empty
        schedule compiles to None: the loop then takes the identical
        fault-free path a run without a schedule takes.
        """
        if dt_s <= 0:
            raise ValueError("dt_s must be positive")
        if duration_s is None:
            duration_s = self.workload.duration_s
        steps = int(round(duration_s / dt_s))
        if steps <= 0:
            raise ValueError("workload too short for the configured dt_s")
        if self.workload.dynamic and resume_from is not None:
            raise ValueError(
                "dynamic workloads cannot resume from a checkpoint"
            )
        self.workload.reset()
        plan = (
            self.faults.compile(self.fleet, steps, dt_s)
            if self.faults is not None
            else None
        )
        self._stop_requested = False
        self._checkpoint_requested = False
        self.last_resume_tick = 0
        if resume_from is None:
            self.last_checkpoint_path = None
        return steps, plan

    def run(
        self,
        dt_s: float = 1.0,
        duration_s: Optional[float] = None,
        resume_from=None,
    ) -> FleetResult:
        """Run the whole scenario and return traces plus metrics.

        The ``vector`` and ``reference`` backends drain the tick stream
        of :meth:`run_stream`; the ``sharded`` backend partitions the
        same per-tick stages across shard workers with streamed traces
        (bit-identical to ``vector``, see :mod:`repro.engine.sharded`).
        """
        if self.backend == "sharded":
            from repro.engine.sharded import run_sharded

            steps, plan = self._prepare_run(dt_s, duration_s, resume_from)
            self.last_result = run_sharded(
                self, dt_s, steps, plan, resume_from
            )
            return self.last_result
        for _ in self.run_stream(dt_s, duration_s, resume_from):
            pass
        assert self.last_result is not None
        return self.last_result

    def run_stream(
        self,
        dt_s: float = 1.0,
        duration_s: Optional[float] = None,
        resume_from=None,
    ) -> Iterator["FleetTickView"]:
        """Incrementally run the scenario, yielding one view per tick.

        The tick loop behind :meth:`run` for the ``vector`` and
        ``reference`` backends (identical traces), with control
        returned to the caller after every tick — the live telemetry
        service paces this generator against wall clock.  After
        exhaustion the full :class:`FleetResult` is available as
        :attr:`last_result`.

        The yielded arrays are views into the engine's trace block:
        read them, never write them.
        """
        if self.backend == "sharded":
            raise ValueError(
                "run_stream requires the 'vector' or 'reference' backend, "
                f"engine uses {self.backend!r}"
            )
        steps, plan = self._prepare_run(dt_s, duration_s, resume_from)
        trace = self._alloc_traces(steps)

        def stream() -> Iterator[FleetTickView]:
            for tick, time_s in self._kernel_tick_stream(
                dt_s, steps, plan, trace, resume_from
            ):
                yield FleetTickView(
                    tick=tick,
                    time_s=time_s,
                    total_power_w=trace["power"][tick],
                    fan_power_w=trace["fan"][tick],
                    max_junction_c=trace["junction"][tick],
                    utilization_pct=trace["util"][tick],
                    inlet_c=trace["inlet"][tick],
                    mean_rpm=trace["rpm"][tick],
                    unserved_pct=float(trace["unserved"][tick]),
                    replayed=tick < self.last_resume_tick,
                )
            if plan is not None:
                fault_active = plan.fault_active
            else:
                fault_active = np.zeros(trace["power"].shape, dtype=bool)
            self.last_result = FleetResult.from_traces(
                self.fleet,
                dt_s,
                trace,
                fault_active,
                scheduler_name=self.scheduler.name,
                controller_name=self._controller_label(),
                backend=self.backend,
            )

        return stream()

    # ------------------------------------------------------------------
    # traces
    # ------------------------------------------------------------------
    def _alloc_traces(self, steps: int) -> Dict[str, np.ndarray]:
        """Preallocate the whole-horizon trace block for one run."""
        n = self.fleet.server_count
        trace = {
            name: np.empty((steps, n), dtype=FLEET_TRACE_DTYPES[name])
            for name in FLEET_TRACE_COLUMNS
        }
        trace.update(
            (name, np.zeros(steps)) for name in FLEET_SCALAR_TRACE_COLUMNS
        )
        return trace

    # ------------------------------------------------------------------
    # the tick loop (backends "vector" and "reference")
    # ------------------------------------------------------------------
    def _kernel_tick_stream(
        self,
        dt_s: float,
        steps: int,
        plan: Optional[FleetFaultPlan],
        trace: Dict[str, np.ndarray],
        resume_from=None,
    ) -> Iterator[tuple]:
        """The per-tick loop, yielding ``(tick, time_s)``.

        Single implementation behind both :meth:`run` (which drains
        it) and :meth:`run_stream`, on either stepper; the yield sits
        after the tick's trace rows are final.  ``time_s`` in the
        yielded pair is the *end-of-tick* timestamp, matching
        ``FleetResult.times_s``.

        With ``resume_from`` the restored ticks are re-yielded first
        (their trace rows come from the checkpoint), then the loop
        continues from the checkpointed tick with restored stepper,
        controller, scheduler and fault-channel state — the completed
        trace is bit-identical to an uninterrupted run.
        """
        start_tick = 0
        restored = None
        if resume_from is not None:
            start_tick, restored, physics_objects = self._load_run_checkpoint(
                resume_from, _CHECKPOINT_KIND, dt_s, steps, plan, trace
            )
        setup_t0 = perf_counter()
        physics = self._make_stepper()
        if restored is not None:
            physics.restore_state(
                {key: restored[f"kernel_{key}"] for key in physics.STATE_KEYS},
                physics_objects,
            )
        elif self.cold_start:
            physics.force_cold_state(self.cold_start_rpm)
        # the reference stepper derives each inlet itself, from the
        # loop's offsets and excursions; the kernel takes the inlet
        feed_inlet_terms = getattr(physics, "set_inlet_terms", None)
        timers = None
        if self.metrics is not None:
            setup_timer, *timers = (
                self.metrics.timer(name, text) for name, text in _LOOP_TIMERS
            )
        bank = ControllerBank(self, self.controllers, plan)
        placement = FleetPlacement(
            self,
            dt_s,
            steps,
            plan,
            trace["respilled"],
            trace["fault_unserved"],
        )
        # the leakage slope only feeds leakage-aware rankings / view
        # fallbacks — computed lazily from the pre-step fleet state
        n = self.fleet.server_count
        summary = FleetSummary(
            *(np.zeros(n) for _ in range(4)),
            np.zeros(n, dtype=np.int64),
            slope_fn=physics.leakage_slope_w_per_c,
        )
        server_step = ServerStep(
            physics,
            bank,
            plan,
            summary,
            [trace[name] for name in STEP_OUTPUT_COLUMNS],
            dt_s,
            timers=timers[1:3] if timers is not None else None,
        )
        if restored is not None:
            bank.load_state_arrays(restored)
            summary.load_state_arrays(restored)
        else:
            self.scheduler.reset()
            bank.reset(physics.rpm)
            server_step.seed()
        if self.metrics is not None:
            setup_timer.add(perf_counter() - setup_t0)
        trace_inlet = trace["inlet"]
        trace_unserved = trace["unserved"]

        # Observability tap (None in plain batch runs).  On resume the
        # restored prefix is replayed into it before the replayed ticks
        # are yielded, so the store is whole when consumers see them.
        capture = self.capture
        times_rec = np.arange(1, steps + 1) * dt_s
        if capture is not None:
            capture.bind(n)
            capture.flush_through(
                start_tick, steps, times_rec, trace, trace_unserved
            )

        ckpt_cfg = self.checkpoint
        ckpt_every = ckpt_cfg.every_ticks(dt_s) if ckpt_cfg is not None else 0

        for tick in range(start_tick):
            yield tick, times_rec[tick]

        for tick in range(start_tick, steps):
            time_s = placement.times[tick]
            inlet, offsets = placement.inlet(tick, summary.exhaust_rise)
            if feed_inlet_terms is not None:
                feed_inlet_terms(
                    offsets,
                    plan.supply_delta[tick] if placement.excursions else None,
                )

            if timers is not None:
                _t0 = perf_counter()
            decision = placement.place(tick, inlet, summary)
            if timers is not None:
                timers[0].add(perf_counter() - _t0)

            server_step.step(
                tick, time_s, decision.allocations_pct, inlet, tick
            )
            trace_inlet[tick] = inlet
            trace_unserved[tick] = decision.unserved_pct
            if timers is not None:
                _t0 = perf_counter()
            placement.record(tick, summary.executed)
            if timers is not None:
                timers[2].add(perf_counter() - _t0)

            if capture is not None:
                if timers is not None:
                    _t0 = perf_counter()
                capture.flush_through(
                    tick + 1, steps, times_rec, trace, trace_unserved
                )
                if timers is not None:
                    timers[3].add(perf_counter() - _t0)

            if (
                ckpt_cfg is not None
                and tick + 1 < steps
                and (
                    (tick + 1) % ckpt_every == 0
                    or self._checkpoint_requested
                    or self._stop_requested
                )
            ):
                arrays, objects = physics.checkpoint_state()
                state = {f"kernel_{key}": value for key, value in arrays.items()}
                state.update(bank.state_arrays())
                state.update(summary.state_arrays())
                self._write_run_checkpoint(
                    _CHECKPOINT_KIND,
                    tick + 1,
                    dt_s,
                    steps,
                    plan,
                    trace,
                    state,
                    objects,
                )
            if self._stop_requested and tick + 1 < steps:
                raise RunInterrupted(
                    f"fleet run stopped at tick {tick + 1}/{steps}",
                    self.last_checkpoint_path,
                )

            yield tick, times_rec[tick]

        self._record_run_metrics(steps, dt_s)

    def _record_run_metrics(self, steps: int, dt_s: float) -> None:
        """Tick and simulated-time counters of a completed run."""
        if self.metrics is not None:
            self.metrics.counter(
                "repro_fleet_ticks_total", "Fleet engine ticks executed"
            ).inc(steps)
            self.metrics.gauge(
                "repro_fleet_sim_time_seconds", "Simulated seconds completed"
            ).set(steps * dt_s)
