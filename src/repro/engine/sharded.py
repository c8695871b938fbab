"""Sharded fleet execution: per-shard kernels, streamed trace segments.

The ``vector`` backend of :class:`~repro.fleet.engine.FleetEngine` runs
one :class:`~repro.engine.kernel.FleetVectorKernel` over all N servers
in a single process and keeps every ``(steps, N)`` trace column in RAM.
This module is the ``sharded`` backend: the fleet is partitioned into
contiguous server slices, each owned by a worker that runs its own
kernel slice and spills its trace rows to the memory-mapped ``.npy``
segments of :mod:`repro.telemetry.segments`, while the coordinator
keeps the whole control plane — CRAC supplies, the recirculation
coupling, the placement policy's single global ranking and fill, and
fault attribution.

Bit-identity with ``vector`` holds by construction, not by tolerance:

* Every per-server physics expression in the kernel is elementwise or
  a per-row (per-server) reduction, so evaluating it over a contiguous
  row slice produces bit-identical results.
* The only cross-server couplings — the ``coupling @ exhaust_rise``
  recirculation product and the scheduler's ranked fill — stay on the
  coordinator, evaluated over the same gathered full-width arrays by
  the very code the single-process loop runs
  (:class:`~repro.fleet.stages.FleetPlacement`).
* Controllers, poll clocks and stateful sensor-fault channels are
  partitioned with their servers and polled by the shared
  :class:`~repro.fleet.stages.ControllerBank` at the shard's slice
  offset; no per-server state is ever touched by two shards.

Per tick the coordinator and the k workers exchange exactly O(N)
values through shared memory: each worker publishes its slice of the
carried :class:`~repro.fleet.stages.FleetSummary` (exhaust rise,
executed utilization, hottest junction, leakage and its slope,
p-state), the coordinator publishes the inlet vector and the placement
allocations.  The coordinator's placement stage is the only caller of
the workload, so queue-backed (dynamic) workloads run here exactly as
in the ``vector`` loop.  Two barriers sequence each tick:

.. code-block:: text

   coordinator                      workers (x k)
   -----------                      -------------
   trip check / capture flush
   supply + coupling + schedule
   publish inlet, allocations
   request checkpoint cut?
   ---------- barrier "go" ------------------------
                                    ServerStep over [lo, hi):
                                      poll controllers
                                      fan-fault rpm cap
                                      inlet, step_into -> chunk buffer
                                      trip check -> trip flags
                                      publish FleetSummary slice
                                    spill chunk at boundary
                                    snapshot slice if cut requested
   ---------- barrier "done" ----------------------
   record executed work (queue)
   seal + commit checkpoint

Worker processes are forked (the ``process`` mode requires the
``fork`` start method; ``inline`` drives the same shard objects
sequentially in-process and is the default fallback), so controllers,
specs and the compiled fault plan are inherited copy-on-write without
pickling.  Critical-temperature trips are reported through shared trip
flags and re-raised by the coordinator with the globally-first server
index — the same server, message and exception type as ``vector``.

Checkpoints are a *consistent cut*: the coordinator announces the cut
tick through shared memory before the "go" barrier, every worker
snapshots its slice right after stepping that tick (a spill boundary,
so all trace rows below the cut are already durable on disk), and the
coordinator seals the checksummed manifest after the "done" barrier.
A supervisor wraps the process driver: worker death (detected by a
sentinel watcher that breaks the barriers immediately instead of
waiting out the timeout) is classified as restartable, and the run is
rebuilt from the latest checkpoint with bounded retries and
exponential backoff.  Barrier timeouts scale with the fleet size and
are overridable per engine or via ``REPRO_BARRIER_TIMEOUT_S``.

In ``process`` mode the coordinator's copies of the per-server
controller objects are *not* mutated (each worker advances its own
inherited copies), and the per-phase loop timers of the metrics
registry are not populated (tick counters and simulated-time gauges
are).  Traces land under ``trace_dir`` and are reassembled lazily by
:class:`~repro.telemetry.segments.FleetTraceReader`; when no directory
is given a temporary one is used and the result is materialized to RAM
before cleanup.
"""

from __future__ import annotations

import multiprocessing
import os
import resource
import shutil
import sys
import tempfile
from math import gcd
from multiprocessing.connection import wait as _sentinel_wait
from threading import BrokenBarrierError, Event, Thread
from time import monotonic, perf_counter, sleep
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.engine.checkpoint import (
    CheckpointConfig,
    CheckpointError,
    CheckpointWriter,
    RunInterrupted,
    latest_checkpoint,
    load_arrays,
    load_pickle,
    prune_checkpoints,
    read_manifest,
    require_fingerprint,
    resolve_checkpoint,
    save_arrays,
    save_pickle,
    staging_dir_for_tick,
)
from repro.engine.kernel import FleetVectorKernel, plan_tick_times
from repro.fleet.stages import (
    STEP_OUTPUT_COLUMNS,
    ControllerBank,
    FleetPlacement,
    FleetSummary,
    ServerStep,
    raise_critical_trip,
)
from repro.telemetry.segments import (
    FLEET_SCALAR_TRACE_COLUMNS,
    FLEET_TRACE_COLUMNS,
    FLEET_TRACE_DTYPES,
    FleetTraceReader,
    ShardedTraceWriter,
    ShardTraceWriter,
    default_chunk_ticks,
    partition_servers,
)

if TYPE_CHECKING:  # annotation-only; avoids an import cycle at runtime
    from repro.fleet.engine import FleetEngine, FleetResult
    from repro.fleet.faults import FleetFaultPlan

#: Barrier timeout floor, s: even a tiny fleet gets a minute per tick
#: before a silent worker fails the run.
_BARRIER_TIMEOUT_FLOOR_S = 60.0

#: Barrier timeout growth, s per server: 0.006 s x 100k servers = the
#: 600 s budget the previously fixed timeout granted the largest drill.
_BARRIER_TIMEOUT_PER_SERVER_S = 0.006

#: Chaos-test seams (set by tests, inherited over ``fork``): called as
#: ``hook(shard_id, tick)`` in each worker right before it steps, and
#: ``hook(tick)`` on the coordinator right after each tick completes.
CHAOS_WORKER_HOOK: Optional[Callable[[int, int], None]] = None
CHAOS_COORDINATOR_HOOK: Optional[Callable[[int], None]] = None


def default_barrier_timeout_s(server_count: int) -> float:
    """Per-tick barrier budget scaled with the fleet size."""
    return max(
        _BARRIER_TIMEOUT_FLOOR_S,
        _BARRIER_TIMEOUT_PER_SERVER_S * int(server_count),
    )


def resolve_barrier_timeout_s(
    engine: "FleetEngine", server_count: int
) -> float:
    """Engine override > ``REPRO_BARRIER_TIMEOUT_S`` > scaled default."""
    if engine.barrier_timeout_s is not None:
        return float(engine.barrier_timeout_s)
    env = os.environ.get("REPRO_BARRIER_TIMEOUT_S")
    if env:
        try:
            value = float(env)
        except ValueError:
            raise ValueError(
                f"REPRO_BARRIER_TIMEOUT_S must be a number, got {env!r}"
            ) from None
        if not value > 0.0:
            raise ValueError("REPRO_BARRIER_TIMEOUT_S must be positive")
        return value
    return default_barrier_timeout_s(server_count)


class ShardCrashError(RuntimeError):
    """A sharded run failed below the coordinator.

    ``restartable`` distinguishes a worker that *died* (killed, OOM,
    wedged past the barrier timeout — worth restarting from the last
    checkpoint) from one that *raised* (a deterministic error that
    would simply recur on replay).
    """

    def __init__(self, message: str, restartable: bool = False) -> None:
        super().__init__(message)
        self.restartable = restartable


def _subfleet(fleet: Any, lo: int, hi: int) -> Any:
    """Servers ``[lo, hi)`` as a standalone :class:`Fleet`.

    Rack fragments keep their name, CRAC supply setpoint and CRAC
    model, so per-server supply temperatures are bit-identical to the
    full fleet's slice.  Recirculation is dropped — shard kernels never
    evaluate the coupling (the coordinator owns it).
    """
    from repro.fleet.topology import Fleet, Rack

    racks = []
    base = 0
    for rack in fleet.racks:
        count = len(rack.servers)
        a = max(lo, base)
        b = min(hi, base + count)
        if a < b:
            racks.append(
                Rack(
                    name=rack.name,
                    servers=tuple(rack.servers[a - base : b - base]),
                    crac_supply_c=rack.crac_supply_c,
                    crac=rack.crac,
                )
            )
        base += count
    return Fleet(racks=racks)


class _SharedBlock:
    """The O(N) cross-process exchange arrays for one sharded run.

    Backed by ``multiprocessing.RawArray`` buffers in ``process`` mode
    (anonymous shared memory inherited over ``fork``) and by plain
    numpy arrays in ``inline`` mode; either way the coordinator and the
    workers see the same storage through numpy views.
    """

    def __init__(self, n: int, shard_count: int, ctx: Any = None) -> None:
        def f64(size: int) -> np.ndarray:
            if ctx is None:
                return np.zeros(size)
            return np.frombuffer(ctx.RawArray("d", size))

        def i64(size: int) -> np.ndarray:
            if ctx is None:
                return np.zeros(size, dtype=np.int64)
            return np.frombuffer(ctx.RawArray("q", size), dtype=np.int64)

        #: The carried state, full width: each worker publishes its
        #: slice after every step (with an eager leakage slope, since
        #: the coordinator ranks without the kernels).
        self.summary = FleetSummary(
            f64(n), f64(n), f64(n), f64(n), i64(n), slope=f64(n)
        )
        #: Coordinator-published per-tick inputs, full width.
        self.inlet = f64(n)
        self.allocations = f64(n)
        #: Per-shard critical-trip reports, rows of (server, junction
        #: degC, threshold degC) with server -1 for none, and the
        #: cooperative stop flag.
        self.trips = f64(3 * shard_count).reshape(shard_count, 3)
        self.trips[:, 0] = -1
        self.stop = i64(1)
        #: Supervision: per-shard completed-tick watermark and the
        #: wall-clock of each worker's last sign of life.
        self.progress = i64(shard_count)
        self.heartbeat = f64(shard_count)
        #: Checkpoint protocol: the cut tick every worker must snapshot
        #: after stepping (0 = no cut pending).
        self.ckpt_tick = i64(1)


class _ShardWorker:
    """One shard: kernel slice, controllers ``[lo, hi)``, trace spills.

    :meth:`step` runs the ``vector`` loop's
    :class:`~repro.fleet.stages.ServerStep` over the shard's slice —
    poll, fan cap, physics into the chunk buffer, trip check, publish
    of its slice of the shared :class:`~repro.fleet.stages.FleetSummary`
    — and spills the buffer at chunk boundaries.  A critical trip is
    recorded in the shared trip flags instead of raised.
    """

    def __init__(
        self,
        engine: "FleetEngine",
        shard_id: int,
        lo: int,
        hi: int,
        shared: _SharedBlock,
        plan: Optional["FleetFaultPlan"],
        dt_s: float,
        steps: int,
        writer: ShardTraceWriter,
        chunk_ticks: int,
        times: List[float],
        barrier_timeout_s: float = _BARRIER_TIMEOUT_FLOOR_S,
        checkpoint_root: Optional[str] = None,
        resume_dir: Optional[str] = None,
        start_tick: int = 0,
    ) -> None:
        self.engine = engine
        self.shard_id = shard_id
        self.lo = lo
        self.hi = hi
        self.shared = shared
        self.plan = plan
        self.dt_s = dt_s
        self.steps = steps
        self.writer = writer
        self.chunk_ticks = chunk_ticks
        self.times = times
        self.barrier_timeout_s = barrier_timeout_s
        self.checkpoint_root = checkpoint_root
        self.resume_dir = resume_dir
        self.start_tick = start_tick

    @property
    def _shard_name(self) -> str:
        return f"shard-{self.shard_id:04d}"

    def setup(self) -> None:
        """Build the shard kernel; cold-start or restore its state."""
        engine = self.engine
        lo, hi = self.lo, self.hi
        width = hi - lo
        kernel = FleetVectorKernel(_subfleet(engine.fleet, lo, hi))
        self.kernel = kernel
        state = None
        if self.resume_dir is None:
            controllers = engine.controllers[lo:hi]
            if engine.cold_start:
                kernel.force_cold_state(engine.cold_start_rpm)
        else:
            state = load_arrays(self.resume_dir, self._shard_name)
            kernel.load_state_arrays(
                {
                    key: state[f"kernel_{key}"]
                    for key in FleetVectorKernel.STATE_KEYS
                }
            )
            control = load_pickle(self.resume_dir, self._shard_name)
            controllers = list(control["controllers"])
            if len(controllers) != width:
                raise CheckpointError(
                    f"checkpoint shard {self.shard_id} holds "
                    f"{len(controllers)} controllers, expected {width}"
                )
            channels = control["sensor_channels"]
            if self.plan is not None and channels is not None:
                self.plan.sensor_channels[lo:hi] = channels
        self.bank = ControllerBank(engine, controllers, self.plan, lo)

        # chunk buffers: the only O(chunk x width) state a worker holds
        self._buffers = {
            name: np.empty(
                (self.chunk_ticks, width), dtype=FLEET_TRACE_DTYPES[name]
            )
            for name in FLEET_TRACE_COLUMNS
        }
        self._chunk_start = self.start_tick
        self._allocations = self.shared.allocations[lo:hi]
        self._inlet = self.shared.inlet[lo:hi]
        self._buf_inlet = self._buffers["inlet"]
        self.server_step = ServerStep(
            kernel,
            self.bank,
            self.plan,
            self.shared.summary.view(lo, hi),
            [self._buffers[name] for name in STEP_OUTPUT_COLUMNS],
            self.dt_s,
            on_trip=self._record_trip,
        )
        if state is None:
            self.bank.reset(kernel.rpm)
            self.server_step.seed()
        else:
            self.bank.load_state_arrays(state)
            # the coordinator restored the checkpointed summary before
            # any worker ran; the eager slope is recomputed from the
            # restored kernel (the same post-step junctions)
            self.server_step.publish_slope()

    def step(self, tick: int) -> None:  # reprolint: hot
        """One tick over the shard slice: server step, then spill."""
        row = tick - self._chunk_start
        self._buf_inlet[row] = self._inlet
        self.server_step.step(
            tick, self.times[tick], self._allocations, self._inlet, row
        )
        if tick + 1 - self._chunk_start >= self.chunk_ticks or (
            tick + 1 == self.steps
        ):
            self._spill(tick + 1)

    def _record_trip(self, *trip: float) -> None:
        """Report ``(server, junction_c, threshold_c)`` to the coordinator."""
        self.shared.trips[self.shard_id] = trip

    def mark_progress(self, tick: int) -> None:
        """Publish the completed-tick watermark and a heartbeat."""
        self.shared.progress[self.shard_id] = tick + 1
        self.shared.heartbeat[self.shard_id] = monotonic()

    def maybe_checkpoint(self, tick: int) -> None:
        """Snapshot this slice if a cut is announced for ``tick + 1``.

        Called right after :meth:`step` every tick; the fast path is a
        pair of scalar reads and must stay allocation-free (it is
        registered in the reprolint hot-path config).  The snapshot
        itself is cold-path work in :meth:`_snapshot_slice`.
        """
        root = self.checkpoint_root
        if root is None or int(self.shared.ckpt_tick[0]) != tick + 1:
            return
        self._snapshot_slice(root, tick)

    def _snapshot_slice(self, root: Path, tick: int) -> None:
        """Write this slice's state into the announced cut's staging dir.

        A cut is only ever announced at a spill boundary, so every
        trace row below it is already on disk and the snapshot is
        exactly the worker's carried state: kernel arrays, controller
        objects, poll clocks, fan commands and the shard's stateful
        sensor-fault channels.
        """
        staging = staging_dir_for_tick(root, tick + 1)
        arrays: Dict[str, np.ndarray] = {
            f"kernel_{key}": value
            for key, value in self.kernel.state_arrays().items()
        }
        arrays.update(self.bank.state_arrays())
        save_arrays(staging, self._shard_name, arrays)
        channels = None
        if self.plan is not None:
            channels = list(self.plan.sensor_channels[self.lo : self.hi])
        save_pickle(
            staging,
            self._shard_name,
            {
                "controllers": self.bank.controllers,
                "sensor_channels": channels,
            },
        )

    def _spill(self, stop_tick: int) -> None:
        """Write buffered rows ``[chunk_start, stop_tick)`` to disk."""
        rows = stop_tick - self._chunk_start
        self.writer.record_chunk(
            self._chunk_start,
            {name: buf[:rows] for name, buf in self._buffers.items()},
        )
        self._chunk_start = stop_tick

    def close(self) -> None:
        """Flush and close the shard's segment files."""
        self.writer.close()


class _Coordinator:
    """The control plane: supplies, coupling, scheduling, attribution.

    :meth:`begin_tick` runs the vector loop's supply / coupling /
    scheduling stage — the shared
    :class:`~repro.fleet.stages.FleetPlacement` — over the shared
    full-width :class:`~repro.fleet.stages.FleetSummary` and publishes
    its outputs (inlet, allocations) for the workers; :meth:`end_tick`
    feeds the executed work back to a queue-backed workload and seals
    any checkpoint cut.
    """

    def __init__(
        self,
        engine: "FleetEngine",
        dt_s: float,
        steps: int,
        plan: Optional["FleetFaultPlan"],
        shared: _SharedBlock,
        chunk_ticks: int,
        trace_writer: ShardedTraceWriter,
        checkpoint: Optional[CheckpointConfig] = None,
        ckpt_every_ticks: Optional[int] = None,
        fingerprint: Optional[Mapping[str, Any]] = None,
        resume_dir: Optional[str] = None,
        start_tick: int = 0,
    ) -> None:
        self.engine = engine
        self.steps = steps
        self.shared = shared
        self.chunk_ticks = chunk_ticks
        self.checkpoint = checkpoint
        self.ckpt_every_ticks = ckpt_every_ticks
        self.fingerprint: Dict[str, Any] = (
            dict(fingerprint) if fingerprint is not None else {}
        )
        self.start_tick = int(start_tick)
        self._ckpt_writer: Optional[CheckpointWriter] = None
        #: ``perf_counter`` stamp at which every worker had finished
        #: :meth:`_ShardWorker.setup` (set by `_drive_inline` and
        #: `_drive_process`).
        self.setup_done_s = float("nan")

        n = engine.fleet.server_count
        if resume_dir is None:
            engine.scheduler.reset()
        else:
            engine.scheduler = load_pickle(resume_dir, "coordinator")[
                "scheduler"
            ]

        #: Coordinator-owned per-tick scalar traces (O(steps), in RAM).
        self.scalars = {
            name: np.zeros(steps) for name in FLEET_SCALAR_TRACE_COLUMNS
        }
        self.trace_unserved = self.scalars["unserved"]
        self.placement = FleetPlacement(
            engine,
            dt_s,
            steps,
            plan,
            self.scalars["respilled"],
            self.scalars["fault_unserved"],
        )
        if resume_dir is not None:
            restored = load_arrays(resume_dir, "coordinator")
            for name, values in self.scalars.items():
                values[: self.start_tick] = restored[name]
            # the carried state of the cut tick: restored *here*,
            # before any worker runs, so resumed workers skip their
            # initial publish
            shared.summary.load_state_arrays(restored)

        # capture tap: flushed from the read-side memory maps of the
        # freshly-spilled segments, on the capture's own chunk cadence
        # (the writer chunk divides it, see run_sharded); on resume the
        # first begin_tick replays the restored prefix
        self.capture = engine.capture
        self.times_rec = np.arange(1, steps + 1) * dt_s
        self._capture_cols: Dict[str, np.ndarray] = {}
        if self.capture is not None:
            self.capture.bind(n)
            self._capture_cols = {
                name: trace_writer.read_view(name)
                for name in FLEET_TRACE_COLUMNS
            }

    def _capture_through(self, stop: int) -> None:
        """Flush the capture's due chunks of the rows below ``stop``."""
        self.capture.flush_through(
            stop,
            self.steps,
            self.times_rec,
            self._capture_cols,
            self.trace_unserved,
        )

    def _raise_if_tripped(self) -> None:
        """Re-raise the globally-first critical trip, vector-style."""
        servers = self.shared.trips[:, 0]
        if (servers >= 0).any():
            first = servers[servers >= 0].min()
            _, junction_c, threshold_c = self.shared.trips[servers == first][0]
            raise_critical_trip(int(first), junction_c, threshold_c)

    def begin_tick(self, tick: int) -> None:  # reprolint: hot
        """Trip check, capture flush, then schedule + publish tick inputs."""
        self._raise_if_tripped()
        if self.capture is not None:
            self._capture_through(tick)

        shared = self.shared
        placement = self.placement
        summary = shared.summary
        inlet, _ = placement.inlet(tick, summary.exhaust_rise)
        decision = placement.place(tick, inlet, summary)

        shared.inlet[:] = inlet
        shared.allocations[:] = decision.allocations_pct
        self.trace_unserved[tick] = decision.unserved_pct

    def maybe_request_checkpoint(self, tick: int) -> None:
        """Announce a cut after ``tick`` if one is due at its boundary.

        Called between :meth:`begin_tick` and the "go" barrier.  Cuts
        land only on spill boundaries (the cadence is pre-aligned to a
        multiple of ``chunk_ticks``; a stop/checkpoint request waits
        for the next boundary), so the announced tick's trace rows are
        durable before the manifest is sealed.
        """
        if self.checkpoint is None or self.ckpt_every_ticks is None:
            return
        t1 = tick + 1
        if t1 >= self.steps:
            return
        due = t1 % self.ckpt_every_ticks == 0
        if not due and (
            self.engine._stop_requested or self.engine._checkpoint_requested
        ):
            due = t1 % self.chunk_ticks == 0
        if not due:
            return
        self._ckpt_writer = CheckpointWriter(self.checkpoint.root, t1)
        self.shared.ckpt_tick[0] = t1

    def end_tick(self, tick: int) -> bool:
        """Close ``tick``; return whether a requested stop happens here.

        Runs after the "done" barrier every tick: the workload records
        the executed utilization the workers just published (the vector
        loop's order), then the cut announced for ``tick``, if any, is
        sealed.  With checkpointing, a stop waits for a sealed cut.  The
        fast path is a few scalar reads and must stay allocation-free
        (registered in the reprolint hot-path config); sealing is
        cold-path work in :meth:`_seal_cut`.
        """
        self.placement.record(tick, self.shared.summary.executed)
        t1 = tick + 1
        sealed = (
            self.checkpoint is not None and int(self.shared.ckpt_tick[0]) == t1
        )
        if sealed:
            self._seal_cut(t1)
        return (
            self.engine._stop_requested
            and t1 < self.steps
            and (self.checkpoint is None or sealed)
        )

    def interrupted(self, tick: int) -> RunInterrupted:
        """The cooperative stop after ``tick``, naming the last checkpoint."""
        return RunInterrupted(
            f"sharded run stopped at tick {tick + 1}/{self.steps}",
            self.engine.last_checkpoint_path,
        )

    def _seal_cut(self, t1: int) -> None:
        """Complete and atomically commit the cut announced for ``t1``.

        Every worker's slice snapshot is already staged (the "done"
        barrier passed), so adding the coordinator payload (scalar
        traces, the published summary arrays, the scheduler) completes
        the consistent cut before the atomic rename.
        """
        writer = self._ckpt_writer
        assert writer is not None
        arrays = self.shared.summary.state_arrays()
        for name, values in self.scalars.items():
            arrays[name] = values[:t1].copy()
        writer.arrays("coordinator", arrays)
        writer.pickle("coordinator", {"scheduler": self.engine.scheduler})
        path = writer.commit(
            "fleet-sharded",
            self.fingerprint,
            extra={"chunk_ticks": self.chunk_ticks},
        )
        prune_checkpoints(self.checkpoint.root, self.checkpoint.keep)
        self.shared.ckpt_tick[0] = 0
        self._ckpt_writer = None
        self.engine.last_checkpoint_path = path
        self.engine._checkpoint_requested = False

    def finish(self) -> None:
        """Post-loop trip check and the final capture flush."""
        self._raise_if_tripped()
        if self.capture is not None:
            self._capture_through(self.steps)


def _worker_main(
    worker: _ShardWorker, go: Any, done: Any, errors: Any
) -> None:
    """Worker-process entry: run the shard through the barrier protocol."""
    timeout = worker.barrier_timeout_s
    try:
        worker.setup()
        done.wait(timeout=timeout)
        for tick in range(worker.start_tick, worker.steps):
            go.wait(timeout=timeout)
            if worker.shared.stop[0]:
                break
            if CHAOS_WORKER_HOOK is not None:
                CHAOS_WORKER_HOOK(worker.shard_id, tick)
            worker.step(tick)
            worker.maybe_checkpoint(tick)
            worker.mark_progress(tick)
            done.wait(timeout=timeout)
        worker.close()
    except BrokenBarrierError:
        # a peer or the coordinator already failed and broke the
        # barriers — secondary noise, never the root cause; reporting
        # it would mask the real error during classification
        pass
    except BaseException as exc:  # propagate, then unblock everyone
        try:
            errors.put_nowait(
                (worker.shard_id, type(exc).__name__, str(exc))
            )
            errors.cancel_join_thread()
        except Exception:
            pass
        go.abort()
        done.abort()


def _collect_worker_error(
    errors: Any,
    procs: Sequence[Any] = (),
    shared: Optional[_SharedBlock] = None,
    tick: Optional[int] = None,
    timeout_s: Optional[float] = None,
) -> ShardCrashError:
    """Classify a broken barrier into one :class:`ShardCrashError`.

    A reported worker exception is deterministic and not restartable;
    a dead or silent worker (killed, OOM, wedged) is — the run can be
    rebuilt from the last checkpoint.  The grace ``get`` absorbs the
    race between a worker's error enqueue and its barrier abort.
    """
    details = []
    try:
        shard_id, kind, message = errors.get(True, 1.0)
        details.append(f"shard {shard_id}: {kind}: {message}")
        while True:
            shard_id, kind, message = errors.get_nowait()
            details.append(f"shard {shard_id}: {kind}: {message}")
    except Exception:
        pass
    if details:
        return ShardCrashError(
            "sharded fleet run failed: " + "; ".join(sorted(details)),
            restartable=False,
        )
    dead = [
        shard_id
        for shard_id, proc in enumerate(procs)
        if not proc.is_alive()
    ]
    if dead:
        return ShardCrashError(
            f"shard worker(s) {dead} died without reporting an error "
            "(killed or out of memory)",
            restartable=True,
        )
    laggards: List[int] = []
    if shared is not None and tick is not None:
        laggards = [
            shard_id
            for shard_id, done_tick in enumerate(shared.progress)
            if int(done_tick) <= tick
        ]
    budget = f" after {timeout_s:.0f}s" if timeout_s is not None else ""
    at = f" at tick {tick}" if tick is not None else ""
    return ShardCrashError(
        f"sharded fleet run barrier timed out{budget}{at}; "
        f"shards that failed to arrive: {laggards or 'unknown'}",
        restartable=True,
    )


def _drive_inline(
    coordinator: _Coordinator,
    workers: Sequence[_ShardWorker],
    steps: int,
    start_tick: int = 0,
) -> None:
    """Sequential driver: same shard objects, no processes, no barriers."""
    try:
        for worker in workers:
            worker.setup()
        coordinator.setup_done_s = perf_counter()
        for tick in range(start_tick, steps):
            coordinator.begin_tick(tick)
            coordinator.maybe_request_checkpoint(tick)
            for worker in workers:
                worker.step(tick)
            for worker in workers:
                worker.maybe_checkpoint(tick)
            if coordinator.end_tick(tick):
                raise coordinator.interrupted(tick)
        coordinator.finish()
    finally:
        for worker in workers:
            worker.close()


def _watch_sentinels(
    procs: Sequence[Any],
    go: Any,
    done: Any,
    stop: Event,
    shared: "_SharedBlock",
    steps: int,
) -> None:
    """Break the barriers the moment any worker process *crashes*.

    Without this, a SIGKILLed worker leaves the coordinator and every
    sibling blocked until the barrier timeout; process sentinels turn
    that into an immediate, classifiable failure.  An exit is a crash
    only if the worker had ticks left to run and no cooperative stop
    was flagged: at end of run the workers can clear the final barrier
    and exit before the coordinator observes its own release, and
    aborting then would break the barrier out from under it.
    """
    remaining = {proc.sentinel: shard for shard, proc in enumerate(procs)}
    while remaining and not stop.is_set():
        ready = _sentinel_wait(list(remaining), timeout=0.25)
        crashed = False
        for sentinel in ready:
            shard = remaining.pop(sentinel, None)
            if (
                shard is not None
                and int(shared.progress[shard]) < steps
                and not shared.stop[0]
            ):
                crashed = True
        if crashed and not stop.is_set():
            go.abort()
            done.abort()
            return


def _drive_process(
    coordinator: _Coordinator,
    workers: Sequence[_ShardWorker],
    steps: int,
    shared: _SharedBlock,
    start_tick: int = 0,
    timeout_s: float = _BARRIER_TIMEOUT_FLOOR_S,
) -> None:
    """Forked driver: one process per shard, two barriers per tick."""
    ctx = multiprocessing.get_context("fork")
    go = ctx.Barrier(len(workers) + 1)
    done = ctx.Barrier(len(workers) + 1)
    errors = ctx.Queue()
    procs = [
        ctx.Process(
            target=_worker_main,
            args=(worker, go, done, errors),
            daemon=True,
        )
        for worker in workers
    ]

    def wait(barrier: Any, tick: Optional[int] = None) -> None:
        try:
            barrier.wait(timeout=timeout_s)
        except BrokenBarrierError:
            raise _collect_worker_error(
                errors, procs, shared, tick, timeout_s
            ) from None

    def release_into_stop() -> None:
        shared.stop[0] = 1
        try:
            go.wait(timeout=5.0)
        except Exception:
            go.abort()
            done.abort()

    for proc in procs:
        proc.start()
    stop_watch = Event()
    watcher = Thread(
        target=_watch_sentinels,
        args=(procs, go, done, stop_watch, shared, steps),
        daemon=True,
    )
    watcher.start()
    try:
        wait(done, start_tick - 1)  # initial publishes visible
        coordinator.setup_done_s = perf_counter()
        for tick in range(start_tick, steps):
            try:
                coordinator.begin_tick(tick)
                coordinator.maybe_request_checkpoint(tick)
            except Exception:
                # release the workers into a cooperative stop before
                # re-raising (trip or scheduling error on our side)
                release_into_stop()
                raise
            wait(go, tick)
            wait(done, tick)
            stop = coordinator.end_tick(tick)
            if CHAOS_COORDINATOR_HOOK is not None:
                CHAOS_COORDINATOR_HOOK(tick)
            if stop:
                release_into_stop()
                raise coordinator.interrupted(tick)
        coordinator.finish()
    finally:
        stop_watch.set()
        shared.stop[0] = 1
        for proc in procs:
            proc.join(timeout=10.0)
        for proc in procs:
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()
                proc.join(timeout=5.0)


def resolve_shard_mode(mode: str) -> str:
    """Map a ``shard_mode`` setting to ``"process"`` or ``"inline"``.

    ``auto`` picks ``process`` when the ``fork`` start method exists
    (Linux/macOS CPython) and the current process may have children
    (daemonic workers — e.g. a parallel sweep's pool — may not), and
    falls back to ``inline`` otherwise; requesting ``process`` where it
    cannot work is an error — the worker protocol inherits unpicklable
    state (controller closures, compiled fault plans) by design.
    """
    if mode not in ("auto", "process", "inline"):
        raise ValueError(f"unknown shard_mode {mode!r}")
    fork_ok = "fork" in multiprocessing.get_all_start_methods()
    daemonic = multiprocessing.current_process().daemon
    if mode == "auto":
        return "process" if fork_ok and not daemonic else "inline"
    if mode == "process" and not fork_ok:
        raise ValueError(
            "shard_mode='process' needs the fork start method; "
            "use shard_mode='inline' on this platform"
        )
    if mode == "process" and daemonic:
        raise ValueError(
            "shard_mode='process' cannot fork workers from a daemonic "
            "process (e.g. inside a parallel sweep); use "
            "shard_mode='inline' there"
        )
    return mode


def ru_maxrss_kib(ru_maxrss: int, platform: Optional[str] = None) -> int:
    """Normalize a ``getrusage().ru_maxrss`` reading to KiB.

    POSIX leaves the unit unspecified: Linux reports KiB but macOS
    reports bytes, so labeling the raw value ``_kb`` overstates Darwin
    peak RSS by 1024x.  ``platform`` defaults to ``sys.platform`` and
    exists for tests.
    """
    if platform is None:
        platform = sys.platform
    if platform == "darwin":
        return int(ru_maxrss) // 1024
    return int(ru_maxrss)


def run_sharded(
    engine: "FleetEngine",
    dt_s: float,
    steps: int,
    plan: Optional["FleetFaultPlan"],
    resume_from: Optional[str] = None,
) -> "FleetResult":
    """Run *engine*'s scenario sharded; returns a vector-bit-identical result.

    Called by :meth:`FleetEngine.run` for ``backend="sharded"`` with
    the already-validated tick count and the pre-compiled fault plan
    (compiled once, before any fork, so every worker inherits the same
    masks and stateful sensor channels).  Streams traces into
    ``engine.trace_dir`` (a temporary, deleted directory when None) and
    records wall-clock / peak-RSS figures in ``engine.last_run_stats``.

    With ``engine.checkpoint`` set, consistent-cut checkpoints are
    committed on the (spill-aligned) cadence and restartable worker
    deaths are retried from the latest cut, up to
    ``checkpoint.max_restarts`` times with exponential backoff; with
    ``resume_from``, the run continues from that cut and the finished
    trace is bit-identical to the uninterrupted run.
    """
    wall_t0 = perf_counter()
    fleet = engine.fleet
    n = fleet.server_count
    socket_counts = set(fleet.socket_counts.tolist())
    if len(socket_counts) != 1:
        raise ValueError(
            "the sharded backend needs every server to have the same "
            f"socket count (got {sorted(socket_counts)}); use "
            "backend='reference' for heterogeneous fleets"
        )
    shards: Union[int, Sequence[int]] = (
        engine.shards if engine.shards is not None else min(2, n)
    )
    bounds = partition_servers(n, shards)
    mode = resolve_shard_mode(engine.shard_mode)
    ckpt_cfg: Optional[CheckpointConfig] = engine.checkpoint

    trace_dir = engine.trace_dir
    temporary = trace_dir is None
    if temporary and (ckpt_cfg is not None or resume_from is not None):
        raise ValueError(
            "sharded checkpoint/resume needs a persistent trace_dir: "
            "the streamed trace rows on disk are part of the "
            "checkpointed state"
        )
    if temporary:
        trace_dir = tempfile.mkdtemp(prefix="repro-sharded-")

    chunk_ticks = (
        engine.stream_chunk_ticks
        if engine.stream_chunk_ticks is not None
        else default_chunk_ticks(n)
    )
    chunk_ticks = min(int(chunk_ticks), steps)
    if engine.capture is not None:
        # worker spill boundaries must land on (divide) the capture's
        # flush boundaries: the capture reads rows back through the
        # segment files, so they must be on disk by flush time
        chunk_ticks = gcd(chunk_ticks, int(engine.capture.chunk_ticks))

    timeout_s = resolve_barrier_timeout_s(engine, n)
    ckpt_every: Optional[int] = None
    if ckpt_cfg is not None:
        # checkpoint cuts must land on spill boundaries: at a cut tick
        # the workers have just spilled, so every trace row below the
        # cut is already durable and the snapshot is state-only.  The
        # spill chunk is shrunk to divide the cadence (it still divides
        # the capture chunk), then the cadence is rounded up onto the
        # resulting boundary grid.
        every = ckpt_cfg.every_ticks(dt_s)
        chunk_ticks = gcd(chunk_ticks, min(every, steps))
        ckpt_every = -(-every // chunk_ticks) * chunk_ticks

    start_tick = 0
    resume_dir: Optional[str] = None
    if resume_from is not None:
        resolved = resolve_checkpoint(resume_from)
        manifest = read_manifest(resolved)
        if manifest.get("kind") != "fleet-sharded":
            raise CheckpointError(
                f"checkpoint {resolved} is kind "
                f"{manifest.get('kind')!r}, expected 'fleet-sharded'"
            )
        start_tick = int(manifest["tick"])
        if not 0 < start_tick < steps:
            raise CheckpointError(
                f"checkpoint tick {start_tick} outside the resumable "
                f"range (0, {steps})"
            )
        # adopt the checkpointed run's spill grid: the trace rows on
        # disk were written on it, and the cut tick is one of its
        # boundaries — a resumed writer must stay on the same grid
        chunk_ticks = int(manifest.get("chunk_ticks", chunk_ticks))
        if engine.capture is not None and (
            int(engine.capture.chunk_ticks) % chunk_ticks
        ):
            raise CheckpointError(
                f"capture chunk_ticks {engine.capture.chunk_ticks} is "
                f"not a multiple of the checkpointed spill grid "
                f"{chunk_ticks}"
            )
        if start_tick % chunk_ticks:
            raise CheckpointError(
                f"checkpoint tick {start_tick} is not on the spill "
                f"grid ({chunk_ticks} ticks)"
            )
        if ckpt_cfg is not None:
            every = ckpt_cfg.every_ticks(dt_s)
            ckpt_every = -(-every // chunk_ticks) * chunk_ticks
        resume_dir = str(resolved)

    fingerprint = engine._run_fingerprint(dt_s, steps, "fleet-sharded")
    fingerprint["shard_bounds"] = [list(b) for b in bounds]
    fingerprint["stream_chunk_ticks"] = int(chunk_ticks)
    if resume_from is not None:
        require_fingerprint(manifest, fingerprint)
        engine.last_resume_tick = start_tick
        engine.last_checkpoint_path = resolved

    ctx = (
        multiprocessing.get_context("fork") if mode == "process" else None
    )
    times = plan_tick_times(steps, dt_s)[:steps].tolist()

    def build(
        attempt_resume: Optional[str], attempt_start: int
    ) -> Tuple[
        _SharedBlock, ShardedTraceWriter, List[_ShardWorker], _Coordinator
    ]:
        shared = _SharedBlock(n, len(bounds), ctx)
        if attempt_start:
            shared.progress[:] = attempt_start
        writer = ShardedTraceWriter(
            trace_dir,
            steps,
            n,
            chunk_ticks=chunk_ticks,
            resume=attempt_resume is not None,
        )
        workers = [
            _ShardWorker(
                engine,
                shard_id,
                lo,
                hi,
                shared,
                plan,
                dt_s,
                steps,
                writer.shard_writer(lo, hi),
                chunk_ticks,
                times,
                barrier_timeout_s=timeout_s,
                checkpoint_root=(
                    str(ckpt_cfg.root) if ckpt_cfg is not None else None
                ),
                resume_dir=attempt_resume,
                start_tick=attempt_start,
            )
            for shard_id, (lo, hi) in enumerate(bounds)
        ]
        coordinator = _Coordinator(
            engine,
            dt_s,
            steps,
            plan,
            shared,
            chunk_ticks,
            writer,
            checkpoint=ckpt_cfg,
            ckpt_every_ticks=ckpt_every,
            fingerprint=fingerprint,
            resume_dir=attempt_resume,
            start_tick=attempt_start,
        )
        return shared, writer, workers, coordinator

    try:
        restarts = 0
        attempt_resume, attempt_start = resume_dir, start_tick
        while True:
            shared, writer, workers, coordinator = build(
                attempt_resume, attempt_start
            )
            try:
                if mode == "process":
                    _drive_process(
                        coordinator,
                        workers,
                        steps,
                        shared,
                        attempt_start,
                        timeout_s,
                    )
                else:
                    _drive_inline(
                        coordinator, workers, steps, attempt_start
                    )
                break
            except ShardCrashError as crash:
                if (
                    not crash.restartable
                    or ckpt_cfg is None
                    or restarts >= ckpt_cfg.max_restarts
                ):
                    raise
                latest = latest_checkpoint(ckpt_cfg.root)
                if latest is None:
                    raise
                manifest = read_manifest(latest)
                require_fingerprint(manifest, fingerprint)
                restarts += 1
                backoff = ckpt_cfg.restart_backoff_s * 2 ** (restarts - 1)
                if backoff > 0:
                    sleep(backoff)
                attempt_resume = str(latest)
                attempt_start = int(manifest["tick"])
                engine.last_resume_tick = attempt_start
                engine.last_checkpoint_path = latest

        for name, values in coordinator.scalars.items():
            writer.write_scalar(name, values)
        if plan is not None:
            writer.write_fault_active(plan.fault_active)
        writer.finalize(
            {
                "backend": "sharded",
                "dt_s": dt_s,
                "scheduler": engine.scheduler.name,
                "controller": engine._controller_label(),
                "shard_bounds": [list(b) for b in bounds],
                "shard_mode": mode,
            }
        )

        # sample the peak RSS *before* metrics aggregation faults the
        # memory-mapped columns in: this is the streaming loop's
        # resident footprint, the figure the scale benchmark bounds
        usage_self = resource.getrusage(resource.RUSAGE_SELF)
        usage_children = resource.getrusage(resource.RUSAGE_CHILDREN)
        engine.last_run_stats = {
            "backend": "sharded",
            "shard_mode": mode,
            "shards": len(bounds),
            "server_count": n,
            "steps": steps,
            "sim_time_s": steps * dt_s,
            "stream_chunk_ticks": chunk_ticks,
            "barrier_timeout_s": timeout_s,
            "resume_tick": start_tick,
            "restarts": restarts,
            "wall_setup_s": coordinator.setup_done_s - wall_t0,
            "wall_stream_s": perf_counter() - wall_t0,
            "ru_maxrss_stream_kb": ru_maxrss_kib(usage_self.ru_maxrss),
            "ru_maxrss_children_kb": ru_maxrss_kib(usage_children.ru_maxrss),
            "trace_dir": None if temporary else str(trace_dir),
        }

        reader = FleetTraceReader(trace_dir)
        result = reader.to_result(fleet, materialize=temporary)
        engine.last_run_stats["wall_total_s"] = perf_counter() - wall_t0
        engine._record_run_metrics(steps, dt_s)
        return result
    finally:
        if temporary:
            shutil.rmtree(trace_dir, ignore_errors=True)
