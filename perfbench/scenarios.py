"""The benchmark's three reference workloads, built from a seed.

Each workload factory turns ``(seed, shape)`` into the program's inputs — fleet,
controllers, LUT, demand, faults, engine — and returns a
:class:`Scenario` whose :meth:`Scenario.execute` runs it to a finished
result.  The program receives only the generated inputs; the seed sets
the demand levels (``lut-poll``), the rack supply set points
(``scale-sharded``) and the queue arrivals, the faulted servers, the
excursion rack and the sensor spike seeds (``facility-queue``).

:func:`check` holds the correctness gate and :func:`digest` the
fingerprint of the simulated outputs that must repeat between runs.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro import (
    CoolingPlant,
    CoordinatedController,
    CracExcursionEvent,
    FacilityEngine,
    FaultSchedule,
    Fleet,
    FleetEngine,
    FleetScheduler,
    FixedSpeedController,
    LeakageAwarePolicy,
    LUTController,
    PowerChain,
    Rack,
    RoundRobinPolicy,
    SensorFaultEvent,
    ServerOutageEvent,
    build_diurnal_carbon_model,
    build_job_queue,
    build_paper_lut,
    build_uniform_fleet,
    default_dvfs_ladder,
    default_server_spec,
)
from repro.engine.kernel import plan_tick_times
from repro.facility.workload import diurnal_job_arrivals
from repro.units import joules_to_kwh
from repro.workloads.profile import ConstantProfile, StaircaseProfile

class Shape(NamedTuple):
    """Fleet size and simulated horizon of one workload."""

    racks: int
    servers_per_rack: int
    ticks: int


SHAPES: Dict[str, Dict[str, Shape]] = {
    # the reference sizes
    "full": {
        "lut-poll": Shape(50, 40, 240),
        "scale-sharded": Shape(100, 200, 120),
        "facility-queue": Shape(8, 30, 2880),
    },
    # the self-test's sizes: every layer still runs, in well under 1 s
    "tiny": {
        "lut-poll": Shape(2, 5, 20),
        "scale-sharded": Shape(2, 6, 12),
        "facility-queue": Shape(2, 4, 120),
    },
}

#: Tick lengths, seconds.
DT_S = {"lut-poll": 1.0, "scale-sharded": 30.0, "facility-queue": 5.0}


def shard_count() -> int:
    """Two process shards, never more than the machine's cores."""
    return max(1, min(2, os.cpu_count() or 1))


def build_fleet(
    racks: int,
    servers_per_rack: int,
    spec=None,
    coupled: bool = False,
    supply_c: Optional[List[float]] = None,
) -> Fleet:
    """The workload's topology: recirculation-coupled, or uncoupled."""
    spec = spec if spec is not None else default_server_spec()
    if coupled:
        return build_uniform_fleet(racks, servers_per_rack, spec=spec)
    supply_c = supply_c if supply_c is not None else [24.0] * racks
    return Fleet(
        racks=tuple(
            Rack(
                name=f"rack{r}",
                servers=tuple(spec for _ in range(servers_per_rack)),
                crac_supply_c=supply_c[r],
            )
            for r in range(racks)
        )
    )


def drive(engine: FleetEngine, dt_s: float, duration_s: float, stamp):
    """Run *engine* through its tick stream; *stamp* marks the first tick."""
    views = engine.run_stream(dt_s=dt_s, duration_s=duration_s)
    for _ in views:
        stamp()
        break
    for _ in views:
        pass
    return engine.last_result


@dataclass
class Outcome:
    """What one execution produced."""

    fleet: object
    facility: object = None
    queue: object = None
    #: Jobs the queue generates, and those due by the last tick.
    jobs: Optional[Tuple[int, int]] = None
    run_stats: Optional[dict] = None


@dataclass
class Scenario:
    """One constructed workload, ready to execute once."""

    servers: int
    ticks: int
    dt_s: float
    engine: FleetEngine
    facility: Optional[FacilityEngine] = None
    #: Jobs the queue generates, and those due by the last tick.
    jobs: Optional[Tuple[int, int]] = None

    def execute(self, stamp: Callable[[], None]) -> Outcome:
        """Run to the finished result; *stamp* is called once, after tick 1."""
        duration_s = self.ticks * self.dt_s
        engine = self.engine
        if engine.backend == "sharded":
            with _first_tick_probe(stamp):
                result = engine.run(dt_s=self.dt_s, duration_s=duration_s)
            return Outcome(result, run_stats=dict(engine.last_run_stats))
        if self.facility is None:
            return Outcome(drive(engine, self.dt_s, duration_s, stamp))
        # FacilityEngine.run calls engine.run; stream it instead so the
        # first tick is observable (run_stream is bit-identical to run)
        engine.run = lambda dt_s, duration_s: drive(
            engine, dt_s, duration_s, stamp
        )
        facility = self.facility.run(dt_s=self.dt_s, duration_s=duration_s)
        return Outcome(
            facility.fleet, facility, self.facility.workload_queue, self.jobs
        )


class _first_tick_probe:
    """Calls *stamp* when the sharded coordinator starts its second tick.

    The coordinator begins tick 1 only after every shard finished tick
    0, so this is the sharded analogue of the first streamed view.
    """

    def __init__(self, stamp: Callable[[], None]) -> None:
        from repro.engine.sharded import _Coordinator

        self._cls = _Coordinator
        self._stamp = stamp
        self._saved = (_Coordinator.begin_tick, _Coordinator.finish)

    def __enter__(self):
        begin_tick, finish = self._saved
        fired = []

        def fire():
            if not fired:
                fired.append(True)
                self._stamp()

        def probe_begin_tick(coordinator, tick):
            if tick >= 1:
                fire()
            return begin_tick(coordinator, tick)

        def probe_finish(coordinator):
            fire()
            return finish(coordinator)

        self._cls.begin_tick = probe_begin_tick
        self._cls.finish = probe_finish
        return self

    def __exit__(self, *exc_info) -> None:
        self._cls.begin_tick, self._cls.finish = self._saved


# ----------------------------------------------------------------------
# workload factories
# ----------------------------------------------------------------------
#: ``lut-poll`` demand levels, percent of the fleet.
_LUT_STAIRCASE = np.array([20.0, 60.0, 35.0, 80.0, 50.0, 90.0, 25.0, 70.0])


def _lut_poll(seed, shape, workdir, metrics) -> Scenario:
    rng = np.random.default_rng(seed)
    dt_s = DT_S["lut-poll"]
    fleet = build_fleet(shape.racks, shape.servers_per_rack)
    lut = build_paper_lut()
    # a fixed staircase, each step jittered by the seed: the inputs
    # differ per seed while the number of LUT transitions stays put
    levels = np.round(_LUT_STAIRCASE + rng.uniform(-2.0, 2.0, size=8), 1).tolist()
    profile = StaircaseProfile(
        levels, step_duration_s=shape.ticks * dt_s / len(levels)
    )
    engine = FleetEngine(
        fleet,
        profile,
        scheduler=FleetScheduler(RoundRobinPolicy()),
        controller_factory=lambda index: LUTController(lut, poll_interval_s=1.0),
        backend="vector",
        metrics=metrics,
    )
    return Scenario(fleet.server_count, shape.ticks, dt_s, engine)


def _scale_sharded(seed, shape, workdir, metrics) -> Scenario:
    rng = np.random.default_rng(seed)
    dt_s = DT_S["scale-sharded"]
    supply_c = np.round(rng.uniform(20.0, 26.0, size=shape.racks), 1).tolist()
    fleet = build_fleet(shape.racks, shape.servers_per_rack, supply_c=supply_c)
    engine = FleetEngine(
        fleet,
        ConstantProfile(70.0, shape.ticks * dt_s),
        controller_factory=lambda index: FixedSpeedController(
            poll_interval_s=300.0
        ),
        backend="sharded",
        shards=min(shard_count(), fleet.server_count),
        shard_mode="process",
        trace_dir=str(Path(workdir) / "segments"),
        metrics=metrics,
    )
    return Scenario(fleet.server_count, shape.ticks, dt_s, engine)


def _facility_queue(seed, shape, workdir, metrics) -> Scenario:
    rng = np.random.default_rng(seed)
    dt_s = DT_S["facility-queue"]
    horizon_s = shape.ticks * dt_s
    spec = replace(default_server_spec(), dvfs=default_dvfs_ladder())
    fleet = build_fleet(shape.racks, shape.servers_per_rack, spec, coupled=True)
    n = fleet.server_count
    lut = build_paper_lut()
    # ~40% of the fleet busy at the night-time (quarter-peak) rate
    queue_seed = int(rng.integers(2**31))
    jobs_per_hour = 4.8 * n
    queue = build_job_queue(
        "diurnal",
        n,
        duration_s=horizon_s,
        seed=queue_seed,
        jobs_per_hour=jobs_per_hour,
        mean_work_pct_s=120000.0,
    )
    # the same arrivals, counted apart from the queue's own accounting:
    # every job due by the last tick's start must have been admitted
    arrivals = diurnal_job_arrivals(
        horizon_s, jobs_per_hour / 4.0, jobs_per_hour, seed=queue_seed
    )
    last_tick_s = plan_tick_times(shape.ticks, dt_s)[shape.ticks - 1]
    jobs = (arrivals.size, int(np.count_nonzero(arrivals <= last_tick_s)))
    picked = rng.choice(n, size=7, replace=False).tolist()
    outages = [
        ServerOutageEvent(
            start_s=lo * horizon_s, end_s=hi * horizon_s, server=server
        )
        for server, (lo, hi) in zip(
            picked[:3], ((0.2, 0.5), (0.3, 0.6), (0.5, 0.8))
        )
    ]
    spikes = [
        SensorFaultEvent(
            server=server,
            mode="spike",
            value=15.0,
            probability=0.1,
            seed=int(rng.integers(2**31)),
        )
        for server in picked[3:]
    ]
    excursion = CracExcursionEvent(
        start_s=0.4 * horizon_s,
        end_s=0.6 * horizon_s,
        delta_c=3.0,
        rack=int(rng.integers(shape.racks)),
    )
    engine = FleetEngine(
        fleet,
        queue,
        scheduler=FleetScheduler(LeakageAwarePolicy()),
        controller_factory=lambda index: CoordinatedController(
            lut, spec.dvfs, poll_interval_s=30.0
        ),
        backend="vector",
        faults=FaultSchedule(events=(*outages, excursion, *spikes)),
        metrics=metrics,
    )
    facility = FacilityEngine(
        engine,
        cooling=CoolingPlant(),
        power=PowerChain(rated_power_w=n * 600.0),
        carbon=build_diurnal_carbon_model(duration_s=horizon_s),
    )
    return Scenario(n, shape.ticks, dt_s, engine, facility, jobs)


FACTORIES = {
    "lut-poll": _lut_poll,
    "scale-sharded": _scale_sharded,
    "facility-queue": _facility_queue,
}


def build(
    workload: str, seed: int, size: str, workdir: Path, metrics=None
) -> Scenario:
    """Construct *workload* at *size* from *seed* (timed by the caller)."""
    return FACTORIES[workload](seed, SHAPES[size][workload], workdir, metrics)


# ----------------------------------------------------------------------
# correctness gate and output fingerprint
# ----------------------------------------------------------------------
_TRACES = (
    "total_power_w",
    "fan_power_w",
    "max_junction_c",
    "utilization_pct",
    "inlet_c",
    "mean_rpm",
    "unserved_pct",
    "work_deficit_pct",
    "respilled_pct",
    "fault_unserved_pct",
)
_FACILITY_TRACES = ("cooling_power_w", "utility_power_w", "return_c", "carbon_kg")


def _close(a: float, b: float, rtol: float = 1e-9) -> bool:
    return math.isclose(a, b, rel_tol=rtol, abs_tol=1e-12)


def check(outcome: Outcome, servers: int, ticks: int) -> List[str]:
    """Every failed correctness check, as one line each (empty = pass)."""
    fleet = outcome.fleet
    failures = []
    power = np.asarray(fleet.total_power_w)
    if power.shape != (ticks, servers):
        failures.append(f"power trace shape {power.shape} != {(ticks, servers)}")
    for name in _TRACES:
        if not np.all(np.isfinite(getattr(fleet, name))):
            failures.append(f"non-finite values in {name}")
    dt_s = fleet.dt_s
    energy_kwh = joules_to_kwh(math.fsum(power.sum(axis=1).tolist()) * dt_s)
    if not _close(fleet.metrics.energy_kwh, energy_kwh):
        failures.append(
            f"fleet energy {fleet.metrics.energy_kwh!r} kWh != "
            f"sum(power*dt) {energy_kwh!r} kWh"
        )
    if outcome.facility is not None:
        m = outcome.facility.metrics
        for name in _FACILITY_TRACES:
            if not np.all(np.isfinite(getattr(outcome.facility, name))):
                failures.append(f"non-finite values in facility {name}")
        parts = m.it_energy_kwh + m.cooling_energy_kwh + m.chain_loss_kwh
        if not _close(m.facility_energy_kwh, parts):
            failures.append(
                f"facility energy {m.facility_energy_kwh!r} kWh != IT + "
                f"cooling + chain loss {parts!r} kWh"
            )
        if not m.pue >= 1.0:
            failures.append(f"PUE {m.pue!r} < 1")
    if outcome.queue is not None:
        q = outcome.queue
        generated, due = outcome.jobs
        if (q.job_count, q.arrived_count) != (generated, due):
            failures.append(
                f"queue holds {q.job_count} jobs with {q.arrived_count} "
                f"arrived, expected {generated} with {due} due"
            )
        if q.arrived_count != q.completed_count + q.running_count + q.pending_count:
            failures.append(
                f"queue lost jobs: arrived {q.arrived_count} != completed "
                f"{q.completed_count} + running {q.running_count} + "
                f"pending {q.pending_count}"
            )
        executed = math.fsum(np.asarray(fleet.utilization_pct).sum(axis=1).tolist())
        if not q.executed_work_pct_s <= executed * dt_s * (1.0 + 1e-9):
            failures.append(
                f"queue drained {q.executed_work_pct_s!r} %*s, more than the "
                f"fleet executed ({executed * dt_s!r} %*s)"
            )
    return failures


def digest(outcome: Outcome) -> str:
    """Fingerprint of every simulated output (bit-exact)."""
    h = hashlib.sha256()
    arrays = [getattr(outcome.fleet, name) for name in _TRACES]
    arrays.append(outcome.fleet.pstate_index)
    if outcome.facility is not None:
        arrays += [getattr(outcome.facility, name) for name in _FACILITY_TRACES]
    for array in arrays:
        h.update(np.ascontiguousarray(array).tobytes())
    if outcome.queue is not None:
        h.update(repr(outcome.facility.metrics.queue).encode())
    return h.hexdigest()[:16]


def sim_stats(outcome: Outcome) -> Dict[str, float]:
    """The simulated figures printed beside the timings."""
    m = outcome.fleet.metrics
    stats = {"energy_kwh": m.energy_kwh, "hot_spot_c": m.hot_spot_c}
    if outcome.facility is not None:
        stats["pue"] = outcome.facility.metrics.pue
    if outcome.queue is not None:
        stats["jobs_completed"] = outcome.queue.completed_count
    return stats
