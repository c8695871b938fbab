"""Outside-in span tracer for the benchmark.

The program is not edited: :func:`install` replaces selected public
functions and methods of each layer with wrappers that record one span
per call (name, start, end, parent span) and a few counts.  Spans are
kept in compact in-memory arrays per process and written to one
``.npz`` file per process when that process's run ends; forked shard
workers write their own file, and :func:`load_spans` merges them.

A layer's *self time* is its spans' durations minus the part covered
by their child spans.  Per process, the self times of all spans add up
exactly to the duration of that process's root span.
"""

from __future__ import annotations

import json
import os
from array import array
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List

import numpy as np

#: Span of the benchmark's own root (scenario construction to result).
ROOT = "run"
#: Root span of a forked shard worker.
WORKER_ROOT = "engine.sharded.worker"
#: Span names whose self time is the tick-loop remainder.
LOOP_SPANS = (ROOT, "fleet.engine.run")


class Tracer:
    """Span and count store for one process of one run."""

    def __init__(self, directory: Path, run_id: str, role: str = "main") -> None:
        #: Where every process of the run writes its span file.
        self.directory = directory
        #: Shared by the spans of every process of the run.
        self.run_id = run_id
        self._names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.restart_as(role)

    def restart_as(self, role: str) -> None:
        """Start empty as *role*: called first thing in a forked child."""
        self.role = role
        self.pid = os.getpid()
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.counts: Dict[str, float] = {}
        self._stack = [-1]

    def name_id(self, name: str) -> int:
        """Small integer id of a span name."""
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self._names)
            self._names.append(name)
        return nid

    def open(self, nid: int) -> int:
        """Open a span under the innermost open one; returns its index."""
        index = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        """Close the innermost span (which must be *index*)."""
        self.end[index] = perf_counter()
        self._stack.pop()

    def count(self, name: str, amount: float = 1.0) -> None:
        """Add *amount* to the named count."""
        self.counts[name] = self.counts.get(name, 0.0) + amount

    def dump(self) -> Path:
        """Write this process's spans and counts to the run directory."""
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.directory / f"{self.role}-{self.pid}.npz"
        np.savez(
            path,
            name_of=np.frombuffer(self.name_of, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            meta=np.array(
                json.dumps(
                    {
                        "run_id": self.run_id,
                        "role": self.role,
                        "pid": self.pid,
                        "names": self._names,
                        "counts": self.counts,
                    }
                )
            ),
        )
        return path


def span_self_times(
    name_of: np.ndarray, start: np.ndarray, end: np.ndarray, parent: np.ndarray
) -> np.ndarray:
    """Per-span duration minus the durations of its direct children."""
    duration = end - start
    nested = parent >= 0
    covered = np.bincount(
        parent[nested], weights=duration[nested], minlength=duration.size
    )
    return duration - covered


def load_spans(directory: Path) -> List[dict]:
    """Every process file of one run, with per-name self times and calls."""
    processes = []
    for path in sorted(directory.glob("*.npz")):
        with np.load(path) as data:
            meta = json.loads(str(data["meta"]))
            name_of = data["name_of"]
            start, end, parent = data["start"], data["end"], data["parent"]
        if np.any(end < start) or np.any(end == 0.0):
            raise RuntimeError(f"{path.name}: a span was left open")
        self_s = span_self_times(name_of, start, end, parent)
        names = meta["names"]
        totals = np.bincount(name_of, weights=self_s, minlength=len(names))
        calls = np.bincount(name_of, minlength=len(names))
        roots = parent < 0
        processes.append(
            {
                "role": meta["role"],
                "pid": meta["pid"],
                "counts": meta["counts"],
                "self_s": {n: float(totals[i]) for i, n in enumerate(names)},
                "calls": {n: int(calls[i]) for i, n in enumerate(names)},
                "root_s": float((end[roots] - start[roots]).sum()),
                "spans": int(start.size),
            }
        )
    return processes


# ----------------------------------------------------------------------
# layer wrappers
# ----------------------------------------------------------------------
def timed(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """*fn* wrapped in a span called *name*."""
    nid = tracer.name_id(name)

    def wrapper(*args, **kwargs):
        index = tracer.open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(index)

    wrapper.__wrapped__ = fn
    return wrapper


def _subclasses(cls: type) -> List[type]:
    """*cls* and every class derived from it, each once."""
    found = {cls: None}
    for sub in cls.__subclasses__():
        found.update(dict.fromkeys(_subclasses(sub)))
    return list(found)


def install(tracer: Tracer, scenarios_module) -> None:
    """Wrap every benchmarked layer's entry points, for this process."""
    import multiprocessing.synchronize

    import repro.engine.sharded as sharded
    import repro.fleet.engine as fleet_engine
    import repro.fleet.metrics as fleet_metrics
    from repro.core.controllers.base import FanController
    from repro.engine.kernel import FleetVectorKernel
    from repro.facility.engine import FacilityEngine
    from repro.facility.workload import WorkloadQueue
    from repro.fleet.faults import FaultSchedule, FleetFaultPlan
    from repro.fleet.scheduler import FleetScheduler, PlacementPolicy
    from repro.fleet.topology import Fleet
    from repro.telemetry.segments import ShardTraceWriter

    def wrap(owner, attr, name):
        setattr(owner, attr, timed(tracer, name, getattr(owner, attr)))

    # fleet.topology: construction (the benchmark's factory) and the
    # flat server tuple every per-server validation reads
    wrap(scenarios_module, "build_fleet", "fleet.topology.build")
    servers = timed(tracer, "fleet.topology.servers", Fleet.servers.fget)
    Fleet.servers = property(servers)

    # core.controllers: every decide / decide_pstate, with the share of
    # polls that changed a command
    for cls in _subclasses(FanController):
        for attr in ("decide", "decide_pstate"):
            if attr in cls.__dict__:
                setattr(cls, attr, _decide(tracer, attr, cls.__dict__[attr]))

    # engine.kernel
    wrap(FleetVectorKernel, "__init__", "engine.kernel.init")
    step = timed(tracer, "engine.kernel.step", FleetVectorKernel.step_into)

    def step_into(self, dt_s, substeps, h, demand_pct, *rest, **kwargs):
        tracer.count("engine.kernel.server_steps", len(demand_pct))
        return step(self, dt_s, substeps, h, demand_pct, *rest, **kwargs)

    FleetVectorKernel.step_into = step_into

    # engine.sharded: per-process barrier waits and worker span files
    barrier_wait = multiprocessing.synchronize.Barrier.wait
    nids = {
        "main": tracer.name_id("engine.sharded.coord_wait"),
        "shard": tracer.name_id("engine.sharded.barrier_wait"),
    }

    def wait(self, timeout=None):
        index = tracer.open(nids[tracer.role])
        try:
            return barrier_wait(self, timeout)
        finally:
            tracer.close(index)

    multiprocessing.synchronize.Barrier.wait = wait
    worker_main = sharded._worker_main
    worker_root = tracer.name_id(WORKER_ROOT)

    def traced_worker_main(worker, go, done, errors):
        tracer.restart_as("shard")
        index = tracer.open(worker_root)
        try:
            worker_main(worker, go, done, errors)
        finally:
            tracer.close(index)
            tracer.dump()

    sharded._worker_main = traced_worker_main

    # telemetry.segments: streamed trace spills and their bytes
    spill = timed(tracer, "telemetry.segments.spill", ShardTraceWriter.record_chunk)

    def record_chunk(self, start_tick, chunk):
        tracer.count(
            "telemetry.segments.spill_bytes",
            sum(np.asarray(block).nbytes for block in chunk.values()),
        )
        return spill(self, start_tick, chunk)

    ShardTraceWriter.record_chunk = record_chunk

    # fleet.scheduler
    for cls in _subclasses(PlacementPolicy):
        if "order_indices" in cls.__dict__:
            wrap(cls, "order_indices", "fleet.scheduler.rank")
    wrap(FleetScheduler, "assign_indexed", "fleet.scheduler.assign")

    # facility.workload, fleet.faults, facility.engine, fleet.metrics
    wrap(WorkloadQueue, "total_demand_pct", "facility.workload.demand")
    wrap(WorkloadQueue, "record_executed", "facility.workload.record")
    wrap(FaultSchedule, "compile", "fleet.faults.compile")
    wrap(FleetFaultPlan, "transform_observation", "fleet.faults.transform")
    wrap(FacilityEngine, "run", "facility.engine.compose")
    wrap(fleet_engine.FleetEngine, "run", "fleet.engine.run")
    wrap(scenarios_module, "drive", "fleet.engine.run")
    wrap(fleet_metrics, "compute_fleet_metrics", "fleet.metrics.compute")
    wrap(fleet_engine, "compute_fleet_metrics", "fleet.metrics.compute")


def _decide(tracer: Tracer, attr: str, fn: Callable) -> Callable:
    """A controller decision wrapped in a span, counting changed commands."""
    span = timed(tracer, "core.controllers.decide", fn)
    fan = attr == "decide"

    def decide(self, observation):
        wanted = span(self, observation)
        # decide returns an RPM (changed only if it differs from the
        # current command); decide_pstate returns None to hold
        if wanted is not None and (
            not fan or wanted != observation.current_rpm_command
        ):
            tracer.count("core.controllers.changed")
        return wanted

    return decide
