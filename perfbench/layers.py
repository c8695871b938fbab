"""Per-layer figures of one traced run, from its merged span files.

Every ``*_s`` figure built from spans is a self time summed over all
processes of the run (the main process and any forked shard workers),
so the span figures plus ``fleet.engine.loop_self_s`` add up exactly to
the traced wall time of the main process plus the lifetimes of the
shard workers.  ``engine.sharded.stream_s`` / ``assemble_s`` /
``restarts`` come from the sharded backend's ``last_run_stats`` and
``trace.overhead_s`` from ``run.py`` (traced minus untraced wall).

``layers.json`` beside this file states what each figure measures and
which end-to-end metric it should move on which workload.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import spans

#: figure -> span name whose summed self time it reports
SELF_TIMES = {
    "fleet.topology.build_s": "fleet.topology.build",
    "fleet.topology.servers_s": "fleet.topology.servers",
    "core.controllers.decide_s": "core.controllers.decide",
    "engine.kernel.init_s": "engine.kernel.init",
    "engine.kernel.step_s": "engine.kernel.step",
    "engine.sharded.barrier_wait_s": "engine.sharded.barrier_wait",
    "engine.sharded.coord_wait_s": "engine.sharded.coord_wait",
    "telemetry.segments.spill_s": "telemetry.segments.spill",
    "fleet.scheduler.rank_s": "fleet.scheduler.rank",
    "fleet.scheduler.assign_s": "fleet.scheduler.assign",
    "facility.workload.demand_s": "facility.workload.demand",
    "facility.workload.record_s": "facility.workload.record",
    "fleet.faults.compile_s": "fleet.faults.compile",
    "fleet.faults.transform_s": "fleet.faults.transform",
    "facility.engine.compose_s": "facility.engine.compose",
    "fleet.metrics.compute_s": "fleet.metrics.compute",
}
#: figure -> span name whose call count it reports
CALLS = {
    "fleet.topology.servers_calls": "fleet.topology.servers",
    "core.controllers.decide_calls": "core.controllers.decide",
    "fleet.scheduler.assign_calls": "fleet.scheduler.assign",
    "fleet.faults.transform_calls": "fleet.faults.transform",
}
#: figures counted by the wrappers themselves
COUNTS = ("engine.kernel.server_steps", "telemetry.segments.spill_bytes")
#: spans whose self time is the remainder no layer covers
REMAINDER = (*spans.LOOP_SPANS, spans.WORKER_ROOT)


def _total(processes: List[dict], key: str, name: str) -> float:
    return sum(p[key].get(name, 0) for p in processes)


def per_layer(processes: List[dict], run_stats: Optional[dict]) -> Dict[str, float]:
    """Every per-layer figure except ``trace.overhead_s``."""
    out: Dict[str, float] = {}
    for figure, name in SELF_TIMES.items():
        out[figure] = _total(processes, "self_s", name)
    for figure, name in CALLS.items():
        out[figure] = _total(processes, "calls", name)
    for name in COUNTS:
        out[name] = int(sum(p["counts"].get(name, 0) for p in processes))
    decisions = out["core.controllers.decide_calls"]
    changed = sum(p["counts"].get("core.controllers.changed", 0) for p in processes)
    out["core.controllers.changed_ratio"] = changed / decisions if decisions else 0.0
    stats = run_stats or {}
    stream_s = stats.get("wall_stream_s", 0.0)
    out["engine.sharded.stream_s"] = stream_s
    out["engine.sharded.assemble_s"] = stats.get("wall_total_s", stream_s) - stream_s
    out["engine.sharded.restarts"] = stats.get("restarts", 0)
    out["fleet.engine.loop_self_s"] = sum(
        _total(processes, "self_s", name) for name in REMAINDER
    )
    return out


def wall_identity(processes: List[dict]) -> Dict[str, float]:
    """Summed root-span time vs the span figures it must equal.

    ``root_s`` is the traced wall of the main process plus each shard
    worker's lifetime; ``layers_s`` is the sum of every span-based
    figure including ``fleet.engine.loop_self_s``; ``unmapped`` lists
    any span name no figure covers (it must stay empty).
    """
    figures = per_layer(processes, None)
    known = set(SELF_TIMES.values()) | set(REMAINDER)
    unmapped = sorted(
        {name for p in processes for name in p["self_s"]} - known
    )
    return {
        "root_s": sum(p["root_s"] for p in processes),
        "main_wall_s": sum(p["root_s"] for p in processes if p["role"] == "main"),
        "layers_s": sum(figures[f] for f in SELF_TIMES)
        + figures["fleet.engine.loop_self_s"],
        "unmapped": unmapped,
        "processes": len(processes),
    }


def cross_check(processes: List[dict], registry, ticks: int) -> List[str]:
    """Compare the spans with the program's own ``MetricsRegistry`` tap.

    The program's phase timers enclose the wrapped calls, so each must
    be at least the self time of the spans inside it; its step and
    tick counters must equal the span counts.
    """
    snap = registry.snapshot()
    figures = per_layer(processes, None)
    failures = []

    def timer_s(name: str) -> float:
        return float(snap.get(name, {}).get("total_s", 0.0))

    enclosing = (
        (
            "repro_fleet_control_poll",
            ("core.controllers.decide_s", "fleet.faults.transform_s"),
        ),
        ("repro_fleet_placement", ("fleet.scheduler.rank_s", "fleet.scheduler.assign_s")),
        ("repro_fleet_thermal_step", ("engine.kernel.step_s", "facility.workload.record_s")),
    )
    for timer, inner in enclosing:
        inside = sum(figures[f] for f in inner)
        if not timer_s(timer) >= inside:
            failures.append(
                f"registry {timer} {timer_s(timer):.6f}s < traced {'+'.join(inner)} "
                f"{inside:.6f}s"
            )
    steps = _total(processes, "calls", "engine.kernel.step")
    counted = snap.get("repro_kernel_fleet_steps_total", {}).get("value")
    if counted != steps:
        failures.append(f"registry kernel steps {counted} != traced {steps}")
    counted = snap.get("repro_fleet_ticks_total", {}).get("value")
    if counted != ticks:
        failures.append(f"registry ticks {counted} != {ticks}")
    return failures
