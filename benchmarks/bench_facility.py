"""Facility-layer benchmarks.

Two claims are pinned here:

* **composition is cheap** — the facility layers (cooling plant, power
  chain, carbon) are composed from the fleet traces after the run, so
  wrapping a :class:`FleetEngine` in a :class:`FacilityEngine` must
  cost only a modest multiple of the bare fleet run;
* **the queue stays off the allocation path** — the queue-driven
  workload evaluates demand tick by tick in python, and its hot
  methods (``total_demand_pct`` / ``record_executed``) are marked
  allocation-free; the queue-driven run must stay within a small
  multiple of the precomputed-profile run.

Each figure is the median of ``REPEATS`` timed runs, the two sides of
a comparison interleaved so load drift hits both alike.  Numbers are
persisted to ``benchmarks/results/``.
"""

from __future__ import annotations

import statistics
import time

from bench_helpers import write_artifact, write_bench_json

from repro.core.controllers.default import FixedSpeedController
from repro.facility import (
    CoolingPlant,
    FacilityEngine,
    PowerChain,
    build_diurnal_carbon_model,
    build_job_queue,
)
from repro.fleet import FleetEngine, build_uniform_fleet
from repro.units import hours
from repro.workloads.profile import ConstantProfile

#: Simulated horizon per timing run, seconds.
HORIZON_S = hours(2.0)
TICK_S = 30.0

#: Post-run composition must stay within this multiple of the bare run.
COMPOSE_CEILING = 2.0

#: Tick-by-tick queue demand must stay within this multiple of the
#: precomputed-profile fast path.
QUEUE_CEILING = 5.0

#: Timed runs per side of each comparison.
REPEATS = 5


def _fleet():
    return build_uniform_fleet(rack_count=2, servers_per_rack=8)


def _engine(fleet, workload) -> FleetEngine:
    return FleetEngine(
        fleet,
        workload,
        controller_factory=lambda i: FixedSpeedController(rpm=3000.0),
    )


def _time(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _interleaved_runs(first, second) -> tuple:
    """Walls of *first* and of *second* over ``REPEATS`` alternating runs."""
    return tuple(zip(*[(_time(first), _time(second)) for _ in range(REPEATS)]))


def test_facility_composition_overhead(results_dir):
    """Cooling + power chain + carbon composition stays cheap."""
    fleet = _fleet()
    profile = ConstantProfile(60.0, HORIZON_S)

    def bare():
        _engine(fleet, profile).run(dt_s=TICK_S)

    def composed():
        FacilityEngine(
            _engine(fleet, profile),
            cooling=CoolingPlant(),
            power=PowerChain(rated_power_w=fleet.server_count * 600.0),
            carbon=build_diurnal_carbon_model(duration_s=HORIZON_S),
        ).run(dt_s=TICK_S)

    bare()  # warm caches before timing
    bare_runs, comp_runs = _interleaved_runs(bare, composed)
    t_bare = statistics.median(bare_runs)
    t_comp = statistics.median(comp_runs)
    write_artifact(
        results_dir,
        "facility_compose_overhead.txt",
        f"{fleet.server_count} servers, {HORIZON_S:.0f}s horizon: "
        f"bare fleet {t_bare * 1e3:.1f} ms, facility-composed "
        f"{t_comp * 1e3:.1f} ms, overhead {t_comp / t_bare:.2f}x",
    )
    write_bench_json(
        results_dir,
        "facility",
        {
            "horizon_s": HORIZON_S,
            "dt_s": TICK_S,
            "repeats": REPEATS,
            "bare_wall_s": t_bare,
            "bare_wall_s_runs": list(bare_runs),
            "composed_wall_s": t_comp,
            "composed_wall_s_runs": list(comp_runs),
            "compose_overhead_x": t_comp / t_bare,
        },
    )
    assert t_comp < COMPOSE_CEILING * t_bare, (
        f"facility composition cost {t_comp:.3f}s vs bare fleet "
        f"{t_bare:.3f}s — worse than {COMPOSE_CEILING:.0f}x"
    )


def test_queue_workload_overhead(results_dir):
    """Tick-by-tick queue demand stays near the precomputed fast path."""
    fleet = _fleet()
    profile = ConstantProfile(60.0, HORIZON_S)

    def precomputed():
        _engine(fleet, profile).run(dt_s=TICK_S)

    def queued():
        queue = build_job_queue(
            "poisson",
            fleet.server_count,
            duration_s=HORIZON_S,
            seed=1,
            jobs_per_hour=30.0,
        )
        _engine(fleet, queue).run(dt_s=TICK_S)

    precomputed()  # warm caches before timing
    t_pre, t_queue = map(
        statistics.median, _interleaved_runs(precomputed, queued)
    )
    write_artifact(
        results_dir,
        "facility_queue_overhead.txt",
        f"{fleet.server_count} servers, {HORIZON_S:.0f}s horizon: "
        f"precomputed profile {t_pre * 1e3:.1f} ms, queue-driven "
        f"{t_queue * 1e3:.1f} ms, overhead {t_queue / t_pre:.2f}x",
    )
    assert t_queue < QUEUE_CEILING * t_pre, (
        f"queue-driven run cost {t_queue:.3f}s vs precomputed "
        f"{t_pre:.3f}s — worse than {QUEUE_CEILING:.0f}x"
    )
