"""Fleet engine scaling benchmarks.

Three claims are pinned here:

* **sublinear scaling** — the vectorized engine steps 64 servers at a
  small multiple of the 1-server wall-clock cost (far below the naive
  64x of looping independent simulators), because the per-tick thermal
  and power math is numpy-batched across the whole fleet;
* **vector vs naive** — at a fixed fleet size the vector backend beats
  the reference backend (one real :class:`ServerSimulator` per server)
  outright;
* **LUT polls are cheap** — under the paper's LUT controller at its
  1 s cadence the controller poll stays a small share of the tick
  loop, because the controller bank calls ``decide`` only where a call
  can change a command.  ``REPRO_LUT_POLL_SERVERS`` sets the fleet size
  (default 10 000; CI's perf-smoke job runs 2 000).

The scaling table and the poll figures are persisted to
``benchmarks/results/`` (``BENCH_fleet.json``).
"""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import replace

from bench_helpers import update_bench_json, write_artifact

from repro.core.controllers.coordinated import CoordinatedController
from repro.core.controllers.default import FixedSpeedController
from repro.core.controllers.lut import LUTController
from repro.fleet import (
    DvfsAwarePolicy,
    Fleet,
    FleetEngine,
    FleetScheduler,
    Rack,
    RoundRobinPolicy,
    build_uniform_fleet,
)
from repro.obs.metrics import MetricsRegistry
from repro.reporting import format_table
from repro.server.dvfs import default_dvfs_ladder
from repro.server.specs import default_server_spec
from repro.workloads.profile import ConstantProfile, StaircaseProfile

#: Simulated horizon per timing run, seconds.
HORIZON_S = 600.0
TICK_S = 5.0

#: Sublinearity target: 64 servers must cost less than 64/10 of one
#: server (i.e. the engine is >= 10x better than naive linear scaling).
SPEEDUP_FLOOR = 10.0


def _run_fleet(server_count: int, backend: str = "vector") -> float:
    """Wall-clock seconds to simulate HORIZON_S for *server_count* servers."""
    racks = 2 if server_count >= 2 else 1
    fleet = build_uniform_fleet(
        rack_count=racks, servers_per_rack=server_count // racks
    )
    engine = FleetEngine(
        fleet,
        ConstantProfile(70.0, HORIZON_S),
        controller_factory=lambda i: FixedSpeedController(rpm=3000.0),
        backend=backend,
    )
    start = time.perf_counter()
    engine.run(dt_s=TICK_S)
    return time.perf_counter() - start


def _best_of(runs: int, fn, *args) -> float:
    return min(fn(*args) for _ in range(runs))


def test_vector_engine_scales_sublinearly(results_dir):
    """64 servers in far less than 64x the 1-server wall-clock."""
    _run_fleet(1)  # warm caches before timing
    t1 = _best_of(3, _run_fleet, 1)
    t8 = _best_of(2, _run_fleet, 8)
    t64 = _best_of(2, _run_fleet, 64)

    rows = []
    for n, t in ((1, t1), (8, t8), (64, t64)):
        ticks = HORIZON_S / TICK_S
        rows.append(
            [
                f"{n}",
                f"{t * 1e3:.1f}",
                f"{t / t1:.2f}",
                f"{n * t1 / t:.1f}",
                f"{n * ticks / t:.0f}",
            ]
        )
    table = format_table(
        ["servers", "wall(ms)", "vs N=1", "vs naive Nx", "server-ticks/s"],
        rows,
    )
    write_artifact(results_dir, "fleet_scaling.txt", table)
    ticks = HORIZON_S / TICK_S
    update_bench_json(
        results_dir,
        "fleet",
        {
            "horizon_s": HORIZON_S,
            "dt_s": TICK_S,
            "scaling": {
                str(n): {
                    "wall_s": t,
                    "vs_naive_nx": n * t1 / t,
                    "server_ticks_per_s": n * ticks / t,
                }
                for n, t in ((1, t1), (8, t8), (64, t64))
            },
            "speedup_vs_naive_64": 64.0 * t1 / t64,
        },
    )

    # >= SPEEDUP_FLOOR better than naive linear scaling at N=64.
    assert t64 < (64.0 / SPEEDUP_FLOOR) * t1, (
        f"64-server step cost {t64:.3f}s vs 1-server {t1:.3f}s — "
        f"worse than {64 / SPEEDUP_FLOOR:.1f}x"
    )


def test_vector_beats_reference_backend(results_dir):
    """The batched math must outrun the naive per-simulator loop."""
    _run_fleet(16, "vector")  # warmup
    t_vec = _best_of(2, _run_fleet, 16, "vector")
    t_ref = _best_of(2, _run_fleet, 16, "reference")
    write_artifact(
        results_dir,
        "fleet_backend_speedup.txt",
        f"16 servers, {HORIZON_S:.0f}s horizon: vector {t_vec * 1e3:.1f} ms, "
        f"reference {t_ref * 1e3:.1f} ms, speedup {t_ref / t_vec:.1f}x",
    )
    assert t_vec < t_ref


def test_coordinated_dvfs_within_3x_of_fan_only(results_dir, paper_lut):
    """Per-server p-state actuation must not wreck the batched step.

    The DVFS path adds per-poll python work (decide_pstate per server)
    and the stretch/deficit math to every tick; at 64 servers the
    coordinated step must stay within ~3x of the fan-only LUT run.
    """
    spec = replace(default_server_spec(), dvfs=default_dvfs_ladder())
    fleet = build_uniform_fleet(rack_count=2, servers_per_rack=32, spec=spec)
    profile = ConstantProfile(55.0, HORIZON_S)

    def run(factory) -> float:
        engine = FleetEngine(
            fleet,
            profile,
            scheduler=FleetScheduler(DvfsAwarePolicy()),
            controller_factory=factory,
        )
        start = time.perf_counter()
        engine.run(dt_s=TICK_S)
        return time.perf_counter() - start

    fan_only = lambda i: LUTController(paper_lut)  # noqa: E731
    coordinated = lambda i: CoordinatedController(  # noqa: E731
        paper_lut, spec.dvfs
    )
    run(fan_only)  # warm caches before timing
    t_fan = _best_of(2, run, fan_only)
    t_coord = _best_of(2, run, coordinated)
    write_artifact(
        results_dir,
        "fleet_coordinated_overhead.txt",
        f"64 servers, {HORIZON_S:.0f}s horizon: fan-only {t_fan * 1e3:.1f} ms, "
        f"coordinated {t_coord * 1e3:.1f} ms, "
        f"overhead {t_coord / t_fan:.2f}x",
    )
    assert t_coord < 3.0 * t_fan, (
        f"coordinated 64-server run cost {t_coord:.3f}s vs fan-only "
        f"{t_fan:.3f}s — worse than 3x"
    )


#: Fleet size and horizon of the LUT poll gate (1 s ticks, 1 s polls).
LUT_POLL_SERVERS = int(os.environ.get("REPRO_LUT_POLL_SERVERS", "10000"))
LUT_POLL_TICKS = 240
#: Ceiling on the controller poll's share of the tick loop.
POLL_SHARE_CEILING = 0.20
#: Floor on the tick-loop speedup over the unfiltered controller bank.
POLL_SPEEDUP_FLOOR = 5.0


class _UnfilteredLUT(LUTController):
    """The paper's LUT policy, unchanged.

    The bank's poll filter dispatches on the exact controller type, so
    this subclass is called at every due poll, as every controller was
    before the filter existed: the in-run baseline of the speedup.
    """


def _lut_poll_run(paper_lut, controller_type):
    """``(poll_s, loop_s)`` of one staircase run of the LUT-poll fleet.

    ``loop_s`` is the tick loop: the stream's wall time up to its last
    tick, minus the run setup the engine times itself.
    """
    spec = default_server_spec()
    fleet = Fleet(
        racks=tuple(
            Rack(name=f"rack{r}", servers=(spec,) * 40, crac_supply_c=24.0)
            for r in range(max(1, LUT_POLL_SERVERS // 40))
        )
    )
    registry = MetricsRegistry()
    engine = FleetEngine(
        fleet,
        StaircaseProfile(
            [20.0, 60.0, 35.0, 80.0, 50.0, 90.0, 25.0, 70.0],
            step_duration_s=LUT_POLL_TICKS / 8,
        ),
        scheduler=FleetScheduler(RoundRobinPolicy()),
        controller_factory=lambda index: controller_type(
            paper_lut, poll_interval_s=1.0
        ),
        metrics=registry,
    )
    start = time.perf_counter()
    for _ in engine.run_stream(dt_s=1.0, duration_s=float(LUT_POLL_TICKS)):
        last = time.perf_counter()
    timers = registry.snapshot()
    loop_s = last - start - timers["repro_fleet_setup"]["total_s"]
    return timers["repro_fleet_control_poll"]["total_s"], loop_s


def test_lut_poll_share(results_dir, paper_lut):
    """The poll is < 20% of the tick loop, which is >= 5x faster in-run.

    Both gates are ratios measured in the same process; neither uses
    absolute wall time.  Three interleaved (filtered, unfiltered) pairs
    of runs: the share is the median over the filtered runs, the
    speedup the median of the per-pair tick-loop ratios.
    """
    _lut_poll_run(paper_lut, LUTController)  # warm caches before timing
    pairs = [
        (
            _lut_poll_run(paper_lut, LUTController),
            _lut_poll_run(paper_lut, _UnfilteredLUT),
        )
        for _ in range(3)
    ]
    ours = [pair[0] for pair in pairs]
    share = statistics.median(poll / loop for poll, loop in ours)
    speedup = statistics.median(plain[1] / own[1] for own, plain in pairs)
    poll_s, loop_s = (statistics.median(column) for column in zip(*ours))
    plain_poll_s, plain_loop_s = (
        statistics.median(column) for column in zip(*(pair[1] for pair in pairs))
    )
    write_artifact(
        results_dir,
        "fleet_lut_poll.txt",
        f"{LUT_POLL_SERVERS} servers x {LUT_POLL_TICKS} ticks, LUT at 1 s: "
        f"poll {poll_s * 1e3:.1f} ms of a {loop_s * 1e3:.1f} ms tick loop "
        f"({share:.1%}); unfiltered poll {plain_poll_s * 1e3:.1f} ms of "
        f"{plain_loop_s * 1e3:.1f} ms; tick-loop speedup {speedup:.1f}x",
    )
    update_bench_json(
        results_dir,
        "fleet",
        {
            "lut_poll": {
                "servers": LUT_POLL_SERVERS,
                "ticks": LUT_POLL_TICKS,
                "poll_s": poll_s,
                "loop_s": loop_s,
                "poll_share": share,
                "unfiltered_poll_s": plain_poll_s,
                "unfiltered_loop_s": plain_loop_s,
                "loop_speedup_x": speedup,
            }
        },
    )
    assert share < POLL_SHARE_CEILING, (
        f"controller poll is {share:.1%} of the tick loop "
        f"(ceiling {POLL_SHARE_CEILING:.0%})"
    )
    assert speedup >= POLL_SPEEDUP_FLOOR, (
        f"tick loop only {speedup:.1f}x faster than the unfiltered bank "
        f"(floor {POLL_SPEEDUP_FLOOR:.0f}x)"
    )


def test_engine_throughput(benchmark):
    """pytest-benchmark timing: one simulated minute of a 16-server fleet."""
    fleet = build_uniform_fleet(rack_count=2, servers_per_rack=8)
    profile = ConstantProfile(70.0, 60.0)

    def one_minute():
        FleetEngine(
            fleet,
            profile,
            controller_factory=lambda i: FixedSpeedController(rpm=3000.0),
        ).run(dt_s=5.0)

    benchmark(one_minute)
