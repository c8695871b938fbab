"""Datacenter-scale benchmark for the sharded streaming backend.

Three claims are pinned here:

* **small-N equivalence** — a sharded run with forked workers is
  bit-identical to ``backend="vector"`` (the cheap CI-facing smoke;
  the exhaustive matrix lives in ``tests/test_sharded_equivalence.py``);
* **linear setup** — construction to first tick at 4N servers costs
  less than ``SETUP_RATIO_CEILING`` times its cost at N, on the
  ``vector`` backend and on 2 process shards.  Linear setup gives a
  ratio near 4 and a quadratic one near 16, on any machine;
* **100k faster than real time, bounded RSS** — the headline scale
  target: ``REPRO_SCALE_SERVERS`` servers (default 100 000) simulated
  over ``REPRO_SCALE_HOURS`` (default 1 h) complete in less wall-clock
  than simulated time, while traces stream to disk and peak resident
  memory stays under ``REPRO_SCALE_RSS_BUDGET_MB`` — i.e. no
  O(horizon x N) column ever lives in RAM.  The figures are the median
  of ``REPEATS`` runs.

CI runs this file with ``REPRO_SCALE_SERVERS`` lowered (the scale-smoke
job); the committed ``BENCH_scale.json`` snapshot comes from a full
100k run on the reference machine.
"""

from __future__ import annotations

import os
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

import pytest
from bench_helpers import write_artifact, write_bench_json

from repro.core.controllers.default import FixedSpeedController
from repro.fleet import Fleet, FleetEngine, Rack, build_uniform_fleet
from repro.server.specs import default_server_spec
from repro.workloads.profile import ConstantProfile, StaircaseProfile

SCALE_SERVERS = int(os.environ.get("REPRO_SCALE_SERVERS", "100000"))
SCALE_HOURS = float(os.environ.get("REPRO_SCALE_HOURS", "1.0"))
SCALE_SHARDS = int(os.environ.get("REPRO_SCALE_SHARDS", "4"))
RSS_BUDGET_MB = float(os.environ.get("REPRO_SCALE_RSS_BUDGET_MB", "2048"))

TICK_S = 30.0
SERVERS_PER_RACK = 1000
#: Headline runs per benchmark; the median of each figure is reported.
REPEATS = 3

#: Setup scaling gate: servers at the small size (the large one is 4x).
SETUP_N = 2000
#: setup(4N) / setup(N) must stay below this.
SETUP_RATIO_CEILING = 6.0


def _big_fleet(server_count: int) -> Fleet:
    """An uncoupled fleet (recirculation=None skips the N x N matrix)."""
    spec = default_server_spec()
    per_rack = min(SERVERS_PER_RACK, server_count)
    sizes = [per_rack] * (server_count // per_rack)
    if server_count % per_rack:
        sizes.append(server_count % per_rack)
    racks = tuple(
        Rack(name=f"rack{r}", servers=tuple(spec for _ in range(size)))
        for r, size in enumerate(sizes)
    )
    return Fleet(racks=racks, recirculation=None)


def test_sharded_matches_vector_smoke():
    """Forked 2-shard run bit-identical to the vector kernel at N=32."""

    def run(backend, **kw):
        fleet = build_uniform_fleet(rack_count=2, servers_per_rack=16)
        return FleetEngine(
            fleet,
            StaircaseProfile([30.0, 85.0, 60.0], 100.0),
            controller_factory=lambda i: FixedSpeedController(rpm=3000.0),
            backend=backend,
            **kw,
        ).run(dt_s=5.0, duration_s=300.0)

    base = run("vector")
    sharded = run("sharded", shards=2)
    for name in (
        "times_s",
        "total_power_w",
        "fan_power_w",
        "max_junction_c",
        "utilization_pct",
        "inlet_c",
        "mean_rpm",
        "unserved_pct",
        "pstate_index",
        "work_deficit_pct",
    ):
        np.testing.assert_array_equal(
            np.asarray(getattr(base, name)),
            np.asarray(getattr(sharded, name)),
            err_msg=name,
        )
    assert base.metrics == sharded.metrics


def _first_tick_setup_s(backend: str, server_count: int) -> float:
    """Fleet + engine construction to the first tick, seconds."""
    start = time.perf_counter()
    engine = FleetEngine(
        _big_fleet(server_count),
        ConstantProfile(70.0, TICK_S),
        controller_factory=lambda i: FixedSpeedController(rpm=3000.0),
        backend=backend,
        **({"shards": 2, "shard_mode": "process"} if backend == "sharded" else {}),
    )
    if backend == "sharded":
        ran = time.perf_counter()
        engine.run(dt_s=TICK_S)
        return ran - start + engine.last_run_stats["wall_setup_s"]
    next(iter(engine.run_stream(dt_s=TICK_S)))
    return time.perf_counter() - start


@pytest.mark.parametrize("backend", ["vector", "sharded"])
def test_setup_scales_linearly(backend, results_dir):
    """setup(4N) / setup(N) stays below the quadratic signature."""
    small, large = (
        min(_first_tick_setup_s(backend, n) for _ in range(3))
        for n in (SETUP_N, 4 * SETUP_N)
    )
    ratio = large / small
    write_artifact(
        results_dir,
        f"setup_scaling_{backend}.txt",
        f"{backend}: construction to first tick {small * 1e3:.1f} ms at "
        f"{SETUP_N} servers, {large * 1e3:.1f} ms at {4 * SETUP_N} "
        f"(ratio {ratio:.2f}, ceiling {SETUP_RATIO_CEILING:.0f})",
    )
    assert ratio < SETUP_RATIO_CEILING, (
        f"{backend} setup grew {ratio:.1f}x from {SETUP_N} to "
        f"{4 * SETUP_N} servers — superlinear (linear is ~4x)"
    )


def _headline_run() -> dict:
    """One streamed run of the headline fleet; its timings and sizes."""
    horizon_s = SCALE_HOURS * 3600.0
    fleet = _big_fleet(SCALE_SERVERS)
    with tempfile.TemporaryDirectory(prefix="repro-bench-scale-") as tmp:
        engine = FleetEngine(
            fleet,
            ConstantProfile(70.0, horizon_s),
            controller_factory=lambda i: FixedSpeedController(
                rpm=3000.0, poll_interval_s=300.0
            ),
            backend="sharded",
            shards=SCALE_SHARDS,
            trace_dir=str(Path(tmp) / "segments"),
        )
        start = time.perf_counter()
        result = engine.run(dt_s=TICK_S)
        wall_s = time.perf_counter() - start
        stats = dict(engine.last_run_stats)
        trace_bytes = sum(
            path.stat().st_size
            for path in (Path(tmp) / "segments").glob("*.npy")
        )
        # touch the lazy result so the mmap path is exercised end to end
        mean_power_w = float(np.asarray(result.total_power_w).sum(axis=1).mean())
    return {
        "wall_s": wall_s,
        "wall_setup_s": stats["wall_setup_s"],
        "wall_stream_s": stats["wall_stream_s"],
        "wall_assemble_s": stats["wall_total_s"] - stats["wall_stream_s"],
        "peak_rss_coordinator_mb": stats["ru_maxrss_stream_kb"] / 1024.0,
        "peak_rss_workers_mb": stats["ru_maxrss_children_kb"] / 1024.0,
        "shard_mode": stats["shard_mode"],
        "streamed_trace_bytes": trace_bytes,
        "mean_fleet_power_w": mean_power_w,
    }


def test_scale_faster_than_real_time(results_dir):
    """The headline run: stream a big fleet faster than the wall clock."""
    horizon_s = SCALE_HOURS * 3600.0
    runs = [_headline_run() for _ in range(REPEATS)]

    def median(key: str) -> float:
        return statistics.median(run[key] for run in runs)

    wall_s = median("wall_s")
    # ru_maxrss is a process high-water mark: only the first run's
    # streaming sample predates an earlier run's post-run aggregation
    rss_stream_mb = runs[0]["peak_rss_coordinator_mb"]
    rss_children_mb = max(run["peak_rss_workers_mb"] for run in runs)
    peak_rss_mb = max(rss_stream_mb, rss_children_mb)
    trace_bytes = runs[0]["streamed_trace_bytes"]
    speedup = horizon_s / wall_s
    ticks = int(horizon_s / TICK_S)
    write_bench_json(
        results_dir,
        "scale",
        {
            "servers": SCALE_SERVERS,
            "shards": SCALE_SHARDS,
            "shard_mode": runs[0]["shard_mode"],
            "horizon_s": horizon_s,
            "dt_s": TICK_S,
            "ticks": ticks,
            "repeats": REPEATS,
            "wall_s": wall_s,
            "wall_s_runs": [run["wall_s"] for run in runs],
            "wall_setup_s": median("wall_setup_s"),
            "wall_stream_s": median("wall_stream_s"),
            "wall_assemble_s": median("wall_assemble_s"),
            "sim_time_over_wall": speedup,
            "server_ticks_per_s": SCALE_SERVERS * ticks / wall_s,
            "streamed_trace_bytes": trace_bytes,
            "peak_rss_coordinator_mb": rss_stream_mb,
            "peak_rss_workers_mb": rss_children_mb,
            "rss_budget_mb": RSS_BUDGET_MB,
            "mean_fleet_power_w": runs[0]["mean_fleet_power_w"],
        },
    )

    assert speedup > 1.0, (
        f"{SCALE_SERVERS} servers took {wall_s:.0f}s wall for "
        f"{horizon_s:.0f}s simulated — slower than real time"
    )
    assert peak_rss_mb < RSS_BUDGET_MB, (
        f"peak RSS {peak_rss_mb:.0f} MB exceeds the {RSS_BUDGET_MB:.0f} MB "
        f"budget — a trace column is living in RAM"
    )
    # the streamed trace must dwarf what stayed resident whenever the
    # horizon is big enough for the distinction to mean anything
    if trace_bytes > 2 * RSS_BUDGET_MB * 1024 * 1024:
        assert trace_bytes > peak_rss_mb * 1024 * 1024
