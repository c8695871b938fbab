"""One timed execution of one workload, in a fresh process.

``run.py`` starts this script once per repetition so every repetition
pays its own set-up and peak memory is per run.  It prints one JSON
object: the host timings, the correctness-check failures, the output
digest, the simulated statistics and, with ``--traced``, the per-layer
figures read from the span files of every process of the run.

Usage (from the repository root, with ``PYTHONPATH=src``)::

    python3 perfbench/rep.py --workload lut-poll --seed 1 --size full \
        --workdir .perfbench/work/x [--traced]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter


def _peak_rss_mib() -> float:
    """Peak RSS of this process or its (joined) shard children, MiB."""
    from repro.engine.sharded import ru_maxrss_kib

    peak_kib = max(
        ru_maxrss_kib(resource.getrusage(who).ru_maxrss)
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    return peak_kib / 1024.0


def execute(workload: str, seed: int, size: str, workdir: Path, traced: bool):
    """Build, run, time and check one repetition; returns the report."""
    import scenarios

    metrics = tracer = None
    if traced:
        import spans

        from repro.obs.metrics import MetricsRegistry

        tracer = spans.Tracer(workdir / "spans", f"{workload}-seed{seed}-{os.getpid()}")
        spans.install(tracer, scenarios)
        metrics = MetricsRegistry()
        root = tracer.open(tracer.name_id(spans.ROOT))

    first_tick = []
    t0 = perf_counter()
    scenario = scenarios.build(workload, seed, size, workdir, metrics)
    outcome = scenario.execute(lambda: first_tick.append(perf_counter()))
    t1 = perf_counter()
    if traced:
        tracer.close(root)
    report = {
        "wall_s": t1 - t0,
        "setup_s": first_tick[0] - t0,
        "servers": scenario.servers,
        "ticks": scenario.ticks,
        "peak_rss_mb": _peak_rss_mib(),
    }
    report["failures"] = scenarios.check(outcome, scenario.servers, scenario.ticks)
    report["digest"] = scenarios.digest(outcome)
    report["sim"] = scenarios.sim_stats(outcome)
    if traced:
        import layers

        tracer.dump()
        processes = spans.load_spans(tracer.directory)
        report["layers"] = layers.per_layer(processes, outcome.run_stats)
        report["wall_check"] = layers.wall_identity(processes)
        # the registry's phase timers exist on the vector backend only
        if scenario.engine.backend == "vector":
            report["failures"] += layers.cross_check(processes, metrics, scenario.ticks)
            report["registry_s"] = {
                name: entry["total_s"]
                for name, entry in metrics.snapshot().items()
                if entry["type"] == "timer"
            }
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    try:
        report = execute(
            args.workload, args.seed, args.size, args.workdir, args.traced
        )
    except Exception:
        report = {"error": traceback.format_exc(limit=8)}
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
