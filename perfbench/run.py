"""The repository benchmark: host time of three reference workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload lut-poll --seed 1 --seconds 20 --trace 0

Workloads are listed in ``BENCHMARK.json`` with the reason each was
chosen; ``perfbench/layers.json`` maps every per-layer figure to the
end-to-end metric and workload it should move.  Every repetition runs
in a fresh process (``perfbench/rep.py``) with BLAS threads pinned to
one; repetitions continue until ``--seconds`` have passed and at least
three have run.  Medians and quartiles are printed for every metric.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced repetitions and prints the per-layer figures of the
traced ones plus ``trace.overhead_s``.  Either way every repetition's
simulated outputs are checked and fingerprinted, and the last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The benchmark exits non-zero, printing no
result, when the program source (``src/repro``) is not there.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent

#: Fewest repetitions (``--trace 0``) or traced pairs (``--trace 1``).
MIN_REPS = {0: 3, 1: 1}
#: No repetition starts once this much time has gone, and one still
#: running at ``DEADLINE_S`` is killed, so a run ends inside 180 s.
START_BUDGET_S = 120.0
DEADLINE_S = 170.0


def machine() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def kept_spans(args) -> Path:
    """Where the span files of the last traced run of this workload and seed stay."""
    return Path(".perfbench") / "spans" / f"{args.workload}-seed{args.seed}"


def run_rep(args, workdir: Path, index: int, traced: bool, timeout_s: float) -> dict:
    """One repetition in a fresh process; its report, or an error."""
    repdir = workdir / f"rep{index}"
    (repdir / "tmp").mkdir(parents=True)
    env = dict(
        os.environ,
        PYTHONPATH="src",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        TMPDIR=str(repdir / "tmp"),
    )
    command = [
        sys.executable,
        str(HERE / "rep.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--size", args.size,
        "--workdir", str(repdir),
    ]
    if traced:
        command.append("--traced")
    # its own session, so a hung repetition is killed with its shard workers
    proc = subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=timeout_s)
        lines = stdout.strip().splitlines()
        report = json.loads(lines[-1]) if lines else {}
        if proc.returncode != 0 or not report:
            report = {"error": f"exit {proc.returncode}: {stderr[-2000:]}"}
    except subprocess.TimeoutExpired:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        report = {"error": f"repetition still running after {timeout_s:.0f}s"}
    except json.JSONDecodeError as exc:
        report = {"error": f"unreadable report: {exc}"}
    finally:
        if traced and (repdir / "spans").is_dir():
            shutil.rmtree(kept_spans(args), ignore_errors=True)
            kept_spans(args).parent.mkdir(parents=True, exist_ok=True)
            shutil.move(repdir / "spans", kept_spans(args))
        shutil.rmtree(repdir, ignore_errors=True)
    report["traced"] = traced
    return report


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def end_to_end(report: dict) -> dict:
    loop_s = report["wall_s"] - report["setup_s"]
    return {
        "wall_s": report["wall_s"],
        "setup_s": report["setup_s"],
        "server_ticks_per_s": report["servers"] * report["ticks"] / loop_s,
        "peak_rss_mb": report["peak_rss_mb"],
    }


def judge(reports) -> list:
    """Mark each report failed or not; returns the failure lines."""
    lines = []
    digests = [r["digest"] for r in reports if "digest" in r]
    reference = max(set(digests), key=digests.count) if digests else None
    for i, r in enumerate(reports):
        problems = list(r.get("failures", []))
        if "error" in r:
            problems.append(r["error"].strip().splitlines()[-1])
        elif r["digest"] != reference:
            problems.append(f"output digest {r['digest']} != {reference}")
        check = r.get("wall_check")
        if check is not None:
            if check["unmapped"]:
                problems.append(f"spans outside every layer: {check['unmapped']}")
            if abs(check["layers_s"] - check["root_s"]) > 1e-6 * check["root_s"]:
                problems.append(
                    f"layer self times {check['layers_s']!r} s != traced wall "
                    f"{check['root_s']!r} s"
                )
        r["failed"] = bool(problems)
        lines += [f"rep {i} ({'traced' if r['traced'] else 'untraced'}): {p}" for p in problems]
    return lines


def summarize(name: str, unit: str, values) -> str:
    q1, median, q3 = quartiles(values)
    return (
        f"  {name:34s} {median:14.6g} {unit:15s} "
        f"q1 {q1:.6g}  q3 {q3:.6g}  n {len(values)}"
    )


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny shapes exist for the benchmark's self-test only",
    )
    args = parser.parse_args(argv)
    if not Path("src/repro/__init__.py").is_file():
        print("perfbench: run from the repository root (no src/repro here)", file=sys.stderr)
        return 2

    workdir = Path(".perfbench") / f"{args.workload}-{args.seed}-{os.getpid()}"
    reports = []
    start = monotonic()
    try:
        pairs = 0
        while True:
            elapsed = monotonic() - start
            if pairs >= MIN_REPS[args.trace] and elapsed >= args.seconds:
                break
            if pairs and elapsed >= START_BUDGET_S:
                break
            kinds = [False] if not args.trace else [pairs % 2 == 1, pairs % 2 == 0]
            for traced in kinds:
                timeout_s = max(1.0, DEADLINE_S - (monotonic() - start))
                reports.append(run_rep(args, workdir, len(reports), traced, timeout_s))
            pairs += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failure_lines = judge(reports)
    timed = [r for r in reports if "error" not in r]
    if not timed:
        for line in failure_lines:
            print(line, file=sys.stderr)
        return 1
    plain = [r for r in timed if not r["traced"]]
    traced = [r for r in timed if r["traced"]]
    if not plain or (args.trace and not traced):
        for line in failure_lines:
            print(line, file=sys.stderr)
        return 1
    first = timed[0]
    print(
        f"workload {args.workload}  seed {args.seed}  "
        f"{first['servers']} servers x {first['ticks']} ticks  "
        f"{len(plain)} untraced + {len(traced)} traced runs"
    )
    metrics = {}
    rows = [end_to_end(r) for r in plain]
    for r in traced:
        r["layers"]["trace.overhead_s"] = r["wall_s"] - statistics.median(
            p["wall_s"] for p in plain
        )
    for metric in spec["per_layer" if args.trace else "end_to_end"]:
        name, unit = metric["name"], metric["unit"]
        if args.trace:
            values = [r["layers"][name] for r in traced]
        else:
            values = [row[name] for row in rows]
        print(summarize(name, unit, values))
        metrics[name] = {"value": statistics.median(values), "unit": unit}
    timers = [r["registry_s"] for r in traced if "registry_s" in r]
    if args.trace and timers:
        print("  the program's own MetricsRegistry timers (cross-check):")
        for name in timers[0]:
            print(summarize(name, "s", [t[name] for t in timers]))
    if args.trace:
        print(f"  span files of the last traced run: {kept_spans(args)}")
    sim = " ".join(f"{k}={v:.6g}" for k, v in first["sim"].items())
    print(f"  simulated: {sim}  digest {first['digest']}")
    for line in failure_lines:
        print(f"  FAILED {line}")
    print(json.dumps({"machine": machine()}))
    failed = sum(r["failed"] for r in reports)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(reports),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
