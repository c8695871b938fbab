"""Self-test of the benchmark at tiny sizes.

Run from the repository root::

    python -m pytest perfbench -q

It checks the output contract (every metric named in BENCHMARK.json
printed with its unit, names well formed), that the counts repeat
exactly between two traced runs, that the layer self times add up to
the traced wall time, and that the benchmark refuses to run without
the program source.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")
COUNT_FIGURES = (
    *layers.CALLS,
    *layers.COUNTS,
)


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", workload,
            "--seed", "3",
            "--seconds", "0",
            "--trace", str(trace),
            "--size", "tiny",
        ],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=170,
    )


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0, proc.stdout
    return out


def test_spec_names_and_layer_map():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names + WORKLOADS:
        assert NAME.fullmatch(name), name
    # every per-layer figure states the end-to-end metric it should move
    layer_map = json.loads((HERE / "layers.json").read_text())
    assert list(layer_map) == [m["name"] for m in SPEC["per_layer"]]
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    for entry in layer_map.values():
        assert entry["what"] and entry["on"]
        assert set(entry["moves"]) <= e2e


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_with_units(workload):
    out = result(bench(workload, 0))
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    for metric in out["metrics"].values():
        assert metric["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = (result(bench(workload, 1))["metrics"] for _ in range(2))
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first.items()} == expected
    for name in COUNT_FIGURES:
        assert first[name]["value"] == second[name]["value"], name
    assert first["engine.kernel.server_steps"]["value"] > 0
    assert first["core.controllers.decide_calls"]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_self_times_add_up_to_traced_wall(workload, tmp_path):
    env = dict(os.environ, PYTHONPATH="src", TMPDIR=str(tmp_path))
    proc = subprocess.run(
        [
            sys.executable,
            str(HERE / "rep.py"),
            "--workload", workload,
            "--seed", "3",
            "--size", "tiny",
            "--workdir", str(tmp_path / "work"),
            "--traced",
        ],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=env,
        timeout=170,
    )
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert "error" not in report, report.get("error")
    assert report["failures"] == []
    figures = report["layers"]
    total = sum(figures[f] for f in layers.SELF_TIMES) + figures["fleet.engine.loop_self_s"]
    check = report["wall_check"]
    assert check["unmapped"] == []
    assert total == pytest.approx(check["root_s"], rel=1e-9)
    assert check["main_wall_s"] == pytest.approx(report["wall_s"], abs=1e-3)
    if workload == "scale-sharded":
        # the coordinator plus one process per shard
        assert check["processes"] == 1 + min(2, os.cpu_count() or 1)
    else:
        assert check["root_s"] == check["main_wall_s"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
