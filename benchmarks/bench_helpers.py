"""Helpers shared by the benchmark modules."""

from __future__ import annotations

import json
import platform
from pathlib import Path


def write_artifact(results_dir: Path, name: str, text: str) -> None:
    """Persist one regenerated artifact and echo it (visible with -s)."""
    path = Path(results_dir) / name
    path.write_text(text + "\n")
    print(f"\n--- {name} ---\n{text}")


def write_bench_json(results_dir: Path, name: str, payload: dict) -> Path:
    """Persist machine-readable benchmark numbers as ``BENCH_<name>.json``.

    *payload* carries the bench's own metrics (wall-clock seconds,
    speedups, steps/s); a ``machine`` block is added so numbers from
    different runners are never compared blindly.  CI uploads these
    files as artifacts, making the perf trajectory trackable across
    PRs instead of living only in pytest output.
    """
    document = {
        "bench": name,
        "machine": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "processor": platform.processor() or "unknown",
        },
        **payload,
    }
    path = Path(results_dir) / f"BENCH_{name}.json"
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"\n--- {path.name} ---\n{json.dumps(document, indent=2, sort_keys=True)}")
    return path


def update_bench_json(results_dir: Path, name: str, payload: dict) -> Path:
    """Merge *payload* into ``BENCH_<name>.json``, keeping the other keys.

    For a ``BENCH_*.json`` that several benches of one module write.
    """
    path = Path(results_dir) / f"BENCH_{name}.json"
    document = json.loads(path.read_text()) if path.exists() else {}
    document.pop("bench", None)
    document.pop("machine", None)
    document.update(payload)
    return write_bench_json(results_dir, name, document)
