"""Streamed fleet-trace segments: memory-mapped ``.npy`` spill files.

The in-RAM :class:`~repro.telemetry.recorder.TraceRecorder` keeps every
column resident, which caps both fleet size and horizon.  This module
is the disk-backed twin used by the sharded fleet backend
(:mod:`repro.engine.sharded`): one ``.npy`` file per trace column,
created at full ``(steps, n)`` shape up front, written in
``TraceRecorder.record_chunk``-compatible column chunks by each shard
worker, and read back lazily through ``numpy`` memory maps so building
a :class:`~repro.fleet.engine.FleetResult` never materializes an
O(steps x n) array in RAM.

Layout of a trace directory::

    trace_dir/
      power.npy junction.npy ...   # (steps, n) per-server columns
      unserved.npy respilled.npy   # (steps,) per-tick scalar columns
      fault_active.npy             # optional (steps, n) fault mask
      meta.json                    # schema + run description

Writers append with plain positional ``write()`` calls (no mapping is
held while writing), so spilled pages live in the kernel page cache —
reclaimable memory — rather than in the process's resident set; the
worker RSS stays bounded by its chunk buffer regardless of horizon.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Dict,
    IO,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

if TYPE_CHECKING:  # circular at runtime: engine imports this module
    from repro.fleet.engine import FleetResult
    from repro.fleet.topology import Fleet

#: Per-server trace columns streamed by the sharded fleet backend, in
#: file order.  ``FleetEngine._alloc_traces`` builds the in-RAM trace
#: block from the same names, so the two surfaces cannot drift apart.
FLEET_TRACE_COLUMNS = (
    "power",
    "fan",
    "junction",
    "util",
    "inlet",
    "rpm",
    "pstate",
    "deficit",
)

#: Per-tick scalar columns (coordinator-written, length ``steps``).
FLEET_SCALAR_TRACE_COLUMNS = (
    "unserved",
    "respilled",
    "fault_unserved",
)

#: dtype of each per-server column (everything float64 but the p-state).
FLEET_TRACE_DTYPES: Dict[str, np.dtype] = {
    name: np.dtype(np.int64) if name == "pstate" else np.dtype(np.float64)
    for name in FLEET_TRACE_COLUMNS
}

#: meta.json schema version.
SEGMENT_FORMAT_VERSION = 1

#: Soft cap on one shard's chunk buffer, bytes, when the writer picks
#: the chunk length itself (chunk_ticks x n x 8 bytes per column).
DEFAULT_CHUNK_BUDGET_BYTES = 4 << 20


def default_chunk_ticks(server_count: int) -> int:
    """Chunk length keeping one buffered column near the byte budget."""
    if server_count <= 0:
        raise ValueError("server_count must be positive")
    ticks = DEFAULT_CHUNK_BUDGET_BYTES // (server_count * 8)
    return int(min(256, max(1, ticks)))


def _column_path(trace_dir: Path, name: str) -> Path:
    return trace_dir / f"{name}.npy"


class ShardTraceWriter:
    """One shard's chunked writer into the shared column files.

    Accepts :meth:`record_chunk` payloads shaped like the in-RAM
    recorder's — a mapping from column name to an equal-length block —
    except each block is ``(rows, hi - lo)``: the shard's slice of
    ``rows`` consecutive ticks.  File handles are opened lazily on
    first use so a writer created before a ``fork`` never shares seek
    state with the parent process.
    """

    def __init__(
        self,
        offsets: Mapping[str, Tuple[Path, int]],
        server_count: int,
        lo: int,
        hi: int,
        steps: int,
    ) -> None:
        if not 0 <= lo < hi <= server_count:
            raise ValueError(
                f"shard slice [{lo}, {hi}) outside [0, {server_count})"
            )
        self._offsets = dict(offsets)
        self._n = int(server_count)
        self._lo = int(lo)
        self._hi = int(hi)
        self._steps = int(steps)
        self._handles: Dict[str, IO[bytes]] = {}

    @property
    def width(self) -> int:
        """Number of servers in the shard slice."""
        return self._hi - self._lo

    def _handle(self, name: str) -> IO[bytes]:
        handle = self._handles.get(name)
        if handle is None:
            path, _ = self._offsets[name]
            handle = self._handles[name] = open(path, "r+b")
        return handle

    def record_chunk(
        self, start_tick: int, chunk: Mapping[str, np.ndarray]
    ) -> None:
        """Write the shard slice of ticks ``[start_tick, start_tick+rows)``.

        Every per-server column must be present; blocks must share the
        ``(rows, width)`` shape.  Rows land at their absolute tick
        offset inside the full-shape ``.npy`` files, so shards never
        overlap and chunks may arrive in any order.
        """
        # chunk-amortized validation: one pass per spilled chunk of
        # many ticks, so these allocations are off the per-tick path
        missing = [c for c in self._offsets if c not in chunk]  # reprolint: disable=R003
        if missing:
            raise ValueError(f"chunk missing columns: {missing}")
        rows = None
        width = self._hi - self._lo
        for name in self._offsets:
            block = np.asarray(chunk[name])  # reprolint: disable=R003
            if block.ndim != 2 or block.shape[1] != width:
                raise ValueError(
                    f"column {name!r} must be (rows, {width}), "
                    f"got {block.shape}"
                )
            if rows is None:
                rows = block.shape[0]
            elif block.shape[0] != rows:
                raise ValueError(
                    f"column {name!r} has {block.shape[0]} rows, "
                    f"expected {rows}"
                )
        if rows is None or rows == 0:
            return
        if start_tick < 0 or start_tick + rows > self._steps:
            raise ValueError(
                f"chunk [{start_tick}, {start_tick + rows}) outside the "
                f"{self._steps}-tick horizon"
            )
        for name, (_, data_offset) in self._offsets.items():
            dtype = FLEET_TRACE_DTYPES[name]
            # one dtype-coercing copy per chunk (not per tick); rows
            # must be contiguous for the memoryview writes below
            block = np.ascontiguousarray(chunk[name][:rows], dtype=dtype)  # reprolint: disable=R003
            handle = self._handle(name)
            itemsize = dtype.itemsize
            for r in range(rows):
                position = data_offset + (
                    ((start_tick + r) * self._n + self._lo) * itemsize
                )
                handle.seek(position)
                handle.write(memoryview(block[r]))
            # Push the tail write out of the userspace buffer: readers
            # (the coordinator's capture views) mmap these files and
            # only see what has reached the page cache.
            handle.flush()

    def close(self) -> None:
        """Flush and close the shard's file handles."""
        for handle in self._handles.values():
            handle.flush()
            handle.close()
        self._handles.clear()


class ShardedTraceWriter:
    """Creates the full-shape column files and hands out shard writers.

    The coordinator constructs one per run; each worker gets a
    :class:`ShardTraceWriter` over its ``[lo, hi)`` server slice via
    :meth:`shard_writer`.  Scalar (per-tick) columns and the optional
    fault mask are written whole at :meth:`finalize` time — they are
    O(steps) and coordinator-owned.
    """

    def __init__(
        self,
        trace_dir: Union[str, Path],
        steps: int,
        server_count: int,
        chunk_ticks: Optional[int] = None,
        resume: bool = False,
    ) -> None:
        if steps <= 0:
            raise ValueError("steps must be positive")
        if server_count <= 0:
            raise ValueError("server_count must be positive")
        self.trace_dir = Path(trace_dir)
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        self.steps = int(steps)
        self.server_count = int(server_count)
        if chunk_ticks is None:
            chunk_ticks = default_chunk_ticks(server_count)
        if chunk_ticks < 1:
            raise ValueError("chunk_ticks must be >= 1")
        self.chunk_ticks = int(min(chunk_ticks, steps))
        self._offsets: Dict[str, Tuple[Path, int]] = {}
        for name in FLEET_TRACE_COLUMNS:
            path = _column_path(self.trace_dir, name)
            # open_memmap sizes the file and writes the .npy header;
            # the mapping itself is dropped immediately — all writes go
            # through positional write() calls on plain handles.  On
            # resume the files must already hold the rows below the
            # checkpoint cut, so they are reopened in place ("r+" — a
            # "w+" open would truncate them) and only shape-checked.
            if resume:
                if not path.is_file():
                    raise FileNotFoundError(
                        f"cannot resume sharded trace: {path} is missing"
                    )
                mapped = np.lib.format.open_memmap(path, mode="r+")
                if mapped.shape != (self.steps, self.server_count):
                    raise ValueError(
                        f"cannot resume sharded trace: {path} has shape "
                        f"{mapped.shape}, expected "
                        f"{(self.steps, self.server_count)}"
                    )
                if mapped.dtype != FLEET_TRACE_DTYPES[name]:
                    raise ValueError(
                        f"cannot resume sharded trace: {path} has dtype "
                        f"{mapped.dtype}, expected {FLEET_TRACE_DTYPES[name]}"
                    )
            else:
                mapped = np.lib.format.open_memmap(
                    path,
                    mode="w+",
                    dtype=FLEET_TRACE_DTYPES[name],
                    shape=(self.steps, self.server_count),
                )
            self._offsets[name] = (path, int(mapped.offset))
            del mapped

    def shard_writer(self, lo: int, hi: int) -> ShardTraceWriter:
        """A chunked writer of every per-server column over ``[lo, hi)``."""
        return ShardTraceWriter(
            self._offsets, self.server_count, lo, hi, self.steps
        )

    def read_view(self, name: str) -> np.ndarray:
        """Read-only memory map of one per-server column being written.

        Positional writes and shared file mappings are coherent through
        the kernel page cache, so rows already spilled by shard writers
        are visible here — the capture tap reads flushed chunks back
        through this view without any copy.
        """
        path, _ = self._offsets[name]
        return np.load(path, mmap_mode="r")

    def write_scalar(self, name: str, values: np.ndarray) -> None:
        """Persist one per-tick scalar column (length ``steps``)."""
        values = np.asarray(values, dtype=float)
        if values.shape != (self.steps,):
            raise ValueError(
                f"scalar column {name!r} must be ({self.steps},), "
                f"got {values.shape}"
            )
        np.save(_column_path(self.trace_dir, name), values)

    def write_fault_active(self, mask: np.ndarray) -> None:
        """Persist the optional ``(steps, n)`` fault-activity mask."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self.steps, self.server_count):
            raise ValueError(
                f"fault mask must be ({self.steps}, {self.server_count}), "
                f"got {mask.shape}"
            )
        np.save(_column_path(self.trace_dir, "fault_active"), mask)

    def finalize(self, meta: Mapping[str, object]) -> Path:
        """Write ``meta.json`` (marking the trace complete); return its path."""
        payload = dict(meta)
        payload.update(
            {
                "format": SEGMENT_FORMAT_VERSION,
                "steps": self.steps,
                "server_count": self.server_count,
                "chunk_ticks": self.chunk_ticks,
                "columns": list(FLEET_TRACE_COLUMNS),
                "scalar_columns": list(FLEET_SCALAR_TRACE_COLUMNS),
                "complete": True,
            }
        )
        path = self.trace_dir / "meta.json"
        with path.open("w") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
        return path


class FleetTraceReader:
    """Lazy reader over a finalized trace directory.

    Per-server columns come back as read-only ``numpy`` memory maps —
    slicing, reductions and metrics aggregation read through the page
    cache without ever copying a whole column into the process — so
    :meth:`to_result` reassembles a full
    :class:`~repro.fleet.engine.FleetResult` (metrics included) with
    RSS bounded by the reductions, not the horizon.
    """

    def __init__(self, trace_dir: Union[str, Path]) -> None:
        self.trace_dir = Path(trace_dir)
        meta_path = self.trace_dir / "meta.json"
        if not meta_path.exists():
            raise FileNotFoundError(
                f"no meta.json under {self.trace_dir} — incomplete or "
                "missing streamed trace"
            )
        with meta_path.open("r") as handle:
            self.meta = json.load(handle)
        if not self.meta.get("complete"):
            raise ValueError(f"trace under {self.trace_dir} is incomplete")
        self.steps = int(self.meta["steps"])
        self.server_count = int(self.meta["server_count"])
        self.dt_s = float(self.meta["dt_s"])
        self._cache: Dict[str, np.ndarray] = {}

    def column(self, name: str) -> np.ndarray:
        """One column, memory-mapped read-only (scalars load eagerly)."""
        cached = self._cache.get(name)
        if cached is not None:
            return cached
        path = _column_path(self.trace_dir, name)
        if name in self.meta["columns"]:
            values = np.load(path, mmap_mode="r")
        elif name in self.meta["scalar_columns"] or name == "fault_active":
            if name == "fault_active" and not path.exists():
                values = np.zeros(
                    (self.steps, self.server_count), dtype=bool
                )
            else:
                values = np.load(path)
                values.flags.writeable = False
        else:
            raise KeyError(f"unknown trace column {name!r}")
        self._cache[name] = values
        return values

    def to_result(
        self, fleet: "Fleet", materialize: bool = False
    ) -> "FleetResult":
        """Reassemble the run as a :class:`FleetResult` (with metrics).

        *fleet* must be the topology the trace was produced with (the
        rack breakdown of the metrics needs it).  With ``materialize``
        the columns are copied into RAM first — used for temp-spill
        runs whose directory is deleted right after.
        """
        from repro.fleet.engine import FleetResult

        if fleet.server_count != self.server_count:
            raise ValueError(
                f"trace holds {self.server_count} servers, fleet has "
                f"{fleet.server_count}"
            )

        def col(name: str) -> np.ndarray:
            values = self.column(name)
            if materialize:
                materialized = np.array(values)
                if name != "fault_active":
                    materialized.flags.writeable = False
                return materialized
            return values

        return FleetResult.from_traces(
            fleet,
            self.dt_s,
            {
                name: col(name)
                for name in (*FLEET_TRACE_COLUMNS, *FLEET_SCALAR_TRACE_COLUMNS)
            },
            col("fault_active"),
            scheduler_name=str(self.meta.get("scheduler", "unknown")),
            controller_name=str(self.meta.get("controller", "unknown")),
            backend=str(self.meta.get("backend", "sharded")),
        )


def partition_servers(
    server_count: int, shards: Union[int, Sequence[int]]
) -> Tuple[Tuple[int, int], ...]:
    """Contiguous ``(lo, hi)`` shard bounds for *server_count* servers.

    An integer asks for that many near-equal contiguous blocks (the
    first ``server_count % shards`` blocks get one extra server, as
    ``np.array_split`` does); a sequence gives explicit per-shard
    sizes, which must be positive and sum to *server_count*.
    """
    if server_count <= 0:
        raise ValueError("server_count must be positive")
    if isinstance(shards, (int, np.integer)):
        count = int(shards)
        if not 1 <= count <= server_count:
            raise ValueError(
                f"shards must be in [1, {server_count}], got {count}"
            )
        base, extra = divmod(server_count, count)
        sizes = [base + (1 if k < extra else 0) for k in range(count)]
    else:
        sizes = [int(size) for size in shards]
        if not sizes:
            raise ValueError("need at least one shard")
        if any(size <= 0 for size in sizes):
            raise ValueError(f"shard sizes must be positive, got {sizes}")
        if sum(sizes) != server_count:
            raise ValueError(
                f"shard sizes {sizes} sum to {sum(sizes)}, "
                f"fleet has {server_count} servers"
            )
    bounds = []
    lo = 0
    for size in sizes:
        bounds.append((lo, lo + size))
        lo += size
    return tuple(bounds)
