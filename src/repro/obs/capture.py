"""Live trace capture: a read-only tap from engine traces to the store.

The fleet engine already writes one row per tick into preallocated
whole-horizon trace arrays.  :class:`FleetCapture` rides that seam:
every ``chunk_ticks`` ticks the engine hands it the *slice* of rows
written since the last flush, and capture bulk-appends the per-server
columns into a :class:`~repro.obs.store.TimeseriesStore`.  Nothing on
the hot path changes — the engine's arithmetic, its trace arrays, and
its allocation pattern are untouched, so captured runs stay
bit-identical to uncaptured ones and the overhead is a handful of
vectorized copies per chunk.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.obs.store import TimeseriesStore

__all__ = [
    "FleetCapture",
    "CAPTURE_SIGNALS",
    "FACILITY_SIGNALS",
    "capture_facility_series",
]

#: Per-server engine trace signals a capture can subscribe to, mapped
#: to (channel suffix, unit).
CAPTURE_SIGNALS: Dict[str, Tuple[str, str]] = {
    "power": ("power_w", "W"),
    "fan": ("fan_power_w", "W"),
    "junction": ("junction_c", "degC"),
    "util": ("util_pct", "%"),
    "inlet": ("inlet_c", "degC"),
    "rpm": ("rpm", "RPM"),
}

#: Composed facility-layer series (see repro.facility), mapped to
#: (channel name, unit).  These are whole-facility scalars per tick,
#: ingested post-run by :func:`capture_facility_series`.
FACILITY_SIGNALS: Dict[str, Tuple[str, str]] = {
    "cooling_power_w": ("facility.cooling_power_w", "W"),
    "utility_power_w": ("facility.utility_power_w", "W"),
    "return_c": ("facility.return_c", "degC"),
    "carbon_kg": ("facility.carbon_kg", "kg"),
}


def capture_facility_series(
    store: TimeseriesStore,
    times_s: np.ndarray,
    series: Mapping[str, np.ndarray],
) -> None:
    """Append composed facility series as ``facility.*`` channels.

    The facility layers are composed *after* the fleet run (they never
    touch the engine's hot loop), so unlike :class:`FleetCapture` this
    ingest is a single post-run bulk append.  *series* maps
    :data:`FACILITY_SIGNALS` keys to per-tick arrays aligned with
    *times_s*; unknown keys are rejected.
    """
    unknown = set(series) - set(FACILITY_SIGNALS)
    if unknown:
        raise ValueError(
            f"unknown facility signals {sorted(unknown)!r} "
            f"(have {sorted(FACILITY_SIGNALS)})"
        )
    chunk: Dict[str, np.ndarray] = {}
    for key, values in series.items():
        channel, unit = FACILITY_SIGNALS[key]
        if channel not in store:
            store.register(channel, unit)
        chunk[channel] = np.asarray(values, dtype=float)
    if chunk:
        store.append_chunk(np.asarray(times_s, dtype=float), chunk)


class FleetCapture:
    """Subscribes a timeseries store to a fleet engine's trace rows.

    Pass one to :class:`~repro.fleet.engine.FleetEngine` via its
    ``capture`` argument.  Channels are named ``s{i}.{signal}`` (e.g.
    ``s3.junction_c``) plus the fleet aggregates ``fleet.power_w`` and
    ``fleet.unserved_pct``.  One capture instance serves one run at a
    time; the engine re-binds it at every ``run()``.
    """

    def __init__(
        self,
        store: Optional[TimeseriesStore] = None,
        chunk_ticks: int = 64,
        signals: Sequence[str] = ("power", "junction", "util", "inlet", "rpm"),
        aggregates: bool = True,
    ):
        if chunk_ticks < 1:
            raise ValueError("chunk_ticks must be >= 1")
        unknown = set(signals) - set(CAPTURE_SIGNALS)
        if unknown:
            raise ValueError(
                f"unknown capture signals {sorted(unknown)!r} "
                f"(have {sorted(CAPTURE_SIGNALS)})"
            )
        self.store = store if store is not None else TimeseriesStore()
        self.chunk_ticks = int(chunk_ticks)
        self.signals = tuple(signals)
        self.aggregates = bool(aggregates)
        self._names: Dict[str, Tuple[str, ...]] = {}
        self._units: Dict[str, str] = {}
        self._server_count = 0
        self._flushed_ticks = 0
        self._registered = False
        self._writer = None
        self._layout: Optional[Tuple[Tuple[str, ...], bool, bool]] = None

    @property
    def flushed_ticks(self) -> int:
        """Ticks flushed into the store since the last bind."""
        return self._flushed_ticks

    def bind(self, server_count: int) -> None:
        """Prepare channel names for a run over *server_count* servers."""
        self._server_count = server_count
        self._flushed_ticks = 0
        self._names = {}
        self._units = {}
        self._registered = False
        self._writer = None
        self._layout = None
        for signal in self.signals:
            suffix, unit = CAPTURE_SIGNALS[signal]
            names = tuple(f"s{i}.{suffix}" for i in range(server_count))
            self._names[signal] = names
            for name in names:
                self._units[name] = unit
        if self.aggregates:
            self._units["fleet.power_w"] = "W"
            self._units["fleet.unserved_pct"] = "%"

    def _register(self, names: Sequence[str]) -> None:
        # Registration is deferred to the first flush so the store can
        # back exactly the channels this run produces with one matrix
        # group (the vectorized bulk-ingest path).
        missing = [name for name in names if name not in self.store]
        if len(missing) == len(names):
            self.store.register_group(names, units=self._units)
        else:
            for name in missing:
                self.store.register(name, self._units.get(name, ""))
        self._registered = True

    def flush_through(
        self,
        stop: int,
        steps: int,
        times_s: np.ndarray,
        columns: Mapping[str, np.ndarray],
        unserved_pct: np.ndarray,
    ) -> None:
        """Flush the rows below tick *stop* in whole ``chunk_ticks`` slices.

        The remainder goes out once *stop* reaches *steps*.  Called
        after every tick; after a resume the first call replays the
        restored prefix in the slices the uninterrupted run flushed.
        *columns* maps each :data:`CAPTURE_SIGNALS` name to its
        ``(steps, n)`` column, in RAM or memory-mapped.
        """
        chunk = self.chunk_ticks
        start = self._flushed_ticks
        while start < stop and (start + chunk <= stop or stop == steps):
            end = min(start + chunk, stop)
            self.flush(
                times_s[start:end],
                {name: columns[name][start:end] for name in CAPTURE_SIGNALS},
                unserved_pct=unserved_pct[start:end],
            )
            start = end

    def flush(
        self,
        times_s: np.ndarray,
        rows: Mapping[str, np.ndarray],
        unserved_pct: Optional[np.ndarray] = None,
    ) -> None:
        """Ingest trace rows for ticks ``[a, b)``.

        *rows* maps signal name → the ``(m, n)`` trace slice for those
        ticks.  Slices are read, never written.  The per-flush cost is
        one ``(channels, m)`` matrix assembly (a transposed copy per
        signal) plus the store's vectorized group append — no python
        loop over channels.
        """
        if not self._names:
            raise RuntimeError("capture not bound; call bind() first")
        m = np.shape(times_s)[0]
        if m == 0:
            return
        present = tuple(s for s in self.signals if s in rows)
        agg_power = self.aggregates and "power" in rows
        agg_unserved = self.aggregates and unserved_pct is not None
        layout = (present, agg_power, agg_unserved)
        if self._layout is None:
            self._layout = layout
        elif layout != self._layout:
            raise ValueError(
                "inconsistent flush layout within one capture run"
            )

        n = self._server_count
        width = len(present) * n + int(agg_power) + int(agg_unserved)
        # Time-major, matching both the engine trace blocks we read
        # and the store's group layout: every copy is contiguous.
        matrix = np.empty((m, width), dtype=np.float64)
        names: List[str] = []
        r = 0
        for signal in present:
            matrix[:, r : r + n] = rows[signal]
            if not self._registered:
                names.extend(self._names[signal])
            r += n
        if agg_power:
            matrix[:, r] = rows["power"].sum(axis=1)
            if not self._registered:
                names.append("fleet.power_w")
            r += 1
        if agg_unserved:
            matrix[:, r] = unserved_pct
            if not self._registered:
                names.append("fleet.unserved_pct")

        if not self._registered:
            self._register(names)
            try:
                self._writer = self.store.group_writer(names)
            except ValueError:
                # Pre-existing standalone channels: fall back to the
                # per-channel dict path.
                self._writer = None
                self._fallback_names = tuple(names)

        times = np.asarray(times_s)
        if self._writer is not None:
            self._writer(times, matrix)
        else:
            self.store.append_chunk(
                times,
                {
                    name: matrix[:, i]
                    for i, name in enumerate(self._fallback_names)
                },
            )
        self._flushed_ticks += m
