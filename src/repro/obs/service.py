"""Live fleet telemetry service: ``repro serve`` behind the scenes.

The paper's platform is continuously observed (CSTH polls on the
service processor feed the MSET/SPRT prognostics).  This module turns
the simulator into that kind of system: an asyncio loop advances a
:class:`~repro.fleet.engine.FleetEngine` tick by tick — in wall-clock
time, accelerated, or as fast as the kernel runs — publishing every
tick into a :class:`~repro.obs.store.TimeseriesStore` via the engine's
capture seam, feeding the :class:`~repro.obs.detect.StreamingFleetDetector`,
and serving the result over plain HTTP/1.1 (stdlib only, no
dependencies):

``GET /metrics``
    Prometheus text exposition of the shared registry.
``GET /channels``
    JSON channel directory with latest samples.
``GET /channels/<name>?since=<t>``
    JSON series for one channel (optionally only samples after ``t``).
``GET /alerts``
    JSON alert log (and the scored report once the run finished).
``GET /stream``
    Server-sent events: one ``tick`` event per simulation tick and an
    ``alert`` event per detection, fanned out to any number of
    concurrent clients.
``GET /healthz``
    Liveness probe with tick progress.

The simulation tick itself is synchronous (it is the kernelized fast
path — microseconds per tick at bench scale); the loop yields to the
HTTP handlers between ticks, so clients stay served even in
fastest-possible mode.
"""

from __future__ import annotations

import asyncio
import json
import logging
import os
import signal
from typing import Dict, List, Optional, Set, Union
from urllib.parse import parse_qs, unquote, urlparse

import numpy as np

from repro.engine.checkpoint import (
    CheckpointConfig,
    RunInterrupted,
    latest_checkpoint,
)
from repro.fleet.engine import FleetEngine
from repro.obs.capture import FleetCapture
from repro.obs.detect import (
    DetectionReport,
    DetectorConfig,
    StreamingFleetDetector,
    score_alerts,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.store import TimeseriesStore

__all__ = ["LiveTelemetryService", "ServiceConfig"]

_LOG = logging.getLogger(__name__)

_JSON_HEADERS = "Content-Type: application/json; charset=utf-8"
_TEXT_HEADERS = "Content-Type: text/plain; version=0.0.4; charset=utf-8"


class ServiceConfig:
    """Knobs for :class:`LiveTelemetryService` (plain attributes)."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8787,
        dt_s: float = 60.0,
        time_scale: float = 0.0,
        sse_every_ticks: int = 1,
        linger: bool = True,
        checkpoint_dir: Union[str, os.PathLike, None] = None,
        checkpoint_every_s: float = 300.0,
        checkpoint_keep: int = 2,
        sse_queue_maxsize: int = 1024,
    ):
        if dt_s <= 0:
            raise ValueError("dt_s must be positive")
        if time_scale < 0:
            raise ValueError(
                "time_scale must be >= 0 (0 = fastest possible; "
                "N = N simulated seconds per wall second)"
            )
        if sse_every_ticks < 1:
            raise ValueError("sse_every_ticks must be >= 1")
        if sse_queue_maxsize < 1:
            raise ValueError("sse_queue_maxsize must be >= 1")
        self.host = host
        self.port = port
        self.dt_s = dt_s
        #: Simulated seconds per wall-clock second; 0 runs unpaced.
        self.time_scale = time_scale
        self.sse_every_ticks = sse_every_ticks
        #: Keep serving after the scenario completes (the CLI wants
        #: this; in-process tests usually stop the service instead).
        self.linger = linger
        #: Directory for periodic run checkpoints (None = disabled).
        #: With a directory set the service checkpoints the engine
        #: every ``checkpoint_every_s`` simulated seconds, writes a
        #: final cut on SIGTERM/SIGINT, and resumes from the latest
        #: checkpoint found there on start.
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_every_s = checkpoint_every_s
        self.checkpoint_keep = checkpoint_keep
        #: Per-client SSE queue bound: a stalled client drops events
        #: (counted in ``repro_service_sse_dropped_total``) instead of
        #: stalling the simulation or its sibling subscribers.
        self.sse_queue_maxsize = sse_queue_maxsize

    def checkpoint_config(self) -> Optional[CheckpointConfig]:
        """The engine-side checkpoint config, or None when disabled."""
        if self.checkpoint_dir is None:
            return None
        return CheckpointConfig(
            directory=self.checkpoint_dir,
            every_s=self.checkpoint_every_s,
            keep=self.checkpoint_keep,
        )


class LiveTelemetryService:
    """Advance a fleet engine in (scaled) real time and serve its telemetry.

    The service owns the observability wiring: it installs a
    :class:`FleetCapture` on the engine (store + registry shared with
    the HTTP endpoints) and streams every tick through a
    :class:`StreamingFleetDetector`.  When the engine has a fault
    schedule, the detector watches the *observed* (sensor-faulted)
    junction readings — its own compiled copy of the schedule, so
    stateful faults never share RNG with the engine's control plane —
    and the finished run is scored against the schedule's ground truth
    into a :class:`DetectionReport` served at ``/alerts``.
    """

    def __init__(
        self,
        engine: FleetEngine,
        config: Optional[ServiceConfig] = None,
        store: Optional[TimeseriesStore] = None,
        metrics: Optional[MetricsRegistry] = None,
        detector_config: Optional[DetectorConfig] = None,
    ):
        if engine.backend != "vector":
            raise ValueError(
                "the telemetry service needs the 'vector' backend "
                f"(engine uses {engine.backend!r})"
            )
        self.engine = engine
        self.config = config or ServiceConfig()
        ckpt_cfg = self.config.checkpoint_config()
        if ckpt_cfg is not None:
            engine.checkpoint = ckpt_cfg
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.store = (
            store
            if store is not None
            else TimeseriesStore(metrics=self.metrics)
        )
        engine.capture = FleetCapture(store=self.store)
        engine.metrics = self.metrics

        n = engine.fleet.server_count
        self.detector = StreamingFleetDetector(
            n, self.config.dt_s, config=detector_config, metrics=self.metrics
        )
        # The observer's own sensor-fault view (see class docstring).
        self._observer_plan = None
        self.report: Optional[DetectionReport] = None

        self._tick = 0
        self._steps = 0
        self._sim_time_s = 0.0
        self._finished = asyncio.Event()
        self._stopping = asyncio.Event()
        self._subscribers: Set[asyncio.Queue] = set()
        self._server: Optional[asyncio.base_events.Server] = None
        #: Checkpoint path of an interrupted (SIGTERM/stop) run, once
        #: the loop has sealed it; the CLI maps this to EX_TEMPFAIL.
        self.interrupted_checkpoint: Optional[str] = None
        #: Tick the simulation resumed from (0 = cold start).
        self.resume_tick = 0
        self._gauge_clients = self.metrics.gauge(
            "repro_service_sse_clients", "Connected SSE stream clients"
        )
        self._counter_requests = self.metrics.counter(
            "repro_service_requests_total", "HTTP requests served"
        )
        self._counter_dropped = self.metrics.counter(
            "repro_service_sse_dropped_total",
            "SSE events dropped on stalled client queues",
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0`` for an ephemeral one)."""
        if self._server is None:
            raise RuntimeError("service not started")
        return self._server.sockets[0].getsockname()[1]

    @property
    def finished(self) -> bool:
        """Whether the scenario has run to completion."""
        return self._finished.is_set()

    async def start(self) -> None:
        """Bind the HTTP endpoint and kick off the simulation loop."""
        cfg = self.config
        self._server = await asyncio.start_server(
            self._handle_client, cfg.host, cfg.port
        )
        self._sim_task = asyncio.ensure_future(self._simulate())
        self._sim_task.add_done_callback(self._on_sim_done)
        _LOG.info(
            "telemetry service on http://%s:%d (dt=%gs, scale=%s)",
            cfg.host,
            self.port,
            cfg.dt_s,
            cfg.time_scale or "unpaced",
        )

    async def stop(self) -> None:
        """Shut down: cancel the loop, close the listener and streams."""
        self._stopping.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._sim_task.cancel()
        try:
            await self._sim_task
        except asyncio.CancelledError:
            pass
        for queue in list(self._subscribers):
            try:
                queue.put_nowait(None)
            except asyncio.QueueFull:
                # A full (stalled) client queue never drains anyway;
                # closing the listener is what ends its stream.
                pass

    def request_shutdown(self) -> None:
        """Degrade gracefully: checkpoint the run (if configured), stop.

        While the scenario is still simulating this asks the engine
        for a cooperative stop — with checkpointing configured the
        loop seals a final cut first and the service records it in
        :attr:`interrupted_checkpoint` so ``repro serve`` can exit
        with ``EX_TEMPFAIL`` (resumable).  After completion it simply
        releases :meth:`serve_forever`.
        """
        if not self._finished.is_set():
            self.engine.request_stop()
        else:
            self._stopping.set()

    def _install_signal_handlers(self) -> None:
        loop = asyncio.get_event_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.request_shutdown)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                # Platforms without loop signal support (or nested
                # loops) fall back to whatever the host CLI installed.
                break

    async def serve_forever(self) -> None:
        """Run until cancelled (``repro serve``'s main loop)."""
        await self.start()
        self._install_signal_handlers()
        try:
            await self._stopping.wait()
        finally:
            if not self._stopping.is_set():
                await self.stop()

    async def run_to_completion(self) -> None:
        """Start, simulate the whole scenario, and return (still serving)."""
        if self._server is None:
            await self.start()
        await self._finished.wait()

    # ------------------------------------------------------------------
    # simulation loop
    # ------------------------------------------------------------------
    def _observed_junction(
        self, time_s: float, junction_c: np.ndarray
    ) -> np.ndarray:
        if self._observer_plan is None or not self._observer_plan.has_sensor_faults:
            return junction_c
        observed = np.array(junction_c, dtype=float)
        for i in np.flatnonzero(self._observer_plan.sensor_faulted).tolist():
            observed[i] = self._observer_plan.transform_observation(
                i, time_s, float(observed[i]), float(observed[i])
            )[0]
        return observed

    async def _simulate(self) -> None:
        cfg = self.config
        engine = self.engine
        dt = cfg.dt_s
        duration = engine.workload.duration_s
        self._steps = int(round(duration / dt))
        if engine.faults is not None:
            self._observer_plan = engine.faults.compile(
                engine.fleet, self._steps, dt
            )
        resume_from = None
        ckpt_cfg = engine.checkpoint
        if ckpt_cfg is not None:
            resume_from = latest_checkpoint(ckpt_cfg.root)
            if resume_from is not None:
                _LOG.info("resuming from checkpoint %s", resume_from)
        loop = asyncio.get_event_loop()
        started_wall = loop.time()
        stream = engine.run_stream(dt_s=dt, resume_from=resume_from)
        try:
            for view in stream:
                self._tick = view.tick + 1
                self._sim_time_s = view.time_s
                self.resume_tick = engine.last_resume_tick
                observed = self._observed_junction(
                    view.time_s, view.max_junction_c
                )
                alerts = self.detector.observe_tick(
                    view.time_s,
                    observed,
                    power_w=view.total_power_w,
                    inlet_c=view.inlet_c,
                    utilization_pct=view.utilization_pct,
                )
                if view.replayed:
                    # Restored-prefix ticks rebuild the detector, the
                    # store and the alert log deterministically; they
                    # are history, not live telemetry — no SSE fan-out,
                    # no alert noise, no wall-clock pacing.
                    continue
                for alert in alerts:
                    _LOG.warning(
                        "ALERT t=%.0fs server=%d channel=%s residual=%+.2f",
                        alert.time_s,
                        alert.server,
                        alert.channel,
                        alert.residual,
                    )
                    self._publish("alert", alert.to_dict())
                if (
                    self._tick % cfg.sse_every_ticks == 0
                    or self._tick == self._steps
                ):
                    self._publish("tick", self._tick_payload(view))
                if cfg.time_scale > 0:
                    sim_elapsed_s = view.time_s - self.resume_tick * dt
                    target_wall = started_wall + sim_elapsed_s / cfg.time_scale
                    delay = target_wall - loop.time()
                    if delay > 0:
                        await asyncio.sleep(delay)
                    else:
                        await asyncio.sleep(0)
                else:
                    # Unpaced: still yield so HTTP clients get a turn.
                    await asyncio.sleep(0)
        except RunInterrupted as exc:
            if exc.checkpoint_path is not None:
                self.interrupted_checkpoint = str(exc.checkpoint_path)
            _LOG.info(
                "run interrupted at tick %d/%d (checkpoint: %s)",
                self._tick,
                self._steps,
                self.interrupted_checkpoint or "none",
            )
            self._publish(
                "interrupted",
                {
                    "tick": self._tick,
                    "checkpoint": self.interrupted_checkpoint,
                },
            )
            self._finished.set()
            self._stopping.set()
            return
        self._finish_report()
        self._finished.set()
        self._publish("done", {"ticks": self._tick})
        _LOG.info("scenario complete: %d ticks", self._tick)
        if not cfg.linger:
            self._stopping.set()

    def _on_sim_done(self, task: "asyncio.Task") -> None:
        # A crashed simulation must not leave run_to_completion()
        # hanging: surface the error and release every waiter.
        if task.cancelled():
            return
        exc = task.exception()
        if exc is not None:
            _LOG.error("simulation loop failed: %r", exc)
            self._finished.set()
            self._stopping.set()

    def _finish_report(self) -> None:
        engine = self.engine
        if engine.faults is None:
            return
        self.report = score_alerts(
            self.detector.alerts,
            engine.faults,
            engine.fleet.server_count,
            horizon_s=self._sim_time_s,
            rack_of=engine.fleet.rack_index_of_server,
        )
        self.metrics.gauge(
            "repro_detection_recall", "Detected fraction of injected faults"
        ).set(
            self.report.detected_count / max(1, len(self.report.outcomes))
        )
        self.metrics.gauge(
            "repro_detection_false_positives", "Unattributed alerts"
        ).set(len(self.report.false_positives))

    def _tick_payload(self, view) -> Dict[str, object]:
        return {
            "tick": int(view.tick),
            "time_s": float(view.time_s),
            "fleet_power_w": float(view.total_power_w.sum()),
            "max_junction_c": float(view.max_junction_c.max()),
            "mean_util_pct": float(view.utilization_pct.mean()),
            "unserved_pct": float(view.unserved_pct),
            "alerts": len(self.detector.alerts),
        }

    # ------------------------------------------------------------------
    # SSE fan-out
    # ------------------------------------------------------------------
    def _publish(self, event: str, payload: Dict[str, object]) -> None:
        message = (event, json.dumps(payload))
        for queue in list(self._subscribers):
            try:
                queue.put_nowait(message)
            except asyncio.QueueFull:
                # A stalled client loses events rather than stalling
                # the simulation or the other subscribers.
                self._counter_dropped.inc()

    # ------------------------------------------------------------------
    # HTTP plumbing (deliberately tiny: GET-only HTTP/1.1, no deps)
    # ------------------------------------------------------------------
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request_line = await reader.readline()
            parts = request_line.decode("latin-1").split()
            if len(parts) < 2:
                return
            method, target = parts[0], parts[1]
            # Drain request headers.
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
            self._counter_requests.inc()
            if method != "GET":
                await self._respond(
                    writer, 405, _TEXT_HEADERS, "method not allowed\n"
                )
                return
            url = urlparse(target)
            path = unquote(url.path)
            query = parse_qs(url.query)
            if path == "/stream":
                await self._serve_stream(writer)
                return
            status, headers, body = self._route(path, query)
            await self._respond(writer, status, headers, body)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
            except RuntimeError:  # pragma: no cover - loop teardown race
                pass

    def _route(self, path: str, query: Dict[str, List[str]]):
        if path == "/metrics":
            return 200, _TEXT_HEADERS, self.metrics.render_prometheus()
        if path == "/healthz":
            return 200, _JSON_HEADERS, json.dumps(
                {
                    "status": "ok",
                    "tick": self._tick,
                    "steps": self._steps,
                    "sim_time_s": self._sim_time_s,
                    "finished": self.finished,
                    "resume_tick": self.resume_tick,
                    "interrupted_checkpoint": self.interrupted_checkpoint,
                }
            )
        if path == "/channels":
            latest = self.store.latest()
            return 200, _JSON_HEADERS, json.dumps(
                {
                    "channels": [
                        {
                            "name": name,
                            "unit": self.store.channel(name).unit,
                            "latest": latest.get(name),
                        }
                        for name in self.store.channel_names()
                    ]
                }
            )
        if path.startswith("/channels/"):
            return self._route_channel(path[len("/channels/") :], query)
        if path == "/alerts":
            payload: Dict[str, object] = {
                "alerts": [a.to_dict() for a in self.detector.alerts],
                "active": self.detector.active_alarms(),
                "finished": self.finished,
            }
            if self.report is not None:
                payload["report"] = self.report.to_dict()
            return 200, _JSON_HEADERS, json.dumps(payload)
        return 404, _TEXT_HEADERS, f"no route for {path}\n"

    def _route_channel(self, name: str, query: Dict[str, List[str]]):
        if name not in self.store:
            return 404, _TEXT_HEADERS, f"unknown channel {name!r}\n"
        channel = self.store.channel(name)
        try:
            since = float(query["since"][0]) if "since" in query else None
            tier = int(query["tier"][0]) if "tier" in query else None
        except ValueError:
            return 400, _TEXT_HEADERS, "since/tier must be numeric\n"
        if tier is not None:
            try:
                rollup = channel.tier(tier)
            except IndexError:
                return 404, _TEXT_HEADERS, f"channel has no tier {tier}\n"
            return 200, _JSON_HEADERS, json.dumps(
                {
                    "name": name,
                    "unit": channel.unit,
                    "tier": tier,
                    **{key: arr.tolist() for key, arr in rollup.items()},
                }
            )
        if since is not None:
            times, values = channel.since(since)
        else:
            times, values = channel.series()
        return 200, _JSON_HEADERS, json.dumps(
            {
                "name": name,
                "unit": channel.unit,
                "times_s": times.tolist(),
                "values": values.tolist(),
            }
        )

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        content_type: str,
        body: str,
    ) -> None:
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found", 405: "Method Not Allowed"}.get(
            status, "OK"
        )
        payload = body.encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"{content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            "Connection: close\r\n"
            "\r\n"
        )
        writer.write(head.encode("latin-1") + payload)
        await writer.drain()

    async def _serve_stream(self, writer: asyncio.StreamWriter) -> None:
        queue: asyncio.Queue = asyncio.Queue(
            maxsize=self.config.sse_queue_maxsize
        )
        self._subscribers.add(queue)
        self._gauge_clients.set(len(self._subscribers))
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: text/event-stream\r\n"
            "Cache-Control: no-cache\r\n"
            "Connection: keep-alive\r\n"
            "\r\n"
        )
        try:
            writer.write(head.encode("latin-1"))
            writer.write(b": stream open\n\n")
            await writer.drain()
            while True:
                message = await queue.get()
                if message is None:
                    break
                event, data = message
                writer.write(f"event: {event}\ndata: {data}\n\n".encode("utf-8"))
                await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._subscribers.discard(queue)
            self._gauge_clients.set(len(self._subscribers))
