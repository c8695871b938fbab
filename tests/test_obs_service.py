"""In-process tests for the live telemetry HTTP service.

Each test binds an ephemeral port (``port=0``), drives the asyncio
loop to completion, and speaks plain HTTP/1.1 over a stream pair — no
external client dependencies.
"""

import asyncio
import json

import pytest

from repro.core.controllers.pid import PIController
from repro.fleet import FleetEngine, build_uniform_fleet
from repro.fleet.faults import FaultSchedule, SensorFaultEvent
from repro.obs.service import LiveTelemetryService, ServiceConfig
from repro.workloads.profile import StaircaseProfile


def make_service(steps=20, dt_s=60.0, faults=None, **config_kwargs):
    fleet = build_uniform_fleet(rack_count=2, servers_per_rack=2)
    profile = StaircaseProfile([40.0, 70.0], steps * dt_s / 2.0)
    engine = FleetEngine(
        fleet,
        profile,
        controller_factory=lambda i: PIController(),
        faults=faults,
    )
    config = ServiceConfig(port=0, dt_s=dt_s, **config_kwargs)
    return LiveTelemetryService(engine, config)


def run_async(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=60.0))


async def http_get(port, path):
    """Minimal HTTP/1.1 GET returning (status, body-str)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(
        f"GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n".encode("latin-1")
    )
    await writer.drain()
    raw = await reader.read()
    writer.close()
    head, _, body = raw.partition(b"\r\n\r\n")
    status = int(head.split()[1])
    return status, body.decode("utf-8")


class TestEndpoints:
    def test_full_scenario_and_routes(self):
        async def scenario():
            service = make_service()
            await service.run_to_completion()
            port = service.port
            assert service.finished

            status, body = await http_get(port, "/healthz")
            health = json.loads(body)
            assert status == 200
            assert health["finished"] is True
            assert health["tick"] == health["steps"] == 20

            status, body = await http_get(port, "/metrics")
            assert status == 200
            assert "repro_fleet_ticks_total 20" in body
            assert "repro_service_requests_total" in body
            assert "repro_store_samples_total" in body

            status, body = await http_get(port, "/channels")
            names = [c["name"] for c in json.loads(body)["channels"]]
            assert "s0.junction_c" in names
            assert "fleet.power_w" in names

            status, body = await http_get(port, "/channels/s0.junction_c")
            series = json.loads(body)
            assert len(series["times_s"]) == 20
            assert series["unit"] == "degC"

            cutoff = series["times_s"][14]
            status, body = await http_get(
                port, f"/channels/s0.junction_c?since={cutoff}"
            )
            assert len(json.loads(body)["times_s"]) == 5

            status, body = await http_get(port, "/alerts")
            alerts = json.loads(body)
            assert status == 200
            assert alerts["finished"] is True

            status, _ = await http_get(port, "/channels/no.such")
            assert status == 404
            status, _ = await http_get(port, "/nope")
            assert status == 404
            status, _ = await http_get(
                port, "/channels/s0.junction_c?since=abc"
            )
            assert status == 400

            await service.stop()

        run_async(scenario())

    def test_tier_endpoint(self):
        async def scenario():
            # 120 ticks fills the first downsample tier several times.
            service = make_service(steps=120, dt_s=60.0)
            await service.run_to_completion()
            status, body = await http_get(
                service.port, "/channels/s0.junction_c?tier=0"
            )
            rollup = json.loads(body)
            assert status == 200
            assert rollup["tier"] == 0
            assert len(rollup["times"]) >= 1
            assert len(rollup["mean"]) == len(rollup["times"])
            status, _ = await http_get(
                service.port, "/channels/s0.junction_c?tier=99"
            )
            assert status == 404
            await service.stop()

        run_async(scenario())

    def test_report_served_when_faults_scheduled(self):
        async def scenario():
            faults = FaultSchedule(events=(
                SensorFaultEvent(
                    server=0, mode="stuck", value=30.0,
                    start_s=300.0, end_s=900.0,
                ),
            ))
            service = make_service(faults=faults)
            await service.run_to_completion()
            _, body = await http_get(service.port, "/alerts")
            payload = json.loads(body)
            assert "report" in payload
            assert len(payload["report"]["outcomes"]) == 1
            assert payload["report"]["outcomes"][0]["kind"] == "sensor"
            await service.stop()

        run_async(scenario())


class TestStreaming:
    def test_sse_client_receives_ticks_and_done(self):
        async def scenario():
            # Pace the run (~5 ms/tick) so the client attaches early.
            service = make_service(steps=40, dt_s=10.0, time_scale=2000.0)
            await service.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.port
            )
            writer.write(b"GET /stream HTTP/1.1\r\nHost: x\r\n\r\n")
            await writer.drain()

            events = []
            current = None
            while True:
                line = (await reader.readline()).decode("utf-8").strip()
                if line.startswith("event:"):
                    current = line.split(":", 1)[1].strip()
                elif line.startswith("data:") and current:
                    events.append((current, json.loads(line.split(":", 1)[1])))
                    if current == "done":
                        break
            writer.close()
            kinds = {kind for kind, _ in events}
            assert "tick" in kinds and "done" in kinds
            ticks = [p["tick"] for kind, p in events if kind == "tick"]
            assert ticks == sorted(ticks)
            assert events[-1][1]["ticks"] == 40
            await service.stop()

        run_async(scenario())


class TestLifecycle:
    def test_port_requires_started_server(self):
        service = make_service()
        with pytest.raises(RuntimeError, match="not started"):
            service.port

    def test_requires_vector_backend(self):
        fleet = build_uniform_fleet(rack_count=1, servers_per_rack=2)
        engine = FleetEngine(
            fleet, StaircaseProfile([50.0], 600.0), backend="reference"
        )
        with pytest.raises(ValueError, match="vector"):
            LiveTelemetryService(engine)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServiceConfig(dt_s=0.0)
        with pytest.raises(ValueError):
            ServiceConfig(time_scale=-1.0)
        with pytest.raises(ValueError):
            ServiceConfig(sse_every_ticks=0)

    def test_stop_releases_stream_clients(self):
        async def scenario():
            service = make_service(steps=10)
            await service.run_to_completion()

            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.port
            )
            writer.write(b"GET /stream HTTP/1.1\r\nHost: x\r\n\r\n")
            await writer.drain()
            # Read response headers, then the handshake comment.
            while (await reader.readline()).strip():
                pass
            assert b"stream open" in await reader.readline()
            await service.stop()
            # The server closed its end; the client read must finish.
            await asyncio.wait_for(reader.read(), timeout=10.0)
            writer.close()

        run_async(scenario())


class TestGracefulDegradation:
    """Checkpoint-on-shutdown, resume-on-start, bounded SSE queues."""

    def test_shutdown_seals_checkpoint_and_resume_matches(self, tmp_path):
        import numpy as np

        columns = (
            "times_s", "total_power_w", "fan_power_w", "max_junction_c",
            "utilization_pct", "inlet_c", "mean_rpm", "unserved_pct",
        )

        async def golden_run():
            service = make_service(steps=40)
            await service.run_to_completion()
            await service.stop()
            return service.engine.last_result, service

        async def interrupted_run():
            service = make_service(
                steps=40,
                checkpoint_dir=tmp_path / "ckpt",
                checkpoint_every_s=600.0,
            )
            await service.start()
            while service._tick < 20:
                await asyncio.sleep(0)
            service.request_shutdown()
            await service._stopping.wait()
            await service.stop()
            return service

        async def resumed_run():
            service = make_service(
                steps=40,
                checkpoint_dir=tmp_path / "ckpt",
                checkpoint_every_s=600.0,
            )
            await service.run_to_completion()
            await service.stop()
            return service.engine.last_result, service

        golden, golden_svc = run_async(golden_run())
        interrupted = run_async(interrupted_run())
        assert interrupted.interrupted_checkpoint is not None
        assert not interrupted.finished or interrupted._stopping.is_set()

        resumed, resumed_svc = run_async(resumed_run())
        assert resumed_svc.resume_tick > 0
        for name in columns:
            a = np.asarray(getattr(golden, name))
            b = np.asarray(getattr(resumed, name))
            assert np.array_equal(a, b), f"column {name} differs"
        golden_alerts = [a.to_dict() for a in golden_svc.detector.alerts]
        resumed_alerts = [a.to_dict() for a in resumed_svc.detector.alerts]
        assert golden_alerts == resumed_alerts

    def test_stalled_sse_client_drops_and_counts(self):
        async def scenario():
            service = make_service(steps=20, sse_queue_maxsize=2)
            await service.start()
            # A subscriber that never drains: events beyond the bound
            # are dropped and counted, the run itself never stalls.
            queue = asyncio.Queue(maxsize=2)
            service._subscribers.add(queue)
            await service._finished.wait()
            assert queue.qsize() == 2
            dropped = service.metrics.counter(
                "repro_service_sse_dropped_total",
                "SSE events dropped on stalled client queues",
            ).value
            assert dropped >= 18
            await service.stop()

        run_async(scenario())

    def test_queue_maxsize_validated(self):
        with pytest.raises(ValueError, match="sse_queue_maxsize"):
            ServiceConfig(sse_queue_maxsize=0)
