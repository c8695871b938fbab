"""Live-capture contract tests: a read-only tap on the engine trace.

The capture seam must not perturb the simulation (bit-identity with an
uncaptured run) and the store must hold exactly the trace columns with
end-of-tick timestamps.
"""

import numpy as np
import pytest

from repro.core.controllers.pid import PIController
from repro.fleet import FleetEngine, build_uniform_fleet
from repro.obs.capture import CAPTURE_SIGNALS, FleetCapture
from repro.obs.store import TimeseriesStore
from repro.workloads.profile import StaircaseProfile

DT = 2.0
#: FleetResult per-server trace fields asserted bit-identical.
RESULT_FIELDS = (
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
)


def make_engine(backend="vector", capture=None):
    fleet = build_uniform_fleet(rack_count=2, servers_per_rack=2)
    profile = StaircaseProfile([30.0, 85.0, 55.0, 10.0], 150.0)
    return FleetEngine(
        fleet,
        profile,
        controller_factory=lambda i: PIController(),
        backend=backend,
        capture=capture,
    )


def assert_results_identical(a, b):
    for field in RESULT_FIELDS:
        np.testing.assert_array_equal(
            getattr(a, field), getattr(b, field), err_msg=field
        )


class TestBitIdentity:
    def test_captured_run_matches_uncaptured(self):
        baseline = make_engine().run(dt_s=DT)
        captured = make_engine(capture=FleetCapture()).run(dt_s=DT)
        assert_results_identical(baseline, captured)

    def test_store_columns_match_trace(self):
        store = TimeseriesStore()
        capture = FleetCapture(store=store)
        engine = make_engine(capture=capture)
        result = engine.run(dt_s=DT)
        steps = result.times_s.shape[0]
        expected_times = DT * np.arange(1, steps + 1)

        np.testing.assert_array_equal(result.times_s, expected_times)
        for i in range(4):
            for signal, column in (
                ("power_w", result.total_power_w),
                ("junction_c", result.max_junction_c),
                ("util_pct", result.utilization_pct),
                ("inlet_c", result.inlet_c),
                ("rpm", result.mean_rpm),
            ):
                t, v = store.channel(f"s{i}.{signal}").series()
                np.testing.assert_array_equal(t, expected_times)
                np.testing.assert_array_equal(v, column[:, i])
        t, v = store.channel("fleet.power_w").series()
        np.testing.assert_array_equal(v, result.total_power_w.sum(axis=1))
        t, v = store.channel("fleet.unserved_pct").series()
        np.testing.assert_array_equal(v, result.unserved_pct)
        assert capture.flushed_ticks == steps

    def test_odd_chunk_boundary_matches_bulk(self):
        stores = []
        for chunk_ticks in (17, 1024):
            store = TimeseriesStore()
            make_engine(
                capture=FleetCapture(store=store, chunk_ticks=chunk_ticks)
            ).run(dt_s=DT)
            stores.append(store)
        odd, bulk = stores
        assert sorted(odd.channel_names()) == sorted(bulk.channel_names())
        for name in odd.channel_names():
            to, vo = odd.channel(name).series()
            tb, vb = bulk.channel(name).series()
            np.testing.assert_array_equal(to, tb, err_msg=name)
            np.testing.assert_array_equal(vo, vb, err_msg=name)

    def test_reference_backend_capture_matches_vector(self):
        """The capture seam is backend-independent: the reference
        stream matches the vector one exactly on utilization, fan speed
        and demand, and to float round-off on the physics channels."""
        stores = {}
        for backend in ("vector", "reference"):
            store = TimeseriesStore()
            make_engine(
                backend=backend, capture=FleetCapture(store=store)
            ).run(dt_s=DT)
            stores[backend] = store
        names = stores["vector"].channel_names()
        assert sorted(names) == sorted(stores["reference"].channel_names())
        for name in names:
            tv, vv = stores["vector"].channel(name).series()
            tr, vr = stores["reference"].channel(name).series()
            np.testing.assert_array_equal(tv, tr, err_msg=name)
            if name.endswith(("util_pct", "rpm", "unserved_pct")):
                np.testing.assert_array_equal(vv, vr, err_msg=name)
            else:
                np.testing.assert_allclose(
                    vv, vr, rtol=0, atol=1e-6, err_msg=name
                )


class TestRunStream:
    def test_stream_yields_every_tick_and_final_result(self):
        baseline = make_engine().run(dt_s=DT)
        engine = make_engine()
        views = list(engine.run_stream(dt_s=DT))
        steps = baseline.times_s.shape[0]
        assert len(views) == steps
        assert [v.tick for v in views] == list(range(steps))
        np.testing.assert_array_equal(
            [v.time_s for v in views], baseline.times_s
        )
        np.testing.assert_array_equal(
            views[-1].max_junction_c, baseline.max_junction_c[-1]
        )
        assert engine.last_result is not None
        assert_results_identical(engine.last_result, baseline)

    def test_stream_with_capture_fills_store(self):
        store = TimeseriesStore()
        engine = make_engine(capture=FleetCapture(store=store))
        views = list(engine.run_stream(dt_s=DT))
        t, v = store.channel("s0.junction_c").series()
        assert len(t) == len(views)
        np.testing.assert_array_equal(
            v, engine.last_result.max_junction_c[:, 0]
        )

    def test_stream_requires_vector_backend(self):
        engine = FleetEngine(
            build_uniform_fleet(rack_count=1, servers_per_rack=2),
            StaircaseProfile([30.0], 60.0),
            backend="sharded",
            shard_mode="inline",
        )
        with pytest.raises(ValueError, match="vector"):
            next(engine.run_stream(dt_s=DT))

    def test_reference_stream_matches_reference_run(self):
        baseline = make_engine(backend="reference").run(dt_s=DT)
        engine = make_engine(backend="reference")
        views = list(engine.run_stream(dt_s=DT))
        assert len(views) == baseline.times_s.shape[0]
        assert_results_identical(engine.last_result, baseline)


class TestCaptureValidation:
    def test_bad_chunk_ticks(self):
        with pytest.raises(ValueError):
            FleetCapture(chunk_ticks=0)

    def test_unknown_signal(self):
        with pytest.raises(ValueError, match="unknown capture signals"):
            FleetCapture(signals=("power", "voltage"))

    def test_flush_before_bind(self):
        with pytest.raises(RuntimeError, match="bind"):
            FleetCapture().flush(np.arange(3.0), {})

    def test_all_signals_have_units(self):
        for suffix, unit in CAPTURE_SIGNALS.values():
            assert suffix and unit
