"""Property-based fault-semantics invariants.

Hypothesis generates arbitrary fault schedules — any mix of sensor
faults, fan derates, outages and CRAC excursions with arbitrary
windows — and each runs a short fleet scenario.  Whatever the
schedule:

* every physical trace stays finite (dropouts corrupt *observations*,
  never power or temperature),
* outage servers execute exactly zero utilization while down,
* the kernelized ``vector`` backend agrees with the per-simulator
  ``reference`` backend (exactly on utilization, p-state, deficit and
  the fault/demand bookkeeping; to float round-off on fan speed,
  power, junction and inlet temperatures),
* an empty schedule is bit-identical to a run without one.
"""

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.fleet import (
    CoolestFirstPolicy,
    CracExcursionEvent,
    FanDegradationEvent,
    FaultSchedule,
    FleetEngine,
    FleetScheduler,
    SensorFaultEvent,
    ServerOutageEvent,
    build_uniform_fleet,
)
from repro.core.controllers.pid import PIController
from repro.workloads.profile import StaircaseProfile

#: Run horizon: 60 ticks x 5 s (two poll intervals of slack at the end).
DURATION_S = 300.0
DT_S = 5.0
STEPS = int(DURATION_S / DT_S)
SERVERS = 3

FLEET = build_uniform_fleet(rack_count=1, servers_per_rack=SERVERS)

PHYSICAL_TRACES = (
    "total_power_w",
    "fan_power_w",
    "max_junction_c",
    "utilization_pct",
    "inlet_c",
    "mean_rpm",
    "work_deficit_pct",
)

windows = st.tuples(
    st.sampled_from([0.0, 20.0, 55.0, 110.0, 220.0]),
    st.sampled_from([10.0, 45.0, 130.0, 400.0]),
).map(lambda pair: (pair[0], pair[0] + pair[1]))

servers = st.integers(0, SERVERS - 1)

sensor_events = st.builds(
    lambda server, window, mode, value, seed: SensorFaultEvent(
        server=server,
        mode=mode,
        value=value,
        seed=seed,
        start_s=window[0],
        end_s=window[1],
    ),
    servers,
    windows,
    st.sampled_from(["stuck", "drift", "offset", "spike", "dropout"]),
    st.sampled_from([-40.0, -5.0, 0.05, 8.0, 30.0, 120.0]),
    st.integers(0, 3),
)
fan_events = st.builds(
    lambda server, window, factor: FanDegradationEvent(
        server=server, rpm_factor=factor, start_s=window[0], end_s=window[1]
    ),
    servers,
    windows,
    st.sampled_from([0.35, 0.6, 0.85, 1.0]),
)
outage_events = st.builds(
    lambda server, window: ServerOutageEvent(
        server=server, start_s=window[0], end_s=window[1]
    ),
    servers,
    windows,
)
crac_events = st.builds(
    lambda window, delta, whole_room: CracExcursionEvent(
        delta_c=delta,
        rack=None if whole_room else 0,
        start_s=window[0],
        end_s=window[1],
    ),
    windows,
    st.sampled_from([-4.0, -1.5, 2.0, 5.0]),
    st.booleans(),
)

schedules = st.lists(
    st.one_of(sensor_events, fan_events, outage_events, crac_events),
    min_size=0,
    max_size=5,
).map(lambda events: FaultSchedule(events=tuple(events)))


def run_fleet(backend, faults):
    return FleetEngine(
        FLEET,
        StaircaseProfile([35.0, 80.0, 55.0], 100.0),
        scheduler=FleetScheduler(CoolestFirstPolicy()),
        controller_factory=lambda i: PIController(),
        backend=backend,
        faults=faults,
        # extreme schedules (hot CRAC + blinded controller + derated
        # fans) may legitimately overheat; the invariants under test
        # are about trace sanity, not thermal safety
        trip_on_critical=False,
    ).run(dt_s=DT_S)


class TestRandomSchedules:
    @given(schedule=schedules)
    @settings(max_examples=20, deadline=None)
    def test_traces_stay_finite(self, schedule):
        result = run_fleet("vector", schedule)
        for name in PHYSICAL_TRACES:
            assert np.isfinite(getattr(result, name)).all(), name
        assert np.isfinite(result.unserved_pct).all()
        assert np.isfinite(result.respilled_pct).all()
        assert np.isfinite(result.fault_unserved_pct).all()

    @given(schedule=schedules)
    @settings(max_examples=20, deadline=None)
    def test_outage_servers_execute_zero_utilization(self, schedule):
        result = run_fleet("vector", schedule)
        plan = schedule.compile(FLEET, STEPS, DT_S)
        if plan is None or not plan.outage.any():
            return
        assert np.all(result.utilization_pct[plan.outage] == 0.0)
        # and their lost share is non-negative bookkeeping
        assert np.all(result.respilled_pct >= 0.0)
        assert np.all(result.fault_unserved_pct >= 0.0)

    @given(schedule=schedules)
    @settings(max_examples=10, deadline=None)
    def test_vector_matches_reference(self, schedule):
        vector = run_fleet("vector", schedule)
        reference = run_fleet("reference", schedule)
        for name in (
            "utilization_pct",
            "work_deficit_pct",
            "unserved_pct",
            "pstate_index",
            "fault_active",
            "respilled_pct",
            "fault_unserved_pct",
        ):
            np.testing.assert_array_equal(
                getattr(vector, name),
                getattr(reference, name),
                err_msg=f"{name!r} diverged under {schedule!r}",
            )
        # the reference reports the fan-bank mean (a sum over the fans
        # divided by their count), 1 ulp off a non-representable command
        for name, atol in (
            ("mean_rpm", 1e-9),
            ("total_power_w", 1e-6),
            ("fan_power_w", 1e-9),
            ("max_junction_c", 1e-7),
            ("inlet_c", 1e-9),
        ):
            np.testing.assert_allclose(
                getattr(vector, name),
                getattr(reference, name),
                rtol=0,
                atol=atol,
                err_msg=f"{name!r} diverged under {schedule!r}",
            )


class TestEmptySchedule:
    def test_empty_equals_no_schedule_on_both_backends(self):
        for backend in ("vector", "reference"):
            plain = run_fleet(backend, None)
            empty = run_fleet(backend, FaultSchedule())
            for name in PHYSICAL_TRACES:
                np.testing.assert_array_equal(
                    getattr(plain, name), getattr(empty, name), err_msg=name
                )
