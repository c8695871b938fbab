"""Equivalence contract of the chunked execution kernels.

The single-server kernel (``run_experiment(engine="kernel")``) must
reproduce the preserved tick-by-tick loop (``engine="reference"``)
column for column, bit for bit.  The fleet kernel
(``FleetEngine(backend="vector")``) is checked against the
``reference`` backend — the same tick loop over one real simulator
per server — exactly on the integer, utilization, fan-speed and
demand columns and to float round-off on the rest (the committed
golden traces pin its bits).  Its step caches and array-based
scheduling are checked bit for bit against their uncached / view-based
counterparts directly.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.controllers.bangbang import BangBangController
from repro.core.controllers.base import FanController
from repro.core.controllers.coordinated import CoordinatedController
from repro.core.controllers.default import FixedSpeedController
from repro.core.controllers.lut import LUTController
from repro.core.controllers.pid import PIController
from repro.experiments.runner import (
    ExperimentConfig,
    TRACE_COLUMNS,
    run_experiment,
)
from repro.engine.kernel import FleetVectorKernel
from repro.fleet import (
    FaultSchedule,
    Fleet,
    FleetEngine,
    FleetScheduler,
    FleetLoadArrays,
    PlacementPolicy,
    Rack,
    ServerOutageEvent,
    build_recirculation_matrix,
    build_uniform_fleet,
)
from repro.fleet.scheduler import (
    PLACEMENT_POLICIES,
    ServerLoadView,
)
from repro.fleet.stages import FleetPlacement
from repro.server.ambient import SinusoidalAmbient
from repro.server.dvfs import default_dvfs_ladder
from repro.server.faults import (
    DriftFault,
    DropoutFault,
    OffsetFault,
    SpikeFault,
    StuckFault,
)
from repro.server.specs import default_server_spec
from repro.workloads.loadgen import monitor_warmup_times
from repro.server.thermal import substep_schedule
from repro.workloads.profile import (
    ConstantProfile,
    RampProfile,
    RandomStepProfile,
    SquareWaveProfile,
    StaircaseProfile,
)

def assert_experiments_identical(controller_fn, profile, config, **kwargs):
    kernel = run_experiment(
        controller_fn(), profile, config=config, engine="kernel", **kwargs
    )
    reference = run_experiment(
        controller_fn(), profile, config=config, engine="reference", **kwargs
    )
    for column in TRACE_COLUMNS:
        np.testing.assert_array_equal(
            kernel.column(column),
            reference.column(column),
            err_msg=f"column {column!r} diverged from the reference loop",
        )


#: Fleet columns the kernel and the reference simulators agree on
#: exactly; the rest carry float round-off (numpy vs scalar folds).
EXACT_FLEET_TRACES = (
    "times_s",
    "utilization_pct",
    "mean_rpm",
    "unserved_pct",
    "pstate_index",
    "work_deficit_pct",
)
FLEET_TRACE_ATOL = {
    "total_power_w": 1e-6,
    "fan_power_w": 1e-9,
    "max_junction_c": 1e-7,
    "inlet_c": 1e-9,
}


def assert_fleet_matches_reference(make_engine, dt_s):
    kernel = make_engine("vector").run(dt_s=dt_s)
    reference = make_engine("reference").run(dt_s=dt_s)
    for name in EXACT_FLEET_TRACES:
        np.testing.assert_array_equal(
            getattr(kernel, name),
            getattr(reference, name),
            err_msg=f"fleet trace {name!r} diverged from the reference",
        )
    for name, atol in FLEET_TRACE_ATOL.items():
        np.testing.assert_allclose(
            getattr(kernel, name),
            getattr(reference, name),
            rtol=0,
            atol=atol,
            err_msg=f"fleet trace {name!r} diverged from the reference",
        )


class _PollEvery(FanController):
    """Minimal stateful controller with a configurable poll cadence."""

    def __init__(self, poll_interval_s: float, speeds):
        self.poll_interval_s = poll_interval_s
        self._speeds = tuple(speeds)
        self._calls = 0

    def decide(self, observation):
        self._calls += 1
        return self._speeds[self._calls % len(self._speeds)]

    def reset(self):
        self._calls = 0


class TestSingleServerAnchors:
    """Pinned scenarios: the kernel equals the seed loop bit for bit."""

    def test_lut_pwm_run(self, paper_lut):
        assert_experiments_identical(
            lambda: LUTController(paper_lut),
            StaircaseProfile([10.0, 100.0, 40.0], 300.0),
            ExperimentConfig(dt_s=1.0, seed=7),
        )

    def test_coordinated_dvfs_run(self, paper_lut, dvfs_spec):
        spec = dvfs_spec
        assert_experiments_identical(
            lambda: CoordinatedController(paper_lut, spec.dvfs),
            StaircaseProfile([20.0, 70.0, 40.0, 95.0, 10.0], 180.0),
            ExperimentConfig(
                dt_s=1.0, monitor_window_s=1.0, loadgen_mode="direct"
            ),
            spec=spec,
        )

    def test_time_varying_ambient_run(self, paper_lut):
        assert_experiments_identical(
            lambda: LUTController(paper_lut),
            RandomStepProfile(60.0, 600.0, seed=11),
            ExperimentConfig(dt_s=2.0, seed=5),
            ambient=SinusoidalAmbient(24.0, 3.0, 300.0),
        )

    def test_rng_draw_order_unchanged_from_seed(self):
        """The noisy trace consumes the RNG stream exactly as the seed
        implementation did: 2·S draws at every poll, then 2·S draws
        after every tick, nothing else.

        Rebuilt by hand from a twin generator and the ground-truth
        junction trace, so this pins the *absolute* draw order, not
        merely kernel/reference agreement.
        """
        spec = default_server_spec()
        config = ExperimentConfig(dt_s=1.0, seed=123)
        profile = StaircaseProfile([40.0, 85.0], 60.0)
        result = run_experiment(
            FixedSpeedController(rpm=3000.0), profile, config=config
        )

        noise = spec.sensor_noise
        sigma = noise.temperature_sigma_c
        quantum = noise.temperature_quantum_c
        rng = np.random.default_rng(config.seed)
        poll_interval = FixedSpeedController(rpm=3000.0).poll_interval_s

        cpu0 = result.column("cpu0_junction_c")
        cpu1 = result.column("cpu1_junction_c")
        expected = []
        next_poll = 0.0
        time_s = 0.0
        for tick in range(len(cpu0)):
            if time_s >= next_poll - 1e-9:
                rng.normal(0.0, sigma, size=4)  # the poll's sensor read
                while time_s >= next_poll - 1e-9:
                    next_poll += poll_interval
            draws = rng.normal(0.0, sigma, size=4)
            healthy = [
                cpu0[tick] - 0.5,
                cpu0[tick] + 0.5,
                cpu1[tick] - 0.5,
                cpu1[tick] + 0.5,
            ]
            measured = [
                round((h + d) / quantum) * quantum
                for h, d in zip(healthy, draws)
            ]
            expected.append(max(measured))
            time_s += config.dt_s

        np.testing.assert_array_equal(
            result.column("measured_max_cpu_c"), np.array(expected)
        )

    def test_critical_trip_matches_reference(self):
        spec = replace(
            default_server_spec(),
            critical_temperature_c=76.0,
            target_max_temperature_c=70.0,
        )
        profile = StaircaseProfile([100.0], 3600.0)
        errors = {}
        for engine in ("kernel", "reference"):
            with pytest.raises(Exception) as excinfo:
                run_experiment(
                    FixedSpeedController(rpm=1800.0),
                    profile,
                    spec=spec,
                    config=ExperimentConfig(dt_s=5.0),
                    engine=engine,
                )
            errors[engine] = str(excinfo.value)
        assert errors["kernel"] == errors["reference"]

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            run_experiment(
                FixedSpeedController(rpm=3000.0),
                StaircaseProfile([50.0], 60.0),
                engine="gpu",
            )


class TestChunkedEqualsTickByTickProperty:
    """Randomized sweep over poll intervals, dt values (including
    dt > poll interval), profiles, and seeds."""

    @pytest.mark.parametrize("case", range(8))
    def test_random_configurations(self, case):
        rng = np.random.default_rng(1000 + case)
        dt_s = float(rng.choice([0.3, 0.7, 1.0, 2.5, 5.0, 30.0]))
        poll_s = float(rng.choice([1.0, 3.0, 10.0, 25.0]))
        seed = int(rng.integers(0, 2**16))
        window_s = float(rng.choice([15.0, 60.0, 90.0]))
        mode = str(rng.choice(["pwm", "direct"]))
        duration = float(rng.choice([240.0, 480.0]))
        kind = int(rng.integers(0, 3))
        if kind == 0:
            profile = RandomStepProfile(45.0, duration, seed=seed)
        elif kind == 1:
            profile = SquareWaveProfile(
                85.0, 15.0, 100.0, duty=0.4, duration_s=duration
            )
        else:
            profile = RampProfile(
                [(0.0, 5.0), (duration / 2, 95.0), (duration, 20.0)]
            )
        # include non-exact speeds: sum(6 copies)/6 differs from the
        # per-fan value by 1 ulp there, and the thermal network must
        # see the bank mean exactly as ServerSimulator.step feeds it
        speeds = rng.uniform(1800.0, 4200.0, size=3)
        assert_experiments_identical(
            lambda: _PollEvery(poll_s, speeds),
            profile,
            ExperimentConfig(
                dt_s=dt_s,
                monitor_window_s=window_s,
                loadgen_mode=mode,
                seed=seed,
            ),
        )

    def test_non_exact_fan_rpm_regression(self):
        """sum(6 · rpm)/6 != rpm for this value; the kernel must feed
        the bank *mean* into the convective resistances like the
        simulator does (1-ulp divergence otherwise)."""
        rpm = 2033.0552710570582
        assert sum([rpm] * 6) / 6 != rpm
        assert_experiments_identical(
            lambda: FixedSpeedController(rpm),
            StaircaseProfile([60.0, 90.0], 150.0),
            ExperimentConfig(dt_s=1.0, seed=2),
        )


class TestFleetKernelAnchors:
    """The fleet kernel agrees with the per-simulator reference."""

    @pytest.mark.parametrize("policy_name", sorted(PLACEMENT_POLICIES))
    def test_every_builtin_policy(self, policy_name):
        fleet = build_uniform_fleet(rack_count=2, servers_per_rack=3)
        profile = StaircaseProfile([20.0, 80.0, 50.0], 120.0)
        assert_fleet_matches_reference(
            lambda backend: FleetEngine(
                fleet,
                profile,
                scheduler=FleetScheduler(PLACEMENT_POLICIES[policy_name]()),
                controller_factory=lambda i: PIController(),
                backend=backend,
            ),
            dt_s=2.0,
        )

    def test_coordinated_dvfs_with_recirculation(self, paper_lut, dvfs_spec):
        spec = dvfs_spec
        fleet = build_uniform_fleet(rack_count=2, servers_per_rack=4, spec=spec)
        assert_fleet_matches_reference(
            lambda backend: FleetEngine(
                fleet,
                StaircaseProfile([15.0, 60.0, 35.0], 120.0),
                scheduler=FleetScheduler(PLACEMENT_POLICIES["dvfs-aware"]()),
                controller_factory=lambda i: CoordinatedController(
                    paper_lut, spec.dvfs
                ),
                backend=backend,
            ),
            dt_s=2.0,
        )

    def test_time_varying_crac_supply(self):
        spec = default_server_spec()
        racks = tuple(
            Rack(
                name=f"r{i}",
                servers=(spec, spec),
                crac=SinusoidalAmbient(23.0, 2.0, 300.0),
            )
            for i in range(2)
        )
        fleet = Fleet(
            racks=racks,
            recirculation=build_recirculation_matrix(
                [2, 2], intra_rack_coupling=0.08, cross_rack_coupling=0.01
            ),
        )
        assert_fleet_matches_reference(
            lambda backend: FleetEngine(
                fleet,
                StaircaseProfile([30.0, 80.0], 300.0),
                controller_factory=lambda i: PIController(),
                backend=backend,
            ),
            dt_s=2.0,
        )

    def test_capped_capacity_partial_fills(self):
        fleet = build_uniform_fleet(rack_count=1, servers_per_rack=3)
        assert_fleet_matches_reference(
            lambda backend: FleetEngine(
                fleet,
                StaircaseProfile([90.0, 40.0], 120.0),
                scheduler=FleetScheduler(
                    PLACEMENT_POLICIES["coolest-first"](), server_cap_pct=60.0
                ),
                backend=backend,
            ),
            dt_s=2.0,
        )

    def test_custom_view_policy_falls_back_and_matches(self):
        """A policy without order_indices rides the view-building
        fallback inside the tick loop and still matches the reference."""

        class HottestFirst(PlacementPolicy):
            name = "hottest-first"

            def order(self, views):
                temps = np.array([v.max_junction_c for v in views])
                return [views[i].index for i in np.argsort(-temps, kind="stable")]

        fleet = build_uniform_fleet(rack_count=1, servers_per_rack=4)
        assert_fleet_matches_reference(
            lambda backend: FleetEngine(
                fleet,
                StaircaseProfile([30.0, 70.0], 120.0),
                scheduler=FleetScheduler(HottestFirst()),
                controller_factory=lambda i: PIController(),
                backend=backend,
            ),
            dt_s=2.0,
        )


class TestSchedulerFastPath:
    """Array-based scheduling reproduces the view path exactly."""

    def _random_arrays(self, rng, n):
        return FleetLoadArrays(
            utilization_pct=rng.uniform(0, 100, n),
            max_junction_c=rng.uniform(30, 90, n),
            inlet_c=rng.uniform(18, 32, n),
            leakage_w=rng.uniform(5, 40, n),
            pstate_index=rng.integers(0, 4, n),
            rack_index=np.repeat(np.arange((n + 1) // 2), 2)[:n],
            leakage_slope_w_per_c=rng.uniform(0.1, 3.0, n),
        )

    def _views_from(self, arrays):
        n = len(arrays.utilization_pct)
        return [
            ServerLoadView(
                index=i,
                rack_index=int(arrays.rack_index[i]),
                utilization_pct=float(arrays.utilization_pct[i]),
                max_junction_c=float(arrays.max_junction_c[i]),
                inlet_c=float(arrays.inlet_c[i]),
                leakage_w=float(arrays.leakage_w[i]),
                leakage_slope_w_per_c=float(arrays.leakage_slope_w_per_c[i]),
                pstate_index=int(arrays.pstate_index[i]),
            )
            for i in range(n)
        ]

    @pytest.mark.parametrize("policy_name", sorted(PLACEMENT_POLICIES))
    def test_order_indices_matches_order(self, policy_name):
        rng = np.random.default_rng(42)
        for n in (1, 3, 17):
            array_policy = PLACEMENT_POLICIES[policy_name]()
            view_policy = PLACEMENT_POLICIES[policy_name]()
            for _ in range(5):
                arrays = self._random_arrays(rng, n)
                views = self._views_from(arrays)
                np.testing.assert_array_equal(
                    np.asarray(array_policy.order_indices(arrays)),
                    np.asarray(view_policy.order(views)),
                )

    def test_assign_indexed_matches_assign(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            cap = float(rng.choice([100.0, 60.0, 73.3, 99.9]))
            total = float(rng.uniform(0.0, 1.3 * n * cap))
            order = rng.permutation(n)
            scheduler = FleetScheduler(
                PLACEMENT_POLICIES["round-robin"](), server_cap_pct=cap
            )
            views = self._views_from(self._random_arrays(rng, n))
            by_views = scheduler.assign(
                views, total
            )  # validates + python fill; order is policy-driven
            # repeat the python fill along the random order directly
            allocations = np.zeros(n)
            remaining = float(total)
            for index in order:
                if remaining <= 0.0:
                    break
                share = min(cap, remaining)
                allocations[index] = share
                remaining -= share
            fast = scheduler.assign_indexed(order, n, total)
            np.testing.assert_array_equal(fast.allocations_pct, allocations)
            assert fast.unserved_pct == max(0.0, remaining)
            # sanity: both paths conserve demand
            assert by_views.allocations_pct.sum() + by_views.unserved_pct == (
                pytest.approx(total)
            )

    def _placement(self, policy, arrays, demand_pct, cap, down):
        """The shared placement stage on one tick with ``down`` servers
        out: (decision, unserved, respilled, fault-unserved) of the
        outage tick, then the all-up (counterfactual) decision."""
        n = len(arrays.utilization_pct)
        fleet = build_uniform_fleet(rack_count=1, servers_per_rack=n)
        schedule = FaultSchedule(
            events=tuple(ServerOutageEvent(server=int(i)) for i in down)
        )
        outcome = []
        for faults in (schedule, None):
            engine = FleetEngine(
                fleet,
                ConstantProfile(demand_pct, 1.0),
                scheduler=FleetScheduler(policy, server_cap_pct=cap),
                faults=faults,
            )
            plan = faults.compile(fleet, 1, 1.0) if faults else None
            respilled, fault_unserved = np.zeros(1), np.zeros(1)
            decision = FleetPlacement(
                engine, 1.0, 1, plan, respilled, fault_unserved
            ).assign(0, arrays)
            outcome.append(
                (
                    decision.allocations_pct,
                    decision.unserved_pct,
                    respilled[0],
                    fault_unserved[0],
                )
            )
        return outcome

    @pytest.mark.parametrize("policy_name", sorted(PLACEMENT_POLICIES))
    def test_outage_respill_matches_view_path(self, policy_name):
        """The indexed degraded fill + counterfactual equals the view
        path's ``assign_with_spill`` on random fleets and outage masks:
        the same placement stage, once with the policy's array ranking
        and once with a view-only wrapper of the same policy."""

        class ViewOnly(PlacementPolicy):
            def __init__(self, inner):
                self.inner = inner
                self.name = inner.name

            def order(self, views):
                return self.inner.order(views)

        rng = np.random.default_rng(23)
        for n in (1, 3, 17):
            array_policy = PLACEMENT_POLICIES[policy_name]()
            view_policy = ViewOnly(PLACEMENT_POLICIES[policy_name]())
            for _ in range(8):
                arrays = self._random_arrays(rng, n)
                # demand up to the full fleet, caps down to 60%: partial
                # fills and unserved remainders both occur
                demand = float(rng.uniform(0.0, 100.0))
                cap = float(rng.choice([100.0, 60.0, 73.3]))
                down = np.nonzero(rng.random(n) < 0.4)[0]
                if not down.size:
                    down = rng.integers(0, n, 1)
                fast = self._placement(array_policy, arrays, demand, cap, down)
                slow = self._placement(view_policy, arrays, demand, cap, down)
                for (a_alloc, *a_rest), (b_alloc, *b_rest) in zip(fast, slow):
                    np.testing.assert_array_equal(a_alloc, b_alloc)
                    assert a_rest == b_rest
                # outage servers execute nothing on the degraded fill
                assert not fast[0][0][down].any()

    def test_lazy_slope_requires_provider(self):
        with pytest.raises(ValueError, match="leakage_slope"):
            FleetLoadArrays(
                utilization_pct=np.zeros(2),
                max_junction_c=np.zeros(2),
                inlet_c=np.zeros(2),
                leakage_w=np.zeros(2),
                pstate_index=np.zeros(2, dtype=int),
                rack_index=np.zeros(2, dtype=int),
            )


class TestFleetKernelCaches:
    """``step_into``'s caches (rotor-speed-derived terms, static power,
    trivial DVFS stretch) are bit-identical to recomputing them: a
    kernel round-tripped through its checkpoint state before every
    step — which drops every cache — writes the same rows."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_cache_free_kernel_writes_identical_rows(self, seed):
        rng = np.random.default_rng(seed)
        spec = replace(default_server_spec(), dvfs=default_dvfs_ladder())
        fleet = build_uniform_fleet(rack_count=2, servers_per_rack=3, spec=spec)
        n = fleet.server_count
        cached = FleetVectorKernel(fleet)
        uncached = FleetVectorKernel(fleet)
        dt_s = float(rng.choice([0.5, 1.0, 2.0, 5.0]))
        substeps, h = substep_schedule(dt_s)
        rpm_command = rng.uniform(spec.fan.rpm_min, spec.fan.rpm_max, n)
        demand = rng.uniform(0.0, 100.0, n)
        inlet = rng.uniform(18.0, 30.0, n)
        for _ in range(40):
            # hold each input for a while so the caches get hit
            if rng.random() < 0.2:
                rpm_command = rng.uniform(
                    spec.fan.rpm_min, spec.fan.rpm_max, n
                )
            if rng.random() < 0.3:
                demand = rng.uniform(0.0, 100.0, n)
            if rng.random() < 0.3:
                inlet = rng.uniform(18.0, 30.0, n)
            if rng.random() < 0.25:
                server = int(rng.integers(0, n))
                pstate = int(rng.integers(0, len(spec.dvfs)))
                cached.set_pstate(server, pstate)
                uncached.set_pstate(server, pstate)
            uncached.load_state_arrays(uncached.state_arrays())
            rows = []
            for kernel in (cached, uncached):
                out = [np.empty(n) for _ in range(7)]
                out[5] = np.empty(n, dtype=int)
                capacity, leakage = kernel.step_into(
                    dt_s, substeps, h, demand, rpm_command, inlet, *out
                )
                rows.append(out + [capacity, leakage])
            for a, b in zip(*rows):
                np.testing.assert_array_equal(a, b)


class TestBatchedPrimitives:
    """The batched helper APIs equal their scalar counterparts —
    the contracts the kernel's chunk planning is built on."""

    def test_sensor_read_array_equals_sequential_reads(self):
        from repro.server.sensors import Sensor, SensorSpec

        spec = SensorSpec(sigma=0.4, quantum=0.25)
        values = np.random.default_rng(3).uniform(20, 90, 64)
        scalar_sensor = Sensor(spec, np.random.default_rng(99))
        batch_sensor = Sensor(spec, np.random.default_rng(99))
        sequential = np.array([scalar_sensor.read(v) for v in values])
        batched = batch_sensor.read_array(values)
        np.testing.assert_array_equal(batched, sequential)

    def test_sensor_read_array_noise_free_channel(self):
        from repro.server.sensors import Sensor, SensorSpec

        sensor = Sensor(SensorSpec(sigma=0.0, quantum=0.5), np.random.default_rng(0))
        values = np.array([20.1, 55.55, 89.9])
        np.testing.assert_array_equal(
            sensor.read_array(values),
            np.array([sensor.read(v) for v in values]),
        )

    def test_dvfs_stretch_chunk_equals_scalar_methods(self):
        ladder = default_dvfs_ladder()
        demand = np.random.default_rng(11).uniform(0, 100, 500)
        for index in range(len(ladder)):
            executed, deficit = ladder.stretch_chunk(demand, index)
            np.testing.assert_array_equal(
                executed,
                [ladder.executed_utilization_pct(d, index) for d in demand],
            )
            np.testing.assert_array_equal(
                deficit,
                [ladder.work_deficit_pct(d, index) for d in demand],
            )


class TestWarmupGrid:
    """The monitor warm-up grid is index-generated (no += drift)."""

    def test_exact_sample_count_for_divisible_dt(self):
        times = monitor_warmup_times(60.0, 1.0)
        assert len(times) == 60
        assert times[0] == -60.0
        assert times[-1] == -1.0

    def test_exact_sample_count_for_awkward_dt(self):
        # 60 / 0.7 = 85.71...; samples at -60 + i*0.7 for i = 0..85
        times = monitor_warmup_times(60.0, 0.7)
        assert len(times) == 86
        assert np.all(times < 0.0)
        assert np.all(np.diff(times) > 0.0)

    def test_no_sample_at_or_past_zero(self):
        for dt in (0.1, 0.3, 1.0, 7.0, 60.0, 120.0):
            times = monitor_warmup_times(60.0, dt)
            assert np.all(times < 0.0)
            assert len(times) == len({round(float(t), 9) for t in times})

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            monitor_warmup_times(0.0, 1.0)
        with pytest.raises(ValueError):
            monitor_warmup_times(60.0, 0.0)


class TestSensorFaultChunkBoundaries:
    """Injected sensor faults are tick-exact in the kernelized path.

    The chunked loop integrates whole poll intervals at once, so a
    naive implementation would only notice a fault window at the next
    poll boundary.  These tests pin the contract: windows open and
    close at the exact tick, and every fault mode leaves the kernel
    bit-identical to the tick-by-tick reference loop.
    """

    def test_mid_chunk_onset_is_tick_exact(self):
        """Poll interval 10 s, fault window [7, 9) — entirely inside
        one chunk.  The measured channel must change at read times 7 s
        and 8 s only, not from the 10 s poll onward."""
        config = ExperimentConfig(dt_s=1.0, seed=3)
        profile = StaircaseProfile([40.0], 60.0)
        faulted = run_experiment(
            FixedSpeedController(rpm=3000.0),
            profile,
            config=config,
            faults=[(0, StuckFault(200.0, start_s=7.0, end_s=9.0))],
        )
        baseline = run_experiment(
            FixedSpeedController(rpm=3000.0), profile, config=config
        )
        differing = np.nonzero(
            faulted.column("measured_max_cpu_c")
            != baseline.column("measured_max_cpu_c")
        )[0]
        np.testing.assert_array_equal(
            faulted.column("time_s")[differing], [7.0, 8.0]
        )
        # a lying sensor between polls cannot touch the physics
        np.testing.assert_array_equal(
            faulted.column("max_junction_c"),
            baseline.column("max_junction_c"),
        )

    @pytest.mark.parametrize(
        "make_faults",
        [
            lambda: [(0, StuckFault(30.0, start_s=11.0, end_s=130.0))],
            lambda: [(2, DriftFault(0.04, start_s=23.0))],
            lambda: [(1, OffsetFault(-6.0, start_s=0.0, end_s=77.0))],
            lambda: [(3, SpikeFault(15.0, probability=0.4, seed=6, start_s=5.0))],
            lambda: [
                (index, DropoutFault(start_s=31.0, end_s=90.0))
                for index in range(4)
            ],
        ],
        ids=["stuck", "drift", "offset", "spike", "dropout"],
    )
    def test_every_mode_bit_identical_to_reference(self, make_faults):
        """Fresh fault instances per engine (spikes keep RNG state):
        the chunked loop must reproduce the reference loop column for
        column under every fault mode."""
        profile = StaircaseProfile([35.0, 85.0, 20.0], 80.0)
        config = ExperimentConfig(dt_s=1.0, seed=17)
        kernel = run_experiment(
            BangBangController(),
            profile,
            config=config,
            engine="kernel",
            faults=make_faults(),
        )
        reference = run_experiment(
            BangBangController(),
            profile,
            config=config,
            engine="reference",
            faults=make_faults(),
        )
        for column in TRACE_COLUMNS:
            np.testing.assert_array_equal(
                kernel.column(column),
                reference.column(column),
                err_msg=f"column {column!r} diverged under sensor faults",
            )

    def test_dropout_holds_last_command_on_both_engines(self):
        """With every die sensor dropped out the BMC holds the last
        fan command; when the channel returns, control resumes —
        identically on both engines."""
        profile = StaircaseProfile([10.0, 95.0], 120.0)
        config = ExperimentConfig(dt_s=1.0, seed=4)

        def faults():
            return [
                (index, DropoutFault(start_s=40.0, end_s=160.0))
                for index in range(4)
            ]

        results = {
            engine: run_experiment(
                BangBangController(),
                profile,
                config=config,
                engine=engine,
                faults=faults(),
            )
            for engine in ("kernel", "reference")
        }
        for engine, result in results.items():
            times = result.column("time_s")
            commands = result.column("rpm_command")
            window = (times >= 41.0) & (times < 160.0)
            held = commands[window]
            assert np.all(held == held[0]), engine
        np.testing.assert_array_equal(
            results["kernel"].column("rpm_command"),
            results["reference"].column("rpm_command"),
        )
