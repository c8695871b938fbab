"""Engine tests: vector/reference equivalence, recirculation, DVFS.

The ``dvfs_spec``, ``single_server_fleet`` and ``small_fleet``
fixtures live in ``conftest.py`` (shared with the kernel-equivalence
and fault suites).
"""

import numpy as np
import pytest

from repro.core.controllers.coordinated import CoordinatedController
from repro.core.controllers.default import FixedSpeedController
from repro.core.controllers.pid import PIController
from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.fleet import (
    CoolestFirstPolicy,
    DvfsAwarePolicy,
    Fleet,
    FleetEngine,
    FleetScheduler,
    FleetWorkload,
    LeakageAwarePolicy,
    Rack,
    build_recirculation_matrix,
    build_uniform_fleet,
    compute_fleet_metrics,
)
from repro.engine.kernel import FleetVectorKernel
from repro.fleet.stages import (
    STEP_OUTPUT_COLUMNS,
    ControllerBank,
    FleetSummary,
    ServerStep,
    raise_critical_trip,
)
from repro.fleet.topology import exhaust_temperature_rise_c
from repro.server.ambient import SinusoidalAmbient
from repro.server.server import CriticalTemperatureError, ServerSimulator
from repro.server.specs import CpuSocketSpec, ServerSpec, default_server_spec
from repro.telemetry.segments import FLEET_TRACE_DTYPES
from repro.workloads.profile import ConstantProfile, StaircaseProfile


class TestSingleServerEquivalence:
    def test_vector_engine_matches_server_simulator(self, single_server_fleet):
        """N=1, no coupling: the batched math must reproduce the
        single-server simulator's trajectory."""
        profile = StaircaseProfile([30.0, 90.0, 10.0], 200.0)
        engine = FleetEngine(
            single_server_fleet(),
            profile,
            controller_factory=lambda i: FixedSpeedController(rpm=3000.0),
        )
        result = engine.run(dt_s=1.0)

        sim = ServerSimulator(spec=default_server_spec())
        sim.set_fan_rpm(3000.0)
        junctions, powers, rpms = [], [], []
        for tick in range(600):
            state = sim.step(1.0, profile.utilization_pct(tick * 1.0))
            junctions.append(state.max_junction_c)
            powers.append(state.power.total_w)
            rpms.append(state.mean_fan_rpm)

        np.testing.assert_allclose(
            result.max_junction_c[:, 0], junctions, rtol=0, atol=1e-9
        )
        np.testing.assert_allclose(
            result.total_power_w[:, 0], powers, rtol=0, atol=1e-9
        )
        np.testing.assert_allclose(
            result.mean_rpm[:, 0], rpms, rtol=0, atol=1e-9
        )

    def test_energy_matches_server_simulator_accumulator(
        self, single_server_fleet
    ):
        engine = FleetEngine(
            single_server_fleet(),
            ConstantProfile(70.0, 300.0),
            controller_factory=lambda i: FixedSpeedController(rpm=3300.0),
        )
        result = engine.run(dt_s=1.0)

        sim = ServerSimulator(spec=default_server_spec())
        sim.set_fan_rpm(3300.0)
        for _ in range(300):
            sim.step(1.0, 70.0)
        assert result.metrics.energy_kwh * 3.6e6 == pytest.approx(
            sim.energy_joules, rel=1e-12
        )


class TestCoordinatedSingleServerAnchor:
    """The correctness anchor for fleet-scale DVFS: a 1-server fleet
    under a CoordinatedController must reproduce ``run_experiment`` on
    a real ``ServerSimulator`` trace for trace — power, junction, rpm,
    p-state, and accumulated work deficit.

    The configurations are aligned so every observable matches: the
    runner uses ``direct`` load synthesis (no PWM), a monitor window of
    one tick (the fleet controllers observe the previous tick's
    executed utilization), and the fleet engine cold-starts exactly
    like the experiment protocol.  The coordinated policy reads only
    utilization, so the runner's noisy temperature channels don't
    enter the decisions.
    """

    @pytest.fixture(scope="class")
    def anchor(self, paper_lut, dvfs_spec):
        spec = dvfs_spec
        profile = StaircaseProfile([20.0, 70.0, 40.0, 95.0, 10.0], 180.0)
        config = ExperimentConfig(
            dt_s=1.0, monitor_window_s=1.0, loadgen_mode="direct"
        )
        runner = run_experiment(
            CoordinatedController(paper_lut, spec.dvfs),
            profile,
            spec=spec,
            config=config,
        )
        return spec, profile, paper_lut, runner

    @pytest.mark.parametrize("backend", ["vector", "reference"])
    def test_traces_match_run_experiment(
        self, anchor, backend, single_server_fleet
    ):
        spec, profile, lut, runner = anchor
        fleet = single_server_fleet(spec)
        result = FleetEngine(
            fleet,
            profile,
            controller_factory=lambda i: CoordinatedController(lut, spec.dvfs),
            backend=backend,
            cold_start=True,
        ).run(dt_s=1.0)

        # integer traces and everything untouched by numpy sum
        # reordering must be *exactly* equal
        np.testing.assert_array_equal(
            result.pstate_index[:, 0], runner.column("pstate_index")
        )
        np.testing.assert_array_equal(
            result.mean_rpm[:, 0], runner.column("mean_rpm")
        )
        np.testing.assert_array_equal(
            result.utilization_pct[:, 0], runner.column("executed_util_pct")
        )
        np.testing.assert_array_equal(
            result.work_deficit_pct_s[:, 0],
            runner.column("work_deficit_pct_s"),
        )
        np.testing.assert_allclose(
            result.total_power_w[:, 0],
            runner.column("power_total_w"),
            rtol=0,
            atol=1e-9,
        )
        np.testing.assert_allclose(
            result.max_junction_c[:, 0],
            runner.column("max_junction_c"),
            rtol=0,
            atol=1e-9,
        )
        # the run must actually exercise the ladder and pay a deficit
        # during the 95% phase entered from a parked state
        assert set(result.pstate_index[:, 0]) >= {0, 3}
        assert result.work_deficit_pct_s[-1, 0] > 0.0

    def test_reference_backend_is_bit_equal(self, anchor, single_server_fleet):
        """The reference backend wraps real simulators, so even the
        float traces match the runner bit for bit."""
        spec, profile, lut, runner = anchor
        fleet = single_server_fleet(spec)
        result = FleetEngine(
            fleet,
            profile,
            controller_factory=lambda i: CoordinatedController(lut, spec.dvfs),
            backend="reference",
            cold_start=True,
        ).run(dt_s=1.0)
        np.testing.assert_array_equal(
            result.total_power_w[:, 0], runner.column("power_total_w")
        )
        np.testing.assert_array_equal(
            result.max_junction_c[:, 0], runner.column("max_junction_c")
        )


class TestBackendEquivalence:
    @pytest.mark.parametrize("policy_cls", [CoolestFirstPolicy, LeakageAwarePolicy])
    def test_vector_matches_reference_with_recirculation(self, policy_cls):
        """4 coupled servers under a closed-loop controller: the numpy
        batch and the naive per-simulator loop must agree."""
        fleet = build_uniform_fleet(rack_count=2, servers_per_rack=2)
        profile = StaircaseProfile([20.0, 80.0, 50.0], 120.0)

        def build(backend):
            return FleetEngine(
                fleet,
                profile,
                scheduler=FleetScheduler(policy_cls()),
                controller_factory=lambda i: PIController(),
                backend=backend,
            ).run(dt_s=2.0)

        vec, ref = build("vector"), build("reference")
        np.testing.assert_allclose(
            vec.max_junction_c, ref.max_junction_c, rtol=0, atol=1e-7
        )
        np.testing.assert_allclose(
            vec.total_power_w, ref.total_power_w, rtol=0, atol=1e-6
        )
        np.testing.assert_allclose(
            vec.utilization_pct, ref.utilization_pct, rtol=0, atol=1e-9
        )
        np.testing.assert_allclose(
            vec.inlet_c, ref.inlet_c, rtol=0, atol=1e-9
        )
        assert vec.metrics.energy_kwh == pytest.approx(
            ref.metrics.energy_kwh, rel=1e-9
        )

    def test_vector_matches_reference_with_dvfs_at_16_servers(
        self, paper_lut, dvfs_spec
    ):
        """16 coupled servers with active p-state actuation: the
        batched DVFS stretch/deficit/power math must agree with the
        per-simulator loop on every trace."""
        spec = dvfs_spec
        fleet = build_uniform_fleet(rack_count=2, servers_per_rack=8, spec=spec)
        profile = StaircaseProfile([15.0, 60.0, 35.0], 120.0)

        def build(backend):
            return FleetEngine(
                fleet,
                profile,
                scheduler=FleetScheduler(DvfsAwarePolicy()),
                controller_factory=lambda i: CoordinatedController(
                    paper_lut, spec.dvfs
                ),
                backend=backend,
            ).run(dt_s=2.0)

        vec, ref = build("vector"), build("reference")
        np.testing.assert_array_equal(vec.pstate_index, ref.pstate_index)
        np.testing.assert_array_equal(vec.utilization_pct, ref.utilization_pct)
        np.testing.assert_array_equal(
            vec.work_deficit_pct, ref.work_deficit_pct
        )
        np.testing.assert_array_equal(vec.mean_rpm, ref.mean_rpm)
        np.testing.assert_allclose(
            vec.max_junction_c, ref.max_junction_c, rtol=0, atol=1e-7
        )
        np.testing.assert_allclose(
            vec.total_power_w, ref.total_power_w, rtol=0, atol=1e-6
        )
        # the ladder is exercised across the fleet
        assert vec.pstate_index.max() > 0
        assert vec.metrics.dvfs_deficit_pct_s == pytest.approx(
            ref.metrics.dvfs_deficit_pct_s
        )

    def test_vector_matches_reference_with_time_varying_supply(self):
        """A sinusoidal CRAC supply under recirculation coupling: the
        supply evaluation and the RecirculationAmbient offset path must
        agree between backends while the inlet actually varies."""
        spec = default_server_spec()
        racks = tuple(
            Rack(
                name=f"r{i}",
                servers=(spec, spec),
                crac=SinusoidalAmbient(
                    mean_c=23.0, amplitude_c=2.0, period_s=300.0
                ),
            )
            for i in range(2)
        )
        fleet = Fleet(
            racks=racks,
            recirculation=build_recirculation_matrix(
                [2, 2], intra_rack_coupling=0.08, cross_rack_coupling=0.01
            ),
        )
        profile = StaircaseProfile([30.0, 80.0], 300.0)

        def build(backend):
            return FleetEngine(
                fleet,
                profile,
                scheduler=FleetScheduler(CoolestFirstPolicy()),
                controller_factory=lambda i: PIController(),
                backend=backend,
            ).run(dt_s=2.0)

        vec, ref = build("vector"), build("reference")
        np.testing.assert_allclose(
            vec.inlet_c, ref.inlet_c, rtol=0, atol=1e-9
        )
        np.testing.assert_allclose(
            vec.max_junction_c, ref.max_junction_c, rtol=0, atol=1e-7
        )
        np.testing.assert_allclose(
            vec.total_power_w, ref.total_power_w, rtol=0, atol=1e-6
        )
        # the inlet trace follows the supply oscillation and sits above
        # it (recirculation only adds heat)
        supply = np.array(
            [fleet.supply_temperatures_c(t) for t in vec.times_s - 2.0]
        )
        assert np.all(vec.inlet_c >= supply - 1e-12)
        assert vec.inlet_c.min() < 23.0  # the cold half-period shows
        assert np.ptp(vec.inlet_c) > 3.0


class TestServerStep:
    """The per-server stage of both tick loops: the rows it writes are
    the carried state it publishes, and a trip names the first server
    over its threshold."""

    def make(self, dvfs_spec, on_trip=raise_critical_trip):
        fleet = build_uniform_fleet(
            rack_count=1, servers_per_rack=3, spec=dvfs_spec
        )
        engine = FleetEngine(
            fleet,
            ConstantProfile(50.0, 10.0),
            controller_factory=lambda i: FixedSpeedController(rpm=3000.0),
        )
        kernel = FleetVectorKernel(fleet)
        bank = ControllerBank(engine, engine.controllers, None)
        bank.reset(kernel.rpm)
        summary = FleetSummary(
            *(np.zeros(3) for _ in range(4)),
            np.zeros(3, dtype=np.int64),
            slope=np.zeros(3),
        )
        columns = [
            np.zeros((2, 3), dtype=FLEET_TRACE_DTYPES[name])
            for name in STEP_OUTPUT_COLUMNS
        ]
        step = ServerStep(
            kernel, bank, None, summary, columns, 1.0, on_trip=on_trip
        )
        return kernel, summary, columns, step

    def test_publishes_the_rows_it_wrote(self, dvfs_spec):
        kernel, summary, columns, step = self.make(dvfs_spec)
        step.seed()
        np.testing.assert_array_equal(
            summary.max_junction, kernel.t_j.max(axis=1)
        )
        np.testing.assert_array_equal(
            summary.slope, kernel.leakage_slope_w_per_c()
        )
        kernel.set_pstates([1], [2])
        step.step(0, 0.0, np.array([40.0, 90.0, 10.0]), np.full(3, 24.0), 1)
        power, fan, junction, util, rpm, pstate, deficit = columns
        assert not power[0].any(), "only the given row is written"
        np.testing.assert_array_equal(summary.executed, util[1])
        np.testing.assert_array_equal(summary.max_junction, junction[1])
        np.testing.assert_array_equal(summary.pstate, [0, 2, 0])
        np.testing.assert_array_equal(summary.pstate, pstate[1])
        _, leakage_w = kernel.initial_views_data()  # the current state
        np.testing.assert_array_equal(summary.leakage, leakage_w)
        np.testing.assert_array_equal(
            summary.slope, kernel.leakage_slope_w_per_c()
        )
        airflow = kernel.fan_count * kernel.fan_cfm_ref * (
            kernel.rpm / kernel.fan_rpm_ref
        )
        np.testing.assert_allclose(
            summary.exhaust_rise,
            exhaust_temperature_rise_c(power[1], airflow),
            rtol=1e-12,
        )

    def test_trip_names_the_first_hot_server(self, dvfs_spec):
        trips = []
        kernel, _, columns, step = self.make(
            dvfs_spec, on_trip=lambda *trip: trips.append(trip)
        )
        step.seed()
        kernel.critical_c[:] = [1e3, 0.0, 0.0]
        step.step(0, 0.0, np.full(3, 50.0), np.full(3, 24.0), 0)
        junction = columns[STEP_OUTPUT_COLUMNS.index("junction")]
        assert trips == [(1, float(junction[0, 1]), 0.0)]
        with pytest.raises(
            CriticalTemperatureError,
            match=r"^server 1 junction reached 95\.0 degC "
            r"\(critical threshold 0\.0 degC\)$",
        ):
            raise_critical_trip(1, 95.0, 0.0)


class TestRecirculation:
    def test_coupling_warms_inlets_and_costs_energy(self):
        profile = ConstantProfile(80.0, 900.0)

        def run(intra, cross):
            fleet = build_uniform_fleet(
                rack_count=2,
                servers_per_rack=2,
                intra_rack_coupling=intra,
                cross_rack_coupling=cross,
            )
            engine = FleetEngine(
                fleet,
                profile,
                controller_factory=lambda i: FixedSpeedController(rpm=2400.0),
            )
            return engine.run(dt_s=5.0)

        isolated = run(0.0, 0.0)
        coupled = run(0.08, 0.01)
        assert np.all(isolated.inlet_c == pytest.approx(24.0))
        assert coupled.inlet_c[-1].mean() > 24.5
        assert coupled.metrics.hot_spot_c > isolated.metrics.hot_spot_c
        # warmer junctions leak more at identical fan speeds
        assert coupled.metrics.energy_kwh > isolated.metrics.energy_kwh

    def test_zero_coupling_equals_constant_ambient_room(self):
        """A zero recirculation matrix must reproduce the isolated-room
        simulator exactly (ConstantAmbient semantics)."""
        fleet = Fleet(
            racks=(Rack(name="r", servers=(default_server_spec(),) * 2),),
            recirculation=np.zeros((2, 2)),
        )
        result = FleetEngine(
            fleet,
            ConstantProfile(100.0, 300.0),
            controller_factory=lambda i: FixedSpeedController(rpm=3300.0),
        ).run(dt_s=1.0)

        sim = ServerSimulator(spec=default_server_spec())
        sim.set_fan_rpm(3300.0)
        for _ in range(300):
            sim.step(1.0, 100.0)
        # a saturating demand pins every server at 100%
        assert result.utilization_pct[-1] == pytest.approx([100.0, 100.0])
        np.testing.assert_allclose(
            result.max_junction_c[-1],
            [sim.state.max_junction_c] * 2,
            rtol=0,
            atol=1e-9,
        )


class TestEngineBehaviour:
    def test_critical_trip_raises(self, single_server_fleet):
        spec = ServerSpec(
            critical_temperature_c=76.0, target_max_temperature_c=70.0
        )
        engine = FleetEngine(
            single_server_fleet(spec),
            ConstantProfile(100.0, 3600.0),
            controller_factory=lambda i: FixedSpeedController(rpm=1800.0),
        )
        with pytest.raises(CriticalTemperatureError):
            engine.run(dt_s=5.0)

    def test_heterogeneous_sockets_need_reference_backend(self):
        mixed = Fleet(
            racks=(
                Rack(
                    name="r0",
                    servers=(
                        default_server_spec(),
                        ServerSpec(sockets=(CpuSocketSpec(name="CPU0"),)),
                    ),
                ),
            )
        )
        profile = ConstantProfile(40.0, 60.0)
        with pytest.raises(ValueError, match="socket count"):
            FleetEngine(mixed, profile).run(dt_s=1.0)
        result = FleetEngine(mixed, profile, backend="reference").run(dt_s=1.0)
        assert result.total_power_w.shape == (60, 2)

    def test_sla_violations_recorded_under_capped_capacity(self):
        fleet = build_uniform_fleet(rack_count=1, servers_per_rack=2)
        engine = FleetEngine(
            fleet,
            ConstantProfile(90.0, 120.0),
            scheduler=FleetScheduler(CoolestFirstPolicy(), server_cap_pct=60.0),
        )
        result = engine.run(dt_s=2.0)
        # demand 180 (%·servers) vs capped capacity 120 -> 60 unserved/tick
        assert np.all(result.unserved_pct == pytest.approx(60.0))
        m = result.metrics
        assert m.sla_violation_ticks == 60
        assert m.sla_unserved_pct_s == pytest.approx(60.0 * 120.0)

    def test_out_of_range_controller_command_rejected(
        self, single_server_fleet
    ):
        engine = FleetEngine(
            single_server_fleet(),
            ConstantProfile(50.0, 60.0),
            controller_factory=lambda i: FixedSpeedController(rpm=9000.0),
        )
        with pytest.raises(ValueError, match="outside supported range"):
            engine.run(dt_s=1.0)

    def test_workload_size_mismatch_rejected(self):
        fleet = build_uniform_fleet(rack_count=1, servers_per_rack=2)
        workload = FleetWorkload(ConstantProfile(50.0, 60.0), server_count=3)
        with pytest.raises(ValueError, match="sized for"):
            FleetEngine(fleet, workload)

    def test_unknown_backend_rejected(self, single_server_fleet):
        with pytest.raises(ValueError, match="backend"):
            FleetEngine(
                single_server_fleet(),
                ConstantProfile(50.0, 60.0),
                backend="gpu",
            )

    def test_cold_start_rpm_outside_fan_range_rejected(
        self, single_server_fleet
    ):
        with pytest.raises(ValueError, match="cold_start_rpm"):
            FleetEngine(
                single_server_fleet(),
                ConstantProfile(50.0, 60.0),
                cold_start=True,
                cold_start_rpm=9000.0,
            )

    @pytest.mark.parametrize("backend", ["vector", "reference"])
    def test_cold_start_begins_at_idle_equilibrium(
        self, backend, single_server_fleet
    ):
        """A cold-started fleet begins warm (idle equilibrium at 3600
        RPM), not at the ambient temperature."""
        result = FleetEngine(
            single_server_fleet(),
            ConstantProfile(0.0, 30.0),
            controller_factory=lambda i: FixedSpeedController(rpm=3600.0),
            backend=backend,
            cold_start=True,
        ).run(dt_s=1.0)
        assert result.max_junction_c[0, 0] == pytest.approx(35.0, abs=2.5)

    def test_out_of_range_pstate_command_rejected(
        self, single_server_fleet, dvfs_spec
    ):
        class BadPstateController(FixedSpeedController):
            def decide_pstate(self, observation):
                return 7

        engine = FleetEngine(
            single_server_fleet(dvfs_spec),
            ConstantProfile(50.0, 60.0),
            controller_factory=lambda i: BadPstateController(rpm=3000.0),
        )
        with pytest.raises(ValueError, match="p-state"):
            engine.run(dt_s=1.0)


class TestFleetDvfsAccounting:
    def test_parked_pstate_stretches_and_accrues_deficit(self, dvfs_spec):
        """Servers pinned in the deepest p-state execute stretched
        utilization and accrue the exact ladder deficit when demand
        saturates them."""
        spec = dvfs_spec

        class DeepPark(FixedSpeedController):
            def decide_pstate(self, observation):
                return 3

        fleet = Fleet(racks=(Rack(name="r", servers=(spec, spec)),))
        result = FleetEngine(
            fleet,
            ConstantProfile(40.0, 120.0),  # 80 total: one server at 80%
            # dvfs-aware placement keeps the whole 80% share pinned on
            # server 0 (round-robin would rotate it every tick)
            scheduler=FleetScheduler(DvfsAwarePolicy()),
            controller_factory=lambda i: DeepPark(rpm=3000.0),
        ).run(dt_s=1.0)

        ratio = spec.dvfs.frequency_ratio(3)
        assert np.all(result.pstate_index == 3)
        # 80% demand at f/f_nom ~ 0.606 saturates: executed pins at 100
        assert np.all(result.utilization_pct[:, 0] == 100.0)
        expected_rate = spec.dvfs.work_deficit_pct(80.0, 3)
        np.testing.assert_allclose(
            result.work_deficit_pct[:, 0], expected_rate
        )
        # the idle server is stretched but never saturates
        assert np.all(result.work_deficit_pct[:, 1] == 0.0)
        m = result.metrics
        assert m.dvfs_deficit_pct_s == pytest.approx(expected_rate * 120.0)
        assert m.sla_total_pct_s == pytest.approx(
            m.sla_unserved_pct_s + m.dvfs_deficit_pct_s
        )
        assert m.sla_violation_ticks == 120
        assert sum(r.dvfs_deficit_pct_s for r in m.racks) == pytest.approx(
            m.dvfs_deficit_pct_s
        )
        # sanity: the stretch itself matches the ladder on the idle
        # server given the 0% allocation and ratio on the busy one
        assert ratio < 1.0

    def test_nominal_ladder_keeps_legacy_semantics(self, single_server_fleet):
        """Without a DVFS ladder nothing changes: executed equals the
        demanded allocation, no deficit, p-state 0 everywhere."""
        result = FleetEngine(
            single_server_fleet(),
            ConstantProfile(55.0, 60.0),
            controller_factory=lambda i: FixedSpeedController(rpm=3000.0),
        ).run(dt_s=1.0)
        assert np.all(result.pstate_index == 0)
        assert np.all(result.work_deficit_pct == 0.0)
        assert np.all(result.utilization_pct == 55.0)
        assert result.metrics.dvfs_deficit_pct_s == 0.0


class TestFleetMetrics:
    def test_rack_breakdown_sums_to_fleet(self):
        fleet = build_uniform_fleet(rack_count=2, servers_per_rack=2)
        result = FleetEngine(
            fleet,
            ConstantProfile(55.0, 600.0),
            scheduler=FleetScheduler(CoolestFirstPolicy()),
        ).run(dt_s=5.0)
        m = result.metrics
        assert m.energy_kwh == pytest.approx(
            sum(r.energy_kwh for r in m.racks)
        )
        assert m.fan_energy_kwh == pytest.approx(
            sum(r.fan_energy_kwh for r in m.racks)
        )
        assert m.hot_spot_c == max(r.hot_spot_c for r in m.racks)
        # coincident fleet peak can exceed no rack's peak sum mismatch
        assert m.peak_power_w <= sum(r.peak_power_w for r in m.racks) + 1e-9
        assert m.duration_s == pytest.approx(600.0)
        assert m.avg_power_w == pytest.approx(
            m.energy_kwh * 3.6e6 / 600.0
        )
        # fleet inlet mean is server-weighted, not a mean of rack means
        assert m.mean_inlet_c == pytest.approx(float(result.inlet_c.mean()))

    def test_shape_validation(self):
        fleet = build_uniform_fleet(rack_count=1, servers_per_rack=2)
        good = np.zeros((5, 2))
        with pytest.raises(ValueError, match="traces"):
            compute_fleet_metrics(
                fleet, 1.0, np.zeros((5, 3)), good, good, good, good,
                np.zeros(5),
            )
        with pytest.raises(ValueError, match="dt_s"):
            compute_fleet_metrics(
                fleet, 0.0, good, good, good, good, good, np.zeros(5)
            )
