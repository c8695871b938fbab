"""The controller bank's poll filter changes no command.

:class:`~repro.fleet.stages.ControllerBank` calls a
:class:`LUTController` or :class:`CoordinatedController` only where its
vectorized filter shows the call could change a command.  The filter
dispatches on the exact controller type, so a trivial subclass gets no
filter: a bank of ``_PlainLUT`` / ``_PlainCoordinated`` objects calls
every due server, exactly as the bank did before it had a filter, and
is the oracle here.  After every poll the two banks must agree on the
fan commands, the kernel p-states, the poll clocks and every object's
state.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.controllers.coordinated import CoordinatedController
from repro.core.controllers.default import FixedSpeedController
from repro.core.controllers.lut import LUTController
from repro.core.controllers.pid import PIController
from repro.core.lut import LookupTable
from repro.engine.checkpoint import CheckpointConfig, list_checkpoints
from repro.engine.kernel import FleetVectorKernel, plan_tick_times
from repro.fleet import FleetEngine, FleetScheduler, build_uniform_fleet
from repro.fleet.scheduler import RoundRobinPolicy
from repro.fleet.stages import ControllerBank
from repro.server.dvfs import default_dvfs_ladder
from repro.server.specs import default_server_spec
from repro.workloads.profile import ConstantProfile, StaircaseProfile


class _PlainLUT(LUTController):
    pass


class _PlainCoordinated(CoordinatedController):
    pass


class _SubclassLUT(LUTController):
    """A subclass with its own policy: never filtered, in either bank."""

    def decide(self, observation):
        wanted = super().decide(observation)
        return None if wanted is None else min(4200.0, wanted + 300.0)


class _Adaptive(FixedSpeedController):
    """Changes its own poll interval on every call."""

    def decide(self, observation):
        self.poll_interval_s = 3.0 if self.poll_interval_s < 2.0 else 0.5
        return None


LUT_A = LookupTable(
    levels_pct=(0.0, 30.0, 60.0, 100.0), rpms=(1800.0, 2400.0, 3000.0, 3600.0)
)
LUT_B = LookupTable(levels_pct=(0.0, 50.0, 100.0), rpms=(2100.0, 3300.0, 4200.0))
LADDER = default_dvfs_ladder()
SPEC = replace(default_server_spec(), dvfs=LADDER)

#: Utilizations on, just off and between the table levels (and the
#: headroom/frequency-ratio edges of the coordinated policy).
UTILIZATIONS = sorted(
    {
        0.0,
        1e-9,
        2e-9,
        10.0,
        30.0,
        30.0 + 1e-9,
        30.0 + 2e-9,
        50.0,
        50.0 + 1e-9,
        59.999,
        60.0,
        75.0,
        90.0 * LADDER.frequency_ratio(2),
        89.999,
        90.0,
        99.0,
        100.0,
    }
)

#: (kind, parameters) of one server's controller; ``make`` builds it.
FILTERED_KINDS = st.one_of(
    st.tuples(
        st.just("lut"),
        st.sampled_from(["A", "B"]),
        st.sampled_from([0.0, 1.0, 2.0, 3.0, 5.0]),
        st.sampled_from([0.5, 1.0, 2.0, 3.0]),
    ),
    st.tuples(
        st.just("coordinated"),
        st.sampled_from(["A", "B"]),
        st.sampled_from([0.0, 2.0, 4.0]),
        st.sampled_from([1.0, 2.0]),
        st.sampled_from([60.0, 90.0]),
    ),
)
CONTROLLER_KINDS = st.one_of(
    FILTERED_KINDS,
    st.tuples(st.just("fixed")),
    st.tuples(st.just("pi")),
    st.tuples(st.just("subclass"), st.sampled_from([0.0, 2.0])),
    st.tuples(st.just("adaptive")),
)


def make(kind, plain):
    """The controller for *kind*; ``plain`` picks the unfiltered twin."""
    lut_type = _PlainLUT if plain else LUTController
    coordinated_type = _PlainCoordinated if plain else CoordinatedController
    if kind[0] == "lut":
        _, table, lockout, interval = kind
        return lut_type(
            LUT_A if table == "A" else LUT_B,
            poll_interval_s=interval,
            lockout_s=lockout,
        )
    if kind[0] == "coordinated":
        _, table, lockout, interval, headroom = kind
        return coordinated_type(
            LUT_A if table == "A" else LUT_B,
            LADDER,
            headroom_pct=headroom,
            poll_interval_s=interval,
            lockout_s=lockout,
        )
    if kind[0] == "fixed":
        return FixedSpeedController(rpm=3000.0, poll_interval_s=2.0)
    if kind[0] == "pi":
        return PIController(poll_interval_s=1.0)
    if kind[0] == "adaptive":
        return _Adaptive(rpm=2400.0, poll_interval_s=1.0)
    return _SubclassLUT(LUT_A, poll_interval_s=1.0, lockout_s=kind[1])


def make_bank(kinds, plain):
    fleet = build_uniform_fleet(1, len(kinds), spec=SPEC)
    controllers = [make(kind, plain) for kind in kinds]
    engine = FleetEngine(
        fleet,
        ConstantProfile(50.0, 10.0),
        controller_factory=lambda index: controllers[index],
    )
    bank = ControllerBank(engine, engine.controllers, None)
    kernel = FleetVectorKernel(fleet)
    bank.reset(kernel.rpm)
    return bank, kernel


def assert_banks_agree(filtered, oracle):
    (bank, kernel), (oracle_bank, oracle_kernel) = filtered, oracle
    assert np.array_equal(bank.rpm_command, oracle_bank.rpm_command)
    assert np.array_equal(bank.next_poll, oracle_bank.next_poll)
    assert bank.next_poll_due == oracle_bank.next_poll_due
    assert np.array_equal(kernel.pstate, oracle_kernel.pstate)
    assert np.array_equal(kernel.freq_ratio, oracle_kernel.freq_ratio)
    for ours, theirs in zip(bank.controllers, oracle_bank.controllers):
        for attr in ("_last_change_s", "_last_fan_change_s", "_pstate"):
            assert getattr(ours, attr, None) == getattr(theirs, attr, None), attr
        assert vars(ours) == vars(theirs)


@st.composite
def scenarios(draw):
    kinds = draw(st.lists(CONTROLLER_KINDS, max_size=11))
    kinds.insert(draw(st.integers(0, len(kinds))), draw(FILTERED_KINDS))
    n = len(kinds)
    dt_s = draw(st.sampled_from([0.5, 1.0, 2.0, 3.0, 7.0]))
    ticks = draw(st.integers(5, 40))
    utilization = draw(
        st.lists(
            st.lists(st.sampled_from(UTILIZATIONS), min_size=n, max_size=n),
            min_size=ticks,
            max_size=ticks,
        )
    )
    # NaN readings on the max channel and on the junction mean
    dropouts = draw(
        st.lists(
            st.tuples(st.integers(0, ticks - 1), st.integers(0, n - 1),
                      st.booleans()),
            max_size=6,
        )
    )
    seed = draw(st.integers(0, 2**16))
    return kinds, dt_s, np.array(utilization), dropouts, seed


@settings(max_examples=150, deadline=None)
@given(scenarios())
def test_filtered_bank_matches_plain_bank(scenario):
    kinds, dt_s, utilization, dropouts, seed = scenario
    filtered = make_bank(kinds, plain=False)
    oracle = make_bank(kinds, plain=True)
    assert filtered[0].filters, "the scenario exercises no filter"
    assert not oracle[0].filters
    ticks, n = utilization.shape
    rng = np.random.default_rng(seed)
    # the poll clocks of the scalar loop: each due clock advances by
    # its controller's (current) interval until it passes the tick
    clocks = [0.0] * n
    for tick, time_s in enumerate(plan_tick_times(ticks, dt_s)[:ticks]):
        max_junction = rng.uniform(40.0, 80.0, n)
        t_j = rng.uniform(40.0, 80.0, filtered[1].t_j.shape)
        for when, server, on_max in dropouts:
            if when == tick:
                if on_max:
                    max_junction[server] = np.nan
                else:
                    t_j[server] = np.nan
        for bank, kernel in (filtered, oracle):
            kernel.t_j[...] = t_j
            if bank.due(time_s):
                bank.poll(time_s, max_junction, utilization[tick], kernel)
        assert_banks_agree(filtered, oracle)
        for i, controller in enumerate(filtered[0].controllers):
            while time_s >= clocks[i] - 1e-9:
                clocks[i] += controller.poll_interval_s
        assert filtered[0].next_poll.tolist() == clocks


def test_lockout_edge_is_unlocked():
    """``time - last == lockout_s`` is no longer locked out, in both banks."""
    kinds = [("lut", "A", 2.0, 1.0)] * 3
    banks = [make_bank(kinds, plain) for plain in (False, True)]
    rows = [[0.0] * 3, [70.0] * 3, [0.0] * 3, [0.0] * 3, [0.0] * 3]
    commands = []
    for tick, row in enumerate(rows):
        for bank, kernel in banks:
            bank.poll(float(tick), np.full(3, 50.0), np.array(row), kernel)
        assert_banks_agree(*banks)
        commands.append(banks[0][0].rpm_command[0])
    # changed at t=1, locked at t=2, free again at t=3 (3 - 1 == 2)
    assert commands == [1800.0, 3600.0, 3600.0, 1800.0, 1800.0]


def test_filter_calls_only_acting_servers():
    """Held and locked-out polls never reach ``decide``."""
    kinds = [("lut", "A", 2.0, 1.0)] * 3
    calls = []
    for plain in (False, True):
        bank, kernel = make_bank(kinds, plain)
        count = [0]
        for controller in bank.controllers:
            def counted(observation, decide=controller.decide):
                count[0] += 1
                return decide(observation)

            controller.decide = counted
        for tick, level in enumerate([0.0, 70.0, 0.0, 0.0, 0.0]):
            bank.poll(float(tick), np.full(3, 50.0), np.full(3, level), kernel)
        calls.append(count[0])
    # two changes per server, against every poll of every server
    assert calls == [6, 15]


@pytest.mark.parametrize("bad", [101.0, -0.5, np.nan])
@pytest.mark.parametrize("kind", [("lut", "A", 5.0, 1.0),
                                  ("coordinated", "B", 4.0, 1.0, 90.0)])
def test_out_of_range_utilization_error_parity(kind, bad):
    """The filter raises exactly the error the plain bank raises."""
    kinds = [kind] * 5
    errors = []
    for plain in (False, True):
        bank, kernel = make_bank(kinds, plain)
        utilization = np.array([20.0, 40.0, 60.0, bad, 80.0])
        with pytest.raises(ValueError) as err:
            bank.poll(0.0, np.full(5, 50.0), utilization, kernel)
        errors.append(str(err.value))
        # the servers before the offending one were polled as usual
        lut = bank.controllers[0].lut
        idle = lut.query(0.0)
        expected = [lut.query(u) for u in (20.0, 40.0, 60.0)] + [idle, idle]
        assert list(bank.rpm_command) == expected
    assert errors[0] == errors[1]
    assert "utilization must be in [0, 100] percent" in errors[0]


def test_held_server_with_bad_utilization_does_not_raise():
    """A NaN reading holds the server before its utilization is read."""
    kinds = [("lut", "A", 5.0, 1.0)] * 3
    for plain in (False, True):
        bank, kernel = make_bank(kinds, plain)
        max_junction = np.array([50.0, np.nan, 50.0])
        bank.poll(0.0, max_junction, np.array([40.0, 150.0, 40.0]), kernel)
        assert list(bank.rpm_command) == [3000.0, 1800.0, 3000.0]


def test_shared_controller_object_is_not_filtered():
    """One object polled for several servers is called for each of them."""
    shared = LUTController(LUT_A, poll_interval_s=1.0)
    fleet = build_uniform_fleet(1, 3)
    engine = FleetEngine(
        fleet, ConstantProfile(50.0, 10.0), controller_factory=lambda i: shared
    )
    bank = ControllerBank(engine, engine.controllers, None)
    assert bank.filters == []


# ----------------------------------------------------------------------
# checkpoint and resume inside a lockout
# ----------------------------------------------------------------------
DT_S = 1.0
DURATION_S = 150.0
LOCKOUT_S = 60.0
PROFILE = StaircaseProfile([20.0, 75.0, 35.0], 50.0)


def lut_engine(backend="vector", **kw):
    fleet = build_uniform_fleet(rack_count=2, servers_per_rack=4)
    return FleetEngine(
        fleet,
        PROFILE,
        scheduler=FleetScheduler(RoundRobinPolicy()),
        controller_factory=lambda index: LUTController(
            LUT_A, poll_interval_s=1.0, lockout_s=LOCKOUT_S
        ),
        backend=backend,
        **kw,
    )


def test_checkpoint_cut_lands_inside_a_lockout():
    """At the cut tick used below some server is still locked out."""
    engine = lut_engine()
    locked = None
    for view in engine.run_stream(dt_s=DT_S, duration_s=DURATION_S):
        if view.tick == 79:  # the cut after tick 79 resumes at t = 80 s
            locked = [
                c for c in engine.controllers
                if c._last_change_s is not None
                and 80.0 - c._last_change_s < LOCKOUT_S
            ]
    assert locked


@pytest.mark.parametrize(
    "backend, kw",
    [
        ("vector", {}),
        ("sharded", {"shards": 2, "shard_mode": "inline"}),
        ("sharded", {"shards": 2, "shard_mode": "process"}),
    ],
)
def test_resume_inside_lockout_is_bit_identical(tmp_path, backend, kw):
    golden = lut_engine().run(dt_s=DT_S, duration_s=DURATION_S)
    if backend == "sharded":
        kw = dict(kw, trace_dir=str(tmp_path / "trace"))
    cfg = CheckpointConfig(directory=tmp_path / "ckpt", every_s=80.0, keep=5)
    lut_engine(backend, checkpoint=cfg, **kw).run(
        dt_s=DT_S, duration_s=DURATION_S
    )
    cuts = list_checkpoints(cfg.root)
    assert cuts
    for cut in cuts:
        resumed = lut_engine(backend, **kw).run(
            dt_s=DT_S, duration_s=DURATION_S, resume_from=cut
        )
        for name in ("mean_rpm", "total_power_w", "max_junction_c",
                     "utilization_pct", "pstate_index"):
            assert np.array_equal(
                np.asarray(getattr(golden, name)),
                np.asarray(getattr(resumed, name)),
            ), name


def test_unhashable_table_is_not_filtered():
    """A table built from lists still runs, through the plain path."""
    table = LookupTable(levels_pct=[0.0, 50.0, 100.0], rpms=[1800.0, 2400.0, 3000.0])
    fleet = build_uniform_fleet(1, 2)
    engine = FleetEngine(
        fleet,
        ConstantProfile(70.0, 10.0),
        controller_factory=lambda i: LUTController(table, poll_interval_s=1.0),
    )
    assert ControllerBank(engine, engine.controllers, None).filters == []
    result = engine.run(dt_s=1.0)
    assert np.asarray(result.mean_rpm)[-1, 0] == 3000.0
