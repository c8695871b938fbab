"""The per-server spec arrays a :class:`Fleet` builds once, and their readers.

Construction flattens the racks into a server tuple plus read-only
arrays (rack index, fan bounds, ladder lengths, socket counts, supply);
every setup and validation path reads those instead of re-walking the
racks.  These tests pin each array to the per-server expression it
replaces, on every fleet shape the backends build (shard sub-fleets
included), and pin the validation errors to the same text, naming the
same global server index, on every backend.
"""

import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro.core.controllers.default import FixedSpeedController
from repro.engine.sharded import _subfleet
from repro.fleet import FleetEngine
from repro.fleet.topology import Fleet, Rack, build_uniform_fleet
from repro.obs.metrics import MetricsRegistry
from repro.server.ambient import SinusoidalAmbient
from repro.server.dvfs import default_dvfs_ladder
from repro.server.specs import default_server_spec
from repro.telemetry.segments import partition_servers
from repro.workloads.profile import ConstantProfile

PROFILE = ConstantProfile(50.0, 120.0)


def mixed_fleet():
    """Three racks of differing fan bounds, ladders and socket counts."""
    base = default_server_spec()
    narrow_fan = replace(
        base,
        fan=replace(base.fan, rpm_min=2000.0, rpm_max=4000.0),
        default_fan_rpm=3000.0,
    )
    laddered = replace(base, dvfs=default_dvfs_ladder())
    one_socket = replace(base, sockets=base.sockets[:1])
    return Fleet(
        racks=(
            Rack(name="a", servers=(base, narrow_fan, laddered)),
            Rack(
                name="b",
                servers=(one_socket, base),
                crac=SinusoidalAmbient(mean_c=21.0, amplitude_c=1.5),
            ),
            Rack(name="c", servers=(laddered, narrow_fan), crac_supply_c=26.0),
        )
    )


def assert_arrays_match_specs(fleet):
    """Every cached array equals the per-server expression it replaces."""
    servers = tuple(spec for rack in fleet.racks for spec in rack.servers)
    assert fleet.servers == servers
    assert fleet.server_count == len(servers)
    rack_of = [r for r, rack in enumerate(fleet.racks) for _ in rack.servers]
    np.testing.assert_array_equal(fleet.rack_index, rack_of)
    assert fleet.rack_index_of_server == tuple(rack_of)
    np.testing.assert_array_equal(
        fleet.fan_rpm_min, [s.fan.rpm_min for s in servers]
    )
    np.testing.assert_array_equal(
        fleet.fan_rpm_max, [s.fan.rpm_max for s in servers]
    )
    np.testing.assert_array_equal(
        fleet.pstate_count, [len(s.dvfs) for s in servers]
    )
    np.testing.assert_array_equal(
        fleet.socket_counts, [s.socket_count for s in servers]
    )
    models = [rack.supply_model() for rack in fleet.racks for _ in rack.servers]
    assert len(fleet.supply_models()) == len(models)
    for t in (0.0, 450.0, 1800.0):
        expected = np.array([m.temperature_c(t) for m in models])
        np.testing.assert_array_equal(fleet.supply_temperatures_c(t), expected)
        np.testing.assert_array_equal(
            [m.temperature_c(t) for m in fleet.supply_models()], expected
        )


class TestSpecArrays:
    def test_servers_is_built_once(self):
        fleet = build_uniform_fleet(rack_count=2, servers_per_rack=3)
        assert fleet.servers is fleet.servers

    def test_mixed_fleet_arrays(self):
        fleet = mixed_fleet()
        assert_arrays_match_specs(fleet)
        # the mix the fixture promises is really there
        assert len(set(fleet.fan_rpm_min.tolist())) == 2
        assert set(fleet.pstate_count.tolist()) == {1, 4}
        assert set(fleet.socket_counts.tolist()) == {1, 2}

    def test_uniform_coupled_fleet_arrays(self):
        assert_arrays_match_specs(
            build_uniform_fleet(rack_count=3, servers_per_rack=4)
        )

    @pytest.mark.parametrize("shards", [1, 2, 3, (1, 4, 2)])
    def test_every_subfleet(self, shards):
        fleet = mixed_fleet()
        for lo, hi in partition_servers(fleet.server_count, shards):
            sub = _subfleet(fleet, lo, hi)
            assert all(isinstance(r.servers, tuple) for r in sub.racks)
            assert_arrays_match_specs(sub)
            assert sub.servers == fleet.servers[lo:hi]
            for name in ("fan_rpm_min", "fan_rpm_max", "pstate_count",
                         "socket_counts"):
                np.testing.assert_array_equal(
                    getattr(sub, name), getattr(fleet, name)[lo:hi]
                )
            for t in (0.0, 900.0):
                np.testing.assert_array_equal(
                    sub.supply_temperatures_c(t),
                    fleet.supply_temperatures_c(t)[lo:hi],
                )

    def test_arrays_are_read_only(self):
        fleet = mixed_fleet()
        for array in (fleet.rack_index, fleet.fan_rpm_min, fleet.fan_rpm_max,
                      fleet.pstate_count, fleet.socket_counts):
            with pytest.raises(ValueError):
                array[0] = 0

    def test_derived_state_stays_out_of_identity(self):
        fleet = mixed_fleet()
        twin = Fleet(racks=fleet.racks)
        assert fleet == twin and hash(fleet) == hash(twin)
        assert repr(fleet).startswith("Fleet(racks=")
        assert "fan_rpm_min" not in repr(fleet)
        assert set(fleet.__getstate__()) == {"racks", "recirculation"}
        clone = pickle.loads(pickle.dumps(fleet))
        assert clone.servers == fleet.servers
        assert_arrays_match_specs(clone)


# ----------------------------------------------------------------------
# validation: same text, same global index, on every backend
# ----------------------------------------------------------------------
class _PstateController(FixedSpeedController):
    """Fixed fans plus a constant p-state request."""

    def __init__(self, pstate):
        super().__init__(rpm=3000.0)
        self.pstate = pstate

    def decide_pstate(self, observation):
        return self.pstate


#: server 4 of the 2x3 fleet: past the first shard of a 2-way split
BAD = 4
BACKENDS = [
    ("vector", {}),
    ("reference", {}),
    ("sharded", {"shards": 2, "shard_mode": "inline"}),
]


def _raise_text(backend, kw, factory):
    fleet = build_uniform_fleet(rack_count=2, servers_per_rack=3)
    assert partition_servers(fleet.server_count, 2)[1][0] <= BAD
    engine = FleetEngine(
        fleet, PROFILE, controller_factory=factory, backend=backend, **kw
    )
    with pytest.raises(ValueError) as info:
        engine.run(dt_s=10.0)
    return str(info.value)


@pytest.mark.parametrize("backend,kw", BACKENDS)
def test_out_of_range_initial_rpm_names_global_index(backend, kw):
    text = _raise_text(
        backend,
        kw,
        lambda i: FixedSpeedController(rpm=9000.0 if i == BAD else 3000.0),
    )
    assert text == (
        f"server {BAD}: rpm 9000.0 outside supported range [1800.0, 4200.0]"
    )


@pytest.mark.parametrize("backend,kw", BACKENDS)
def test_out_of_range_pstate_names_global_index(backend, kw):
    text = _raise_text(
        backend, kw, lambda i: _PstateController(3 if i == BAD else 0)
    )
    assert text == f"server {BAD}: p-state 3 outside the 1-state ladder"


def test_cold_start_rpm_checked_against_every_server():
    fleet = mixed_fleet()
    with pytest.raises(ValueError) as info:
        FleetEngine(fleet, PROFILE, backend="reference", cold_start=True,
                    cold_start_rpm=1900.0)
    assert str(info.value) == (
        "server 1: cold_start_rpm 1900.0 outside supported range "
        "[2000.0, 4000.0]"
    )


# ----------------------------------------------------------------------
# setup time in the run stats
# ----------------------------------------------------------------------
def test_sharded_run_stats_record_setup_wall():
    fleet = build_uniform_fleet(rack_count=2, servers_per_rack=3)
    engine = FleetEngine(
        fleet, PROFILE, backend="sharded", shards=2, shard_mode="inline"
    )
    engine.run(dt_s=10.0)
    stats = engine.last_run_stats
    assert 0 < stats["wall_setup_s"] < stats["wall_stream_s"]


@pytest.mark.parametrize("backend", ["vector", "reference"])
def test_tick_loop_records_setup_timer(backend):
    fleet = build_uniform_fleet(rack_count=2, servers_per_rack=3)
    metrics = MetricsRegistry()
    FleetEngine(fleet, PROFILE, backend=backend, metrics=metrics).run(
        dt_s=10.0
    )
    setup = metrics.snapshot()["repro_fleet_setup"]
    assert setup["type"] == "timer"
    assert setup["calls"] == 1 and setup["total_s"] > 0
