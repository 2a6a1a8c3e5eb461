"""Soak test: three simulated days, nothing drifts and nothing leaks."""

import pytest

from repro.baseline.original import expected_beats_in
from repro.cellular.basestation import BaseStation
from repro.cellular.signaling import SignalingLedger
from repro.core.framework import HeartbeatRelayFramework
from repro.d2d.base import D2DMedium
from repro.d2d.wifi_direct import WIFI_DIRECT
from repro.device import Role, Smartphone
from repro.mobility.models import StaticMobility
from repro.sim.engine import Simulator
from repro.workload.apps import WECHAT
from repro.workload.server import IMServer

DAYS = 3
HORIZON = DAYS * 86_400.0


@pytest.fixture(scope="module")
def soak_run():
    sim = Simulator(seed=123)
    ledger = SignalingLedger(keep_messages=False)  # bound memory, like prod
    basestation = BaseStation(sim, ledger=ledger)
    server = IMServer(sim)
    basestation.attach_sink(server.uplink_sink)
    medium = D2DMedium(sim, WIFI_DIRECT)
    framework = HeartbeatRelayFramework([], app=WECHAT)
    relay = Smartphone(sim, "relay-0", mobility=StaticMobility((0.0, 0.0)),
                       role=Role.RELAY, ledger=ledger, basestation=basestation,
                       d2d_medium=medium)
    framework.add_device(relay, phase_fraction=0.0)
    for i in range(2):
        ue = Smartphone(sim, f"ue-{i}",
                        mobility=StaticMobility((1.0, float(i))),
                        role=Role.UE, ledger=ledger, basestation=basestation,
                        d2d_medium=medium)
        framework.add_device(ue, phase_fraction=0.3 + 0.3 * i)
    sim.run_until(HORIZON - 1)
    framework.shutdown()
    sim.run_until(HORIZON + 60)
    return sim, ledger, server, framework


class TestThreeDaySoak:
    def test_every_beat_on_time_for_three_days(self, soak_run):
        sim, ledger, server, framework = soak_run
        expected = 3 * expected_beats_in(HORIZON - 1, WECHAT, 0.0)
        # (phases differ per device but each emits ~960 beats over 3 days)
        assert server.late_count == 0
        assert len(server.records) >= expected - 6
        assert server.duplicate_count == 0

    def test_event_queue_fully_drains(self, soak_run):
        """No leaked timers: after shutdown + drain the queue is empty."""
        sim, __, __, framework = soak_run
        assert sim.pending == 0

    def test_steady_state_cadence(self, soak_run):
        """One aggregated uplink per relay period, all three days."""
        sim, __, __, framework = soak_run
        periods = int(HORIZON / WECHAT.heartbeat_period_s)
        uplinks = framework.total_aggregated_uplinks()
        assert abs(uplinks - periods) <= 2

    def test_signaling_is_exactly_periodic(self, soak_run):
        """Cycles == uplinks: no signaling creep over the soak."""
        __, ledger, __, framework = soak_run
        assert ledger.cycles_for("relay-0") in (
            framework.total_aggregated_uplinks(),
            framework.total_aggregated_uplinks() - 1,  # final tail may be open
        )
        assert ledger.count_for("ue-0") == 0
        assert ledger.count_for("ue-1") == 0

    def test_single_discovery_for_the_whole_soak(self, soak_run):
        """Stable pairs never rescan: discovery energy is amortized over
        three days, exactly the long-session regime the paper favours."""
        __, __, __, framework = soak_run
        for agent in framework.ue_agents():
            assert agent.searches == 1
            assert agent.cellular_sends == 0
