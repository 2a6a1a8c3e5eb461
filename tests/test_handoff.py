"""Relay handoff under mobility: a UE walks from relay A's range into
relay B's.

The framework has no explicit handoff protocol — the behaviour *emerges*
from the pieces: the link monitor breaks the stale connection, pending
beats fall back via the feedback tracker, and the next beat triggers a
fresh discovery that matches the now-nearest relay. These tests pin that
emergent behaviour down.
"""

import dataclasses

import pytest

from repro.cellular.basestation import BaseStation
from repro.cellular.signaling import SignalingLedger
from repro.core.framework import FrameworkConfig, HeartbeatRelayFramework
from repro.core.matching import MatchConfig
from repro.d2d.base import D2DMedium
from repro.d2d.wifi_direct import WIFI_DIRECT
from repro.device import Role, Smartphone
from repro.mobility.models import LinearMobility, StaticMobility
from repro.sim.engine import Simulator
from repro.workload.apps import STANDARD_APP
from repro.workload.server import IMServer

T = STANDARD_APP.heartbeat_period_s
#: relay A at x=0, relay B at x=160; Wi-Fi Direct reaches 50 m.
RELAY_POSITIONS = ((0.0, 0.0), (160.0, 0.0))
#: the UE starts next to A and walks toward B at 0.1 m/s: it leaves A's
#: 50 m range around t = 510 s and enters B's 20 m pairing range around
#: t = 1380 s.
UE_MOBILITY = LinearMobility((2.0, 0.0), (0.1, 0.0))
NOISELESS_WIFI_DIRECT = dataclasses.replace(
    WIFI_DIRECT, link=dataclasses.replace(WIFI_DIRECT.link, shadowing_sigma_db=0.0)
)


@pytest.fixture
def rig():
    sim = Simulator(seed=21)
    ledger = SignalingLedger()
    basestation = BaseStation(sim, ledger=ledger)
    server = IMServer(sim)
    basestation.attach_sink(server.uplink_sink)
    # σ = 0: the subject is re-pairing along the walk, not shadowing, so
    # the link is noise-free and the pairing points are deterministic
    medium = D2DMedium(sim, NOISELESS_WIFI_DIRECT)
    framework = HeartbeatRelayFramework(
        [], app=STANDARD_APP,
        config=FrameworkConfig(
            matching=MatchConfig(max_pair_distance_m=20.0),
            search_cooldown_s=30.0,
        ),
    )
    relays = []
    for i, position in enumerate(RELAY_POSITIONS):
        relay = Smartphone(sim, f"relay-{i}", mobility=StaticMobility(position),
                           role=Role.RELAY, ledger=ledger,
                           basestation=basestation, d2d_medium=medium)
        framework.add_device(relay, phase_fraction=0.0)
        relays.append(relay)
    ue = Smartphone(sim, "ue-0", mobility=UE_MOBILITY, role=Role.UE,
                    ledger=ledger, basestation=basestation, d2d_medium=medium)
    framework.add_device(ue, phase_fraction=0.3)
    return sim, server, framework, relays, ue


TOTAL_PERIODS = 8  # 8 × 270 s = 2160 s of walking


class TestHandoff:
    def test_ue_serves_from_both_relays_over_the_walk(self, rig):
        sim, server, framework, relays, ue = rig
        sim.run_until(TOTAL_PERIODS * T)
        agent = framework.ues["ue-0"]
        a = framework.relays["relay-0"]
        b = framework.relays["relay-1"]
        # the UE was paired with A early and B late
        assert a.beats_collected >= 1
        assert b.beats_collected >= 1
        assert agent.matches >= 2  # at least one re-pairing happened

    def test_mid_walk_beats_use_cellular(self, rig):
        """In the dead zone between relays the UE falls back to cellular."""
        sim, server, framework, relays, ue = rig
        sim.run_until(TOTAL_PERIODS * T)
        agent = framework.ues["ue-0"]
        assert agent.cellular_sends >= 1

    def test_every_beat_on_time_throughout(self, rig):
        sim, server, framework, relays, ue = rig
        sim.run_until(TOTAL_PERIODS * T)
        ue_beats = {
            record.message.seq
            for record in server.records
            if record.message.origin_device == "ue-0" and record.on_time
        }
        assert len(ue_beats) == TOTAL_PERIODS

    def test_final_attachment_is_the_nearer_relay(self, rig):
        sim, server, framework, relays, ue = rig
        sim.run_until(TOTAL_PERIODS * T)
        agent = framework.ues["ue-0"]
        if agent.relay_id is not None:  # paired at the end of the walk
            assert agent.relay_id == "relay-1"

    def test_online_status_never_lapses(self, rig):
        sim, server, framework, relays, ue = rig
        # sample the server's view of the UE every period
        for period in range(2, TOTAL_PERIODS + 1):
            sim.run_until(period * T)
            assert server.is_online("ue-0", "standard", now=sim.now), period
