"""Unit tests for the D2D medium: discovery, connection, transfer, breaks."""

import pytest

from repro.d2d.base import D2DEndpoint, D2DMedium, D2DTransferError, PeerInfo
from repro.d2d.wifi_direct import WIFI_DIRECT
from repro.energy.model import EnergyModel, EnergyPhase
from repro.energy.profiles import DEFAULT_PROFILE
from repro.mobility.models import LinearMobility, StaticMobility
from repro.sim.engine import Simulator


def make_endpoint(device_id, position=(0.0, 0.0), advertising=False, role=None):
    endpoint = D2DEndpoint(
        device_id,
        StaticMobility(position),
        energy=EnergyModel(owner=device_id),
        advertisement={"role": role} if role else {},
    )
    endpoint.advertising = advertising
    return endpoint


@pytest.fixture
def medium(sim):
    return D2DMedium(sim, WIFI_DIRECT)


class TestRegistration:
    def test_register_and_lookup(self, medium):
        endpoint = make_endpoint("a")
        medium.register(endpoint)
        assert medium.endpoint("a") is endpoint

    def test_duplicate_rejected(self, medium):
        medium.register(make_endpoint("a"))
        with pytest.raises(ValueError):
            medium.register(make_endpoint("a"))

    def test_unknown_lookup_raises(self, medium):
        with pytest.raises(KeyError):
            medium.endpoint("ghost")

    def test_undeployed_technology_gated(self, sim):
        from repro.d2d.lte_direct import LTE_DIRECT

        with pytest.raises(ValueError):
            D2DMedium(sim, LTE_DIRECT)
        # explicit opt-in works
        D2DMedium(sim, LTE_DIRECT, allow_undeployed=True)

    @pytest.mark.parametrize("period", [0.0, -5.0])
    def test_non_positive_link_check_period_rejected(self, sim, period):
        # a one-shot re-arm on a zero period would never advance the grid
        with pytest.raises(ValueError, match="link_check_period_s"):
            D2DMedium(sim, WIFI_DIRECT, link_check_period_s=period)


class TestDiscovery:
    def test_finds_advertising_peers_in_range(self, sim, medium):
        medium.register(make_endpoint("ue"))
        medium.register(make_endpoint("relay", (3.0, 0.0), advertising=True, role="relay"))
        found = []
        medium.discover("ue", found.extend)
        sim.run_until(10.0)
        assert [p.device_id for p in found] == ["relay"]
        assert found[0].advertisement["role"] == "relay"

    def test_non_advertising_peers_invisible(self, sim, medium):
        medium.register(make_endpoint("ue"))
        medium.register(make_endpoint("silent", (3.0, 0.0), advertising=False))
        found = []
        medium.discover("ue", found.extend)
        sim.run_until(10.0)
        assert found == []

    def test_out_of_range_peers_invisible(self, sim, medium):
        medium.register(make_endpoint("ue"))
        medium.register(
            make_endpoint("far", (WIFI_DIRECT.max_range_m + 10, 0.0), advertising=True)
        )
        found = []
        medium.discover("ue", found.extend)
        sim.run_until(10.0)
        assert found == []

    def test_discovery_takes_latency(self, sim, medium):
        medium.register(make_endpoint("ue"))
        done_at = []
        medium.discover("ue", lambda peers: done_at.append(sim.now))
        sim.run_until(10.0)
        assert done_at == [WIFI_DIRECT.discovery_latency_s]

    def test_discovery_energy_charged_to_requester_only(self, sim, medium):
        """A probe response is free; the responder's discovery-phase cost
        is deferred to connection time (find-phase participation)."""
        ue = make_endpoint("ue")
        relay = make_endpoint("relay", (3.0, 0.0), advertising=True)
        medium.register(ue)
        medium.register(relay)
        medium.discover("ue", lambda peers: None)
        sim.run_until(10.0)
        assert ue.energy.phase_uah(EnergyPhase.D2D_DISCOVERY) == pytest.approx(
            DEFAULT_PROFILE.ue_discovery_uah
        )
        assert relay.energy.phase_uah(EnergyPhase.D2D_DISCOVERY) == 0.0
        # after pairing, the relay has paid its Table III discovery charge
        medium.connect("ue", "relay", lambda conn: None)
        sim.run_until(20.0)
        assert relay.energy.phase_uah(EnergyPhase.D2D_DISCOVERY) == pytest.approx(
            DEFAULT_PROFILE.relay_discovery_uah
        )

    def test_third_party_scans_do_not_drain_relays(self, sim, medium):
        """A crowd of scanning UEs must not multiply-bill every relay in
        range — the artifact that motivated deferring the responder cost."""
        relay = make_endpoint("relay", (3.0, 0.0), advertising=True)
        medium.register(relay)
        for i in range(5):
            scanner = make_endpoint(f"scanner-{i}")
            medium.register(scanner)
            medium.discover(f"scanner-{i}", lambda peers: None)
        sim.run_until(30.0)
        assert relay.energy.total_uah == 0.0

    def test_peers_sorted_strongest_first(self, sim, medium):
        medium.register(make_endpoint("ue"))
        medium.register(make_endpoint("near", (1.0, 0.0), advertising=True))
        medium.register(make_endpoint("far", (15.0, 0.0), advertising=True))
        found = []
        medium.discover("ue", found.extend, rssi_noise=False)
        sim.run_until(10.0)
        assert [p.device_id for p in found] == ["near", "far"]

    def test_equal_rssi_ties_break_by_device_id(self, sim, medium):
        medium.register(make_endpoint("ue"))
        # three peers at exactly 6 m: equal mean RSSI
        for device_id, position in (
            ("b", (0.0, 6.0)), ("c", (-6.0, 0.0)), ("a", (6.0, 0.0))
        ):
            medium.register(make_endpoint(device_id, position, advertising=True))
        found = []
        medium.discover("ue", found.extend, rssi_noise=False)
        sim.run_until(10.0)
        assert [p.device_id for p in found] == ["a", "b", "c"]

    def test_distance_estimate_exact_without_noise(self, sim, medium):
        medium.register(make_endpoint("ue"))
        medium.register(make_endpoint("relay", (4.0, 0.0), advertising=True))
        found = []
        medium.discover("ue", found.extend, rssi_noise=False)
        sim.run_until(10.0)
        assert found[0].estimated_distance_m == pytest.approx(4.0, rel=1e-9)

    def test_powered_off_requester_rejected(self, medium):
        endpoint = make_endpoint("ue")
        endpoint.powered_on = False
        medium.register(endpoint)
        with pytest.raises(D2DTransferError):
            medium.discover("ue", lambda peers: None)


class TestConnection:
    def _pair(self, sim, medium, distance=3.0):
        ue = make_endpoint("ue")
        relay = make_endpoint("relay", (distance, 0.0), advertising=True)
        medium.register(ue)
        medium.register(relay)
        result = []
        medium.connect("ue", "relay", result.append)
        sim.run_until(10.0)
        return ue, relay, result[0]

    def test_connect_succeeds_in_range(self, sim, medium):
        __, __, connection = self._pair(sim, medium)
        assert connection is not None and connection.alive
        assert medium.connections_established == 1

    def test_connect_energy_both_sides(self, sim, medium):
        ue, relay, __ = self._pair(sim, medium)
        assert ue.energy.phase_uah(EnergyPhase.D2D_CONNECTION) == pytest.approx(
            DEFAULT_PROFILE.ue_connection_uah
        )
        assert relay.energy.phase_uah(EnergyPhase.D2D_CONNECTION) == pytest.approx(
            DEFAULT_PROFILE.relay_connection_uah
        )

    def test_self_connect_rejected(self, sim, medium):
        medium.register(make_endpoint("narcissist"))
        with pytest.raises(D2DTransferError):
            medium.connect("narcissist", "narcissist", lambda c: None)

    def test_connect_fails_out_of_range(self, sim, medium):
        __, __, connection = self._pair(sim, medium, distance=WIFI_DIRECT.max_range_m + 5)
        assert connection is None
        assert medium.connections_failed == 1

    def test_connect_fails_if_responder_powers_off_mid_handshake(self, sim, medium):
        ue = make_endpoint("ue")
        relay = make_endpoint("relay", (2.0, 0.0), advertising=True)
        medium.register(ue)
        medium.register(relay)
        result = []
        medium.connect("ue", "relay", result.append)
        relay.powered_on = False
        sim.run_until(10.0)
        assert result == [None]

    def test_transfer_delivers_payload(self, sim, medium):
        ue, relay, connection = self._pair(sim, medium)
        inbox = []
        relay.on_message = lambda conn, sender, payload, size: inbox.append(
            (sender, payload, size)
        )
        outcomes = []
        connection.send("ue", 78, "beat", on_result=outcomes.append)
        sim.run_until(20.0)
        assert inbox == [("ue", "beat", 78)]
        assert outcomes == [True]
        assert connection.messages_delivered == 1
        assert connection.bytes_transferred == 78

    def test_transfer_energy_tx_rx_split(self, sim, medium):
        ue, relay, connection = self._pair(sim, medium, distance=1.0)
        connection.send("ue", 54, "beat")
        sim.run_until(20.0)
        assert ue.energy.phase_uah(EnergyPhase.D2D_FORWARD) == pytest.approx(
            DEFAULT_PROFILE.ue_forward_cost_uah(54, 1.0)
        )
        assert relay.energy.phase_uah(EnergyPhase.D2D_RECEIVE) == pytest.approx(
            DEFAULT_PROFILE.relay_receive_cost_uah(54)
        )

    def test_transfer_energy_scales_with_distance(self, sim):
        costs = []
        for distance in (1.0, 10.0):
            from repro.sim.engine import Simulator

            sim2 = Simulator(seed=1)
            medium2 = D2DMedium(sim2, WIFI_DIRECT)
            ue = make_endpoint("ue")
            relay = make_endpoint("relay", (distance, 0.0), advertising=True)
            medium2.register(ue)
            medium2.register(relay)
            holder = []
            medium2.connect("ue", "relay", holder.append)
            sim2.run_until(5.0)
            holder[0].send("ue", 54, "x")
            sim2.run_until(10.0)
            costs.append(ue.energy.phase_uah(EnergyPhase.D2D_FORWARD))
        assert costs[1] > costs[0] * 2

    def test_channel_mode_scales_base_charge_not_per_byte_slope(self, sim):
        # Channel-mode billing: airtime scales only the time-dependent
        # base cost; the per-byte component stays unscaled. Scaling the
        # full cost would compound two size-dependent factors (slope and
        # grant duration) into energy quadratic in payload size.
        from repro.channel.model import ChannelModel

        channel = ChannelModel()
        medium = D2DMedium(sim, WIFI_DIRECT, channel=channel)
        ue = make_endpoint("ue")
        relay = make_endpoint("relay", (1.0, 0.0), advertising=True)
        medium.register(ue)
        medium.register(relay)
        holder = []
        medium.connect("ue", "relay", holder.append)
        sim.run_until(5.0)
        size = 5000
        holder[0].send("ue", size, "x")
        duration = channel.config.overhead_s + channel.stats.sum_airtime_s
        scale = duration / DEFAULT_PROFILE.d2d_transfer_s
        tx_base = DEFAULT_PROFILE.ue_forward_cost_uah(0, 1.0)
        tx_full = DEFAULT_PROFILE.ue_forward_cost_uah(size, 1.0)
        expected = (tx_base * scale + (tx_full - tx_base)) * WIFI_DIRECT.tx_scale
        assert ue.energy.phase_uah(EnergyPhase.D2D_FORWARD) == pytest.approx(expected)

    def test_control_messages_use_ack_charge(self, sim, medium):
        ue, relay, connection = self._pair(sim, medium)
        connection.send("relay", 24, "ack", control=True)
        sim.run_until(20.0)
        assert relay.energy.phase_uah(EnergyPhase.D2D_ACK) == pytest.approx(
            DEFAULT_PROFILE.relay_ack_uah
        )
        assert ue.energy.phase_uah(EnergyPhase.D2D_ACK) == pytest.approx(
            DEFAULT_PROFILE.relay_ack_uah
        )

    def test_send_from_non_member_raises(self, sim, medium):
        __, __, connection = self._pair(sim, medium)
        with pytest.raises(D2DTransferError):
            connection.send("stranger", 10, "x")

    def test_close_notifies_both_sides(self, sim, medium):
        ue, relay, connection = self._pair(sim, medium)
        reasons = []
        ue.on_disconnect = lambda conn, reason: reasons.append(("ue", reason))
        relay.on_disconnect = lambda conn, reason: reasons.append(("relay", reason))
        connection.close("done")
        assert not connection.alive
        assert set(reasons) == {("ue", "done"), ("relay", "done")}

    def test_send_on_closed_connection_fails(self, sim, medium):
        __, __, connection = self._pair(sim, medium)
        connection.close()
        outcomes = []
        assert connection.send("ue", 10, "x", on_result=outcomes.append) is False
        assert outcomes == [False]


class TestMobilityBreaks:
    def test_link_breaks_when_peer_walks_away(self, sim, medium):
        ue = D2DEndpoint(
            "ue",
            LinearMobility((0.0, 0.0), (2.0, 0.0)),  # 2 m/s away
            energy=EnergyModel(owner="ue"),
        )
        relay = make_endpoint("relay", (0.0, 0.0), advertising=True)
        medium.register(ue)
        medium.register(relay)
        holder = []
        medium.connect("ue", "relay", holder.append)
        sim.run_until(5.0)
        connection = holder[0]
        assert connection.alive
        breaks = []
        ue.on_disconnect = lambda conn, reason: breaks.append(reason)
        # after ~25 s the UE is past the 50 m Wi-Fi Direct range
        sim.run_until(60.0)
        assert not connection.alive
        assert breaks == ["out of range"]
        assert medium.connections_broken == 1

    def test_send_beyond_range_breaks_link(self, sim, medium):
        ue = D2DEndpoint("ue", LinearMobility((0.0, 0.0), (30.0, 0.0)))
        relay = make_endpoint("relay", advertising=True)
        medium.register(ue)
        medium.register(relay)
        holder = []
        medium.connect("ue", "relay", holder.append)
        sim.run_until(WIFI_DIRECT.connection_latency_s)
        connection = holder[0]
        sim.run_until(4.0)  # 120 m away now, before the first link check
        outcomes = []
        assert connection.send("ue", 10, "x", on_result=outcomes.append) is False
        assert outcomes == [False]
        assert not connection.alive

    def test_power_off_breaks_connections(self, sim, medium):
        ue = make_endpoint("ue")
        relay = make_endpoint("relay", (2.0, 0.0), advertising=True)
        medium.register(ue)
        medium.register(relay)
        holder = []
        medium.connect("ue", "relay", holder.append)
        sim.run_until(5.0)
        medium.power_off("relay")
        assert not holder[0].alive
        assert medium.connections_of("ue") == []


class TestLinkSupervision:
    """Range checks fall on the connection's period grid (establishment
    time plus whole periods) but only where the endpoints' speed bounds
    say the link could have left range."""

    def _static_pair(self, sim):
        medium = D2DMedium(sim, WIFI_DIRECT)
        medium.register(make_endpoint("ue"))
        medium.register(make_endpoint("relay", (30.0, 0.0), advertising=True))
        holder = []
        medium.connect("ue", "relay", holder.append)
        return medium, holder

    def test_static_pair_is_never_checked(self):
        sim = Simulator(seed=1, trace=True)
        __, holder = self._static_pair(sim)
        sim.run_until(3600.0)
        assert holder[0].alive
        assert not [name for __, name in sim.event_log if name == "d2d_link_check"]
        assert sim.pending == 0

    # 121.5 is itself a grid instant (established at 1.5, period 5 s):
    # the check at the install instant already sees the gate
    @pytest.mark.parametrize("install_s", [123.4, 121.5])
    def test_gate_installed_mid_run_breaks_at_next_grid_instant(self, install_s):
        sim = Simulator(seed=1)
        medium, holder = self._static_pair(sim)
        breaks = []
        medium.endpoint("ue").on_disconnect = lambda conn, reason: breaks.append(
            (sim.now, reason)
        )
        sim.run_until(install_s)
        connection = holder[0]
        medium.link_gate = lambda a, b: False
        sim.run_until(1000.0)
        due = connection.established_at_s + medium.link_check_period_s
        while due < install_s:
            due += medium.link_check_period_s
        assert breaks == [(due, "link down")]

    def test_mover_is_checked_only_near_the_range_edge(self):
        sim = Simulator(seed=1, trace=True)
        medium = D2DMedium(sim, WIFI_DIRECT)
        # 0.5 m/s away from 10 m: past the 50 m range at t = 80 s
        medium.register(D2DEndpoint("ue", LinearMobility((10.0, 0.0), (0.5, 0.0))))
        medium.register(make_endpoint("relay", advertising=True))
        holder = []
        medium.connect("ue", "relay", holder.append)
        reasons = []
        medium.endpoint("relay").on_disconnect = lambda conn, reason: reasons.append(
            reason
        )
        sim.run_until(600.0)
        checks = [t for t, name in sim.event_log if name == "d2d_link_check"]
        assert reasons == ["out of range"]
        # polling every 5 s would have taken 16 checks to find the break;
        # it still lands on the first grid instant past the crossing
        assert holder[0].established_at_s == 1.5
        assert len(checks) < 5
        assert checks[-1] == 81.5


class TestAdvertisementSafety:
    """Peers see a live read-only view of the advertiser's record — no
    per-scan copies, and no way for a consumer to corrupt the source."""

    def test_peer_view_is_read_only(self, sim, medium):
        medium.register(make_endpoint("ue"))
        medium.register(make_endpoint("relay", (3.0, 0.0), advertising=True, role="relay"))
        found = []
        medium.discover("ue", found.extend)
        sim.run_until(10.0)
        peer = found[0]
        with pytest.raises(TypeError):
            peer.advertisement["role"] = "hacked"
        with pytest.raises(TypeError):
            del peer.advertisement["role"]

    def test_consumer_snapshot_leaves_source_intact(self, sim, medium):
        medium.register(make_endpoint("ue"))
        relay = make_endpoint("relay", (3.0, 0.0), advertising=True, role="relay")
        medium.register(relay)
        found = []
        medium.discover("ue", found.extend)
        sim.run_until(10.0)
        snapshot = dict(found[0].advertisement)
        snapshot["role"] = "edited-copy"
        assert relay.advertisement == {"role": "relay"}

    def test_view_tracks_in_place_advertiser_updates(self, sim, medium):
        medium.register(make_endpoint("ue"))
        relay = make_endpoint("relay", (3.0, 0.0), advertising=True, role="relay")
        medium.register(relay)
        found = []
        medium.discover("ue", found.extend)
        sim.run_until(10.0)
        # The advertiser mutates its record in place; the already-handed-out
        # view reflects it (it is a proxy, not a frozen copy).
        relay.advertisement["load"] = 0.7
        assert found[0].advertisement["load"] == 0.7


class TestPeerInfoContract:
    """A scan result is an immutable named tuple with a fixed field order."""

    FIELDS = ("device_id", "rssi_dbm", "estimated_distance_m", "advertisement")

    def test_keyword_and_positional_construction_agree(self):
        advertisement = {"role": "relay"}
        by_keyword = PeerInfo(
            device_id="r", rssi_dbm=-50.0, estimated_distance_m=3.0,
            advertisement=advertisement,
        )
        by_position = PeerInfo("r", -50.0, 3.0, advertisement)
        assert by_keyword == by_position
        assert tuple(by_position) == ("r", -50.0, 3.0, advertisement)

    def test_field_order(self):
        assert PeerInfo._fields == self.FIELDS
        peer = PeerInfo("r", -50.0, 3.0, {})
        assert [getattr(peer, name) for name in self.FIELDS] == list(peer)

    @pytest.mark.parametrize("field", FIELDS)
    def test_assignment_raises(self, field):
        peer = PeerInfo("r", -50.0, 3.0, {})
        with pytest.raises(AttributeError):
            setattr(peer, field, None)

    def test_two_equal_scans_compare_equal(self, sim, medium):
        medium.register(make_endpoint("ue"))
        for i, x in enumerate((3.0, 12.0, 30.0)):
            medium.register(
                make_endpoint(f"relay-{i}", (x, 0.0), advertising=True, role="relay")
            )
        scans = []
        # both scans finish inside one 1 s shadowing slot: equal draws
        sim.schedule_at(0.0, medium.discover, "ue", scans.append)
        sim.schedule_at(0.5, medium.discover, "ue", scans.append)
        sim.run_until(10.0)
        first, second = scans
        assert len(first) == 3
        assert first == second
        assert all(type(peer) is PeerInfo for peer in first)
