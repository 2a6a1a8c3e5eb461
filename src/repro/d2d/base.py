"""Technology-generic D2D medium, endpoints and connections.

One :class:`D2DMedium` per simulation models the shared radio environment
for one D2D technology: who can discover whom (range + advertisement),
connection establishment, range-limited transfers with distance-dependent
energy, and link monitoring that breaks connections when devices drift
apart (the failure mode the paper's feedback mechanism exists for).

Energy conventions follow the paper's Table III: the *initiator* of
discovery/connection pays the UE-side charge, the responder the relay-side
charge; a message sender pays the forward charge (distance-scaled, Fig. 12)
and the receiver the receive charge (Table IV slope).
"""

from __future__ import annotations

import dataclasses
import math
import operator
import time
import types
from typing import (
    Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Set, Tuple,
)

import numpy as np

from repro.channel.model import ChannelModel
from repro.d2d.link import LinkModel
from repro.energy.model import EnergyModel, EnergyPhase
from repro.energy.profiles import DEFAULT_PROFILE, EnergyProfile
from repro.mobility.index import Cell, SpatialIndex
from repro.mobility.models import MobilityModel, TrajectoryBatch
from repro.mobility.space import Position, distance_between
from repro.perf import PerfCounters
from repro.sim.engine import Simulator
from repro.sim.events import Event
from repro.sim.rng import _derive_seed, key64, keyed_normal

#: Most period-grid steps one drift-bounded link check may lie ahead of
#: the last one, so a near-zero speed bound cannot spin the grid walk.
_MAX_CHECK_STEPS = 64

#: Odd 64-bit multiplier spreading the 1 s shadowing slot over the salt.
_SLOT_MIX = 0xD6E8FEB86659FD93
_MASK64 = (1 << 64) - 1


def shadowing_salt(seed: int) -> int:
    """Base salt of the keyed shadowing draws of experiment ``seed``."""
    return _derive_seed(seed, "d2d-shadowing")


#: Scan results sort by device id, then stably by RSSI descending: the
#: strongest signal first, equal RSSI in device-id order. Two C-keyed
#: sorts cost less than one Python tuple key.
_ID_KEY = operator.attrgetter("device_id")
_RSSI_KEY = operator.attrgetter("rssi_dbm")

#: One scan survivor: ``(device_id, advertisement_view, mean_rssi)``.
_Survivor = Tuple[str, Mapping[str, Any], float]


class D2DTransferError(RuntimeError):
    """Raised for illegal transfer attempts (closed connection, bad peer)."""


@dataclasses.dataclass(frozen=True)
class D2DTechnology:
    """Capabilities and relative energy cost of one D2D technology.

    Energy scales are multipliers applied to the Wi-Fi Direct-calibrated
    base costs in :class:`~repro.energy.profiles.EnergyProfile` (so
    Wi-Fi Direct itself uses 1.0 everywhere).
    """

    name: str
    max_range_m: float
    discovery_latency_s: float
    connection_latency_s: float
    transfer_latency_s: float
    deployed: bool = True  # LTE Direct is modelled but gated (Sec. IV-A)
    discovery_scale: float = 1.0
    connection_scale: float = 1.0
    tx_scale: float = 1.0
    rx_scale: float = 1.0
    link: LinkModel = dataclasses.field(default_factory=LinkModel)


class PeerInfo(NamedTuple):
    """What a discovery scan reveals about one nearby peer.

    An immutable tuple ``(device_id, rssi_dbm, estimated_distance_m,
    advertisement)``: fields read by name or position, and assignment
    raises ``AttributeError``. A scan builds one per survivor, and a
    tuple costs a fraction of a frozen dataclass's per-field
    ``object.__setattr__``.

    ``advertisement`` is a **read-only view** of the peer's live service
    record, not a per-scan copy (scans used to deep-copy every record for
    every peer, which dominated dense-crowd scan cost). Consumers that
    need a point-in-time snapshot should take ``dict(peer.advertisement)``
    themselves; attempts to mutate the view raise ``TypeError``, so a
    misbehaving consumer can never corrupt the endpoint's record.
    """

    device_id: str
    rssi_dbm: float
    estimated_distance_m: float
    advertisement: Mapping[str, Any]


class D2DEndpoint:
    """One device's attachment to the D2D medium.

    ``advertisement`` is the small service record other devices see during
    discovery (role, remaining relay capacity, …). ``on_message`` receives
    ``(connection, sender_id, payload, size_bytes)``; ``on_disconnect``
    receives ``(connection, reason)``.
    """

    def __init__(
        self,
        device_id: str,
        mobility: MobilityModel,
        energy: Optional[EnergyModel] = None,
        advertisement: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.device_id = device_id
        self.mobility = mobility
        self.energy = energy
        self.advertisement: Dict[str, Any] = dict(advertisement or {})
        #: Live read-only view of ``advertisement``, shared by every
        #: ``PeerInfo`` naming this endpoint (one proxy per endpoint, not
        #: one per scan result). Stays valid because the record is only
        #: ever mutated in place, never rebound.
        self.advertisement_view: Mapping[str, Any] = types.MappingProxyType(
            self.advertisement
        )
        self.advertising = False
        self.powered_on = True
        #: Time of the last data receive — drives wake coalescing.
        self.last_data_rx_s = float("-inf")
        self.on_message: Optional[Callable[["D2DConnection", str, Any, int], None]] = None
        self.on_disconnect: Optional[Callable[["D2DConnection", str], None]] = None

    def position(self, t: float) -> Position:
        return self.mobility.position(t)

    def charge(
        self, phase: EnergyPhase, uah: float, time_s: float, duration_s: float = 0.0
    ) -> None:
        if self.energy is not None:
            self.energy.charge(phase, uah, time_s=time_s, duration_s=duration_s)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"D2DEndpoint({self.device_id!r}, advertising={self.advertising})"


class D2DConnection:
    """An established point-to-point D2D link.

    ``group_owner_id`` records which side won the Wi-Fi Direct GO
    negotiation (from the advertised ``go_intent`` values; the initiator
    is assumed to be a UE pinning intent 0 unless it advertises
    otherwise), matching the paper's Sec. IV-C setup where relays start at
    intent 15.
    """

    def __init__(
        self,
        medium: "D2DMedium",
        initiator: D2DEndpoint,
        responder: D2DEndpoint,
        established_at_s: float,
    ) -> None:
        self.medium = medium
        self.initiator = initiator
        self.responder = responder
        self.established_at_s = established_at_s
        initiator_intent = int(initiator.advertisement.get("go_intent", 0))
        responder_intent = int(responder.advertisement.get("go_intent", 0))
        self.group_owner_id = (
            initiator.device_id
            if initiator_intent > responder_intent
            else responder.device_id
        )
        self.alive = True
        self.messages_delivered = 0
        self.messages_lost = 0
        self.bytes_transferred = 0
        #: Link-check grid: the last grid instant checked (establishment
        #: first), the pending check, and the endpoints' summed speed
        #: bounds (``None`` when either is unknown).
        self._grid_s = established_at_s
        self._check: Optional[Event] = None
        v_a = initiator.mobility.max_speed_m_s()
        v_b = responder.mobility.max_speed_m_s()
        self._drift_m_s = None if v_a is None or v_b is None else v_a + v_b

    # ------------------------------------------------------------------
    def peer_of(self, device_id: str) -> D2DEndpoint:
        """The endpoint on the other side of ``device_id``."""
        if device_id == self.initiator.device_id:
            return self.responder
        if device_id == self.responder.device_id:
            return self.initiator
        raise D2DTransferError(f"{device_id} is not part of this connection")

    def endpoint_of(self, device_id: str) -> D2DEndpoint:
        if device_id == self.initiator.device_id:
            return self.initiator
        if device_id == self.responder.device_id:
            return self.responder
        raise D2DTransferError(f"{device_id} is not part of this connection")

    def current_distance_m(self) -> float:
        now = self.medium.sim.now
        return distance_between(self.initiator.position(now), self.responder.position(now))

    @property
    def duration_s(self) -> float:
        return self.medium.sim.now - self.established_at_s

    # ------------------------------------------------------------------
    def send(
        self,
        sender_id: str,
        size_bytes: int,
        payload: Any = None,
        on_result: Optional[Callable[[bool], None]] = None,
        control: bool = False,
    ) -> bool:
        """Transfer ``payload`` to the peer.

        Returns ``True`` if the transfer was started (delivery happens one
        transfer-latency later); ``False`` if the link was found dead or out
        of range — in which case the connection is torn down and
        ``on_result(False)`` fires immediately.

        ``control`` marks tiny protocol messages (feedback acks): they use
        the small fixed ack charge instead of the full forward/receive cost.
        """
        if size_bytes < 0:
            raise D2DTransferError(f"size_bytes must be non-negative: {size_bytes}")
        sender = self.endpoint_of(sender_id)
        receiver = self.peer_of(sender_id)
        now = self.medium.sim.now
        if not self.alive or not sender.powered_on or not receiver.powered_on:
            self.medium._break_connection(self, "peer unavailable")
            if on_result is not None:
                on_result(False)
            return False
        if not self.medium.link_allowed(sender.device_id, receiver.device_id):
            self.medium._break_connection(self, "link down")
            if on_result is not None:
                on_result(False)
            return False
        distance = self.current_distance_m()
        if distance > self.medium.technology.max_range_m or not self.medium.technology.link.in_range(
            distance
        ):
            self.medium._break_connection(self, "out of range")
            if on_result is not None:
                on_result(False)
            return False

        t_section = time.perf_counter()
        profile = self.medium.profile
        tech = self.medium.technology
        # near the coverage edge, frames are lost probabilistically (PER);
        # TX/RX energy is still spent — the frame went out, it just didn't
        # arrive. Zero inside comfortable range, so calibrated experiments
        # at 1-15 m are unaffected.
        per = tech.link.packet_error_rate(distance)
        lost = per > 0.0 and self.medium.sim.rng.get("d2d-loss").random() < per
        transfer_latency_s = tech.transfer_latency_s
        if control:
            sender.charge(EnergyPhase.D2D_ACK, profile.relay_ack_uah, now)
            receiver.charge(EnergyPhase.D2D_ACK, profile.relay_ack_uah, now)
        else:
            channel = self.medium.channel
            if channel is None:
                charge_duration_s = profile.d2d_transfer_s
            else:
                # interference-aware mode: the transfer runs at the
                # Shannon rate the channel grants, and both sides pay
                # energy in proportion to the actual airtime (the fixed
                # per-message base charge is calibrated at d2d_transfer_s).
                grant = channel.begin_transfer(
                    sender.device_id,
                    receiver.device_id,
                    sender.position(now),
                    receiver.position(now),
                    size_bytes,
                    now,
                )
                transfer_latency_s = grant.duration_s
                charge_duration_s = grant.duration_s
                airtime_scale = grant.duration_s / profile.d2d_transfer_s
            coalesced = (
                now - receiver.last_data_rx_s <= profile.d2d_rx_coalesce_window_s
            )
            tx_full = profile.ue_forward_cost_uah(size_bytes, distance)
            rx_full = profile.relay_receive_cost_uah(size_bytes, coalesced)
            if channel is None:
                tx_uah = tx_full * tech.tx_scale
                rx_uah = rx_full * tech.rx_scale
            else:
                # airtime scales only the time-dependent base charge; the
                # per-byte slope already grows with payload size, and so
                # does the grant duration, so scaling the full cost would
                # make energy quadratic in size.
                tx_base = profile.ue_forward_cost_uah(0, distance)
                rx_base = profile.relay_receive_cost_uah(0, coalesced)
                tx_uah = (
                    tx_base * airtime_scale + (tx_full - tx_base)
                ) * tech.tx_scale
                rx_uah = (
                    rx_base * airtime_scale + (rx_full - rx_base)
                ) * tech.rx_scale
            receiver.last_data_rx_s = now
            sender.charge(
                EnergyPhase.D2D_FORWARD, tx_uah, now, duration_s=charge_duration_s
            )
            receiver.charge(
                EnergyPhase.D2D_RECEIVE, rx_uah, now, duration_s=charge_duration_s
            )

        def deliver() -> None:
            if not self.alive or lost:
                self.messages_lost += 1
                if on_result is not None:
                    on_result(False)
                return
            self.messages_delivered += 1
            self.bytes_transferred += size_bytes
            if receiver.on_message is not None:
                receiver.on_message(self, sender_id, payload, size_bytes)
            if on_result is not None:
                on_result(True)

        self.medium.sim.schedule(transfer_latency_s, deliver, name="d2d_deliver")
        self.medium.perf.add_seconds(
            "transfer", time.perf_counter() - t_section
        )
        return True

    def close(self, reason: str = "closed") -> None:
        """Tear the connection down; idempotent."""
        self.medium._break_connection(self, reason)


class _VectorBlock:
    """Aligned coordinate arrays for one ``(cell, k)`` candidate block.

    ``ids`` is the merged block (index cells + unindexed side set,
    requester *not* filtered — the block is shared by every requester
    scanning from the same cell), whatever its size. Static endpoints have
    their coordinates baked in at build time; dynamic ones are listed in
    ``_dynamic`` and refreshed into the arrays before the numpy distance
    evaluation, once per simulated instant: ``_t`` stamps the ``t`` of
    the last refresh, and a position is a function of ``t`` alone, so
    every later scan at that instant reads the same coordinates. Storm
    scans share instants and requesters in one cell share one block.
    """

    __slots__ = ("ids", "xs", "ys", "static_flags", "_dynamic", "_t")

    def __init__(self, ids, endpoints, static_pos) -> None:
        n = len(ids)
        xs = np.empty(n)
        ys = np.empty(n)
        static_flags = [False] * n
        dynamic = []
        for i, device_id in enumerate(ids):
            pos = static_pos.get(device_id)
            if pos is not None:
                xs[i] = pos[0]
                ys[i] = pos[1]
                static_flags[i] = True
            else:
                dynamic.append((i, endpoints[device_id]))
        self.ids = ids
        self.xs = xs
        self.ys = ys
        self.static_flags = static_flags
        self._dynamic = dynamic
        self._t: Optional[float] = None

    def distances_from(self, origin: Position, t: float):
        """Refresh dynamic coordinates unless already read at ``t``, then
        the block distances to ``origin`` as one numpy array.

        ``sqrt(dx*dx + dy*dy)`` elementwise is the exact IEEE-754
        operation sequence :func:`repro.mobility.space.distance_between`
        performs (sub, mul, mul, add, sqrt — each correctly rounded), so
        every element is bit-identical to the brute-force oracle's
        distance.
        """
        xs = self.xs
        ys = self.ys
        if t != self._t:
            for i, endpoint in self._dynamic:
                x, y = endpoint.position(t)
                xs[i] = x
                ys[i] = y
            self._t = t
        dx = xs - origin[0]
        dy = ys - origin[1]
        return np.sqrt(dx * dx + dy * dy)


class D2DMedium:
    """The shared D2D radio environment for one technology.

    Parameters
    ----------
    sim:
        Owning simulator.
    technology:
        Which D2D technology this medium models.
    profile:
        Energy calibration (shared with the cellular side).
    link_check_period_s:
        The grid live connections' range checks fall on (establishment
        time plus whole periods); instants the endpoints' speed bounds
        prove safe are skipped.
    allow_undeployed:
        LTE Direct is modelled but flagged undeployed (the paper abandons
        it "for generality consideration"); using it requires opting in.
    group_aware:
        When true, connecting to a responder that already owns a live
        group is a *join* rather than a fresh formation: faster and
        cheaper on the responder side (no second GO negotiation). Off by
        default so the Table III/IV calibration — measured on pairwise
        formations — stays exact.
    group_join_discount:
        Fraction of the connection latency/energy a join costs.
    brute_force:
        Test oracle: disable the spatial index and walk every endpoint
        on each discovery with scalar distances. Discovery results are
        byte-identical either way (same peers, same RSSI, same order) —
        the flag exists so the determinism guard has an independent
        reference, not because the results differ.
    index_refresh_s:
        How stale the binned positions of *moving* endpoints may get
        before a scan triggers an incremental re-bin pass. Between
        passes, queries widen by ``max mobile speed × staleness`` so a
        mover can never escape its candidate cells unseen. Static
        endpoints are binned once and never touched.
    channel:
        Optional interference-aware channel model. When set, data
        transfers run at Shannon-capacity rates under co-channel
        interference and bill energy per actual airtime; when ``None``
        (the default) the fixed latency/energy constants apply and
        behaviour is byte-identical to the pre-channel implementation.
    """

    def __init__(
        self,
        sim: Simulator,
        technology: D2DTechnology,
        profile: EnergyProfile = DEFAULT_PROFILE,
        link_check_period_s: float = 5.0,
        allow_undeployed: bool = False,
        group_aware: bool = False,
        group_join_discount: float = 0.5,
        brute_force: bool = False,
        index_refresh_s: float = 1.0,
        channel: Optional[ChannelModel] = None,
    ) -> None:
        if not 0.0 < group_join_discount <= 1.0:
            raise ValueError(
                f"group_join_discount must be in (0,1], got {group_join_discount}"
            )
        if not technology.deployed and not allow_undeployed:
            raise ValueError(
                f"{technology.name} is not deployed in the modelled network; "
                "pass allow_undeployed=True to simulate it anyway"
            )
        if index_refresh_s <= 0:
            raise ValueError(f"index_refresh_s must be positive, got {index_refresh_s}")
        if link_check_period_s <= 0:
            raise ValueError(
                f"link_check_period_s must be positive, got {link_check_period_s}"
            )
        self.sim = sim
        self.technology = technology
        self.profile = profile
        self.link_check_period_s = link_check_period_s
        #: Links shorter than this are in range for both the technology's
        #: hard cutoff and the link model's sensitivity floor; the 1 mm
        #: margin absorbs float error in positions and distances.
        self._safe_range_m = (
            min(technology.max_range_m, technology.link.max_range_m()) - 1e-3
        )
        self.group_aware = group_aware
        self.group_join_discount = group_join_discount
        self.brute_force = brute_force
        self.index_refresh_s = index_refresh_s
        self.channel = channel
        if channel is not None:
            # SINR evaluation reads co-channel transmitters' *current*
            # positions through this hook instead of the stale ones their
            # leases recorded at their own last transfer. Mobility models
            # are analytic, so the hook keeps channel mode replayable.
            channel.position_resolver = self._channel_position
        self.perf = PerfCounters()
        self._endpoints: Dict[str, D2DEndpoint] = {}
        #: device_id → fixed position for endpoints whose mobility model
        #: has a zero speed bound: their position never changes, so block
        #: builds bake it in once instead of calling ``position(t)`` on
        #: every scan. Clearing this dict (tests do) falls back to live
        #: position lookups.
        self._static_pos: Dict[str, Position] = {}
        #: (cell, k) → memoised candidate block; see ``_block_for``. One
        #: *global* stamp covers the whole dict — the stamp has no per-key
        #: component — so any membership/bin change clears it outright,
        #: bounding it by the distinct blocks scanned since that change.
        self._blocks: Dict[Tuple[Cell, int], _VectorBlock] = {}
        self._blocks_stamp: Optional[Tuple[int, int]] = None
        #: device_id → 64-bit shadowing key (see ``discover``)
        self._keys: Dict[str, int] = {}
        #: Base salt of the keyed shadowing draws, derived from the
        #: experiment seed. The sharded kernel re-keys it on the master
        #: seed so a link's shadowing never depends on the partition.
        self.shadowing_salt = shadowing_salt(sim.rng.seed)
        self._index: Optional[SpatialIndex] = (
            None if brute_force else SpatialIndex(technology.max_range_m)
        )
        #: endpoints with a finite, nonzero speed bound (rebinned lazily);
        #: refresh passes evaluate them through a TrajectoryBatch rebuilt
        #: whenever the membership version moves
        self._mobile: Dict[str, D2DEndpoint] = {}
        self._mobile_version = 0
        self._mobile_batch: Optional[TrajectoryBatch] = None
        self._mobile_batch_version = -1
        #: endpoints whose mobility model has no known speed bound: the
        #: index can't promise they stay near their bin, so every block
        #: includes them. ``_unindexed_version`` bumps on every membership
        #: change of this set — it is a block-memo stamp component because
        #: unindexed churn is invisible to the index version.
        self._unindexed: Set[str] = set()
        self._unindexed_version = 0
        self._max_mobile_speed = 0.0
        self._last_refresh_s = sim.now
        #: insertion-ordered live-connection set and per-endpoint adjacency
        #: (dicts as ordered sets: O(1) add/remove, stable iteration)
        self._connections: Dict[D2DConnection, None] = {}
        self._adjacency: Dict[str, Dict[D2DConnection, None]] = {}
        self._link_gate: Optional[Callable[[str, str], bool]] = None
        # statistics
        self.discoveries = 0
        self.connections_established = 0
        self.connections_failed = 0
        self.connections_broken = 0
        self.group_joins = 0

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def register(self, endpoint: D2DEndpoint) -> None:
        if endpoint.device_id in self._endpoints:
            raise ValueError(f"duplicate endpoint {endpoint.device_id}")
        device_id = endpoint.device_id
        self._keys[device_id] = key64(device_id)
        self._endpoints[device_id] = endpoint
        max_speed = endpoint.mobility.max_speed_m_s()
        if max_speed == 0.0:
            # a zero speed bound means the position is time-invariant:
            # memoise it once and spare every future scan the call.
            self._static_pos[device_id] = endpoint.position(self.sim.now)
        if self._index is None:
            return
        if max_speed is None:
            self._unindexed.add(device_id)
            self._unindexed_version += 1
            return
        self._index.insert(device_id, endpoint.position(self.sim.now))
        if max_speed > 0.0:
            self._mobile[device_id] = endpoint
            self._mobile_version += 1
            if max_speed > self._max_mobile_speed:
                self._max_mobile_speed = max_speed

    def unregister(self, device_id: str) -> None:
        """Remove an endpoint from the medium entirely.

        Breaks its live connections, then drops every trace of it —
        endpoint map, shadowing key, static memo, mobile set,
        unindexed set, spatial index. The sharded kernel churns ghost
        endpoints through this every sync window, so the block-memo stamp
        must move: the index version covers indexed members, and
        ``_unindexed_version`` covers the side set (whose churn is
        invisible to the index version).
        """
        endpoint = self.endpoint(device_id)
        for connection in list(self._adjacency.get(device_id, ())):
            self._break_connection(connection, "peer unregistered")
        del self._endpoints[device_id]
        del self._keys[device_id]
        self._static_pos.pop(device_id, None)
        if self._index is None:
            return
        if device_id in self._unindexed:
            self._unindexed.discard(device_id)
            self._unindexed_version += 1
            return
        if self._mobile.pop(device_id, None) is not None:
            self._mobile_version += 1
        self._index.remove(device_id)
        # _max_mobile_speed stays a (possibly loose) upper bound on
        # purpose: queries only ever widen, so candidate supersets remain
        # supersets and discovery correctness is unaffected.

    def endpoint(self, device_id: str) -> D2DEndpoint:
        try:
            return self._endpoints[device_id]
        except KeyError:
            raise KeyError(f"no endpoint registered for {device_id!r}") from None

    def _channel_position(self, device_id: str, t: float) -> Optional[Position]:
        """Current position of a device for the channel's SINR refresh
        (``None`` for ids the medium no longer knows, e.g. after tests
        drop endpoints — the lease then keeps its last-known position)."""
        endpoint = self._endpoints.get(device_id)
        return None if endpoint is None else endpoint.position(t)

    def power_off(self, device_id: str) -> None:
        """Device died: drop its endpoint state and break its connections."""
        endpoint = self.endpoint(device_id)
        endpoint.powered_on = False
        endpoint.advertising = False
        for connection in list(self._adjacency.get(device_id, ())):
            self._break_connection(connection, "peer powered off")

    def power_on(self, device_id: str) -> None:
        """Device came back: restore radio power (advertising stays off)."""
        self.endpoint(device_id).powered_on = True

    def connections_of(self, device_id: str) -> List[D2DConnection]:
        self.endpoint(device_id)  # keep the unknown-device KeyError contract
        return list(self._adjacency.get(device_id, ()))

    def live_connections(self) -> List[D2DConnection]:
        """Snapshot of every currently established connection."""
        return list(self._connections)

    @property
    def link_gate(self) -> Optional[Callable[[str, str], bool]]:
        """Optional veto on pairwise reachability (chaos link flap).

        Called as ``link_gate(a_id, b_id)``; returning ``False`` makes the
        pair mutually unreachable — discovery hides them, connects fail,
        live links break at the next send or link check. A gate can flip
        at any time, so while one is installed every link is checked at
        each instant of its grid; setting or clearing it re-arms every
        live link at its next grid instant at or after now.
        """
        return self._link_gate

    @link_gate.setter
    def link_gate(self, gate: Optional[Callable[[str, str], bool]]) -> None:
        self._link_gate = gate
        now = self.sim.now
        period = self.link_check_period_s
        for connection in self._connections:
            due = connection._grid_s + period
            while due < now:
                due += period
            pending = connection._check
            if pending is not None:
                if pending.time == due:
                    continue
                pending.cancel()
            connection._check = self.sim.schedule_at(
                due, self._check_link, connection, name="d2d_link_check"
            )

    def link_allowed(self, a_id: str, b_id: str) -> bool:
        """Whether the gate (if any) permits the ``a``–``b`` pair."""
        gate = self._link_gate
        return gate is None or gate(a_id, b_id)

    # ------------------------------------------------------------------
    # discovery
    # ------------------------------------------------------------------
    def discover(
        self,
        requester_id: str,
        on_complete: Callable[[List[PeerInfo]], None],
        rssi_noise: bool = True,
    ) -> None:
        """Scan for advertising peers in range.

        Completes after the technology's discovery latency. Only the
        requester pays a discovery charge (its active scan); answering a
        probe is a single frame and is booked as free. The responder's
        discovery-phase cost — its own find-phase participation — is paid
        when a connection is actually formed (see :meth:`connect`), which
        is exactly how the paper's 1:1 Table III measurement decomposes.

        Each peer's RSSI is its mean path-loss RSSI plus log-normal
        shadowing keyed by (experiment seed, unordered pair, 1 s slot):
        a link reads one shadowing value per slot, the same from both
        ends, whatever else is registered or scanned. ``rssi_noise=False``
        returns the mean RSSI. Results sort by RSSI descending, then
        device id.
        """
        requester = self.endpoint(requester_id)
        if not requester.powered_on:
            raise D2DTransferError(f"{requester_id} is powered off")
        now = self.sim.now
        self.discoveries += 1
        tech = self.technology
        requester_key = self._keys[requester_id]
        requester.charge(
            EnergyPhase.D2D_DISCOVERY,
            self.profile.ue_discovery_uah * tech.discovery_scale,
            now,
            duration_s=tech.discovery_latency_s,
        )

        def finish() -> None:
            t_section = time.perf_counter()
            t = self.sim.now
            origin = self._static_pos.get(requester_id)
            if origin is None:
                origin = requester.position(t)
            perf = self.perf
            perf.scans += 1
            scan = self._scan_all if self._index is None else self._scan_block
            survivors = scan(requester_id, origin, t)
            gate = self._link_gate
            if gate is not None:
                survivors = [s for s in survivors if gate(requester_id, s[0])]
            estimate_distance = tech.link.estimate_distance
            sigma = tech.link.shadowing_sigma_db if rssi_noise else 0.0
            keys = self._keys
            normal = keyed_normal
            salt = (
                self.shadowing_salt
                ^ ((math.floor(t) * _SLOT_MIX) & _MASK64)
                ^ requester_key
            )
            found = [
                PeerInfo(device_id, rssi, estimate_distance(rssi), view)
                for device_id, view, mean_rssi in survivors
                for rssi in (
                    mean_rssi + sigma * normal(salt ^ keys[device_id])
                    if sigma
                    else mean_rssi,
                )
            ]
            found.sort(key=_ID_KEY)
            found.sort(key=_RSSI_KEY, reverse=True)
            perf.scan_peers_returned += len(found)
            # section ends before the callback: downstream reactions
            # (matching, connects) are not discovery work
            perf.add_seconds("discover", time.perf_counter() - t_section)
            on_complete(found)

        self.sim.schedule(tech.discovery_latency_s, finish, name="d2d_discover")

    def _scan_block(
        self, requester_id: str, origin: Position, t: float
    ) -> List[_Survivor]:
        """Advertising peers in range of ``origin``, as
        ``(device_id, advertisement_view, mean_rssi)``.

        One numpy pass over the memoised candidate block computes every
        distance and discards the out-of-range majority in C. Survivor
        order is whatever the block's is: shadowing is keyed per link
        and ``discover`` sorts the results, so order never reaches the
        output.
        """
        perf = self.perf
        block = self._block_for(origin, t)
        ids = block.ids
        # the block always holds the requester itself, which is no candidate
        perf.scan_candidates_examined += len(ids) - 1
        distances = block.distances_from(origin, t)
        keep = np.nonzero(distances <= self.technology.max_range_m)[0]
        # .tolist() converts to exact python floats: no numpy scalar
        # ever leaks into a PeerInfo.
        probed = self.technology.link.probe_block(distances[keep].tolist())
        endpoints = self._endpoints
        static_flags = block.static_flags
        survivors: List[_Survivor] = []
        append = survivors.append
        static_hits = 0
        for idx, mean_rssi in zip(keep.tolist(), probed):
            device_id = ids[idx]
            if device_id == requester_id:
                continue
            peer = endpoints[device_id]
            if not (peer.advertising and peer.powered_on):
                continue
            if static_flags[idx]:
                static_hits += 1
            if mean_rssi is not None:
                append((device_id, peer.advertisement_view, mean_rssi))
        perf.static_position_hits += static_hits
        return survivors

    def _scan_all(
        self, requester_id: str, origin: Position, t: float
    ) -> List[_Survivor]:
        """Brute-force oracle for :meth:`_scan_block`: walk every endpoint
        with scalar :func:`distance_between`. It shares no index, memo or
        numpy code with the block scan, which is what makes it the
        independent reference the determinism guard compares against;
        both paths share :meth:`LinkModel.probe_block` for the link math."""
        perf = self.perf
        perf.brute_force_scans += 1
        perf.scan_candidates_examined += len(self._endpoints) - 1
        max_range = self.technology.max_range_m
        peers = []
        distances = []
        for device_id, peer in self._endpoints.items():
            if device_id == requester_id:
                continue
            if not (peer.advertising and peer.powered_on):
                continue
            distance = distance_between(origin, peer.position(t))
            if distance <= max_range:
                peers.append(peer)
                distances.append(distance)
        probed = self.technology.link.probe_block(distances)
        return [
            (peer.device_id, peer.advertisement_view, mean_rssi)
            for peer, mean_rssi in zip(peers, probed)
            if mean_rssi is not None
        ]

    def _block_for(self, origin: Position, t: float) -> _VectorBlock:
        """The memoised candidate block for scans from ``origin``'s cell.

        The union of the index's ``(cell, k)`` block (range + drift
        slack) and the always-checked unindexable set — a superset of
        every in-range peer, usually a tiny
        fraction of the crowd. Memoised per ``(cell, k)``; the whole memo
        is cleared when the (global) stamp moves, which bounds it by the
        number of distinct blocks scanned since the last membership/bin
        change.
        """
        index = self._index
        self._refresh_index(t)
        slack = self._max_mobile_speed * (t - self._last_refresh_s)
        max_range = self.technology.max_range_m
        cell = index._cell_of(origin)
        k = max(0, math.ceil((max_range + slack) / index.cell_size_m))
        stamp = (index._version, self._unindexed_version)
        blocks = self._blocks
        if stamp != self._blocks_stamp:
            blocks.clear()
            self._blocks_stamp = stamp
        key = (cell, k)
        block = blocks.get(key)
        if block is not None:
            return block
        ids = index.query_block(origin, max_range, slack)
        # unindexed endpoints are never in the index: the union is disjoint
        ids.extend(self._unindexed)
        block = blocks[key] = _VectorBlock(ids, self._endpoints, self._static_pos)
        perf = self.perf
        perf.index_queries += 1
        perf.vector_block_builds += 1
        return block

    def _refresh_index(self, t: float) -> None:
        """Re-bin moving endpoints once their drift bound grows stale.

        Positions come from a :class:`TrajectoryBatch` so blocks of
        straight-line movers are evaluated in one numpy multiply-add
        instead of N ``position()`` calls. Update order (affine block
        first, then the exact remainder) differs from dict order, but the
        index only bins candidates, so discovery output is unaffected.
        """
        if not self._mobile or t - self._last_refresh_s < self.index_refresh_s:
            return
        index = self._index
        assert index is not None
        batch = self._mobile_batch
        if batch is None or self._mobile_batch_version != self._mobile_version:
            batch = TrajectoryBatch(
                [(d, ep.mobility) for d, ep in self._mobile.items()]
            )
            self._mobile_batch = batch
            self._mobile_batch_version = self._mobile_version
        update = index.update
        for device_id, x, y in batch.positions_at(t):
            update(device_id, (x, y))
        self._last_refresh_s = t
        perf = self.perf
        perf.index_rebuild_passes += 1
        perf.index_updates = index.updates
        perf.index_moves = index.moves

    # ------------------------------------------------------------------
    # connection establishment
    # ------------------------------------------------------------------
    def connect(
        self,
        initiator_id: str,
        responder_id: str,
        on_complete: Callable[[Optional[D2DConnection]], None],
    ) -> None:
        """Establish a connection; ``on_complete(None)`` on failure.

        The responder pays its deferred discovery-phase charge here (its
        find-phase participation in the GO negotiation) plus connection;
        the initiator already paid discovery at scan time.
        """
        if initiator_id == responder_id:
            raise D2DTransferError(f"{initiator_id} cannot connect to itself")
        initiator = self.endpoint(initiator_id)
        responder = self.endpoint(responder_id)
        if not initiator.powered_on:
            raise D2DTransferError(f"{initiator_id} is powered off")
        now = self.sim.now
        tech = self.technology
        # joining an existing group skips the second GO negotiation
        is_join = self.group_aware and bool(self._adjacency.get(responder_id))
        join_scale = self.group_join_discount if is_join else 1.0
        if is_join:
            self.group_joins += 1
        connect_latency = tech.connection_latency_s * join_scale
        initiator.charge(
            EnergyPhase.D2D_CONNECTION,
            self.profile.ue_connection_uah * tech.connection_scale * join_scale,
            now,
            duration_s=connect_latency,
        )
        responder.charge(
            EnergyPhase.D2D_DISCOVERY,
            self.profile.relay_discovery_uah * tech.discovery_scale * join_scale,
            now,
            duration_s=tech.discovery_latency_s * join_scale,
        )
        responder.charge(
            EnergyPhase.D2D_CONNECTION,
            self.profile.relay_connection_uah * tech.connection_scale * join_scale,
            now,
            duration_s=connect_latency,
        )

        def finish() -> None:
            t = self.sim.now
            distance = distance_between(initiator.position(t), responder.position(t))
            if (
                not responder.powered_on
                or not initiator.powered_on
                or distance > tech.max_range_m
                or not tech.link.in_range(distance)
                or not self.link_allowed(initiator_id, responder_id)
            ):
                self.connections_failed += 1
                on_complete(None)
                return
            connection = D2DConnection(self, initiator, responder, t)
            self._connections[connection] = None
            self._adjacency.setdefault(initiator_id, {})[connection] = None
            self._adjacency.setdefault(responder_id, {})[connection] = None
            self.connections_established += 1
            self._arm_check(connection, distance)
            on_complete(connection)

        self.sim.schedule(connect_latency, finish, name="d2d_connect")

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _arm_check(self, connection: D2DConnection, distance: float) -> None:
        """Schedule ``connection``'s next range check on its period grid.

        The grid is the establishment time advanced by repeated
        ``+= link_check_period_s``. With ``distance`` measured at the last
        grid instant, the link cannot leave the safe range before the
        endpoints' summed speed bounds could cover the gap, so the check
        lands on the first grid instant at or after that moment (at most
        ``_MAX_CHECK_STEPS`` steps ahead); the instants skipped would all
        have found the link in range. A pair that cannot move arms
        nothing. Unknown speed bounds, or an installed gate, check every
        grid instant.
        """
        period = self.link_check_period_s
        due = connection._grid_s + period
        drift = connection._drift_m_s
        if drift is not None and self._link_gate is None:
            if drift == 0.0:
                return
            reach_s = connection._grid_s + (self._safe_range_m - distance) / drift
            for _ in range(_MAX_CHECK_STEPS - 1):
                if due >= reach_s:
                    break
                due += period
        connection._check = self.sim.schedule_at(
            due, self._check_link, connection, name="d2d_link_check"
        )

    def _check_link(self, connection: D2DConnection) -> None:
        connection._check = None
        if not connection.alive:
            return
        connection._grid_s = self.sim.now
        if not self.link_allowed(
            connection.initiator.device_id, connection.responder.device_id
        ):
            self._break_connection(connection, "link down")
            return
        distance = connection.current_distance_m()
        if distance > self.technology.max_range_m or not self.technology.link.in_range(
            distance
        ):
            self._break_connection(connection, "out of range")
            return
        self._arm_check(connection, distance)

    def _break_connection(self, connection: D2DConnection, reason: str) -> None:
        if not connection.alive:
            return
        connection.alive = False
        if connection._check is not None:
            connection._check.cancel()
            connection._check = None
        self._connections.pop(connection, None)
        for device_id in (connection.initiator.device_id, connection.responder.device_id):
            adjacency = self._adjacency.get(device_id)
            if adjacency is not None:
                adjacency.pop(connection, None)
                if not adjacency:
                    del self._adjacency[device_id]
        self.connections_broken += 1
        for endpoint in (connection.initiator, connection.responder):
            if endpoint.on_disconnect is not None:
                endpoint.on_disconnect(connection, reason)
