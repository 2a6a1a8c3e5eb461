"""Regression tests for the discovery block memo's two latent bugs.

``D2DMedium`` memoises one sorted candidate block per ``(cell, k)``. Two
bugs once lived in discovery caches of this shape:

1. A stamp of ``(index version, endpoint count)`` is blind to
   *unindexed-set churn*. Unregistering one unindexable device and
   registering another in the same window leaves both components
   unchanged, so scans served a stale id list (omitting the newcomer,
   and KeyError-ing on the departed id).
2. Stale-stamp entries that are never evicted let a mobile crowd
   scanning from ever-new cells grow the memo without bound over a long
   run.

A memoised block also stamps the instant its movers were last read at:
scans sharing the block at one instant read each mover once, and a
later scan of the same block re-reads them.
"""

from __future__ import annotations

import pytest

from repro.d2d.base import D2DEndpoint, D2DMedium
from repro.d2d.wifi_direct import WIFI_DIRECT
from repro.mobility.models import LinearMobility, MobilityModel, StaticMobility
from repro.sim.engine import Simulator


class UnboundedMobility(MobilityModel):
    """Fixed position but no speed bound — unindexable on purpose.

    ``max_speed_m_s`` inherits the base class ``None``, which routes the
    endpoint into the medium's always-checked unindexed side set.
    """

    def __init__(self, position):
        self._position = position

    def position(self, t):
        return self._position

    def velocity(self, t):
        return (0.0, 0.0)


def _scan(medium, sim, requester_id, horizon):
    results = []
    medium.discover(requester_id, results.append)
    sim.run_until(horizon)
    assert results, "scan never completed"
    return results[-1]


class TestSortedCandidateStamp:
    def test_swapping_unindexable_endpoints_is_visible_to_scans(self):
        """Unregister one unindexable peer, register another: the next
        scan must discover the newcomer, not serve the stale block
        (index version and endpoint count are both unchanged by the swap,
        so only the unindexed-membership stamp component catches it)."""
        sim = Simulator(seed=1)
        medium = D2DMedium(sim, WIFI_DIRECT)
        scanner = D2DEndpoint("scanner", StaticMobility((0.0, 0.0)))
        medium.register(scanner)
        first = D2DEndpoint("peer-a", UnboundedMobility((5.0, 0.0)))
        first.advertising = True
        medium.register(first)

        found = _scan(medium, sim, "scanner", 3.0)
        assert [p.device_id for p in found] == ["peer-a"]

        medium.unregister("peer-a")
        second = D2DEndpoint("peer-b", UnboundedMobility((5.0, 0.0)))
        second.advertising = True
        medium.register(second)

        found = _scan(medium, sim, "scanner", 6.0)
        assert [p.device_id for p in found] == ["peer-b"]
        # the swap forced a rebuild: one block per membership state
        assert medium.perf.vector_block_builds == 2

    def test_sorted_cache_still_hits_when_membership_is_stable(self):
        """The widened stamp must not break the block memo's happy path:
        with the unindexed membership unchanged, a repeat scan reuses the
        block instead of rebuilding it."""
        sim = Simulator(seed=1)
        medium = D2DMedium(sim, WIFI_DIRECT)
        scanner = D2DEndpoint("scanner", StaticMobility((0.0, 0.0)))
        medium.register(scanner)
        peer = D2DEndpoint("peer", UnboundedMobility((5.0, 0.0)))
        peer.advertising = True
        medium.register(peer)

        _scan(medium, sim, "scanner", 3.0)
        _scan(medium, sim, "scanner", 6.0)
        assert medium.perf.vector_block_builds == 1

    def test_unregister_breaks_connections_and_forgets_the_endpoint(self):
        sim = Simulator(seed=1)
        medium = D2DMedium(sim, WIFI_DIRECT)
        a = D2DEndpoint("a", StaticMobility((0.0, 0.0)))
        b = D2DEndpoint("b", StaticMobility((3.0, 0.0)))
        medium.register(a)
        medium.register(b)
        connections = []
        medium.connect("a", "b", connections.append)
        sim.run_until(2.0)
        assert connections and connections[0] is not None

        medium.unregister("b")
        assert not connections[0].alive
        assert medium.live_connections() == []
        with pytest.raises(KeyError):
            medium.endpoint("b")
        # the id is reusable afterwards, with a fresh sequence number
        medium.register(D2DEndpoint("b", StaticMobility((4.0, 0.0))))

    def test_unregister_indexed_mobile_endpoint_drops_it_from_the_index(self):
        sim = Simulator(seed=1)
        medium = D2DMedium(sim, WIFI_DIRECT)
        medium.register(D2DEndpoint("scanner", StaticMobility((0.0, 0.0))))
        mover = D2DEndpoint("mover", LinearMobility((5.0, 0.0), (1.0, 0.0)))
        mover.advertising = True
        medium.register(mover)
        assert "mover" in medium._index
        medium.unregister("mover")
        assert "mover" not in medium._index
        assert [p.device_id for p in _scan(medium, sim, "scanner", 3.0)] == []


class TestBlockCacheBound:
    def test_block_cache_stays_bounded_under_sustained_movement(self):
        """A mover scanning from ever-new cells must not accumulate one
        memoised block per cell it ever visited."""
        sim = Simulator(seed=1)
        medium = D2DMedium(sim, WIFI_DIRECT)
        period_s = 5.0  # longer than the discovery latency
        speed = medium._index.cell_size_m / period_s
        walker = D2DEndpoint("walker", LinearMobility((0.0, 0.0), (speed, 0.0)))
        medium.register(walker)
        for step in range(1, 201):
            # one cell per scan: every scan is rebinned into a new cell
            _scan(medium, sim, "walker", step * period_s)
            assert len(medium._blocks) <= 1
        assert medium.perf.vector_block_builds > 100

    def test_block_cache_still_serves_repeat_queries(self):
        """Eviction on a stamp move must not cost the static-crowd win:
        repeat scans from one cell reuse its block instead of rebuilding."""
        sim = Simulator(seed=1)
        medium = D2DMedium(sim, WIFI_DIRECT)
        medium.register(D2DEndpoint("scanner", StaticMobility((0.0, 0.0))))
        for i, x in enumerate((5.0, 15.0)):
            peer = D2DEndpoint(f"peer-{i}", StaticMobility((x, 0.0)))
            peer.advertising = True
            medium.register(peer)

        first = _scan(medium, sim, "scanner", 3.0)
        again = _scan(medium, sim, "scanner", 6.0)
        assert [p.device_id for p in first] == ["peer-0", "peer-1"]
        assert [p.device_id for p in again] == ["peer-0", "peer-1"]
        assert medium.perf.scans == 2
        assert medium.perf.vector_block_builds == 1


class CountingMobility(LinearMobility):
    """A straight-line mover that counts its ``position`` calls."""

    def __init__(self, start, velocity):
        super().__init__(start, velocity)
        self.calls = 0

    def position(self, t):
        self.calls += 1
        return super().position(t)


def _mover_rig(brute_force=False):
    """Two static scanners in one cell and one counting mover; rebins
    are pushed past the run so every scan reads one memoised block."""
    sim = Simulator(seed=1)
    medium = D2DMedium(
        sim, WIFI_DIRECT, brute_force=brute_force, index_refresh_s=1000.0
    )
    for device_id, x in (("scanner-a", 0.0), ("scanner-b", 1.0)):
        medium.register(D2DEndpoint(device_id, StaticMobility((x, 0.0))))
    mobility = CountingMobility((5.0, 0.0), (3.0, 0.0))
    mover = D2DEndpoint("mover", mobility)
    mover.advertising = True
    medium.register(mover)
    return sim, medium, mobility


class TestMoverRefreshPerInstant:
    def test_scanners_sharing_a_block_at_one_instant_read_a_mover_once(self):
        sim, medium, mobility = _mover_rig()
        results = []
        sim.schedule_at(0.0, medium.discover, "scanner-a", results.append)
        sim.schedule_at(0.0, medium.discover, "scanner-b", results.append)
        before = mobility.calls
        sim.run_until(3.0)
        assert [[p.device_id for p in found] for found in results] == [
            ["mover"], ["mover"],
        ]
        assert medium.perf.vector_block_builds == 1
        assert mobility.calls - before == 1

    def test_a_later_scan_of_the_same_block_sees_the_mover_move(self):
        def observe(brute_force):
            sim, medium, _ = _mover_rig(brute_force)
            scans = []
            for start in (0.0, 10.0):
                sim.schedule_at(
                    start, medium.discover, "scanner-a", scans.append, False
                )
            sim.run_until(15.0)
            return medium, [
                [(p.device_id, p.rssi_dbm, p.estimated_distance_m) for p in found]
                for found in scans
            ]

        medium, indexed = observe(brute_force=False)
        _, brute = observe(brute_force=True)
        # no rebin in between: both scans were served by the one block
        assert medium.perf.vector_block_builds == 1
        assert medium.perf.index_rebuild_passes == 0
        assert indexed == brute
        # the mover walked from 11 m (t = 2 s) to 41 m (t = 12 s)
        assert [found[0][2] for found in indexed] == [
            pytest.approx(11.0), pytest.approx(41.0),
        ]
