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
