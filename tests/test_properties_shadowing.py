"""Property tests for keyed discovery shadowing.

A scan's RSSI is its mean path-loss RSSI plus shadowing keyed by
(experiment seed, unordered pair, 1 s slot). Each property below pins
one consequence of that keying: nothing about *how* a scan happens —
registration order, bystanders, which simulator's streams it runs on,
which end scans — may change what it reads.
"""

import statistics

from hypothesis import given, settings, strategies as st

from repro.d2d.base import D2DEndpoint, D2DMedium, shadowing_salt
from repro.d2d.wifi_direct import WIFI_DIRECT
from repro.mobility.models import StaticMobility
from repro.sim.engine import Simulator
from repro.sim.rng import child_seed, keyed_normal

SETTINGS = settings(max_examples=40, deadline=None)

seeds = st.integers(min_value=0, max_value=2**32)
#: peer positions within 45 m of the requester at the origin, so most
#: peers are in Wi-Fi Direct range
offsets = st.lists(
    st.tuples(
        st.floats(min_value=-45.0, max_value=45.0),
        st.floats(min_value=-45.0, max_value=45.0),
    ),
    min_size=1,
    max_size=8,
)
scan_times = st.floats(min_value=0.0, max_value=500.0)


def _endpoint(device_id, position):
    endpoint = D2DEndpoint(device_id, StaticMobility(position))
    endpoint.advertising = True
    return endpoint


def _scan(sim, medium, requester_id, at):
    """``(peer, rssi)`` pairs of one scan by ``requester_id`` at ``at``."""
    found = []
    sim.schedule_at(at, medium.discover, requester_id, found.extend)
    sim.run_until(at + 5.0)
    return [(peer.device_id, peer.rssi_dbm) for peer in found]


def _crowd(positions, seed, order=None, extra=()):
    sim = Simulator(seed=seed)
    medium = D2DMedium(sim, WIFI_DIRECT)
    endpoints = [_endpoint("ue", (0.0, 0.0))] + [
        _endpoint(f"p{i}", position) for i, position in enumerate(positions)
    ]
    for i in order if order is not None else range(len(endpoints)):
        medium.register(endpoints[i])
    for endpoint in extra:
        medium.register(endpoint)
    return sim, medium


class TestKeyedShadowing:
    @given(offsets, seeds, scan_times, st.randoms(use_true_random=False))
    @SETTINGS
    def test_scan_unchanged_by_registration_order(self, positions, seed, at, rnd):
        order = list(range(len(positions) + 1))
        rnd.shuffle(order)
        reference = _scan(*_crowd(positions, seed), "ue", at)
        shuffled = _scan(*_crowd(positions, seed, order=order), "ue", at)
        assert shuffled == reference

    @given(offsets, seeds, scan_times, st.integers(min_value=1, max_value=6))
    @SETTINGS
    def test_scan_unchanged_by_unrelated_endpoints(self, positions, seed, at, n):
        # bystanders far out of range, some scanning themselves
        extra = [_endpoint(f"far{i}", (500.0 + 20.0 * i, 0.0)) for i in range(n)]
        sim, medium = _crowd(positions, seed, extra=extra)
        for endpoint in extra:
            sim.schedule_at(at, medium.discover, endpoint.device_id, list)
        crowded = _scan(sim, medium, "ue", at)
        assert crowded == _scan(*_crowd(positions, seed), "ue", at)

    @given(offsets, seeds, scan_times)
    @SETTINGS
    def test_scan_keyed_on_experiment_seed_not_stream_seed(self, positions, seed, at):
        sim, medium = _crowd(positions, child_seed(seed, "shard:0"))
        medium.shadowing_salt = shadowing_salt(seed)
        assert _scan(sim, medium, "ue", at) == _scan(*_crowd(positions, seed), "ue", at)

    @given(
        st.tuples(
            st.floats(min_value=-45.0, max_value=45.0),
            st.floats(min_value=-45.0, max_value=45.0),
        ),
        seeds,
        scan_times,
    )
    @SETTINGS
    def test_both_ends_of_a_link_read_the_same_offset(self, position, seed, at):
        sim, medium = _crowd([position], seed)
        medium.endpoint("ue").advertising = True
        forward, backward = [], []
        sim.schedule_at(at, medium.discover, "ue", forward.extend)
        sim.schedule_at(at, medium.discover, "p0", backward.extend)
        sim.run_until(at + 5.0)
        assert [p.rssi_dbm for p in forward] == [p.rssi_dbm for p in backward]


class TestKeyedNormal:
    @given(st.integers(min_value=0, max_value=2**64 - 1))
    @settings(max_examples=5, deadline=None)
    def test_keyed_normal_is_standard_over_many_keys(self, salt):
        draws = [keyed_normal(salt ^ i) for i in range(100_000)]
        assert abs(statistics.fmean(draws)) < 0.02
        assert abs(statistics.pstdev(draws) - 1.0) < 0.02
