"""Determinism guard: results are equal across paths, backends and
partitions.

The spatial index is an acceleration structure only — for any seed it must
produce the same peers, the same (keyed) RSSI, and the same result
ordering as the O(N) brute-force scan. These tests pin that contract at
two levels: raw `D2DMedium.discover` output and full crowd-scenario
`RunMetrics`; the sharded kernel's backends, replays and delivery are
pinned on two tile geometries.
"""

from repro.d2d.base import D2DEndpoint, D2DMedium
from repro.d2d.wifi_direct import WIFI_DIRECT
from repro.energy.model import EnergyModel
from repro.mobility.models import LinearMobility, StaticMobility
from repro.mobility.space import Arena
from repro.scenarios import run_crowd_scenario
from repro.shard import run_crowd_scenario_sharded
from repro.sim.engine import Simulator

SEEDS = (0, 1, 2)


def _crowd_position(i):
    return (float((i * 37) % 240), float((i * 59) % 240))


def _sparse_position(i):
    """Ten 3-device clusters 200 m apart, so every candidate block holds
    only a handful of devices."""
    cluster, member = divmod(i, 3)
    return (
        200.0 * (cluster % 5) + 15.0 * member,
        200.0 * (cluster // 5) + 10.0 * member,
    )


def _scanner(medium, observations):
    """``scan(requester_id, tag)``: one discovery whose results append
    ``(tag, peer, rssi, distance)`` to ``observations`` in order."""

    def scan(requester_id, tag):
        def record(peers):
            for peer in peers:
                observations.append(
                    (tag, peer.device_id, peer.rssi_dbm, peer.estimated_distance_m)
                )

        medium.discover(requester_id, record)

    return scan


def _run_discovery_rounds(seed, brute_force, tweak=None, place=_crowd_position):
    """Scatter endpoints (static + mobile), run repeated interleaved scans,
    and return every (scan, peer, rssi, distance) observation in order."""
    sim = Simulator(seed=seed)
    medium = D2DMedium(sim, WIFI_DIRECT, brute_force=brute_force)
    for i in range(30):
        pos = place(i)
        if i % 5 == 0:
            mobility = LinearMobility(pos, (2.0, -1.5))
        else:
            mobility = StaticMobility(pos)
        endpoint = D2DEndpoint(
            f"d{i}",
            mobility,
            energy=EnergyModel(owner=f"d{i}"),
            advertisement={"n": i},
        )
        endpoint.advertising = i % 2 == 0
        medium.register(endpoint)
    if tweak is not None:
        tweak(medium)

    observations = []
    scan = _scanner(medium, observations)

    for round_no in range(6):
        start = round_no * 10.0
        sim.schedule_at(start, scan, f"d{round_no * 3 % 30}", f"r{round_no}-a")
        sim.schedule_at(start + 2.5, scan, f"d{(round_no * 7 + 1) % 30}", f"r{round_no}-b")
    sim.run_until(70.0)
    return observations, sim.events_fired


def _run_storm_rounds(seed, brute_force):
    """Every device of a 30%-mobile crowd scans at the same instants, so
    requesters in one cell share a block and one read of its movers per
    instant. Bursts three instants 0.4 s apart inside one 1 s rebin
    window, so a block built at one instant serves the next before any
    rebin. Returns the observations, events fired and perf counters."""
    sim = Simulator(seed=seed)
    medium = D2DMedium(sim, WIFI_DIRECT, brute_force=brute_force)
    n = 40
    for i in range(n):
        pos = _crowd_position(i)
        if i % 10 < 3:
            mobility = LinearMobility(pos, (2.0 - 0.5 * (i % 4), 1.5 - (i % 3)))
        else:
            mobility = StaticMobility(pos)
        endpoint = D2DEndpoint(f"d{i}", mobility, advertisement={"n": i})
        endpoint.advertising = True
        medium.register(endpoint)

    observations = []
    scan = _scanner(medium, observations)

    for start in (0.0, 0.4, 0.8, 10.0, 10.4, 10.8, 20.0, 20.4, 20.8):
        for i in range(n):
            sim.schedule_at(start, scan, f"d{i}", f"{start}-d{i}")
    sim.run_until(30.0)
    return observations, sim.events_fired, medium.perf


class TestDiscoveryIdentity:
    def test_indexed_scan_matches_brute_force_exactly(self):
        for seed in SEEDS:
            indexed, indexed_events = _run_discovery_rounds(seed, brute_force=False)
            brute, brute_events = _run_discovery_rounds(seed, brute_force=True)
            # Same peers, same RSSI draws, same ordering — not just same sets.
            assert indexed == brute, f"discovery diverged for seed {seed}"
            assert indexed_events == brute_events
            assert indexed, f"seed {seed} produced no observations (vacuous)"

            # a same-instant storm: block sharing and per-instant refresh
            indexed, indexed_events, perf = _run_storm_rounds(seed, False)
            brute, brute_events, _ = _run_storm_rounds(seed, True)
            assert indexed == brute, f"storm discovery diverged for seed {seed}"
            assert indexed_events == brute_events
            assert indexed, f"seed {seed} storm found no peers (vacuous)"
            assert perf.vector_block_builds < perf.scans, "no block was shared"


class TestCrowdMetricsIdentity:
    def test_crowd_metrics_identical_across_seeds(self):
        for seed in SEEDS:
            kwargs = dict(
                n_devices=40,
                relay_fraction=0.25,
                duration_s=120.0,
                hotspots=4,
                mobile_fraction=0.3,
                seed=seed,
            )
            indexed = run_crowd_scenario(brute_force=False, **kwargs)
            brute = run_crowd_scenario(brute_force=True, **kwargs)
            assert (
                indexed.metrics.to_comparable_dict()
                == brute.metrics.to_comparable_dict()
            ), f"crowd metrics diverged for seed {seed}"

    def test_perf_counters_reflect_the_chosen_path(self):
        """Sanity: the two paths really did take different code routes."""
        indexed = run_crowd_scenario(
            n_devices=20, duration_s=60.0, seed=0, brute_force=False
        )
        brute = run_crowd_scenario(
            n_devices=20, duration_s=60.0, seed=0, brute_force=True
        )
        assert indexed.metrics.perf["index_queries"] > 0
        assert indexed.metrics.perf["brute_force_scans"] == 0
        assert brute.metrics.perf["brute_force_scans"] > 0
        assert brute.metrics.perf["index_queries"] == 0


class TestScanFastPathIdentity:
    """The discovery fast paths are accelerations, never behaviour.

    With static-position memoisation off, every scan must produce the
    identical observation stream — same peers, same RSSI draws, same
    ordering.
    """

    @staticmethod
    def _no_memo(medium):
        medium._static_pos.clear()

    def test_static_position_memo_is_pure_acceleration(self):
        for seed in SEEDS:
            fast, fast_events = _run_discovery_rounds(seed, brute_force=False)
            slow, slow_events = _run_discovery_rounds(
                seed, brute_force=False, tweak=self._no_memo
            )
            assert fast == slow, f"memoised scan diverged for seed {seed}"
            assert fast_events == slow_events
            assert fast, f"seed {seed} produced no observations (vacuous)"

    def test_fast_paths_actually_fire_in_static_crowds(self):
        result = run_crowd_scenario(
            n_devices=30, duration_s=120.0, seed=0, mobile_fraction=0.0
        )
        assert result.metrics.perf["static_position_hits"] > 0

    def test_repeat_scans_reuse_the_block_memo(self):
        sim = Simulator(seed=0)
        medium = D2DMedium(sim, WIFI_DIRECT)
        for i in range(12):
            endpoint = D2DEndpoint(
                f"s{i}",
                StaticMobility((float(i * 13 % 60), float(i * 7 % 60))),
                energy=EnergyModel(owner=f"s{i}"),
            )
            endpoint.advertising = True
            medium.register(endpoint)
        for start in (0.0, 10.0, 20.0):
            sim.schedule_at(start, medium.discover, "s0", lambda peers: None)
        sim.run_until(30.0)
        # First scan builds the block; the static crowd never
        # invalidates it, so the two repeats must be served from it.
        assert medium.perf.scans == 3
        assert medium.perf.vector_block_builds == 1

    def test_memo_stays_off_for_mobile_endpoints(self):
        sim = Simulator(seed=0)
        medium = D2DMedium(sim, WIFI_DIRECT)
        medium.register(
            D2DEndpoint(
                "mover",
                LinearMobility((0.0, 0.0), (1.0, 0.0)),
                energy=EnergyModel(owner="mover"),
            )
        )
        medium.register(
            D2DEndpoint(
                "rock",
                StaticMobility((5.0, 0.0)),
                energy=EnergyModel(owner="rock"),
            )
        )
        assert "rock" in medium._static_pos
        assert "mover" not in medium._static_pos


class TestVectorizedScanIdentity:
    """The numpy block scan must match the scalar brute-force oracle.

    Blocks of every size take the numpy path, so both a crowd (big
    blocks) and a sparse rig (blocks of a handful of candidates) are
    checked — same survivors, same RSSI draws in the same registration
    order.
    """

    def test_vectorized_matches_brute_force(self):
        for seed in SEEDS:
            kwargs = dict(
                n_devices=120, relay_fraction=0.2, duration_s=240.0,
                hotspots=4, mobile_fraction=0.2, seed=seed,
            )
            vectorized = run_crowd_scenario(brute_force=False, **kwargs)
            brute = run_crowd_scenario(brute_force=True, **kwargs)
            assert (
                vectorized.metrics.to_comparable_dict()
                == brute.metrics.to_comparable_dict()
            ), f"vectorized scan diverged for seed {seed}"

    def test_small_blocks_match_brute_force(self):
        for seed in SEEDS:
            media = []
            indexed, indexed_events = _run_discovery_rounds(
                seed, brute_force=False, tweak=media.append, place=_sparse_position
            )
            brute, brute_events = _run_discovery_rounds(
                seed, brute_force=True, place=_sparse_position
            )
            assert indexed == brute, f"small-block scan diverged for seed {seed}"
            assert indexed_events == brute_events
            assert indexed, f"seed {seed} produced no observations (vacuous)"
            blocks = media[0]._blocks.values()
            assert blocks and all(len(block.ids) < 24 for block in blocks)


SHARD_CROWD = dict(
    n_devices=60, relay_fraction=0.25, duration_s=120.0,
    arena=Arena(400.0, 120.0), hotspots=6, mobile_fraction=0.3, seed=3,
)
SHARD_STORM = dict(storm_scan_period_s=10.0, sync_window_s=5.0)


def _assert_backends_identical(geometry):
    kwargs = dict(SHARD_CROWD, **SHARD_STORM, **geometry)
    serial = run_crowd_scenario_sharded(backend="serial", **kwargs)
    process = run_crowd_scenario_sharded(backend="process", **kwargs)
    assert (
        serial.metrics.to_comparable_dict()
        == process.metrics.to_comparable_dict()
    ), f"serial and process shard backends diverged on {geometry}"
    assert serial.handovers == process.handovers
    assert serial.ghost_registrations == process.ghost_registrations
    assert serial.devices_per_shard == process.devices_per_shard
    # the run must actually exercise the cross-shard machinery
    assert serial.handovers > 0, f"no handover on {geometry}"
    assert serial.ghost_registrations > 0, "no border ghost exchanged"
    assert all(n > 0 for n in serial.devices_per_shard)


def _assert_replay_identical(geometry):
    kwargs = dict(SHARD_CROWD, **SHARD_STORM, **geometry)
    first = run_crowd_scenario_sharded(backend="serial", **kwargs)
    second = run_crowd_scenario_sharded(backend="serial", **kwargs)
    assert (
        first.metrics.to_comparable_dict()
        == second.metrics.to_comparable_dict()
    ), f"sharded replay diverged on {geometry}"


def _assert_delivery_matches_unsharded(geometry):
    # Same crowd, sharded vs single-kernel: the device population is
    # identical and no beat is lost to the partition — received and
    # on-time counts match exactly (energy/RNG details legitimately
    # differ; that's the documented equivalence class).
    unsharded = run_crowd_scenario(**SHARD_CROWD)
    sharded = run_crowd_scenario_sharded(**SHARD_CROWD, **geometry)
    assert set(sharded.metrics.devices) == set(unsharded.metrics.devices)
    assert (
        sharded.metrics.delivery.received
        == unsharded.metrics.delivery.received
    ), f"received diverged on {geometry}"
    assert (
        sharded.metrics.delivery.on_time
        == unsharded.metrics.delivery.on_time
    ), f"on-time diverged on {geometry}"


class TestShardedKernelIdentity:
    """The cell-sharded kernel's determinism contract.

    Sharded runs are a documented equivalence class of their own (per-
    shard RNG streams, frozen border ghosts), so the guard pins what the
    design promises: the serial and process backends are byte-identical,
    replay is byte-identical, and delivery is complete — every beat the
    unsharded kernel delivers, the sharded kernel delivers too, even
    with movers crossing shard borders. Geometry: two shards on the
    default 4x2 cell grid.
    """

    GEOMETRY = dict(shards=2)

    def test_serial_and_process_backends_identical(self):
        _assert_backends_identical(self.GEOMETRY)

    def test_sharded_replay_is_byte_identical(self):
        _assert_replay_identical(self.GEOMETRY)

    def test_sharded_delivery_matches_unsharded(self):
        _assert_delivery_matches_unsharded(self.GEOMETRY)


class TestTilePlanIdentity:
    """The same contract on a geometry that needs two-axis cuts.

    Three shards on a 2x2 cell grid (shards > cells_x), so the
    weighted-bisection planner must cut along both axes and every worker
    must re-derive the same weighted partition from the master seed
    before any of the byte-level identities can hold.
    """

    GEOMETRY = dict(shards=3, cells_x=2, cells_y=2)

    def test_tile_serial_and_process_backends_identical(self):
        _assert_backends_identical(self.GEOMETRY)

    def test_tile_replay_is_byte_identical(self):
        _assert_replay_identical(self.GEOMETRY)

    def test_tile_delivery_matches_unsharded(self):
        _assert_delivery_matches_unsharded(self.GEOMETRY)


class TestChannelModeIdentity:
    """Channel-mode runs obey the same replay and index contracts."""

    def test_channel_run_replays_byte_identically(self):
        for seed in SEEDS:
            kwargs = dict(
                n_devices=25, duration_s=120.0, hotspots=4,
                mobile_fraction=0.2, seed=seed, channel="sinr",
            )
            first = run_crowd_scenario(**kwargs)
            second = run_crowd_scenario(**kwargs)
            assert (
                first.metrics.to_comparable_dict()
                == second.metrics.to_comparable_dict()
            ), f"channel replay diverged for seed {seed}"
            assert first.metrics.channel["transfers"] > 0

    def test_channel_indexed_scan_matches_brute_force(self):
        for seed in SEEDS:
            kwargs = dict(
                n_devices=25, duration_s=120.0, hotspots=4,
                mobile_fraction=0.2, seed=seed, channel="sinr",
            )
            indexed = run_crowd_scenario(brute_force=False, **kwargs)
            brute = run_crowd_scenario(brute_force=True, **kwargs)
            assert (
                indexed.metrics.to_comparable_dict()
                == brute.metrics.to_comparable_dict()
            ), f"channel crowd metrics diverged for seed {seed}"


class TestChannelAwareSelectionIdentity:
    """Channel-aware selection policies keep every replay contract: the
    pure `estimate_link` queries consume no RNG, so a `rate`/`hybrid` run
    replays byte-identically, survives the indexed-vs-brute-force swap,
    and the distance policy stays byte-identical to a run that never
    computed an estimate at all."""

    KWARGS = dict(
        n_devices=25, duration_s=120.0, hotspots=4,
        mobile_fraction=0.2, channel="sinr",
    )

    def test_rate_policy_replays_byte_identically(self):
        for seed in SEEDS:
            kwargs = dict(self.KWARGS, seed=seed, selection_policy="rate")
            first = run_crowd_scenario(**kwargs)
            second = run_crowd_scenario(**kwargs)
            assert (
                first.metrics.to_comparable_dict()
                == second.metrics.to_comparable_dict()
            ), f"rate-policy replay diverged for seed {seed}"
            assert first.metrics.channel["transfers"] > 0

    def test_hybrid_policy_indexed_scan_matches_brute_force(self):
        for seed in SEEDS:
            kwargs = dict(self.KWARGS, seed=seed, selection_policy="hybrid")
            indexed = run_crowd_scenario(brute_force=False, **kwargs)
            brute = run_crowd_scenario(brute_force=True, **kwargs)
            assert (
                indexed.metrics.to_comparable_dict()
                == brute.metrics.to_comparable_dict()
            ), f"hybrid-policy metrics diverged for seed {seed}"

    def test_explicit_distance_policy_is_the_default(self):
        # selection_policy="distance" must be a pure spelling of the
        # default — same RNG draws, same metrics, byte for byte.
        kwargs = dict(self.KWARGS, seed=0)
        implicit = run_crowd_scenario(**kwargs)
        explicit = run_crowd_scenario(selection_policy="distance", **kwargs)
        assert (
            implicit.metrics.to_comparable_dict()
            == explicit.metrics.to_comparable_dict()
        )
