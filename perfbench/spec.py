"""Metric names, units and directions — the single source ``run.py`` prints
and the tests hold ``BENCHMARK.json`` to.
"""

from __future__ import annotations

from typing import Dict, Tuple

#: name -> (unit, better). What a researcher running the simulator pays for
#: (time, CPU, memory) and what the paper reports (signaling and energy per
#: heartbeat, deadline keeping). Times are reference seconds (``speed.py``).
END_TO_END: Dict[str, Tuple[str, str]] = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "device_s_per_s": ("device-s/s", "higher"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "l3_per_beat": ("msgs", "lower"),
    "uah_per_beat": ("uAh", "lower"),
    "on_time_share": ("ratio", "higher"),
}

#: name -> (unit, better), from the traced run, in host seconds. Layers are
#: repo modules.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    # d2d scans + mobility reads (storm)
    "d2d.scans": ("count", "lower"),
    "d2d.scan_s": ("s", "lower"),
    "d2d.scan_us_per_candidate": ("us", "lower"),
    "d2d.peers_per_scan": ("count", "higher"),
    "d2d.scan_yield": ("ratio", "higher"),
    "mobility.index_queries": ("count", "lower"),
    "mobility.block_cache_hit_ratio": ("ratio", "higher"),
    # sim (relay)
    "sim.events": ("count", "lower"),
    "sim.events_per_s": ("1/s", "higher"),
    "sim.self_s": ("s", "lower"),
    # d2d links (relay)
    "d2d.link_checks": ("count", "lower"),
    "d2d.link_check_s": ("s", "lower"),
    "d2d.link_check_yield": ("ratio", "higher"),
    "d2d.transfer_s": ("s", "lower"),
    # core (relay)
    "core.match_s": ("s", "lower"),
    "core.scheduler_s": ("s", "lower"),
    "core.beats_per_uplink": ("ratio", "higher"),
    "core.forwarding_ratio": ("ratio", "higher"),
    # cellular (relay) and handover (sharded)
    "cellular.uplinks": ("count", "lower"),
    "cellular.uplink_s": ("s", "lower"),
    "cellular.rrc_cycles": ("count", "lower"),
    "cellular.reattach_s": ("s", "lower"),
    "cellular.handovers": ("count", "lower"),
    # energy (relay)
    "energy.charges": ("count", "lower"),
    "energy.charge_s": ("s", "lower"),
    # mobility writes (sharded)
    "mobility.index_updates": ("count", "lower"),
    "mobility.index_moves": ("count", "lower"),
    # shard (sharded only; 0 elsewhere)
    "shard.build_s": ("s", "lower"),
    "shard.windows": ("count", "lower"),
    "shard.window_wall_s": ("s", "lower"),
    "shard.critical_path_s": ("s", "lower"),
    "shard.barrier_wait_s": ("s", "lower"),
    "shard.parallel_efficiency": ("ratio", "higher"),
    "shard.finish_s": ("s", "lower"),
    "shard.merge_s": ("s", "lower"),
    "shard.ipc_bytes_per_window": ("B", "lower"),
    "shard.ghost_registrations": ("count", "lower"),
    "shard.device_skew": ("ratio", "lower"),
    # scenarios / metrics and the closed wall budget
    "metrics.collect_s": ("s", "lower"),
    "run.wall_s": ("s", "lower"),
    "run.setup_s": ("s", "lower"),
    "run.sim_s": ("s", "lower"),
    "run.collect_s": ("s", "lower"),
    "run.unattributed_s": ("s", "lower"),
    "run.unattributed_share": ("ratio", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "run.calibration_s": ("s", "lower"),
}
