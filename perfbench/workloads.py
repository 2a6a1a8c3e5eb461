"""The benchmark's workloads and the measurement of one scenario call.

Every workload is a crowd the simulator's users run; each stresses other
layers (see ``README.md`` for why each was chosen). A run of the benchmark
calls its workload's scenario several times in one process, cycling over
``CROWDS`` crowds derived from ``--seed`` so that one run's median is not
hostage to one random hotspot layout; repeated crowds prove the replay
contract.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import math
import multiprocessing
import resource
import traceback
from typing import Any, Callable, Dict, List, Optional

from perfbench import stats
from perfbench.spec import PER_LAYER
from perfbench.speed import REFERENCE_S, calibrate
from perfbench.tracer import Probes, high_water_rss_kb, merge_tables

#: Distinct crowds one run cycles over.
CROWDS = 8

#: Simulated seconds after beat emission stops (the program's default).
DRAIN_S = 30.0


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_devices: int
    duration_s: float
    #: keyword arguments of the scenario call (besides ``seed``)
    params: Dict[str, Any]
    #: every device advertises and scans with this period (``None``: no storm)
    storm_scan_s: Optional[float] = None
    sharded: bool = False
    #: also run ``mode="original"`` once and require the paper's >50 %
    #: signaling reduction against it
    reference: bool = False

    @property
    def device_seconds(self) -> float:
        return self.n_devices * (self.duration_s + DRAIN_S)

    def crowd_seed(self, seed: int, crowd: int) -> int:
        return seed * CROWDS + crowd


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="storm",
            why="discovery-bound unsharded hotspot crowd: every device scans "
            "every 10 s, so d2d scans and spatial-index reads dominate",
            n_devices=2000,
            duration_s=30.0,
            params=dict(
                relay_fraction=0.2, arena_m=2400.0, hotspots=32,
                hotspot_spread_m=30.0, mobile_fraction=0.1,
            ),
            storm_scan_s=10.0,
        ),
        Workload(
            name="relay",
            why="static paper-default crowd over 1800 s without storm scans: "
            "kernel, link checks, scheduler, RRC and energy; paper L3 and "
            "energy per beat",
            n_devices=1000,
            duration_s=1800.0,
            params=dict(relay_fraction=0.2, arena_m=1200.0, hotspots=8),
            reference=True,
        ),
        Workload(
            name="sharded",
            why="tiles plan on 2 worker processes, 30% mobile crowd scanning "
            "every 10 s: shard build, sync windows, ghosts, IPC, handover, "
            "index writes, d2d scans and index reads",
            n_devices=1500,
            duration_s=40.0,
            params=dict(
                relay_fraction=0.2, arena_m=2400.0, hotspots=12,
                hotspot_spread_m=60.0, mobile_fraction=0.3, shards=2,
                cells_x=10, cells_y=4, sync_window_s=10.0, shard_plan="tiles",
            ),
            storm_scan_s=10.0,
            sharded=True,
        ),
    )
}


def storm_pre_run(scan_period_s: float) -> Callable[[Any, Dict[str, Any]], None]:
    """Every device advertises and scans every ``scan_period_s`` seconds.

    The unsharded twin of the sharded kernel's ``storm_scan_period_s``. It
    mirrors ``repro.bench``'s storm on purpose rather than importing it: the
    benchmark's inputs must not change when that suite is rebuilt.
    """

    def pre_run(context, devices: Dict[str, Any]) -> None:
        medium, sim = context.medium, context.sim
        for device_id in devices:
            endpoint = medium.endpoint(device_id)
            endpoint.advertising = True
            endpoint.advertisement.setdefault("storm", 1)

            def tick(did: str = device_id) -> None:
                if medium.endpoint(did).powered_on:
                    medium.discover(did, lambda peers: None)

            sim.every(scan_period_s, tick, name=f"storm-{device_id}")

    return pre_run


def call_scenario(workload: Workload, seed: int, probes: Probes, mode: str = "d2d"):
    """One scenario call; returns ``(RunMetrics, events fired, sharded result)``."""
    from repro.mobility.space import Arena

    params = dict(workload.params)
    arena_m = params.pop("arena_m")
    common = dict(
        n_devices=workload.n_devices, duration_s=workload.duration_s,
        drain_s=DRAIN_S, arena=Arena(arena_m, arena_m), seed=seed, mode=mode,
    )
    if workload.sharded:
        from repro.shard import run_crowd_scenario_sharded

        result = run_crowd_scenario_sharded(
            storm_scan_period_s=workload.storm_scan_s, backend="process",
            **common, **params,
        )
        return result.metrics, result.events_fired, result

    from repro.scenarios import run_crowd_scenario

    storm = storm_pre_run(workload.storm_scan_s) if workload.storm_scan_s else None

    def pre_run(context, devices) -> None:
        if storm is not None:
            storm(context, devices)
        probes.mark("setup_end")  # the simulated clock starts next

    result = run_crowd_scenario(pre_run=pre_run, **common, **params)
    return result.metrics, result.context.sim.events_fired, None


def digest(metrics) -> str:
    """Hash of the run's deterministic output (``to_comparable_dict``)."""
    blob = json.dumps(metrics.to_comparable_dict(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


@dataclasses.dataclass
class Iteration:
    """What one scenario call cost and produced."""

    crowd: int
    seed: int
    traced: bool
    error: Optional[str] = None
    #: host seconds of ``speed.calibrate()``, mean of just before and just
    #: after the call
    calibration_s: float = REFERENCE_S
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    #: ``(name, start, end, parent)`` phase spans, the iteration first
    spans: List[stats.Span] = dataclasses.field(default_factory=list)
    phases: Dict[str, float] = dataclasses.field(default_factory=dict)
    digest: str = ""
    outputs: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: equal-work counts (not part of the digest; compared across runs)
    work: Dict[str, int] = dataclasses.field(default_factory=dict)
    layers: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: traced calls: ``label -> [calls, inclusive s, self s]``, all processes
    table: Dict[str, List[float]] = dataclasses.field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return self.error is not None

    @property
    def scale(self) -> float:
        """Host seconds -> reference seconds at the host's speed of the moment."""
        return REFERENCE_S / self.calibration_s


def measure(workload: Workload, crowd: int, seed: int, probes: Probes) -> Iteration:
    """Call the scenario once under ``probes`` and record what it cost."""
    if workload.sharded and multiprocessing.get_start_method() != "fork":
        raise RuntimeError("the sharded workload's worker probes need fork")
    it = Iteration(crowd=crowd, seed=seed, traced=probes.traced)
    gc.collect()
    before = calibrate()
    probes.install()
    try:
        probes.begin()
        cpu0 = _cpu_seconds()
        t_call = probes.clock()
        metrics, events, sharded = call_scenario(workload, seed, probes)
        t_end = probes.clock()
        it.cpu_s = _cpu_seconds() - cpu0
        it.calibration_s = (before + calibrate()) / 2
        _record(it, probes, t_call, t_end, metrics, events, sharded)
    except Exception:  # a failed call is a failed run, reported, not fatal
        it.error = traceback.format_exc()
    finally:
        probes.uninstall()
    return it


def _record(it: Iteration, probes: Probes, t_call, t_end, metrics, events, sharded) -> None:
    """Fill in what the call cost and produced."""
    reports = probes.worker_reports()
    it.wall_s = t_end - t_call
    it.rss_mb = (high_water_rss_kb() + sum(r["hwm_kb"] for r in reports)) / 1024.0
    it.spans = _phase_spans(t_call, t_end, probes.marks, reports, sharded)
    it.phases = _phases(it.spans)
    it.digest = digest(metrics)
    it.outputs = _outputs(metrics)
    perf = metrics.perf or {}
    it.work = {
        "events": int(events),
        "scans": int(perf.get("scans", 0)),
        "scan_peers_returned": int(perf.get("scan_peers_returned", 0)),
    }
    if probes.traced:
        table = it.table = merge_tables(
            [probes.tracer.table] + [r["table"] for r in reports]
        )
        breaks = probes.tracer.link_breaks + sum(r["link_breaks"] for r in reports)
        it.layers = _layers(it, perf, table, breaks, probes.marks, sharded)


def _phase_spans(t_call, t_end, marks, reports, sharded) -> List[stats.Span]:
    """The iteration's wall budget as spans.

    Unsharded: setup, sim, collect. Sharded: setup (until the slowest
    worker has built its world), windows, finish (drain and per-shard
    collection) and merge, with one child span per sync window. The
    iteration's self time is the part no phase accounts for.
    """
    spans: List[stats.Span] = [("iteration", t_call, t_end, None)]
    if sharded is None:
        setup_end = marks["setup_end"]
        c0, c1 = marks["collect"]
        return spans + [
            ("setup", t_call, setup_end, 0),
            ("sim", setup_end, c0, 0),
            ("collect", c0, c1, 0),
        ]
    if len(reports) != sharded.params.n_shards:
        raise RuntimeError(
            f"expected {sharded.params.n_shards} shard reports, got {len(reports)}"
        )
    build_end = max(r["build_end"] for r in reports)
    windows = marks["windows"]
    spans += [
        ("setup", t_call, build_end, 0),
        ("windows", build_end, windows[-1][1], 0),
        ("finish", *marks["finish"], 0),
        ("merge", *marks["merge"], 0),
    ]
    return spans + [("window", w0, w1, 2) for w0, w1 in windows]


def _phases(spans: List[stats.Span]) -> Dict[str, float]:
    """Top-level phase durations plus the unattributed remainder; for the
    sharded kernel ``sim`` is windows + finish and ``collect`` the merge."""
    top = {name: end - start for name, start, end, parent in spans if parent == 0}
    phases = {"setup": top["setup"], "wall": spans[0][2] - spans[0][1]}
    if "sim" in top:
        phases.update(sim=top["sim"], collect=top["collect"])
    else:
        phases.update(
            sim=top["windows"] + top["finish"], collect=top["merge"],
            windows=top["windows"], finish=top["finish"],
        )
    phases["unattributed"] = stats.self_times(spans)[0]
    return phases


def _outputs(metrics) -> Dict[str, float]:
    delivery = metrics.delivery
    devices = metrics.devices.values()
    return {
        "received": delivery.received,
        "on_time": delivery.on_time,
        "late": delivery.late,
        "relayed": delivery.relayed,
        "l3": metrics.total_l3_messages,
        "uah": metrics.total_energy_uah(),
        "uplinks": sum(d.uplink_sends for d in devices),
        "rrc_cycles": sum(d.rrc_cycles for d in devices),
        "devices": len(metrics.devices),
    }


def _layers(it: Iteration, perf, table, breaks, marks, sharded) -> Dict[str, float]:
    """Per-layer metrics of one traced iteration (see ``spec.PER_LAYER``)."""

    def self_s(label: str) -> float:
        return table.get(label, [0, 0.0, 0.0])[2]

    def calls(label: str) -> int:
        return int(table.get(label, [0, 0.0, 0.0])[0])

    out = it.outputs
    scans = perf.get("scans", 0)
    candidates = perf.get("scan_candidates_examined", 0)
    peers = perf.get("scan_peers_returned", 0)
    queries = perf.get("index_queries", 0)
    link_checks = calls("d2d.link_check")
    phases = it.phases
    layers = {
        "d2d.scans": scans,
        "d2d.scan_s": self_s("d2d.scan"),
        "d2d.scan_us_per_candidate": 1e6 * stats.ratio(self_s("d2d.scan"), candidates),
        "d2d.peers_per_scan": stats.ratio(peers, scans),
        "d2d.scan_yield": stats.ratio(peers, candidates),
        "mobility.index_queries": queries,
        "mobility.block_cache_hit_ratio": stats.ratio(
            perf.get("index_block_cache_hits", 0), queries
        ),
        "sim.events": it.work["events"],
        "sim.events_per_s": stats.ratio(
            it.work["events"], table.get("sim.run", [0, 0.0, 0.0])[1]
        ),
        "sim.self_s": self_s("sim.run"),
        "d2d.link_checks": link_checks,
        "d2d.link_check_s": self_s("d2d.link_check"),
        "d2d.link_check_yield": stats.ratio(breaks, link_checks),
        "d2d.transfer_s": self_s("d2d.transfer"),
        "core.match_s": self_s("core.match"),
        "core.scheduler_s": self_s("core.scheduler"),
        "core.beats_per_uplink": stats.ratio(out["received"], out["uplinks"]),
        "core.forwarding_ratio": stats.ratio(out["relayed"], out["received"]),
        "cellular.uplinks": out["uplinks"],
        "cellular.uplink_s": self_s("cellular.uplink"),
        "cellular.rrc_cycles": out["rrc_cycles"],
        "cellular.reattach_s": self_s("cellular.reattach"),
        "cellular.handovers": sharded.handovers if sharded else 0,
        "energy.charges": calls("energy.charge"),
        "energy.charge_s": self_s("energy.charge"),
        "mobility.index_updates": perf.get("index_updates", 0),
        "mobility.index_moves": perf.get("index_moves", 0),
        "metrics.collect_s": self_s("metrics.collect"),
        "run.wall_s": phases["wall"],
        "run.setup_s": phases["setup"],
        "run.sim_s": phases["sim"],
        "run.collect_s": phases["collect"],
        "run.unattributed_s": phases["unattributed"],
        "run.unattributed_share": stats.ratio(phases["unattributed"], it.wall_s),
    }
    # the shard layer is absent from unsharded workloads: report zeros
    shard_layers = {name: 0.0 for name in PER_LAYER if name.startswith("shard.")}
    if sharded is not None:
        window_wall = phases["windows"]
        n_windows = max(1, sharded.windows)
        shard_layers.update({
            "shard.build_s": phases["setup"],
            "shard.windows": sharded.windows,
            "shard.window_wall_s": window_wall,
            "shard.critical_path_s": sharded.critical_path_s,
            "shard.barrier_wait_s": sum(s["barrier_wait_s"] for s in sharded.shard_load),
            "shard.parallel_efficiency": stats.ratio(
                sharded.total_work_s, sharded.params.n_shards * window_wall
            ),
            "shard.finish_s": phases["finish"],
            "shard.merge_s": phases["collect"],
            "shard.ipc_bytes_per_window": marks["ipc_bytes"] / n_windows,
            "shard.ghost_registrations": sharded.ghost_registrations,
            "shard.device_skew": sharded.device_skew,
        })
    layers.update(shard_layers)
    return {name: float(value) for name, value in layers.items()}


def check_windows(workload: Workload) -> int:
    """Sync windows the sharded kernel must run: beats stop 1 s early."""
    stop_at = max(0.0, workload.duration_s - 1.0)
    return math.ceil(stop_at / workload.params["sync_window_s"])
