"""Span recording around the simulator's layer boundaries, from outside.

Nothing here edits the program. :class:`Probes` swaps selected public
functions of the ``repro`` modules (and the coordinator <-> worker calls of
the sharded kernel) for thin wrappers while a run is measured, and puts the
originals back afterwards.

Two kinds of record:

- **Phase marks** (always on, a few per run): when set-up ended, when
  metric collection ran, when each sync window and the sharded finish and
  merge ran, plus what each shard worker reports about itself. They close
  the wall-time budget and cost nothing measurable.
- **Layer spans** (traced runs only): every call into a wrapped function
  and every fired simulator event is timed on a call stack. Hot layers
  fire millions of times, so these spans are aggregated on the fly into
  ``label -> [calls, inclusive seconds, self seconds]`` instead of being
  stored one by one; self time is the span minus the time of the spans it
  caused, exactly as :func:`perfbench.stats.self_times` computes it for
  stored spans.

Sharded runs use the fork-based process backend: wrappers installed before
the fork are inherited by the workers, which record their own spans and,
when they finish, write them to a JSON file the parent merges.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import time
from multiprocessing.reduction import ForkingPickler
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Simulator event names -> the layer label their callback is booked under.
EVENT_LABELS: Dict[str, str] = {
    "d2d_discover": "d2d.scan",
    "d2d_periodic_scan": "d2d.scan",
    "d2d_link_check": "d2d.link_check",
    "d2d_connect": "d2d.connect",
    "d2d_deliver": "d2d.transfer",
    "heartbeat_emit": "workload.emit",
    "scheduler_flush": "core.scheduler",
    "piggyback_deadline": "core.scheduler",
    "ue_buffer_deadline": "core.agent",
    "feedback_fallback": "core.agent",
    "relay_resign": "core.agent",
    "reattach_probe": "core.agent",
    "rrc_promote": "cellular.rrc",
    "rrc_tail": "cellular.rrc",
    "rrc_fach_promote": "cellular.rrc",
    "rrc_fach_tail": "cellular.rrc",
    "uplink_deliver": "cellular.uplink",
}

#: Event-name prefixes for per-device periodic processes.
EVENT_PREFIXES: Tuple[Tuple[str, str], ...] = (("storm-", "d2d.scan"),)


@functools.lru_cache(maxsize=8192)
def event_label(name: str) -> str:
    """Layer label for a simulator event name."""
    label = EVENT_LABELS.get(name)
    if label is not None:
        return label
    for prefix, prefixed in EVENT_PREFIXES:
        if name.startswith(prefix):
            return prefixed
    return "event.other"


class Tracer:
    """Call-stack span aggregator for one process.

    ``table[label] = [calls, inclusive_s, self_s]``. A span's self time is
    its duration minus the durations of the spans opened inside it.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.table: Dict[str, List[float]] = {}
        #: open spans, innermost last: ``[label, child_seconds]``
        self._stack: List[list] = []
        #: link breaks found by a link-check span (the check's useful yield)
        self.link_breaks = 0

    def reset(self) -> None:
        self.table = {}
        self._stack = []
        self.link_breaks = 0

    @property
    def current(self) -> Optional[str]:
        """Label of the innermost open span."""
        return self._stack[-1][0] if self._stack else None

    def call(self, label: str, fn: Callable[..., Any], args: tuple, kwargs: dict) -> Any:
        clock = self.clock
        stack = self._stack
        frame = [label, 0.0]
        stack.append(frame)
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = clock() - start
            stack.pop()
            row = self.table.get(label)
            if row is None:
                row = self.table[label] = [0, 0.0, 0.0]
            row[0] += 1
            row[1] += elapsed
            row[2] += elapsed - frame[1]
            if stack:
                stack[-1][1] += elapsed

    def fire(self, label: str, callback: Callable[..., Any], *args: Any) -> Any:
        """Event-callback trampoline: ``callback(*args)`` as a ``label`` span."""
        return self.call(label, callback, args, {})


def merge_tables(tables: List[Dict[str, List[float]]]) -> Dict[str, List[float]]:
    """Sum span tables row by row (parent plus shard workers)."""
    merged: Dict[str, List[float]] = {}
    for table in tables:
        for label, row in table.items():
            into = merged.setdefault(label, [0, 0.0, 0.0])
            for i, value in enumerate(row):
                into[i] += value
    return merged


def high_water_rss_kb() -> int:
    """This process's resident-set high-water mark in KiB."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Probes:
    """Installs and removes the benchmark's wrappers around ``repro``.

    ``marks`` collects the phase timestamps of the iteration in progress;
    :meth:`begin` clears it and :meth:`worker_reports` gathers what the
    shard workers wrote.
    """

    def __init__(self, out_dir: str, traced: bool) -> None:
        self.out_dir = out_dir
        self.traced = traced
        self.tracer = Tracer()
        self.clock = self.tracer.clock
        self.parent_pid = os.getpid()
        self.marks: Dict[str, Any] = {}
        self._saved: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def begin(self) -> None:
        self.marks = {"windows": [], "ipc_bytes": 0}
        self.tracer.reset()
        for path in self._report_paths():
            os.remove(path)

    def mark(self, key: str) -> None:
        self.marks[key] = self.clock()

    def _report_paths(self) -> List[str]:
        prefix = f"worker-{self.parent_pid}-"
        return [
            os.path.join(self.out_dir, name)
            for name in sorted(os.listdir(self.out_dir))
            if name.startswith(prefix) and name.endswith(".json")
        ]

    def worker_reports(self) -> List[Dict[str, Any]]:
        reports = []
        for path in self._report_paths():
            with open(path) as handle:
                reports.append(json.load(handle))
            os.remove(path)
        return reports

    # ------------------------------------------------------------------
    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _timed(self, owner: object, attr: str, label: str) -> None:
        original = owner.__dict__[attr]
        call = self.tracer.call

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return call(label, original, args, kwargs)

        self._patch(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        """Phase marks always; layer spans when ``traced``."""
        import repro.scenarios as scenarios
        import repro.shard as shard

        self._install_marks(scenarios, shard)
        if self.traced:
            self._install_layers(scenarios, shard)

    # ------------------------------------------------------------------
    def _install_marks(self, scenarios, shard) -> None:
        probes, clock = self, self.clock
        collect = scenarios.collect_metrics

        @functools.wraps(collect)
        def collect_metrics(*args, **kwargs):
            start = clock()
            try:
                return collect(*args, **kwargs)
            finally:
                probes.marks["collect"] = (start, clock())

        self._patch(scenarios, "collect_metrics", collect_metrics)

        state_init = shard._ShardState.__dict__["__init__"]
        state_finish = shard._ShardState.__dict__["finish"]

        @functools.wraps(state_init)
        def shard_state_init(state, shard_index, params):
            if os.getpid() != probes.parent_pid:
                probes.tracer.reset()  # a fresh worker: drop the parent's spans
            probes.tracer.call("shard.build", state_init, (state, shard_index, params), {})
            state._perfbench_build_end = clock()

        @functools.wraps(state_finish)
        def shard_state_finish(state):
            result = probes.tracer.call("shard.worker_finish", state_finish, (state,), {})
            probes._write_worker_report(state)
            return result

        self._patch(shard._ShardState, "__init__", shard_state_init)
        self._patch(shard._ShardState, "finish", shard_state_finish)

        backend = shard._ProcessBackend
        run_window = backend.__dict__["run_window"]
        finish = backend.__dict__["finish"]
        merge = shard._merge_metrics
        traced = self.traced

        @functools.wraps(run_window)
        def backend_run_window(runner, t_end, ghosts_by_shard):
            start = clock()
            outcomes = run_window(runner, t_end, ghosts_by_shard)
            probes.marks["windows"].append((start, clock()))
            if traced:
                # the exact bytes Connection.send pickles in each direction
                probes.marks["ipc_bytes"] += sum(
                    len(ForkingPickler.dumps(("window", t_end, ghosts)))
                    for ghosts in ghosts_by_shard
                ) + sum(len(ForkingPickler.dumps(o)) for o in outcomes)
            return outcomes

        @functools.wraps(finish)
        def backend_finish(runner):
            start = clock()
            try:
                return finish(runner)
            finally:
                probes.marks["finish"] = (start, clock())

        @functools.wraps(merge)
        def merge_metrics(*args, **kwargs):
            start = clock()
            try:
                return merge(*args, **kwargs)
            finally:
                probes.marks["merge"] = (start, clock())

        self._patch(backend, "run_window", backend_run_window)
        self._patch(backend, "finish", backend_finish)
        self._patch(shard, "_merge_metrics", merge_metrics)

    def _write_worker_report(self, state) -> None:
        if os.getpid() == self.parent_pid:
            return  # only forked shard workers report through files
        report = {
            "shard": state.shard_index,
            "build_end": state._perfbench_build_end,
            "hwm_kb": high_water_rss_kb(),
            "table": self.tracer.table,
            "link_breaks": self.tracer.link_breaks,
        }
        path = os.path.join(
            self.out_dir, f"worker-{self.parent_pid}-{state.shard_index}.json"
        )
        with open(path + ".tmp", "w") as handle:
            json.dump(report, handle)
        os.replace(path + ".tmp", path)

    # ------------------------------------------------------------------
    def _install_layers(self, scenarios, shard) -> None:
        from repro.cellular.modem import CellularModem
        from repro.cellular.network import CellularNetwork
        from repro.cellular.rrc import RrcStateMachine
        from repro.core.matching import RelayMatcher
        from repro.core.scheduler import MessageScheduler
        from repro.d2d.base import D2DConnection, D2DMedium
        from repro.energy.model import EnergyModel
        from repro.mobility.index import SpatialIndex
        from repro.sim.engine import Simulator

        tracer = self.tracer
        for owner, attr, label in (
            (Simulator, "run_until", "sim.run"),
            (D2DMedium, "discover", "d2d.scan"),
            (D2DConnection, "send", "d2d.transfer"),
            (RelayMatcher, "evaluate", "core.match"),
            (RelayMatcher, "select", "core.match"),
            (MessageScheduler, "begin_period", "core.scheduler"),
            (MessageScheduler, "offer", "core.scheduler"),
            (MessageScheduler, "flush_now", "core.scheduler"),
            (CellularModem, "send", "cellular.uplink"),
            (RrcStateMachine, "request_transmission", "cellular.rrc"),
            (CellularNetwork, "reattach", "cellular.reattach"),
            (EnergyModel, "charge", "energy.charge"),
            (SpatialIndex, "query_neighbors", "mobility.query"),
            (SpatialIndex, "query_block", "mobility.query"),
            (SpatialIndex, "update", "mobility.update"),
            (shard._ShardState, "run_window", "shard.worker_window"),
            (shard._ShardState, "apply_ghosts", "shard.sync"),
            (shard._ShardState, "handover_pass", "shard.sync"),
            (shard._ShardState, "border_report", "shard.sync"),
        ):
            self._timed(owner, attr, label)
        # collect_metrics is imported by name into both callers' modules
        self._timed(scenarios, "collect_metrics", "metrics.collect")
        self._timed(shard, "collect_metrics", "metrics.collect")

        break_connection = D2DMedium.__dict__["_break_connection"]

        @functools.wraps(break_connection)
        def counted_break(medium, connection, reason):
            if connection.alive and tracer.current == "d2d.link_check":
                tracer.link_breaks += 1
            return break_connection(medium, connection, reason)

        self._patch(D2DMedium, "_break_connection", counted_break)

        fire = tracer.fire
        for attr in ("schedule", "schedule_at"):
            original = Simulator.__dict__[attr]

            def traced_schedule(sim, when, callback, *args, name="", _original=original):
                # keep the event's name exactly as an untraced run sets it
                name = name or getattr(callback, "__name__", "event")
                return _original(
                    sim, when, functools.partial(fire, event_label(name), callback),
                    *args, name=name,
                )

            self._patch(Simulator, attr, functools.wraps(original)(traced_schedule))
