"""The wrappers measure without changing what the simulator does."""

import dataclasses

import pytest

from perfbench.spec import PER_LAYER
from perfbench.tracer import Probes, event_label
from perfbench.workloads import WORKLOADS, measure

TINY = dataclasses.replace(
    WORKLOADS["storm"], n_devices=60, duration_s=40.0,
    params=dict(relay_fraction=0.2, arena_m=120.0, hotspots=3, hotspot_spread_m=10.0,
                mobile_fraction=0.2),
)
TINY_SHARDED = dataclasses.replace(
    WORKLOADS["sharded"], n_devices=120, duration_s=21.0,
    params=dict(WORKLOADS["sharded"].params, arena_m=300.0, cells_x=4, cells_y=2),
)


@pytest.fixture
def out_dir(tmp_path):
    return str(tmp_path)


def test_event_labels():
    assert event_label("d2d_link_check") == "d2d.link_check"
    assert event_label("storm-dev-7") == "d2d.scan"
    assert event_label("something_new") == "event.other"


def test_tracing_does_not_change_outputs_and_closes_the_budget(out_dir):
    from repro.sim.engine import Simulator

    schedule = Simulator.__dict__["schedule"]
    plain = measure(TINY, 0, 5, Probes(out_dir, traced=False))
    traced = measure(TINY, 0, 5, Probes(out_dir, traced=True))
    assert plain.error is None and traced.error is None
    assert plain.digest == traced.digest
    assert plain.work == traced.work
    assert Simulator.__dict__["schedule"] is schedule  # wrappers removed
    for it in (plain, traced):
        phases = it.phases
        closed = phases["setup"] + phases["sim"] + phases["collect"] + phases["unattributed"]
        assert closed == pytest.approx(it.wall_s)
        assert 0.0 <= phases["unattributed"] < 0.05 * it.wall_s
    assert not plain.layers
    assert set(traced.layers) == set(PER_LAYER) - {"trace.overhead_s", "run.calibration_s"}
    assert traced.layers["d2d.scans"] > 0 and traced.layers["d2d.scan_s"] > 0
    assert traced.layers["sim.events"] == plain.work["events"]


def test_sharded_workers_report_through_the_fork(out_dir):
    plain = measure(TINY_SHARDED, 0, 3, Probes(out_dir, traced=False))
    traced = measure(TINY_SHARDED, 0, 3, Probes(out_dir, traced=True))
    assert plain.error is None, plain.error
    assert traced.error is None, traced.error
    assert plain.digest == traced.digest
    assert [name for name, *_ in plain.spans].count("window") == 2
    assert 0 < plain.phases["setup"] < plain.wall_s
    assert traced.layers["shard.windows"] == 2
    assert traced.layers["shard.ipc_bytes_per_window"] > 0
    assert traced.layers["d2d.scans"] > 0  # spans recorded inside the workers
    assert plain.rss_mb > 0
