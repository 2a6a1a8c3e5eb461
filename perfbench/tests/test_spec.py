"""BENCHMARK.json, the metric table and the metrics a run emits agree."""

import json
import pathlib

from perfbench import run
from perfbench.spec import END_TO_END, PER_LAYER
from perfbench.workloads import WORKLOADS, Iteration, _layers, _phases

ROOT = pathlib.Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_has_exactly_the_contract_keys():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert BENCHMARK["paths"] == ["perfbench"]
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]


def test_workloads_match():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) >= 2 and set(names) <= set(WORKLOADS)
    for entry in BENCHMARK["workloads"]:
        assert set(entry) == {"name", "why"}
        assert entry["why"] == WORKLOADS[entry["name"]].why
        assert "\n" not in entry["why"] and len(entry["why"]) <= 200


def test_end_to_end_names_units_and_directions_match():
    declared = {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]}
    assert declared == END_TO_END
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_per_layer_names_units_and_directions_match():
    declared = {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]}
    assert declared == PER_LAYER
    assert all(set(m) == {"name", "unit", "better"} for m in BENCHMARK["per_layer"])


def _iteration(traced, crowd=0, received=100, late=0, wall=2.0):
    spans = [
        ("iteration", 0.0, wall, None),
        ("setup", 0.0, 0.5, 0),
        ("sim", 0.5, wall - 0.25, 0),
        ("collect", wall - 0.25, wall - 0.05, 0),
    ]
    it = Iteration(crowd=crowd, seed=crowd, traced=traced, wall_s=wall, cpu_s=wall,
                   rss_mb=50.0, spans=spans, phases=_phases(spans), digest="d")
    it.outputs = {"received": received, "on_time": received - late, "late": late,
                  "relayed": 10, "l3": 300, "uah": 1000.0, "uplinks": 20,
                  "rrc_cycles": 20, "devices": 10}
    it.work = {"events": 500, "scans": 40, "scan_peers_returned": 80}
    return it


def test_phases_close_the_wall_budget():
    it = _iteration(traced=False)
    phases = it.phases
    assert phases["unattributed"] == 0.05 or abs(phases["unattributed"] - 0.05) < 1e-12
    total = phases["setup"] + phases["sim"] + phases["collect"] + phases["unattributed"]
    assert abs(total - phases["wall"]) < 1e-12


def test_a_run_emits_every_declared_metric():
    workload = WORKLOADS["storm"]
    plain = [_iteration(traced=False, crowd=c) for c in (0, 1, 2, 0)]
    assert set(run.end_to_end(workload, plain)) == set(END_TO_END)

    table = {"d2d.scan": [40, 1.0, 0.8], "sim.run": [1, 2.0, 0.2]}
    perf = {"scans": 40, "scan_candidates_examined": 400, "scan_peers_returned": 80}
    traced = []
    for crowd in (0, 1):
        untraced, tracing = _iteration(False, crowd), _iteration(True, crowd, wall=2.5)
        tracing.layers = _layers(tracing, perf, table, 0, {"ipc_bytes": 0}, None)
        traced += [untraced, tracing]
    layers = run.per_layer(traced)
    assert set(layers) == set(PER_LAYER)
    assert layers["trace.overhead_s"] == 0.5
    assert layers["d2d.scan_yield"] == 0.2


def test_operations_count_late_and_failed_calls():
    calls = [_iteration(False, received=100, late=3), _iteration(False, received=90)]
    assert run.operations(calls) == (190, 3)
    broken = Iteration(crowd=1, seed=1, traced=False, error="Traceback")
    assert run.operations(calls + [broken]) == (290, 103)
