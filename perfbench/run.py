"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload storm --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with only phase marks in
place; ``--trace 1`` alternates untraced and traced scenario calls and
reports the per-layer metrics plus the tracing overhead. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
(heartbeats received at the server; a late one, or every one of a call that
raised or failed its check, is a failed operation) and ``metrics``.
Human-readable lines and the equal-work record go before it (and to
``perfbench/out/``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import sys
import time
import traceback
from typing import Dict, List, Optional, Tuple

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

if str(ROOT) not in sys.path:  # run as a script: make the package importable
    sys.path.insert(0, str(ROOT))

from perfbench import stats  # noqa: E402
from perfbench.spec import END_TO_END, PER_LAYER  # noqa: E402
from perfbench.tracer import Probes  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    CROWDS, DRAIN_S, WORKLOADS, call_scenario, check_windows, measure,
)

#: Most scenario calls in one run, so a fast machine does not run forever.
MAX_CALLS = 40

#: The paper's headline: D2D relaying must at least halve L3 per beat.
MAX_L3_SHARE_OF_ORIGINAL = 0.5


def _load_program() -> None:
    """Make ``repro`` (under ``src/``) importable."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program to measure under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def _code_fingerprint() -> str:
    """Hash of the program's sources: ledger entries compare only equal code."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _schedule(n_calls: int, crowds: int, traced: bool) -> Tuple[int, bool]:
    """Crowd and tracing of the ``n_calls``-th call (0-based).

    Untraced runs cycle the crowds. Traced runs measure each crowd twice
    in a row, untraced then traced, so the pair's difference is the
    tracing overhead on equal work.
    """
    if not traced:
        return n_calls % crowds, False
    return (n_calls // 2) % crowds, n_calls % 2 == 1


def run_calls(workload, seed: int, seconds: float, traced: bool) -> list:
    """Call the scenario until ``seconds`` are spent (at least one replay)."""
    plain = Probes(str(OUT_DIR), traced=False)
    tracing = Probes(str(OUT_DIR), traced=True)
    # untraced: every crowd once and one replay; traced: two untraced and
    # traced pairs (each pair is itself a replay)
    min_calls = 4 if traced else CROWDS + 1
    calls = []
    start = time.perf_counter()
    while len(calls) < MAX_CALLS:
        crowd, trace_this = _schedule(len(calls), CROWDS, traced)
        probes = tracing if trace_this else plain
        calls.append(measure(workload, crowd, workload.crowd_seed(seed, crowd), probes))
        elapsed = time.perf_counter() - start
        if len(calls) >= min_calls:
            per_call = elapsed / len(calls)
            # stop when the next call would end past the budget
            if elapsed + per_call > seconds:
                break
    return calls


def check(workload, calls, reference_l3: Optional[float]) -> List[str]:
    """Output checks of one run; each problem is one string."""
    problems = []
    for it in calls:
        if it.failed:
            problems.append(f"crowd {it.crowd} raised:\n{it.error}")
    good = [it for it in calls if not it.failed]
    by_crowd: Dict[int, list] = {}
    for it in good:
        by_crowd.setdefault(it.crowd, []).append(it)
    for crowd, same in sorted(by_crowd.items()):
        if len({it.digest for it in same}) != 1:
            problems.append(f"crowd {crowd}: replays differ (to_comparable_dict digests)")
    if not any(len(same) > 1 for same in by_crowd.values()):
        problems.append("no crowd was replayed")
    for it in good:
        out = it.outputs
        if out["received"] <= 0 or out["l3"] <= 0 or out["uah"] <= 0:
            problems.append(f"crowd {it.crowd}: empty run {out}")
        if out["devices"] != workload.n_devices:
            problems.append(
                f"crowd {it.crowd}: {out['devices']} devices, wanted {workload.n_devices}"
            )
        if it.phases and it.phases["unattributed"] < -1e-6:
            problems.append(f"crowd {it.crowd}: phases overlap ({it.phases})")
        windows = sum(1 for span in it.spans if span[0] == "window")
        if workload.sharded and windows != check_windows(workload):
            problems.append(f"crowd {it.crowd}: {windows} sync windows")
    crowd0 = next((it.outputs for it in good if it.crowd == 0), None)
    if reference_l3 is not None and crowd0 is not None:
        l3_per_beat = crowd0["l3"] / crowd0["received"]
        if not l3_per_beat <= MAX_L3_SHARE_OF_ORIGINAL * reference_l3:
            problems.append(
                f"signaling reduction lost: {l3_per_beat:.3f} L3/beat vs "
                f"{reference_l3:.3f} in mode='original'"
            )
    return problems


def reference_l3_per_beat(workload, seed: int) -> float:
    """L3 messages per received beat of crowd 0 without D2D relaying."""
    metrics, _events, _sharded = call_scenario(
        workload, workload.crowd_seed(seed, 0),
        Probes(str(OUT_DIR), traced=False), mode="original",
    )
    return metrics.total_l3_messages / metrics.delivery.received


def equal_work_flags(workload, seed: int, calls) -> List[str]:
    """Record this run's work counts and flag any that differ from another
    run (or call) of the same crowd on the same code. Informational only:
    it is not a gate on the program."""
    code = _code_fingerprint()
    ledger = OUT_DIR / "ledger.jsonl"
    seen: Dict[Tuple[int, str], Dict[str, int]] = {}
    if ledger.exists():
        for line in ledger.read_text().splitlines():
            entry = json.loads(line)
            if entry["workload"] == workload.name and entry["code"] == code:
                seen.setdefault((entry["crowd_seed"], "ledger"), entry["work"])
    flags = []
    with ledger.open("a") as handle:
        for it in calls:
            if it.failed:
                continue
            for (crowd_seed, origin), work in seen.items():
                if crowd_seed == it.seed and work != it.work:
                    flags.append(
                        f"crowd seed {it.seed}: work {it.work} differs from "
                        f"{origin} record {work}"
                    )
            seen.setdefault((it.seed, "run"), it.work)
            handle.write(json.dumps({
                "workload": workload.name, "seed": seed, "crowds": CROWDS,
                "crowd_seed": it.seed, "code": code, "traced": it.traced,
                "work": it.work, "digest": it.digest,
            }) + "\n")
    return flags


def end_to_end(workload, calls) -> Dict[str, float]:
    """The end-to-end metrics of an untraced run (see ``spec.END_TO_END``)."""
    good = [it for it in calls if not it.failed]
    if not good:
        return {}
    first_of_crowd = {}
    for it in good:
        first_of_crowd.setdefault(it.crowd, it.outputs)
    totals = {
        key: sum(out[key] for out in first_of_crowd.values())
        for key in ("received", "on_time", "l3", "uah")
    }
    # times in reference seconds: each call scaled by the host speed measured
    # just before it (see speed.py)
    return {
        "wall_s": stats.median([it.wall_s * it.scale for it in good]),
        "setup_s": stats.median([it.phases["setup"] * it.scale for it in good]),
        "device_s_per_s": stats.median([
            workload.device_seconds / ((it.wall_s - it.phases["setup"]) * it.scale)
            for it in good
        ]),
        "cpu_s": stats.median([it.cpu_s * it.scale for it in good]),
        "peak_rss_mb": max(it.rss_mb for it in good),
        "l3_per_beat": totals["l3"] / totals["received"],
        "uah_per_beat": totals["uah"] / totals["received"],
        "on_time_share": totals["on_time"] / totals["received"],
    }


def per_layer(calls) -> Dict[str, float]:
    """Per-layer metrics: medians over the traced calls, plus the overhead
    of tracing as the median traced-minus-untraced wall of equal work."""
    good = [it for it in calls if not it.failed]
    traced = [it for it in good if it.traced]
    if not traced:
        return {}
    layers = {
        name: stats.median([it.layers[name] for it in traced])
        for name in traced[0].layers
    }
    pairs = [
        b.wall_s - a.wall_s
        for a, b in zip(good, good[1:])
        if not a.traced and b.traced and a.seed == b.seed
    ]
    layers["trace.overhead_s"] = stats.median(pairs) if pairs else 0.0
    layers["run.calibration_s"] = stats.median([it.calibration_s for it in traced])
    return layers


def operations(calls) -> Tuple[int, int]:
    """``(attempted, failed)`` heartbeats over every call of the run."""
    good = [it for it in calls if not it.failed]
    typical = max((it.outputs["received"] for it in good), default=1)
    attempted = failed = 0
    for it in calls:
        if it.failed:
            attempted += typical
            failed += typical
        else:
            attempted += it.outputs["received"]
            failed += it.outputs["late"]
    return attempted, failed


def _print_human(workload, seed, calls, metrics, units, problems, flags) -> None:
    print(f"workload {workload.name} seed {seed}: {len(calls)} scenario calls, "
          f"{workload.n_devices} devices, {workload.duration_s:g}+{DRAIN_S:g} s simulated")
    plain = [it for it in calls if not it.failed and not it.traced]
    if plain:
        walls = [it.wall_s for it in plain]
        summary = stats.summarize(walls)
        tail = [f"{k} {v:.3f} s" for k, v in summary.items() if k.startswith("p")]
        print(f"  untraced call host wall: median {summary['median']:.3f} s, "
              f"{', '.join(tail + [''])}n={summary['n']}, "
              f"quartile spread {stats.quartile_spread(walls):.3f}; "
              f"host calibration median "
              f"{stats.median([it.calibration_s for it in plain]):.4f} s")
    attempted, failed = operations(calls)
    print(f"  heartbeats: {attempted} received, {failed} failed "
          f"(share {stats.failure_share(attempted, failed):.4f})")
    for it in calls:
        if it.failed:
            print(f"  crowd {it.crowd} FAILED")
            continue
        phases = " ".join(f"{k}={v:.3f}" for k, v in it.phases.items() if k != "wall")
        print(f"  crowd {it.crowd} {'traced ' if it.traced else ''}host "
              f"wall={it.wall_s:.3f}s cpu={it.cpu_s:.3f}s "
              f"calibration={it.calibration_s:.4f}s {phases}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    for flag in flags:
        print(f"  equal-work flag: {flag}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _load_program()
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
    OUT_DIR.mkdir(exist_ok=True)
    traced = bool(args.trace)

    calls = run_calls(workload, args.seed, args.seconds, traced)
    reference, reference_error = None, None
    if workload.reference:
        try:
            reference = reference_l3_per_beat(workload, args.seed)
        except Exception:  # reported as a failed check, like a failed call
            reference_error = traceback.format_exc()
    problems = check(workload, calls, reference)
    if reference_error:
        problems.append(f"mode='original' reference raised:\n{reference_error}")
    flags = equal_work_flags(workload, args.seed, calls)
    spec = PER_LAYER if traced else END_TO_END
    values = per_layer(calls) if traced else end_to_end(workload, calls)
    missing = sorted(set(spec) - set(values))
    if missing and not problems:
        problems.append(f"metrics missing: {missing}")
    units = {name: unit for name, (unit, _better) in spec.items()}
    _print_human(workload, args.seed, calls, values, units, problems, flags)

    trace_file = OUT_DIR / f"spans-{workload.name}-{args.seed}-{args.trace}.json"
    trace_file.write_text(json.dumps([
        {"crowd": it.crowd, "seed": it.seed, "traced": it.traced,
         "spans": it.spans, "layer_table": it.table}
        for it in calls if not it.failed
    ]))

    attempted, failed = operations(calls)
    if problems:
        failed = attempted
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": units[name]}
            for name in spec if name in values
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
