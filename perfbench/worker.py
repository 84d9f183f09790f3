"""One benchmark process: set up one workload, measure it, check it.

Started by ``run.py``.  Prints ``PERFBENCH-READY`` when set-up is done
(the parent times set-up up to that line), then, unless
``--setup-only``, runs the timed phase, checks every output and prints
one JSON line of raw metric values.

``--trace 0`` times operations back to back with nothing wrapped.
``--trace 1`` alternates an untraced and a traced run of the same
operation, so the two phases see the same inputs; per-layer figures are
taken from the traced runs and given per operation.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
READY = "PERFBENCH-READY"

#: Fewest timed operations per run, whatever ``--seconds`` says.
MIN_OPERATIONS = 3


def _timed(workload, index):
    """(output, seconds) of one operation; output is None if it raised."""
    start = time.perf_counter()
    try:
        output = workload.operate(index)
    except Exception:  # counted as a failed operation; the run goes on
        traceback.print_exc()
        output = None
    return output, time.perf_counter() - start


def _keep(workload, output, records):
    """Keep a successful operation's record; returns 1 if it raised."""
    if output is None:
        return 1
    records.append(workload.record(output))
    return 0


def measure(workload, seconds):
    """Untraced timed phase: (records, seconds, raised, peak RSS MB)."""
    records, times, raised = [], [], 0
    index = 0
    while sum(times) < seconds or index < max(MIN_OPERATIONS, workload.inputs):
        output, elapsed = _timed(workload, index % workload.inputs)
        if output is not None:
            times.append(elapsed)
        raised += _keep(workload, output, records)
        index += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return records, times, raised, peak_rss_mb


def measure_traced(workload, seconds, spans_path):
    """Paired untraced/traced phase; returns (records, raised, layer metrics)."""
    from spans import SpanRecorder

    recorder = SpanRecorder()
    records, plain, traced, raised = [], [], [], 0
    tuner = getattr(workload, "tuner", None)
    tune_before = tuner.counters() if tuner is not None else None
    index = 0
    while sum(plain) + sum(traced) < seconds or index < max(MIN_OPERATIONS, workload.inputs):
        output, elapsed = _timed(workload, index % workload.inputs)
        plain.append(elapsed)
        raised += _keep(workload, output, records)
        recorder.install()
        try:
            with recorder.root("bench.operation"):
                output, elapsed = _timed(workload, index % workload.inputs)
        finally:
            recorder.uninstall()
        traced.append(elapsed)
        raised += _keep(workload, output, records)
        index += 1
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    recorder.dump(spans_path)

    operations = len(traced)
    calls, self_seconds, root_seconds = recorder.self_times()
    metrics = {}
    for name in set(calls) - {"bench.operation"}:
        metrics[f"{name}.calls"] = calls[name] / operations
        metrics[f"{name}.self_s"] = self_seconds[name] / operations
    for name, value in recorder.counters.items():
        metrics[name] = value / operations
    metrics["bench.other.self_s"] = self_seconds.get("bench.operation", 0.0) / operations
    metrics["trace.host_s"] = root_seconds / operations
    metrics["trace.overhead_ratio"] = sum(traced) / sum(plain)
    metrics["trace.attributed_ratio"] = (
        sum(v for k, v in self_seconds.items() if k != "bench.operation") / root_seconds
    )
    if tuner is not None:
        after = tuner.counters()
        hits = after["tune.choose.hits"] - tune_before["tune.choose.hits"]
        misses = after["tune.choose.misses"] - tune_before["tune.choose.misses"]
        metrics["tune.choose.hit_ratio"] = hits / max(1, hits + misses)
    return records, raised, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    workload.setup(args.seed)
    print(READY, flush=True)
    if args.setup_only:
        return 0

    notes = {}
    if args.trace:
        spans_path = ROOT / ".perfbench-out" / f"spans-{args.workload}-{args.seed}.csv.gz"
        records, raised, metrics = measure_traced(workload, args.seconds, spans_path)
        notes["spans"] = str(spans_path.relative_to(ROOT))
        if records:
            metrics.update(workload.layer_counts(records))
    else:
        records, times, raised, peak_rss_mb = measure(workload, args.seconds)
        if records:
            metrics = workload.end_to_end(records, times)
            metrics["peak_rss_mb"] = peak_rss_mb
        notes["samples"] = len(times)
    if not records:
        print("error: every operation raised", file=sys.stderr)
        return 1
    attempted, failed = workload.check(records, notes)
    attempted += raised
    failed += raised
    if not args.trace:
        metrics["ok_ratio"] = (attempted - failed) / attempted
        metrics.setdefault("goodput_ratio", (attempted - failed) / attempted)
    print(json.dumps({
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "notes": notes,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
