"""Benchmark entry point: time to a density of states, and gateway serving.

Usage, from the repository root::

    python3 perfbench/run.py --workload dos-paper --seed 1 --seconds 15 --trace 0

Workloads and metrics are declared in ``BENCHMARK.json``; see
``perfbench/README.md`` for what each measures and why.  With
``--trace 0`` the last line of output is a JSON object holding every
end-to-end metric; with ``--trace 1`` it holds every per-layer metric.

The measuring happens in child processes (``worker.py``), each limited
to one BLAS thread.  Set-up time is the median over ``SETUP_RUNS``
processes, each timed from its start to the end of its warm-up; the
last of them goes on to the timed phase.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
READY = b"PERFBENCH-READY"
SETUP_RUNS = 3
TIMEOUT_S = 170.0
SINGLE_THREAD = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
}


class BenchError(RuntimeError):
    """A child process failed; the run prints no result."""


def _child(args, deadline, *, setup_only):
    """Run one worker; returns (set-up seconds, its final JSON or None)."""
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        command.append("--setup-only")
    env = dict(os.environ, **SINGLE_THREAD)
    started = time.perf_counter()
    ready = None
    output = b""
    with subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE) as process:
        try:
            while True:
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    raise subprocess.TimeoutExpired(command, TIMEOUT_S)
                if not select.select([process.stdout], [], [], remaining)[0]:
                    continue
                chunk = os.read(process.stdout.fileno(), 1 << 16)
                if not chunk:
                    break
                output += chunk
                if ready is None and READY in output.split(b"\n"):
                    ready = time.perf_counter() - started
            code = process.wait(timeout=max(0.1, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
            raise BenchError("benchmark exceeded its time limit") from None
    if code != 0 or ready is None:
        raise BenchError(f"worker exited with code {code} before finishing")
    if setup_only:
        return ready, None
    return ready, json.loads(output.splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.perf_counter() + TIMEOUT_S
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_RUNS - 1):
                setups.append(_child(args, deadline, setup_only=True)[0])
        ready, result = _child(args, deadline, setup_only=False)
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    setups.append(ready)

    raw = result["metrics"]
    if args.trace:
        declared = spec["per_layer"]
    else:
        declared = spec["end_to_end"]
        raw["setup_s"] = statistics.median(setups)
    metrics = {}
    for metric in declared:
        value = raw.get(metric["name"], 0)
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"# {metric['name']:<36} {value:>14.6g} {metric['unit']}")
    for key, value in result["notes"].items():
        print(f"# note {key}: {value}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
