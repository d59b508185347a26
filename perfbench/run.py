"""The boolnet benchmark: one command for every workload and metric.

    python3 perfbench/run.py                        # every workload, untraced then traced
    python3 perfbench/run.py --workload split --seed 3 --seconds 20 --trace 0

--seconds and --trace are the benchmark's calling convention: a run is
invoked with --workload, --seed, --seconds (BENCHMARK.json's run_seconds)
and --trace.  Left out, --seconds defaults to run_seconds and --trace to
both modes; --size tiny (a few instances, for the self-tests) makes every
run the minimum number of passes.

Each (workload, trace) pair runs in its own single-threaded worker process
(worker.py), which imports boolnet from this checkout's src.  Untraced runs
give the end-to-end metrics, traced runs the per-layer ones; BENCHMARK.json
at the root names both sets, with their units and better directions, and the
last line of stdout is one JSON object with exactly the keys correct,
attempted, failed and metrics.  --out saves the full records (provenance,
checks, counters, output digest) for compare.py.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

WORKER_TIMEOUT_S = 150


def run_worker(workload, seed, seconds, trace, size) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--size", size]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S,
                              env={**os.environ, "PYTHONHASHSEED": "0"})
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{workload} worker exceeded {WORKER_TIMEOUT_S} s") from None
    if done.returncode != 0:
        raise SystemExit(f"{workload} worker exited {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def selected(record, spec) -> dict:
    """The metrics BENCHMARK.json names for this record's trace mode, with
    the units it declares."""
    section = "per_layer" if record["provenance"]["trace"] else "end_to_end"
    measured = record[section]
    out = {}
    for metric in spec[section]:
        name, unit = metric["name"], metric["unit"]
        value = measured[name]
        if section == "end_to_end":
            if value["unit"] != unit:
                raise SystemExit(f"{name}: worker reports {value['unit']}, BENCHMARK.json {unit}")
            value = value["value"]
        out[name] = {"value": value, "unit": unit}
    return out


def report(record) -> None:
    prov = record["provenance"]
    w = prov["workload"]
    if prov["trace"]:
        moves = {layer.name: layer.moves for layer in tracer.LAYERS}
        for name, value in record["per_layer"].items():
            layer = name.rsplit(".", 1)[0]
            print(f"{w:8} {name:36} {value:>14.6g} {tracer.unit(name):6} "
                  f"moves {moves.get(layer, '-')}")
    else:
        for name, m in record["end_to_end"].items():
            note = f"  (n={record['samples']})" if name.startswith("verdict_ms") else ""
            print(f"{w:8} {name:36} {m['value']:>14.6g} {m['unit']}{note}")
    print(f"{w:8} checks {json.dumps(record['checks'])} kernel_twins={record['kernel_twins']!r}"
          f" digest={record['digest'][:16]} kernel={prov['kernel']}")
    for i, problem in record["problems"]:
        print(f"{w:8} instance {i}: {problem}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured seconds per untraced run (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="0: end-to-end metrics, 1: per-layer metrics (default: both)")
    ap.add_argument("--size", choices=workloads.SIZES, default="full",
                    help="tiny: a few instances per workload and minimal runs, for the self-tests")
    ap.add_argument("--out", help="write the full records as JSON to this file")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.size == "tiny":
        seconds = 0
    else:
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    traces = (0, 1) if args.trace is None else (args.trace,)

    records = []
    for workload in names:
        for trace in traces:
            record = run_worker(workload, args.seed, seconds, trace, args.size)
            report(record)
            records.append(record)
    if args.out:
        Path(args.out).write_text(json.dumps(records, indent=1) + "\n")

    metrics = {}
    for record in records:
        for name, m in selected(record, spec).items():
            key = name if len(records) == 1 else f"{record['provenance']['workload']}.{name}"
            metrics[key] = m
    correct = all(r["correct"] for r in records)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
