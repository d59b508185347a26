"""Compare two sets of benchmark records saved with `run.py --out`.

    python3 perfbench/compare.py --base parent.json --new change.json

Refuses (exit 2) when the two sides ran on different search kernels: a built
compiled kernel would otherwise pass for a speed-up.  For every (workload,
seed, size) both sides ran, the output digests must be identical (exit 1
otherwise) and the deterministic counters are listed where they differ:
on the same code they must repeat exactly, across commits they may move.
Each end-to-end metric is shown as base median -> new median with the
change, judged against the bound BENCHMARK.json gives it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DETERMINISTIC = ("kernel.solve.nodes", "kernel.solve.calls", "ts.build.calls",
                 "regions.decide_property.calls", "modify.decide.calls", "cli.run.calls")


def load(paths) -> list[dict]:
    records = []
    for path in paths:
        data = json.loads(Path(path).read_text())
        records += data if isinstance(data, list) else [data]
    return records


def key(record):
    p = record["provenance"]
    return (p["workload"], p["seed"], p["size"])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    args = ap.parse_args(argv)
    base, new = load(args.base), load(args.new)

    kernels = ({r["provenance"]["kernel"] for r in base}, {r["provenance"]["kernel"] for r in new})
    if kernels[0] != kernels[1] or len(kernels[0]) != 1:
        print(f"refusing to compare: base kernels {sorted(kernels[0])}, "
              f"new kernels {sorted(kernels[1])}")
        return 2

    status = 0
    digests, counts = {}, {}
    for r in base + new:
        digests.setdefault(key(r), set()).add(r["digest"])
        if "per_layer" in r:
            for c in DETERMINISTIC:
                counts.setdefault((key(r), c), set()).add(r["per_layer"][c])
    for k, seen in sorted(digests.items()):
        if len(seen) > 1:
            print(f"{k}: output digests differ: {sorted(d[:16] for d in seen)}")
            status = 1
    for (k, c), values in sorted(counts.items()):
        if len(values) > 1:
            print(f"{k}: {c} differs: {sorted(values)}")

    bounds = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    workloads = sorted({key(r)[0] for r in base} & {key(r)[0] for r in new})
    for w in workloads:
        for name, spec in bounds.items():
            b = [r["end_to_end"][name]["value"] for r in base if key(r)[0] == w and "per_layer" not in r]
            n = [r["end_to_end"][name]["value"] for r in new if key(r)[0] == w and "per_layer" not in r]
            if not b or not n:
                continue
            mb, mn = statistics.median(b), statistics.median(n)
            change = (mn - mb) / mb if mb else 0.0
            worse = -change if spec["better"] == "higher" else change
            verdict = "worse beyond bound" if worse > spec["bound"] else "within bound"
            print(f"{w:8} {name:18} {mb:12.6g} -> {mn:12.6g} {spec['unit']:5} "
                  f"{change:+7.1%} ({len(b)} vs {len(n)} runs; bound {spec['bound']:.0%}: {verdict})")
    return status


if __name__ == "__main__":
    sys.exit(main())
