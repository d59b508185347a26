"""One workload in one process: set up, measure, check, report.

    python3 perfbench/worker.py --workload split --seed 1 --seconds 20 --trace 0

Prints one JSON record (metrics, checks, counters, digest, provenance) as
the last line of stdout.  run.py starts this once per workload, so every
workload gets a fresh, single-threaded interpreter.  With --setup-only it
prints "ready" once its inputs are built and stops; an untraced run times
such starts for setup_s.

Untraced (--trace 0): whole passes over the instances, at least MIN_PASSES
and more while another fits in --seconds.  Every decision is timed on its
own.  On a shared 2-vCPU KVM guest (Xeon, 2.1 GHz) a pass ran up to 1.8x
slower while neighbours were busy, in spells of seconds to tens of seconds,
and memory-heavy decisions slowed down more than light ones.  So the gated
figures are in reference units: each decision's time is divided by the time
of a fixed pure-Python loop (reference_loop) measured next to it, and an
instance's figure is the median over passes.  The median, not the minimum:
the reference loop has noise of its own, and the minimum of the ratios picks
exactly the passes where it ran slow.  Over ten seeds this halved the spread
of the gated figures on split and removal.  The figures in seconds (an
instance's fastest pass) are printed beside them.  Traced (--trace 1): one
untraced pass for the reference wall time, then one pass with the layer
wrappers installed, so every count is exact and repeatable.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3
# Set-ups are timed in fresh workers in every gap around the passes, so that
# setup_s samples the machine across the whole run as the decisions do; a
# shared machine's slow spells last seconds to tens of seconds.
SETUPS_PER_GAP = 2
SETUP_TIMEOUT_S = 60
REF_WINDOW = 10
TWIN_SEED = 7


def import_boolnet():
    """Import boolnet (and its CLI) from this checkout's src, and refuse a
    copy loaded from anywhere else."""
    src = ROOT / "src"
    if not (src / "boolnet" / "__init__.py").is_file():
        raise SystemExit(f"no boolnet sources under {src}")
    sys.path.insert(0, str(src))
    bn = importlib.import_module("boolnet")
    importlib.import_module("boolnet.cli")
    if Path(bn.__file__).resolve().parent != src / "boolnet":
        raise SystemExit(f"boolnet imported from {bn.__file__}, not from {src}")
    return bn


def setup_times(args) -> list[float]:
    """Wall times of SETUPS_PER_GAP fresh workers, each from its start to
    its inputs being ready: the interpreter's start, every import (boolnet
    from src among them) and input generation, as a user starting the
    worker pays them.  setup_s is the median over the run."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--size", args.size,
           "--setup-only"]
    times = []
    for _ in range(SETUPS_PER_GAP):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            ready = proc.stdout.readline().strip() == "ready"
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
            code = proc.wait(timeout=SETUP_TIMEOUT_S)
        if not ready or code != 0:
            raise SystemExit(f"set-up worker exited {code} before its inputs were ready")
    return times


def _step(x, y):
    return (x * 31 + y) & 1023


def reference_loop():
    """Fixed pure-Python work with the library's kind of traffic (tuple keys,
    dict updates, list appends, small calls), about 1 ms: the yardstick
    decision times are divided by.  It never changes with the library."""
    table = {}
    acc = []
    for i in range(800):
        key = (i & 63, i % 7, "s%d" % (i & 15))
        table[key] = table.get(key, 0) + _step(i, len(acc))
        if i % 3:
            acc.append(key)
    return sum(table.values()) + len(sorted(acc))


def run_pass(bn, instances, trace=None):
    """One pass over the instances: their answers, each decision's time, and
    one reference_loop time taken just before it."""
    values, times, refs = [], [], []
    for i, inst in enumerate(instances):
        t0 = time.perf_counter()
        reference_loop()
        refs.append(time.perf_counter() - t0)
        if trace is not None:
            trace.begin(i)
        t0 = time.perf_counter()
        values.append(workloads.call(bn, inst))
        times.append(time.perf_counter() - t0)
        if trace is not None:
            trace.end()
    return values, times, refs


def in_ref_units(times, refs):
    """Each time divided by the median reference time of its neighbourhood
    (REF_WINDOW instances either side), which tracks the machine's speed."""
    return [
        t / statistics.median(refs[max(0, i - REF_WINDOW): i + REF_WINDOW + 1])
        for i, t in enumerate(times)
    ]


def digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
        h.update(b"\x1e")
    return h.hexdigest()


def percentile(times, q):
    return statistics.quantiles(times, n=100, method="inclusive")[q - 1] if len(times) > 1 else times[0]


def kernel_twins(bn) -> str:
    """When the compiled kernel imports, both kernels must charge equal node
    counts on every atom of a batch of random systems."""
    try:
        from boolnet import _solver_cy, _solver_py
    except ImportError:
        return "skipped: compiled kernel not built"
    import random

    rng = random.Random(TWIN_SEED)
    tau = bn.BooleanType.of("nop", "inp", "swap")
    branch = [bn.INTERACTIONS.index(t) for t in tau.branch_order()]
    for _ in range(60):
        n, m = rng.randint(2, 8), rng.randint(1, 4)
        delta = {(s, rng.randrange(m)): s + 1 for s in range(n - 1)}
        for _ in range(rng.randint(0, 3 * n)):
            delta.setdefault((rng.randrange(n), rng.randrange(m)), rng.randrange(n))
        ts = bn.TransitionSystem.build(
            initial="s0", arcs=[(f"s{s}", f"e{e}", f"s{d}") for (s, e), d in sorted(delta.items())]
        )
        tables = (n, len(ts.events), [a[0] for a in ts.arcs], [a[1] for a in ts.arcs],
                  [a[2] for a in ts.arcs], ts.out_arcs, ts.in_arcs, ts.event_arcs, ts.initial,
                  branch)
        prepared = [(k, k.prepare(*tables)) for k in (_solver_py, _solver_cy)]
        goals = [(0, a, b) for a in range(n) for b in range(a + 1, n)]
        goals += [(1, e, s) for e in range(len(ts.events)) for s in range(n)
                  if (s, e) not in ts.delta]
        for goal in goals:
            nodes = [k.solve(p, *goal, -1, False)[3] for k, p in prepared]
            if nodes[0] != nodes[1]:
                return f"diverged: {nodes[0]} (py) vs {nodes[1]} (c) nodes on atom {goal}"
    return "equal"


def provenance(bn, args) -> dict:
    return {
        "kernel": bn.KERNEL,
        "boolnet": bn.__file__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=workloads.SIZES, default="full")
    ap.add_argument("--setup-only", action="store_true",
                    help="print 'ready' once the inputs are built, and stop")
    args = ap.parse_args(argv)

    bn = import_boolnet()
    instances = workloads.make(bn, args.workload, args.seed, args.size)
    if args.setup_only:
        print("ready", flush=True)
        return 0
    # the stored inputs of every instance are the harness's, not the
    # library's: keep the cyclic collector from rescanning them mid-decision
    gc.collect()
    gc.freeze()
    checks: dict[str, bool] = {}
    setups = setup_times(args) if args.trace == 0 else []
    t0 = time.perf_counter()
    values, times, refs = run_pass(bn, instances)
    wall = time.perf_counter() - t0
    passes, ref_passes = [times], [refs]
    texts = [workloads.describe(bn, v) for v in values]
    if args.trace == 0:
        # at least MIN_PASSES whole passes, more while another fits in
        # --seconds; set-ups are timed before, between and after them
        setups += setup_times(args)
        while len(passes) < MIN_PASSES or wall * (len(passes) + 1) / len(passes) <= args.seconds:
            t1 = time.perf_counter()
            again, times, refs = run_pass(bn, instances)
            wall += time.perf_counter() - t1
            setups += setup_times(args)
            passes.append(times)
            ref_passes.append(refs)
            if [workloads.describe(bn, v) for v in again] != texts:
                checks["repeat_pass_identical"] = False
        checks.setdefault("repeat_pass_identical", True)
    else:
        trace = tracer.Tracer(sys.modules["boolnet.regions"]._kernel)
        t1 = time.perf_counter()
        with trace:
            traced, _, _ = run_pass(bn, instances, trace=trace)
        traced_wall = time.perf_counter() - t1
        layer = trace.metrics()
        layer["trace.overhead_frac"] = traced_wall / wall - 1.0
        checks["traced_digest_equals_untraced"] = (
            digest(workloads.describe(bn, v) for v in traced) == digest(texts)
        )
        calls_key = "cli.run.calls" if args.workload == "synth" else "modify.decide.calls"
        checks["entry_calls_equal_instances"] = layer[calls_key] == len(instances)
        checks["wrappers_restored"] = not trace.leftovers()
    best = [min(ts) for ts in zip(*passes)]
    ref_units = [statistics.median(ts)
                for ts in zip(*(in_ref_units(t, r) for t, r in zip(passes, ref_passes)))]
    ref_ms = 1000 * statistics.median(r for refs in ref_passes for r in refs)

    problems = []
    for i, (inst, value) in enumerate(zip(instances, values)):
        try:
            verdict = workloads.check(bn, inst, value)
        except Exception as exc:  # a check that raises is a wrong answer
            verdict = f"wrong: check raised {type(exc).__name__}: {exc}"
        if verdict is not None:
            problems.append((i, verdict))
    attempted = len(passes) * len(instances)
    failed = len(passes) * len(problems)
    twins = kernel_twins(bn) if args.workload == "split" else "not run on this workload"
    correct = (
        all(checks.values())
        and not twins.startswith("diverged")
        and not any(v.startswith("wrong") for _, v in problems)
    )

    metrics = {
        "throughput_per_kref": (1000 * len(ref_units) / sum(ref_units), "1/kref"),
        "verdict_ref_p50": (percentile(ref_units, 50), "ref"),
        "verdict_ref_p90": (percentile(ref_units, 90), "ref"),
        "ref_ms": (ref_ms, "ms"),
        "throughput_per_s": (len(best) / sum(best), "1/s"),
        "verdict_ms_p50": (1000 * percentile(best, 50), "ms"),
        "verdict_ms_p90": (1000 * percentile(best, 90), "ms"),
        "solved_frac": (1 - failed / attempted, "frac"),
        "failed_frac": (failed / attempted, "frac"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    if setups:
        metrics["setup_s"] = (statistics.median(setups), "s")
    record = {
        "provenance": provenance(bn, args),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "instances": len(instances),
        "samples": len(best),
        "passes": len(passes),
        "digest": digest(texts),
        "checks": checks,
        "kernel_twins": twins,
        "problems": problems[:10],
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if args.trace == 1:
        record["per_layer"] = layer
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
