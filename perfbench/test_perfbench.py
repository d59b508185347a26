"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import tracer
import worker
import workloads

HERE = Path(__file__).resolve().parent


def test_self_times_on_a_synthetic_span_tree():
    S = tracer.Span
    spans = [
        S("root", 0.0, 10.0, -1, 0),
        S("a", 1.0, 4.0, 0, 0),
        S("leaf", 2.0, 3.0, 1, 0),
        S("b", 3.0, 6.0, 0, 0),  # overlaps a: the covered part counts once
        S("c", 8.0, 12.0, 0, 0),  # runs past root: clipped to root's end
    ]
    assert tracer.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 3.0, 4.0])


def _bindings(bn):
    """Every name in a boolnet module or traced class, with what it binds."""
    owners = [m for n, m in sys.modules.items() if n == "boolnet" or n.startswith("boolnet.")]
    owners += [bn.CompiledProblem, bn.TransitionSystem]
    return {(id(o), name): value for o in owners for name, value in list(vars(o).items())}


def test_wrappers_are_restored_after_a_traced_run():
    bn = worker.import_boolnet()
    before = _bindings(bn)
    instances = workloads.make(bn, "removal", 3, "tiny")[:4]
    original = bn.modify.decide_property
    trace = tracer.Tracer(sys.modules["boolnet.regions"]._kernel)
    with trace:
        assert bn.regions.decide_property is not original
        assert bn.modify.decide_property is bn.regions.decide_property
        worker.run_pass(bn, instances, trace=trace)
    assert trace.leftovers() == []
    after = _bindings(bn)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    counts = trace.metrics()
    assert counts["modify.decide.calls"] == len(instances)
    assert counts["kernel.solve.calls"] > 0 and counts["kernel.solve.self_s"] > 0


def _run(workload, *extra):
    """A tiny run of one workload, untraced then traced."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--size", "tiny", *extra],
        stdout=subprocess.PIPE, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout
    return json.loads(done.stdout.splitlines()[-1])


def _compare(a, b):
    return subprocess.run(
        [sys.executable, str(HERE / "compare.py"), "--base", str(a), "--new", str(b)],
        stdout=subprocess.PIPE, text=True, timeout=60,
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_runs_of_each_workload_pass_and_repeat_exactly(workload, tmp_path):
    """No failures, and two runs give identical digests and deterministic
    counters (compare.py lists any counter that differs)."""
    outs = [tmp_path / "a.json", tmp_path / "b.json"]
    for out in outs:
        result = _run(workload, "--out", str(out))
        assert result["correct"] and result["attempted"] > 0 and result["failed"] == 0
        assert result["metrics"][f"{workload}.trace.overhead_frac"]["unit"] == "frac"
        assert result["metrics"][f"{workload}.setup_s"]["value"] > 0
    done = _compare(*outs)
    assert done.returncode == 0 and "differ" not in done.stdout, done.stdout


def test_differing_kernels_are_refused(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    _run("removal", "--out", str(a))
    records = json.loads(a.read_text())
    for r in records:
        r["provenance"]["kernel"] = "c"
    b.write_text(json.dumps(records))
    done = _compare(a, b)
    assert done.returncode == 2 and "refusing" in done.stdout
