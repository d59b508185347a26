"""The benchmark harness in perfbench/ traces library entry points by name,
from outside the library, and reads the kernel's result tuple by position.
A rename, move or reshuffle that would break it fails here.
"""

import random
import sys
import warnings
from pathlib import Path

import boolnet as bn
import boolnet.cli  # noqa: F401  (a traced layer lives there)

import oracles

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import tracer  # noqa: E402


def test_every_traced_layer_binds_and_is_restored():
    ts = oracles.flip_flop_ts(2)
    # entering resolves every layer's owner and attribute by name
    with tracer.Tracer(bn.regions._kernel) as trace:
        trace.begin(0)
        bn.decide(ts, bn.BooleanType.of("nop", "set", "res", "swap"), "edge", "realize", 1)
        bn.decide(ts, oracles.TAU_D, "edge", "realize", 1)
        bn.decide_property(ts, oracles.TAU_D, "both")
        trace.end()
    assert trace.leftovers() == []
    counts = trace.metrics()
    assert counts["modify.decide.calls"] == 2
    assert counts["modify.fast_path.calls"] == 2
    assert counts["regions.decide_property.calls"] > 0
    assert counts["kernel.solve.calls"] > 0
    # every kernel table is built through the traced prepare
    assert counts["kernel.prepare.calls"] == counts["regions.compile.calls"] > 0


def test_kernel_counters_match_the_search():
    # the tracer reads status (result[0]) and nodes (result[3]) of each
    # kernel solve: over one decide_property they must add up to the
    # budget's charge and, on a witness, to one found region per solve
    tau = bn.BooleanType.of("nop", "set", "res", "swap")
    rng = random.Random(77)
    graphs = []
    while len(graphs) < 5:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # transitions that never fire are dropped
            ts = bn.reachability_graph(oracles.random_net(rng, tau))
        if len(ts.states) > 2:
            graphs.append(ts)
    for ts in graphs:
        budget = bn.NodeBudget()
        with tracer.Tracer(bn.regions._kernel) as trace:
            trace.begin(0)
            witness = bn.decide_property(ts, tau, "both", budget)
            trace.end()
        assert isinstance(witness, bn.Witness)
        counts = trace.metrics()
        assert counts["kernel.solve.calls"] == len(witness.regions) > 0
        assert counts["kernel.solve.nodes"] == budget.used
        assert counts["kernel.solve.found"] == len(witness.regions)
