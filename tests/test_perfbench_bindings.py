"""The benchmark harness in perfbench/ traces library entry points by name,
from outside the library.  A rename or move that would break it fails here.
"""

import sys
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
        trace.end()
    assert trace.leftovers() == []
    counts = trace.metrics()
    assert counts["modify.decide.calls"] == 2
    assert counts["modify.fast_path.calls"] == 2
    assert counts["regions.decide_property.calls"] > 0
    assert counts["kernel.solve.calls"] > 0
