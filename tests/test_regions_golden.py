"""`decide_property`'s exact behaviour, pinned by a digest.

`decide_property` runs over a fixed corpus of small random systems: four
types, every property, canonical and non-canonical failure reporting, and
node limits unlimited, 1, 5 and 50.  Each answer is hashed: the serialized
witness regions and their coverage (atom → index of the region credited
with it, in insertion order), or the kind and name of the failure atom.  So
are the nodes the budget was charged, or the node count a
`SearchBudgetExceeded` reports.  Any change to which atoms are solved, in
which order, by which region, or to the nodes charged changes the digest.
The value was recorded while `decide_property` still worked over named
atoms, before it was rewritten to retire atoms with bitmasks.
"""

import hashlib
import random

import boolnet as bn

import oracles

GOLDEN = "7d3250b1ea491a7b585a0760a7b23a3611a3292a4a995709dae4f1d263a47241"

TAUS = [
    bn.BooleanType.of("nop", "inp", "swap"),
    bn.BooleanType.of("nop", "swap", "used"),
    bn.BooleanType.of("nop", "inp", "out", "swap", "used", "free"),
    bn.BooleanType.of("nop", "set", "res", "swap"),
]

LIMITS = (None, 1, 5, 50)


def outcome(ts, tau, prop, canonical, limit):
    budget = bn.NodeBudget(limit)
    try:
        result = bn.decide_property(ts, tau, prop, budget, canonical_failure=canonical)
    except bn.SearchBudgetExceeded as exc:
        return f"budget {exc.nodes}\n"
    if isinstance(result, bn.SeparationAtom):
        return f"fail {result.kind} {result} {budget.used}\n"
    cover = " ".join(f"{a.kind}{a}={i}" for a, i in result.coverage.items())
    return f"{bn.serialize_regions(result)}cover {cover}\nused {budget.used}\n"


def corpus_digest(trials=80, seed=4242):
    rng = random.Random(seed)
    h = hashlib.sha256()
    for _ in range(trials):
        ts = oracles.random_ts(rng, max_states=7, max_events=4)
        for tau in TAUS:
            for prop in ("ssp", "essp", "both"):
                for canonical in (True, False):
                    for limit in LIMITS:
                        h.update(outcome(ts, tau, prop, canonical, limit).encode())
    return h.hexdigest()


def test_decide_property_digest_is_pinned():
    assert corpus_digest() == GOLDEN
