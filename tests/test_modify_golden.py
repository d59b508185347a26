"""The modification searches' exact behaviour, pinned by a digest.

`decide` runs over a fixed corpus of small random systems: every plan kind,
every mode, several budgets κ and several types.  Each answer (the
serialized plan, or "no") is hashed, and so is the outcome under node limits
1, 10, 100 and 1,000, where a `SearchBudgetExceeded` hashes as the node
count it reports.  Any change to which plan is found, to its tie-break or to
the nodes the searches charge changes the digest.
"""

import hashlib
import random

import boolnet as bn

import oracles

GOLDEN = "3f62c7749b39d757c81fb318f8cedc9853ca74779197e249a6e4119010263bbb"

TAUS = [
    bn.BooleanType.of("nop", "inp", "swap"),
    bn.BooleanType.of("nop", "swap", "used"),
    bn.BooleanType.of("nop", "set", "res", "swap"),
    bn.BooleanType.of("nop", "swap"),
]

LIMITS = (1, 10, 100, 1000)


def outcome(ts, tau, kind, mode, kappa, node_limit):
    try:
        plan = bn.decide(ts, tau, kind, mode, kappa, node_limit=node_limit)
    except bn.SearchBudgetExceeded as exc:
        return f"budget {exc.nodes}\n"
    return "no\n" if plan is None else bn.serialize_plan(plan)


def corpus_digest(trials=24, seed=8081):
    rng = random.Random(seed)
    h = hashlib.sha256()
    for trial in range(trials):
        ts = oracles.random_ts(rng, max_states=5, max_events=3)
        tau = TAUS[trial % len(TAUS)]
        for kind in bn.KINDS:
            base = len(ts.events) if kind == "split" else 0
            for mode in bn.MODES:
                for kappa in (base, base + 1, base + 3):
                    h.update(outcome(ts, tau, kind, mode, kappa, 0).encode())
                    for limit in LIMITS:
                        h.update(outcome(ts, tau, kind, mode, kappa, limit).encode())
    return h.hexdigest()


def test_modify_search_digest_is_pinned():
    assert corpus_digest() == GOLDEN
