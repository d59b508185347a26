"""The search kernel's exact behaviour, pinned by a digest.

Every result of `_solver_py.solve` — status, support, signature, charged
nodes and refutation core — over a fixed random corpus is hashed.  Any
change to the search tree, node accounting, backjumping or core collection
changes the digest.  The value was recorded with the recursive search, before
it was rewritten as a loop over an explicit stack.
"""

import hashlib
import random

from boolnet import _solver_py
from boolnet.interactions import INTERACTIONS, BooleanType

import oracles

GOLDEN = "0461cbb5ebe13bd9c8d3f2ddd65bb64d866d212b84f5aea3b450e52736aea107"

_TAG_ID = {t: i for i, t in enumerate(INTERACTIONS)}

TAUS = [
    BooleanType.of("nop", "inp", "swap"),
    BooleanType.of("nop", "swap", "used"),
    BooleanType.of("nop", "inp", "out", "swap", "used", "free"),
    BooleanType.of("nop", "set", "res", "swap"),
    BooleanType.of("nop", "swap"),
]

LIMITS = (-1, 0, 1, 2, 5, 17)


def prepared(ts, tau):
    n, m = len(ts.states), len(ts.events)
    return _solver_py.prepare(
        n, m,
        [s for (s, _, _) in ts.arcs],
        [e for (_, e, _) in ts.arcs],
        [d for (_, _, d) in ts.arcs],
        ts.out_arcs, ts.in_arcs, ts.event_arcs,
        ts.initial, [_TAG_ID[t] for t in tau.branch_order()],
    )


def atom_list(ts):
    n, m = len(ts.states), len(ts.events)
    out = [(_solver_py.SSP, a, b) for a in range(n) for b in range(a + 1, n)]
    out += [(_solver_py.ESSP, e, s) for e in range(m) for s in range(n) if (s, e) not in ts.delta]
    return out


def corpus_digest(trials=400, seed=51):
    rng = random.Random(seed)
    h = hashlib.sha256()
    for trial in range(trials):
        ts = oracles.random_ts(rng, max_states=8, max_events=5)
        tau = TAUS[trial % len(TAUS)]
        p = prepared(ts, tau)
        for kind, a, b in atom_list(ts):
            for limit in LIMITS:
                h.update(repr(_solver_py.solve(p, kind, a, b, limit, True)).encode())
    return h.hexdigest()


def test_search_tree_digest_is_pinned():
    assert corpus_digest() == GOLDEN
