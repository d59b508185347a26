"""The search kernel's exact behaviour, pinned by a digest.

Every result of `_solver_py.solve` — status, support, signature, charged
nodes and refutation core — over a fixed random corpus is hashed.  Any
change to the search tree, node accounting, backjumping or core collection
changes the digest.  GOLDEN was recorded with the recursive search, before
it was rewritten as a loop over an explicit stack.  GOLDEN_WIDE covers what
GOLDEN does not: the same corpus solved without a refutation core, and
reachability graphs with more than 64 arcs, whose arc masks outgrow one
machine word, solved both with and without one.  It was recorded before propagation was fused into one
loop.  Both were recorded when the kernel returned its core as a bytearray
with one byte per arc, or None when no core was asked for; `rendered`
turns today's bitmask back into that form before hashing.
"""

import hashlib
import random
import warnings

import boolnet as bn
from boolnet import _solver_py
from boolnet.interactions import INTERACTIONS, BooleanType

import oracles

GOLDEN = "0461cbb5ebe13bd9c8d3f2ddd65bb64d866d212b84f5aea3b450e52736aea107"
GOLDEN_WIDE = "03fcc261c6c20ec60a75164734830a2f15294c2b206ffde726d243dc088bab61"

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
    return _solver_py.prepare(ts, [_TAG_ID[t] for t in tau.branch_order()])


def atom_list(ts):
    n, m = len(ts.states), len(ts.events)
    out = [(_solver_py.SSP, a, b) for a in range(n) for b in range(a + 1, n)]
    out += [(_solver_py.ESSP, e, s) for e in range(m) for s in range(n) if (s, e) not in ts.arc_at]
    return out


def rendered(result, n_arcs, collect_touched):
    """A solve result with its core bitmask as the recorded bytearray."""
    core = None
    if collect_touched:
        core = bytearray(n_arcs)
        for a in range(n_arcs):
            core[a] = (result[4] >> a) & 1
    return result[:4] + (core,)


def corpus_digest(collect_touched=True, trials=400, seed=51):
    rng = random.Random(seed)
    h = hashlib.sha256()
    for trial in range(trials):
        ts = oracles.random_ts(rng, max_states=8, max_events=5)
        tau = TAUS[trial % len(TAUS)]
        p = prepared(ts, tau)
        for kind, a, b in atom_list(ts):
            for limit in LIMITS:
                result = _solver_py.solve(p, kind, a, b, limit, collect_touched)
                h.update(repr(rendered(result, len(ts.arcs), collect_touched)).encode())
    return h.hexdigest()


# net types whose random reachability graphs often have more than 64 arcs
WIDE_NET_TAUS = [BooleanType.of("nop", "set", "res", "swap"), BooleanType.of("nop", "swap")]


def wide_digest(trials=40, atoms_each=25, seed=52):
    """25 sampled atoms of each of 40 reachability graphs with 65-200 arcs,
    each graph under the next type of TAUS, at four limits, with and
    without a core."""
    rng = random.Random(seed)
    h = hashlib.sha256()
    for trial in range(trials):
        while True:
            net = oracles.random_net(rng, WIDE_NET_TAUS[trial % 2], max_places=6, max_transitions=6)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # transitions that never fire are dropped
                ts = bn.reachability_graph(net)
            if 64 < len(ts.arcs) <= 200:
                break
        p = prepared(ts, TAUS[trial % len(TAUS)])
        for kind, a, b in rng.sample(atom_list(ts), atoms_each):
            for limit in (-1, 0, 7, 60):
                for collect_touched in (False, True):
                    result = _solver_py.solve(p, kind, a, b, limit, collect_touched)
                    h.update(repr(rendered(result, len(ts.arcs), collect_touched)).encode())
    return h.hexdigest()


def test_search_tree_digest_is_pinned():
    assert corpus_digest() == GOLDEN


def test_uncollected_and_wide_digest_is_pinned():
    h = hashlib.sha256()
    h.update(corpus_digest(collect_touched=False).encode())
    h.update(wide_digest().encode())
    assert h.hexdigest() == GOLDEN_WIDE
