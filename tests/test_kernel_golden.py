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

Both were re-recorded when the kernel took up forward checking: each
unassigned event keeps a domain of the tags its arcs still allow, and only
those are tried.  A dropped tag fails as soon as it is tried, so forward
checking skips only subtrees without a region.  Every status, support and
signature stayed the same, and
`test_regions.py::test_kernel_region_is_the_lex_first_region` pins them
apart from the node counts.  What moved are the nodes charged (the 8,399
atoms of this corpus, solved unbounded, charge 90,739 nodes where they
charged 216,554), the outcomes under a limit that now lets the search
finish, and
some refutation cores, which now also take in the arcs behind the dropped
tags.  `test_regions.py::test_kernel_cores_are_sound` checks that those
cores still refute their atoms.
"""

import hashlib
import random
import warnings

import boolnet as bn
from boolnet import _solver_py
from boolnet.interactions import INTERACTIONS, BooleanType

import oracles

GOLDEN = "a176df08fede116d89aa245346b0ae9dfab51867bc398d3b7b949ef40b560fd2"
GOLDEN_WIDE = "ce7c85b9f95538886e7dda7d6fdc03b6eccb081e007b7928b5ead932aabe3804"

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


def test_node_budget_is_exact():
    """An atom that charges n nodes unbounded gives the same result at limit
    n, and BUDGET at limit n - 1: the kernel checks the budget at every
    node it charges."""
    rng = random.Random(53)
    checked = 0
    for trial in range(60):
        ts = oracles.random_ts(rng, max_states=7, max_events=4)
        p = prepared(ts, TAUS[trial % len(TAUS)])
        for kind, a, b in atom_list(ts):
            for collect_touched in (False, True):
                result = _solver_py.solve(p, kind, a, b, -1, collect_touched)
                n = result[3]
                assert _solver_py.solve(p, kind, a, b, n, collect_touched) == result
                if n:
                    cut = _solver_py.solve(p, kind, a, b, n - 1, collect_touched)
                    assert cut == (_solver_py.BUDGET, None, None, n, 0)
                    checked += 1
    assert checked > 1000
