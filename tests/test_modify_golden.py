"""The modification searches' exact behaviour, pinned by digests.

`decide` runs over a fixed corpus of small random systems: every plan kind,
every mode, several budgets κ and several types.  Per type, two digests are
kept.  The plan digest hashes each answer without a node limit (the
serialized plan, or "no").  The budget digest hashes the outcomes under node
limits 1, 10, 100 and 1,000, where a `SearchBudgetExceeded` hashes as the
node count it reports.  Any change to which plan is found or to its
tie-break changes a plan digest; any change to the nodes the searches
charge changes a budget digest.

The budget digests of the three linear types ({nop,inp,swap},
{nop,swap,used} and {nop,swap}) were re-recorded when their candidates
moved from the search kernel to GF(2) elimination (`boolnet.linear`): an
elimination call charges one node where a kernel call charged its search
nodes, and its even-walk cores prune other removal candidates than the
kernel's touched arcs.  Their plan digests, and both digests of
{nop,set,res,swap}, did not change.

Those three budget digests, and the split-gadget digest below, were
re-recorded again when both searches became hitting-set walks
(`modify._hitting_compositions` and `modify._hitting_combos`).  The walks
reach the same candidates in the same order and check each the same way, so
no plan and no "no" changes; only the walks' own node charges fall.  The
split walk charges one node per cut prefix where the old enumeration charged
one per composition it then refuted outright, and the removal walk one per
item it places where the old scan charged one per item it stepped over.  So
no outcome moves from an answer to `SearchBudgetExceeded`, and some move
the other way.  {nop,set,res,swap} has no even-walk patterns, and on this
corpus its removal charges fell only from 3,464 to 3,343 nodes in all, most
of them the kernel's, so none of its outcomes under the four limits moved.

The budget digest of {nop,set,res,swap}, the one type here whose
candidates the search kernel checks, was re-recorded when the kernel took
up forward checking.  The kernel finds the same regions and refutes the
same atoms with fewer nodes, so its plan digest held.  Of its 864 budget
outcomes, 98 moved from `SearchBudgetExceeded` to an answer, 131 still
exceed their limit, and 635 answers stayed as they were; none moved the
other way.

The split-gadget digest hashes `decide(split)` on split reduction gadgets,
the kind of input the `split` benchmark workload runs: the gadgets of the
eight exhaustive graphs, directed under {nop,inp,swap} and bidirectional under
{nop,swap,used}, every mode and every λ, under node limits 0 (none), 10,
100, 1,000 and 10,000.  Most of their label compositions are refuted by an
intact even walk before any group is assigned, so this digest pins the
split search's pattern pruning and its node charges.

The removal-gadget digest is its removal counterpart, the kind of input the
`removal` benchmark workload runs: `decide` for edge, event and state
removal on the gadgets of the same eight graphs, directed under
{nop,inp,swap} and bidirectional under {nop,swap,used}, every mode and
every λ, under node limits 0 (none), 100 and 10,000; 1,944 outcomes.  It
pins the removal search's plans, its "no" answers and the nodes it charges
on gadgets, where its hitting-set walk (`modify._hitting_combos`) does most
of its work.  It was recorded before that walk moved from a list of unmet
masks per depth to one bitmask over the masks per depth, and held unchanged
through the move: the walk yields the same subsets in the same order and
charges the same nodes.

It was re-recorded when the walk began to look ahead (`modify._can_finish`):
before it places an item, an exact test asks whether the slots left can
still meet every hard certificate, and the walk skips the item when they
cannot.  Only prefixes that yield nothing are skipped, so the walk yields
the same subsets in the same order, and every check, certificate and plan
is the same; only the walk's own node charges change.  Of the 1,944
outcomes, 27 moved from `SearchBudgetExceeded` to an answer, 37 still
exceed their limit with another node count, and 1,880 held; none moved
from an answer to `SearchBudgetExceeded`.  The plan and budget digests of
the corpus, and the split-gadget digest, held through that change.

The split search's group walk later moved out of `modify._search_split`
into a generator, `modify._group_strings`, which decides each even walk at
the last slot among the arcs it watches instead of counting those arcs
down per walk.  That slot is where the count reached 0, so the walk cuts
the same strings at the same slot and charges the same nodes:
`SPLIT_GADGET_GOLDEN`, `PLAN_GOLDEN` and the four `BUDGET_GOLDEN` entries
held unedited through the move.
"""

import hashlib
import random

import boolnet as bn

import oracles

TAUS = [
    bn.BooleanType.of("nop", "inp", "swap"),
    bn.BooleanType.of("nop", "swap", "used"),
    bn.BooleanType.of("nop", "set", "res", "swap"),
    bn.BooleanType.of("nop", "swap"),
]

PLAN_GOLDEN = {
    "nop,inp,swap": "4439854702963cc3b0abee57f30a20dcc53b68ccf1f153d669d4d8bff9620f34",
    "nop,swap,used": "ef1590a2c5cbd278bdfd19ef107285d59197b3da2ece55db58d898d6fd5b03a5",
    "nop,set,res,swap": "7628c79e7196d0ba8e4f23f4726401fe4da526f241efbb46b771d61f54d2d988",
    "nop,swap": "0ee95ab85a8180fb4c44be189c5c2bff31754b08dfeb4b5cf57ebe85118676ec",
}

BUDGET_GOLDEN = {
    "nop,inp,swap": "f42b5916af011f3815cc4b4e7d28b3eb815ca51a7497cf683f08740886261603",
    "nop,swap,used": "e175f6c165f48c05d3a19aceb79d57987462c43b5c4b23f067aa8c597a05262a",
    "nop,set,res,swap": "7fe215330855cc3b6ee1767bab6b85a39f4baa03b2182d4b9ecea487a10a8dba",
    "nop,swap": "4bcbca472439a863cb724ad930d977ffaa3e43e63752475cabfaee91aa2a812a",
}

LIMITS = (1, 10, 100, 1000)

SPLIT_GADGET_GOLDEN = "5376ee614ce91514e3b86e3f4a9a58ff17332e5930e7f9a8eb0f403ad4aa1eba"

SPLIT_GADGET_LIMITS = (0, 10, 100, 1000, 10_000)

REMOVAL_GADGET_GOLDEN = "2c8437ff07f6346574fabce8fa17b63bc7c53cc9ef9d8ebeed04d70c384f391e"

REMOVAL_GADGET_LIMITS = (0, 100, 10_000)


def outcome(ts, tau, kind, mode, kappa, node_limit):
    try:
        plan = bn.decide(ts, tau, kind, mode, kappa, node_limit=node_limit)
    except bn.SearchBudgetExceeded as exc:
        return f"budget {exc.nodes}\n"
    return "no\n" if plan is None else bn.serialize_plan(plan)


def corpus_digests(trials=24, seed=8081):
    """(plan digest, budget digest) per type name."""
    rng = random.Random(seed)
    plans = {str(tau): hashlib.sha256() for tau in TAUS}
    budgets = {str(tau): hashlib.sha256() for tau in TAUS}
    for trial in range(trials):
        ts = oracles.random_ts(rng, max_states=5, max_events=3)
        tau = TAUS[trial % len(TAUS)]
        for kind in bn.KINDS:
            base = len(ts.events) if kind == "split" else 0
            for mode in bn.MODES:
                for kappa in (base, base + 1, base + 3):
                    plans[str(tau)].update(outcome(ts, tau, kind, mode, kappa, 0).encode())
                    for limit in LIMITS:
                        budgets[str(tau)].update(
                            outcome(ts, tau, kind, mode, kappa, limit).encode()
                        )
    return (
        {name: h.hexdigest() for name, h in plans.items()},
        {name: h.hexdigest() for name, h in budgets.items()},
    )


def test_modify_search_digest_is_pinned():
    plans, budgets = corpus_digests()
    assert plans == PLAN_GOLDEN
    assert budgets == BUDGET_GOLDEN


def split_gadget_digest():
    h = hashlib.sha256()
    for g in oracles.exhaustive_graphs():
        for variant, tau in (("directed", oracles.TAU_D), ("bidirectional", oracles.TAU_B)):
            for lam in range(len(g.vertices) + 1):
                ts, kappa = bn.build_gadget(g, bn.GadgetSpec("split", variant, lam))
                for mode in bn.MODES:
                    for limit in SPLIT_GADGET_LIMITS:
                        h.update(outcome(ts, tau, "split", mode, kappa, limit).encode())
    return h.hexdigest()


def test_split_gadget_digest_is_pinned():
    assert split_gadget_digest() == SPLIT_GADGET_GOLDEN


def removal_gadget_digest():
    h = hashlib.sha256()
    for g in oracles.exhaustive_graphs():
        for variant, tau in (("directed", oracles.TAU_D), ("bidirectional", oracles.TAU_B)):
            for kind in ("edge", "event", "state"):
                for lam in range(len(g.vertices) + 1):
                    ts, kappa = bn.build_gadget(g, bn.GadgetSpec(kind, variant, lam))
                    for mode in bn.MODES:
                        for limit in REMOVAL_GADGET_LIMITS:
                            h.update(outcome(ts, tau, kind, mode, kappa, limit).encode())
    return h.hexdigest()


def test_removal_gadget_digest_is_pinned():
    assert removal_gadget_digest() == REMOVAL_GADGET_GOLDEN
