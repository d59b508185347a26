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

The split-gadget digest hashes `decide(split)` on split reduction gadgets,
the kind of input the `split` benchmark workload runs: the gadgets of the
eight exhaustive graphs, directed under {nop,inp,swap} and bidirectional under
{nop,swap,used}, every mode and every λ, under node limits 0 (none), 10,
100, 1,000 and 10,000.  Most of their label compositions are refuted by an
intact even walk before any group is assigned, so this digest pins the
split search's pattern pruning and its node charges.
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
    "nop,inp,swap": "3e3de6d2c305d07542782b3f3a9ab94e2b46d28f6a14eb3a2407c9419f1c3577",
    "nop,swap,used": "c86b8b45d78554f65cbcc16ae29fd49e130b4ade24ffd4059020eda4a98eaf7a",
    "nop,set,res,swap": "9f0cc3f3f08e738c5f22b337064b93af727eb6dfaa992e2a957afc274ffdcfe3",
    "nop,swap": "2d05ca6315bcdee853aa5e6816cf53cab9ea70597e2016918e6624dd6a4c6dc1",
}

LIMITS = (1, 10, 100, 1000)

SPLIT_GADGET_GOLDEN = "c5ff51adf9ad1b2b7adf548ae8b83bff61c693cd4b1873ddd88e187e3aa5693d"

SPLIT_GADGET_LIMITS = (0, 10, 100, 1000, 10_000)


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
