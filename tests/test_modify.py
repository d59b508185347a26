"""Budgeted modification plans and the exact decision solvers."""

import itertools
import math
import random
import sys
from functools import reduce
from math import comb
from operator import and_

import pytest

import boolnet as bn
from boolnet import modify
from boolnet.modify import _group_strings, _hitting_combos, _hitting_compositions, _split_labels
import oracles

TAU_D = bn.BooleanType.of("nop", "inp", "swap")
TAU_B = bn.BooleanType.of("nop", "swap", "used")


def two_loops():
    return bn.TransitionSystem.build(
        initial="s0",
        arcs=[("s0", "a", "s0"), ("s0", "b", "s2"), ("s2", "a", "s2")],
    )


def test_plan_constructor_rejects_unknown_kind():
    with pytest.raises(bn.ParseError):
        bn.ModificationPlan(kind="merge", cost=0)


@pytest.mark.parametrize(
    "kind,payload,stray",
    [
        ("split", {"edges": (("s0", "a", "s1"),)}, "edges"),
        ("edge", {"splits": (("a", (0, 1)),)}, "splits"),
        ("event", {"states": ("s1",)}, "states"),
        ("state", {"events": ("a",)}, "events"),
        ("edge", {"edges": (("s0", "a", "s1"),), "events": ("a",)}, "events"),
    ],
)
def test_plan_constructor_rejects_another_kinds_payload(kind, payload, stray):
    # such a plan would apply as a no-op yet not be one, and its dump would
    # not parse back
    with pytest.raises(bn.ParseError, match=stray):
        bn.ModificationPlan(kind=kind, cost=1, **payload)


def test_plan_cost_is_never_negative():
    with pytest.raises(bn.ParseError, match="negative plan cost"):
        bn.ModificationPlan(kind="edge", cost=-3)
    with pytest.raises(bn.ParseError, match="negative plan cost"):
        bn.parse_plan("plan edge cost -3\n")
    assert bn.parse_plan("plan edge cost 0\n") == bn.ModificationPlan(kind="edge", cost=0)


def test_split_plan_cost():
    ts = bn.TransitionSystem.build(
        initial="t0", arcs=[("t0", "a", "t1"), ("t1", "a", "t2")]
    )
    assert bn.split_plan_cost(ts, {}) == 1
    assert bn.split_plan_cost(ts, {"a": (0, 1)}) == 2


@pytest.mark.parametrize(
    "kind,payload",
    [
        ("event", ("c",)),
        ("edge", (("s0", "c", "s0"),)),
        ("state", ("s2",)),
        ("event", ()),
    ],
)
@pytest.mark.parametrize("cost", [0, 2, 5])
def test_removal_plan_cost_is_the_number_removed(kind, payload, cost):
    # each plan applies to this system when its cost is its payload's
    # length, and is refused otherwise
    ts = bn.TransitionSystem.build(
        "s0",
        [("s0", "a", "s1"), ("s1", "b", "s0"), ("s0", "c", "s0"), ("s1", "c", "s1"),
         ("s1", "a", "s2")],
    )
    fields = {kind + "s": payload}
    if cost == len(payload):
        cost += 1
    msg = f"{kind} plan of cost {cost} removes {len(payload)}"
    with pytest.raises(bn.ParseError, match=msg):
        bn.ModificationPlan(kind=kind, cost=cost, **fields)
    good = bn.ModificationPlan(kind=kind, cost=len(payload), **fields)
    text = bn.serialize_plan(good).replace(f"cost {len(payload)}", f"cost {cost}")
    with pytest.raises(bn.ParseError, match=msg):
        bn.parse_plan(text)
    bn.apply_plan(ts, good)


@pytest.mark.parametrize("cost", [0, 1, 3, 5])
@pytest.mark.parametrize("splits", [(), (("a", (0, 1)),), (("a", (0, 0)),)])
def test_apply_split_rejects_a_cost_that_is_not_the_label_count(splits, cost):
    ts = bn.TransitionSystem.build(
        initial="t0", arcs=[("t0", "a", "t1"), ("t1", "a", "t2")]
    )
    want = bn.split_plan_cost(ts, dict(splits))
    if cost == want:
        cost += 1
    plan = bn.ModificationPlan(kind="split", cost=cost, splits=splits)
    assert bn.parse_plan(bn.serialize_plan(plan)) == plan
    with pytest.raises(bn.ParseError, match=f"split plan of cost {cost} gives {want} labels"):
        bn.apply_plan(ts, plan)
    bn.apply_plan(ts, bn.ModificationPlan(kind="split", cost=want, splits=splits))


def test_apply_split_golden():
    ts = bn.TransitionSystem.build(
        initial="t0", arcs=[("t0", "a", "t1"), ("t1", "a", "t2")]
    )
    plan = bn.ModificationPlan(kind="split", cost=2, splits=(("a", (0, 1)),))
    out = bn.apply_plan(ts, plan)
    assert out.states == ("t0", "t1", "t2")
    assert out.events == ("a", "a'")
    assert out.arcs == ((0, 0, 1), (1, 1, 2))


def test_apply_split_prime_collision():
    ts = bn.TransitionSystem.build(
        initial="t0",
        arcs=[("t0", "a", "t1"), ("t1", "a'", "t2"), ("t2", "a", "t3")],
    )
    plan = bn.ModificationPlan(kind="split", cost=3, splits=(("a", (0, 1)),))
    out = bn.apply_plan(ts, plan)
    # a' is taken, so the second group of a skips to a''
    assert out.events == ("a", "a'", "a''")
    assert [out.events[e] for _, e, _ in out.arcs] == ["a", "a'", "a''"]


@pytest.mark.parametrize(
    "splits,exc",
    [
        ((("zz", (0, 1)),), bn.UnknownId),
        ((("a", (0, 1)), ("a", (0, 1))), bn.ParseError),  # listed twice
        ((("a", (0,)),), bn.ParseError),  # occurrence count mismatch
        ((("a", (0, -1)),), bn.ParseError),  # negative group
        ((("a", (0, 2)),), bn.InvalidPlan),  # group 1 left empty
    ],
)
def test_apply_split_rejects(splits, exc):
    ts = bn.TransitionSystem.build(
        initial="t0", arcs=[("t0", "a", "t1"), ("t1", "a", "t2")]
    )
    with pytest.raises(exc):
        bn.apply_plan(ts, bn.ModificationPlan(kind="split", cost=3, splits=splits))


def test_apply_removals_golden():
    ts = two_loops()
    out = bn.apply_plan(
        ts, bn.ModificationPlan(kind="edge", cost=1, edges=(("s2", "a", "s2"),))
    )
    assert out.states == ("s0", "s2")
    assert len(out.arcs) == 2

    ts2 = bn.TransitionSystem.build(
        initial="s0", arcs=[("s0", "a", "s1"), ("s0", "b", "s0")]
    )
    out = bn.apply_plan(ts2, bn.ModificationPlan(kind="event", cost=1, events=("b",)))
    assert out.events == ("a",)
    assert out.arcs == ((0, 0, 1),)

    ts3 = bn.TransitionSystem.build(
        initial="s0",
        arcs=[("s0", "a", "s0"), ("s0", "b", "s2"), ("s2", "a", "s2"), ("s2", "b", "s3")],
    )
    out = bn.apply_plan(ts3, bn.ModificationPlan(kind="state", cost=1, states=("s3",)))
    assert out.states == ("s0", "s2")
    assert len(out.arcs) == 3


def test_apply_noop_plans():
    ts = two_loops()
    for kind in bn.KINDS:
        cost = len(ts.events) if kind == "split" else 0
        out = bn.apply_plan(ts, bn.ModificationPlan(kind=kind, cost=cost))
        assert out.states == ts.states and out.arcs == ts.arcs


@pytest.mark.parametrize(
    "plan,exc",
    [
        (bn.ModificationPlan(kind="edge", cost=1, edges=(("s0", "a", "s2"),)), bn.UnknownId),
        (bn.ModificationPlan(kind="event", cost=1, events=("zz",)), bn.UnknownId),
        (bn.ModificationPlan(kind="state", cost=1, states=("zz",)), bn.UnknownId),
        (bn.ModificationPlan(kind="event", cost=2, events=("a", "a")), bn.ParseError),
        (bn.ModificationPlan(kind="state", cost=1, states=("s0",)), bn.InvalidPlan),
        # removing s0's b-arc strands s2
        (bn.ModificationPlan(kind="edge", cost=1, edges=(("s0", "b", "s2"),)), bn.InvalidPlan),
        # removing the only a-arcs leaves a useless; two_loops has a at s0 and s2
        (
            bn.ModificationPlan(
                kind="edge", cost=2, edges=(("s0", "a", "s0"), ("s2", "a", "s2"))
            ),
            bn.InvalidPlan,
        ),
    ],
)
def test_apply_removal_rejects(plan, exc):
    with pytest.raises(exc):
        bn.apply_plan(two_loops(), plan)


def test_invalid_plan_reasons_are_stable():
    ts = two_loops()
    with pytest.raises(bn.InvalidPlan, match="initial"):
        bn.apply_plan(ts, bn.ModificationPlan(kind="state", cost=1, states=("s0",)))
    # b's only arc goes: the event complaint wins over the stranded state
    with pytest.raises(bn.InvalidPlan, match="useless-event"):
        bn.apply_plan(
            ts, bn.ModificationPlan(kind="edge", cost=1, edges=(("s0", "b", "s2"),))
        )
    with pytest.raises(bn.InvalidPlan, match="useless"):
        bn.apply_plan(
            ts,
            bn.ModificationPlan(
                kind="edge", cost=2, edges=(("s0", "a", "s0"), ("s2", "a", "s2"))
            ),
        )
    # every event survives below s1, but nothing reaches s1 any more
    dangling = bn.TransitionSystem.build(
        "s0",
        [("s0", "a", "s1"), ("s0", "b", "s0"), ("s1", "a", "s1"), ("s1", "b", "s1")],
    )
    with pytest.raises(bn.InvalidPlan, match="unreachable-state"):
        bn.apply_plan(
            dangling,
            bn.ModificationPlan(kind="edge", cost=1, edges=(("s0", "a", "s1"),)),
        )


def test_plan_serialize_parse_round_trip():
    ts = two_loops()
    plans = [
        bn.ModificationPlan(kind="split", cost=3, splits=(("a", (0, 1)),)),
        bn.ModificationPlan(kind="edge", cost=1, edges=(("s2", "a", "s2"),)),
        bn.ModificationPlan(kind="event", cost=1, events=("b",)),
        bn.ModificationPlan(kind="state", cost=1, states=("s2",)),
        bn.ModificationPlan(kind="edge", cost=0),
    ]
    for plan in plans:
        assert bn.parse_plan(bn.serialize_plan(plan)) == plan
    del ts


# Each input holds one error: the exception class and its whole message,
# `line N:` prefix included, for every error parse_plan raises.
PARSE_PLAN_ERRORS = {
    "split a 0 0": "line 1: content before plan header",
    "plan wibble cost 0": "line 1: unknown plan kind 'wibble'",
    "plan split cost x": "line 1: bad cost 'x'",
    "plan edge cost 1\nrm-edge s0 a": "line 2: stray rm-edge line",
    "plan split cost 2\nsplit a 0 0\nsplit a 0 1": "line 3: occurrence 0 of 'a' assigned twice",
    "plan split cost 2\nsplit a 1 1": "split of 'a' skips an occurrence index",
    "plan edge cost 1\nrm-state s0": "line 2: stray rm-state line",
    "plan edge cost 0\nplan edge cost 0": "line 2: second plan header",
    "plan edge cost": "line 1: expected `plan <kind> cost <n>`",
    "plan edge price 0": "line 1: expected `plan <kind> cost <n>`",
    "plan edge cost 0 1": "line 1: expected `plan <kind> cost <n>`",
    "plan edge cost -1": "negative plan cost -1",
    "plan split cost 1\nsplit a 0 x": "line 2: bad split indices",
    "plan split cost 1\nsplit a 0": "line 2: stray split line",
    "plan edge cost 1\nsplit a 0 0": "line 2: stray split line",
    "plan split cost 1\nrm-edge a b c": "line 2: stray rm-edge line",
    "plan event cost 1\nrm-event": "line 2: stray rm-event line",
    "plan edge cost 1\nrm-event a": "line 2: stray rm-event line",
    "plan state cost 1\nrm-state a b": "line 2: stray rm-state line",
    "plan split cost 2\nsplit a 0 0\nsplit b 0 0\nsplit a 1 0\nsplit a 3 0": (
        "split of 'a' skips an occurrence index"
    ),
    "plan edge cost 0\nwibble": "line 2: unknown directive 'wibble'",
    "": "missing plan header",
    "# nothing\n": "missing plan header",
}


@pytest.mark.parametrize("text", list(PARSE_PLAN_ERRORS))
def test_parse_plan_rejects(text):
    with pytest.raises(bn.ParseError) as info:
        bn.parse_plan(text)
    assert type(info.value) is bn.ParseError
    assert str(info.value) == PARSE_PLAN_ERRORS[text]


def test_decide_validates_inputs():
    ts = two_loops()
    with pytest.raises(ValueError):
        bn.decide(ts, TAU_D, "merge", "realize", 1)
    with pytest.raises(ValueError):
        bn.decide(ts, TAU_D, "edge", "perform", 1)
    with pytest.raises(ValueError):
        bn.decide(ts, TAU_D, "edge", "realize", -1)


def test_decide_split_needs_label_budget():
    ts = two_loops()  # two events: any split plan costs at least 2
    assert bn.decide(ts, TAU_D, "split", "embed", 1) is None


def test_decide_matches_exhaustive_search():
    """The exact plan, or None, of every kind: the oracle enumerates splits
    and removals in decide's order, so the least plan must agree too.  The
    last type has no nop: the kernel check then runs where no event may be
    given nop."""
    rng = random.Random(160289)
    taus = [
        TAU_D,
        TAU_B,
        bn.BooleanType.of("nop", "swap"),
        bn.BooleanType.of("nop", "swap", "set", "res"),
        bn.BooleanType.of("nop", "inp", "set"),
        bn.BooleanType.of("inp", "set", "swap"),
    ]
    split_plans = 0
    for i in range(4 * len(taus)):
        ts = oracles.random_ts(rng, max_states=4, max_events=2)
        tau = taus[i % len(taus)]
        for kind in bn.KINDS:
            for mode in bn.MODES:
                kappa = len(ts.events) + 2 if kind == "split" else 2
                got = bn.decide(ts, tau, kind, mode, kappa)
                want = oracles.brute_decide(ts, tau, kind, mode, kappa)
                assert got == want, (kind, mode, str(tau), got, want)
                split_plans += kind == "split" and got is not None and not got.is_noop()
    assert split_plans > 5


def test_decide_plans_apply_cleanly():
    rng = random.Random(271828)
    for _ in range(10):
        ts = oracles.random_ts(rng, max_states=5, max_events=2)
        for kind in bn.KINDS:
            kappa = len(ts.events) + 2 if kind == "split" else 3
            plan = bn.decide(ts, TAU_D, kind, "embed", kappa)
            if plan is None:
                continue
            modified = bn.apply_plan(ts, plan)
            assert bn.has_property(modified, TAU_D, "ssp")


def test_split_plans_do_not_depend_on_the_state_order():
    # the split search keeps the input's state indices and initial state, so
    # a system rebuilt with a shuffled state order, the same arcs and the
    # same events must get the same plan
    rng = random.Random(4242)
    taus = [TAU_D, bn.BooleanType.of("nop", "set", "res", "swap")]
    reordered = 0
    while reordered < 20:
        ts = oracles.random_ts(rng, max_states=5, max_events=3)
        states = list(ts.states)
        rng.shuffle(states)
        if tuple(states) == ts.states:
            continue
        arcs = [ts.arc_names(a) for a in range(len(ts.arcs))]
        shuffled = bn.TransitionSystem.build(ts.initial_state, arcs, states=states)
        assert shuffled.events == ts.events
        reordered += 1
        for tau in taus:
            for mode in bn.MODES:
                for kappa in range(len(ts.events), len(ts.events) + 3):
                    want = bn.decide(ts, tau, "split", mode, kappa)
                    assert bn.decide(shuffled, tau, "split", mode, kappa) == want
                    if want is not None:
                        modified = bn.apply_plan(shuffled, want)
                        assert modified.states[0] == ts.initial_state
                        assert bn.has_property(modified, tau, bn.property_for_mode(mode))


def test_apply_split_rejects_a_system_with_an_unreached_state():
    # a constructor-built system whose unreachable state s2 has an arc
    ts = bn.TransitionSystem(None, ("s0", "s1", "s2"), ("a",), 0, ((0, 0, 1), (2, 0, 0)))
    plan = bn.ModificationPlan(kind="split", cost=2, splits=(("a", (0, 1)),))
    with pytest.raises(bn.Unreachable) as exc:
        bn.apply_plan(ts, plan)
    assert exc.value.state == "s2"
    # without an arc at s2, building the result from named arcs would drop it
    arcless = bn.TransitionSystem(None, ("s0", "s1", "s2"), ("a",), 0, ((0, 0, 1),))
    with pytest.raises(bn.Unreachable) as exc:
        bn.apply_plan(arcless, bn.ModificationPlan(kind="split", cost=1))
    assert exc.value.state == "s2"
    # the split search raises at its first candidate check, as does the
    # state fast path; the removal search skips the candidates whose
    # checks' walks raise, and may delete s2 instead
    for tau in (TAU_D, bn.BooleanType.of("nop", "inp", "set")):
        with pytest.raises(bn.Unreachable) as exc:
            bn.decide(ts, tau, "split", "realize", 2)
        assert exc.value.state == "s2"
    with pytest.raises(bn.Unreachable) as exc:
        bn.decide(ts, bn.BooleanType.of("nop", "swap"), "state", "langsim", 1)
    assert exc.value.state == "s2"
    plan = bn.decide(ts, TAU_D, "state", "realize", 1)
    assert plan == bn.ModificationPlan(kind="state", cost=1, states=("s2",))


def test_decide_rejects_an_event_without_an_arc():
    # b has no arc, so build rejects the system, though its property holds;
    # decide used to answer None for split, edge and state removal and to
    # delete b by event removal
    ts = bn.TransitionSystem(None, ("s0", "s1"), ("a", "b"), 0, ((0, 0, 1), (1, 0, 0)))
    assert isinstance(bn.decide_property(ts, TAU_D, "both"), bn.Witness)
    for kind in modify.KINDS:
        for mode in bn.MODES:
            for kappa in (0, 3):
                with pytest.raises(bn.UselessEvent) as exc:
                    bn.decide(ts, TAU_D, kind, mode, kappa)
                assert exc.value.event == "b"


def test_apply_plan_rejects_an_event_without_an_arc():
    # the split plan used to crash with a ValueError from max()
    ts = bn.TransitionSystem(None, ("s0", "s1"), ("a", "b"), 0, ((0, 0, 1), (1, 0, 0)))
    plans = (
        bn.ModificationPlan(kind="split", cost=2, splits=(("b", ()),)),
        bn.ModificationPlan(kind="split", cost=2),
        bn.ModificationPlan(kind="event", cost=1, events=("b",)),
        bn.ModificationPlan(kind="edge", cost=0),
    )
    for plan in plans:
        with pytest.raises(bn.UselessEvent) as exc:
            bn.apply_plan(ts, plan)
        assert exc.value.event == "b"
    # a split plan walks first, as build does; a removal plan checks the
    # events only, since it may delete the unreached state
    ts = bn.TransitionSystem(None, ("s0", "s1", "s2"), ("a", "b"), 0, ((0, 0, 1),))
    with pytest.raises(bn.Unreachable):
        bn.apply_plan(ts, plans[1])
    with pytest.raises(bn.UselessEvent):
        bn.apply_plan(ts, bn.ModificationPlan(kind="state", cost=1, states=("s2",)))


def test_swap_only_split_fast_path():
    tau = bn.BooleanType.of("nop", "swap")
    complete = bn.TransitionSystem.build(
        initial="s0",
        arcs=[("s0", "a", "s1"), ("s0", "b", "s0"), ("s1", "a", "s0"), ("s1", "b", "s1")],
    )
    plan = bn.decide(complete, tau, "split", "langsim", 2)
    assert plan is not None and plan.cost == 2 and not plan.splits
    missing = two_loops()  # b missing at s2
    assert bn.decide(missing, tau, "split", "langsim", 10) is None


def test_swap_only_state_fast_path():
    tau = bn.BooleanType.of("nop", "swap")
    cycle = bn.TransitionSystem.build(
        initial="s0", arcs=[("s0", "a", "s1"), ("s1", "a", "s2"), ("s2", "a", "s0")]
    )
    # complete, so nothing needs removing for language simulation
    plan = bn.decide(cycle, tau, "state", "langsim", 3)
    assert plan is not None and plan.is_noop()
    # but an odd swap cycle can never separate its states
    assert bn.decide(cycle, tau, "state", "realize", 2) is None
    out = bn.decide_fast_path(cycle, tau, "state", "langsim")
    assert out.outcome == "yes" and out.plan.is_noop()


def test_swap_only_state_fast_path_agrees_with_search():
    # the fast path keeps every state or answers no; the exact removal search
    # must find the same answer, and with it the empty plan
    tau = bn.BooleanType.of("nop", "swap")
    rng = random.Random(3131)
    yes = 0
    for _ in range(200):
        ts = oracles.random_ts(rng, max_states=5, max_events=2)
        for mode in ("langsim", "realize"):
            fast = bn.decide_fast_path(ts, tau, "state", mode)
            budget = bn.NodeBudget()
            got = bn.modify._search_removal(ts, tau, "state", mode, len(ts.states), budget)
            assert (fast.outcome == "yes") == (got is not None), (mode, ts)
            if got is not None:
                assert got == fast.plan and got.is_noop()
                yes += 1
    assert yes >= 10


def test_fast_path_falls_through_outside_its_types():
    out = bn.decide_fast_path(two_loops(), TAU_D, "split", "langsim")
    assert out.outcome == "fall-through"


def test_decide_node_limit_param():
    # triangle needs two vertices in any cover, so lam=2 is a yes-instance
    g = bn.Graph3B.build([("v0", "v1"), ("v0", "v2"), ("v1", "v2")])
    gts, kappa = bn.build_gadget(g, bn.GadgetSpec(problem="split", variant="directed", lam=2))
    with pytest.raises(bn.SearchBudgetExceeded):
        bn.decide(gts, TAU_D, "split", "realize", kappa, node_limit=1)
    plan = bn.decide(gts, TAU_D, "split", "realize", kappa, node_limit=0)
    assert plan is not None and plan.cost <= kappa


def test_decide_node_limit_env(monkeypatch):
    g = bn.Graph3B.build([("v0", "v1"), ("v0", "v2"), ("v1", "v2")])
    gts, kappa = bn.build_gadget(g, bn.GadgetSpec(problem="split", variant="directed", lam=2))
    monkeypatch.setenv("BOOLNET_NODE_LIMIT", "1")
    with pytest.raises(bn.SearchBudgetExceeded):
        bn.decide(gts, TAU_D, "split", "realize", kappa)
    # an explicit argument wins over the environment
    assert bn.decide(gts, TAU_D, "split", "realize", kappa, node_limit=0) is not None


def test_decide_rejects_negative_node_limit():
    with pytest.raises(ValueError):
        bn.decide(two_loops(), TAU_D, "edge", "realize", 1, node_limit=-1)


def test_split_search_depth_does_not_grow_with_events():
    # t0 -a-> t1 -a-> t2, plus 200 events that each go both ways between t2
    # and t3: the budget lets exactly one extra label in, and splitting a
    # stays short of realizing the system
    arcs = [("t0", "a", "t1"), ("t1", "a", "t2")]
    for i in range(200):
        arcs += [("t2", f"e{i}", "t3"), ("t3", f"e{i}", "t2")]
    ts = bn.TransitionSystem.build(initial="t0", arcs=arcs)
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(150)
    try:
        plan = bn.decide(ts, TAU_D, "split", "realize", len(ts.events) + 1)
    finally:
        sys.setrecursionlimit(old)
    assert plan is None


def test_split_search_handles_long_event_runs():
    # 1,200 occurrences of a: the group enumeration takes one slot per
    # occurrence, so it must not recurse per occurrence
    ts = oracles.long_run_ts(1200)
    with pytest.raises(bn.SearchBudgetExceeded) as info:
        bn.decide(ts, TAU_D, "split", "langsim", 3, node_limit=10_000)
    assert info.value.nodes == 10_001


def meets_all(chosen, masks):
    return all(any((m >> i) & 1 for i in chosen) for m in masks)


def test_hitting_compositions_match_a_filter_of_product():
    """The split search's walk yields exactly the bounded vectors of the sum
    whose split set meets every mask, in lexicographic order.  Besides one
    node per vector it yields, it charges one per cut prefix: a prefix that
    a vector of the sum extends, that leaves a mask with no bit after it
    unmet, and whose own prefix does not.  So it charges no more nodes than
    the vectors it yields and skips."""

    def dead(prefix, masks):
        split = [i for i, v in enumerate(prefix) if v]
        return any(not meets_all(split, [m]) and not m >> len(prefix) for m in masks)

    rng = random.Random(2013)
    skipped = 0
    for _ in range(300):
        n = rng.randint(0, 5)
        tops = [rng.randint(0, 3) for _ in range(n)]
        masks = [rng.randrange(1 << n) for _ in range(rng.randint(0, 4))]
        cuts = [0] * (sum(tops) + 2)  # per total
        for length in range(1, n + 1):
            room = sum(tops[length:])
            for prefix in itertools.product(*(range(t + 1) for t in tops[:length])):
                if dead(prefix, masks) and (length == 1 or not dead(prefix[:-1], masks)):
                    for total in range(sum(prefix), sum(prefix) + room + 1):
                        cuts[total] += 1
        for total in range(sum(tops) + 2):
            budget = bn.NodeBudget()
            got = [tuple(x) for x in _hitting_compositions(tops, total, masks, budget)]
            every = [
                x for x in itertools.product(*(range(t + 1) for t in tops)) if sum(x) == total
            ]
            want = [x for x in every if meets_all([i for i in range(n) if x[i]], masks)]
            assert got == want, (tops, total, masks)
            assert budget.used == len(got) + cuts[total] <= len(every), (tops, total, masks)
            skipped += len(every) - len(want)
    assert skipped > 1000


def test_group_strings_match_a_filter_of_product():
    """The split search's group walk yields, per composition, the product of
    each split event's restricted-growth strings into exactly its group
    count, event after event, in lexicographic order, minus every string on
    which an even walk that watches a split arc is intact and refuting.  It
    charges one node per group it tries: one per prefix of such a string
    whose own prefix leaves no walk it fully assigns intact and refuting."""
    rng = random.Random(2023)
    cut = 0
    for _ in range(300):
        if rng.random() < 0.7:
            ts = oracles.random_abab_ts(rng, max_states=8)[0]
        else:
            ts = oracles.random_ts(rng, max_states=5)
        need_ssp, need_essp = rng.choice([(True, False), (False, True), (True, True)])
        patterns = []
        for a1, a2, a3, a4, alpha in modify._abab_patterns(ts):
            watchable = {a1, a2, a3, a4} | ({alpha} if need_essp and alpha >= 0 else set())
            patterns.append((a1, a2, a3, a4, alpha, watchable, need_ssp or alpha < 0))
        occ = ts.event_arcs
        while True:
            extra = [rng.randint(0, min(len(o) - 1, 2)) for o in occ]
            per_event = [list(oracles._rgs(len(o), x + 1)) for x, o in zip(extra, occ) if x]
            if math.prod(map(len, per_event)) <= 2000:
                break
        order = [a for x, o in zip(extra, occ) if x for a in o]  # the arc of each slot

        def dead(string):
            """Whether a walk whose split arcs the string (a prefix) all
            assigns is intact and refuting on it."""
            grp = dict(zip(order, string))
            for a1, a2, a3, a4, alpha, watchable, refutes in patterns:
                watched = watchable & set(order)
                if watched and watched <= set(order[: len(string)]):
                    g = [grp.get(a, 0) for a in (a1, a2, a3, a4, alpha)]
                    if g[0] == g[2] and g[1] == g[3] and (refutes or g[4] != g[0]):
                        return True
            return False

        every = [sum(combo, ()) for combo in itertools.product(*per_event)]
        want = []
        for string in every:
            if not dead(string):
                grp = [0] * len(ts.arcs)
                for a, g in zip(order, string):
                    grp[a] = g
                want.append(tuple(grp))
        tried = {s[: k + 1] for s in every for k in range(len(s)) if not dead(s[:k])}
        budget = bn.NodeBudget()
        got = [tuple(grp) for grp in _group_strings(extra, occ, patterns, len(ts.arcs), budget)]
        assert got == want, (ts.arcs, extra, need_ssp, need_essp)
        assert budget.used == len(tried), (ts.arcs, extra, need_ssp, need_essp)
        cut += len(every) - len(want)
    assert cut > 1000


def finish_reference(unmet, r, items, excluded=frozenset()):
    """(whether at most r of items, none excluded, meet every mask of the
    list unmet; how many items it places ahead of its last slot), by the
    rule of modify._can_finish: branch on the items of the first unmet mask,
    each branch excluding the items of the branches before it, and scan the
    last slot."""
    first = [i for i in items if (unmet[0] >> i) & 1 and i not in excluded]
    if r == 1:
        return any(meets_all([i], unmet) for i in first), 0
    placed = 0
    for j, i in enumerate(first):
        placed += 1
        rest = [m for m in unmet if not (m >> i) & 1]
        if not rest:
            return True, placed
        ok, more = finish_reference(rest, r - 1, items, excluded | set(first[:j]))
        placed += more
        if ok:
            return True, placed
    return False, placed


def test_can_finish_is_exact():
    """The removal walk's lookahead answers whether r items from start on
    can meet every unmet mask, as a search over all such sets does, and
    places the items the reference rule places."""
    rng = random.Random(2003)
    answers = {True: 0, False: 0}
    for _ in range(1500):
        n = rng.randint(1, 9)
        masks = [rng.randrange(1, 1 << n) for _ in range(rng.randint(1, 7))]
        hit = [sum(1 << t for t, m in enumerate(masks) if (m >> i) & 1) for i in range(n)]
        u = rng.randrange(1, 1 << len(masks))
        r = rng.randint(1, 4)
        start = rng.randint(0, n - 1)
        unmet = [m for t, m in enumerate(masks) if (u >> t) & 1]
        items = range(start, n)
        brute = any(
            meets_all(chosen, unmet)
            for size in range(1, min(r, len(items)) + 1)
            for chosen in itertools.combinations(items, size)
        )
        got = modify._can_finish(u, r, ((1 << n) - 1) >> start << start, masks, hit)
        assert got == finish_reference(unmet, r, items), (masks, u, r, start)
        assert got[0] == brute, (masks, u, r, start)
        answers[brute] += 1
    assert min(answers.values()) > 300, answers


def test_hitting_combos_match_a_filter_of_combinations(monkeypatch):
    """The removal search's walk yields exactly the subsets of at most k
    items that meet every mask known when it reaches them, by size and then
    in lexicographic order, with masks arriving between yields.  With a
    fixed family, per size it places each subset it yields and each of
    their distinct shorter prefixes, one node each, and adds what its tests
    place; when k - 1 <= LOOKAHEAD its lookahead is exact at every depth,
    so it places nothing else."""
    lookahead = []

    def counted(*args):
        ok, placed = can_finish(*args)
        lookahead.append(placed)
        return ok, placed

    can_finish = modify._can_finish
    monkeypatch.setattr(modify, "_can_finish", counted)
    rng = random.Random(61)
    skipped = unchecked = 0  # unchecked: walks that place items with no lookahead
    for _ in range(600):
        n = rng.randint(1, 8)
        k = rng.randint(1, n)
        masks = [rng.randrange(1 << n) for _ in range(rng.randint(0, 2))]
        budget = bn.NodeBudget()
        lookahead.clear()
        yielded = list(_hitting_combos(n, k, list(masks), budget))
        nonempty = [combo for combo in yielded if combo]  # the empty set charges nothing
        prefixes = {(len(combo), combo[:d]) for combo in nonempty for d in range(1, len(combo))}
        charged = len(nonempty) + len(prefixes) + sum(lookahead)
        if k - 1 <= modify.LOOKAHEAD:
            assert budget.used == charged, (n, k, masks)
        else:
            assert budget.used >= charged, (n, k, masks)
            unchecked += 1

        known = [len(masks)]  # masks known before each yield, and at the end
        got = []
        for combo in _hitting_combos(n, k, masks, bn.NodeBudget()):
            got.append(combo)
            if rng.random() < 0.4:
                masks.append(rng.randrange(1, 1 << n))
            known.append(len(masks))
        want = []
        for size in range(k + 1):
            for combo in itertools.combinations(range(n), size):
                if meets_all(combo, masks[: known[len(want)]]):
                    want.append(combo)
        assert got == want, (n, k, masks)
        skipped += sum(comb(n, size) for size in range(k + 1)) - len(want)
    assert skipped > 1000 and unchecked > 10, (skipped, unchecked)
    # the empty subset meets no mask
    assert list(_hitting_combos(3, 0, [], bn.NodeBudget())) == [()]
    assert list(_hitting_combos(3, 0, [1], bn.NodeBudget())) == []


@pytest.mark.parametrize(
    "n, k, masks, yields, nodes",
    [
        # no smaller set; 4 pairs, and their 2 first items, each placed
        # because a later item meets the mask it leaves
        (4, 2, [0b0011, 0b1100], 4, 6),
        # no smaller set: 8 triples, 6 shorter prefixes, and the r = 2 tests
        # for items 0 and 1 each place item 2 before their last slot finds 4
        (6, 3, [0b000011, 0b001100, 0b110000], 8, 16),
        # items 2, 3 and 4 are all needed besides one of 0 and 1: the tests
        # for items 0 and 1 each place item 2, find no last item and cut
        (5, 3, [0b00011, 0b00100, 0b01000, 0b10000], 0, 2),
    ],
)
def test_hitting_combos_charge_small_families_exactly(n, k, masks, yields, nodes):
    budget = bn.NodeBudget()
    assert len(list(_hitting_combos(n, k, masks, budget))) == yields
    assert budget.used == nodes


def list_walk(n_items, kmax, masks, budget):
    """The list walk over every size up to kmax, as the bitset walk orders
    them."""
    for k in range(kmax + 1):
        yield from list_hitting_combos(n_items, k, masks, budget)


def list_hitting_combos(n_items, k, masks, budget):
    """The removal walk as it was when it kept each depth's unmet masks as a
    list, before it looked ahead: the reference the bitset walk must match
    yield for yield."""
    if not k:
        if not masks:
            yield ()
        return
    combo = [0] * k
    unmet = [list(masks)] + [None] * (k - 1)  # the masks the items before each depth miss
    seen = len(masks)
    d = nxt = 0
    while True:
        pending = unmet[d]
        if d == k - 1:
            fits = reduce(and_, pending, (1 << n_items) - 1) >> nxt << nxt
            if fits:
                nxt = (fits & -fits).bit_length()
                budget.charge()
                combo[d] = nxt - 1
                yield tuple(combo)
                for m in masks[seen:]:  # arrived during the yield
                    for j in range(k):
                        unmet[j].append(m)
                        if (m >> combo[j]) & 1:
                            break
                seen = len(masks)
                continue
        elif nxt <= n_items - k + d and nxt < min(pending, default=1 << n_items).bit_length():
            budget.charge()
            combo[d] = nxt
            d += 1
            nxt += 1
            unmet[d] = [m for m in pending if not (m >> combo[d - 1]) & 1]
            continue
        if not d:
            return
        d -= 1
        nxt = combo[d] + 1


def family_mask(rng, n, k, masks, planted):
    """A mask over range(n) like a removal certificate's: a few items or
    many, now and then a zero mask, a duplicate, or only items past n - k;
    one item of planted, when there is one, so that it stays a hitting set."""
    r = rng.random()
    if r < 0.01 or not n:
        return 0
    if r < 0.15 and masks:
        return rng.choice(masks)
    lo = min(n - k, n - 1) if r < 0.3 else 0
    width = min(n - lo, rng.choice((2, 6, n)))
    mask = sum(1 << i for i in rng.sample(range(lo, n), rng.randint(1, width)))
    return mask | (1 << rng.choice(planted) if planted else 0)


def test_hitting_combos_match_the_list_walk():
    """On families of up to 60 masks over up to 40 items, some arriving
    between yields, the bitset walk yields what the list walk yields, in the
    same order.  Under a node limit the two may stop at different yields,
    since the lookahead charges nodes of its own and spares others, so one
    walk's yields must then be a prefix of the other's."""

    def walk(walker, n, k, masks, planted, limit, seed):
        rng = random.Random(seed)
        masks = list(masks)
        budget = bn.NodeBudget(limit)
        got = []
        try:
            for combo in walker(n, k, masks, budget):
                got.append(combo)
                while rng.random() < 0.1:
                    mask = family_mask(rng, n, k, masks, planted)
                    if rng.random() < 0.5:  # as a certificate of combo: none of its items meets it
                        mask &= ~sum(1 << i for i in combo)
                    masks.append(mask)
        except bn.SearchBudgetExceeded:
            return got, len(masks), "exceeded"
        return got, len(masks), "done"

    rng = random.Random(1913)
    ends = {"exceeded": 0, "done": 0}
    yields = arrivals = big = 0  # big: yields from families of 20 masks or more
    for trial in range(1000):
        n = rng.randint(0, 40)
        k = rng.randint(0, min(n, 6))
        planted = rng.sample(range(n), k) if rng.random() < 0.5 else []
        masks = []
        for _ in range(rng.choice((0, 2, 6, 20, 60))):
            masks.append(family_mask(rng, n, k, masks, planted))
        limit = rng.choice((None if n <= 14 else 3000, 1, 7, 60, 400, 3000))
        want = walk(list_walk, n, k, masks, planted, limit, trial)
        got = walk(_hitting_combos, n, k, masks, planted, limit, trial)
        if got[2] == want[2] == "done":
            assert got == want, (n, k, masks, limit)
        else:
            short, long = sorted((got[0], want[0]), key=len)
            assert long[: len(short)] == short, (n, k, masks, limit)
        ends[got[2]] += 1
        yields += len(got[0])
        arrivals += got[1] - len(masks)
        big += len(got[0]) if len(masks) >= 20 else 0
    assert min(ends.values()) > 200 and yields > 10_000 and arrivals > 1000 and big > 500, (
        ends,
        yields,
        arrivals,
        big,
    )


@pytest.mark.parametrize(
    "edges, lam, answer",
    [
        (((0, 1), (2, 3), (2, 4), (0, 2), (3, 4)), 3, True),
        (((0, 1), (2, 3), (3, 4), (3, 5), (0, 5), (1, 4)), 3, True),
        (((0, 1), (1, 2), (3, 4), (0, 2), (4, 5), (3, 5)), 3, False),
    ],
)
def test_removal_walk_decides_the_gadget_tails(edges, lam, answer):
    """Bidirectional edge removal under {nop,swap,used} at cover number 3,
    the removal search's hardest gadgets: the walk's lookahead decides each
    within 10^6 nodes, where the walk without it charged 2.5 million nodes
    on the first and passed 10^7 on the other two."""
    graph = bn.Graph3B.build([(f"v{a}", f"v{b}") for a, b in edges])
    ts, kappa = bn.build_gadget(graph, bn.GadgetSpec("edge", "bidirectional", lam))
    plan = bn.decide(ts, TAU_B, "edge", "langsim", kappa, node_limit=10**6)
    assert (plan is not None) == answer == (bn.brute_force_vc(graph, lam) is not None)
    if plan is not None:
        assert plan.cost <= kappa
        result = bn.apply_plan(ts, plan)
        assert isinstance(bn.decide_property(result, TAU_B, bn.property_for_mode("langsim")), bn.Witness)


def test_decide_stays_in_index_space(monkeypatch):
    # the searches reach the solver only through solve_index, build their
    # candidates without names (not even the split search's labels) and
    # build no named region or atom, nor turn one back into indices: under
    # a linear type, and under the kernel's {nop,inp,set} for splits, edge
    # and state removal (the fast path answers {nop,set,res,swap} splits)
    rng = random.Random(4242)
    tau_kernel = bn.BooleanType.of("nop", "inp", "set")
    cases = []
    for i in range(12):
        ts = oracles.random_ts(rng, max_states=5, max_events=3)
        tau = (TAU_D, TAU_B)[i % 2]
        for kind in bn.KINDS:
            base = len(ts.events) if kind == "split" else 0
            for mode in bn.MODES:
                for kappa in (base, base + 1, base + 2):
                    cases.append((ts, tau, kind, mode, kappa))
                    if kind != "event":
                        cases.append((ts, tau_kernel, kind, mode, kappa))
    want = [bn.decide(*case, node_limit=0) for case in cases]
    assert any(plan is None for plan in want) and any(plan is not None for plan in want)
    assert any(plan is not None and plan.kind == "split" and not plan.is_noop() for plan in want)

    def refuse(*args, **kwargs):
        raise AssertionError("a search left index space")

    monkeypatch.setattr(bn.CompiledProblem, "solve", refuse)
    monkeypatch.setattr(bn.CompiledProblem, "_region", refuse)
    monkeypatch.setattr(bn.CompiledProblem, "atom_args", refuse)
    monkeypatch.setattr(bn.regions, "_atom", refuse)
    monkeypatch.setattr(bn.TransitionSystem, "build", refuse)
    monkeypatch.setattr(modify, "_split_labels", refuse)
    assert [bn.decide(*case, node_limit=0) for case in cases] == want


def _reference_split(ts, plan):
    """apply_plan's result for a valid split plan, computed over names: the
    system TransitionSystem.build makes of the relabelled named arcs."""
    grp = [0] * len(ts.arcs)
    groups_used = {}
    for name, groups in plan.splits:
        e = ts.event_index[name]
        groups_used[e] = max(groups) + 1
        for a, g in zip(ts.event_arcs[e], groups):
            grp[a] = g
    labels = _split_labels(ts, groups_used)
    arcs = [
        (ts.states[src], labels[(e, grp[a])], ts.states[dst])
        for a, (src, e, dst) in enumerate(ts.arcs)
    ]
    return bn.TransitionSystem.build(initial=ts.initial_state, arcs=arcs, name=ts.name)


def _random_split_plan(rng, ts):
    """A valid split plan: a random subset of events, each with its
    occurrences put into groups that leave none of 0..max empty."""
    splits = []
    for e in rng.sample(range(len(ts.events)), rng.randint(0, len(ts.events))):
        n = len(ts.event_arcs[e])
        groups = [rng.randrange(rng.randint(1, n)) for _ in range(n)]
        used = sorted(set(groups))
        rng.shuffle(used)
        renumber = {g: i for i, g in enumerate(used)}
        splits.append((ts.events[e], tuple(renumber[g] for g in groups)))
    return bn.ModificationPlan(
        kind="split", cost=bn.split_plan_cost(ts, dict(splits)), splits=tuple(splits)
    )


def test_apply_split_matches_name_level_reference():
    rng = random.Random(6021)
    reordered = 0
    for trial in range(200):
        ts = oracles.random_ts(rng, max_states=6, max_events=3)
        if trial % 2:
            # explicit state and event orders that are not first appearance,
            # shuffled arcs, and at times a primed event name that a split
            # label must skip
            rename = {e: e for e in ts.events}
            if len(ts.events) > 1 and rng.random() < 0.5:
                rename[ts.events[1]] = ts.events[0] + "'"
            arcs = [ts.arc_names(a) for a in range(len(ts.arcs))]
            rng.shuffle(arcs)
            states, events = list(ts.states), [rename[e] for e in ts.events]
            rng.shuffle(states)
            rng.shuffle(events)
            ts = bn.TransitionSystem.build(
                initial=ts.initial_state,
                arcs=[(s, rename[e], d) for s, e, d in arcs],
                states=states,
                events=events,
                name=f"t{trial}",
            )
        for _ in range(4):
            plan = _random_split_plan(rng, ts)
            got, want = bn.apply_plan(ts, plan), _reference_split(ts, plan)
            assert got == want and got.name == want.name
            reordered += got.states != ts.states
    assert reordered


def _reference_removal(ts, kind, items):
    """apply_plan's result for removing `items`, computed over names: the
    InvalidPlan it must raise as (reason, element), or the system built
    from the surviving named arcs."""
    gone_states = set(items) if kind == "state" else set()
    gone_events = set(items) if kind == "event" else set()
    if ts.initial_state in gone_states:
        return ("initial-removed", ts.initial_state)
    arcs = [
        ts.arc_names(a)
        for a in range(len(ts.arcs))
        if not (kind == "edge" and ts.arc_names(a) in items)
        and ts.arc_names(a)[1] not in gone_events
        and not {ts.arc_names(a)[0], ts.arc_names(a)[2]} & gone_states
    ]
    states = [s for s in ts.states if s not in gone_states]
    events = [e for e in ts.events if e not in gone_events]
    for e in events:
        if all(ev != e for (_, ev, _) in arcs):
            return ("useless-event", e)
    reached = {ts.initial_state}
    grew = True
    while grew:
        grew = False
        for (src, _, dst) in arcs:
            if src in reached and dst not in reached:
                reached.add(dst)
                grew = True
    for s in states:
        if s not in reached:
            return ("unreachable-state", s)
    return bn.TransitionSystem.build(
        initial=ts.initial_state, arcs=arcs, states=states, events=events, name=ts.name
    )


def test_apply_removal_matches_name_level_reference():
    rng = random.Random(5150)
    seen = set()
    for _ in range(150):
        ts = oracles.random_ts(rng, max_states=6, max_events=3)
        pools = {
            "edge": [ts.arc_names(a) for a in range(len(ts.arcs))],
            "event": list(ts.events),
            "state": list(ts.states),
        }
        for kind, pool in pools.items():
            for _ in range(4):
                items = tuple(x for x in pool if rng.random() < 0.3)
                plan = bn.ModificationPlan(
                    kind=kind, cost=len(items), **{kind + "s": items}
                )
                want = _reference_removal(ts, kind, items)
                if isinstance(want, tuple):
                    with pytest.raises(bn.InvalidPlan) as info:
                        bn.apply_plan(ts, plan)
                    assert info.value.reason == want[0]
                    assert str(info.value) == str(bn.InvalidPlan(*want))
                    seen.add(want[0])
                    continue
                got = bn.apply_plan(ts, plan)
                assert (got.name, got.states, got.events, got.initial, got.arcs) == (
                    want.name, want.states, want.events, want.initial, want.arcs
                )
                seen.add("valid")
    assert seen == {"valid", "initial-removed", "useless-event", "unreachable-state"}


@pytest.mark.parametrize(
    "kind, mode, message",
    [("bogus", "realize", "unknown kind 'bogus'"), ("split", "bogus", "unknown mode 'bogus'")],
)
def test_fast_path_rejects_an_unknown_kind_or_mode(kind, mode, message):
    with pytest.raises(ValueError) as info:
        bn.decide_fast_path(two_loops(), TAU_D, kind, mode)
    assert str(info.value) == message
