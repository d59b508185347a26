"""Transition systems: construction, parsing, simulation maps, relations."""

import random

import pytest

import boolnet as bn
import oracles


def chain(*events):
    arcs = [("s%d" % i, e, "s%d" % (i + 1)) for i, e in enumerate(events)]
    return bn.TransitionSystem.build(initial="s0", arcs=arcs)


def test_build_orders_by_first_appearance():
    ts = bn.TransitionSystem.build(
        initial="b", arcs=[("b", "y", "a"), ("a", "x", "b")]
    )
    assert ts.states == ("b", "a")
    assert ts.events == ("y", "x")
    assert ts.initial == 0
    assert ts.arcs == ((0, 0, 1), (1, 1, 0))


def test_build_respects_explicit_order():
    ts = bn.TransitionSystem.build(
        initial="a",
        arcs=[("a", "x", "b")],
        states=["b", "a"],
        events=["x"],
    )
    assert ts.states == ("b", "a")
    assert ts.initial == 1


def test_build_rejects_nondeterminism():
    with pytest.raises(bn.NonDeterministic):
        bn.TransitionSystem.build(
            initial="a", arcs=[("a", "x", "b"), ("a", "x", "a")]
        )


def test_build_rejects_unreachable_state():
    with pytest.raises(bn.Unreachable):
        bn.TransitionSystem.build(
            initial="a", arcs=[("a", "x", "a"), ("b", "x", "b")]
        )
    # two unreachable states: the one with the lowest index is named
    with pytest.raises(bn.Unreachable) as exc:
        bn.TransitionSystem.build(
            initial="a",
            arcs=[("a", "x", "c"), ("d", "x", "b"), ("b", "x", "a")],
            states=["a", "b", "c", "d"],
        )
    assert exc.value.state == "b"


def test_build_rejects_useless_event():
    with pytest.raises(bn.UselessEvent):
        bn.TransitionSystem.build(
            initial="a", arcs=[("a", "x", "a")], events=["x", "y"]
        )


def test_build_rejects_unknown_ids():
    with pytest.raises(bn.UnknownId):
        bn.TransitionSystem.build(initial="z", arcs=[("a", "x", "a")], states=["a"])
    with pytest.raises(bn.UnknownId):
        bn.TransitionSystem.build(initial="a", arcs=[("a", "x", "q")], states=["a"])


def test_build_rejects_bad_identifier():
    with pytest.raises(bn.ParseError):
        bn.TransitionSystem.build(initial="a b", arcs=[("a b", "x", "a b")])


def test_accessors():
    ts = chain("a", "b")
    assert ts.initial_state == "s0"
    assert ts.successor("s0", "a") == "s1"
    assert ts.successor("s1", "a") is None
    assert ts.has_arc("s1", "b") and not ts.has_arc("s2", "b")
    with pytest.raises(bn.UnknownId):
        ts.successor("nope", "a")
    with pytest.raises(bn.UnknownId):
        ts.successor("s0", "nope")


def test_parse_golden():
    ts = bn.parse_ts(
        """
        # two steps
        ts demo
        initial s0
        arc s0 a s1
        arc s1 b s2
        """
    )
    assert ts.name == "demo"
    assert ts.states == ("s0", "s1", "s2")
    assert ts.events == ("a", "b")
    assert ts.arcs == ((0, 0, 1), (1, 1, 2))


# Each input holds one error: the exception class and its whole message,
# `line N:` prefix included, for every error parse_ts raises.
PARSE_ERRORS = {
    "arc s0 a s1": (bn.NoInitial, "no initial state declared"),
    "initial s0\ninitial s1\narc s0 a s0": (bn.ParseError, "line 2: duplicate initial declaration"),
    "initial s0\nfrobnicate s0": (bn.ParseError, "line 2: unknown directive 'frobnicate'"),
    "initial s0\narc s0 a": (bn.ParseError, "line 2: expected `arc <src> <event> <dst>`"),
    "initial s0\narc s0 a s1\narc s0 a s1": (
        bn.NonDeterministic,
        "state 's0' has two outgoing arcs labeled 'a'",
    ),
    "ts\ninitial s0": (bn.ParseError, "line 1: expected `ts <name>`"),
    "ts a b\ninitial s0": (bn.ParseError, "line 1: expected `ts <name>`"),
    "ts a\ninitial s0\nts b": (bn.ParseError, "line 3: duplicate ts declaration"),
    "initial\narc s0 a s0": (bn.ParseError, "line 1: expected `initial <state>`"),
    "initial s0 s1\narc s0 a s0": (bn.ParseError, "line 1: expected `initial <state>`"),
    "initial s0\narc s0 a s1 s2": (bn.ParseError, "line 2: expected `arc <src> <event> <dst>`"),
    "initial s0\narc s0 a s1\narc s1 b s0 # c\ninitial s1": (
        bn.ParseError,
        "line 4: duplicate initial declaration",
    ),
    "\n# header\ninitial s0\n\nwibble": (bn.ParseError, "line 5: unknown directive 'wibble'"),
    "initial s0\nplace p 0": (bn.ParseError, "line 2: unknown directive 'place'"),
    "Initial s0": (bn.ParseError, "line 1: unknown directive 'Initial'"),
    "# only a comment\n\n": (bn.NoInitial, "no initial state declared"),
    "initial s$": (bn.ParseError, "bad state name 's$'"),
    "initial s0\narc s0 a$ s1": (bn.ParseError, "bad event name 'a$'"),
    "initial s0\narc s1 a s0": (bn.Unreachable, "state 's1' is not reachable from the initial state"),
}


@pytest.mark.parametrize("text", list(PARSE_ERRORS))
def test_parse_rejects(text):
    exc, message = PARSE_ERRORS[text]
    with pytest.raises(exc) as info:
        bn.parse_ts(text)
    assert type(info.value) is exc
    assert str(info.value) == message


def test_serialize_parse_round_trip():
    rng = random.Random(5150)
    for _ in range(40):
        ts = oracles.random_ts(rng)
        back = bn.parse_ts(bn.serialize_ts(ts))
        assert back.states == ts.states
        assert back.events == ts.events
        assert back.arcs == ts.arcs
        assert back.initial == ts.initial


BAD_HEADER_NAMES = ["my ts", "", "a#b", "tab\tname", "two\nlines", 7]


@pytest.mark.parametrize("name", BAD_HEADER_NAMES)
def test_header_names_the_parsers_cannot_read_back_are_rejected(name):
    tau = bn.BooleanType.of("nop", "inp", "swap")
    with pytest.raises(bn.ParseError, match="bad ts name"):
        bn.TransitionSystem.build(initial="s0", arcs=[("s0", "a", "s1")], name=name)
    with pytest.raises(bn.ParseError, match="bad net name"):
        bn.BooleanNet(name, tau, ("p",), ("t",), {}, (0,))
    with pytest.raises(bn.ParseError, match="bad graph name"):
        bn.Graph3B.build([("u", "v")], name=name)
    with pytest.raises(bn.ParseError, match="bad net name"):
        bn.synthesize(chain("a"), tau, "realize", name=name)


def test_header_names_round_trip_through_every_serializer():
    tau = bn.BooleanType.of("nop", "inp", "swap")
    ts = bn.TransitionSystem.build(initial="s0", arcs=[("s0", "a", "s1")], name="sys-1")
    assert bn.parse_ts(bn.serialize_ts(ts)).name == "sys-1"
    net = bn.BooleanNet("net.1", tau, ("p",), ("t",), {}, (0,))
    assert bn.parse_net(bn.serialize_net(net)).name == "net.1"
    g = bn.Graph3B.build([("u", "v")], name="g_1")
    assert bn.parse_graph(bn.serialize_graph(g)).name == "g_1"


def test_dot_output_smoke():
    dot = bn.ts_to_dot(chain("a"))
    assert dot.startswith("digraph")
    assert "doublecircle" in dot  # initial state is highlighted
    assert '"s0" -> "s1"' in dot


def test_induced_simulation_identity():
    ts = chain("a", "b")
    phi = bn.induced_simulation(ts, ts)
    assert phi is not None
    assert phi.mapping == {"s0": "s0", "s1": "s1", "s2": "s2"}
    assert phi.is_injective() and phi.is_surjective() and phi.reflects_events()


def test_induced_simulation_none_when_structure_differs():
    a = chain("a", "a")  # three states in a row
    b = bn.TransitionSystem.build(initial="q0", arcs=[("q0", "a", "q1"), ("q1", "a", "q0")])
    # a's two steps land on q0, but a's s2 has no outgoing arc while q0 does;
    # the map still exists (it only has to preserve arcs, not reflect them)
    phi = bn.induced_simulation(a, b)
    assert phi is not None and not phi.is_injective()
    # shrinking the target below the source's reach kills the map
    c = bn.TransitionSystem.build(initial="q0", arcs=[("q0", "a", "q1")])
    assert bn.induced_simulation(a, c) is None


def test_induced_simulation_requires_event_cover():
    with pytest.raises(bn.EventSetMismatch):
        bn.induced_simulation(chain("a", "b"), chain("a", "a"))


def test_induced_simulation_matches_exhaustive_search():
    rng = random.Random(31337)
    checked = 0
    for _ in range(80):
        a = oracles.random_ts(rng, max_states=4, max_events=2)
        b = oracles.random_ts(rng, max_states=4, max_events=2)
        if set(a.events) - set(b.events):
            continue
        sims = oracles.all_simulations(a, b)
        assert len(sims) <= 1  # the induced map is unique when it exists
        phi = bn.induced_simulation(a, b)
        if phi is None:
            assert sims == []
        else:
            got = tuple(b.state_index[phi.mapping[s]] for s in a.states)
            assert sims == [got]
        checked += 1
    assert checked > 30


def test_check_relation_modes():
    a = chain("a", "b")
    loops = bn.TransitionSystem.build(
        initial="q", arcs=[("q", "a", "q"), ("q", "b", "q")]
    )
    # the collapsing map exists but is neither injective nor event-reflecting
    assert bn.check_relation(a, loops, "embed") is False
    assert bn.check_relation(a, loops, "langsim") is False
    assert bn.check_relation(a, loops, "realize") is False
    # identity: every mode holds
    for mode in bn.MODES:
        assert bn.check_relation(a, a, mode) is True
    # injective into a longer chain: embedding only
    longer = chain("a", "b", "a")
    assert bn.check_relation(a, longer, "embed") is True
    assert bn.check_relation(a, longer, "langsim") is False
    assert bn.check_relation(a, longer, "realize") is False


def test_simulation_raises_on_a_source_state_it_never_reaches():
    # a constructor-built source may hold states its initial state never
    # reaches; they have no image, so no mode may hold
    b = bn.TransitionSystem.build("s0", [("s0", "a", "s1")])
    a = bn.TransitionSystem(None, ("s0", "s1", "s2"), ("a",), 0, ((0, 0, 1), (2, 0, 0)))
    with pytest.raises(bn.Unreachable) as exc:
        bn.induced_simulation(a, b)
    assert exc.value.state == "s2"
    for mode in bn.MODES:
        with pytest.raises(bn.Unreachable):
            bn.check_relation(a, b, mode)
    # two unreached states, one without arcs: the lower index is named
    a = bn.TransitionSystem(None, ("s0", "s1", "s2", "s3"), ("a",), 0, ((0, 0, 1), (3, 0, 0)))
    with pytest.raises(bn.Unreachable) as exc:
        bn.check_relation(a, b, "embed")
    assert exc.value.state == "s2"
    # the map fails on the tree (b has no a at s1): the walk raises first
    a = bn.TransitionSystem(None, ("s0", "s1", "s2", "s3"), ("a",), 0, ((0, 0, 1), (1, 0, 2)))
    with pytest.raises(bn.Unreachable) as exc:
        bn.induced_simulation(a, b)
    assert exc.value.state == "s3"


def test_check_relation_requires_equal_alphabets():
    with pytest.raises(bn.EventSetMismatch):
        bn.check_relation(chain("a"), chain("a", "b"), "embed")


def test_check_relation_rejects_unknown_mode():
    with pytest.raises(ValueError):
        bn.check_relation(chain("a"), chain("a"), "perform")


def test_modes_constant():
    assert bn.MODES == ("embed", "langsim", "realize")


def test_parse_rejects_repeated_ts_line():
    with pytest.raises(bn.ParseError, match="line 2: duplicate ts declaration"):
        bn.parse_ts("ts a\nts b\ninitial s0\narc s0 x s0\n")


def _name_level_predicates(a, b, mapping):
    """The simulation predicates as they were computed on the name-keyed map:
    (injective, surjective, reflects events)."""
    injective = len(set(mapping.values())) == len(mapping)
    surjective = set(mapping.values()) == set(b.states)
    reflects = all(
        a.has_arc(s, b.events[b.arcs[x][1]])
        for s in a.states
        for x in b.out_arcs[b.state_index[mapping[s]]]
    )
    return injective, surjective, reflects


def _unfolding(rng, b, max_states=6):
    """A random system a whose induced map into b exists: each state of a
    copies a state of b, keeps a random subset of its arcs, and sends each
    kept arc to a new or an existing copy of the arc's target.  Copies make
    the map non-injective, dropped arcs make it non-reflecting, and unreached
    states of b leave it non-surjective."""
    copies = {b.initial: ["c0"]}
    image = {"c0": b.initial}
    arcs = []
    frontier = ["c0"]
    while frontier:
        s = frontier.pop(0)
        for x in b.out_arcs[image[s]]:
            _, ev, dst = b.arcs[x]
            if rng.random() < 0.25:
                continue
            known = copies.setdefault(dst, [])
            if known and (len(image) >= max_states or rng.random() < 0.6):
                d = rng.choice(known)
            else:
                d = "c%d" % len(image)
                image[d] = dst
                known.append(d)
                frontier.append(d)
            arcs.append((s, b.events[ev], d))
    return bn.TransitionSystem.build(initial="c0", arcs=arcs) if arcs else None


def test_simulation_map_matches_name_level_reference():
    rng = random.Random(4242)
    seen = {"none": 0, "not injective": 0, "not reflecting": 0, "not surjective": 0, "iso": 0}
    for trial in range(400):
        b = oracles.random_ts(rng, max_states=5, max_events=3)
        if trial % 4 == 0:
            a = oracles.random_ts(rng, max_states=5, max_events=3)
        else:
            a = _unfolding(rng, b)
        if a is None or set(a.events) != set(b.events):
            continue
        sims = oracles.all_simulations(a, b)
        phi = bn.induced_simulation(a, b)
        if phi is None:
            assert sims == []
            seen["none"] += 1
            want = {mode: False for mode in bn.MODES}
        else:
            mapping = {a.states[s]: b.states[t] for s, t in enumerate(sims[0])}
            assert phi.source is a and phi.target is b
            assert phi.mapping == mapping
            injective, surjective, reflects = _name_level_predicates(a, b, mapping)
            assert phi.is_injective() == injective
            assert phi.is_surjective() == surjective
            assert phi.reflects_events() == reflects
            seen["not injective"] += not injective
            seen["not reflecting"] += not reflects
            seen["not surjective"] += not surjective
            seen["iso"] += injective and reflects and surjective
            want = {
                "embed": injective,
                "langsim": reflects,
                "realize": injective and reflects and surjective,
            }
        for mode in bn.MODES:
            assert bn.check_relation(a, b, mode) == want[mode]
    assert min(seen.values()) >= 10, seen


def test_reflects_events_is_false_for_target_only_events():
    a = chain("a")
    b = bn.TransitionSystem.build(initial="s0", arcs=[("s0", "a", "s1"), ("s1", "b", "s0")])
    phi = bn.induced_simulation(a, b)
    assert phi.is_injective() and phi.is_surjective()
    assert not phi.reflects_events()


def test_a_system_is_walked_once(monkeypatch):
    """The spanning tree is walked on first use and kept: parsing a system,
    then synthesizing a net for it and verifying that net, walks it once.
    A walk that raises Unreachable is not kept, so it raises every time."""
    walks = []
    walk = bn.ts.spanning_tree

    def counted(*args):
        walks.append(args)
        return walk(*args)

    monkeypatch.setattr(bn.ts, "spanning_tree", counted)
    ts = bn.parse_ts("initial s0\narc s0 a s1\narc s1 b s0\narc s1 a s1\n")
    assert len(walks) == 1
    result = bn.synthesize(ts, bn.BooleanType.of("nop", "inp", "set", "swap"), "realize")
    assert isinstance(result, bn.SynthesisResult) and result.verified
    assert len(walks) == 1 and ts.walk() is ts.walk()
    relaxed = bn.TransitionSystem(None, ("s0", "s1", "s2"), ("a",), 0, ((0, 0, 1),))
    for _ in range(2):
        with pytest.raises(bn.Unreachable):
            relaxed.walk()
    assert len(walks) == 3


@pytest.mark.parametrize(
    "kwargs, error, message",
    [
        (dict(initial=None, arcs=[("a", "x", "a")]), bn.NoInitial, "no initial state declared"),
        (dict(initial="a", arcs=[("a", "x", "a")], states=["a", "a"]), bn.ParseError, "duplicate state 'a'"),
        (dict(initial="a", arcs=[("a", "x", "a")], events=["x", "x"]), bn.ParseError, "duplicate event 'x'"),
        (
            dict(initial="a", arcs=[("q", "x", "a")], states=["a"]),
            bn.UnknownId,
            "unknown identifier 'q' (arc source)",
        ),
        (
            dict(initial="a", arcs=[("a", "x", "a"), ("a", "y", "a")], events=["x"]),
            bn.UnknownId,
            "unknown identifier 'y' (arc event)",
        ),
    ],
)
def test_build_rejects_what_the_explicit_lists_do_not_allow(kwargs, error, message):
    with pytest.raises(error) as info:
        bn.TransitionSystem.build(**kwargs)
    assert type(info.value) is error
    assert str(info.value) == message
