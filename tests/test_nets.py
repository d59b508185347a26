"""Boolean nets: firing, reachability graphs, parsing."""

import random
import warnings

import pytest

import boolnet as bn
import oracles

TAU = bn.BooleanType.of("nop", "inp", "swap")


def walkthrough_net():
    """Two places, two transitions; its reachability graph is a 3-chain."""
    return bn.BooleanNet(
        "demo",
        TAU,
        ("R1", "R2"),
        ("a", "a'"),
        {("R1", "a"): "inp", ("R2", "a"): "swap", ("R2", "a'"): "inp"},
        (1, 0),
    )


def test_marking_text():
    assert bn.Marking((1, 0, 1)).text() == "(1,0,1)"


def test_fire_golden():
    net = walkthrough_net()
    assert net.fire((1, 0), "a").bits == (0, 1)
    assert net.fire((0, 1), "a'").bits == (0, 0)
    assert net.fire((0, 0), "a") is None  # inp needs a token in R1
    assert net.fire(bn.Marking((1, 0)), "a").bits == (0, 1)
    with pytest.raises(bn.UnknownTransition):
        net.fire((1, 0), "zz")


@pytest.mark.parametrize("bits", [(0,), (0, 1, 1), (0, 2), (1, 1.0), (0, None), ()])
def test_fire_rejects_a_marking_that_is_not_one_bit_per_place(bits):
    with pytest.raises(ValueError, match="2 places"):
        walkthrough_net().fire(bits, "a'")


def test_implicit_flow_defaults_to_nop():
    net = walkthrough_net()
    assert net.flow[("R1", "a'")] == "nop"


def test_constructor_rejections():
    with pytest.raises(bn.ParseError):
        bn.BooleanNet(None, TAU, ("p", "p"), ("t",), {}, (0, 0))
    with pytest.raises(bn.ParseError):
        bn.BooleanNet(None, TAU, ("p",), ("t", "t"), {}, (0,))
    with pytest.raises(bn.ParseError):
        bn.BooleanNet(None, TAU, ("p",), ("t",), {}, (0, 1))
    with pytest.raises(bn.ParseError):
        bn.BooleanNet(None, TAU, ("p",), ("t",), {("q", "t"): "nop"}, (0,))
    with pytest.raises(bn.ParseError):
        bn.BooleanNet(None, TAU, ("p",), ("t",), {("p", "u"): "nop"}, (0,))
    # flow outside the declared type
    with pytest.raises(bn.ParseError):
        bn.BooleanNet(None, TAU, ("p",), ("t",), {("p", "t"): "set"}, (0,))
    # implicit nop requires nop in the type
    with pytest.raises(bn.ParseError):
        bn.BooleanNet(None, bn.BooleanType.of("swap"), ("p",), ("t",), {}, (0,))
    # an initial marking bit other than 0 or 1 would name the initial state
    # (2) and fail to fire
    for bit in (2, -1, 1.5, "x", None):
        with pytest.raises(bn.ParseError, match="0 or 1"):
            bn.BooleanNet(None, TAU, ("p",), ("t",), {("p", "t"): "inp"}, (bit,))


def test_reachability_golden():
    rg = bn.reachability_graph(walkthrough_net())
    assert rg.states == ("(1,0)", "(0,1)", "(0,0)")
    assert rg.events == ("a", "a'")
    assert rg.arcs == ((0, 0, 1), (1, 1, 2))
    assert rg.initial == 0


def test_reachability_drops_dead_transitions_with_warning():
    net = bn.BooleanNet(
        None,
        bn.BooleanType.of("nop", "used"),
        ("p",),
        ("t",),
        {("p", "t"): "used"},
        (0,),
    )
    with pytest.warns(UserWarning, match="dead"):
        rg = bn.reachability_graph(net)
    assert rg.states == ("(0)",)
    assert rg.events == ()


def test_reachability_place_bound():
    places = tuple("p%d" % i for i in range(bn.nets.PLACE_BOUND + 1))
    net = bn.BooleanNet(None, TAU, places, ("t",), {}, (0,) * len(places))
    with pytest.raises(bn.PlaceBoundExceeded):
        bn.reachability_graph(net)


def test_reachability_matches_naive_exploration():
    rng = random.Random(821)
    for _ in range(150):
        net = oracles.random_net(rng)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rg = bn.reachability_graph(net)
        want = oracles.naive_reachability(net)
        assert rg == want and rg.name == want.name


def test_serialize_parse_round_trip():
    net = walkthrough_net()
    back = bn.parse_net(bn.serialize_net(net))
    assert back.places == net.places
    assert back.transitions == net.transitions
    assert back.flow == net.flow
    assert back.m0 == net.m0
    assert back.tau.canonical() == net.tau.canonical()


def test_parse_golden():
    net = bn.parse_net(
        """
        net n1
        type nop,inp,swap
        place R1 1
        place R2 0
        trans a
        flow R1 a inp
        """
    )
    assert net.m0 == (1, 0)
    assert net.flow[("R1", "a")] == "inp"
    assert net.flow[("R2", "a")] == "nop"


def test_parse_strict_requires_full_flow():
    text = """
    type nop,inp
    place p 0
    trans t
    """
    assert bn.parse_net(text).flow[("p", "t")] == "nop"
    with pytest.raises(bn.ParseError, match=r"^strict mode: flow p/t undeclared$"):
        bn.parse_net(text, strict=True)


# Each input holds one error: the exception class and its whole message,
# `line N:` prefix included, for every error parse_net raises.
PARSE_ERRORS = {
    "place p 0\ntrans t": (bn.ParseError, "missing `type` declaration"),
    "type nop\nplace p 2\ntrans t": (bn.ParseError, "line 2: expected `place <name> <0|1>`"),
    "type nop\nplace p 0\nplace p 1\ntrans t": (bn.ParseError, "duplicate place name"),
    "type nop\nplace p 0\ntrans t\nflow p t inp": (bn.ParseError, "flow p/t uses 'inp' outside type nop"),
    "type nop\nplace p 0\ntrans t\nflow p t nop\nflow p t nop": (
        bn.ParseError,
        "line 5: duplicate flow entry ('p', 't')",
    ),
    "type nop\nplace p 0\ntrans t\nwibble": (bn.ParseError, "line 4: unknown directive 'wibble'"),
    "net\ntype nop": (bn.ParseError, "line 1: expected `net <name>`"),
    "net a b\ntype nop": (bn.ParseError, "line 1: expected `net <name>`"),
    "net a\ntype nop\nnet b": (bn.ParseError, "line 3: duplicate net declaration"),
    "type\nplace p 0": (bn.ParseError, "line 1: expected `type <tags>`"),
    "type nop\ntype nop": (bn.ParseError, "line 2: duplicate type declaration"),
    "type nop,knop": (bn.UnknownInteraction, "unknown interaction 'knop'"),
    "type nop\nplace p": (bn.ParseError, "line 2: expected `place <name> <0|1>`"),
    "type nop\nplace p 0 1": (bn.ParseError, "line 2: expected `place <name> <0|1>`"),
    "type nop\ntrans": (bn.ParseError, "line 2: expected `trans <name>`"),
    "type nop\ntrans t u": (bn.ParseError, "line 2: expected `trans <name>`"),
    "type nop\nplace p 0\ntrans t\nflow p t": (
        bn.ParseError,
        "line 4: expected `flow <place> <trans> <interaction>`",
    ),
    "type nop\nplace p 0\ntrans t\nflow p t nop x": (
        bn.ParseError,
        "line 4: expected `flow <place> <trans> <interaction>`",
    ),
    "type nop\nplace p 0\ntrans t\nflow p t knop": (bn.UnknownInteraction, "unknown interaction 'knop'"),
    "type nop inp\nplace p 0\ntrans t\nflow p t inp\nedge a b": (
        bn.ParseError,
        "line 5: unknown directive 'edge'",
    ),
    "type nop\ntrans t\nflow p t nop": (bn.ParseError, "flow references unknown place 'p'"),
    "type nop\nplace p 0\nflow p t nop": (bn.ParseError, "flow references unknown transition 't'"),
    "type nop\nplace p$ 0": (bn.ParseError, "bad place name 'p$'"),
    "type nop\ntrans t$": (bn.ParseError, "bad transition name 't$'"),
    "type nop\ntrans t\ntrans t": (bn.ParseError, "duplicate transition name"),
}


@pytest.mark.parametrize("text", list(PARSE_ERRORS))
def test_parse_rejects(text):
    exc, message = PARSE_ERRORS[text]
    with pytest.raises(exc) as info:
        bn.parse_net(text)
    assert type(info.value) is exc
    assert str(info.value) == message


def test_dot_output_smoke():
    dot = bn.net_to_dot(walkthrough_net())
    assert dot.startswith("digraph")
    assert "R1" in dot and "a'" in dot


@pytest.mark.parametrize(
    "text, line",
    [
        ("type nop,inp\ntype set\nplace p 0\ntrans t\nflow p t set\n", "line 2: duplicate type"),
        ("net a\ntype nop\nnet b\nplace p 0\n", "line 3: duplicate net"),
    ],
    ids=["type", "net"],
)
def test_parse_rejects_repeated_header_line(text, line):
    with pytest.raises(bn.ParseError, match=line):
        bn.parse_net(text)


def test_reachability_graph_matches_name_level_build():
    rng = random.Random(2718)
    nets = [bn.BooleanNet("empty", TAU, (), ("t", "u"), {}, ())]
    for k in range(300):
        net = oracles.random_net(rng, max_places=5, max_transitions=4)
        if k % 2:
            net = bn.BooleanNet("n%d" % k, net.tau, net.places, net.transitions, net.flow, net.m0)
        nets.append(net)
    with_dead = 0
    for net in nets:
        want = oracles.naive_reachability(net)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rg = bn.reachability_graph(net)
        assert rg == want and rg.name == want.name
        dead = len(want.events) < len(net.transitions)
        assert bool(caught) == dead
        with_dead += dead
    assert with_dead >= 30


def test_net_names_are_checked_when_the_net_is_built():
    # a bad name is an error whether or not its transition ever fires
    live = (("é",), {})
    dead = (("ok", "é"), {("p", "é"): "inp"})
    for transitions, flow in (live, dead):
        with pytest.raises(bn.ParseError, match="bad transition name 'é'"):
            bn.BooleanNet(None, TAU, ("p",), transitions, flow, (0,))
    with pytest.raises(bn.ParseError, match="bad place name 'é'"):
        bn.BooleanNet(None, TAU, ("é",), ("t",), {}, (0,))
    for text, what in [
        ("type nop,inp\nplace p 0\ntrans é\n", "transition"),
        ("type nop,inp\nplace p 0\ntrans ok\ntrans é\nflow p é inp\n", "transition"),
        ("type nop,inp\nplace é 0\ntrans t\n", "place"),
    ]:
        with pytest.raises(bn.ParseError, match=f"bad {what} name 'é'"):
            bn.parse_net(text)
