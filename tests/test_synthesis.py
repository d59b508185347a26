"""Net synthesis and implementation verification."""

import random
import warnings

import pytest

import boolnet as bn
import oracles
from boolnet.ts import spanning_tree

TAU = bn.BooleanType.of("nop", "inp", "swap")


def splittable():
    return bn.TransitionSystem.build(
        initial="t0", arcs=[("t0", "a", "t1"), ("t1", "a'", "t2")]
    )


def test_net_from_witness_structure():
    ts = splittable()
    w = bn.decide_property(ts, TAU, "both")
    net = bn.net_from_witness(ts, TAU, w)
    assert net.places == ("R1", "R2")
    assert net.transitions == ("a", "a'")
    # initial marking reads the supports at the initial state
    assert net.m0 == tuple(r.support["t0"] for r in w.regions)
    assert net.flow[("R1", "a")] == w.regions[0].signature["a"]
    assert net.flow[("R2", "a'")] == w.regions[1].signature["a'"]


def test_net_from_witness_rejects_a_region_without_an_event():
    ts = splittable()
    w = bn.decide_property(ts, TAU, "both")
    del w.regions[1].signature["a'"]
    with pytest.raises(bn.DomainMismatch, match="a'"):
        bn.net_from_witness(ts, TAU, w)


def test_synthesize_realize_golden():
    res = bn.synthesize(splittable(), TAU, "realize")
    assert isinstance(res, bn.SynthesisResult)
    assert res.verified and res.mode == "realize"
    rg = bn.reachability_graph(res.net)
    assert rg.states == ("(1,0)", "(0,1)", "(0,0)")
    assert bn.check_relation(splittable(), rg, "realize")


def test_synthesize_reports_failure_atom():
    A = bn.TransitionSystem.build(
        initial="t0", arcs=[("t0", "a", "t1"), ("t1", "a", "t2")]
    )
    out = bn.synthesize(A, TAU, "realize")
    assert isinstance(out, bn.SeparationAtom)
    assert str(out) == "(t0,t2)"
    # embedding only needs state separation, which also fails here
    assert isinstance(bn.synthesize(A, TAU, "embed"), bn.SeparationAtom)


def test_verify_implementation_swap_loop():
    # one swap place loops forever: fine as an embedding, but it neither
    # reflects events nor realizes the two-step chain
    chain = bn.TransitionSystem.build(initial="s0", arcs=[("s0", "a", "s1")])
    net = bn.BooleanNet(
        None, bn.BooleanType.of("nop", "swap"), ("p",), ("a",), {("p", "a"): "swap"}, (0,)
    )
    assert bn.verify_implementation(chain, net, "embed") is True
    assert bn.verify_implementation(chain, net, "langsim") is False
    assert bn.verify_implementation(chain, net, "realize") is False


def test_verify_implementation_requires_matching_transitions():
    chain = bn.TransitionSystem.build(initial="s0", arcs=[("s0", "a", "s1")])
    net = bn.BooleanNet(
        None, bn.BooleanType.of("nop", "inp"), ("p",), ("b",), {("p", "b"): "inp"}, (1,)
    )
    with pytest.raises(bn.EventSetMismatch):
        bn.verify_implementation(chain, net, "embed")


def test_verify_implementation_extra_dead_transition_is_harmless():
    ts = splittable()
    w = bn.decide_property(ts, TAU, "both")
    net = bn.net_from_witness(ts, TAU, w)
    extra = bn.BooleanNet(
        None,
        TAU,
        net.places,
        net.transitions + ("zz",),
        {**net.flow, ("R1", "zz"): "inp", ("R2", "zz"): "inp"},
        net.m0,
    )
    # zz needs tokens in both places at once, which never happens
    with pytest.warns(UserWarning, match="dead"):
        assert bn.verify_implementation(ts, extra, "realize") is True


def test_verify_implementation_live_extra_transition_fails():
    ts = splittable()
    w = bn.decide_property(ts, TAU, "both")
    net = bn.net_from_witness(ts, TAU, w)
    extra = bn.BooleanNet(
        None, TAU, net.places, net.transitions + ("zz",), dict(net.flow), net.m0
    )
    # zz is all-nop, so it fires everywhere and enlarges the alphabet
    assert bn.verify_implementation(ts, extra, "realize") is False


def test_verify_implementation_raises_on_an_unreached_state():
    # s2 and its arc have no image in any net's reachability graph
    ts = bn.TransitionSystem(None, ("s0", "s1", "s2"), ("a",), 0, ((0, 0, 1), (2, 0, 0)))
    chain = bn.TransitionSystem.build("s0", [("s0", "a", "s1")])
    net = bn.synthesize(chain, TAU, "realize").net
    with pytest.raises(bn.Unreachable):
        bn.verify_implementation(ts, net, "realize")
    # s2 without arcs, and synthesis itself on the relaxed system
    ts = bn.TransitionSystem(None, ("s0", "s1", "s2"), ("a",), 0, ((0, 0, 1),))
    for mode in bn.MODES:
        with pytest.raises(bn.Unreachable) as exc:
            bn.verify_implementation(ts, net, mode)
        assert exc.value.state == "s2"
        with pytest.raises(bn.Unreachable) as exc:
            bn.synthesize(ts, TAU, mode)
        assert exc.value.state == "s2"
    # b occurs only at s2 and never fires in the net, so the live alphabets
    # differ; the unreached state still raises rather than answering False
    ts = bn.TransitionSystem(None, ("s0", "s1", "s2"), ("a", "b"), 0, ((0, 0, 1), (2, 1, 0)))
    net = bn.BooleanNet(None, TAU, ("p",), ("a", "b"), {("p", "b"): "inp"}, (0,))
    with pytest.warns(UserWarning, match="dead transitions"):
        with pytest.raises(bn.Unreachable) as exc:
            bn.verify_implementation(ts, net, "langsim")
    assert exc.value.state == "s2"


def test_synthesize_checks_the_system_as_build_does():
    # b has no arc, so build rejects the system; its property holds, but
    # without the check langsim and realize fail their own verification
    ts = bn.TransitionSystem(None, ("s0", "s1"), ("a", "b"), 0, ((0, 0, 1), (1, 0, 0)))
    for mode in bn.MODES:
        with pytest.raises(bn.UselessEvent) as exc:
            bn.synthesize(ts, TAU, mode)
        assert exc.value.event == "b"
    # as in build, an unreached state is reported first
    ts = bn.TransitionSystem(None, ("s0", "s1", "s2"), ("a", "b"), 0, ((0, 0, 1),))
    with pytest.raises(bn.Unreachable) as exc:
        bn.synthesize(ts, TAU, "embed")
    assert exc.value.state == "s2"


def test_synthesized_nets_verify_for_their_mode():
    rng = random.Random(60902)
    produced = 0
    for _ in range(60):
        ts = oracles.random_ts(rng, max_states=5, max_events=2)
        for mode in bn.MODES:
            res = bn.synthesize(ts, TAU, mode)
            if isinstance(res, bn.SynthesisResult):
                assert res.verified
                assert bn.verify_implementation(ts, res.net, mode)
                produced += 1
    assert produced > 10


def test_reachability_graphs_synthesize_back():
    # systems that literally are reachability graphs always realize
    rng = random.Random(1905)
    done = 0
    for _ in range(40):
        net = oracles.random_net(rng, tau=TAU, max_places=3, max_transitions=2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rg = bn.reachability_graph(net)
        if not rg.events:
            continue
        res = bn.synthesize(rg, TAU, "realize")
        assert isinstance(res, bn.SynthesisResult), rg
        assert res.verified
        done += 1
    assert done > 10


def test_synthesize_rejects_unknown_mode():
    with pytest.raises(ValueError):
        bn.synthesize(splittable(), TAU, "perform")


def test_synthesis_check_stays_in_index_space(monkeypatch):
    # the check after synthesis builds the reachability graph from index
    # arcs and compares systems on the index map, so it never interns names
    # through TransitionSystem.build nor looks arcs up by name
    rng = random.Random(7723)
    taus = [TAU, bn.BooleanType.of("nop", "set", "swap"), bn.BooleanType.of("nop", "inp", "res", "used")]
    corpus = [oracles.random_ts(rng, max_states=5, max_events=3) for _ in range(25)]
    corpus += [splittable()]
    # reachability graphs realize under their own type
    while len(corpus) < 36:
        net = oracles.random_net(rng, tau=TAU, max_places=3, max_transitions=3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rg = bn.reachability_graph(net)
        if rg.events:
            corpus.append(rg)

    def outcomes():
        out = []
        for ts in corpus:
            for tau in taus:
                for mode in bn.MODES:
                    res = bn.synthesize(ts, tau, mode)
                    if isinstance(res, bn.SynthesisResult):
                        out.append((bn.serialize_net(res.net), res.witness, res.verified))
                    else:
                        out.append(res)
        return out

    want = outcomes()

    def forbidden(*args, **kwargs):
        raise AssertionError("name-level call in the synthesis check")

    monkeypatch.setattr(bn.TransitionSystem, "build", forbidden)
    monkeypatch.setattr(bn.TransitionSystem, "has_arc", forbidden)
    assert outcomes() == want
    per_mode = [sum(isinstance(r, tuple) for r in want[k::3]) for k in range(3)]
    assert min(per_mode) >= 10, per_mode


# -- the lockstep check against the full reachability graph -------------------------


def reference_verify(ts, net, mode):
    """verify_implementation as it was before the lockstep check: the net's
    whole reachability graph, its live alphabet, then check_relation."""
    if mode not in bn.MODES:
        raise ValueError(f"unknown mode {mode!r}")
    missing = set(ts.events) - set(net.transitions)
    if missing:
        raise bn.EventSetMismatch(f"net lacks transitions for events: {sorted(missing)}")
    rg = bn.reachability_graph(net)
    if set(rg.events) != set(ts.events):
        spanning_tree(ts.initial, ts.arcs, ts.out_arcs, ts.states)  # Unreachable before False
        return False
    return bn.check_relation(ts, rg, mode)


def outcome(fn, *args):
    """What a call did: its result or exception (class and message), and
    every warning it gave, in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            got = ("result", fn(*args))
        except (bn.BoolnetError, ValueError) as exc:
            got = ("raised", type(exc), str(exc))
    return got, [(w.category, str(w.message)) for w in caught]


def _mutated_flow(rng, net):
    p, t = rng.choice(net.places), rng.choice(net.transitions)
    flow = dict(net.flow)
    flow[(p, t)] = rng.choice([tag for tag in net.tau if tag != flow[(p, t)]] or ["nop"])
    return bn.BooleanNet(None, net.tau, net.places, net.transitions, flow, net.m0)


def _mutated_m0(rng, net):
    k = rng.randrange(len(net.places))
    m0 = tuple(b ^ (i == k) for i, b in enumerate(net.m0))
    return bn.BooleanNet(None, net.tau, net.places, net.transitions, net.flow, m0)


def _with_extra_transition(rng, net):
    tags = list(net.tau)
    flow = {**net.flow, **{(p, "zz"): rng.choice(tags) for p in net.places}}
    return bn.BooleanNet(None, net.tau, net.places, net.transitions + ("zz",), flow, net.m0)


def _reversed(net):
    return bn.BooleanNet(None, net.tau, net.places, net.transitions[::-1], net.flow, net.m0)


def _unreached(ts, rng):
    """ts with a state its initial state never reaches, with or without an
    arc."""
    arcs = ts.arcs + (((len(ts.states), 0, 0),) if rng.random() < 0.5 else ())
    return bn.TransitionSystem(None, ts.states + ("zz",), ts.events, ts.initial, arcs)


def verification_corpus(seed):
    """(system, net) pairs: synthesized nets and nets read off reachability
    graphs, each also mutated in its flow or m0, given an extra transition
    zz, with its transitions reordered, against the system with zz as an
    event without arcs (with and without the extra transition), and against
    the system with an unreached state."""
    rng = random.Random(seed)
    exact = []
    for _ in range(30):
        ts = oracles.random_ts(rng, max_states=6, max_events=3)
        tau = rng.choice([TAU, bn.BooleanType.of("nop", "set", "swap"), oracles.TAU_B])
        for mode in bn.MODES:
            res = bn.synthesize(ts, tau, mode)
            if isinstance(res, bn.SynthesisResult):
                exact.append((ts, res.net))
    for _ in range(30):
        net = oracles.random_net(rng, max_places=4, max_transitions=3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rg = bn.reachability_graph(net)
        if rg.events:
            exact.append((rg, net))
    pairs = list(exact)
    for ts, net in exact:
        extra = _with_extra_transition(rng, net)
        arcless = bn.TransitionSystem(None, ts.states, ts.events + ("zz",), ts.initial, ts.arcs)
        pairs += [(ts, extra), (arcless, extra), (arcless, net), (ts, _reversed(net))]
        pairs.append((_unreached(ts, rng), net))
        if net.places:
            pairs += [(ts, _mutated_flow(rng, net)), (ts, _mutated_m0(rng, net))]
    chain = bn.TransitionSystem.build("s0", [("s0", "a", "s1")])
    wide = tuple(f"p{k}" for k in range(bn.PLACE_BOUND + 1))
    pairs.append((chain, bn.BooleanNet(None, TAU, wide, ("a",), {}, (0,) * len(wide))))
    return pairs


def test_verify_implementation_matches_the_full_reachability_graph():
    seen = set()
    for ts, net in verification_corpus(5151):
        for mode in bn.MODES + ("perform",):
            want = outcome(reference_verify, ts, net, mode)
            assert outcome(bn.verify_implementation, ts, net, mode) == want, (ts, net, mode)
            (kind, *what), caught = want
            seen.add(what[0] if kind == "result" else what[0].__name__)
            seen.update("warned" for _ in caught)
    assert seen == {
        True, False, "warned", "ValueError", "EventSetMismatch", "PlaceBoundExceeded",
        "Unreachable",
    }


def path_ts(k):
    """q0 -f0-> q1 -f1-> ... -f(k-1)-> qk: k distinct events, each once."""
    return bn.TransitionSystem.build("q0", [(f"q{i}", f"f{i}", f"q{i + 1}") for i in range(k)])


def test_verification_of_synthesized_nets_builds_no_reachability_graph(monkeypatch):
    rng = random.Random(31)
    corpus = [(oracles.random_ts(rng, max_states=6, max_events=3), mode)
              for _ in range(20) for mode in bn.MODES]
    corpus += [(splittable(), mode) for mode in bn.MODES]
    nets = [(ts, bn.synthesize(ts, TAU, mode), mode) for ts, mode in corpus]
    nets = [(ts, res.net, mode) for ts, res, mode in nets if isinstance(res, bn.SynthesisResult)]
    assert {mode for _, _, mode in nets} == set(bn.MODES)
    # under embed the net need only tell the states apart: one swap place
    # per event gives 11 states 1,024 markings
    wide = path_ts(10)
    wide_net = bn.synthesize(wide, bn.BooleanType.of("nop", "swap"), "embed").net
    assert len(bn.reachability_graph(wide_net).states) == 1024
    nets.append((wide, wide_net, "embed"))

    def forbidden(net):
        raise AssertionError("verification built a reachability graph")

    monkeypatch.setattr(bn.synthesis, "reachability_graph", forbidden)
    for ts, net, mode in nets:
        assert bn.verify_implementation(ts, net, mode) is True
    assert isinstance(bn.synthesize(wide, bn.BooleanType.of("nop", "swap"), "embed"),
                      bn.SynthesisResult)
