"""Property-based checks over generated systems, regions, plans, and nets."""

import warnings

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

import boolnet as bn
from boolnet import _solver_py
from boolnet.regions import CompiledProblem
import oracles

RELAXED = dict(deadline=None, suppress_health_check=list(HealthCheck))

TAUS = [
    bn.BooleanType.of("nop", "inp", "swap"),
    bn.BooleanType.of("nop", "swap", "used"),
    bn.BooleanType.of("nop", "out", "free"),
    bn.BooleanType.of("nop", "set", "res"),
    bn.BooleanType.of("nop", "swap"),
]

# tag dual under support flipping
FLIP = {
    "nop": "nop",
    "swap": "swap",
    "inp": "out",
    "out": "inp",
    "used": "free",
    "free": "used",
    "set": "res",
    "res": "set",
}


@st.composite
def systems(draw, max_states=5, max_events=3):
    n = draw(st.integers(2, max_states))
    m = draw(st.integers(1, max_events))
    tail = draw(st.permutations(list(range(1, n))))
    order = [0] + list(tail)
    delta = {}
    for i in range(1, n):
        delta[(order[i - 1], draw(st.integers(0, m - 1)))] = order[i]
    extras = draw(
        st.dictionaries(
            st.tuples(st.integers(0, n - 1), st.integers(0, m - 1)),
            st.integers(0, n - 1),
            max_size=2 * n,
        )
    )
    for k, v in extras.items():
        delta.setdefault(k, v)
    used = sorted({e for (_, e) in delta})
    dense = {e: i for i, e in enumerate(used)}
    arcs = [
        ("s%d" % s, "abcde"[dense[e]], "s%d" % d) for (s, e), d in sorted(delta.items())
    ]
    return bn.TransitionSystem.build(initial="s0", arcs=arcs)


@st.composite
def nets(draw):
    tau = draw(st.sampled_from(TAUS))
    places = ["p%d" % i for i in range(draw(st.integers(1, 3)))]
    transitions = ["t%d" % i for i in range(draw(st.integers(1, 2)))]
    flow = {
        (p, t): draw(st.sampled_from(list(tau))) for p in places for t in transitions
    }
    m0 = tuple(draw(st.integers(0, 1)) for _ in places)
    return bn.BooleanNet(None, tau, tuple(places), tuple(transitions), flow, m0)


@settings(max_examples=60, **RELAXED)
@given(systems())
def test_ts_serialization_round_trips(ts):
    back = bn.parse_ts(bn.serialize_ts(ts))
    assert (back.states, back.events, back.arcs, back.initial) == (
        ts.states,
        ts.events,
        ts.arcs,
        ts.initial,
    )


@settings(max_examples=40, **RELAXED)
@given(systems(max_states=4, max_events=2), st.sampled_from(TAUS))
def test_enumerated_regions_validate_and_round_trip(ts, tau):
    for sup, sig in oracles.enumerate_regions(ts, tau)[:6]:
        region = bn.Region(sup, sig)
        assert bn.validate_region(ts, tau, region)
        assert bn.parse_regions(bn.serialize_regions([region])) == [region]


@settings(max_examples=40, **RELAXED)
@given(systems(max_states=4, max_events=2), st.sampled_from(TAUS))
def test_support_flip_dualizes_regions(ts, tau):
    dual = bn.BooleanType.of(*(FLIP[t] for t in tau))
    for sup, sig in oracles.enumerate_regions(ts, tau)[:6]:
        flipped = bn.Region(
            {s: 1 - b for s, b in sup.items()}, {e: FLIP[t] for e, t in sig.items()}
        )
        assert bn.validate_region(ts, dual, flipped)


@settings(max_examples=30, **RELAXED)
@given(systems(max_states=4, max_events=2), st.sampled_from(TAUS))
def test_both_property_is_the_conjunction(ts, tau):
    both = bn.has_property(ts, tau, "both")
    assert both == (bn.has_property(ts, tau, "ssp") and bn.has_property(ts, tau, "essp"))


@settings(max_examples=30, **RELAXED)
@given(systems(max_states=4, max_events=2), st.sampled_from(TAUS))
def test_solver_agrees_with_enumeration(ts, tau):
    regions = oracles.enumerate_regions(ts, tau)
    for atom in bn.atoms(ts):
        got = bn.solve_atom(ts, tau, atom)
        want = oracles.brute_solve_atom(ts, tau, (atom.kind, atom.first, atom.second), regions)
        assert (got is not None) == want


@settings(max_examples=40, **RELAXED)
@given(systems(max_states=7, max_events=3), st.sampled_from(TAUS))
def test_kernel_core_request_leaves_the_search_alone(ts, tau):
    """Asking the kernel for a refutation core changes only the core slot."""
    problem = CompiledProblem(ts, tau)
    for atom in bn.atoms(ts):
        kind, a, b = problem.atom_args(atom)
        for limit in (-1, 0, 1, 3, 12):
            plain = _solver_py.solve(problem.handle, kind, a, b, limit, False)
            cored = _solver_py.solve(problem.handle, kind, a, b, limit, True)
            assert plain[:4] == cored[:4]
            assert plain[4] == 0


@settings(max_examples=20, **RELAXED)
@given(
    systems(max_states=4, max_events=2),
    st.sampled_from(["edge", "event", "state"]),
    st.sampled_from(list(bn.MODES)),
    st.integers(0, 2),
)
def test_decide_is_budget_monotone(ts, kind, mode, kappa):
    tau = bn.BooleanType.of("nop", "inp", "swap")
    first = bn.decide(ts, tau, kind, mode, kappa)
    if first is not None:
        assert first.cost <= kappa
        again = bn.decide(ts, tau, kind, mode, kappa + 1)
        assert again is not None
        assert again.cost <= first.cost


@settings(max_examples=20, **RELAXED)
@given(systems(max_states=4, max_events=2), st.sampled_from(list(bn.MODES)))
def test_split_plans_preserve_shape(ts, mode):
    tau = bn.BooleanType.of("nop", "inp", "swap")
    plan = bn.decide(ts, tau, "split", mode, len(ts.events) + 2)
    if plan is None:
        return
    out = bn.apply_plan(ts, plan)
    assert out.states == ts.states
    assert len(out.arcs) == len(ts.arcs)
    assert len(out.events) == plan.cost
    assert bn.parse_plan(bn.serialize_plan(plan)) == plan


@settings(max_examples=30, **RELAXED)
@given(nets())
def test_reachability_graphs_realize_over_their_type(net):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rg = bn.reachability_graph(net)
    if not rg.events:
        return
    res = bn.synthesize(rg, net.tau, "realize")
    assert isinstance(res, bn.SynthesisResult)
    assert res.verified
    assert bn.verify_implementation(rg, res.net, "realize")
