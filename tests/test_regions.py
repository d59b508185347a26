"""Region validity, atom solving, property decisions."""

import itertools
import random

import pytest

import boolnet as bn
import oracles
from boolnet import _solver_py
from boolnet.interactions import INTERACTIONS

TAU = bn.BooleanType.of("nop", "inp", "swap")


def walkthrough():
    return bn.TransitionSystem.build(
        initial="t0", arcs=[("t0", "a", "t1"), ("t1", "a", "t2")]
    )


def test_atom_constructor_validation():
    with pytest.raises(ValueError):
        bn.SeparationAtom("ssp", "x", "x")
    with pytest.raises(ValueError):
        bn.SeparationAtom("zzz", "x", "y")
    assert str(bn.SeparationAtom("essp", "a", "s")) == "(a,s)"


def test_atoms_canonical_order():
    got = [(a.kind, str(a)) for a in bn.atoms(walkthrough())]
    assert got == [
        ("ssp", "(t0,t1)"),
        ("ssp", "(t0,t2)"),
        ("ssp", "(t1,t2)"),
        ("essp", "(a,t2)"),
    ]


def test_region_solves_semantics():
    r = bn.Region({"t0": 0, "t1": 1, "t2": 0}, {"a": "swap"})
    assert r.solves(bn.SeparationAtom("ssp", "t0", "t1"))
    assert not r.solves(bn.SeparationAtom("ssp", "t0", "t2"))
    # swap is total, so no event separation from this region
    assert not r.solves(bn.SeparationAtom("essp", "a", "t2"))
    ri = bn.Region({"t0": 1, "t1": 0, "t2": 0}, {"a": "inp"})
    assert ri.solves(bn.SeparationAtom("essp", "a", "t1"))


def test_validate_region():
    ts = walkthrough()
    assert bn.validate_region(ts, TAU, bn.Region({"t0": 0, "t1": 1, "t2": 0}, {"a": "swap"}))
    # arc image mismatch
    assert not bn.validate_region(ts, TAU, bn.Region({"t0": 0, "t1": 0, "t2": 1}, {"a": "swap"}))
    # tag outside the type
    assert not bn.validate_region(ts, bn.BooleanType.of("nop"), bn.Region({"t0": 0, "t1": 0, "t2": 0}, {"a": "swap"}))
    with pytest.raises(bn.DomainMismatch):
        bn.validate_region(ts, TAU, bn.Region({"t0": 0}, {"a": "nop"}))
    with pytest.raises(bn.DomainMismatch):
        bn.validate_region(ts, TAU, bn.Region({"t0": 0, "t1": 0, "t2": 0}, {"b": "nop"}))
    for value in (2, -1, 1.0, "1"):
        with pytest.raises(bn.DomainMismatch, match="0 or 1"):
            bn.validate_region(ts, TAU, bn.Region({"t0": value, "t1": 0, "t2": 0}, {"a": "nop"}))
    # bools are ints
    assert bn.validate_region(ts, TAU, bn.Region({"t0": False, "t1": True, "t2": 0}, {"a": "swap"}))


def test_complete_region():
    ts = walkthrough()
    r = bn.complete_region(ts, TAU, 0, {"a": "swap"})
    assert r is not None and r.support == {"t0": 0, "t1": 1, "t2": 0}
    # inp twice from 1 runs off the table
    assert bn.complete_region(ts, TAU, 1, {"a": "inp"}) is None
    with pytest.raises(bn.DomainMismatch):
        bn.complete_region(ts, TAU, 0, {"zz": "nop"})


def test_complete_region_rejects_an_initial_support_outside_0_1():
    ts = bn.TransitionSystem.build(initial="a", arcs=[("a", "x", "b")])
    tau = bn.BooleanType.of("nop", "swap")
    for sup_iota in (2, -1):
        with pytest.raises(bn.DomainMismatch, match="0 or 1"):
            bn.complete_region(ts, tau, sup_iota, {"x": "swap"})


def test_complete_region_matches_enumeration():
    """complete_region over every (sup(ι), total signature) pair gives the
    region brute-force enumeration finds for it, or None when there is none."""
    rng = random.Random(4711)
    taus = [
        bn.BooleanType.of("nop", "inp", "swap"),
        bn.BooleanType.of("nop", "set", "res", "swap"),
        bn.BooleanType.of("nop", "out", "used", "free"),
    ]
    for tau in taus:
        tags = tau.canonical()
        for _ in range(20):
            ts = oracles.random_ts(rng, max_states=6, max_events=4)
            want = {
                (sup[ts.initial_state], tuple(sig[e] for e in ts.events)): sup
                for sup, sig in oracles.enumerate_regions(ts, tau)
            }
            for sup_iota in (0, 1):
                for sig in itertools.product(tags, repeat=len(ts.events)):
                    got = bn.complete_region(ts, tau, sup_iota, dict(zip(ts.events, sig)))
                    ref = want.get((sup_iota, sig))
                    if ref is None:
                        assert got is None, (ts, str(tau), sup_iota, sig)
                    else:
                        assert got is not None and got.support == ref, (ts, str(tau), sup_iota, sig)
                        assert bn.validate_region(ts, tau, got)


def test_solve_atom_returns_validating_solver():
    ts = walkthrough()
    atom = bn.SeparationAtom("ssp", "t0", "t1")
    r = bn.solve_atom(ts, TAU, atom)
    assert r is not None and bn.validate_region(ts, TAU, r) and r.solves(atom)
    assert bn.solve_atom(ts, TAU, bn.SeparationAtom("ssp", "t0", "t2")) is None
    assert bn.solve_atom(ts, TAU, bn.SeparationAtom("essp", "a", "t2")) is None


def test_solve_index_rejects_triples_that_are_not_atoms():
    # the rules atom_args applies to named atoms: a known kind, indices in
    # range, two distinct states for SSP, an event missing at its state for ESSP
    ts = bn.parse_ts("initial s0\narc s0 a s1\narc s1 b s0\n")
    problem = bn.CompiledProblem(ts, bn.BooleanType.of("nop", "inp", "swap"))
    ssp, essp = bn.regions.SSP, bn.regions.ESSP
    bad = [(7, 0, 1), (essp, 5, 0), (ssp, -1, 0), (ssp, 0, 2), (ssp, 1, 1),
           (essp, -1, 1), (essp, 0, 2), (essp, 0, 0), (essp, 1, 1)]
    for triple in bad:
        with pytest.raises(bn.DomainMismatch):
            problem.solve_index(*triple)
    budget = bn.NodeBudget()
    for atom in bn.atoms(ts):
        sup, _, _ = problem.solve_index(*problem.atom_args(atom), budget)
        assert sup is not None and bn.solve_atom(ts, problem.tau, atom) is not None
    assert budget.used > 0


def test_solve_atom_matches_enumeration():
    rng = random.Random(2718)
    taus = [
        bn.BooleanType.of("nop", "inp", "swap"),
        bn.BooleanType.of("nop", "swap", "used"),
        bn.BooleanType.of("nop", "out", "free"),
        bn.BooleanType.of("nop", "set", "res"),
    ]
    for _ in range(30):
        ts = oracles.random_ts(rng, max_states=5, max_events=2)
        for tau in taus:
            regions = oracles.enumerate_regions(ts, tau)
            for atom in bn.atoms(ts):
                got = bn.solve_atom(ts, tau, atom)
                want = oracles.brute_solve_atom(ts, tau, (atom.kind, atom.first, atom.second), regions)
                assert (got is not None) == want, (atom, str(tau))


def test_kernel_region_is_the_lex_first_region():
    """The kernel answers an atom with the first region that solves it, in
    the kernel's own order: initial support 0 before 1, then each event's
    tag in branch order, event by event.  It answers NONE exactly when no
    region solves the atom.  Whatever the search prunes, this answer must
    not move."""
    from test_kernel_golden import TAUS, atom_list, prepared

    taus = TAUS + [bn.BooleanType(frozenset(INTERACTIONS))]
    rng = random.Random(8081)
    for trial in range(600):
        ts = oracles.random_ts(rng, max_states=6, max_events=3)
        tau = taus[trial % len(taus)]
        rank = {t: i for i, t in enumerate(tau.branch_order())}
        ordered = sorted(
            oracles.enumerate_regions(ts, tau),
            key=lambda r: (r[0][ts.initial_state], [rank[r[1][e]] for e in ts.events]),
        )
        p = prepared(ts, tau)
        for kind, a, b in atom_list(ts):
            if kind == _solver_py.SSP:
                named = ("ssp", ts.states[a], ts.states[b])
            else:
                named = ("essp", ts.events[a], ts.states[b])
            first = next((r for r in ordered if oracles.region_solves(*r, named)), None)
            status, sup, sig, _, _ = _solver_py.solve(p, kind, a, b, -1, False)
            if first is None:
                assert status == _solver_py.NONE, (ts, str(tau), named)
                continue
            assert status == _solver_py.FOUND, (ts, str(tau), named)
            got = (dict(zip(ts.states, sup)), {e: INTERACTIONS[t] for e, t in zip(ts.events, sig)})
            assert got == first, (ts, str(tau), named)


# types with set or res, whose cores the removal search prunes with
CORE_TAUS = [
    bn.BooleanType.of("nop", "set", "res", "swap"),
    bn.BooleanType.of("nop", "inp", "set"),
    bn.BooleanType.of("nop", "out", "res", "swap"),
    bn.BooleanType.of("nop", "set", "used", "free"),
    bn.BooleanType.of("nop", "inp", "out", "set", "res"),
]


def test_kernel_cores_are_sound():
    # a refuted atom stays refuted, by brute-force enumeration, on every
    # reachable edge-removal candidate that keeps the core's arcs
    rng = random.Random(4871)
    checked = 0
    for trial in range(120):
        ts = oracles.random_ts(rng, max_states=7, max_events=3)
        tau = CORE_TAUS[trial % len(CORE_TAUS)]
        problem = bn.CompiledProblem(ts, tau)
        for atom in bn.atoms(ts):
            sup, _, core = problem.solve_index(*problem.atom_args(atom), collect_touched=True)
            if sup is not None:
                assert core == 0
                continue
            assert core >> len(ts.arcs) == 0
            for _ in range(4):
                keep = [a for a in range(len(ts.arcs)) if (core >> a) & 1 or rng.random() < 0.5]
                try:
                    cand = bn.TransitionSystem.build(
                        ts.initial_state, [ts.arc_names(a) for a in keep],
                        states=ts.states, events=ts.events,
                    )
                except (bn.Unreachable, bn.UselessEvent):
                    continue
                named = (atom.kind, atom.first, atom.second)
                assert not oracles.brute_solve_atom(cand, tau, named), (str(tau), atom, keep)
                checked += 1
    assert checked > 2000


def test_decide_property_failure_is_canonical():
    out = bn.decide_property(walkthrough(), TAU, "both")
    assert isinstance(out, bn.SeparationAtom)
    assert (out.kind, str(out)) == ("ssp", "(t0,t2)")
    essp_only = bn.decide_property(walkthrough(), TAU, "essp")
    assert str(essp_only) == "(a,t2)"


def test_decide_property_failure_is_the_first_refuted_atom():
    rng = random.Random(1515)
    taus = [
        bn.BooleanType.of("nop", "inp", "swap"),
        bn.BooleanType.of("nop", "set", "swap"),
        bn.BooleanType.of("nop", "set", "res", "swap"),
        bn.BooleanType.of("nop", "inp", "out", "swap", "used", "free"),
    ]
    failures = {"ssp": 0, "essp": 0, "both": 0}
    for trial in range(60):
        ts = oracles.random_ts(rng, max_states=6, max_events=3)
        tau = taus[trial % len(taus)]
        regions = oracles.enumerate_regions(ts, tau)
        for prop in failures:
            out = bn.decide_property(ts, tau, prop)
            first = next(
                (
                    a
                    for a in bn.atoms(ts)
                    if prop in ("both", a.kind)
                    and not oracles.brute_solve_atom(ts, tau, (a.kind, a.first, a.second), regions)
                ),
                None,
            )
            if first is None:
                assert isinstance(out, bn.Witness)
            else:
                assert out == first, (str(tau), prop, out, first)
                failures[prop] += 1
    assert min(failures.values()) >= 5, failures


def test_canonical_essp_failure_retires_state_pairs_on_the_way():
    # every state pair of the cube is solvable and every (x, q) atom is not;
    # the state pairs are retired region by region, not solved one by one
    set_swap = bn.BooleanType.of("nop", "set", "swap")
    out = bn.decide_property(oracles.hypercube_ts(6), set_swap, "both", bn.NodeBudget(1000))
    assert (out.kind, str(out)) == ("essp", "(x,q1)")
    budget = bn.NodeBudget()
    out = bn.decide_property(oracles.hypercube_ts(7), set_swap, "both", budget)
    assert (out.kind, str(out)) == ("essp", "(x,q1)")
    assert budget.used < 200


def test_decide_property_noncanonical_failure_is_still_unsolvable():
    ts = walkthrough()
    out = bn.decide_property(ts, TAU, "both", canonical_failure=False)
    assert isinstance(out, bn.SeparationAtom)
    assert bn.solve_atom(ts, TAU, out) is None


def check_coverage(ts, tau, prop, w):
    """Coverage credits every atom of prop to the first region solving it,
    listed by region, then in processing order (ESSP before SSP)."""
    every = bn.atoms(ts)
    order = [a for a in every if a.kind == "essp"] + [a for a in every if a.kind == "ssp"]
    want = [a for a in order if prop in ("both", a.kind)]
    assert set(w.coverage) == set(want)
    for atom, idx in w.coverage.items():
        assert w.regions[idx].solves(atom)
        assert not any(r.solves(atom) for r in w.regions[:idx])
    assert list(w.coverage) == sorted(want, key=lambda a: (w.coverage[a], want.index(a)))
    for region in w.regions:
        assert bn.validate_region(ts, tau, region)


def test_decide_property_witness_covers_every_atom():
    ts = bn.TransitionSystem.build(
        initial="t0", arcs=[("t0", "a", "t1"), ("t1", "a'", "t2")]
    )
    w = bn.decide_property(ts, TAU, "both")
    assert isinstance(w, bn.Witness)
    check_coverage(ts, TAU, "both", w)
    rng = random.Random(909)
    taus = [TAU, bn.BooleanType.of("nop", "inp", "out", "swap", "used", "free")]
    seen = {"ssp": 0, "essp": 0, "both": 0}
    for trial in range(60):
        ts = oracles.random_ts(rng, max_states=6, max_events=3)
        tau = taus[trial % len(taus)]
        for prop in seen:
            w = bn.decide_property(ts, tau, prop)
            if isinstance(w, bn.Witness):
                check_coverage(ts, tau, prop, w)
                seen[prop] += 1
    assert min(seen.values()) >= 5, seen


def test_decide_property_rejects_unknown_property():
    with pytest.raises(ValueError):
        bn.decide_property(walkthrough(), TAU, "szzp")


def test_has_property_agrees_with_decide_property():
    rng = random.Random(404)
    for _ in range(25):
        ts = oracles.random_ts(rng, max_states=5, max_events=2)
        for prop in ("ssp", "essp", "both"):
            got = bn.has_property(ts, TAU, prop)
            assert got == isinstance(bn.decide_property(ts, TAU, prop), bn.Witness)
            assert got == oracles.brute_has_property(ts, TAU, prop)


def test_property_for_mode():
    assert bn.property_for_mode("embed") == "ssp"
    assert bn.property_for_mode("langsim") == "essp"
    assert bn.property_for_mode("realize") == "both"
    with pytest.raises(ValueError):
        bn.property_for_mode("perform")


def test_node_budget_accounting():
    b = bn.NodeBudget(2)
    assert b.remaining() == 2
    b.charge(2)
    assert b.remaining() == 0
    with pytest.raises(bn.SearchBudgetExceeded):
        b.charge(1)


def test_tiny_budget_aborts_search():
    g = bn.Graph3B.build([("v0", "v1"), ("v0", "v2"), ("v1", "v2")])
    gts, _ = bn.build_gadget(g, bn.GadgetSpec(problem="split", variant="directed", lam=1))
    with pytest.raises(bn.SearchBudgetExceeded):
        bn.decide_property(gts, TAU, "both", budget=bn.NodeBudget(1))


def test_deep_search_has_no_recursion_limit():
    ts = oracles.flip_flop_ts(1200)
    witness = bn.decide_property(ts, TAU, "both")
    assert isinstance(witness, bn.Witness)
    assert all(set(r.signature.values()) == {"swap"} for r in witness.regions)


def test_serialize_parse_round_trip():
    ts = bn.TransitionSystem.build(
        initial="t0", arcs=[("t0", "a", "t1"), ("t1", "a'", "t2")]
    )
    w = bn.decide_property(ts, TAU, "both")
    back = bn.parse_regions(bn.serialize_regions(w))
    assert back == list(w.regions)
    assert bn.parse_regions(bn.serialize_regions([])) == []


# Each input holds one error: the exception class and its whole message,
# `line N:` prefix included, for every error parse_regions raises.
PARSE_ERRORS = {
    "sup s 0": (bn.ParseError, "line 1: `sup` before `region`"),
    "region\nsup s 2\nsig a nop": (bn.ParseError, "line 2: expected `sup <state> <0|1>`"),
    "region\nsup s 0\nsig a knop": (bn.UnknownInteraction, "unknown interaction 'knop'"),
    "region\nsup s 0\nsup s 1\nsig a nop": (bn.ParseError, "line 3: duplicate sup for 's'"),
    "region\nwibble": (bn.ParseError, "line 2: unknown directive 'wibble'"),
    "region x": (bn.ParseError, "line 1: expected bare `region`"),
    "sig a nop": (bn.ParseError, "line 1: `sig` before `region`"),
    "region\nsig a": (bn.ParseError, "line 2: expected `sig <event> <interaction>`"),
    "region\nsig a nop x": (bn.ParseError, "line 2: expected `sig <event> <interaction>`"),
    "region\nsig a nop\nsig a inp": (bn.ParseError, "line 3: duplicate sig for 'a'"),
    "region\nsup s": (bn.ParseError, "line 2: expected `sup <state> <0|1>`"),
    "region\nsup s 0 1": (bn.ParseError, "line 2: expected `sup <state> <0|1>`"),
    "region\nsup s 0\nregion\nsup t 0\nsup t 1": (bn.ParseError, "line 5: duplicate sup for 't'"),
}


@pytest.mark.parametrize("text", list(PARSE_ERRORS))
def test_parse_regions_rejects(text):
    exc, message = PARSE_ERRORS[text]
    with pytest.raises(exc) as info:
        bn.parse_regions(text)
    assert type(info.value) is exc
    assert str(info.value) == message


def test_kernel_name_is_reported():
    assert bn.KERNEL == "py"


@pytest.mark.parametrize(
    "atom, message",
    [
        (bn.SeparationAtom("ssp", "t0", "zz"), "atom state 'zz' not in the system"),
        (bn.SeparationAtom("ssp", "zz", "t0"), "atom state 'zz' not in the system"),
        (bn.SeparationAtom("essp", "zz", "t0"), "atom event 'zz' not in the system"),
        (bn.SeparationAtom("essp", "a", "zz"), "atom state 'zz' not in the system"),
        (bn.SeparationAtom("essp", "a", "t0"), "'a' occurs at 't0': not an atom"),
    ],
)
def test_solve_atom_rejects_an_atom_outside_the_system(atom, message):
    with pytest.raises(bn.DomainMismatch) as info:
        bn.solve_atom(walkthrough(), TAU, atom)
    assert str(info.value) == message


def test_complete_region_rejects_a_tag_outside_the_type():
    with pytest.raises(bn.DomainMismatch) as info:
        bn.complete_region(walkthrough(), TAU, 0, {"a": "set"})
    assert str(info.value) == f"signature value 'set' for 'a' outside type {TAU}"
