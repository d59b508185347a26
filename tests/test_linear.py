"""GF(2) elimination for the linear types, checked against the kernel and
brute-force region enumeration."""

import itertools
import random
import warnings

import pytest

import boolnet as bn
from boolnet import modify
from boolnet.linear import LinearProblem, is_linear
from boolnet.regions import ESSP, SSP, CompiledProblem

import oracles

# every linear type: {nop, swap} plus any subset of the partial flips
LINEAR = [
    bn.BooleanType.of("nop", "swap", *extra)
    for r in range(5)
    for extra in itertools.combinations(("inp", "out", "used", "free"), r)
]


def kernel_atoms(ts):
    """Every atom of ts as a kernel triple."""
    n = len(ts.states)
    out = [(SSP, i, j) for i in range(n) for j in range(i + 1, n)]
    out += [(ESSP, e, s) for e in range(len(ts.events)) for s in range(n) if (s, e) not in ts.arc_at]
    return out


def linear(ts, tau, **kw):
    return LinearProblem(ts.states, len(ts.events), ts.initial, ts.arcs, tau, **kw)


def test_is_linear():
    assert len(LINEAR) == 16 and all(is_linear(tau) for tau in LINEAR)
    for tags in [("nop", "inp"), ("swap", "inp"), ("nop", "swap", "set"), ("nop", "swap", "res")]:
        assert not is_linear(bn.BooleanType.of(*tags))
    with pytest.raises(ValueError):
        linear(oracles.flip_flop_ts(2), bn.BooleanType.of("nop", "set"))


def test_verdicts_match_the_kernel_on_random_systems():
    rng = random.Random(8128)
    refuted = solved = 0
    for _ in range(90):
        ts = oracles.random_ts(rng, max_states=7, max_events=3)
        for tau in LINEAR:
            problem, lin = CompiledProblem(ts, tau), linear(ts, tau, cores=True)
            for atom in kernel_atoms(ts):
                want = problem.solve_index(*atom)[0] is None
                assert (lin.refute(*atom) is not None) == want, (str(tau), atom, ts.arcs)
                refuted += want
                solved += not want
    assert refuted > 1000 and solved > 1000


def test_verdicts_match_brute_force_enumeration():
    rng = random.Random(4096)
    for trial in range(60):
        ts = oracles.random_ts(rng, max_states=5, max_events=3)
        tau = LINEAR[trial % len(LINEAR)]
        regions = oracles.enumerate_regions(ts, tau)
        lin = linear(ts, tau)
        for kind, first, second in oracles.local_atoms(ts, "both"):
            if kind == "ssp":
                atom = (SSP, ts.state_index[first], ts.state_index[second])
            else:
                atom = (ESSP, ts.event_index[first], ts.state_index[second])
            want = oracles.brute_solve_atom(ts, tau, (kind, first, second), regions)
            assert (lin.refute(*atom) is None) == want, (str(tau), atom, ts.arcs)


def _reachability_graphs(rng, count, lo=65, hi=300):
    """Reachability graphs with lo..hi states of random nets of linear
    types.  Flows are mostly nop and swap: with a partial tag as likely as a
    total one, almost every transition is dead and the graphs stay tiny."""
    out = []
    while len(out) < count:
        tau = rng.choice(LINEAR)
        partial = sorted(tau.tags - {"nop", "swap"})
        places = ["p%d" % i for i in range(8)]
        transitions = ["t%d" % i for i in range(rng.randint(7, 9))]
        flow = {}
        for p in places:
            for t in transitions:
                r = rng.random()
                if partial and r < 0.15:
                    flow[(p, t)] = rng.choice(partial)
                elif r < 0.45:
                    flow[(p, t)] = "swap"
        m0 = tuple(rng.randint(0, 1) for _ in places)
        net = bn.BooleanNet(None, tau, tuple(places), tuple(transitions), flow, m0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rg = bn.reachability_graph(net)
        if lo <= len(rg.states) <= hi:
            out.append(rg)
    return out


def test_verdicts_match_the_kernel_on_reachability_graphs():
    # a net's graph has every atom solvable under the net's own type, so each
    # graph is checked under other linear types too, which refute some atoms
    rng = random.Random(1)
    refuted = solved = 0
    for ts in _reachability_graphs(rng, 4):
        atoms = kernel_atoms(ts)
        ssp = [atom for atom in atoms if atom[0] == SSP]
        essp = [atom for atom in atoms if atom[0] == ESSP]
        sample = rng.sample(ssp, 15) + rng.sample(essp, 25)
        for tau in rng.sample(LINEAR, 3):
            problem, lin = CompiledProblem(ts, tau), linear(ts, tau)
            for atom in sample:
                want = problem.solve_index(*atom)[0] is None
                assert (lin.refute(*atom) is not None) == want, (str(tau), atom)
                refuted += want
                solved += not want
    assert refuted > 40 and solved > 400


def test_first_failure_matches_decide_property():
    rng = random.Random(1729)
    failed = passed = 0
    for _ in range(60):
        ts = oracles.random_ts(rng, max_states=7, max_events=3)
        for tau in LINEAR:
            lin = linear(ts, tau)
            problem = CompiledProblem(ts, tau)
            for prop in ("ssp", "essp", "both"):
                result = bn.decide_property(ts, tau, prop, canonical_failure=False)
                got = lin.first_failure(prop)
                if isinstance(result, bn.Witness):
                    assert got is None, (str(tau), prop, ts.arcs)
                    passed += 1
                else:
                    assert got is not None and got[:3] == problem.atom_args(result)
                    failed += 1
    assert failed > 300 and passed > 300


def test_cores_are_sound():
    # a refuted atom stays refuted on every reachable edge-removal candidate
    # that keeps the core's arcs and the atom's event
    rng = random.Random(31337)
    checked = 0
    for trial in range(160):
        ts = oracles.random_ts(rng, max_states=7, max_events=3)
        tau = LINEAR[trial % len(LINEAR)]
        lin = linear(ts, tau, cores=True)
        for atom in kernel_atoms(ts):
            core = lin.refute(*atom)
            if core is None:
                continue
            for _ in range(4):
                keep = [a for a in range(len(ts.arcs)) if (core >> a) & 1 or rng.random() < 0.5]
                try:
                    cand = bn.TransitionSystem.build(
                        ts.initial_state, [ts.arc_names(a) for a in keep],
                        states=ts.states, events=ts.events,
                    )
                except (bn.Unreachable, bn.UselessEvent):
                    continue
                assert CompiledProblem(cand, tau).solve_index(*atom)[0] is None, (str(tau), atom)
                checked += 1
    assert checked > 1500


def test_cores_are_even_walks():
    # summing a core's arc equations leaves every event an even number of
    # times: an SSP core's arcs meet s and t an odd number of times and every
    # other state an even number
    rng = random.Random(2024)
    seen = 0
    for _ in range(80):
        ts = oracles.random_ts(rng, max_states=7, max_events=3)
        lin = linear(ts, bn.BooleanType.of("nop", "swap"), cores=True)
        n = len(ts.states)
        for i, j in itertools.combinations(range(n), 2):
            core = lin.refute(SSP, i, j)
            if core is None:
                continue
            degree, events = [0] * n, [0] * len(ts.events)
            for a in range(len(ts.arcs)):
                if (core >> a) & 1:
                    s, e, d = ts.arcs[a]
                    degree[s] += 1
                    degree[d] += 1
                    events[e] += 1
            assert all(c % 2 == 0 for c in events)
            assert [v for v in range(n) if degree[v] % 2] == [i, j]
            seen += 1
    assert seen > 50


def test_each_call_charges_one_node():
    ts = oracles.flip_flop_ts(3)
    budget = bn.NodeBudget()
    lin = linear(ts, bn.BooleanType.of("nop", "inp", "swap"), budget=budget)
    lin.refute(SSP, 0, 1)
    assert budget.used == 1
    lin.first_failure("both")
    assert budget.used == 2
    lin = linear(ts, bn.BooleanType.of("nop", "swap"), budget=bn.NodeBudget(0))
    with pytest.raises(bn.SearchBudgetExceeded) as info:
        lin.first_failure("ssp")
    assert info.value.nodes == 1


def test_decide_matches_the_kernel_path_and_never_reaches_the_kernel(monkeypatch):
    # plans with every candidate checked by elimination equal the plans with
    # every candidate checked by the kernel, and the linear path neither
    # calls the kernel nor builds a TransitionSystem
    rng = random.Random(5775)
    taus = [oracles.TAU_D, oracles.TAU_B, bn.BooleanType.of("nop", "swap"),
            bn.BooleanType.of("nop", "out", "swap", "free")]
    cases = []
    for i in range(24):
        ts = oracles.random_ts(rng, max_states=5, max_events=3)
        for kind in bn.KINDS:
            base = len(ts.events) if kind == "split" else 0
            for mode in bn.MODES:
                for kappa in (base, base + 1, base + 2):
                    cases.append((ts, taus[i % len(taus)], kind, mode, kappa))
    with monkeypatch.context() as m:
        m.setattr(modify, "is_linear", lambda tau: False)
        want = [bn.decide(*case, node_limit=0) for case in cases]
    assert any(plan is None for plan in want) and any(plan is not None for plan in want)

    def refuse(*args, **kwargs):
        raise AssertionError("the linear path reached the kernel or built a system")

    monkeypatch.setattr(bn.regions._kernel, "solve", refuse)
    monkeypatch.setattr(bn.regions._kernel, "prepare", refuse)
    monkeypatch.setattr(bn.TransitionSystem, "__init__", refuse)
    assert [bn.decide(*case, node_limit=0) for case in cases] == want
