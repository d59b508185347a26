"""Acceptance suite: ten end-to-end checks, one scoreboard line each.

Each test runs inside `record`, which appends exactly one PASS/FAIL line to
the scoreboard section printed after the run.  All checks are exact — no
tolerances anywhere — and every time or node budget is pinned right next to
the workload it bounds.  The vertex-cover sweeps are computed once in a
session fixture and graded by the criteria that share them.
"""

import itertools
import time
from contextlib import contextmanager

import pytest

import boolnet as bn
import oracles

NODE_CAP = 10_000_000  # per decide() call in the reduction sweeps
INSTANCE_SECONDS = 60.0  # wall cap per reduction instance

TAU_D = bn.BooleanType.of("nop", "inp", "swap")
TAU_B = bn.BooleanType.of("nop", "swap", "used")

# (problem, variant, tau, mode) combinations for the reduction sweeps: label
# splitting in every mode for both variants; removals in every mode for the
# directed variant and in the two language-aware modes for the bidirectional
# one.
SPLIT_CASES = [
    ("split", variant, tau, mode)
    for mode in bn.MODES
    for variant, tau in (("directed", TAU_D), ("bidirectional", TAU_B))
]
REMOVAL_CASES = [
    (problem, "directed", TAU_D, mode)
    for mode in bn.MODES
    for problem in ("edge", "event", "state")
] + [
    (problem, "bidirectional", TAU_B, mode)
    for mode in ("langsim", "realize")
    for problem in ("edge", "event", "state")
]


@contextmanager
def record(criteria, num, label):
    try:
        yield
    except BaseException:
        criteria.append(f"FAIL criterion {num}: {label}")
        raise
    criteria.append(f"PASS criterion {num}: {label}")


@pytest.fixture(scope="session")
def corpus():
    """Eight exhaustively enumerated graphs (every isomorphism class with
    n <= 4, m <= 4) plus twenty random ones from a pinned seed."""
    return oracles.exhaustive_graphs() + oracles.random_graphs(20, seed=20240817)


@pytest.fixture(scope="session")
def sweep(corpus):
    """Decide every (case, graph, lam) reduction instance once.

    Each row carries the decision, the brute-force cover answer, the wall
    time, and whether the node cap was hit; the criteria grade the rows.
    """
    rows = []
    for problem, variant, tau, mode in SPLIT_CASES + REMOVAL_CASES:
        for g in corpus:
            for lam in range(len(g.vertices) + 1):
                spec = bn.GadgetSpec(problem=problem, variant=variant, lam=lam)
                gts, kappa = bn.build_gadget(g, spec)
                want = bn.brute_force_vc(g, lam) is not None
                cap_hit = False
                t0 = time.perf_counter()
                try:
                    plan = bn.decide(gts, tau, problem, mode, kappa, node_limit=NODE_CAP)
                except bn.SearchBudgetExceeded:
                    cap_hit = True
                    plan = None
                sec = time.perf_counter() - t0
                rows.append(
                    dict(
                        problem=problem,
                        variant=variant,
                        tau=tau,
                        mode=mode,
                        graph=g,
                        gts=gts,
                        lam=lam,
                        spec=spec,
                        kappa=kappa,
                        want=want,
                        got=plan is not None,
                        sec=sec,
                        cap=cap_hit,
                    )
                )
    return rows


def _grade_sweep(rows):
    assert rows
    for row in rows:
        where = (row["problem"], row["variant"], row["mode"], row["graph"].name, row["lam"])
        assert not row["cap"], f"node cap hit at {where}"
        assert row["sec"] < INSTANCE_SECONDS, f"instance over time cap at {where}"
        assert row["got"] == row["want"], f"oracle disagreement at {where}"


def test_criterion_1_walkthrough(criteria, witness_registry):
    with record(criteria, 1, "walkthrough: failure atoms, split witness, synthesized chain"):
        t0 = time.perf_counter()
        A = bn.TransitionSystem.build(
            initial="t0", arcs=[("t0", "a", "t1"), ("t1", "a", "t2")]
        )
        out = bn.decide_property(A, TAU_D, "both")
        assert isinstance(out, bn.SeparationAtom) and str(out) == "(t0,t2)"
        out = bn.decide_property(A, TAU_D, "essp")
        assert isinstance(out, bn.SeparationAtom) and str(out) == "(a,t2)"
        assert bn.solve_atom(A, TAU_D, bn.SeparationAtom("essp", "a", "t2")) is None

        plan = bn.decide(A, TAU_D, "split", "realize", 2)
        assert plan is not None and plan.cost == 2
        assert plan.splits == (("a", (0, 1)),)
        B = bn.apply_plan(A, plan)
        assert B.states == ("t0", "t1", "t2")
        assert B.events == ("a", "a'")
        assert B.arcs == ((0, 0, 1), (1, 1, 2))

        w = bn.decide_property(B, TAU_D, "both")
        assert isinstance(w, bn.Witness) and len(w.regions) == 2
        r1, r2 = w.regions
        assert r1.support == {"t0": 1, "t1": 0, "t2": 0}
        assert r1.signature == {"a": "inp", "a'": "nop"}
        assert r2.support == {"t0": 0, "t1": 1, "t2": 0}
        assert r2.signature == {"a": "swap", "a'": "inp"}

        res = bn.synthesize(B, TAU_D, "realize")
        assert isinstance(res, bn.SynthesisResult) and res.verified
        rg = bn.reachability_graph(res.net)
        assert rg.states == ("(1,0)", "(0,1)", "(0,0)")
        assert rg.events == ("a", "a'")
        assert rg.arcs == ((0, 0, 1), (1, 1, 2))
        phi = bn.induced_simulation(B, rg)
        assert phi is not None
        assert phi.mapping == {"t0": "(1,0)", "t1": "(0,1)", "t2": "(0,0)"}
        assert phi.is_injective() and phi.is_surjective()
        assert bn.check_relation(B, rg, "realize")

        witness_registry.append((B, TAU_D, w, "realize"))
        assert time.perf_counter() - t0 < 1.0


def test_criterion_2_interaction_table(criteria):
    with record(criteria, 2, "interaction table matches the pinned values"):
        pinned = {
            "nop": (0, 1),
            "inp": (None, 0),
            "out": (1, None),
            "set": (1, 1),
            "res": (0, 0),
            "swap": (1, 0),
            "used": (None, 1),
            "free": (0, None),
        }
        t0 = time.perf_counter()
        table = {
            tag: (bn.apply_interaction(tag, 0), bn.apply_interaction(tag, 1))
            for tag in bn.INTERACTIONS
        }
        elapsed = time.perf_counter() - t0
        assert table == pinned
        undefined = sum(v.count(None) for v in table.values())
        assert undefined == 4
        assert elapsed < 0.001


def test_criterion_3_interleaved_pair_invariant(criteria, witness_registry):
    with record(criteria, 3, "interleaved-pair support invariant, 200 systems x 16 types"):
        t0 = time.perf_counter()
        taus = [
            bn.BooleanType.of("nop", "swap", *extra)
            for r in range(5)
            for extra in itertools.combinations(("inp", "out", "used", "free"), r)
        ]
        assert len(taus) == 16
        rng = __import__("random").Random(90210)
        regions_seen = 0
        for _ in range(200):
            ts, lo, hi = oracles.random_abab_ts(rng)
            for tau in taus:
                problem = bn.CompiledProblem(ts, tau)
                for atom in bn.atoms(ts):
                    region, _ = problem.solve(atom)
                    if region is not None:
                        regions_seen += 1
                        assert region.support[lo] == region.support[hi], (atom, str(tau))
                out = bn.decide_property(ts, tau, "both")
                if isinstance(out, bn.Witness):
                    for region in out.regions:
                        assert region.support[lo] == region.support[hi], str(tau)
                    witness_registry.append((ts, tau, out, "realize"))
        assert regions_seen > 0
        assert time.perf_counter() - t0 < 30.0


def test_criterion_4_event_complete_characterization(criteria, witness_registry):
    with record(criteria, 4, "swap-family types: solvable iff event-complete"):
        t0 = time.perf_counter()
        taus = [
            bn.BooleanType.of("nop", "swap"),
            bn.BooleanType.of("nop", "swap", "set"),
            bn.BooleanType.of("nop", "swap", "res"),
            bn.BooleanType.of("nop", "swap", "set", "res"),
        ]
        rng = __import__("random").Random(4242)
        systems = [oracles.random_ts(rng, max_states=8, max_events=3) for _ in range(100)]
        for ts in systems:
            complete = len(ts.arcs) == len(ts.states) * len(ts.events)
            for tau in taus:
                out = bn.decide_property(ts, tau, "essp")
                assert isinstance(out, bn.Witness) == complete, str(tau)
                if isinstance(out, bn.Witness):
                    witness_registry.append((ts, tau, out, "langsim"))
        assert time.perf_counter() - t0 < 10.0


def test_criterion_5_solver_vs_enumeration(criteria):
    with record(criteria, 5, "atom solver agrees with exhaustive region enumeration"):
        t0 = time.perf_counter()
        taus = [
            bn.BooleanType.of("nop", "swap", "inp"),
            bn.BooleanType.of("nop", "swap", "used"),
            bn.BooleanType.of("nop", "inp", "swap"),
            bn.BooleanType.of("nop", "swap", "out"),
        ]
        rng = __import__("random").Random(777)
        for _ in range(100):
            ts = oracles.random_ts(rng, max_states=6, max_events=3)
            for tau in taus:
                regions = oracles.enumerate_regions(ts, tau)
                for atom in bn.atoms(ts):
                    got = bn.solve_atom(ts, tau, atom)
                    want = oracles.brute_solve_atom(
                        ts, tau, (atom.kind, atom.first, atom.second), regions
                    )
                    assert (got is not None) == want, (atom, str(tau))
                    if got is not None:
                        assert bn.validate_region(ts, tau, got)
                        assert got.solves(atom)
        assert time.perf_counter() - t0 < 60.0


def test_criterion_6_split_reduction(criteria, sweep):
    with record(criteria, 6, "label-splitting decisions match the cover oracle"):
        _grade_sweep([row for row in sweep if row["problem"] == "split"])


def test_criterion_7_removal_reductions(criteria, sweep):
    with record(criteria, 7, "removal decisions match the cover oracle"):
        _grade_sweep([row for row in sweep if row["problem"] != "split"])


def test_criterion_8_cover_to_plan(criteria, sweep, witness_registry):
    with record(criteria, 8, "covers map to valid in-budget plans with the property"):
        graded = 0
        for row in sweep:
            if not row["want"]:
                continue
            cover = bn.brute_force_vc(row["graph"], row["lam"])
            plan = bn.cover_to_solution(row["graph"], row["spec"], cover)
            assert plan.cost <= row["kappa"]
            modified = bn.apply_plan(row["gts"], plan)
            out = bn.decide_property(modified, row["tau"], bn.property_for_mode(row["mode"]))
            assert isinstance(out, bn.Witness), (row["problem"], row["mode"], row["lam"])
            witness_registry.append((modified, row["tau"], out, row["mode"]))
            graded += 1
        assert graded > 0


def test_criterion_9_fixture_regions(criteria):
    with record(criteria, 9, "fixture regions validate and separate their events"):
        t0 = time.perf_counter()
        from boolnet.cli import _fixture_regions

        g = bn.Graph3B.build(
            [("v0", "v1"), ("v0", "v2"), ("v0", "v3"), ("v1", "v2"), ("v2", "v3")]
        )
        spec = bn.GadgetSpec(problem="split", variant="directed", lam=2)
        gts, _ = bn.build_gadget(g, spec)
        cover = bn.brute_force_vc(g, 2)
        assert cover == ("v0", "v2")
        bg = bn.apply_plan(gts, bn.cover_to_solution(g, spec, cover))

        fixtures = _fixture_regions()
        assert [name for name, _, _ in fixtures] == ["R_0", "R_1", "R_2", "R_3"]
        assert [ev for _, _, ev in fixtures] == ["v1", "v1", "v0", "v0"]
        for _, region, _ in fixtures:
            assert bn.validate_region(bg, TAU_D, region)
        for ev, pair in (("v1", fixtures[:2]), ("v0", fixtures[2:])):
            targets = [
                bn.SeparationAtom("essp", ev, s)
                for s in bg.states
                if (bg.state_index[s], bg.event_index[ev]) not in bg.arc_at
            ]
            assert targets
            for atom in targets:
                assert any(region.solves(atom) for _, region, _ in pair), atom
        assert time.perf_counter() - t0 < 1.0


def test_criterion_10_witness_roundtrips(criteria, witness_registry):
    with record(criteria, 10, "every witness round-trips through a verified net"):
        entries = list(witness_registry)
        assert entries, "no witnesses were produced by the preceding criteria"
        for ts, tau, witness, mode in entries:
            net = bn.net_from_witness(ts, tau, witness)
            assert bn.verify_implementation(ts, net, mode), (ts.name, str(tau), mode)
