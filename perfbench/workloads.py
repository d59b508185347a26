"""The benchmark's workloads: seeded inputs, the call each instance times,
and the check each answer must pass.

split: decide(kind="split") on vertex-cover gadgets of random sparse
    max-degree-3 graphs with 6-8 vertices, every lambda, over the
    (variant, type, mode) cases of the acceptance sweep.  Traced, about 40%
    of the time is kernel.solve and 55% decide_property glue.
removal: decide() for edge, event and state removal on gadgets of graphs
    with 3-4 vertices and 3 edges, every lambda, over the sweep's removal
    cases.  About 50% kernel.solve, 30% decide_property and 15% modify's
    own search, with seven candidate TransitionSystem.build calls and three
    decide_property calls per decision.
synth: boolnet.cli.run(["synth", ...]) in-process, in all three modes, on
    reachability graphs of random tau-nets (8-10 places, 5-7 transitions,
    tau = nop, swap and one or two extras) with 40-300 states and every
    transition live.  modify is never called; about 60% decide_property
    glue, 30% kernel, the rest parsing and verification.

Each pass draws the same number of graphs (or nets) from every stratum of a
fixed grid, so a pass has the same mix of sizes, cover numbers and types
under every seed and only the shapes within a stratum vary; that is what
keeps a run's figures steady from seed to seed.  The library sees only the
generated inputs.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import random
import sys
import warnings
from dataclasses import dataclass

NODE_LIMIT = 10_000_000  # per decide() call, as in the acceptance sweep

MODES = ("embed", "langsim", "realize")
# (variant, type) pairs of the acceptance sweep
SPLIT_VARIANTS = (("directed", ("nop", "inp", "swap")), ("bidirectional", ("nop", "swap", "used")))
REMOVAL_CASES = tuple(
    (problem, "directed", ("nop", "inp", "swap"), mode)
    for mode in ("embed", "langsim", "realize")
    for problem in ("edge", "event", "state")
) + tuple(
    (problem, "bidirectional", ("nop", "swap", "used"), mode)
    for mode in ("langsim", "realize")
    for problem in ("edge", "event", "state")
)

# Strata of one pass as (vertices, edges, cover number); "tiny" is for the
# harness self-tests.  The cover number fixes how many relabellings a split
# needs, and decision cost grows steeply with it, so it is held fixed per
# stratum like the size.  Split stays at most one edge denser than a tree
# and at cover number 3 or less: from (8, 7) on, about one graph in six
# takes 5-15x its stratum's median, and cover-number-4 decisions take
# 0.4-1.5 s and slow down 2-3x when a neighbour loads the memory system;
# either would decide a run's figures by itself.
SPLIT_GRID = {
    "full": ((6, 4, 2), (6, 5, 3), (6, 6, 3), (7, 5, 3), (7, 6, 3), (7, 7, 3), (8, 6, 3)),
    "tiny": ((6, 5, 3),),
}
REMOVAL_GRID = {"full": ((3, 3, 2), (4, 3, 1), (4, 3, 2)), "tiny": ((3, 2, 1),)}
# Synth draws this many nets per (min states, max states) band for every
# mode and every type in a fixed list: nop and swap, plus set or res so that
# every band occurs, plus each other extra once.  Per-state cost differs up
# to 7x between types, so the type mix is fixed and the seed draws the nets;
# most nets are small, so the median decision falls inside a well-sampled
# band.  Each mode gets nets of its own: cost varies about 30% between nets
# of one size, and one net shared by three modes moved three samples at
# once, so independent nets steady the percentiles from seed to seed.
SYNTH_EXTRAS = {
    "full": (("set",), ("res",), ("set", "res"), ("inp", "set"), ("out", "res"),
             ("set", "used"), ("res", "free")),
    "tiny": (("set",),),
}
SYNTH_BANDS = {"full": ((40, 99, 4), (100, 199, 2), (200, 300, 1)), "tiny": ((40, 300, 1),)}
SIZES = ("full", "tiny")


@dataclass
class Decision:
    """One decide() call on a gadget, with the cover oracle's answer."""

    ts: object
    tau: object
    kind: str
    mode: str
    kappa: int
    want: bool


@dataclass
class Synth:
    """One `boolnet synth` call on a reachability graph, a known yes."""

    ts: object
    text: str
    tau: str
    mode: str


@dataclass
class Failure:
    """An instance that raised instead of answering."""

    error: str


def random_graph(bn, rng: random.Random, n: int, m: int):
    """Random graph with n vertices and m edges, every degree in 1..3."""
    pairs = list(itertools.combinations(range(n), 2))
    while True:
        rng.shuffle(pairs)
        degree = [0] * n
        edges = []
        for a, b in pairs:
            if degree[a] < 3 and degree[b] < 3:
                edges.append((a, b))
                degree[a] += 1
                degree[b] += 1
                if len(edges) == m:
                    break
        if len(edges) == m and all(degree):
            names = [f"v{i}" for i in range(n)]
            rng.shuffle(names)
            return bn.Graph3B.build([(names[a], names[b]) for a, b in edges])


def _decision(bn, graph, problem, variant, tags, mode, lam):
    ts, kappa = bn.build_gadget(graph, bn.GadgetSpec(problem=problem, variant=variant, lam=lam))
    want = bn.brute_force_vc(graph, lam) is not None
    return Decision(ts, bn.BooleanType.of(*tags), problem, mode, kappa, want)


def cover_number(bn, graph) -> int:
    return next(k for k in range(len(graph.vertices) + 1) if bn.brute_force_vc(graph, k) is not None)


def stratum_graph(bn, rng, n, m, cover):
    while True:
        g = random_graph(bn, rng, n, m)
        if cover_number(bn, g) == cover:
            return g


def _cases_by_lambda(bn, rng, strata, cases):
    """Every lambda of every (stratum, case), each on a fresh graph: for
    lambda at or above the cover number a decision does the same work, so
    one graph per lambda gives independent samples instead of repeats."""
    out = []
    for n, m, cover in strata:
        for problem, variant, tags, mode in cases:
            for lam in range(n + 1):
                g = stratum_graph(bn, rng, n, m, cover)
                out.append(_decision(bn, g, problem, variant, tags, mode, lam))
    return out


def make_split(bn, rng, size):
    cases = [("split", variant, tags, mode) for mode in MODES for variant, tags in SPLIT_VARIANTS]
    return _cases_by_lambda(bn, rng, SPLIT_GRID[size], cases)


def make_removal(bn, rng, size):
    cases = REMOVAL_CASES if size == "full" else REMOVAL_CASES[:3]
    return _cases_by_lambda(bn, rng, REMOVAL_GRID[size], cases)


def random_live_net(bn, rng, tau, lo, hi):
    """Random tau-net with 8-10 places and 5-7 transitions; its reachability
    graph when that fires every transition and has lo..hi states, else None."""
    tags = tau.canonical()
    places = tuple(f"p{i}" for i in range(rng.randint(8, 10)))
    transitions = tuple(f"t{i}" for i in range(rng.randint(5, 7)))
    flow = {(p, t): rng.choice(tags) for p in places for t in transitions}
    m0 = tuple(rng.randint(0, 1) for _ in places)
    net = bn.BooleanNet(None, tau, places, transitions, flow, m0)
    with warnings.catch_warnings():  # rejected draws warn of dead transitions
        warnings.simplefilter("ignore")
        rg = bn.reachability_graph(net)
    if lo <= len(rg.states) <= hi and len(rg.events) == len(transitions):
        return rg
    return None


def make_synth(bn, rng, size):
    """Per type and mode, draw nets until every state-count band has its
    quota; each accepted graph goes to the band its size falls in."""
    bands = SYNTH_BANDS[size]
    lo, hi = bands[0][0], bands[-1][1]
    out = []
    for extras, mode in itertools.product(SYNTH_EXTRAS[size], MODES):
        tau = bn.BooleanType.of("nop", "swap", *extras)
        filled: list[list] = [[] for _ in bands]
        while any(len(f) < b[2] for f, b in zip(filled, bands)):
            rg = random_live_net(bn, rng, tau, lo, hi)
            if rg is None:
                continue
            for f, (b_lo, b_hi, count) in zip(filled, bands):
                if b_lo <= len(rg.states) <= b_hi and len(f) < count:
                    f.append(rg)
        for rg in (g for f in filled for g in f):
            text = bn.serialize_ts(rg)
            out.append(Synth(bn.parse_ts(text), text, ",".join(tau.canonical()), mode))
    return out


MAKERS = {"split": make_split, "removal": make_removal, "synth": make_synth}
WORKLOADS = tuple(MAKERS)


def make(bn, workload: str, seed: int, size: str) -> list:
    return MAKERS[workload](bn, random.Random(f"{workload}:{seed}"), size)


# -- the timed call ------------------------------------------------------------------


def call(bn, inst):
    """Run one instance; only this is timed.  Anything raised becomes a
    Failure, so a run always finishes."""
    try:
        if isinstance(inst, Decision):
            return bn.decide(inst.ts, inst.tau, inst.kind, inst.mode, inst.kappa,
                             node_limit=NODE_LIMIT)
        out = io.StringIO()
        stdin = sys.stdin
        sys.stdin = io.StringIO(inst.text)
        try:
            with contextlib.redirect_stdout(out):
                code = bn.cli.run(["synth", "--mode", inst.mode, "--type", inst.tau, "-"])
        finally:
            sys.stdin = stdin
        return (code, out.getvalue())
    except Exception as exc:  # counted as a failed instance, never fatal
        return Failure(f"{type(exc).__name__}: {exc}")


def describe(bn, value) -> str:
    """The answer as text, for the output digest: plan, net, "no" or the
    failure."""
    if isinstance(value, Failure):
        return f"error {value.error}"
    if isinstance(value, tuple):
        code, text = value
        return f"exit {code}\n{text}"
    return "no" if value is None else bn.serialize_plan(value)


# -- the answer check, outside the timed region --------------------------------------


def check(bn, inst, value) -> str | None:
    """None when the answer is right; otherwise why it is not.  A Failure
    is reported as such (it failed, but gave no wrong answer)."""
    if isinstance(value, Failure):
        return "failed: " + value.error
    if isinstance(inst, Decision):
        if (value is not None) != inst.want:
            return f"wrong: decided {value is not None}, cover oracle says {inst.want}"
        if value is None:
            return None
        if value.kind != inst.kind or value.cost > inst.kappa:
            return f"wrong: plan {value.kind} cost {value.cost} outside kappa {inst.kappa}"
        modified = bn.apply_plan(inst.ts, value)
        prop = bn.property_for_mode(inst.mode)
        if not isinstance(bn.decide_property(modified, inst.tau, prop), bn.Witness):
            return f"wrong: applied plan lacks {prop}"
        return None
    code, text = value
    if code != 0:
        return f"wrong: synth exited {code} on a known yes"
    net = bn.parse_net(text)
    if not bn.verify_implementation(inst.ts, net, inst.mode):
        return f"wrong: emitted net fails {inst.mode} verification"
    return None
