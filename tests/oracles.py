"""Naive reference implementations the fast code is checked against.

Everything in this module enumerates exhaustively and shares as little as
possible with the library internals: its own interaction table, its own
region propagation, its own atom listing.  Slow but obviously correct.
"""

import itertools
import random

import boolnet as bn

# Independent copy of the interaction semantics: APPLY[tag][bit] is the
# image bit, or None where the interaction is undefined.
APPLY = {
    "nop": (0, 1),
    "inp": (None, 0),
    "out": (1, None),
    "set": (1, 1),
    "res": (0, 0),
    "swap": (1, 0),
    "used": (None, 1),
    "free": (0, None),
}

TAU_D = bn.BooleanType.of("nop", "inp", "swap")
TAU_B = bn.BooleanType.of("nop", "swap", "used")


# ---------------------------------------------------------------------------
# transition-system generators


def random_ts(rng, max_states=6, max_events=3):
    """Random deterministic, reachable system with every event used.

    A shuffled spanning path guarantees reachability; extra arcs are thrown
    on top wherever determinism allows.
    """
    while True:
        n = rng.randint(2, max_states)
        m = rng.randint(1, max_events)
        order = list(range(n))
        rng.shuffle(order)
        if order[0] != 0:
            order.remove(0)
            order.insert(0, 0)
        delta = {}
        for i in range(1, n):
            delta[(order[i - 1], rng.randrange(m))] = order[i]
        for _ in range(rng.randint(0, 2 * n)):
            delta.setdefault((rng.randrange(n), rng.randrange(m)), rng.randrange(n))
        if len({e for (_, e) in delta}) != m:
            continue
        arcs = [("s%d" % s, "abcde"[e], "s%d" % d) for (s, e), d in sorted(delta.items())]
        return bn.TransitionSystem.build(initial="s0", arcs=arcs)


def flip_flop_ts(n_events):
    """Two states where every one of n_events events leads s0→s1 and s1→s0.

    Its one state pair needs every event's signature in a single region, so
    the search opens n_events levels at once.
    """
    arcs = []
    for i in range(n_events):
        arcs += [("s0", f"e{i}", "s1"), ("s1", f"e{i}", "s0")]
    return bn.TransitionSystem.build(initial="s0", arcs=arcs)


def long_run_ts(n):
    """The cycle s0 -a-> s1 -a-> ... -a-> s<n> -b-> s0: one event with n
    occurrences, so splitting it enumerates n occurrence slots."""
    arcs = [(f"s{i}", "a", f"s{i + 1}") for i in range(n)] + [(f"s{n}", "b", "s0")]
    return bn.TransitionSystem.build(initial="s0", arcs=arcs)


def hypercube_ts(k):
    """States q0..q(2^k-1); event f_i flips bit i at every state, and one
    self-loop q0 -x-> q0.  Under {nop,set,swap} every state pair is solvable
    and no (x, state) atom is: x is total at every state in any region."""
    arcs = [(f"q{s}", f"f{i}", f"q{s ^ (1 << i)}") for s in range(1 << k) for i in range(k)]
    arcs.append(("q0", "x", "q0"))
    states = tuple(f"q{s}" for s in range(1 << k))
    return bn.TransitionSystem.build(initial="q0", arcs=arcs, states=states)


def random_abab_ts(rng, max_states=12):
    """Random system containing the path s0 -a-> s1 -b-> s2 -a-> s3 -b-> s4.

    Returns (ts, "s0", "s4").  Extra states hang off the path so everything
    stays reachable and deterministic.
    """
    arcs = [("s0", "a", "s1"), ("s1", "b", "s2"), ("s2", "a", "s3"), ("s3", "b", "s4")]
    n_extra = rng.randint(0, max_states - 5)
    states = ["s0", "s1", "s2", "s3", "s4"] + ["x%d" % i for i in range(n_extra)]
    events = ["a", "b"] + (["c"] if rng.random() < 0.5 else [])
    delta = {(s, e) for (s, e, _) in arcs}
    for i in range(n_extra):
        while True:
            src = rng.choice(states[: 5 + i])
            ev = rng.choice(events)
            if (src, ev) not in delta:
                arcs.append((src, ev, "x%d" % i))
                delta.add((src, ev))
                break
    for _ in range(rng.randint(0, 10)):
        src, ev, dst = rng.choice(states), rng.choice(events), rng.choice(states)
        if (src, ev) not in delta:
            arcs.append((src, ev, dst))
            delta.add((src, ev))
    if "c" in events and all(e != "c" for (_, e, _) in arcs):
        events.remove("c")
    return bn.TransitionSystem.build(initial="s0", arcs=arcs), "s0", "s4"


def random_net(rng, tau=None, max_places=4, max_transitions=3):
    """Random net over tau (default: a random type containing nop)."""
    if tau is None:
        extra = [t for t in bn.INTERACTIONS if t != "nop" and rng.random() < 0.5]
        tau = bn.BooleanType.of("nop", *extra)
    tags = list(tau)
    places = ["p%d" % i for i in range(rng.randint(1, max_places))]
    transitions = ["t%d" % i for i in range(rng.randint(1, max_transitions))]
    flow = {}
    for p in places:
        for t in transitions:
            flow[(p, t)] = rng.choice(tags)
    m0 = tuple(rng.randint(0, 1) for _ in places)
    return bn.BooleanNet(None, tau, tuple(places), tuple(transitions), flow, m0)


# ---------------------------------------------------------------------------
# region oracles


def local_atoms(ts, prop):
    """The separation atoms of a property, listed the naive way."""
    out = []
    if prop in ("ssp", "both"):
        for i, a in enumerate(ts.states):
            for b in ts.states[i + 1 :]:
                out.append(("ssp", a, b))
    if prop in ("essp", "both"):
        for e, ev in enumerate(ts.events):
            for s, st in enumerate(ts.states):
                if (s, e) not in ts.arc_at:
                    out.append(("essp", ev, st))
    return out


def enumerate_regions(ts, tau):
    """Every region of ts over tau, as (support dict, signature dict) pairs.

    Tries every (initial support bit, total signature) combination and
    propagates supports along arcs with the local APPLY table.
    """
    out = []
    tags = tau.canonical()
    for sup_iota in (0, 1):
        for sig in itertools.product(tags, repeat=len(ts.events)):
            sup = {ts.initial: sup_iota}
            stack = [ts.initial]
            bad = False
            while stack and not bad:
                s = stack.pop()
                for a in ts.out_arcs[s]:
                    _, e, d = ts.arcs[a]
                    v = APPLY[sig[e]][sup[s]]
                    if v is None:
                        bad = True
                        break
                    if d in sup:
                        if sup[d] != v:
                            bad = True
                            break
                    else:
                        sup[d] = v
                        stack.append(d)
            if bad:
                continue
            if all(APPLY[sig[e]][sup[s]] == sup[d] for (s, e, d) in ts.arcs):
                out.append(
                    (
                        {ts.states[i]: v for i, v in sup.items()},
                        {ts.events[i]: t for i, t in enumerate(sig)},
                    )
                )
    return out


def region_solves(sup, sig, atom):
    kind, first, second = atom
    if kind == "ssp":
        return sup[first] != sup[second]
    return APPLY[sig[first]][sup[second]] is None


def brute_solve_atom(ts, tau, atom, regions=None):
    """Whether any region at all solves the atom."""
    if regions is None:
        regions = enumerate_regions(ts, tau)
    return any(region_solves(sup, sig, atom) for sup, sig in regions)


def brute_has_property(ts, tau, prop):
    regions = enumerate_regions(ts, tau)
    return all(brute_solve_atom(ts, tau, atom, regions) for atom in local_atoms(ts, prop))


# ---------------------------------------------------------------------------
# net oracle


def naive_reachability(net):
    """The reachability graph by breadth-first exploration through net.fire,
    one marking at a time, built with TransitionSystem.build from named arcs:
    markings in discovery order, the transitions that fired in net order, and
    reachability_graph's name, for exact comparison."""
    m0 = net.initial_marking()
    order, seen, arcs = [m0], {m0}, []
    for m in order:
        for t in net.transitions:
            m2 = net.fire(m, t)
            if m2 is None:
                continue
            if m2 not in seen:
                seen.add(m2)
                order.append(m2)
            arcs.append((m.text(), t, m2.text()))
    fired = {t for _, t, _ in arcs}
    return bn.TransitionSystem.build(
        initial=m0.text(),
        arcs=arcs,
        states=tuple(m.text() for m in order),
        events=tuple(t for t in net.transitions if t in fired),
        name=(net.name + "-rg") if net.name else None,
    )


# ---------------------------------------------------------------------------
# simulation oracle


def all_simulations(a, b):
    """Every event-preserving initial-fixing state map from a into b, as
    index tuples (phi[i] = image of state i).  Exhaustive product search."""
    if set(a.events) - set(b.events):
        return []
    ev_map = [b.event_index[e] for e in a.events]
    succ = {(s, e): d for s, e, d in b.arcs}
    out = []
    for phi in itertools.product(range(len(b.states)), repeat=len(a.states)):
        if phi[a.initial] != b.initial:
            continue
        if all(succ.get((phi[s], ev_map[e])) == phi[d] for (s, e, d) in a.arcs):
            out.append(phi)
    return out


# ---------------------------------------------------------------------------
# modification oracle


def _rgs(length, groups):
    """Restricted-growth strings of a given length using exactly `groups`
    group ids: canonical representatives of the set partitions."""

    def rec(prefix, used):
        if len(prefix) == length:
            if used == groups:
                yield tuple(prefix)
            return
        if used + (length - len(prefix)) < groups:
            return
        for g in range(min(used, groups - 1) + 1):
            yield from rec(prefix + [g], max(used, g + 1))

    yield from rec([], 0)


def brute_decide(ts, tau, kind, mode, kappa):
    """Exhaustive minimum-cost search over modification plans.

    Shares only apply_plan and has_property with the library; the candidate
    enumeration itself is naive, in decide()'s order, so the returned plan
    is comparable exactly.  Removals go by size, then combinations in item
    order; splits by cost, then the per-event extra group counts in
    lexicographic order, then each split event's restricted-growth strings
    in turn, the first event's outermost.
    """
    prop = bn.property_for_mode(mode)

    def ok(plan):
        try:
            modified = bn.apply_plan(ts, plan)
        except bn.InvalidPlan:
            return None
        return plan if bn.has_property(modified, tau, prop) else None

    if kind == "split":
        n_events = len(ts.events)
        if kappa < n_events:
            return None
        occ = [len(ts.event_arcs[e]) for e in range(n_events)]
        for cost in range(n_events, kappa + 1):
            extra = cost - n_events
            for xs in itertools.product(*(range(min(o - 1, extra) + 1) for o in occ)):
                if sum(xs) != extra:
                    continue
                per_event = [
                    list(_rgs(occ[e], xs[e] + 1)) if xs[e] else [None]
                    for e in range(n_events)
                ]
                for combo in itertools.product(*per_event):
                    splits = tuple(
                        (ts.events[e], combo[e])
                        for e in range(n_events)
                        if combo[e] is not None
                    )
                    plan = ok(bn.ModificationPlan(kind="split", cost=cost, splits=splits))
                    if plan is not None:
                        return plan
        return None

    if kind == "edge":
        items = [(ts.states[s], ts.events[e], ts.states[d]) for (s, e, d) in ts.arcs]
        key = "edges"
    elif kind == "event":
        items = list(ts.events)
        key = "events"
    else:
        items = [s for i, s in enumerate(ts.states) if i != ts.initial]
        key = "states"
    for cost in range(0, kappa + 1):
        for combo in itertools.combinations(items, cost):
            plan = ok(bn.ModificationPlan(kind=kind, cost=cost, **{key: tuple(combo)}))
            if plan is not None:
                return plan
    return None


# ---------------------------------------------------------------------------
# graph corpus


def _canon(n, edges):
    best = None
    for perm in itertools.permutations(range(n)):
        es = tuple(sorted(tuple(sorted((perm[a], perm[b]))) for a, b in edges))
        if best is None or es < best:
            best = es
    return (n, best)


def exhaustive_graphs():
    """All graphs with 2..4 vertices, 1..4 edges and degrees within 1..3,
    one representative per isomorphism class.  Exactly eight of them."""
    seen, out = set(), []
    for n in range(2, 5):
        pairs = list(itertools.combinations(range(n), 2))
        for m in range(1, 5):
            if m > len(pairs):
                continue
            for combo in itertools.combinations(pairs, m):
                deg = [0] * n
                for a, b in combo:
                    deg[a] += 1
                    deg[b] += 1
                if any(d == 0 for d in deg) or any(d > 3 for d in deg):
                    continue
                key = _canon(n, combo)
                if key not in seen:
                    seen.add(key)
                    out.append(
                        bn.Graph3B.build(
                            [("v%d" % a, "v%d" % b) for a, b in combo],
                            name="x%d" % len(out),
                        )
                    )
    return out


def random_graphs(count, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(2, 4)
        pairs = list(itertools.combinations(range(n), 2))
        rng.shuffle(pairs)
        m = rng.randint(1, min(4, len(pairs)))
        combo = pairs[:m]
        deg = [0] * n
        for a, b in combo:
            deg[a] += 1
            deg[b] += 1
        if any(d == 0 for d in deg) or any(d > 3 for d in deg):
            continue
        names = ["v%d" % i for i in range(n)]
        rng.shuffle(names)
        out.append(
            bn.Graph3B.build([(names[a], names[b]) for a, b in combo], name="r%d" % len(out))
        )
    return out
