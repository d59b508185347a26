"""Vertex-cover reductions: gadget builders and cover-to-plan constructors.

These tie the modification solvers to a problem with independently checkable
answers.  A degree-bounded graph is turned into a transition system whose
modification problem (split/edge/event/state, directed or bidirectional
variant) has a solution within the construction's budget exactly when the
graph has a small enough vertex cover.  A brute-force cover search provides
the reference answer, and covers translate into concrete plans whose applied
systems must pass the separation properties — an end-to-end oracle for the
exact searches.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import LambdaOutOfRange, NotACover, ParseError, UnknownId
from .interactions import BooleanType
from .modify import KINDS, ModificationPlan, apply_plan, decide
from .regions import has_property, property_for_mode
from .ts import TransitionSystem, _check_name, directives

VARIANTS = ("directed", "bidirectional")


class Graph3B:
    """Undirected graph, each vertex in 1..3 distinct edges, no loops."""

    __slots__ = ("name", "vertices", "vertex_index", "edges")

    def __init__(self, name, vertices, vertex_index, edges):
        self.name = name
        self.vertices = vertices  # tuple of names
        self.vertex_index = vertex_index
        self.edges = edges  # tuple of (i0, i1) index pairs, i0 < i1

    @classmethod
    def build(cls, edges, vertices=None, name=None) -> "Graph3B":
        """edges as (u, v) name pairs; vertex order = explicit list or first
        appearance in the edge list.  Every name, of the graph and of each
        vertex, must be one token the graph format can read back
        (ts._check_name)."""
        _check_name(name, "graph")
        order: list[str] = []
        index: dict[str, int] = {}

        def intern(v: str) -> int:
            if v not in index:
                _check_name(v, "vertex")
                index[v] = len(order)
                order.append(v)
            return index[v]

        if vertices is not None:
            for v in vertices:
                if v in index:
                    raise ParseError(f"vertex {v!r} listed twice")
                intern(v)
        pairs = []
        seen = set()
        degree: dict[int, int] = {}
        for (u, v) in edges:
            if vertices is not None:
                if u not in index:
                    raise UnknownId(u, "edge endpoint")
                if v not in index:
                    raise UnknownId(v, "edge endpoint")
            iu, iv = intern(u), intern(v)
            if iu == iv:
                raise ParseError(f"self-loop at {u!r}")
            pair = (min(iu, iv), max(iu, iv))
            if pair in seen:
                raise ParseError(f"duplicate edge {u!r} {v!r}")
            seen.add(pair)
            pairs.append(pair)
            degree[iu] = degree.get(iu, 0) + 1
            degree[iv] = degree.get(iv, 0) + 1
        for i, v in enumerate(order):
            d = degree.get(i, 0)
            if d == 0:
                raise ParseError(f"vertex {v!r} has no edge")
            if d > 3:
                raise ParseError(f"vertex {v!r} lies in {d} edges, at most 3 allowed")
        return cls(name, tuple(order), index, tuple(pairs))

    def edge_names(self) -> list[tuple[str, str]]:
        return [(self.vertices[a], self.vertices[b]) for (a, b) in self.edges]

    def __repr__(self):
        return f"Graph3B({self.name!r}, n={len(self.vertices)}, m={len(self.edges)})"


_GRAPH_SHAPES = {
    "graph": (1, "expected `graph <name>`", "duplicate graph declaration"),
    "vertex": (1, "expected `vertex <v>`", None),
    "edge": (2, "expected `edge <u> <v>`", None),
}


def parse_graph(text: str) -> Graph3B:
    """Parse the graph format (read by ts.directives): optional `graph
    <name>`, any `vertex <v>` lines, which then fix the vertex order, and
    `edge <u> <v>` lines; the graph is then checked as Graph3B.build checks
    it."""
    name = None
    vertices: list[str] = []
    edges: list[tuple[str, str]] = []
    for _, parts in directives(text, _GRAPH_SHAPES):
        if parts[0] == "graph":
            name = parts[1]
        elif parts[0] == "vertex":
            vertices.append(parts[1])
        else:
            edges.append((parts[1], parts[2]))
    return Graph3B.build(edges, vertices=vertices or None, name=name)


def serialize_graph(g: Graph3B) -> str:
    out = []
    if g.name:
        out.append(f"graph {g.name}")
    for v in g.vertices:
        out.append(f"vertex {v}")
    for (u, v) in g.edge_names():
        out.append(f"edge {u} {v}")
    return "\n".join(out) + "\n"


def brute_force_vc(g: Graph3B, lam: int) -> tuple[str, ...] | None:
    """Lexicographically least vertex cover of size at most lam, or None.

    Subsets are compared as sorted index tuples; exhaustive by design — this
    is the reference the reductions are checked against, so it must stay
    independent of the solvers.
    """
    n = len(g.vertices)
    candidates = []

    def covers(subset: tuple[int, ...]) -> bool:
        s = set(subset)
        return all(a in s or b in s for (a, b) in g.edges)

    from itertools import combinations

    for size in range(0, min(lam, n) + 1):
        for combo in combinations(range(n), size):
            if covers(combo):
                candidates.append(combo)
    if not candidates:
        return None
    best = min(candidates)
    return tuple(g.vertices[i] for i in best)


@dataclass(frozen=True)
class GadgetSpec:
    problem: str
    variant: str
    lam: int

    def __post_init__(self):
        if self.problem not in KINDS:
            raise ParseError(f"unknown gadget problem {self.problem!r}")
        if self.variant not in VARIANTS:
            raise ParseError(f"unknown gadget variant {self.variant!r}")


def variant_for_type(tau: BooleanType) -> str:
    """Gadget variant matching a target type: bidirectional when the type's
    partial interactions are a nonempty subset of {used, free}."""
    omega = tau.tags - {"nop", "swap"}
    if omega and omega <= {"used", "free"}:
        return "bidirectional"
    return "directed"


def _emit(arcs: list, bidir: bool, src: str, ev: str, dst: str) -> None:
    arcs.append((src, ev, dst))
    if bidir:
        arcs.append((dst, ev, src))


def build_gadget(g: Graph3B, spec: GadgetSpec) -> tuple[TransitionSystem, int]:
    """The reduction system for (problem, variant) plus its budget.

    Budgets: split n+2m-1+lam; edge lam (directed) or 2*lam (bidirectional);
    event and state lam in both variants.
    """
    n, m = len(g.vertices), len(g.edges)
    lam = spec.lam
    if lam < 0 or lam > n:
        raise LambdaOutOfRange(lam, n)
    bidir = spec.variant == "bidirectional"
    arcs: list[tuple[str, str, str]] = []

    if spec.problem == "split":
        for i, (a, b) in enumerate(g.edges):
            va, vb = g.vertices[a], g.vertices[b]
            bot, t = f"⊥_{i}", [f"t_{i}.{j}" for j in range(5)]
            _emit(arcs, bidir, bot, f"w_{i}", t[0])
            _emit(arcs, bidir, t[0], va, t[1])
            _emit(arcs, bidir, t[1], vb, t[2])
            _emit(arcs, bidir, t[2], va, t[3])
            _emit(arcs, bidir, t[3], vb, t[4])
            if i + 1 < m:
                _emit(arcs, bidir, bot, f"⊖_{i + 1}", f"⊥_{i + 1}")
        ts = TransitionSystem.build(initial="⊥_0", arcs=arcs, name=g.name)
        return ts, n + 2 * m - 1 + lam

    # hub-based gadgets share their shape; the state variant drops the hub
    # arcs into the middle and end of each edge path, and only the edge
    # problem (needing both directions gone) pays double in the
    # bidirectional variant
    hub_all = spec.problem != "state"
    for i, (a, b) in enumerate(g.edges):
        va, vb = g.vertices[a], g.vertices[b]
        t = [f"t_{i}.{j}" for j in range(3)]
        _emit(arcs, bidir, "ι", f"y_{i}.0", t[0])
        _emit(arcs, bidir, t[0], va, t[1])
        if hub_all:
            _emit(arcs, bidir, "ι", f"y_{i}.1", t[1])
        _emit(arcs, bidir, t[1], vb, t[2])
        if hub_all:
            _emit(arcs, bidir, "ι", f"y_{i}.2", t[2])
    for j, v in enumerate(g.vertices):
        f0, f1 = f"f_{j}.0", f"f_{j}.1"
        _emit(arcs, bidir, "ι", f"z_{j}", f0)
        _emit(arcs, bidir, f0, v, f1)
        for k in range(lam + 1):
            _emit(arcs, bidir, f0, f"a_{k}", f1)
    ts = TransitionSystem.build(initial="ι", arcs=arcs, name=g.name)
    if spec.problem == "edge":
        return ts, 2 * lam if bidir else lam
    return ts, lam


def cover_to_solution(g: Graph3B, spec: GadgetSpec, cover) -> ModificationPlan:
    """The constructive half of the reduction: a vertex cover mapped to the
    plan the construction promises, without running any search."""
    idx = []
    for v in cover:
        if v not in g.vertex_index:
            raise NotACover(f"{v!r} is not a vertex")
        idx.append(g.vertex_index[v])
    if len(set(idx)) != len(idx):
        raise NotACover("cover lists a vertex twice")
    cov = set(idx)
    for (a, b) in g.edges:
        if a not in cov and b not in cov:
            raise NotACover(f"edge {g.vertices[a]} {g.vertices[b]} uncovered")
    if len(cov) > spec.lam:
        raise NotACover(f"cover size {len(cov)} exceeds λ={spec.lam}")
    bidir = spec.variant == "bidirectional"
    n, m = len(g.vertices), len(g.edges)

    if spec.problem == "split":
        # per edge path, the cover picks which visit flips to the primed
        # copy: a lone covering endpoint primes its first visit, a doubly
        # covered edge primes the second visit of both endpoints
        groups: dict[int, list[int]] = {v: [] for v in cov}
        for (a, b) in g.edges:
            a_in, b_in = a in cov, b in cov
            if a_in and b_in:
                ga, gb = (0, 1), (0, 1)
            elif a_in:
                ga, gb = (1, 0), (0, 0)
            else:  # b_in: the cover was checked above
                ga, gb = (0, 0), (0, 1)
            for vert, pair in ((a, ga), (b, gb)):
                if vert in cov:
                    for visit in pair:
                        groups[vert].extend((visit, visit) if bidir else (visit,))
        splits = tuple(
            (g.vertices[v], tuple(groups[v])) for v in sorted(cov)
        )
        cost = (n + 2 * m - 1) + len(cov)
        return ModificationPlan(kind="split", cost=cost, splits=splits)

    if spec.problem == "edge":
        edges = []
        for v in sorted(cov):
            f0, f1 = f"f_{v}.0", f"f_{v}.1"
            name = g.vertices[v]
            edges.append((f0, name, f1))
            if bidir:
                edges.append((f1, name, f0))
        return ModificationPlan(kind="edge", cost=len(edges), edges=tuple(edges))

    if spec.problem == "event":
        events = tuple(g.vertices[v] for v in sorted(cov))
        return ModificationPlan(kind="event", cost=len(events), events=events)

    states = tuple(f"f_{v}.1" for v in sorted(cov))
    return ModificationPlan(kind="state", cost=len(states), states=states)


@dataclass
class EquivalenceReport:
    problem: str
    variant: str
    mode: str
    lam: int
    kappa: int
    cover: tuple[str, ...] | None
    plan: ModificationPlan | None
    agree: bool
    construction_ok: bool | None  # None when the graph has no small cover


def check_equivalence(
    g: Graph3B,
    lam: int,
    tau: BooleanType,
    problem: str,
    mode: str,
    node_limit: int | None = None,
) -> EquivalenceReport:
    """Run both sides of the reduction and compare.

    Yes-side bonus check: the cover's constructed plan must stay within the
    budget and its applied system must pass the mode's separation property.
    Budget overruns propagate — a truncated search must never be reported as
    a verdict.
    """
    spec = GadgetSpec(problem=problem, variant=variant_for_type(tau), lam=lam)
    ts, kappa = build_gadget(g, spec)
    cover = brute_force_vc(g, lam)
    plan = decide(ts, tau, problem, mode, kappa, node_limit=node_limit)
    agree = (cover is None) == (plan is None)
    construction_ok = None
    if cover is not None:
        built = cover_to_solution(g, spec, cover)
        modified = apply_plan(ts, built)
        prop = property_for_mode(mode)
        construction_ok = built.cost <= kappa and has_property(modified, tau, prop)
    return EquivalenceReport(
        problem=problem,
        variant=spec.variant,
        mode=mode,
        lam=lam,
        kappa=kappa,
        cover=cover,
        plan=plan,
        agree=agree,
        construction_ok=construction_ok,
    )
