"""Budgeted transition-system modifications and their exact decision solvers.

Four plan kinds make a system implementable: splitting event labels into
fresh copies, or removing edges, events, or states.  decide() answers the
corresponding decision problem exactly for a budget and implementation mode,
returning a minimum-cost (canonically least) plan on yes.

Search layout: each search is walks that yield candidates and one loop
that checks them.  The walks go, in lexicographic order over explicit
stacks, only over the candidates that meet every set of a refutation
family, so the searches stay exact.  Splitting walks, per total label
count, the per-event group counts that split an event of each refuting
even-walk pattern (_hitting_compositions, _abab_patterns), then the split
events' set partitions as restricted-growth strings (_group_strings), which
decides each pattern at the last slot among the arcs it watches and skips
the strings on which one still refutes.  Removal walks, cost level after
cost level, the subsets that hit every hard refutation certificate
(_hitting_combos).  It holds that family as bitmasks over the certificates'
indices, the ones each item hits and the ones each prefix misses, so placing
an item is one AND, and when at most LOOKAHEAD slots are left after an item
it places the item only if those slots can still meet every certificate (an
exact test), so it never extends such a prefix that cannot finish.  Node
charges: one per composition reached or prefix cut, per group tried, per
item placed and per item that test places ahead of its last slot, plus each
check's own.

The searches work in integer indices from the input system to the solver.
Candidates are index arcs: a split candidate is the input's arcs with the
group of each arc as its label (its states and initial state are the
input's), a removal candidate the surviving arcs.  Each candidate is asked
two questions through one check (_check): refute(kind, a, b), the
refutation core of one atom or None, and first_failure(prop), the first
unsolvable atom in decide_property's order with its core, or None.  For a
linear type (nop and swap plus any of inp, out, used, free; see
boolnet.linear) the check is GF(2) elimination: no TransitionSystem is
built, the kernel is never called, and each question charges one node.  The
core then comes from the refutation itself.  For any other type the check
builds an anonymous TransitionSystem and asks the kernel: refute is one
solve_index call, first_failure is decide_property's atom loop in index
space (regions._retire_atoms) plus, when the removal search wants a core, a
second solve of the failure atom.  Either way a core is a bitmask over the
arcs.  The check's events are plain indices and its state names only name a
state its walk misses (split candidates pass the input's, removal
candidates their original indices), so the searches build no names, no
Region and no SeparationAtom; names appear only in the plans they return.
Either check walks its candidate (ts.spanning_tree; the kernel's in the
TransitionSystem constructor) while it is built, before it charges a node,
and raises Unreachable for a state the walk misses: that walk is the one
reachability test, and the removal search skips such a candidate.  Both
search loops then ask each candidate one question (_first_failure): the
atom that refuted the last failing candidate, when it is still an atom
here and still refuted, else the check's first_failure.  Removal items are
data: each removable edge, event or state is its arc mask plus the bit of
the state or event it takes with it, so the three removal kinds differ
only in their item list, and apply_plan and the removal search share one
validity screen over those masks (_dead_event) before that walk.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import InvalidPlan, ParseError, UnknownId, Unreachable
from .interactions import BooleanType
from .linear import LINEAR_TAGS, LinearProblem, is_linear
from .regions import (
    ESSP,
    SSP,
    CompiledProblem,
    NodeBudget,
    _bits,
    _retire_atoms,
    property_for_mode,
)
from .ts import MODES, TransitionSystem, directives

KINDS = ("split", "edge", "event", "state")

DEFAULT_NODE_LIMIT = 10_000_000


@dataclass(frozen=True)
class ModificationPlan:
    """One concrete modification.

    splits: per split event, the group id of each of its occurrences in
    canonical arc order (group 0 keeps the base label, group k gets k primes).
    edges/events/states: the removed elements by name.  cost: label count of
    the result for splits, number of removed elements otherwise.  A plan
    carries only its own kind's payload and a non-negative cost, which for a
    removal is the payload's length; anything else raises ParseError.  A
    split plan's cost depends on the system, so apply_plan checks it.
    """

    kind: str
    cost: int
    splits: tuple[tuple[str, tuple[int, ...]], ...] = ()
    edges: tuple[tuple[str, str, str], ...] = ()
    events: tuple[str, ...] = ()
    states: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ParseError(f"unknown plan kind {self.kind!r}")
        if self.cost < 0:
            raise ParseError(f"negative plan cost {self.cost}")
        for field in ("splits", "edges", "events", "states"):
            if getattr(self, field) and field != self.kind + "s":
                raise ParseError(f"{self.kind} plan carries {field}")
        if self.kind != "split":
            n = len(getattr(self, self.kind + "s"))
            if self.cost != n:
                raise ParseError(f"{self.kind} plan of cost {self.cost} removes {n}")

    def is_noop(self) -> bool:
        return not (self.splits or self.edges or self.events or self.states)


def split_plan_cost(ts: TransitionSystem, splits: dict[str, tuple[int, ...]]) -> int:
    return len(ts.events) + sum(max(g) for g in splits.values() if g)


def _split_labels(ts: TransitionSystem, groups_used: dict[int, int]) -> dict[tuple[int, int], str]:
    """Names for (event index, group): group 0 keeps the event's name, higher
    groups append primes, skipping collisions with any existing or already
    assigned label."""
    taken = set(ts.events)
    labels: dict[tuple[int, int], str] = {}
    for e in range(len(ts.events)):
        g = groups_used.get(e, 1)
        for k in range(g):
            if k == 0:
                name = ts.events[e]
            else:
                name = ts.events[e] + "'" * k
                while name in taken:
                    name += "'"
                taken.add(name)
            labels[(e, k)] = name
    return labels


def apply_plan(ts: TransitionSystem, plan: ModificationPlan) -> TransitionSystem:
    """Apply a plan, validating it against the system.

    Raises UnknownId for references outside the system, ParseError for
    structurally broken payloads, and InvalidPlan(reason) for the semantic
    violations: empty-group, initial-removed, unreachable-state,
    useless-event.  A split plan whose cost is not split_plan_cost raises
    ParseError, after every other check.
    """
    if plan.kind == "split":
        return _apply_split(ts, plan)
    return _apply_removal(ts, plan)


def _apply_split(ts: TransitionSystem, plan: ModificationPlan) -> TransitionSystem:
    grp = [0] * len(ts.arcs)
    groups_used: dict[int, int] = {}
    seen_events = set()
    for name, groups in plan.splits:
        if name not in ts.event_index:
            raise UnknownId(name, "split event")
        if name in seen_events:
            raise ParseError(f"event {name!r} listed twice in split plan")
        seen_events.add(name)
        e = ts.event_index[name]
        occ = ts.event_arcs[e]
        if len(groups) != len(occ):
            raise ParseError(
                f"split of {name!r} lists {len(groups)} occurrences, system has {len(occ)}"
            )
        if any(g < 0 for g in groups):
            raise ParseError(f"negative group id in split of {name!r}")
        top = max(groups)
        missing = set(range(top + 1)) - set(groups)
        if missing:
            raise InvalidPlan("empty-group", f"{name!r} never uses group {min(missing)}")
        groups_used[e] = top + 1
        for pos, g in enumerate(groups):
            grp[occ[pos]] = g
    cost = split_plan_cost(ts, dict(plan.splits))
    if plan.cost != cost:
        raise ParseError(f"split plan of cost {plan.cost} gives {cost} labels")
    labels = _split_labels(ts, groups_used)
    arcs = [(ts.states[s], labels[e, g], ts.states[d]) for (s, e, d), g in zip(ts.arcs, grp)]
    return TransitionSystem.build(ts.initial_state, arcs, name=ts.name)


def _removal_items(ts: TransitionSystem, kind: str) -> list[tuple]:
    """Every element a plan of this removal kind may delete, in canonical
    order, as (name, arc mask, state bit, event bit): the arcs it takes out,
    and the state or event it deletes outright (bit 0 for none).  The
    initial state is never an item."""
    if kind == "edge":
        return [(ts.arc_names(a), 1 << a, 0, 0) for a in range(len(ts.arcs))]
    if kind == "event":
        return [(ts.events[e], _mask_of(occ), 0, 1 << e) for e, occ in enumerate(ts.event_arcs)]
    return [
        (ts.states[s], _mask_of(ts.out_arcs[s] + ts.in_arcs[s]), 1 << s, 0)
        for s in range(len(ts.states))
        if s != ts.initial
    ]


def _apply_removal(ts: TransitionSystem, plan: ModificationPlan) -> TransitionSystem:
    kind = plan.kind
    items = _removal_items(ts, kind)
    index = {item[0]: i for i, item in enumerate(items)}
    chosen = set()
    for name in getattr(plan, kind + "s"):
        shown = "{} -{}-> {}".format(*name) if kind == "edge" else name
        i = index.get(name)
        if i is None:
            if kind == "state" and name == ts.initial_state:
                raise InvalidPlan("initial-removed", name)
            raise UnknownId(shown, "removed " + kind)
        if i in chosen:
            raise ParseError(f"{kind} {shown if kind == 'edge' else repr(name)} listed twice")
        chosen.add(i)
    removed_mask, gone_states, gone_events = _fold(items, chosen)
    e = _dead_event([_mask_of(occ) for occ in ts.event_arcs], removed_mask, gone_events)
    if e >= 0:
        raise InvalidPlan("useless-event", ts.events[e])
    states, events, _, initial, arcs = _restrict(ts, removed_mask, gone_states, gone_events)
    names = tuple(ts.states[s] for s in states), tuple(ts.events[e] for e in events)
    try:
        return TransitionSystem(ts.name, *names, initial, tuple(arcs))
    except Unreachable as exc:
        raise InvalidPlan("unreachable-state", exc.state) from None


def _fold(items: list[tuple], chosen) -> tuple[int, int, int]:
    """The arcs, states and events the chosen items delete, as bitmasks."""
    removed_mask = gone_states = gone_events = 0
    for i in chosen:
        _, mask, state_bit, event_bit = items[i]
        removed_mask |= mask
        gone_states |= state_bit
        gone_events |= event_bit
    return removed_mask, gone_states, gone_events


def _dead_event(event_masks: list[int], removed_mask: int, gone_events: int) -> int:
    """The lowest kept event with no surviving arc, or -1."""
    for e, mask in enumerate(event_masks):
        if not mask & ~removed_mask and not (gone_events >> e) & 1:
            return e
    return -1


def _restrict(ts: TransitionSystem, removed_mask: int, gone_states: int, gone_events: int):
    """The system without the removed arcs and gone states and events, in
    indices: the original index of each surviving state, event and arc, the
    new initial state, and the surviving arcs in new indices.  Validity is
    the caller's business: see _dead_event, and the walk of whatever is
    built from the result (ts.spanning_tree) for reachability."""
    states = [s for s in range(len(ts.states)) if not (gone_states >> s) & 1]
    events = [e for e in range(len(ts.events)) if not (gone_events >> e) & 1]
    origin = [a for a in range(len(ts.arcs)) if not (removed_mask >> a) & 1]
    state_at = {s: i for i, s in enumerate(states)}
    event_at = {e: i for i, e in enumerate(events)}
    arcs = []
    for a in origin:
        src, e, dst = ts.arcs[a]
        arcs.append((state_at[src], event_at[e], state_at[dst]))
    return states, events, origin, state_at[ts.initial], arcs


# -- plan dump ------------------------------------------------------------------


def serialize_plan(plan: ModificationPlan) -> str:
    out = [f"plan {plan.kind} cost {plan.cost}"]
    for name, groups in plan.splits:
        for pos, g in enumerate(groups):
            out.append(f"split {name} {pos} {g}")
    for (src, ev, dst) in plan.edges:
        out.append(f"rm-edge {src} {ev} {dst}")
    for ev in plan.events:
        out.append(f"rm-event {ev}")
    for s in plan.states:
        out.append(f"rm-state {s}")
    return "\n".join(out) + "\n"


_PLAN_SHAPES = {
    "plan": (3, "expected `plan <kind> cost <n>`", "second plan header"),
    "split": (3, "stray split line", None),
    "rm-edge": (3, "stray rm-edge line", None),
    "rm-event": (1, "stray rm-event line", None),
    "rm-state": (1, "stray rm-state line", None),
}
# the one payload line each plan kind admits
_PAYLOAD = {"split": "split", "edge": "rm-edge", "event": "rm-event", "state": "rm-state"}


def parse_plan(text: str) -> ModificationPlan:
    """Parse a plan dump (read by ts.directives): one `plan <kind> cost <n>`
    header first, then only its kind's payload lines: `split <event>
    <occurrence> <group>`, `rm-edge <src> <event> <dst>`, `rm-event <event>`
    or `rm-state <state>`.  Each event's split occurrences must be 0..n-1,
    each given once."""
    kind = cost = None
    occurrences: dict[str, dict[int, int]] = {}  # split event -> occurrence -> group
    payload: list = []
    for no, parts in directives(text, _PLAN_SHAPES):
        kw = parts[0]
        if kw == "plan":
            _, kind, word, n = parts
            if word != "cost":
                raise ParseError(f"line {no}: expected `plan <kind> cost <n>`")
            if kind not in KINDS:
                raise ParseError(f"line {no}: unknown plan kind {kind!r}")
            try:
                cost = int(n)
            except ValueError:
                raise ParseError(f"line {no}: bad cost {n!r}") from None
        elif kind is None:
            raise ParseError(f"line {no}: content before plan header")
        elif kw != _PAYLOAD[kind]:
            raise ParseError(f"line {no}: stray {kw} line")
        elif kw == "split":
            try:
                pos, g = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError(f"line {no}: bad split indices") from None
            occ = occurrences.setdefault(parts[1], {})
            if pos in occ:
                raise ParseError(f"line {no}: occurrence {pos} of {parts[1]!r} assigned twice")
            occ[pos] = g
        else:
            payload.append(tuple(parts[1:]) if kw == "rm-edge" else parts[1])
    if kind is None:
        raise ParseError("missing plan header")
    for name, occ in occurrences.items():
        if set(occ) != set(range(len(occ))):
            raise ParseError(f"split of {name!r} skips an occurrence index")
        payload.append((name, tuple(occ[i] for i in range(len(occ)))))
    # the payload fills the plan's field of its kind, as ModificationPlan names it
    return ModificationPlan(kind=kind, cost=cost, **{kind + "s": tuple(payload)})


# -- fast (polynomial) decisions ------------------------------------------------


@dataclass
class FastPathResult:
    outcome: str  # "yes", "no", "fall-through"
    plan: ModificationPlan | None = None
    reason: str = ""


def decide_fast_path(
    ts: TransitionSystem,
    tau: BooleanType,
    kind: str,
    mode: str,
    budget: NodeBudget | None = None,
) -> FastPathResult:
    """Polynomial-time decisions for the types whose partial interactions are
    all absent (splitting/edge removal) or which are exactly {nop,swap}
    (state removal).  Everything else falls through to the exact search.

    Event removal always falls through: no polynomial characterization is
    claimed for it even at τ={nop,swap}.  The state-pair check of realize
    goes through the candidate check (_check), so {nop,swap} gets it by
    elimination.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "embed" or kind == "event":
        return FastPathResult("fall-through")
    state = kind == "state"
    if not (tau.tags == {"nop", "swap"} if state else tau.tags <= {"nop", "swap", "set", "res"}):
        return FastPathResult("fall-through")
    # split/edge: no partial interaction exists, so no missing occurrence is
    # ever solvable: the property holds exactly for complete occurrence
    # tables, and neither splitting nor removing edges can complete one.
    # state: a kept state set must give every kept state every event inside
    # it; the largest such set contains the initial state only when every
    # event occurs everywhere (every state is reachable, so a missing
    # occurrence anywhere poisons the initial state), and then it is every
    # state, so an unsolvable state pair is final
    if len(ts.arcs) != len(ts.states) * len(ts.events):
        if state:
            return FastPathResult("no", reason="initial state cannot keep all events")
        return FastPathResult("no", reason="an event is missing at some state")
    if mode == "realize":
        pair = _inseparable_pair(ts, tau, budget)
        if pair:
            return FastPathResult("no", reason=f"state pair {pair} not separable")
    cost = len(ts.events) if kind == "split" else 0
    return FastPathResult("yes", plan=ModificationPlan(kind=kind, cost=cost))


def _inseparable_pair(ts: TransitionSystem, tau: BooleanType, budget) -> str:
    """The first state pair of ts no region separates, as text, or ""."""
    check = _check(tau, budget, False, ts.states, len(ts.events), ts.initial, ts.arcs)
    failure = check.first_failure("ssp")
    return "" if failure is None else f"({ts.states[failure[1]]},{ts.states[failure[2]]})"


# -- candidate checks ----------------------------------------------------------------


def _check(tau, budget, cores, states, n_events, initial, arcs):
    """The candidate check for these state names, event count and index
    arcs: a LinearProblem when tau is linear, else the kernel.

    Both answer refute(kind, a, b), the core of an unsolvable atom as a
    bitmask over the arcs or None when a region solves it, and
    first_failure(prop), (kind, a, b, core) of the first unsolvable atom in
    decide_property's order or None.  The core is 0 unless cores is set.
    """
    if is_linear(tau):
        return LinearProblem(states, n_events, initial, arcs, tau, budget, cores)
    events = tuple(range(n_events))
    return _KernelCheck(TransitionSystem(None, tuple(states), events, initial, tuple(arcs)), tau, budget, cores)


class _KernelCheck:
    """The candidate check by the search kernel: refute is one solve_index
    call, and first_failure is decide_property's atom loop (_retire_atoms)
    plus, for a core, a second solve of its failure atom that collects the
    arcs it touched."""

    __slots__ = ("problem", "budget", "cores")

    def __init__(self, ts: TransitionSystem, tau: BooleanType, budget, cores: bool):
        self.problem = CompiledProblem(ts, tau)
        self.budget = budget
        self.cores = cores

    def refute(self, kind: int, a: int, b: int) -> int | None:
        sup, _, core = self.problem.solve_index(kind, a, b, self.budget, self.cores)
        return None if sup is not None else core

    def first_failure(self, prop: str) -> tuple[int, int, int, int] | None:
        failure = _retire_atoms(self.problem, prop, self.budget, False)[0]
        if failure is None:
            return None
        return (*failure, self.refute(*failure) if self.cores else 0)


def _first_failure(check, prop: str, first: tuple | None) -> tuple[int, int, int, int] | None:
    """The candidate's failure as (kind, a, b, core), or None when it has the
    property.  first is the atom carried from the last failing candidate, in
    this candidate's indices, or None when it is no atom here: when the
    check refutes it, it is the failure, and otherwise the check's
    first_failure is."""
    if first is not None:
        core = check.refute(*first)
        if core is not None:
            return (*first, core)
    return check.first_failure(prop)


# -- exact search ------------------------------------------------------------------


def resolve_node_limit(node_limit: int | None = None) -> int | None:
    """The node cap a decision runs under: node_limit, else the
    BOOLNET_NODE_LIMIT env var, else DEFAULT_NODE_LIMIT; None when 0 (unlimited).

    A negative node_limit raises ValueError, and an env value that is not a
    non-negative integer raises ParseError.
    """
    if node_limit is None:
        env = os.environ.get("BOOLNET_NODE_LIMIT", "")
        if not env:
            return DEFAULT_NODE_LIMIT
        try:
            node_limit = int(env)
        except ValueError:
            node_limit = -1
        if node_limit < 0:
            raise ParseError(f"BOOLNET_NODE_LIMIT must be a non-negative integer, not {env!r}")
    elif node_limit < 0:
        raise ValueError("node_limit must be nonnegative")
    return None if node_limit == 0 else node_limit


def decide(
    ts: TransitionSystem,
    tau: BooleanType,
    kind: str,
    mode: str,
    kappa: int,
    node_limit: int | None = None,
) -> ModificationPlan | None:
    """Exact decision: a minimum-cost plan within budget kappa whose result
    has the mode's separation property, or None when no such plan exists.

    kappa bounds the result's label count for splits and the removed-element
    count otherwise.  node_limit caps explored search states (None: the
    BOOLNET_NODE_LIMIT env var or 10^7; 0: unlimited; see
    resolve_node_limit for bad values); crossing it raises
    SearchBudgetExceeded rather than guessing.  Results are deterministic:
    cost first, then composition/subset enumeration order breaks ties.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if kappa < 0:
        raise ValueError("kappa must be nonnegative")
    budget = NodeBudget(resolve_node_limit(node_limit))
    if kind == "split" and kappa < len(ts.events):
        return None
    fast = decide_fast_path(ts, tau, kind, mode, budget)
    if fast.outcome == "no":
        return None
    if fast.outcome == "yes":
        return fast.plan if fast.plan.cost <= kappa else None
    if kind == "split":
        return _search_split(ts, tau, mode, kappa, budget)
    return _search_removal(ts, tau, kind, mode, kappa, budget)


# -- even-walk obstruction patterns ----------------------------------------------


def _abab_patterns(ts: TransitionSystem) -> list[tuple[int, int, int, int, int]]:
    """All four-arc walks with events (x, y, x, y): their end states share
    every region's support whenever no overwrite interaction is in play.

    Record: (a1, a2, a3, a4, alpha) with alpha the arc of x leaving the
    walk's end (-1 when absent).  Walks returning to their start are
    dropped: both of their conclusions are vacuous.
    """
    pats = []
    for a1, (s0, e1, s1) in enumerate(ts.arcs):
        for a2 in ts.out_arcs[s1]:
            _, e2, s2 = ts.arcs[a2]
            a3 = ts.arc_at.get((s2, e1))
            if a3 is None:
                continue
            s3 = ts.arcs[a3][2]
            a4 = ts.arc_at.get((s3, e2))
            if a4 is None:
                continue
            s4 = ts.arcs[a4][2]
            if s4 == s0:
                continue
            alpha = ts.arc_at.get((s4, e1))
            pats.append((a1, a2, a3, a4, -1 if alpha is None else alpha))
    return pats


# -- label-splitting search --------------------------------------------------------


def _search_split(ts, tau, mode, kappa, budget) -> ModificationPlan | None:
    prop = property_for_mode(mode)
    need_ssp = prop in ("ssp", "both")
    need_essp = prop in ("essp", "both")
    n_events = len(ts.events)
    occ = ts.event_arcs
    tops = [len(o) - 1 for o in occ]  # most extra groups per event
    event_of = [e for _, e, _ in ts.arcs]
    # each even-walk pattern, once per search: its walk and alpha, the arcs
    # whose groups can break it (the walk's, and alpha's when ESSP is asked),
    # and whether the intact walk refutes a candidate on its own (always for
    # SSP; for ESSP alone when its end state lacks the walk's first event).
    # The walk flips a support an even number of times, which proves nothing
    # once set or res can overwrite it, so only tags within LINEAR_TAGS.
    patterns = []
    masks = []  # per refuting pattern, its splittable events: one must split
    for a1, a2, a3, a4, alpha in _abab_patterns(ts) if tau.tags <= LINEAR_TAGS else ():
        watchable = {a1, a2, a3, a4}
        if need_essp and alpha >= 0:
            watchable.add(alpha)
        refutes = need_ssp or alpha < 0
        patterns.append((a1, a2, a3, a4, alpha, watchable, refutes))
        if refutes:
            masks.append(_mask_of(event_of[a] for a in watchable if tops[event_of[a]]))
    # the last failing atom, rechecked first: it usually refutes the next
    # candidate too.  (SSP, s, s') or (ESSP, (e, g), s)
    sticky = None
    for total in range(min(kappa - n_events, sum(tops)) + 1):
        for extra in _hitting_compositions(tops, total, masks, budget):
            for grp in _group_strings(extra, occ, patterns, len(ts.arcs), budget):
                # the input's arcs, arc a relabelled to group grp[a] of its
                # event; event_at numbers the (event, group) labels by first
                # appearance
                event_at: dict[tuple[int, int], int] = {}
                arcs = [(s, event_at.setdefault((e, g), len(event_at)), d) for (s, e, d), g in zip(ts.arcs, grp)]
                check = _check(tau, budget, False, ts.states, len(event_at), ts.initial, arcs)
                first = sticky
                if sticky is not None and sticky[0] == ESSP:
                    # not an atom of this candidate when the label is gone or
                    # occurs at the state
                    _, (e, g), b = sticky
                    arc = ts.arc_at.get((b, e))
                    a = event_at.get((e, g))
                    first = None if a is None or (arc is not None and grp[arc] == g) else (ESSP, a, b)
                failure = _first_failure(check, prop, first)
                if failure is None:
                    splits = tuple((ts.events[e], tuple(grp[a] for a in occ[e])) for e in range(n_events) if extra[e])
                    return ModificationPlan(kind="split", cost=n_events + total, splits=splits)
                kind, a, b, _ = failure
                sticky = (kind, list(event_at)[a] if kind == ESSP else a, b)
    return None


def _group_strings(extra: list[int], occ: list[list[int]], patterns: list[tuple], n_arcs: int, budget):
    """Every grouping of the split events' occurrences, the events e with
    extra[e] > 0: event after event, the occurrences occ[e] of each as a
    restricted-growth string into exactly extra[e] + 1 groups, in
    lexicographic order.  Yields the group of each of the n_arcs arcs (0
    for an arc of an unsplit event), one list updated in place.

    patterns are _search_split's even walks (a1, a2, a3, a4, alpha,
    watchable, refutes).  The walk assigns one slot, an occurrence, after
    another over an explicit stack, and decides each walk at the last slot
    among the arcs it watches (due), where every arc it reads has its group:
    a group that leaves the walk intact, when it refutes on its own or
    alpha leaves the walk's group, is skipped, and so is every string
    through it.  A walk that watches no split arc is never decided: the
    composition must break each refuting one (_hitting_compositions).
    Charges one node per group tried."""
    # per slot: its arc, its event's group count, and the occurrences of
    # that event left after it
    slots = [(a, x + 1, len(o) - pos - 1) for x, o in zip(extra, occ) if x for pos, a in enumerate(o)]
    slot_of = {a: i for i, (a, _, _) in enumerate(slots)}
    n = len(slots)
    due: list[list[tuple]] = [[] for _ in range(n)]
    for a1, a2, a3, a4, alpha, watchable, refutes in patterns:
        watched = [slot_of[a] for a in watchable if a in slot_of]
        if watched:
            due[max(watched)].append((a1, a2, a3, a4, alpha, refutes))
    grp = [0] * n_arcs  # a slot left backwards keeps its group until tried again
    choice = [-1] * n  # the group at each slot, -1 before its first try
    opened = [0] * (n + 1)  # the groups its event opened before each slot
    i = 0
    while i >= 0:
        if i == n:
            yield grp
            i -= 1
            continue
        arc, target, rem_after = slots[i]
        used = opened[i]
        g = choice[i]
        choice[i] = -1
        for g in range(g + 1, min(used, target - 1) + 1):
            now = used + 1 if g == used else used
            if target - now > rem_after:
                continue  # not enough occurrences left to open all groups
            budget.charge()
            grp[arc] = g
            if not any(
                grp[a1] == grp[a3] and grp[a2] == grp[a4] and (refutes or grp[alpha] != grp[a1])
                for a1, a2, a3, a4, alpha, refutes in due[i]
            ):
                choice[i] = g
                opened[i + 1] = now if rem_after else 0  # next event from 0
                break
        i += 1 if choice[i] >= 0 else -1


def _hitting_compositions(tops: list[int], total: int, masks: list[int], budget):
    """Every vector x with 0 <= x[i] <= tops[i] and sum total whose split
    set, the i with x[i] > 0, meets each bitmask of masks, in lexicographic
    order.  Yields one list, updated in place.  The walk places only values
    that leave the rest a feasible sum, and cuts a prefix once the least mask
    it leaves unmet has no bit after it, so each cut skips at least one
    vector.  Charges one node per vector yielded and one per prefix cut."""
    n = len(tops)
    room = [sum(tops[j:]) for j in range(n + 1)]  # the most x[j:] can hold
    x = [0] * n
    if total > room[0] or not n:
        if not total and not masks:
            budget.charge()
            yield x
        return
    left = [total] * (n + 1)  # what x[j:] must sum to
    unmet = [sorted(set(masks))] * (n + 1)  # the masks x[:j] leaves unmet, least first
    j, v = 0, total - room[1]  # v: the next value to try at position j
    while j >= 0:
        v = max(v, 0)
        if v > min(tops[j], left[j]):
            j -= 1
            v = x[j] + 1
            continue
        x[j] = v
        pending = unmet[j] if not v else [m for m in unmet[j] if not (m >> j) & 1]
        if (pending and not pending[0] >> (j + 1)) or j == n - 1:
            budget.charge()
            if not pending:
                yield x
            v += 1
        else:
            left[j + 1] = left[j] - v
            unmet[j + 1] = pending
            j += 1
            v = left[j] - room[j + 1]


# -- removal search -----------------------------------------------------------------


def _search_removal(ts, tau, kind, mode, kappa, budget) -> ModificationPlan | None:
    prop = property_for_mode(mode)
    items = _removal_items(ts, kind)
    n_items = len(items)
    event_masks = [_mask_of(occ) for occ in ts.event_arcs]
    last_fail: tuple | None = None  # atom key in original indices, see _atom_key

    # A certificate (key, mask) refutes the atom key (see _atom_key) on every
    # candidate that keeps the atom and every arc of mask.  A hard one's atom
    # survives every removal of this kind unless an item hits it, so each
    # viable combo must hit it: it is kept as the mask of the items that do.
    # A soft one's atom exists only once its alpha arc is removed: it is
    # checked per candidate.  The store only grows: each core refutes alone.
    # No pair is recorded twice: every later candidate removes an arc of
    # the core or loses the atom (the hitting walk, the soft screen).
    hard: list[int] = []
    soft_list: list[tuple] = []
    for combo in _hitting_combos(n_items, min(kappa, n_items), hard, budget):
        removal = _fold(items, combo)
        removed_mask, gone_states, gone_events = removal
        if _dead_event(event_masks, removed_mask, gone_events) >= 0:
            continue
        if any(not mask & removed_mask and _atom_alive(key, *removal) for key, mask in soft_list):
            continue
        states, events, arc_origin, initial, arcs = _restrict(ts, *removal)
        try:
            check = _check(tau, budget, True, states, len(events), initial, arcs)
        except Unreachable:
            continue  # raised by the check's walk, before it charges a node
        first = None
        if last_fail is not None and _atom_alive(last_fail, *removal):
            atom_kind, a, b, _ = last_fail
            a = _rank(gone_events if atom_kind == ESSP else gone_states, a)
            first = (atom_kind, a, _rank(gone_states, b))
        failure = _first_failure(check, prop, first)
        if failure is None:
            names = tuple(items[i][0] for i in combo)
            return ModificationPlan(kind=kind, cost=len(combo), **{kind + "s": names})
        atom_kind, a, b, core = failure
        key = last_fail = _atom_key(ts, atom_kind, (events if atom_kind == ESSP else states)[a], states[b])
        mask = _mask_of(arc_origin[a] for a in _bits(core))
        if key[3]:
            soft_list.append((key, mask))
        else:
            # an item hits it when it breaks the core, or takes the atom's state or event
            hits = (i for i, item in enumerate(items) if item[1] & mask or not _atom_alive(key, *item[1:]))
            hard.append(_mask_of(hits))
    return None


def _hitting_combos(n_items: int, kmax: int, masks: list[int], budget):
    """Every subset of at most kmax items of range(n_items) that meets each
    mask of masks (bitmasks over range(n_items)), which the caller may extend
    between yields, as a sorted tuple: by size, then in lexicographic order.

    A k-subset is placed item by item.  An item may not pass the least top
    bit of the masks the items before it miss, nor be placed at a depth d
    below k - 2 when the r = k - d - 1 items after it cannot meet every mask
    it leaves unmet (_can_finish, for r up to LOOKAHEAD).  At depth k - 2 an
    item is placed only when a later item meets every mask it leaves unmet,
    and those later items (fits) are what the last depth yields.  These
    tests are exact, so the walk skips only placements that yield nothing.
    Charges one node per item placed and per item a _can_finish test places
    ahead of its last slot; a skipped placement and the fits test charge
    nothing.

    The walk indexes the masks by position t in int bitmasks: hit[i] is the
    masks item i meets, low[L] those whose top bit is below L, and unmet[d]
    those the items before depth d miss, so a placement is one AND,
    unmet[d + 1] = unmet[d] & ~hit[item].  Only sizes over 1 place items
    before the last, so only they bring the index up to date.
    tests/test_modify.py keeps a reference walk over lists of unmet masks
    (list_hitting_combos) that must yield the same subsets."""
    full = (1 << n_items) - 1
    hit = [0] * n_items
    low = [0] * (n_items + 1)
    indexed = 0  # the masks hit and low cover
    if not masks:
        yield ()
    for k in range(1, kmax + 1):
        combo = [0] * k
        seen = len(masks)  # the masks this size has read
        unmet = [(1 << seen) - 1] + [0] * (k - 1)
        fits = _meeting_items(unmet[0], full, masks) if k == 1 else 0  # the last depth's items
        d = nxt = 0
        while True:
            if indexed < seen and k > 1:
                for t in range(indexed, seen):
                    m = masks[t]
                    bit = 1 << t
                    for length in range(m.bit_length(), n_items + 1):
                        low[length] |= bit
                    while m:
                        b = m & -m
                        hit[b.bit_length() - 1] |= bit
                        m ^= b
                indexed = seen
            u = unmet[d]
            if d == k - 1:
                c = fits >> nxt
                if c:
                    c = nxt + (c & -c).bit_length() - 1
                    budget.charge()
                    combo[d] = c
                    nxt = c + 1
                    yield tuple(combo)
                    for t in range(seen, len(masks)):  # arrived during the yield
                        m = masks[t]
                        bit = 1 << t
                        for j in range(k):
                            unmet[j] |= bit
                            if (m >> combo[j]) & 1:
                                break
                        if unmet[-1] & bit:
                            fits &= m
                    seen = len(masks)
                    continue
            elif nxt <= n_items - k + d and not u & low[nxt]:
                v = u & ~hit[nxt]
                later = full >> (nxt + 1) << (nxt + 1)
                if d == k - 2:
                    fits = _meeting_items(v, later, masks)
                    if not fits:
                        nxt += 1
                        continue
                elif v and k - d - 1 <= LOOKAHEAD:
                    ok, placed = _can_finish(v, k - d - 1, later, masks, hit)
                    budget.charge(placed)
                    if not ok:
                        nxt += 1
                        continue
                budget.charge()
                combo[d] = nxt
                d += 1
                unmet[d] = v
                nxt += 1
                continue
            if not d:
                break
            d -= 1
            nxt = combo[d] + 1


# The most slots _can_finish looks ahead; a test's cost grows as |mask|^r.  On
# the edge-removal gadgets of 5-7 vertex graphs, caps 5 to 8 charged within 5%
# of each other, cap 4 up to twice the nodes and cap 2 about 50 times.
LOOKAHEAD = 5


def _meeting_items(u: int, items: int, masks: list[int]) -> int:
    """The items of the bitmask items that meet every mask in u (a bitmask
    over mask indices)."""
    while u and items:
        b = u & -u
        items &= masks[b.bit_length() - 1]
        u ^= b
    return items


def _can_finish(u: int, r: int, items: int, masks: list[int], hit: list[int]) -> tuple[bool, int]:
    """Whether at most r of the items (a bitmask) meet every mask in u (a
    bitmask over mask indices), and how many items the test placed ahead of
    its last slot.

    The bounded search tree for d-Hitting Set (Niedermeier & Rossmanith,
    J. Discrete Algorithms 1(1), 2003), over an explicit stack.  Every
    hitting set meets the first unmet mask, so a slot branches on that
    mask's items, and the i-th branch excludes the items of the branches
    before it: a set holding one of those is found in that branch.  The last
    slot scans the first unmet mask for an item that meets them all, at one
    AND per item, and stops at the first; _meeting_items costs one AND per
    unmet mask, which deep in a test are many more than the items left to
    scan.  The walk's own r = 1 test uses it because it needs every such
    item.  Slot j keeps its unmet masks us[j], its excluded items excl[j]
    and its items left to try todo[j]."""
    placed = 0
    us, excl, todo = [], [], []
    x = 0
    while True:
        m = masks[(u & -u).bit_length() - 1] & items & ~x
        if len(todo) == r - 1:
            while m:
                b = m & -m
                if hit[b.bit_length() - 1] & u == u:
                    return True, placed
                m ^= b
        else:
            us.append(u)
            excl.append(x)
            todo.append(m)
        while todo and not todo[-1]:
            us.pop()
            excl.pop()
            todo.pop()
        if not todo:
            return False, placed
        c = todo[-1]
        b = c & -c
        todo[-1] = c ^ b
        x = excl[-1]
        excl[-1] = x | b
        u = us[-1] & ~hit[b.bit_length() - 1]
        placed += 1
        if not u:
            return True, placed


def _mask_of(arcs) -> int:
    m = 0
    for a in arcs:
        m |= 1 << a
    return m


def _atom_key(ts: TransitionSystem, kind: int, a: int, b: int) -> tuple:
    """(kind, a, b, alpha_bit) for the kernel atom (kind, a, b) of ts: a
    state pair for SSP, an (event, state) pair for ESSP.  alpha_bit is the
    bit of the event's arc at that state, which a candidate must remove for
    the atom to exist; it is 0 when there is no such arc, and always for SSP."""
    arc = ts.arc_at.get((b, a)) if kind == ESSP else None
    return (kind, a, b, 0 if arc is None else 1 << arc)


def _rank(gone: int, i: int) -> int:
    """Index i once the indices in the bitmask gone are dropped."""
    return i - (gone & ((1 << i) - 1)).bit_count()


def _atom_alive(key, removed_mask: int, gone_states: int, gone_events: int) -> bool:
    """Whether the atom is still an atom of the candidate: its states and
    event kept, and for ESSP the event's arc at the state removed."""
    kind, a, b, alpha_bit = key
    if kind == SSP:
        return not ((gone_states >> a) & 1 or (gone_states >> b) & 1)
    if (gone_events >> a) & 1 or (gone_states >> b) & 1:
        return False
    return not alpha_bit or bool(alpha_bit & removed_mask)
