"""Budgeted transition-system modifications and their exact decision solvers.

Four plan kinds make a system implementable: splitting event labels into
fresh copies, or removing edges, events, or states.  decide() answers the
corresponding decision problem exactly for a budget and implementation mode,
returning a minimum-cost (canonically least) plan on yes.

Search layout: label splitting iterates over total label counts, enumerating
per-event group counts and then set partitions of each split event's
occurrence list as restricted-growth strings; removals iterate over removal
subsets in canonical order per cost level.  Both searches stay exact; all
pruning below is refutation-based (forced-unsolvable-atom patterns for
splits, recorded refutation certificates for removals) and never skips a
potentially satisfiable candidate.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from .errors import InvalidPlan, ParseError, SearchBudgetExceeded, UnknownId
from .interactions import BooleanType
from .regions import (
    CompiledProblem,
    NodeBudget,
    SeparationAtom,
    Witness,
    decide_property,
    property_for_mode,
)
from .ts import MODES, TransitionSystem

KINDS = ("split", "edge", "event", "state")

DEFAULT_NODE_LIMIT = 10_000_000

# Type scope of the even-walk obstruction: two interleaved events traversed
# twice flip any region support an even number of times, so the walk's ends
# share their support.  Breaks down once set/res can overwrite values.
_OBSTRUCTION_SCOPE = frozenset(("nop", "inp", "out", "swap", "used", "free"))


@dataclass(frozen=True)
class ModificationPlan:
    """One concrete modification.

    splits: per split event, the group id of each of its occurrences in
    canonical arc order (group 0 keeps the base label, group k gets k primes).
    edges/events/states: the removed elements by name.  cost: label count of
    the result for splits, number of removed elements otherwise.
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

    def split_map(self) -> dict[str, tuple[int, ...]]:
        return dict(self.splits)

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
    useless-event.
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
    labels = _split_labels(ts, groups_used)
    arcs = []
    for a, (src, e, dst) in enumerate(ts.arcs):
        arcs.append((ts.states[src], labels[(e, grp[a])], ts.states[dst]))
    return TransitionSystem.build(initial=ts.initial_state, arcs=arcs, name=ts.name)


def _apply_removal(ts: TransitionSystem, plan: ModificationPlan) -> TransitionSystem:
    removed_arcs = set()
    kept_states = list(range(len(ts.states)))
    kept_events = list(range(len(ts.events)))
    if plan.kind == "edge":
        seen = set()
        for (src, ev, dst) in plan.edges:
            si = ts.state_index.get(src)
            ei = ts.event_index.get(ev)
            if si is None or ei is None or ts.delta.get((si, ei)) != ts.state_index.get(dst):
                raise UnknownId(f"{src} -{ev}-> {dst}", "removed edge")
            a = ts.arc_at[(si, ei)]
            if a in seen:
                raise ParseError(f"edge {src} -{ev}-> {dst} listed twice")
            seen.add(a)
            removed_arcs.add(a)
    elif plan.kind == "event":
        evs = set()
        for ev in plan.events:
            if ev not in ts.event_index:
                raise UnknownId(ev, "removed event")
            e = ts.event_index[ev]
            if e in evs:
                raise ParseError(f"event {ev!r} listed twice")
            evs.add(e)
            removed_arcs.update(ts.event_arcs[e])
        kept_events = [e for e in kept_events if e not in evs]
    else:  # state
        sts = set()
        for s in plan.states:
            if s not in ts.state_index:
                raise UnknownId(s, "removed state")
            si = ts.state_index[s]
            if si == ts.initial:
                raise InvalidPlan("initial-removed", s)
            if si in sts:
                raise ParseError(f"state {s!r} listed twice")
            sts.add(si)
            removed_arcs.update(ts.out_arcs[si])
            removed_arcs.update(ts.in_arcs[si])
        kept_states = [s for s in kept_states if s not in sts]

    arcs = [ts.arc_names(a) for a in range(len(ts.arcs)) if a not in removed_arcs]
    used_events = {ev for (_, ev, _) in arcs}
    for e in kept_events:
        if ts.events[e] not in used_events:
            raise InvalidPlan("useless-event", ts.events[e])
    # reachability over the survivors
    kept_set = set(kept_states)
    adj: dict[str, list[str]] = {}
    for (src, _, dst) in arcs:
        adj.setdefault(src, []).append(dst)
    seen_names = {ts.initial_state}
    stack = [ts.initial_state]
    while stack:
        for nxt in adj.get(stack.pop(), ()):
            if nxt not in seen_names:
                seen_names.add(nxt)
                stack.append(nxt)
    for s in kept_states:
        if ts.states[s] not in seen_names:
            raise InvalidPlan("unreachable-state", ts.states[s])
    return TransitionSystem.build(
        initial=ts.initial_state,
        arcs=arcs,
        states=tuple(ts.states[s] for s in kept_states),
        events=tuple(ts.events[e] for e in kept_events),
        name=ts.name,
    )


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


def parse_plan(text: str) -> ModificationPlan:
    kind = None
    cost = None
    split_acc: dict[str, dict[int, int]] = {}
    split_order: list[str] = []
    edges: list[tuple[str, str, str]] = []
    events: list[str] = []
    states: list[str] = []
    for no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "plan":
            if kind is not None:
                raise ParseError(f"line {no}: second plan header")
            if len(parts) != 4 or parts[2] != "cost":
                raise ParseError(f"line {no}: expected `plan <kind> cost <n>`")
            kind = parts[1]
            if kind not in KINDS:
                raise ParseError(f"line {no}: unknown plan kind {kind!r}")
            try:
                cost = int(parts[3])
            except ValueError:
                raise ParseError(f"line {no}: bad cost {parts[3]!r}") from None
        elif kind is None:
            raise ParseError(f"line {no}: content before plan header")
        elif parts[0] == "split":
            if kind != "split" or len(parts) != 4:
                raise ParseError(f"line {no}: stray split line")
            name = parts[1]
            try:
                pos, g = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError(f"line {no}: bad split indices") from None
            if name not in split_acc:
                split_acc[name] = {}
                split_order.append(name)
            if pos in split_acc[name]:
                raise ParseError(f"line {no}: occurrence {pos} of {name!r} assigned twice")
            split_acc[name][pos] = g
        elif parts[0] == "rm-edge":
            if kind != "edge" or len(parts) != 4:
                raise ParseError(f"line {no}: stray rm-edge line")
            edges.append((parts[1], parts[2], parts[3]))
        elif parts[0] == "rm-event":
            if kind != "event" or len(parts) != 2:
                raise ParseError(f"line {no}: stray rm-event line")
            events.append(parts[1])
        elif parts[0] == "rm-state":
            if kind != "state" or len(parts) != 2:
                raise ParseError(f"line {no}: stray rm-state line")
            states.append(parts[1])
        else:
            raise ParseError(f"line {no}: unknown directive {parts[0]!r}")
    if kind is None or cost is None:
        raise ParseError("missing plan header")
    splits = []
    for name in split_order:
        occ = split_acc[name]
        if set(occ) != set(range(len(occ))):
            raise ParseError(f"split of {name!r} skips an occurrence index")
        splits.append((name, tuple(occ[i] for i in range(len(occ)))))
    return ModificationPlan(
        kind=kind,
        cost=cost,
        splits=tuple(splits),
        edges=tuple(edges),
        events=tuple(events),
        states=tuple(states),
    )


# -- fast (polynomial) decisions ------------------------------------------------


@dataclass
class FastPathResult:
    outcome: str  # "yes", "no", "fall-through"
    plan: ModificationPlan | None = None
    reason: str = ""


def _every_event_everywhere(ts: TransitionSystem) -> bool:
    return len(ts.delta) == len(ts.states) * len(ts.events)


def _state_closure(ts: TransitionSystem) -> list[int] | None:
    """Largest state set where every event stays defined and inside, then
    restricted to the part reachable from the initial state.  None when the
    initial state falls outside."""
    n = len(ts.states)
    alive = [True] * n
    changed = True
    while changed:
        changed = False
        for s in range(n):
            if not alive[s]:
                continue
            for e in range(len(ts.events)):
                d = ts.delta.get((s, e))
                if d is None or not alive[d]:
                    alive[s] = False
                    changed = True
                    break
    if not alive[ts.initial]:
        return None
    keep = {ts.initial}
    stack = [ts.initial]
    while stack:
        s = stack.pop()
        for a in ts.out_arcs[s]:
            d = ts.arcs[a][2]
            if d not in keep:
                keep.add(d)
                stack.append(d)
    return [s for s in range(n) if s in keep]


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
    claimed for it even at τ={nop,swap}.
    """
    fall = FastPathResult("fall-through")
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "embed" or kind == "event":
        return fall

    if kind in ("split", "edge"):
        if not tau.tags <= {"nop", "swap", "set", "res"}:
            return fall
        # no partial interaction exists, so no missing occurrence is ever
        # solvable: the property holds exactly for complete occurrence tables,
        # and neither splitting nor removing edges can complete one
        if not _every_event_everywhere(ts):
            return FastPathResult("no", reason="an event is missing at some state")
        if mode == "realize":
            ssp = decide_property(ts, tau, "ssp", budget)
            if isinstance(ssp, SeparationAtom):
                return FastPathResult("no", reason=f"state pair {ssp} not separable")
        cost = len(ts.events) if kind == "split" else 0
        return FastPathResult("yes", plan=ModificationPlan(kind=kind, cost=cost))

    # state removal
    if tau.tags != {"nop", "swap"}:
        return fall
    keep = _state_closure(ts)
    if keep is None:
        return FastPathResult("no", reason="initial state cannot keep all events")
    removed = tuple(ts.states[s] for s in range(len(ts.states)) if s not in set(keep))
    plan = ModificationPlan(kind="state", cost=len(removed), states=removed)
    if mode == "realize":
        sub = apply_plan(ts, plan) if removed else ts
        ssp = decide_property(sub, tau, "ssp", budget)
        if isinstance(ssp, SeparationAtom):
            # the kept set is forced exactly, so an unsolvable pair is final
            return FastPathResult("no", reason=f"state pair {ssp} not separable")
    return FastPathResult("yes", plan=plan)


# -- exact search ------------------------------------------------------------------


def resolve_node_limit(node_limit: int | None = None) -> int | None:
    """The node cap a decision runs under: node_limit, else the
    BOOLNET_NODE_LIMIT env var, else DEFAULT_NODE_LIMIT; None when 0 (unlimited)."""
    if node_limit is None:
        env = os.environ.get("BOOLNET_NODE_LIMIT", "")
        if env:
            node_limit = int(env)
        else:
            node_limit = DEFAULT_NODE_LIMIT
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
    BOOLNET_NODE_LIMIT env var or 10^7; 0: unlimited); crossing it raises
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


def _abab_patterns(ts: TransitionSystem) -> list[tuple[int, int, int, int, int, int, int, int]]:
    """All four-arc walks with events (x, y, x, y): their end states share
    every region's support whenever no overwrite interaction is in play.

    Record: (a1, a2, a3, a4, s0, s4, e1, alpha) with alpha the arc of e1
    leaving s4 (-1 when absent).  Walks returning to their start are dropped:
    both of their conclusions are vacuous.
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
            pats.append((a1, a2, a3, a4, s0, s4, e1, -1 if alpha is None else alpha))
    return pats


# -- label-splitting search --------------------------------------------------------


class _SplitChecker:
    """Property checks over split candidates with a sticky failure atom.

    Unsolvable atoms tend to survive across neighbouring candidates, so the
    last failing atom (in original-event/group terms) is rechecked first and
    usually refutes the candidate with a single solver call.
    """

    def __init__(self, ts, tau, prop, budget):
        self.ts = ts
        self.tau = tau
        self.prop = prop
        self.budget = budget
        self.last_fail = None  # ("ssp", s, s') names | ("essp", e_idx, group, state)

    def _portable(self, cand, labels_rev, atom):
        if atom.kind == "ssp":
            return ("ssp", atom.first, atom.second)
        e, g = labels_rev[atom.first]
        return ("essp", e, g, atom.second)

    def check(self, cand: TransitionSystem, labels: dict[tuple[int, int], str]) -> Witness | None:
        problem = CompiledProblem(cand, self.tau)
        lf = self.last_fail
        if lf is not None:
            atom = None
            if lf[0] == "ssp":
                atom = SeparationAtom("ssp", lf[1], lf[2])
            else:
                _, e, g, st = lf
                name = labels.get((e, g))
                if name is not None and cand.delta.get(
                    (cand.state_index[st], cand.event_index[name])
                ) is None:
                    atom = SeparationAtom("essp", name, st)
            if atom is not None:
                region, _ = problem.solve(atom, self.budget)
                if region is None:
                    return None
        result = decide_property(
            cand, self.tau, self.prop, self.budget, problem=problem, canonical_failure=False
        )
        if isinstance(result, Witness):
            return result
        labels_rev = {name: eg for eg, name in labels.items()}
        self.last_fail = self._portable(cand, labels_rev, result)
        return None


def _search_split(ts, tau, mode, kappa, budget) -> ModificationPlan | None:
    prop = property_for_mode(mode)
    need_ssp = prop in ("ssp", "both")
    need_essp = prop in ("essp", "both")
    n_events = len(ts.events)
    occ = ts.event_arcs
    caps = [len(o) for o in occ]
    patterns = _abab_patterns(ts) if tau.tags <= _OBSTRUCTION_SCOPE else []
    checker = _SplitChecker(ts, tau, prop, budget)

    grp = [0] * len(ts.arcs)
    extra = [0] * n_events

    # per-arc pattern watch lists, built per composition (watch arcs = arcs of
    # split events among the pattern's four walk arcs plus its alpha arc)
    def run_composition() -> ModificationPlan | None:
        split_events = [e for e in range(n_events) if extra[e] > 0]
        watchers: dict[int, list[int]] = {}
        countdown = []
        live = []
        for pi, (a1, a2, a3, a4, s0, s4, e1, alpha) in enumerate(patterns):
            watch = set()
            for a in (a1, a2, a3, a4):
                if extra[ts.arcs[a][1]] > 0:
                    watch.add(a)
            if alpha >= 0 and need_essp and extra[ts.arcs[alpha][1]] > 0:
                watch.add(alpha)
            countdown.append(len(watch))
            live.append(True)
            if not watch:
                # fully determined already: labels keep the walk intact
                if need_ssp or (need_essp and alpha < 0):
                    return None  # composition refuted outright
                live[pi] = False
                continue
            for a in watch:
                watchers.setdefault(a, []).append(pi)

        def pattern_dead(pi) -> bool:
            a1, a2, a3, a4, s0, s4, e1, alpha = patterns[pi]
            if grp[a1] != grp[a3] or grp[a2] != grp[a4]:
                return False  # walk broken by the split
            if need_ssp:
                return True
            if need_essp:
                return alpha < 0 or grp[alpha] != grp[a1]
            return False

        def assign(a: int, g: int) -> bool:
            grp[a] = g
            ok = True
            for pi in watchers.get(a, ()):
                countdown[pi] -= 1
                if ok and live[pi] and countdown[pi] == 0 and pattern_dead(pi):
                    ok = False
            return ok

        def unassign(a: int) -> None:
            grp[a] = 0
            for pi in watchers.get(a, ()):
                countdown[pi] += 1

        def emit() -> ModificationPlan | None:
            labels = _split_labels(ts, {e: extra[e] + 1 for e in split_events})
            arcs = []
            for a, (src, e, dst) in enumerate(ts.arcs):
                arcs.append((ts.states[src], labels[(e, grp[a])], ts.states[dst]))
            cand = TransitionSystem.build(initial=ts.initial_state, arcs=arcs)
            witness = checker.check(cand, labels)
            if witness is None:
                return None
            splits = tuple(
                (ts.events[e], tuple(grp[a] for a in occ[e])) for e in split_events
            )
            return ModificationPlan(kind="split", cost=n_events + sum(extra), splits=splits)

        def partition_event(idx: int) -> ModificationPlan | None:
            if idx == len(split_events):
                return emit()
            e = split_events[idx]
            arcs_e = occ[e]
            g_target = extra[e] + 1

            def rgs(pos: int, used: int) -> ModificationPlan | None:
                if pos == len(arcs_e):
                    return partition_event(idx + 1)
                rem_after = len(arcs_e) - pos - 1
                hi = min(used, g_target - 1)
                for g in range(hi + 1):
                    opened = used + 1 if g == used else used
                    if g_target - opened > rem_after:
                        continue  # not enough occurrences left to open all groups
                    budget.charge()
                    ok = assign(arcs_e[pos], g)
                    if ok:
                        found = rgs(pos + 1, opened)
                        if found is not None:
                            return found
                    unassign(arcs_e[pos])
                return None

            return rgs(0, 0)

        result = partition_event(0)
        # restore group zero for the next composition
        for e in split_events:
            for a in occ[e]:
                grp[a] = 0
        return result

    max_extra = min(kappa - n_events, sum(c - 1 for c in caps))

    def compositions(idx: int, remaining: int) -> ModificationPlan | None:
        if remaining == 0:
            for e in range(idx, n_events):
                extra[e] = 0
            budget.charge()
            return run_composition()
        if idx == n_events:
            return None
        hi = min(caps[idx] - 1, remaining)
        for x in range(hi + 1):
            extra[idx] = x
            found = compositions(idx + 1, remaining - x)
            if found is not None:
                return found
        extra[idx] = 0
        return None

    for total in range(0, max_extra + 1):
        found = compositions(0, total)
        if found is not None:
            return found
    return None


# -- removal search -----------------------------------------------------------------


class _Certificate:
    """A refutation of one atom valid for every candidate that keeps all its
    touched arcs (and the atom itself)."""

    __slots__ = ("kind", "a", "b", "alpha_bit", "mask")

    def __init__(self, kind, a, b, alpha_bit, mask):
        self.kind = kind  # "ssp": state idx pair; "essp": (event idx, state idx)
        self.a = a
        self.b = b
        self.alpha_bit = alpha_bit  # for essp: bit of the (state, event) arc, 0 if absent
        self.mask = mask


def _search_removal(ts, tau, kind, mode, kappa, budget) -> ModificationPlan | None:
    prop = property_for_mode(mode)
    n_states = len(ts.states)
    n_events = len(ts.events)
    n_arcs = len(ts.arcs)

    if kind == "edge":
        items = list(range(n_arcs))
        item_masks = [1 << a for a in items]
    elif kind == "event":
        items = list(range(n_events))
        item_masks = [_mask_of(ts.event_arcs[e]) for e in items]
    else:
        items = [s for s in range(n_states) if s != ts.initial]
        item_masks = [
            _mask_of(set(ts.out_arcs[s]) | set(ts.in_arcs[s])) for s in items
        ]

    ev_total = [len(ts.event_arcs[e]) for e in range(n_events)]
    arc_ev = [a[1] for a in ts.arcs]
    cert_seen: set[tuple] = set()
    last_fail: tuple | None = None  # portable atom key, see _atom_key

    def atom_intact(cert: _Certificate, removed_mask: int, removed_items) -> bool:
        if cert.kind == "ssp":
            if kind == "state" and (cert.a in removed_items or cert.b in removed_items):
                return False
            return True
        if kind == "event" and cert.a in removed_items:
            return False
        if kind == "state" and cert.b in removed_items:
            return False
        if cert.alpha_bit and not (cert.alpha_bit & removed_mask):
            return False  # the event still occurs there: not an atom
        return True

    def candidate_ts(removed_mask, removed_items):
        arcs = []
        arc_origin = []
        for a in range(n_arcs):
            if not (removed_mask >> a) & 1:
                arcs.append(ts.arc_names(a))
                arc_origin.append(a)
        if kind == "state":
            states = tuple(ts.states[s] for s in range(n_states) if s not in removed_items)
        else:
            states = ts.states
        if kind == "event":
            events = tuple(ts.events[e] for e in range(n_events) if e not in removed_items)
        else:
            events = ts.events
        return (
            TransitionSystem.build(
                initial=ts.initial_state, arcs=arcs, states=states, events=events
            ),
            arc_origin,
        )

    def make_plan(combo, cost) -> ModificationPlan:
        if kind == "edge":
            return ModificationPlan(
                kind=kind, cost=cost, edges=tuple(ts.arc_names(items[i]) for i in combo)
            )
        if kind == "event":
            return ModificationPlan(
                kind=kind, cost=cost, events=tuple(ts.events[items[i]] for i in combo)
            )
        return ModificationPlan(
            kind=kind, cost=cost, states=tuple(ts.states[items[i]] for i in combo)
        )

    limit = budget.limit
    nodes = budget.used
    n_items = len(items)

    # certificates split two ways: ones whose atom survives every removal of
    # this kind unless explicitly hit ("hard" — together they form a cover
    # constraint every viable combo must satisfy), and ones whose atom only
    # exists once a specific arc is removed ("soft" — checked per candidate).
    # The store only ever grows: refuting the same atom on a different
    # candidate yields a different core, and every core is an independent
    # rejection constraint.
    hard_count = 0
    soft_list: list[_Certificate] = []
    hit_bits = [0] * n_items  # hit_bits[i]: hard certs neutralised by item i
    suffix_cover = [0] * (n_items + 1)
    hard_full = 0

    def register_cert(cert: _Certificate):
        nonlocal hard_count, hard_full
        if cert.alpha_bit:
            soft_list.append(cert)
            return
        bit = 1 << hard_count
        hard_count += 1
        hard_full |= bit
        for i in range(n_items):
            if item_masks[i] & cert.mask:
                hit_bits[i] |= bit
            elif cert.kind == "ssp":
                if kind == "state" and items[i] in (cert.a, cert.b):
                    hit_bits[i] |= bit
            elif kind == "event" and items[i] == cert.a:
                hit_bits[i] |= bit
            elif kind == "state" and items[i] == cert.b:
                hit_bits[i] |= bit
        acc = 0
        for i in range(n_items - 1, -1, -1):
            acc |= hit_bits[i]
            suffix_cover[i] = acc

    def record_certificate(arc_origin, atom, touched):
        mask = 0
        if touched is not None:
            for i, hit in enumerate(touched):
                if hit:
                    mask |= 1 << arc_origin[i]
        key = _atom_key(ts, atom)
        alpha_bit = 0
        if key[0] == "essp":
            arc = ts.arc_at.get((key[2], key[1]))
            if arc is not None:
                alpha_bit = 1 << arc
        dedup = key + (alpha_bit, mask)
        if dedup not in cert_seen:
            cert_seen.add(dedup)
            register_cert(_Certificate(key[0], key[1], key[2], alpha_bit, mask))
        return key

    def leaf_ok(combo):
        """Death/soft-certificate/reachability screening for a full combo."""
        removed_items = {items[i] for i in combo}
        removed_mask = 0
        for i in combo:
            removed_mask |= item_masks[i]
        if kind != "event":
            # every surviving event must still occur somewhere
            decs: dict[int, int] = {}
            m = removed_mask
            while m:
                low = m & -m
                a = low.bit_length() - 1
                m ^= low
                e = arc_ev[a]
                decs[e] = decs.get(e, 0) + 1
                if decs[e] == ev_total[e]:
                    return None
        for cert in soft_list:
            if cert.mask & removed_mask:
                continue
            if atom_intact(cert, removed_mask, removed_items):
                return None
        if not _reachable_ok(ts, removed_mask, removed_items, kind):
            return None
        return (removed_mask, removed_items)

    def scan(slots, resume):
        """Lexicographically first combo after `resume` passing every filter.

        Enumerates index combos in lex order but descends only where the
        remaining items can still neutralise every hard certificate, which
        skips the dead bulk of the level wholesale.
        """

        def rec(start, slots, cover, prefix, bound):
            nonlocal nodes
            if slots == 0:
                if bound is not None:
                    return None  # this exact combo is `resume`: skip it
                extra = leaf_ok(prefix)
                if extra is None:
                    return None
                return (prefix, extra)
            i0 = start
            if bound is not None and bound[0] > i0:
                i0 = bound[0]
            for i in range(i0, n_items - slots + 1):
                nodes += 1
                if limit is not None and nodes > limit:
                    budget.used = nodes
                    raise SearchBudgetExceeded(nodes)
                nb = None
                if bound is not None and i == bound[0]:
                    nb = bound[1:]
                ncover = cover | hit_bits[i]
                need = hard_full & ~ncover
                if need and (slots == 1 or (need & ~suffix_cover[i + 1])):
                    continue
                found = rec(i + 1, slots - 1, ncover, prefix + (i,), nb)
                if found is not None:
                    return found
            return None

        return rec(0, slots, 0, (), resume)

    try:
        for cost in range(0, min(kappa, n_items) + 1):
            resume = None
            while True:
                found = scan(cost, resume)
                if found is None:
                    break
                combo, (removed_mask, removed_items) = found
                budget.used = nodes
                cand, arc_origin = candidate_ts(removed_mask, removed_items)
                problem = CompiledProblem(cand, tau)

                if last_fail is not None and _atom_alive(
                    ts, last_fail, removed_mask, removed_items, kind
                ):
                    atom = _atom_from_key(ts, last_fail)
                    region, touched = problem.solve(atom, budget, collect_touched=True)
                    if region is None:
                        record_certificate(arc_origin, atom, touched)
                        nodes = budget.used
                        resume = combo
                        continue

                result = decide_property(
                    cand, tau, prop, budget, problem=problem, canonical_failure=False
                )
                nodes = budget.used
                if isinstance(result, Witness):
                    return make_plan(combo, cost)
                _, touched = problem.solve(result, budget, collect_touched=True)
                last_fail = record_certificate(arc_origin, result, touched)
                nodes = budget.used
                resume = combo
    finally:
        budget.used = max(budget.used, nodes)
    return None


def _mask_of(arcs) -> int:
    m = 0
    for a in arcs:
        m |= 1 << a
    return m


def _atom_key(ts: TransitionSystem, atom: SeparationAtom) -> tuple:
    if atom.kind == "ssp":
        return ("ssp", ts.state_index[atom.first], ts.state_index[atom.second])
    return ("essp", ts.event_index[atom.first], ts.state_index[atom.second])


def _atom_from_key(ts: TransitionSystem, key: tuple) -> SeparationAtom:
    if key[0] == "ssp":
        return SeparationAtom("ssp", ts.states[key[1]], ts.states[key[2]])
    return SeparationAtom("essp", ts.events[key[1]], ts.states[key[2]])


def _atom_alive(ts, key, removed_mask, removed_items, kind) -> bool:
    if key[0] == "ssp":
        if kind == "state" and (key[1] in removed_items or key[2] in removed_items):
            return False
        return True
    e, s = key[1], key[2]
    if kind == "event" and e in removed_items:
        return False
    if kind == "state" and s in removed_items:
        return False
    arc = ts.arc_at.get((s, e))
    if arc is not None and not ((removed_mask >> arc) & 1):
        return False
    return True


def _reachable_ok(ts, removed_mask, removed_items, kind) -> bool:
    n_states = len(ts.states)
    expect = n_states - (len(removed_items) if kind == "state" else 0)
    seen = 1 << ts.initial
    count = 1
    stack = [ts.initial]
    while stack:
        s = stack.pop()
        for a in ts.out_arcs[s]:
            if (removed_mask >> a) & 1:
                continue
            d = ts.arcs[a][2]
            if not (seen >> d) & 1:
                seen |= 1 << d
                count += 1
                stack.append(d)
    return count == expect
