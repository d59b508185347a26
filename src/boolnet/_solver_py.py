"""The search kernel for solving separation atoms, in pure Python.

Search: depth-first assignment of event signatures in canonical event order,
trying interactions in the fixed branch order.  After each assignment,
supports are propagated across every arc whose event is assigned — forward
always, backward only for interactions with a functional inverse (set/res
have none and get no backward handling at all).  Atom goals are pushed into
propagation: an SSP goal forces complementary supports on its state pair the
moment one side lands; an ESSP goal forces the atom state's support onto the
undefined side of the atom event's interaction the moment that signature is
picked (total interactions fail immediately).

Every forced support remembers *why*: a bitmask of the decision levels (root
support choice = bit 0, event e's signature = bit e+1) and a bitmask of the
arcs whose constraints forced it.  A dead end reports the union of the
reasons involved, and the search backjumps: when one branch of a decision
fails for reasons that do not mention the decision itself, its siblings must
fail identically and are skipped.  An empty conflict set means the failure
depends on no decision at all, so the whole search is over.  This prunes the
combinatorial padding of events that never interact with the conflict.  On
an exhaustive failure the kernel hands back the union of conflict arcs as a
refutation core: any system that keeps all those arcs (and the atom) refutes
the same atom, which is what the modification search uses to reject
candidate removals wholesale.

The search is a loop over an explicit stack, not recursion, so its depth is
bounded by memory rather than by Python's recursion limit.  The stack holds
one slot per open event level: the next branch to try, the conflict levels
and arcs gathered from the level's failed branches so far, and the trail
mark to undo the level's assignment to.

Conflict returns use -1 for "no conflict"; any value >= 0 is a bitmask of
the decision levels the dead end depended on (0 = none of them).
"""

from __future__ import annotations

KERNEL_NAME = "py"

# interaction ids in canonical tag order
NOP, INP, OUT, SET, RES, SWAP, USED, FREE = range(8)

# APPLY[i][x]: image of place value x, -1 where undefined
APPLY = (
    (0, 1),    # nop
    (-1, 0),   # inp
    (1, -1),   # out
    (1, 1),    # set
    (0, 0),    # res
    (1, 0),    # swap
    (-1, 1),   # used
    (0, -1),   # free
)

# BACK[i][y]: forced source value given result y; -1 = contradiction,
# -2 = no backward handling (set/res)
BACK = (
    (0, 1),     # nop
    (1, -1),    # inp
    (-1, 0),    # out
    (-2, -2),   # set
    (-2, -2),   # res
    (1, 0),     # swap
    (-1, 1),    # used
    (0, -1),    # free
)

SSP, ESSP = 0, 1
FOUND, NONE, BUDGET = 0, 1, 2

OK = -1  # "no conflict" sentinel for the reason-mask plumbing


class _Abort(Exception):
    """Internal: node budget exhausted."""


class Problem:
    """Prepared arc tables for one (transition system, type) pair."""

    __slots__ = (
        "n_states", "n_events", "arc_src", "arc_ev", "arc_dst",
        "out_arcs", "in_arcs", "ev_arcs", "initial", "branch_tags",
    )

    def __init__(self, n_states, n_events, arc_src, arc_ev, arc_dst,
                 out_arcs, in_arcs, ev_arcs, initial, branch_tags):
        self.n_states = n_states
        self.n_events = n_events
        self.arc_src = list(arc_src)
        self.arc_ev = list(arc_ev)
        self.arc_dst = list(arc_dst)
        self.out_arcs = [list(x) for x in out_arcs]
        self.in_arcs = [list(x) for x in in_arcs]
        self.ev_arcs = [list(x) for x in ev_arcs]
        self.initial = initial
        self.branch_tags = tuple(branch_tags)


def prepare(n_states, n_events, arc_src, arc_ev, arc_dst,
            out_arcs, in_arcs, ev_arcs, initial, branch_tags) -> Problem:
    return Problem(n_states, n_events, arc_src, arc_ev, arc_dst,
                   out_arcs, in_arcs, ev_arcs, initial, branch_tags)


def solve(p: Problem, kind: int, goal_a: int, goal_b: int,
          limit: int, collect_touched: bool):
    """Search for a region solving one atom.

    limit < 0 means unbounded; otherwise the search may charge at most that
    many nodes (one per root support choice and per signature assignment).
    Returns (status, sup, sig, nodes, touched); touched is a bytearray over
    arcs marking the refutation core when the answer is NONE and requested
    (all zeros on FOUND/BUDGET — only a refutation has a core).
    """
    sup = [-1] * p.n_states
    sig = [-1] * p.n_events
    cause_lv = [0] * p.n_states   # decision levels behind each support
    cause_arc = [0] * p.n_states  # arcs behind each support
    arc_src, arc_ev, arc_dst = p.arc_src, p.arc_ev, p.arc_dst
    ev_lv = [1 << (e + 1) for e in range(p.n_events)]  # bit 0 = root choice
    nodes = 0
    trail = []    # states with freshly assigned support, for undo
    pending = []  # states whose support just landed, awaiting arc scans
    conflict_arcs = 0  # arc mask paired with the last conflict return

    def charge():
        nonlocal nodes
        nodes += 1
        if 0 <= limit < nodes:
            raise _Abort()

    def assign_sup(s, v, lv, ar):
        nonlocal conflict_arcs
        old = sup[s]
        if old >= 0:
            if old == v:
                return OK
            conflict_arcs = cause_arc[s] | ar
            return cause_lv[s] | lv
        sup[s] = v
        cause_lv[s] = lv
        cause_arc[s] = ar
        trail.append(s)
        pending.append(s)
        if kind == SSP:
            if s == goal_a:
                return assign_sup(goal_b, 1 - v, lv, ar)
            if s == goal_b:
                return assign_sup(goal_a, 1 - v, lv, ar)
        return OK

    def flow_forward(a):
        nonlocal conflict_arcs
        src = arc_src[a]
        e = arc_ev[a]
        v2 = APPLY[sig[e]][sup[src]]
        lv = cause_lv[src] | ev_lv[e]
        ar = cause_arc[src] | (1 << a)
        if v2 < 0:
            conflict_arcs = ar
            return lv
        return assign_sup(arc_dst[a], v2, lv, ar)

    def flow_backward(a):
        nonlocal conflict_arcs
        dst = arc_dst[a]
        e = arc_ev[a]
        v0 = BACK[sig[e]][sup[dst]]
        if v0 == -2:
            return OK
        lv = cause_lv[dst] | ev_lv[e]
        ar = cause_arc[dst] | (1 << a)
        if v0 == -1:
            conflict_arcs = ar
            return lv
        return assign_sup(arc_src[a], v0, lv, ar)

    def propagate():
        while pending:
            s = pending.pop()
            for a in p.out_arcs[s]:
                if sig[arc_ev[a]] >= 0:
                    cm = flow_forward(a)
                    if cm >= 0:
                        return cm
            for a in p.in_arcs[s]:
                if sig[arc_ev[a]] >= 0:
                    cm = flow_backward(a)
                    if cm >= 0:
                        return cm
        return OK

    def assign_sig(e, t):
        nonlocal conflict_arcs
        charge()
        sig[e] = t
        if kind == ESSP and e == goal_a:
            if APPLY[t][0] >= 0 and APPLY[t][1] >= 0:
                conflict_arcs = 0
                return ev_lv[e]
            cm = assign_sup(goal_b, 0 if APPLY[t][0] < 0 else 1, ev_lv[e], 0)
            if cm >= 0:
                return cm
        for a in p.ev_arcs[e]:
            if sup[arc_src[a]] >= 0:
                cm = flow_forward(a)
                if cm >= 0:
                    return cm
            elif sup[arc_dst[a]] >= 0:
                cm = flow_backward(a)
                if cm >= 0:
                    return cm
        return propagate()

    n_events = p.n_events
    tags = p.branch_tags
    n_tags = len(tags)
    # the search stack, one slot per event level (see the module docstring)
    branch = [0] * n_events
    acc_lv = [0] * n_events
    acc_ar = [0] * n_events
    marks = [0] * n_events

    def search():
        """Assign every event signature in order; OK or a conflict mask."""
        nonlocal conflict_arcs
        if n_events == 0:
            return OK
        e = 0
        branch[0] = acc_lv[0] = acc_ar[0] = 0
        while True:
            i = branch[e]
            if i < n_tags:
                branch[e] = i + 1
                marks[e] = len(trail)
                cm = assign_sig(e, tags[i])
                if cm < 0:
                    e += 1
                    if e == n_events:
                        return OK
                    branch[e] = acc_lv[e] = acc_ar[e] = 0
                    continue
            else:
                # every branch at e failed: the union of their conflicts,
                # minus e itself, is the failure of the branch below
                conflict_arcs = acc_ar[e]
                cm = acc_lv[e] & ~ev_lv[e]
                if e == 0:
                    return cm
                e -= 1
            # the current branch at level e failed with conflict cm
            while True:
                pending.clear()
                sig[e] = -1
                mark = marks[e]
                while len(trail) > mark:
                    sup[trail.pop()] = -1
                if cm & ev_lv[e]:
                    acc_lv[e] |= cm
                    acc_ar[e] |= conflict_arcs
                    break
                # the failure never looked at this decision: siblings are
                # doomed for the same reason, hand the conflict downward
                if e == 0:
                    return cm
                e -= 1

    core = 0
    try:
        for v0 in (0, 1):
            charge()
            cm = assign_sup(p.initial, v0, 1, 0)
            if cm < 0:
                cm = propagate()
            if cm < 0:
                cm = search()
            if cm < 0:
                assert all(v >= 0 for v in sup)
                touched = bytearray(len(arc_src)) if collect_touched else None
                return (FOUND, sup[:], sig[:], nodes, touched)
            core |= conflict_arcs
            pending.clear()
            while trail:
                sup[trail.pop()] = -1
            if not (cm & 1):
                break  # refuted independently of the root choice
    except _Abort:
        touched = bytearray(len(arc_src)) if collect_touched else None
        return (BUDGET, None, None, nodes, touched)
    touched = None
    if collect_touched:
        touched = bytearray(len(arc_src))
        m = core
        while m:
            low = m & -m
            touched[low.bit_length() - 1] = 1
            m ^= low
    return (NONE, None, None, nodes, touched)
