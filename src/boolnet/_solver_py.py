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
refutation core, a bitmask over the arcs (bit a for arc a): any system that
keeps all those arcs (and the atom) refutes the same atom, which is what the
modification search uses to reject candidate removals wholesale.

`prepare` reads the transition system's own index views (its arcs, each
state's out- and in-arcs, each event's arcs, the initial state) and turns
them into adjacency once per problem: for each state the arcs to scan when
its support lands (its out-arcs with the APPLY table, then its in-arcs with
the BACK table), and for each event its arcs.  Each entry carries its arc's
bit of the arc reason.  Only a call that asks for the refutation core reads
arc reasons, so the tables `prepare` builds carry arc bit 0 everywhere and
the arc reasons stay 0; a second set with the real bits is built on the
first call that asks for a core.  Decision level reasons are always kept,
because backjumping depends on them.

`solve` is one loop with no inner calls.  Levels are the root support
choice (level 0) and the events (event e is level e+1); each turn of the
loop takes the next branch at the current level, scans the decided event's
arcs, then drains the propagation stack, with the goal's forced supports
written in place.  The loop runs over an explicit stack, not recursion, so
its depth is bounded by memory rather than by Python's recursion limit.  The
stack holds one slot per level: the next branch to try, the conflict levels
and arcs gathered from the level's failed branches so far, and the trail
mark to undo the level's assignment to.

Conflict masks use -1 for "no conflict"; any value >= 0 is a bitmask of
the decision levels the dead end depended on (0 = none of them).
"""

from __future__ import annotations

from .interactions import INTERACTIONS, INVERTIBLE, _APPLY, _UNAPPLY

KERNEL_NAME = "py"

# Both tables are indexed by interaction id (INTERACTIONS order) and derived
# from the table in interactions.
# APPLY[i][x]: image of place value x, -1 where undefined
APPLY = tuple(tuple(-1 if y is None else y for y in _APPLY[t]) for t in INTERACTIONS)

# BACK[i][y]: forced source value given result y; -1 = contradiction,
# -2 = no backward handling (set/res)
BACK = tuple(
    tuple(-1 if x is None else x for x in _UNAPPLY[t]) if t in INVERTIBLE else (-2, -2)
    for t in INTERACTIONS
)

SSP, ESSP = 0, 1
FOUND, NONE, BUDGET = 0, 1, 2

OK = -1  # "no conflict" sentinel for the reason-mask plumbing


class Problem:
    """Prepared adjacency for one (transition system, type) pair.

    state_arcs[s]: (level, level bit, other state, arc bit, APPLY or BACK)
    for each out-arc of s, then each in-arc.  level_arcs[e + 1]: (src, dst,
    arc bit) for each arc of event e; slot 0, the root level, is empty.
    `plain` holds both with arc bit 0; `cored`, with arc bit 1 << a, is None
    until a call asks for a refutation core.  The system is kept, not
    copied, to build `cored` from.
    """

    __slots__ = ("ts", "branch_tags", "plain", "cored")

    def __init__(self, ts, branch_tags):
        self.ts = ts
        self.branch_tags = tuple(branch_tags)
        self.plain = _adjacency(ts, False)
        self.cored = None


def _adjacency(ts, with_bits):
    """(state_arcs, level_arcs) of a Problem, with arc bits or all zero."""
    arcs = ts.arcs
    bits = [1 << a for a in range(len(arcs))] if with_bits else [0] * len(arcs)
    fwd = [(e + 1, 2 << e, d, bit, APPLY) for (_, e, d), bit in zip(arcs, bits)]
    back = [(e + 1, 2 << e, s, bit, BACK) for (s, e, _), bit in zip(arcs, bits)]
    state_arcs = [
        [fwd[a] for a in outs] + [back[a] for a in ins] for outs, ins in zip(ts.out_arcs, ts.in_arcs)
    ]
    level_arcs = [()] + [[(arcs[a][0], arcs[a][2], bits[a]) for a in occ] for occ in ts.event_arcs]
    return state_arcs, level_arcs


def prepare(ts, branch_tags) -> Problem:
    """The kernel's tables for ts, read from its index views, with the
    interaction ids to try at each event in order."""
    return Problem(ts, branch_tags)


def solve(p: Problem, kind: int, goal_a: int, goal_b: int,
          limit: int, collect_touched: bool):
    """Search for a region solving one atom.

    limit < 0 means unbounded; otherwise the search may charge at most that
    many nodes (one per root support choice and per signature assignment).
    Returns (status, sup, sig, nodes, core); core is the refutation core as
    a bitmask over the arcs when the answer is NONE and collect_touched is
    set, and 0 otherwise (only a refutation has a core).
    """
    if collect_touched:
        if p.cored is None:
            p.cored = _adjacency(p.ts, True)
        state_arcs, level_arcs = p.cored
    else:
        state_arcs, level_arcs = p.plain
    n_states = len(p.ts.states)
    top = len(p.ts.events) + 1
    sup = [-1] * n_states
    sig = [-1] * top              # by level; slot 0 (the root) stays -1
    cause_lv = [0] * n_states     # decision levels behind each support
    cause_arc = [0] * n_states    # arcs behind each support
    trail = []    # states with freshly assigned support, for undo
    pending = []  # states whose support just landed, awaiting arc scans
    # the SSP goal pair: a support landing on one forces the complement on
    # the other (pa + pb - s is the partner of s), which is still unassigned:
    # the two land in one step and are undone together
    pa, pb = (goal_a, goal_b) if kind == SSP else (-1, -1)
    essp_level = goal_a + 1 if kind == ESSP else -1
    initial = p.ts.initial
    tags = p.branch_tags
    n_tags = len(tags)
    # the search stack, one slot per level (see the module docstring)
    branch = [0] * top
    acc_lv = [0] * top
    acc_ar = [0] * top
    marks = [0] * top
    nodes = 0
    level = 0
    conflict_arcs = 0  # arc mask paired with the conflict mask cm
    while True:
        i = branch[level]
        if i < (n_tags if level else 2):
            branch[level] = i + 1
            nodes += 1
            if 0 <= limit < nodes:
                return (BUDGET, None, None, nodes, 0)
            marks[level] = len(trail)
            cm = OK
            if level == 0:
                # root choice: nothing is assigned, so nothing can conflict
                sup[initial] = i
                cause_lv[initial] = 1
                cause_arc[initial] = 0
                trail.append(initial)
                pending.append(initial)
                if initial == pa or initial == pb:
                    q = pa + pb - initial
                    sup[q] = 1 - i
                    cause_lv[q] = 1
                    cause_arc[q] = 0
                    trail.append(q)
                    pending.append(q)
            else:
                t = tags[i]
                sig[level] = t
                lbit = 1 << level
                fwd = APPLY[t]
                back = BACK[t]
                if level == essp_level:
                    if fwd[0] >= 0 and fwd[1] >= 0:
                        cm = lbit
                        conflict_arcs = 0
                    else:
                        v = 0 if fwd[0] < 0 else 1
                        old = sup[goal_b]
                        if old < 0:
                            sup[goal_b] = v
                            cause_lv[goal_b] = lbit
                            cause_arc[goal_b] = 0
                            trail.append(goal_b)
                            pending.append(goal_b)
                        elif old != v:
                            cm = cause_lv[goal_b] | lbit
                            conflict_arcs = cause_arc[goal_b]
                if cm < 0:
                    # the decided event's arcs, forward from an assigned
                    # source, else backward from an assigned destination
                    for src, dst, bit in level_arcs[level]:
                        v = sup[src]
                        if v >= 0:
                            o = dst
                            v = fwd[v]
                            lv = cause_lv[src] | lbit
                            ar = cause_arc[src] | bit
                        else:
                            v = sup[dst]
                            if v < 0:
                                continue
                            v = back[v]
                            if v == -2:
                                continue
                            o = src
                            lv = cause_lv[dst] | lbit
                            ar = cause_arc[dst] | bit
                        if v < 0:
                            cm = lv
                            conflict_arcs = ar
                            break
                        old = sup[o]
                        if old < 0:
                            sup[o] = v
                            cause_lv[o] = lv
                            cause_arc[o] = ar
                            trail.append(o)
                            pending.append(o)
                            if o == pa or o == pb:
                                q = pa + pb - o
                                sup[q] = 1 - v
                                cause_lv[q] = lv
                                cause_arc[q] = ar
                                trail.append(q)
                                pending.append(q)
                        elif old != v:
                            cm = cause_lv[o] | lv
                            conflict_arcs = cause_arc[o] | ar
                            break
            # propagation: scan the arcs of each state whose support landed;
            # its assignment step repeats the event scan's, written out twice
            # so that no call sits in the per-arc path
            while pending and cm < 0:
                s = pending.pop()
                vs = sup[s]
                lvs = cause_lv[s]
                ars = cause_arc[s]
                for lev, lbit, o, bit, table in state_arcs[s]:
                    t = sig[lev]
                    if t < 0:
                        continue
                    v = table[t][vs]
                    if v < 0:
                        if v == -2:
                            continue
                        cm = lvs | lbit
                        conflict_arcs = ars | bit
                        break
                    old = sup[o]
                    if old < 0:
                        sup[o] = v
                        cause_lv[o] = lv = lvs | lbit
                        cause_arc[o] = ar = ars | bit
                        trail.append(o)
                        pending.append(o)
                        if o == pa or o == pb:
                            q = pa + pb - o
                            sup[q] = 1 - v
                            cause_lv[q] = lv
                            cause_arc[q] = ar
                            trail.append(q)
                            pending.append(q)
                    elif old != v:
                        cm = cause_lv[o] | lvs | lbit
                        conflict_arcs = cause_arc[o] | ars | bit
                        break
            if cm < 0:
                level += 1
                if level == top:
                    assert all(v >= 0 for v in sup)
                    return (FOUND, sup, sig[1:], nodes, 0)
                branch[level] = acc_lv[level] = acc_ar[level] = 0
                continue
        else:
            # every branch at this level failed: the union of their
            # conflicts, minus the level itself, is the failure of the
            # branch below (at the root, where nothing is left to undo,
            # the loop below ends the search)
            conflict_arcs = acc_ar[level]
            cm = acc_lv[level] & ~(1 << level)
            if level:
                level -= 1
        # the current branch at this level failed with conflict cm
        while True:
            pending.clear()
            sig[level] = -1
            mark = marks[level]
            while len(trail) > mark:
                sup[trail.pop()] = -1
            if cm & (1 << level):
                acc_lv[level] |= cm
                acc_ar[level] |= conflict_arcs
                break
            if level == 0:
                # refuted: the root's conflicts are the refutation core (all
                # arc bits are 0 unless a core was asked for)
                return (NONE, None, None, nodes, acc_ar[0] | conflict_arcs)
            # the failure never looked at this decision: siblings are
            # doomed for the same reason, hand the conflict downward
            level -= 1
