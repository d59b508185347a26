"""The search kernel for solving separation atoms, in pure Python.

Search: depth-first assignment of event signatures in canonical event order,
trying interactions in the fixed branch order.  After each assignment,
supports are propagated across every arc whose event is assigned — forward
always, backward only for interactions with a functional inverse (set/res
have none and get no backward handling at all).  Atom goals are pushed into
propagation: an SSP goal forces complementary supports on its state pair the
moment one side lands; an ESSP goal forces the atom state's support onto the
undefined side of the atom event's interaction the moment that signature is
picked.

Forward checking: each unassigned event has a domain, a bitmask over the
indices of its branch-order tags (the root's domain is the supports 0 and
1).  The ESSP goal event starts with its non-total tags only.  When a
support lands on a state, each of the state's arcs whose event is still
unassigned drops the tags it now rules out: a tag undefined at the source's
support, a tag whose image can never be the destination's support, and,
once both supports are known, a tag that does not map one to the other.
When the ESSP goal state's support lands before its event is decided, the
event drops every tag defined at that support.  A dropped tag fails as soon
as it is tried, so dropping it prunes only subtrees without a region, and
the region found is still the first in branch order.  Each level keeps one
prune reason: the union of the decision levels and arcs behind all its
dropped tags.  An emptied domain is a conflict with that reason, and a level
that runs out of tags adds it to the conflicts of its failed branches.
An ESSP goal event without a non-total tag has an empty domain from the
start, so its atom is refuted before any node is charged.

Every forced support remembers *why* in one int, its reason: the decision
levels and the arcs whose constraints forced it.  The low `top` bits (top =
number of events + 1) are the levels: bit 0 is the root support choice, bit
e+1 is event e's signature.  Arc a is bit top + a.  Prune reasons and
conflicts have the same layout.  A dead end reports the union of the
reasons involved, and the search backjumps: when one branch of a decision
fails for reasons that do not mention the decision itself, its siblings
must fail identically and are skipped.  A conflict without level bits
depends on no decision at all, so the whole search is over.  This prunes
the combinatorial padding of events that never interact with the conflict.
On an exhaustive failure the kernel hands back the arc bits of the root's
conflicts, shifted down by top, as a refutation core, a bitmask over the
arcs (bit a for arc a): any system that keeps all those arcs (and the atom)
refutes the same atom, which is what the modification search uses to
reject candidate removals wholesale.

`prepare` reads the transition system's own index views (its arcs, each
state's out- and in-arcs, each event's arcs, the initial state) and turns
them into adjacency once per problem: for each state the arcs to scan when
its support lands (its out-arcs with the APPLY table, then its in-arcs with
the BACK table, each with its side's prune table), and for each event its
arcs.  The prune tables are built once per tuple of branch tags.  Each
entry carries its arc's reason: its event's level bit and its arc bit.
Only a call that asks for the refutation core reads arc bits, so the tables
`prepare` builds carry arc bit 0 everywhere and no reason gets one; a
second set with the real bits is built on the first call that asks for a
core.  Level bits are always kept, because backjumping depends on them.
An arc that prunes its event's domain puts the arc's reason, and so the
event's own level bit, into that level's prune reason.  That bit is
harmless: the event is unassigned, so its level is above every level that
unwinding from the current one tests, and when its own level runs out of
tags the bit is cleared with the rest of the level.

`solve` is one loop with no inner calls.  Levels are the root support
choice (level 0) and the events (event e is level e+1); each turn of the
loop takes the next branch left in the current level's domain, scans the
decided level's arcs, then drains the propagation stack, with the goal's
forced supports written in place.  The root is scanned like an event: its
one arc runs from a phantom state of support 0, one slot past the states,
to the initial state, and its tags nop and swap give the initial state
support 0 and 1.  A node is charged for each branch taken:
one per root support choice, and one per tag tried that is still in its
domain.  The loop runs over an explicit stack, not recursion, so its depth
is bounded by memory rather than by Python's recursion limit.  The stack
holds one slot per level: the next branch to try, the union of the
conflicts of the level's failed branches so far, and the trail marks to
undo the level's assignment and domain changes to.

The conflict cm is -1 for "no conflict"; any value >= 0 is the reason of
the dead end, whose level bits are the decisions it depended on (none of
them if they are all 0).
"""

from __future__ import annotations

import functools

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

@functools.cache
def _keep(tags):
    """The prune tables for tags, a branch-order tuple of interaction ids,
    built once per tuple.  _keep(tags)[d][v][w] is a bitmask over the
    indices of tags: the tags an arc can still take once its endpoint on
    side d has support v and its other endpoint has support w (-1 =
    unassigned, the last slot).  Side 0 is the source: a tag defined at v,
    mapping v to w when w is known.  Side 1 is the destination: a tag whose
    image can be v, mapping w to v when w is known.  Side 2 is the ESSP
    goal state: a tag undefined at v, whatever w."""
    maps = [[sum(1 << i for i, t in enumerate(tags) if APPLY[t][x] == y) for y in (0, 1)]
            for x in (0, 1)]
    full = (1 << len(tags)) - 1
    return (
        tuple((maps[v][0], maps[v][1], maps[v][0] | maps[v][1]) for v in (0, 1)),
        tuple((maps[0][v], maps[1][v], maps[0][v] | maps[1][v]) for v in (0, 1)),
        tuple((full & ~(maps[v][0] | maps[v][1]),) * 3 for v in (0, 1)),
    )


# the table of the ESSP goal's pseudo-arc: no value is forced either way
NO_PROPAGATION = ((-2, -2),) * len(INTERACTIONS)

# the root level's tags: its one arc, from a phantom state of support 0 to the
# initial state, gives the initial state support 0 (nop), then 1 (swap)
ROOT_TAGS = (INTERACTIONS.index("nop"), INTERACTIONS.index("swap"))

SSP, ESSP = 0, 1
FOUND, NONE, BUDGET = 0, 1, 2

OK = -1  # "no conflict" sentinel for the reason-mask plumbing


class Problem:
    """Prepared adjacency for one (transition system, type) pair.

    state_arcs[s]: (level, reason, other state, APPLY or BACK, prune table)
    for each out-arc of s, then each in-arc.  The reason is the arc's level
    bit (2 << e for event e) or'd with its arc bit.  The prune table is the
    side of _keep(branch_tags) s is on, and gives the tags left in the
    domain of the arc's event, while it is unassigned, once s has its
    support.  level_arcs[e + 1]: (src, dst, reason) for each arc of event
    e; slot 0, the root level, holds one arc from the phantom state (index
    number of states) to the initial state, with reason 1, the root's level
    bit.  `plain` holds both with arc bit 0; `cored`, with arc bit
    1 << (top + a) for arc a (top = number of events + 1), is None until a
    call asks for a refutation core.  The system is kept, not copied, to
    build `cored` from.  A node of the search is one root support choice,
    or one tag tried that is still in its event's domain.
    """

    __slots__ = ("ts", "branch_tags", "plain", "cored")

    def __init__(self, ts, branch_tags):
        self.ts = ts
        self.branch_tags = tuple(branch_tags)
        self.plain = _adjacency(ts, self.branch_tags, False)
        self.cored = None


def _adjacency(ts, tags, with_bits):
    """(state_arcs, level_arcs) of a Problem, with arc bits or without."""
    arcs = ts.arcs
    keep_src, keep_dst, _ = _keep(tags)
    top = len(ts.events) + 1
    # arc a's reason: its event's level bit, and its own bit above the levels
    reasons = [(2 << e) | (with_bits << (top + a)) for a, (_, e, _) in enumerate(arcs)]
    fwd = [(e + 1, r, d, APPLY, keep_src) for (_, e, d), r in zip(arcs, reasons)]
    back = [(e + 1, r, s, BACK, keep_dst) for (s, e, _), r in zip(arcs, reasons)]
    state_arcs = [
        [fwd[a] for a in outs] + [back[a] for a in ins] for outs, ins in zip(ts.out_arcs, ts.in_arcs)
    ]
    root = [(len(ts.states), ts.initial, 1)]
    level_arcs = [root] + [[(arcs[a][0], arcs[a][2], reasons[a]) for a in occ] for occ in ts.event_arcs]
    return state_arcs, level_arcs


def prepare(ts, branch_tags) -> Problem:
    """The kernel's tables for ts, read from its index views, with the
    interaction ids to try at each event in order."""
    return Problem(ts, branch_tags)


def solve(p: Problem, kind: int, goal_a: int, goal_b: int,
          limit: int, collect_touched: bool):
    """Search for a region solving one atom.

    limit < 0 means unbounded; otherwise the search may charge at most that
    many nodes (one per root support choice and one per tag tried that is
    still in its event's domain).  Returns (status, sup, sig, nodes, core);
    core is the refutation core as a bitmask over the arcs when the answer
    is NONE and collect_touched is set, and 0 otherwise (only a refutation
    has a core).
    """
    tags = p.branch_tags
    if collect_touched:
        if p.cored is None:
            p.cored = _adjacency(p.ts, tags, True)
        state_arcs, level_arcs = p.cored
    else:
        state_arcs, level_arcs = p.plain
    n_states = len(p.ts.states)
    top = len(p.ts.events) + 1
    sup = [-1] * n_states + [0]   # the last slot is the root arc's phantom source
    sig = [-1] * top              # by level
    cause = [0] * (n_states + 1)  # the reason behind each support
    # the domain of each level: the root's supports, each event's tags
    dom = [3] + [(1 << len(tags)) - 1] * (top - 1)
    prune = [0] * top             # the reason behind a level's pruned tags
    trail = []    # states with freshly assigned support, for undo
    dtrail = []   # (level, old domain, old prune) per domain change
    pending = []  # states whose support just landed, awaiting arc scans
    # the SSP goal pair: a support landing on one forces the complement on
    # the other (pa + pb - s is the partner of s), which is still unassigned:
    # the two land in one step and are undone together
    pa, pb = (goal_a, goal_b) if kind == SSP else (-1, -1)
    essp_level = goal_a + 1 if kind == ESSP else -1
    if kind == ESSP:
        # the goal event keeps only the tags undefined at its goal state's
        # support, so never a total one; a type of total tags solves nothing
        keep_goal = _keep(tags)[2]
        dom[essp_level] = keep_goal[0][0] | keep_goal[1][0]
        if not dom[essp_level]:
            return (NONE, None, None, 0, 0)
        # the goal state's scan starts with the atom as a pseudo-arc to
        # itself: once its support lands it prunes the goal event's domain
        # like an arc would, and once the event is decided it propagates
        # nothing
        state_arcs = list(state_arcs)
        state_arcs[goal_b] = [(essp_level, 0, goal_b, NO_PROPAGATION, keep_goal)] + state_arcs[goal_b]
    # the search stack, one slot per level (see the module docstring)
    branch = [0] * top
    acc = [0] * top
    marks = [0] * top
    dmarks = [0] * top
    nodes = 0
    level = 0
    while True:
        i = branch[level]
        rest = dom[level] >> i
        if rest:
            i += (rest & -rest).bit_length() - 1
            branch[level] = i + 1
            nodes += 1
            if 0 <= limit < nodes:
                return (BUDGET, None, None, nodes, 0)
            marks[level] = len(trail)
            dmarks[level] = len(dtrail)
            cm = OK
            t = tags[i] if level else ROOT_TAGS[i]
            sig[level] = t
            fwd = APPLY[t]
            back = BACK[t]
            if level == essp_level and sup[goal_b] < 0:
                # the goal state takes the undefined side; one that had its
                # support already left only tags undefined there
                sup[goal_b] = 0 if fwd[0] < 0 else 1
                cause[goal_b] = 1 << level
                trail.append(goal_b)
                pending.append(goal_b)
            # the decided level's arcs, forward from an assigned source,
            # else backward from an assigned destination
            for src, dst, reason in level_arcs[level]:
                v = sup[src]
                if v >= 0:
                    o = dst
                    v = fwd[v]
                    r = cause[src] | reason
                else:
                    v = sup[dst]
                    if v < 0:
                        continue
                    v = back[v]
                    if v == -2:
                        continue
                    o = src
                    r = cause[dst] | reason
                if v < 0:
                    cm = r
                    break
                old = sup[o]
                if old < 0:
                    sup[o] = v
                    cause[o] = r
                    trail.append(o)
                    pending.append(o)
                    if o == pa or o == pb:
                        q = pa + pb - o
                        sup[q] = 1 - v
                        cause[q] = r
                        trail.append(q)
                        pending.append(q)
                elif old != v:
                    cm = cause[o] | r
                    break
            # propagation: scan the arcs of each state whose support landed,
            # pruning the domains of unassigned events; its assignment step
            # repeats the event scan's, written out twice so that no call
            # sits in the per-arc path
            while pending and cm < 0:
                s = pending.pop()
                vs = sup[s]
                cs = cause[s]
                for lev, reason, o, table, keep in state_arcs[s]:
                    t = sig[lev]
                    if t < 0:
                        d = dom[lev]
                        w = sup[o]
                        nd = d & keep[vs][w]
                        if nd != d:
                            dtrail.append((lev, d, prune[lev]))
                            dom[lev] = nd
                            if w < 0:
                                prune[lev] |= cs | reason
                            else:
                                prune[lev] |= cs | reason | cause[o]
                            if not nd:
                                cm = prune[lev]
                                break
                        continue
                    v = table[t][vs]
                    if v < 0:
                        if v == -2:
                            continue
                        cm = cs | reason
                        break
                    old = sup[o]
                    if old < 0:
                        sup[o] = v
                        cause[o] = r = cs | reason
                        trail.append(o)
                        pending.append(o)
                        if o == pa or o == pb:
                            q = pa + pb - o
                            sup[q] = 1 - v
                            cause[q] = r
                            trail.append(q)
                            pending.append(q)
                    elif old != v:
                        cm = cause[o] | cs | reason
                        break
            if cm < 0:
                level += 1
                if level == top:
                    assert all(v >= 0 for v in sup)
                    return (FOUND, sup[:-1], sig[1:], nodes, 0)
                branch[level] = acc[level] = 0
                continue
        else:
            # every branch left in this level's domain failed: the union of
            # their conflicts and of the domain's prune reason, minus the
            # level itself, is the failure of the branch below (at the
            # root, where nothing is left to undo, the loop below ends the
            # search)
            cm = (acc[level] | prune[level]) & ~(1 << level)
            if level:
                level -= 1
        # the current branch at this level failed with conflict cm
        while True:
            pending.clear()
            sig[level] = -1
            mark = marks[level]
            while len(trail) > mark:
                sup[trail.pop()] = -1
            mark = dmarks[level]
            while len(dtrail) > mark:
                lev, dom[lev], prune[lev] = dtrail.pop()
            if cm & (1 << level):
                acc[level] |= cm
                break
            if level == 0:
                # refuted: the root's conflicts, above the level bits, are
                # the refutation core (0 unless a core was asked for)
                return (NONE, None, None, nodes, (acc[0] | cm) >> top)
            # the failure never looked at this decision: siblings are
            # doomed for the same reason, hand the conflict downward
            level -= 1
