"""Witness-to-net synthesis and the implementation round-trip check.

Each witness region becomes one place: its signature is the place's flow row
and its support at the initial state the initial marking bit.  The result is
verified by firing the net in lockstep with the system along the system's
spanning tree, which never builds the net's reachability graph; a failure
there would mean a solver bug, not bad input.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainMismatch, EventSetMismatch, VerificationFailed
from .interactions import BooleanType
from .nets import BooleanNet, _firing_rule, reachability_graph
from .regions import (
    NodeBudget,
    SeparationAtom,
    Witness,
    decide_property,
    property_for_mode,
)
from .ts import MODES, TransitionSystem, check_relation


@dataclass
class SynthesisResult:
    net: BooleanNet
    witness: Witness
    mode: str
    verified: bool


def net_from_witness(
    ts: TransitionSystem, tau: BooleanType, witness: Witness, name: str | None = None
) -> BooleanNet:
    """Build the synthesized net: one place per region (named R1, R2, ... in
    witness order), one transition per event.  A region that lacks one of
    the system's events or its initial state raises DomainMismatch."""
    places = tuple(f"R{k + 1}" for k in range(len(witness.regions)))
    try:
        flow = {(p, e): r.signature[e] for p, r in zip(places, witness.regions) for e in ts.events}
        m0 = tuple(r.support[ts.initial_state] for r in witness.regions)
    except KeyError as missing:
        raise DomainMismatch(f"a witness region lacks {missing.args[0]!r}") from None
    return BooleanNet(name, tau, places, ts.events, flow, m0)


def verify_implementation(ts: TransitionSystem, net: BooleanNet, mode: str) -> bool:
    """Whether the net's reachability graph implements ts under the mode.

    The net may carry transitions beyond the system's events, but not the
    other way around.  A reachability graph whose live alphabet differs from
    the system's events can never qualify, so that case is False, not an
    error.

    When the net's transitions are exactly the system's events, a True
    comes from firing the net in lockstep with the system
    (_fires_in_lockstep), which builds no reachability graph.  Every
    other case and answer builds the graph and compares it with
    check_relation, so each False, exception and dead-transition warning is
    that comparison's.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    missing = set(ts.events) - set(net.transitions)
    if missing:
        raise EventSetMismatch(f"net lacks transitions for events: {sorted(missing)}")
    full, rows, m0 = _firing_rule(net)
    if len(net.transitions) == len(ts.events):
        by_event = [rows[net.transitions.index(e)] for e in ts.events]
        if _fires_in_lockstep(ts, mode, full, by_event, m0):
            return True
    rg = reachability_graph(net)
    if set(rg.events) != set(ts.events):
        return False
    return check_relation(ts, rg, mode)


def _fires_in_lockstep(
    ts: TransitionSystem, mode: str, full: int, rows: list[tuple[int, int, int, int]], m0: int
) -> bool:
    """Whether the net, given by its firing rule with rows[e] the row of
    the system's event e, implements ts under the mode, on a net whose
    transitions are exactly the system's events.  False means "not shown",
    not "no".

    The image of the initial state is m0, each tree arc of the system's
    spanning tree fires its event at the image of its source, and each
    chord must land on the image of its target.  Then the images are the
    induced map into the reachability graph, and every transition fires at
    one of them, so the graph's live alphabet is the system's events.  Embed
    asks for distinct images; langsim for each image to enable exactly as
    many transitions as its state has out-arcs, which makes the images
    closed under firing, so they are every reachable marking; realize for
    both, and is then surjective as well.
    """
    order, chords = ts.walk()
    image: list[int | None] = [None] * len(ts.states)
    image[ts.initial] = m0
    arcs = ts.arcs
    # in BFS order each tree arc's source already has its image, and after
    # the tree arcs every state has one for the chords to land on
    for a in [a for _, a in order] + chords:
        src, ev, dst = arcs[a]
        m = image[src]
        d0, d1, a0, a1 = rows[ev]
        if (~m & full & ~d0) or (m & ~d1):
            return False
        m2 = (~m & a0) | (m & a1)
        if image[dst] is None:
            image[dst] = m2
        elif image[dst] != m2:
            return False
    if mode != "langsim" and len(set(image)) != len(image):
        return False
    if mode != "embed":
        for m, out in zip(image, ts.out_arcs):
            enabled = sum(not ((~m & full & ~d0) or (m & ~d1)) for d0, d1, _, _ in rows)
            if enabled != len(out):
                return False
    return True


def synthesize(
    ts: TransitionSystem,
    tau: BooleanType,
    mode: str,
    budget: NodeBudget | None = None,
    name: str | None = None,
) -> SynthesisResult | SeparationAtom:
    """Synthesize a net implementing ts under the mode, or report the atom
    blocking it.  Every success is re-verified by verify_implementation,
    which fires the net in lockstep with ts; a verification failure raises
    (it indicates an internal bug)."""
    result = decide_property(ts, tau, property_for_mode(mode), budget)
    if isinstance(result, SeparationAtom):
        return result
    if name is None:
        name = ts.name and ts.name + "-net"
    net = net_from_witness(ts, tau, result, name=name)
    if not verify_implementation(ts, net, mode):
        raise VerificationFailed(f"synthesized net fails {mode} verification")
    return SynthesisResult(net=net, witness=result, mode=mode, verified=True)
