"""Witness-to-net synthesis and the implementation round-trip check.

Each witness region becomes one place: its signature is the place's flow row
and its support at the initial state the initial marking bit.  The result is
verified by rebuilding the reachability graph and checking the relation the
mode demands; a failure there would mean a solver bug, not bad input.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainMismatch, EventSetMismatch, VerificationFailed
from .interactions import BooleanType
from .nets import BooleanNet, reachability_graph
from .regions import (
    NodeBudget,
    SeparationAtom,
    Witness,
    decide_property,
    property_for_mode,
)
from .ts import MODES, TransitionSystem, check_relation, spanning_tree


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
    error.  A system with an unreached state raises Unreachable either way.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    missing = set(ts.events) - set(net.transitions)
    if missing:
        raise EventSetMismatch(f"net lacks transitions for events: {sorted(missing)}")
    rg = reachability_graph(net)
    if set(rg.events) != set(ts.events):
        spanning_tree(ts.initial, ts.arcs, ts.out_arcs, ts.states)  # as check_relation does
        return False
    return check_relation(ts, rg, mode)


def synthesize(
    ts: TransitionSystem,
    tau: BooleanType,
    mode: str,
    budget: NodeBudget | None = None,
    name: str | None = None,
) -> SynthesisResult | SeparationAtom:
    """Synthesize a net implementing ts under the mode, or report the atom
    blocking it.  Every success is re-verified through the reachability
    graph; a verification failure raises (it indicates an internal bug)."""
    result = decide_property(ts, tau, property_for_mode(mode), budget)
    if isinstance(result, SeparationAtom):
        return result
    if name is None:
        name = ts.name and ts.name + "-net"
    net = net_from_witness(ts, tau, result, name=name)
    if not verify_implementation(ts, net, mode):
        raise VerificationFailed(f"synthesized net fails {mode} verification")
    return SynthesisResult(net=net, witness=result, mode=mode, verified=True)
