"""Boolean-typed Petri nets: firing rule and reachability graphs.

A net couples every place to every transition through one interaction of its
type.  Markings are bit vectors over the places; firing applies the coupled
interaction at every place simultaneously and is enabled only when all of
them are defined.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .errors import ParseError, PlaceBoundExceeded, UnknownTransition
from .interactions import BooleanType, apply_interaction, check_tag
from .ts import TransitionSystem, _check_ident, _check_name, _dot_quote, directives

# Marking tuples stay cheap well past a hundred places; the bound exists to
# reject inputs so wide that no marking-space exploration could finish anyway.
PLACE_BOUND = 512


@dataclass(frozen=True)
class Marking:
    """Bit vector over a net's places, in canonical place order."""

    bits: tuple[int, ...]

    def text(self) -> str:
        return "(" + ",".join(str(b) for b in self.bits) + ")"


class BooleanNet:
    __slots__ = ("name", "tau", "places", "transitions", "flow", "m0")

    def __init__(
        self,
        name: str | None,
        tau: BooleanType,
        places: tuple[str, ...],
        transitions: tuple[str, ...],
        flow: dict[tuple[str, str], str],
        m0: tuple[int, ...],
    ):
        """flow maps (place, transition) to a tag; missing pairs mean nop.

        The completed flow must take values inside tau (so leaving pairs
        implicit requires nop ∈ tau).  Place and transition names must be
        in the identifier class of state and event names, whether or not a
        transition ever fires.
        """
        _check_name(name, "net")
        if len(set(places)) != len(places):
            raise ParseError("duplicate place name")
        if len(set(transitions)) != len(transitions):
            raise ParseError("duplicate transition name")
        if len(m0) != len(places):
            raise ParseError("initial marking arity differs from place count")
        if any(b not in (0, 1) for b in m0):
            raise ParseError("initial marking bits must be 0 or 1")
        for p in places:
            _check_ident(p, "place")
        for t in transitions:
            _check_ident(t, "transition")
        full: dict[tuple[str, str], str] = {}
        for p in places:
            for t in transitions:
                tag = flow.get((p, t), "nop")
                check_tag(tag)
                if tag not in tau:
                    raise ParseError(f"flow {p}/{t} uses {tag!r} outside type {tau}")
                full[(p, t)] = tag
        for (p, t) in flow:
            if p not in places:
                raise ParseError(f"flow references unknown place {p!r}")
            if t not in transitions:
                raise ParseError(f"flow references unknown transition {t!r}")
        self.name = name
        self.tau = tau
        self.places = tuple(places)
        self.transitions = tuple(transitions)
        self.flow = full
        self.m0 = tuple(int(b) for b in m0)

    def initial_marking(self) -> Marking:
        return Marking(self.m0)

    def fire(self, m: Marking | tuple[int, ...], t: str) -> Marking | None:
        """Successor marking, or None when t is not enabled at m.  A marking
        without exactly one 0 or 1 bit per place raises ValueError."""
        if t not in self.transitions:
            raise UnknownTransition(t)
        bits = m.bits if isinstance(m, Marking) else tuple(m)
        n = len(self.places)
        if len(bits) != n or not all(isinstance(b, int) and b in (0, 1) for b in bits):
            raise ValueError(f"marking {bits} is not one 0 or 1 bit for each of {n} places")
        out = []
        for p, b in zip(self.places, bits):
            nb = apply_interaction(self.flow[(p, t)], b)
            if nb is None:
                return None
            out.append(nb)
        return Marking(tuple(out))

    def __repr__(self) -> str:
        label = self.name or "net"
        return f"<{label}: {len(self.places)} places, {len(self.transitions)} transitions, type {self.tau}>"


def fire(net: BooleanNet, m: Marking | tuple[int, ...], t: str) -> Marking | None:
    return net.fire(m, t)


def _firing_rule(net: BooleanNet) -> tuple[int, list[tuple[int, int, int, int]], int]:
    """The net's firing rule over integer markings (place k = bit k): the
    mask of all places, one row (d0, d1, a0, a1) per transition in net
    order, and m0.  d0 and d1 are the places where the transition's
    interaction is defined at 0 and at 1, and a0 and a1 the subsets of those
    it maps to 1.  So t is enabled at m iff neither ~m & full & ~d0 nor
    m & ~d1 has a bit, and it then leads to (~m & a0) | (m & a1): two mask
    intersections, however many places.  A net with more than PLACE_BOUND
    places raises PlaceBoundExceeded."""
    n = len(net.places)
    if n > PLACE_BOUND:
        raise PlaceBoundExceeded(n, PLACE_BOUND)
    rows = []
    for t in net.transitions:
        d0 = d1 = a0 = a1 = 0
        for k, p in enumerate(net.places):
            img0 = apply_interaction(net.flow[(p, t)], 0)
            img1 = apply_interaction(net.flow[(p, t)], 1)
            if img0 is not None:
                d0 |= 1 << k
                if img0:
                    a0 |= 1 << k
            if img1 is not None:
                d1 |= 1 << k
                if img1:
                    a1 |= 1 << k
        rows.append((d0, d1, a0, a1))
    m0 = 0
    for k, b in enumerate(net.m0):
        if b:
            m0 |= 1 << k
    return (1 << n) - 1, rows, m0


def reachability_graph(net: BooleanNet) -> TransitionSystem:
    """Explore all markings reachable from m0 and return them as a TS.

    State i is the i-th marking in breadth-first order, named by its
    parenthesized bit tuple in place order.  Transitions that never fire are
    dropped from the event alphabet (with a warning) so the result satisfies
    the no-useless-event invariant.  The system is built from index arcs.

    Markings are explored as integer bitmasks under _firing_rule, which keeps
    the exploration linear in markings times transitions rather than places.
    """
    full, rows, m0 = _firing_rule(net)
    n = len(net.places)

    def text(m: int) -> str:
        return "(" + ",".join(str((m >> k) & 1) for k in range(n)) + ")"

    index = {m0: 0}
    order = [m0]
    arcs: list[tuple[int, int, int]] = []
    fired = [False] * len(rows)
    for i, m in enumerate(order):
        for k, (d0, d1, a0, a1) in enumerate(rows):
            if (~m & full & ~d0) or (m & ~d1):
                continue
            m2 = (~m & a0) | (m & a1)
            fired[k] = True
            j = index.get(m2)
            if j is None:
                j = index[m2] = len(order)
                order.append(m2)
            arcs.append((i, k, j))
    dead = [t for t, f in zip(net.transitions, fired) if not f]
    if dead:
        warnings.warn(f"dropping dead transitions from reachability graph: {', '.join(dead)}")
    live = [k for k, f in enumerate(fired) if f]
    event_of = {k: e for e, k in enumerate(live)}
    # The constructor checks all but names, and marking texts and the
    # net's transition names are in the identifier class.
    return TransitionSystem(
        (net.name + "-rg") if net.name else None,
        tuple(text(m) for m in order),
        tuple(net.transitions[k] for k in live),
        0,
        tuple((s, event_of[k], d) for s, k, d in arcs),
    )


# -- textual format ----------------------------------------------------------------


_PLACE_LINE = "expected `place <name> <0|1>`"
_NET_SHAPES = {
    "net": (1, "expected `net <name>`", "duplicate net declaration"),
    "type": (None, "expected `type <tags>`", "duplicate type declaration"),
    "place": (2, _PLACE_LINE, None),
    "trans": (1, "expected `trans <name>`", None),
    "flow": (3, "expected `flow <place> <trans> <interaction>`", None),
}


def parse_net(text: str, strict: bool = False) -> BooleanNet:
    """Parse the line-oriented net format (read by ts.directives).

    Lines: optional `net <name>`, `type <tags>`, `place <p> <0|1>`,
    `trans <t>`, `flow <p> <t> <interaction>`.  Missing flow entries default
    to nop; strict mode requires every place/transition pair to be declared.
    The net is then checked as the BooleanNet constructor checks it.
    """
    name = None
    tau: BooleanType | None = None
    places: list[str] = []
    m0: list[int] = []
    transitions: list[str] = []
    flow: dict[tuple[str, str], str] = {}
    for no, parts in directives(text, _NET_SHAPES):
        kw = parts[0]
        if kw == "net":
            name = parts[1]
        elif kw == "type":
            tau = BooleanType.parse(" ".join(parts[1:]))
        elif kw == "place":
            if parts[2] not in ("0", "1"):
                raise ParseError(f"line {no}: {_PLACE_LINE}")
            places.append(parts[1])
            m0.append(int(parts[2]))
        elif kw == "trans":
            transitions.append(parts[1])
        else:
            key = (parts[1], parts[2])
            if key in flow:
                raise ParseError(f"line {no}: duplicate flow entry {key}")
            flow[key] = check_tag(parts[3])
    if tau is None:
        raise ParseError("missing `type` declaration")
    if strict:
        for p in places:
            for t in transitions:
                if (p, t) not in flow:
                    raise ParseError(f"strict mode: flow {p}/{t} undeclared")
    return BooleanNet(name, tau, tuple(places), tuple(transitions), flow, tuple(m0))


def serialize_net(net: BooleanNet) -> str:
    out = []
    if net.name:
        out.append(f"net {net.name}")
    out.append(f"type {net.tau}")
    for p, b in zip(net.places, net.m0):
        out.append(f"place {p} {b}")
    for t in net.transitions:
        out.append(f"trans {t}")
    for p in net.places:
        for t in net.transitions:
            out.append(f"flow {p} {t} {net.flow[(p, t)]}")
    return "\n".join(out) + "\n"


def net_to_dot(net: BooleanNet) -> str:
    """Bipartite DOT rendering; nop couplings are omitted as visual no-ops."""
    lines = ["digraph net {", "  rankdir=LR;"]
    for p, b in zip(net.places, net.m0):
        label = f"{p} [1]" if b else p
        lines.append(f"  {_dot_quote(p)} [shape=circle, label={_dot_quote(label)}];")
    for t in net.transitions:
        lines.append(f"  {_dot_quote(t)} [shape=box];")
    for p in net.places:
        for t in net.transitions:
            tag = net.flow[(p, t)]
            if tag == "nop":
                continue
            lines.append(f"  {_dot_quote(p)} -> {_dot_quote(t)} [label={_dot_quote(tag)}, dir=none];")
    lines.append("}")
    return "\n".join(lines) + "\n"
