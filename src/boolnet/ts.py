"""Deterministic, initialized, reachable labeled transition systems.

States and events keep the order of first appearance; that order is the
canonical order used by every enumeration, serialization and search in the
package, which keeps all results reproducible.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import (
    EventSetMismatch,
    NoInitial,
    NonDeterministic,
    ParseError,
    UnknownId,
    Unreachable,
    UselessEvent,
)

# Lexical class for state/event names.  Beyond the plain identifier characters
# this admits the glyphs used by generated artifacts: ⊖/⊥/ι in gadget names and
# "(",")","," in marking names of reachability graphs.
_IDENT_RE = re.compile(r"[A-Za-z0-9_.'⊖⊥ι(),-]+\Z")


def _check_ident(token: str, what: str) -> str:
    if not _IDENT_RE.match(token):
        raise ParseError(f"bad {what} name {token!r}")
    return token


def _check_name(name: str | None, what: str) -> None:
    """A header name must read back as the one token the serializers write:
    a string, not empty, and without whitespace or `#`.  None means no
    header."""
    if name is not None and (not isinstance(name, str) or list(token_lines(name)) != [(1, [name])]):
        raise ParseError(f"bad {what} name {name!r}")


class TransitionSystem:
    """Immutable labeled transition system over indexed states and events.

    Public accessors speak in names; the integer views (arcs, arc_at,
    out_arcs, in_arcs, event_arcs) exist for the solvers: the successor of
    s by e is arcs[arc_at[(s, e)]][2].  The constructor checks everything
    build checks but names: it raises NonDeterministic for a repeated
    (state, event) arc, then Unreachable for the lowest-index state the
    initial state never reaches (spanning_tree, whose tree it keeps), then
    UselessEvent for the lowest event without an arc.
    """

    __slots__ = (
        "name",
        "states",
        "events",
        "initial",
        "arcs",
        "state_index",
        "event_index",
        "arc_at",
        "out_arcs",
        "in_arcs",
        "event_arcs",
        "_tree",
    )

    def __init__(
        self,
        name: str | None,
        states: tuple[str, ...],
        events: tuple[str, ...],
        initial: int,
        arcs: tuple[tuple[int, int, int], ...],
    ):
        self.name = name
        self.states = states
        self.events = events
        self.initial = initial
        self.arcs = arcs
        self.state_index = {s: i for i, s in enumerate(states)}
        self.event_index = {e: i for i, e in enumerate(events)}
        self.arc_at: dict[tuple[int, int], int] = {}
        self.out_arcs: list[list[int]] = [[] for _ in states]
        self.in_arcs: list[list[int]] = [[] for _ in states]
        self.event_arcs: list[list[int]] = [[] for _ in events]
        for a, (src, ev, dst) in enumerate(arcs):
            key = (src, ev)
            if key in self.arc_at:
                raise NonDeterministic(states[src], events[ev])
            self.arc_at[key] = a
            self.out_arcs[src].append(a)
            self.in_arcs[dst].append(a)
            self.event_arcs[ev].append(a)
        self._tree = spanning_tree(initial, arcs, self.out_arcs, states)
        for e, occ in zip(events, self.event_arcs):
            if not occ:
                raise UselessEvent(e)

    # -- construction ---------------------------------------------------------

    @classmethod
    def build(
        cls,
        initial: str,
        arcs,
        states=None,
        events=None,
        name: str | None = None,
    ) -> "TransitionSystem":
        """Build and validate a system from (src, event, dst) name triples.

        Explicit states/events fix the canonical order; otherwise it is the
        order of first appearance (initial state first).
        """
        _check_name(name, "ts")
        arcs = [tuple(a) for a in arcs]
        if initial is None:
            raise NoInitial()
        sx: dict[str, int] = {}
        if states is not None:
            for s in states:
                if s in sx:
                    raise ParseError(f"duplicate state {s!r}")
                sx[_check_ident(s, "state")] = len(sx)
        else:
            sx[_check_ident(initial, "state")] = 0
        ex: dict[str, int] = {}
        if events is not None:
            for e in events:
                if e in ex:
                    raise ParseError(f"duplicate event {e!r}")
                ex[_check_ident(e, "event")] = len(ex)
        for src, ev, dst in arcs:
            if states is None:
                for s in (src, dst):
                    if s not in sx:
                        sx[_check_ident(s, "state")] = len(sx)
            if events is None and ev not in ex:
                ex[_check_ident(ev, "event")] = len(ex)

        if initial not in sx:
            raise UnknownId(initial, "initial state")
        idx_arcs = []
        for src, ev, dst in arcs:
            if src not in sx:
                raise UnknownId(src, "arc source")
            if dst not in sx:
                raise UnknownId(dst, "arc target")
            if ev not in ex:
                raise UnknownId(ev, "arc event")
            idx_arcs.append((sx[src], ex[ev], sx[dst]))

        return cls(name, tuple(sx), tuple(ex), sx[initial], tuple(idx_arcs))

    # -- queries ---------------------------------------------------------------

    def walk(self) -> tuple[list, list]:
        """The module's spanning_tree of this system, walked when it was
        built and kept, since the system never changes; callers must not
        change the lists."""
        return self._tree

    @property
    def initial_state(self) -> str:
        return self.states[self.initial]

    def successor(self, state: str, event: str) -> str | None:
        si = self.state_index.get(state)
        ei = self.event_index.get(event)
        if si is None:
            raise UnknownId(state)
        if ei is None:
            raise UnknownId(event)
        a = self.arc_at.get((si, ei))
        return None if a is None else self.states[self.arcs[a][2]]

    def has_arc(self, state: str, event: str) -> bool:
        return self.successor(state, event) is not None

    def arc_names(self, a: int) -> tuple[str, str, str]:
        src, ev, dst = self.arcs[a]
        return (self.states[src], self.events[ev], self.states[dst])

    def __eq__(self, other) -> bool:
        if not isinstance(other, TransitionSystem):
            return NotImplemented
        return (
            self.states == other.states
            and self.events == other.events
            and self.initial == other.initial
            and self.arcs == other.arcs
        )

    def __hash__(self):
        return hash((self.states, self.events, self.initial, self.arcs))

    def __repr__(self) -> str:
        label = self.name or "ts"
        return f"<{label}: {len(self.states)} states, {len(self.events)} events, {len(self.arcs)} arcs>"


def spanning_tree(initial: int, arcs, out_arcs, names) -> tuple[list, list]:
    """A BFS tree from the initial state along index arcs, given each
    state's out-arcs: (state, tree arc) in BFS order without the initial
    state, and the arcs off the tree (chords).  It is the one check that
    every state is reachable: it raises Unreachable with names[s] for the
    lowest-index state s it misses."""
    seen = [False] * len(out_arcs)
    seen[initial] = True
    queue = [initial]
    order = []
    chords = []
    for s in queue:
        for a in out_arcs[s]:
            d = arcs[a][2]
            if seen[d]:
                chords.append(a)
            else:
                seen[d] = True
                queue.append(d)
                order.append((d, a))
    if len(queue) < len(out_arcs):
        raise Unreachable(names[seen.index(False)])
    return order, chords


# -- textual format --------------------------------------------------------------


def token_lines(text: str):
    """(line number, tokens) for each line of text with any tokens left once
    its `#` comment is cut off."""
    for no, raw in enumerate(text.splitlines(), 1):
        parts = raw.partition("#")[0].split()
        if parts:
            yield no, parts


def directives(text: str, shapes: dict):
    """(line number, tokens) of each of token_lines(text) once its first
    token, the keyword, is checked: the one line grammar of every text
    format.  shapes maps each keyword to (count, wrong, once): how many
    tokens follow it (None: one or more), the message for another count,
    and for a header, which may appear once, the message for a second one
    (None for other keywords).  An unknown keyword, a wrong count and a
    repeated header, checked in that order, raise ParseError naming the
    line.  The tokens are yielded as read, keyword first, so that no line
    is copied."""
    seen = set()
    for no, parts in token_lines(text):
        kw = parts[0]
        shape = shapes.get(kw)
        if shape is None:
            raise ParseError(f"line {no}: unknown directive {kw!r}")
        count, wrong, once = shape
        n = len(parts) - 1
        if n != count and (count is not None or not n):
            raise ParseError(f"line {no}: {wrong}")
        if once is not None:
            if kw in seen:
                raise ParseError(f"line {no}: {once}")
            seen.add(kw)
        yield no, parts


_TS_SHAPES = {
    "ts": (1, "expected `ts <name>`", "duplicate ts declaration"),
    "initial": (1, "expected `initial <state>`", "duplicate initial declaration"),
    "arc": (3, "expected `arc <src> <event> <dst>`", None),
}


def parse_ts(text: str) -> TransitionSystem:
    """Parse the line-oriented ts format (read by directives).

    Lines: optional `ts <name>`, one `initial <state>`, any number of
    `arc <src> <event> <dst>`.  `#` starts a comment; blank lines are ignored.
    A text without `initial` raises NoInitial; the system is then checked as
    TransitionSystem.build checks it.
    """
    name = None
    initial = None
    arcs: list[tuple[str, str, str]] = []
    for _, parts in directives(text, _TS_SHAPES):
        kw = parts[0]
        if kw == "arc":  # nearly every line of a system
            arcs.append((parts[1], parts[2], parts[3]))
        elif kw == "initial":
            initial = parts[1]
        else:
            name = parts[1]
    if initial is None:
        raise NoInitial()
    return TransitionSystem.build(initial=initial, arcs=arcs, name=name)


def serialize_ts(ts: TransitionSystem) -> str:
    out = []
    if ts.name:
        out.append(f"ts {ts.name}")
    out.append(f"initial {ts.initial_state}")
    for a in range(len(ts.arcs)):
        src, ev, dst = ts.arc_names(a)
        out.append(f"arc {src} {ev} {dst}")
    return "\n".join(out) + "\n"


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def ts_to_dot(ts: TransitionSystem) -> str:
    lines = ["digraph ts {", "  rankdir=LR;"]
    for i, s in enumerate(ts.states):
        shape = "doublecircle" if i == ts.initial else "circle"
        lines.append(f"  {_dot_quote(s)} [shape={shape}];")
    for a in range(len(ts.arcs)):
        src, ev, dst = ts.arc_names(a)
        lines.append(f"  {_dot_quote(src)} -> {_dot_quote(dst)} [label={_dot_quote(ev)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- simulations -------------------------------------------------------------------


@dataclass
class SimulationMap:
    """A state map from one system into another, event-preserving by build.

    phi maps source state indices to target state indices, in the order the
    induced map found them; mapping is its name view, built when read.
    """

    source: TransitionSystem
    target: TransitionSystem
    phi: dict[int, int]

    @property
    def mapping(self) -> dict[str, str]:
        src, dst = self.source.states, self.target.states
        return {src[s]: dst[t] for s, t in self.phi.items()}

    def is_injective(self) -> bool:
        return len(set(self.phi.values())) == len(self.phi)

    def is_surjective(self) -> bool:
        return len(set(self.phi.values())) == len(self.target.states)

    def reflects_events(self) -> bool:
        """True when every event enabled at an image state is enabled at the
        source state as well.  The map carries each arc of s to an arc of
        phi(s) with its event, and both systems are deterministic, so this
        holds exactly when phi(s) has as many out-arcs as s."""
        src, dst = self.source.out_arcs, self.target.out_arcs
        return all(len(dst[t]) == len(src[s]) for s, t in self.phi.items())


def induced_simulation(a: TransitionSystem, b: TransitionSystem) -> SimulationMap | None:
    """The unique event-preserving map a -> b fixing the initial states, or
    None when no such map exists.

    Uniqueness holds because a is reachable and b deterministic: the image of
    the initial state is forced and propagates along every arc.  Plain
    simulation tolerates extra events on the target side; classifying the map
    (check_relation) requires equal event sets.
    """
    if not set(a.events) <= set(b.events):
        raise EventSetMismatch(
            f"source uses events missing from target: {sorted(set(a.events) - set(b.events))}"
        )
    ev_map = [b.event_index[e] for e in a.events]
    order, chords = a.walk()
    phi: dict[int, int] = {a.initial: b.initial}
    at, b_arcs = b.arc_at, b.arcs
    for dst, arc in order:
        src, ev, _ = a.arcs[arc]
        t = at.get((phi[src], ev_map[ev]))
        if t is None:
            return None
        phi[dst] = b_arcs[t][2]
    for arc in chords:
        src, ev, dst = a.arcs[arc]
        t = at.get((phi[src], ev_map[ev]))
        if t is None or b_arcs[t][2] != phi[dst]:
            return None
    return SimulationMap(source=a, target=b, phi=phi)


MODES = ("embed", "langsim", "realize")


def check_relation(a: TransitionSystem, b: TransitionSystem, mode: str) -> bool:
    """Whether b implements a under the given mode.

    embed: the induced map exists and is injective.
    langsim: the induced map exists and reflects enabled events.
    realize: both, which for reachable deterministic systems makes the map an
    isomorphism (surjectivity is asserted anyway).
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if set(a.events) != set(b.events):
        raise EventSetMismatch(
            f"event sets differ: {sorted(a.events)} vs {sorted(b.events)}"
        )
    phi = induced_simulation(a, b)
    if phi is None:
        return False
    if mode == "embed":
        return phi.is_injective()
    if mode == "langsim":
        return phi.reflects_events()
    return phi.is_injective() and phi.reflects_events() and phi.is_surjective()
