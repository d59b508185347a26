"""Separation atoms of the linear Boolean types, decided by GF(2) elimination.

A type τ is linear when τ = {nop, swap} ∪ ω with ω ⊆ {inp, out, used, free}.
Every tag of such a type adds a fixed bit to the support it acts on: 1 for
swap, inp and out, 0 for nop, used and free.  With x_e that bit for the
signature of event e, an arc (s, e, t) is the equation
sup(s) + sup(t) + x_e = 0 over GF(2).  nop and swap are total, so every x
that satisfies the arc equations, with either value of sup(ι), is a region;
a partial tag adds only that every source of its event has one support c,
and a state where the event is missing then has support 1 + c exactly when
the region solves that ESSP atom.

Take a BFS tree from the initial state (`ts.spanning_tree`).  Each state v
gets the parity vector p_v of the events on its tree path, so
sup(v) = sup(ι) + p_v·x.  A tree arc holds by construction; every other arc
(s, e, t) adds the cycle constraint (p_s + p_t + e)·x = 0.  The constraints
are kept in reduced echelon form over the event bits (`_Basis`), and C is
their span.

- SSP(s, t) is unsolvable exactly when p_s + p_t lies in C, that is, when
  p_s and p_t reduce to the same row.  States with equal reduced rows form
  a class, and the first unsolvable pair in decide_property's order is the
  least (g0, g1) over the classes.
- ESSP(e, s).  Let W_e be C plus "every source of e has the support of its
  first source, src1": (p_src1 + p_src)·x = 0 for each source.  Let X hold
  the bit x of each partial tag in τ.  The atom asks for x_e ∈ X and
  (p_src1 + p_s)·x = 1 on top of W_e.  With v = p_src1 + p_s:
  - X = {0, 1}: unsolvable iff v ∈ W_e;
  - X = {1}: unsolvable iff e ∈ W_e (x_e = 0 is forced) or v ∈ W_e; when e
    is outside W_e, v ∈ W_e + e only fixes v·x = x_e = 1;
  - X = {0}: unsolvable iff v ∈ W_e + e;
  - X = {}: always unsolvable, with an empty core.
  So each event needs one elimination, and a state's verdict is a
  comparison of reduced rows, decided once per class.

Core rule.  A row is one integer: the event bits sit above 2m provenance
bits for m arcs, so every combination of rows carries its provenance along.
The low m bits are the XOR of the arc equations combined into the row; each
tree path p_v brings the arcs of the path, each cycle row its closing arc.
The next m bits are the XOR of the e-arcs whose "same support as src1"
fact the row used, one bit per source, with src1's bit also in the target.
A refutation reduces the target to zero over the event bits; its core is
the union of both provenance parts, read as arcs.  Summing those arc
equations gives every event an even count, so the arcs form an even walk
that forces sup(s) = sup(t), or sup(s) onto the support an odd number of
e-sources share (or x_e = 0).  Any system that keeps the core's arcs, and
the atom, therefore refutes the atom too.

`LinearProblem` answers the two questions a modification search asks of a
candidate: `refute(kind, a, b)` (the core of an unsolvable atom, or None)
and `first_failure(prop)` (the first unsolvable atom in decide_property's
processing order, with its core, or None).  It charges one node per call.
Provenance bits cost time, so they are kept only when cores are asked for.
"""

from __future__ import annotations

from .interactions import BooleanType
from .regions import ESSP, SSP, NodeBudget
from .ts import spanning_tree

LINEAR_TAGS = frozenset(("nop", "swap", "inp", "out", "used", "free"))

# the support bit each partial tag of a linear type adds
_PARTIAL_BIT = {"inp": 1, "out": 1, "used": 0, "free": 0}


def is_linear(tau: BooleanType) -> bool:
    return "nop" in tau.tags and "swap" in tau.tags and tau.tags <= LINEAR_TAGS


class _Basis:
    """Rows in reduced echelon form over the bits at and above `shift`:
    each row's highest such bit is its pivot, and no other row has it."""

    __slots__ = ("shift", "rows", "pivots")

    def __init__(self, shift: int, rows: dict | None = None, pivots: int = 0):
        self.shift = shift
        self.rows = {} if rows is None else rows  # pivot bit (shifted down) -> row
        self.pivots = pivots

    def copy(self) -> "_Basis":
        return _Basis(self.shift, dict(self.rows), self.pivots)

    def reduce(self, r: int) -> int:
        hit = (r >> self.shift) & self.pivots
        rows = self.rows
        while hit:
            b = hit & -hit
            r ^= rows[b]
            hit ^= b
        return r

    def add(self, r: int) -> None:
        r = self.reduce(r)
        high = r >> self.shift
        if not high:
            return
        b = 1 << (high.bit_length() - 1)
        rows = self.rows
        for p, row in rows.items():
            if (row >> self.shift) & b:
                rows[p] = row ^ r
        rows[b] = r
        self.pivots |= b


class LinearProblem:
    """The atoms of one system under a linear type (see the module
    docstring), from its state names (they only name a state the walk
    misses, see `ts.spanning_tree`) and index arcs: (src, event, dst) triples.

    With cores off, `refute` and `first_failure` report 0 as the core.
    """

    __slots__ = ("arcs", "n_events", "budget", "shift", "unit", "xs",
                 "red", "keys", "classes", "cycles", "_ev_arcs", "_events")

    def __init__(
        self,
        states,
        n_events: int,
        initial: int,
        arcs,
        tau: BooleanType,
        budget: NodeBudget | None = None,
        cores: bool = False,
    ):
        if not is_linear(tau):
            raise ValueError(f"type {tau} is not linear")
        self.arcs = arcs
        self.n_events = n_events
        self.budget = budget
        self.shift = shift = 2 * len(arcs) if cores else 0
        self.unit = unit = 1 if cores else 0
        self.xs = frozenset(_PARTIAL_BIT[t] for t in tau.tags if t in _PARTIAL_BIT)
        out: list[list[int]] = [[] for _ in states]
        for a, arc in enumerate(arcs):
            out[arc[0]].append(a)
        order, chords = spanning_tree(initial, arcs, out, states)
        vec = [0] * len(states)
        for v, a in order:
            s, e, _ = arcs[a]
            vec[v] = vec[s] ^ (1 << (shift + e)) ^ (unit << a)
        self.cycles = cycles = _Basis(shift)
        for a in chords:
            s, e, d = arcs[a]
            cycles.add(vec[s] ^ vec[d] ^ (1 << (shift + e)) ^ (unit << a))
        self.red = red = [cycles.reduce(r) for r in vec] if cycles.pivots else vec
        self.keys = keys = [r >> shift for r in red] if shift else red
        classes: dict[int, list[int]] = {}
        for v, key in enumerate(keys):
            classes.setdefault(key, []).append(v)
        self.classes = list(classes.values())  # by least state
        self._ev_arcs = None
        self._events: dict[int, tuple] = {}

    # -- the candidate-check interface -------------------------------------------

    def refute(self, kind: int, a: int, b: int) -> int | None:
        """The core of the atom (kind, a, b) as an arc bitmask, or None when
        a region solves it.  Charges one node."""
        if self.budget is not None:
            self.budget.charge()
        if kind == SSP:
            return self._core(self.red[a] ^ self.red[b]) if self.keys[a] == self.keys[b] else None
        return self._essp_core(a, b)

    def first_failure(self, prop: str) -> tuple[int, int, int, int] | None:
        """(kind, a, b, core) of the first unsolvable atom of the property in
        decide_property's order (ESSP rows event-major, then SSP pairs
        i < j), or None when every atom is solvable.  Charges one node."""
        if self.budget is not None:
            self.budget.charge()
        if prop != "ssp":
            for e in range(self.n_events):
                s = self._first_unsolved(e)
                if s >= 0:
                    return (ESSP, e, s, self._essp_core(e, s))
        if prop != "essp":
            pairs = [(c[0], c[1]) for c in self.classes if len(c) > 1]
            if pairs:
                i, j = min(pairs)
                return (SSP, i, j, self._core(self.red[i] ^ self.red[j]))
        return None

    # -- internals ------------------------------------------------------------------

    def _core(self, r: int) -> int:
        """The arcs of a reduced row's provenance."""
        m = len(self.arcs)
        low = r & ((1 << self.shift) - 1)
        return (low | (low >> m)) & ((1 << m) - 1)

    def _sources(self, e: int) -> list[int]:
        if self._ev_arcs is None:
            self._ev_arcs = [[] for _ in range(self.n_events)]
            for a, arc in enumerate(self.arcs):
                self._ev_arcs[arc[1]].append(a)
        return self._ev_arcs[e]

    def _event(self, e: int) -> tuple:
        """(core, None, None) when no state can be told from e's sources;
        else (None, basis of W_e, reduced target row of src1)."""
        got = self._events.get(e)
        if got is not None:
            return got
        shift, unit, m = self.shift, self.unit, len(self.arcs)
        arcs_e = self._sources(e)
        if not self.xs:
            got = (0, None, None)
        else:
            basis = self.cycles.copy()
            a1 = arcs_e[0]
            first = self.red[self.arcs[a1][0]] ^ (unit << (m + a1))
            seen = {first >> shift}
            for a in arcs_e[1:]:
                r = self.red[self.arcs[a][0]] ^ (unit << (m + a))
                key = r >> shift
                if key not in seen:
                    seen.add(key)
                    basis.add(first ^ r)
            ebit = 1 << (shift + e)
            got = None
            if self.xs == {0}:
                basis.add(ebit)
            elif self.xs == {1}:
                r = basis.reduce(ebit)
                if not r >> shift:
                    got = (self._core(r), None, None)
            if got is None:
                got = (None, basis, basis.reduce(first))
        self._events[e] = got
        return got

    def _essp_core(self, e: int, s: int) -> int | None:
        core, basis, target = self._event(e)
        if basis is None:
            return core
        r = basis.reduce(self.red[s]) ^ target
        return None if r >> self.shift else self._core(r)

    def _first_unsolved(self, e: int) -> int:
        """The least state where e is missing and ESSP(e, ·) is unsolvable,
        or -1."""
        occurs = {self.arcs[a][0] for a in self._sources(e)}
        _, basis, target = self._event(e)
        best = -1
        for states in self.classes:
            if 0 <= best < states[0]:
                break
            if basis is not None:
                r = basis.reduce(self.red[states[0]]) ^ target
                if r >> self.shift:
                    continue
            for v in states:
                if v not in occurs:
                    if best < 0 or v < best:
                        best = v
                    break
        return best
