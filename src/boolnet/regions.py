"""Regions of a transition system, separation atoms, and the exact solver.

A region assigns every state a bit (support) and every event an interaction
(signature) such that each arc maps to a defined step of the type.  Regions
solve separation atoms; collections of regions covering all atoms of a kind
form a witness, which is what synthesis consumes.

One atom loop, `_retire_atoms`, serves `decide_property` and the kernel
check of the modification searches (`modify._KernelCheck.first_failure`),
on a `CompiledProblem`.  In it atoms are index pairs and the atoms still to
solve are bitmask rows over states: one per state i for the states j > i it
must still be told apart from (SSP), one per event for the states where it
is missing and still unsolved (ESSP).  A found region retires atoms with one
mask operation per row, given its support as a bitmask.  `Region` and
`SeparationAtom` objects are built only at the boundary, by
`decide_property`: the witness's regions, the one failure atom, and the
coverage map when it is first read.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _solver_py as _kernel
from .errors import DomainMismatch, ParseError, SearchBudgetExceeded
from .interactions import INTERACTIONS, BooleanType, apply_interaction, check_tag
from .ts import TransitionSystem, directives

KERNEL = _kernel.KERNEL_NAME

# The kernel's atom kinds: (SSP, state, state) and (ESSP, event, state).
SSP, ESSP = _kernel.SSP, _kernel.ESSP

_TAG_ID = {t: i for i, t in enumerate(INTERACTIONS)}

# For an ESSP row of an event with this tag id, the support bit of the states
# the region leaves unsolved: 1 when the tag is undefined at 0 (it solves the
# states at 0), 0 when undefined at 1, -1 for a total tag (solves none).
_ESSP_KEEP = tuple(
    1 if apply_interaction(t, 0) is None else 0 if apply_interaction(t, 1) is None else -1
    for t in INTERACTIONS
)


class NodeBudget:
    """Mutable node counter shared across the solver calls of one search."""

    __slots__ = ("limit", "used")

    def __init__(self, limit: int | None = None):
        self.limit = limit
        self.used = 0

    def remaining(self) -> int:
        if self.limit is None:
            return -1
        return max(self.limit - self.used, 0)

    def charge(self, n: int = 1) -> None:
        self.used += n
        if self.limit is not None and self.used > self.limit:
            raise SearchBudgetExceeded(self.used)


class Region:
    """support: state → bit, signature: event → interaction tag."""

    __slots__ = ("support", "signature")

    def __init__(self, support: dict[str, int], signature: dict[str, str]):
        self.support = dict(support)
        self.signature = dict(signature)

    def solves(self, atom: "SeparationAtom") -> bool:
        if atom.kind == "ssp":
            return self.support[atom.first] != self.support[atom.second]
        return apply_interaction(self.signature[atom.first], self.support[atom.second]) is None

    def __eq__(self, other):
        if not isinstance(other, Region):
            return NotImplemented
        return self.support == other.support and self.signature == other.signature

    def __hash__(self):
        return hash((tuple(sorted(self.support.items())), tuple(sorted(self.signature.items()))))

    def __repr__(self):
        return f"Region(support={self.support!r}, signature={self.signature!r})"


@dataclass(frozen=True)
class SeparationAtom:
    """kind "ssp": (state, state), distinct; kind "essp": (event, state) with
    the event not occurring at the state."""

    kind: str
    first: str
    second: str

    def __post_init__(self):
        if self.kind not in ("ssp", "essp"):
            raise ValueError(f"unknown atom kind {self.kind!r}")
        if self.kind == "ssp" and self.first == self.second:
            raise ValueError("ssp atoms need two distinct states")

    def __str__(self):
        return f"({self.first},{self.second})"


class Witness:
    """Regions covering every atom of a property.

    coverage maps each atom of the property to the index of the first region
    that solves it, in the order the atoms were retired.  A witness from
    `decide_property` builds that map on first read, from the atoms each
    region retired.
    """

    __slots__ = ("regions", "_coverage", "_retired")

    def __init__(self, regions: list[Region] | None = None):
        self.regions = [] if regions is None else regions
        self._coverage: dict[SeparationAtom, int] = {}
        self._retired = None  # (ts, rows, per-region retired masks) until read

    @property
    def coverage(self) -> dict[SeparationAtom, int]:
        if self._retired is not None:
            ts, rows, retired = self._retired
            self._retired = None
            for idx, masks in enumerate(retired):
                for r, mask in masks:
                    kind, a = rows[r]
                    for b in _bits(mask):
                        self._coverage[_atom(ts, kind, a, b)] = idx
        return self._coverage

    def __eq__(self, other):
        if not isinstance(other, Witness):
            return NotImplemented
        return self.regions == other.regions and self.coverage == other.coverage

    def __repr__(self):
        return f"Witness(regions={self.regions!r}, coverage={self.coverage!r})"


PROPERTIES = ("ssp", "essp", "both")

_MODE_PROPERTY = {"embed": "ssp", "langsim": "essp", "realize": "both"}


def property_for_mode(mode: str) -> str:
    try:
        return _MODE_PROPERTY[mode]
    except KeyError:
        raise ValueError(f"unknown mode {mode!r}") from None


# -- region primitives ---------------------------------------------------------------


def _check_domains(ts: TransitionSystem, region: Region) -> None:
    if set(region.support) != set(ts.states):
        raise DomainMismatch("support domain differs from state set")
    if not all(isinstance(v, int) and v in (0, 1) for v in region.support.values()):
        raise DomainMismatch("support values must be 0 or 1")
    if set(region.signature) != set(ts.events):
        raise DomainMismatch("signature domain differs from event set")


def validate_region(ts: TransitionSystem, tau: BooleanType, region: Region) -> bool:
    """True iff every arc s —e→ s′ satisfies apply(sig(e), sup(s)) = sup(s′)
    and all signature values lie in tau."""
    _check_domains(ts, region)
    for tag in region.signature.values():
        check_tag(tag)
        if tag not in tau:
            return False
    for a in range(len(ts.arcs)):
        src, ev, dst = ts.arc_names(a)
        if apply_interaction(region.signature[ev], region.support[src]) != region.support[dst]:
            return False
    return True


def complete_region(
    ts: TransitionSystem, tau: BooleanType, sup_iota: int, sig: dict[str, str]
) -> Region | None:
    """Rebuild the support from sup(ι) and a total signature, or None when
    two paths force different supports on some state (the inconsistent case).

    Supports propagate along a BFS from the initial state; since every state
    is reachable this already determines the whole support, and a final pass
    over all arcs rejects any inconsistency (including odd cycles).  The BFS
    raises Unreachable when the system holds a state it never reaches.
    """
    if sup_iota not in (0, 1):
        raise DomainMismatch(f"initial support {sup_iota!r} is not 0 or 1")
    if set(sig) != set(ts.events):
        raise DomainMismatch("signature domain differs from event set")
    for e, tag in sig.items():
        check_tag(tag)
        if tag not in tau:
            raise DomainMismatch(f"signature value {tag!r} for {e!r} outside type {tau}")
    sup: dict[int, int] = {ts.initial: int(sup_iota)}
    for dst, a in ts.walk()[0]:
        src, ev, _ = ts.arcs[a]
        v = apply_interaction(sig[ts.events[ev]], sup[src])
        if v is None:
            return None
        sup[dst] = v
    for a in range(len(ts.arcs)):
        src, ev, dst = ts.arcs[a]
        if apply_interaction(sig[ts.events[ev]], sup[src]) != sup[dst]:
            return None
    return Region(
        support={ts.states[s]: v for s, v in sorted(sup.items())},
        signature=dict(sig),
    )


def atoms(ts: TransitionSystem) -> list[SeparationAtom]:
    """All separation atoms in canonical order: state pairs (i<j) first, then
    missing (event, state) occurrences event-major."""
    out: list[SeparationAtom] = []
    n = len(ts.states)
    for i in range(n):
        for j in range(i + 1, n):
            out.append(SeparationAtom("ssp", ts.states[i], ts.states[j]))
    for e in range(len(ts.events)):
        for s in range(n):
            if (s, e) not in ts.arc_at:
                out.append(SeparationAtom("essp", ts.events[e], ts.states[s]))
    return out


# -- solver ------------------------------------------------------------------------


class CompiledProblem:
    """Kernel-ready tables for one (ts, tau) pair; reusable across atoms.
    Compiling asks for the system's spanning tree, which is walked once per
    system, so an unreachable state raises Unreachable here and the kernel
    never sees one."""

    __slots__ = ("ts", "tau", "handle")

    def __init__(self, ts: TransitionSystem, tau: BooleanType):
        ts.walk()
        self.ts = ts
        self.tau = tau
        self.handle = _kernel.prepare(ts, [_TAG_ID[t] for t in tau.branch_order()])

    def atom_args(self, atom: SeparationAtom) -> tuple[int, int, int]:
        ts = self.ts
        if atom.kind == "ssp":
            for s in (atom.first, atom.second):
                if s not in ts.state_index:
                    raise DomainMismatch(f"atom state {s!r} not in the system")
            return (SSP, ts.state_index[atom.first], ts.state_index[atom.second])
        if atom.first not in ts.event_index:
            raise DomainMismatch(f"atom event {atom.first!r} not in the system")
        if atom.second not in ts.state_index:
            raise DomainMismatch(f"atom state {atom.second!r} not in the system")
        e = ts.event_index[atom.first]
        s = ts.state_index[atom.second]
        if (s, e) in ts.arc_at:
            raise DomainMismatch(f"{atom.first!r} occurs at {atom.second!r}: not an atom")
        return (ESSP, e, s)

    def solve_index(
        self,
        kind: int,
        a: int,
        b: int,
        budget: NodeBudget | None = None,
        collect_touched: bool = False,
    ) -> tuple[list[int] | None, list[int] | None, int]:
        """Run the kernel on the atom (kind, a, b) in kernel indices.

        Returns (support bits, signature tag ids, core), with None for both
        when the atom is refuted; core is the refutation core as a bitmask
        over ts.arcs when asked for (collect_touched), and 0 otherwise.
        Charges the budget and raises SearchBudgetExceeded when it runs out.
        A triple that is not an atom of ts raises DomainMismatch: SSP needs
        two distinct states, ESSP an event missing at the state.
        """
        n = len(self.ts.states)
        if kind == SSP:
            ok = 0 <= a < n and 0 <= b < n and a != b
        else:
            ok = kind == ESSP and 0 <= a < len(self.ts.events) and 0 <= b < n
            ok = ok and (b, a) not in self.ts.arc_at
        if not ok:
            raise DomainMismatch(f"{(kind, a, b)} is not an atom of the system")
        limit = -1 if budget is None else budget.remaining()
        status, sup, sig, nodes, core = _kernel.solve(
            self.handle, kind, a, b, limit, collect_touched
        )
        if budget is not None:
            budget.charge(nodes)
        if status == _kernel.BUDGET:
            # charge() above raised unless the limit maths drifted; be strict
            raise SearchBudgetExceeded(budget.used if budget else nodes)
        return (sup, sig, core)

    def _region(self, sup: list[int], sig: list[int]) -> Region:
        """The named region of kernel support bits and signature tag ids."""
        return Region(
            support=dict(zip(self.ts.states, sup)),
            signature={e: INTERACTIONS[t] for e, t in zip(self.ts.events, sig)},
        )

    def solve(
        self,
        atom: SeparationAtom,
        budget: NodeBudget | None = None,
        collect_touched: bool = False,
    ) -> tuple[Region | None, int]:
        """`solve_index` for a named atom: (its region or None, core bitmask)."""
        sup, sig, core = self.solve_index(*self.atom_args(atom), budget, collect_touched)
        return (None if sup is None else self._region(sup, sig), core)


def _bits(mask: int):
    """Indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _atom(ts: TransitionSystem, kind: int, a: int, b: int) -> SeparationAtom:
    """The named atom of kernel atom (kind, a, b)."""
    if kind == SSP:
        return SeparationAtom("ssp", ts.states[a], ts.states[b])
    return SeparationAtom("essp", ts.events[a], ts.states[b])


def solve_atom(
    ts: TransitionSystem,
    tau: BooleanType,
    atom: SeparationAtom,
    budget: NodeBudget | None = None,
) -> Region | None:
    """A region solving the atom, or None when provably none exists."""
    region, _ = CompiledProblem(ts, tau).solve(atom, budget)
    return region


def _retire_atoms(
    problem: CompiledProblem, prop: str, budget: NodeBudget | None, canonical_failure: bool
) -> tuple[tuple[int, int, int] | None, list[tuple[list[int], list[int]]], list, list]:
    """The atom loop of decide_property, in index space (see the module
    docstring), on a compiled problem: (failure, found, rows, retired).

    failure is the unsolvable atom (kind, a, b) to report, or None when
    every atom of the property is solved; then found holds each region's
    (support bits, signature tag ids), and retired, per region, the
    (row, atoms it retired) pairs over rows, the (kind, event or state
    index) of each row.  The next atom is the lowest pending bit of the
    first nonempty row.
    """
    ts = problem.ts
    n = len(ts.states)
    full = (1 << n) - 1
    # rows in processing order: (kernel kind, event or state index), and the
    # bitmask of states still pending in each
    rows: list[tuple[int, int]] = []
    pending: list[int] = []
    if prop != "ssp":
        defined = [0] * len(ts.events)
        for s, e in ts.arc_at:
            defined[e] |= 1 << s
        for e, dmask in enumerate(defined):
            rows.append((ESSP, e))
            pending.append(full ^ dmask)
    first_ssp = len(rows)
    if prop != "essp":
        for i in range(n):
            rows.append((SSP, i))
            pending.append(full >> (i + 1) << (i + 1))
    n_rows = len(rows)
    found: list[tuple[list[int], list[int]]] = []
    retired: list[list[tuple[int, int]]] = []  # per region: (row, atoms it retired)
    held = None  # canonical "both": the first unsolvable ESSP atom
    for r in range(n_rows):
        kind, a = rows[r]
        todo = pending[r]
        while todo:
            b = (todo & -todo).bit_length() - 1
            sup, sig, _ = problem.solve_index(kind, a, b, budget)
            if sup is None:
                if kind == SSP or prop != "both" or not canonical_failure:
                    return (kind, a, b), found, rows, retired
                held = (kind, a, b)
                pending[:first_ssp] = [0] * first_ssp  # drop the other ESSP rows
                break
            found.append((sup, sig))
            supmask = 0
            for i, v in enumerate(sup):
                if v:
                    supmask |= 1 << i
            keep_masks = (full ^ supmask, supmask)
            gone = []
            for k in range(n_rows):
                pend = pending[k]
                if pend:
                    a2 = rows[k][1]
                    keep = sup[a2] if k >= first_ssp else _ESSP_KEEP[sig[a2]]
                    if keep >= 0:
                        left = pend & keep_masks[keep]
                        if left != pend:
                            pending[k] = left
                            gone.append((k, pend ^ left))
            retired.append(gone)
            todo = pending[r] >> (b + 1) << (b + 1)  # this row's atoms after b
    return held, found, rows, retired


def decide_property(
    ts: TransitionSystem,
    tau: BooleanType,
    prop: str,
    budget: NodeBudget | None = None,
    canonical_failure: bool = True,
) -> Witness | SeparationAtom:
    """Witness covering all atoms of the property, or an unsolvable atom.

    Regions are reused greedily: each found region retires every atom it
    happens to solve, so no atom is sent to the kernel twice.  For
    prop="both" the ESSP rows come first (their regions solve most state
    pairs too).  An unsolvable ESSP atom is then held while the SSP rows run
    on, so the canonically first unsolvable atom is the one reported, unless
    canonical_failure is False: then it is the first atom found unsolvable.

    The work is done in index space by _retire_atoms, and names appear only
    here, in the returned regions, the failure atom and the coverage map.
    """
    if prop not in PROPERTIES:
        raise ValueError(f"unknown property {prop!r}")
    problem = CompiledProblem(ts, tau)
    failure, found, rows, retired = _retire_atoms(problem, prop, budget, canonical_failure)
    if failure is not None:
        return _atom(ts, *failure)
    witness = Witness([problem._region(sup, sig) for sup, sig in found])
    witness._retired = (ts, rows, retired)
    return witness


def has_property(
    ts: TransitionSystem, tau: BooleanType, prop: str, budget: NodeBudget | None = None
) -> bool:
    """Whether the property holds; stops at the first unsolvable atom met."""
    return isinstance(decide_property(ts, tau, prop, budget, canonical_failure=False), Witness)


# -- textual region dump ----------------------------------------------------------


def serialize_regions(regions: list[Region] | Witness) -> str:
    if isinstance(regions, Witness):
        regions = regions.regions
    out = []
    for r in regions:
        out.append("region")
        for s, b in r.support.items():
            out.append(f"sup {s} {b}")
        for e, t in r.signature.items():
            out.append(f"sig {e} {t}")
    return "\n".join(out) + "\n"


_SUP_LINE = "expected `sup <state> <0|1>`"
_REGION_SHAPES = {
    "region": (0, "expected bare `region`", None),
    "sup": (2, _SUP_LINE, None),
    "sig": (2, "expected `sig <event> <interaction>`", None),
}


def parse_regions(text: str) -> list[Region]:
    """Parse a region dump (read by ts.directives): each bare `region` line
    opens a region, and the `sup <state> <0|1>` and `sig <event>
    <interaction>` lines after it fill its support and signature."""
    regions: list[Region] = []
    sup: dict[str, int] | None = None
    sig: dict[str, str] = {}
    for no, parts in directives(text, _REGION_SHAPES):
        kw = parts[0]
        if kw == "region":
            regions.append(Region({}, {}))
            sup, sig = regions[-1].support, regions[-1].signature
        elif sup is None:
            raise ParseError(f"line {no}: `{kw}` before `region`")
        elif kw == "sup":
            if parts[2] not in ("0", "1"):
                raise ParseError(f"line {no}: {_SUP_LINE}")
            if parts[1] in sup:
                raise ParseError(f"line {no}: duplicate sup for {parts[1]!r}")
            sup[parts[1]] = int(parts[2])
        else:
            if parts[1] in sig:
                raise ParseError(f"line {no}: duplicate sig for {parts[1]!r}")
            sig[parts[1]] = check_tag(parts[2])
    return regions
