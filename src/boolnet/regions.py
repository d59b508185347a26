"""Regions of a transition system, separation atoms, and the exact solver.

A region assigns every state a bit (support) and every event an interaction
(signature) such that each arc maps to a defined step of the type.  Regions
solve separation atoms; collections of regions covering all atoms of a kind
form a witness, which is what synthesis consumes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from . import _solver_py as _kernel
from .errors import DomainMismatch, ParseError, SearchBudgetExceeded
from .interactions import INTERACTIONS, BooleanType, apply_interaction, check_tag
from .ts import TransitionSystem

KERNEL = _kernel.KERNEL_NAME

_TAG_ID = {t: i for i, t in enumerate(INTERACTIONS)}


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


@dataclass
class Witness:
    regions: list[Region] = field(default_factory=list)
    coverage: dict[SeparationAtom, int] = field(default_factory=dict)


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
    over all arcs rejects any inconsistency (including odd cycles).
    """
    if set(sig) != set(ts.events):
        raise DomainMismatch("signature domain differs from event set")
    for e, tag in sig.items():
        check_tag(tag)
        if tag not in tau:
            raise DomainMismatch(f"signature value {tag!r} for {e!r} outside type {tau}")
    sup: dict[int, int] = {ts.initial: int(sup_iota)}
    frontier = deque([ts.initial])
    while frontier:
        s = frontier.popleft()
        for a in ts.out_arcs[s]:
            _, ev, dst = ts.arcs[a]
            v = apply_interaction(sig[ts.events[ev]], sup[s])
            if v is None:
                return None
            if dst in sup:
                if sup[dst] != v:
                    return None
            else:
                sup[dst] = v
                frontier.append(dst)
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
            if (s, e) not in ts.delta:
                out.append(SeparationAtom("essp", ts.events[e], ts.states[s]))
    return out


# -- solver ------------------------------------------------------------------------


class CompiledProblem:
    """Kernel-ready tables for one (ts, tau) pair; reusable across atoms."""

    __slots__ = ("ts", "tau", "handle")

    def __init__(self, ts: TransitionSystem, tau: BooleanType):
        self.ts = ts
        self.tau = tau
        arc_src = [a[0] for a in ts.arcs]
        arc_ev = [a[1] for a in ts.arcs]
        arc_dst = [a[2] for a in ts.arcs]
        branch = [_TAG_ID[t] for t in tau.branch_order()]
        self.handle = _kernel.prepare(
            len(ts.states), len(ts.events), arc_src, arc_ev, arc_dst,
            ts.out_arcs, ts.in_arcs, ts.event_arcs, ts.initial, branch,
        )

    def atom_args(self, atom: SeparationAtom) -> tuple[int, int, int]:
        ts = self.ts
        if atom.kind == "ssp":
            for s in (atom.first, atom.second):
                if s not in ts.state_index:
                    raise DomainMismatch(f"atom state {s!r} not in the system")
            return (_kernel.SSP, ts.state_index[atom.first], ts.state_index[atom.second])
        if atom.first not in ts.event_index:
            raise DomainMismatch(f"atom event {atom.first!r} not in the system")
        if atom.second not in ts.state_index:
            raise DomainMismatch(f"atom state {atom.second!r} not in the system")
        e = ts.event_index[atom.first]
        s = ts.state_index[atom.second]
        if (s, e) in ts.delta:
            raise DomainMismatch(f"{atom.first!r} occurs at {atom.second!r}: not an atom")
        return (_kernel.ESSP, e, s)

    def solve(
        self,
        atom: SeparationAtom,
        budget: NodeBudget | None = None,
        collect_touched: bool = False,
    ) -> tuple[Region | None, bytearray | None]:
        kind, a, b = self.atom_args(atom)
        limit = -1 if budget is None else budget.remaining()
        status, sup, sig, nodes, touched = _kernel.solve(
            self.handle, kind, a, b, limit, collect_touched
        )
        if budget is not None:
            budget.charge(nodes)
        if status == _kernel.BUDGET:
            # charge() above raised unless the limit maths drifted; be strict
            raise SearchBudgetExceeded(budget.used if budget else nodes)
        if status == _kernel.NONE:
            return (None, touched)
        region = Region(
            support={self.ts.states[i]: v for i, v in enumerate(sup)},
            signature={self.ts.events[i]: INTERACTIONS[t] for i, t in enumerate(sig)},
        )
        return (region, touched)


def solve_atom(
    ts: TransitionSystem,
    tau: BooleanType,
    atom: SeparationAtom,
    budget: NodeBudget | None = None,
) -> Region | None:
    """A region solving the atom, or None when provably none exists."""
    region, _ = CompiledProblem(ts, tau).solve(atom, budget)
    return region


def decide_property(
    ts: TransitionSystem,
    tau: BooleanType,
    prop: str,
    budget: NodeBudget | None = None,
    problem: CompiledProblem | None = None,
    canonical_failure: bool = True,
) -> Witness | SeparationAtom:
    """Witness covering all atoms of the property, or an unsolvable atom.

    Regions are reused greedily: each found region retires every atom it
    happens to solve.  For prop="both" the ESSP atoms are processed first
    (their regions tend to solve most state pairs as a side effect, keeping
    witnesses small); on failure the reported atom is still the canonically
    first unsolvable one unless canonical_failure is disabled for speed.
    """
    if prop not in PROPERTIES:
        raise ValueError(f"unknown property {prop!r}")
    every = atoms(ts)
    ssp_atoms = [a for a in every if a.kind == "ssp"]
    essp_atoms = [a for a in every if a.kind == "essp"]
    if prop == "ssp":
        todo = ssp_atoms
    elif prop == "essp":
        todo = essp_atoms
    else:
        todo = essp_atoms + ssp_atoms
    if problem is None:
        problem = CompiledProblem(ts, tau)
    witness = Witness()
    for atom in todo:
        if atom in witness.coverage:
            continue
        region, _ = problem.solve(atom, budget)
        if region is None:
            if prop == "both" and canonical_failure and atom.kind == "essp":
                # ssp atoms precede essp atoms canonically; report the first
                # unsolvable one of them if any exists
                for sa in ssp_atoms:
                    if sa in witness.coverage:
                        continue
                    sr, _ = problem.solve(sa, budget)
                    if sr is None:
                        return sa
            return atom
        idx = len(witness.regions)
        witness.regions.append(region)
        for other in todo:
            if other not in witness.coverage and region.solves(other):
                witness.coverage[other] = idx
    return witness


def has_property(
    ts: TransitionSystem, tau: BooleanType, prop: str, budget: NodeBudget | None = None
) -> bool:
    return isinstance(decide_property(ts, tau, prop, budget), Witness)


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


def parse_regions(text: str) -> list[Region]:
    regions: list[Region] = []
    sup: dict[str, int] | None = None
    sig: dict[str, str] | None = None

    def flush():
        if sup is not None:
            regions.append(Region(support=sup, signature=sig or {}))

    for no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "region":
            if len(parts) != 1:
                raise ParseError(f"line {no}: expected bare `region`")
            flush()
            sup, sig = {}, {}
        elif parts[0] == "sup":
            if sup is None:
                raise ParseError(f"line {no}: `sup` before `region`")
            if len(parts) != 3 or parts[2] not in ("0", "1"):
                raise ParseError(f"line {no}: expected `sup <state> <0|1>`")
            if parts[1] in sup:
                raise ParseError(f"line {no}: duplicate sup for {parts[1]!r}")
            sup[parts[1]] = int(parts[2])
        elif parts[0] == "sig":
            if sig is None:
                raise ParseError(f"line {no}: `sig` before `region`")
            if len(parts) != 3:
                raise ParseError(f"line {no}: expected `sig <event> <interaction>`")
            if parts[1] in sig:
                raise ParseError(f"line {no}: duplicate sig for {parts[1]!r}")
            sig[parts[1]] = check_tag(parts[2])
        else:
            raise ParseError(f"line {no}: unknown directive {parts[0]!r}")
    flush()
    return regions
