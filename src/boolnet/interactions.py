"""Boolean interactions and net types.

An interaction is a partial function on {0, 1} describing how firing a
transition connected to a place through it reads/updates the place's value.
A net type is a nonempty set of interactions; it doubles as a two-state
transition system over the tags (see type_ts).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import EmptyType, UnknownInteraction

# Canonical tag order, used everywhere identifiers are listed or serialized.
INTERACTIONS: tuple[str, ...] = ("nop", "inp", "out", "set", "res", "swap", "used", "free")

# Order in which the region solver tries tags: cheap/neutral effects first,
# testing effects next, forcing effects last.
BRANCH_ORDER: tuple[str, ...] = ("nop", "swap", "inp", "out", "used", "free", "set", "res")

# tag -> (image of 0, image of 1); None marks an undefined cell.
_APPLY: dict[str, tuple[int | None, int | None]] = {
    "nop": (0, 1),
    "inp": (None, 0),
    "out": (1, None),
    "set": (1, 1),
    "res": (0, 0),
    "swap": (1, 0),
    "used": (None, 1),
    "free": (0, None),
}

# Tags whose (partial) map is injective, i.e. a known result value pins the
# argument. set and res are the only non-injective ones.
INVERTIBLE: frozenset[str] = frozenset(t for t in INTERACTIONS if t not in ("set", "res"))

# tag -> (preimage of 0, preimage of 1); only meaningful for INVERTIBLE tags.
_UNAPPLY: dict[str, tuple[int | None, int | None]] = {
    tag: (
        next((x for x in (0, 1) if _APPLY[tag][x] == 0), None),
        next((x for x in (0, 1) if _APPLY[tag][x] == 1), None),
    )
    for tag in INTERACTIONS
}


def check_tag(tag: str) -> str:
    if tag not in _APPLY:
        raise UnknownInteraction(tag)
    return tag


def apply_interaction(tag: str, value: int) -> int | None:
    """Image of a place value under an interaction; None where undefined."""
    return _APPLY[check_tag(tag)][value]


def unapply_interaction(tag: str, value: int) -> int | None:
    """Unique preimage of a result value, for invertible tags only.

    Returns None when no preimage exists (the branch is contradictory).
    Raises ValueError for set/res, whose preimages are not unique.
    """
    check_tag(tag)
    if tag not in INVERTIBLE:
        raise ValueError(f"{tag} has no functional inverse")
    return _UNAPPLY[tag][value]


@dataclass(frozen=True)
class BooleanType:
    """A nonempty set of interactions, with canonical iteration order."""

    tags: frozenset[str]

    def __post_init__(self) -> None:
        if not isinstance(self.tags, frozenset):
            object.__setattr__(self, "tags", frozenset(self.tags))
        if not self.tags:
            raise EmptyType()
        for t in self.tags:
            check_tag(t)

    @classmethod
    def of(cls, *tags: str) -> "BooleanType":
        return cls(frozenset(tags))

    @classmethod
    def parse(cls, text: str) -> "BooleanType":
        """Parse a comma- and/or whitespace-separated tag list."""
        parts = [p for chunk in text.split(",") for p in chunk.split()]
        if not parts:
            raise EmptyType()
        return cls(frozenset(check_tag(p) for p in parts))

    def __contains__(self, tag: str) -> bool:
        return tag in self.tags

    def __iter__(self):
        return iter(self.canonical())

    def __len__(self) -> int:
        return len(self.tags)

    def canonical(self) -> tuple[str, ...]:
        """Tags in canonical (serialization) order."""
        return tuple(t for t in INTERACTIONS if t in self.tags)

    def branch_order(self) -> tuple[str, ...]:
        """Tags in the order the region solver branches on them."""
        return tuple(t for t in BRANCH_ORDER if t in self.tags)

    def __str__(self) -> str:
        return ",".join(self.canonical())


def type_ts(tau: BooleanType):
    """The two-state transition system a type denotes: values {0,1}, one arc
    per defined cell of each member interaction.

    Returned as a TransitionSystem with states "0", "1" and initial "0".
    Note the result is not always a valid system of this package's core class
    (an interaction set like {inp} leaves "1" unreachable), so it comes from
    the constructor, which checks determinism only.
    """
    from .ts import TransitionSystem

    tags = tau.canonical()
    arcs = []
    for e, tag in enumerate(tags):
        for x in (0, 1):
            y = _APPLY[tag][x]
            if y is not None:
                arcs.append((x, e, y))
    return TransitionSystem(f"type[{tau}]", ("0", "1"), tags, 0, tuple(arcs))
