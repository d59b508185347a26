"""Interaction semantics and type-set behavior."""

import pytest

import boolnet as bn
from boolnet.interactions import (
    BRANCH_ORDER,
    INTERACTIONS,
    INVERTIBLE,
    BooleanType,
    apply_interaction,
    check_tag,
    unapply_interaction,
)
from oracles import APPLY


def test_apply_matches_reference_table():
    for tag in INTERACTIONS:
        for bit in (0, 1):
            assert apply_interaction(tag, bit) == APPLY[tag][bit]


def test_exactly_four_undefined_cells():
    undefined = [
        (tag, bit)
        for tag in INTERACTIONS
        for bit in (0, 1)
        if apply_interaction(tag, bit) is None
    ]
    assert undefined == [("inp", 0), ("out", 1), ("used", 0), ("free", 1)]


def test_tag_orders():
    assert INTERACTIONS == ("nop", "inp", "out", "set", "res", "swap", "used", "free")
    assert sorted(BRANCH_ORDER) == sorted(INTERACTIONS)
    # cheap tags come first in the search order
    assert BRANCH_ORDER[:2] == ("nop", "swap")
    assert set(BRANCH_ORDER[-2:]) == {"set", "res"}


def test_unapply_inverts_the_invertible_tags():
    for tag in INVERTIBLE:
        for bit in (0, 1):
            img = apply_interaction(tag, bit)
            if img is not None:
                assert unapply_interaction(tag, img) == bit


def test_unapply_none_when_no_preimage():
    assert unapply_interaction("inp", 1) is None
    assert unapply_interaction("out", 0) is None
    assert unapply_interaction("used", 0) is None
    assert unapply_interaction("free", 1) is None


def test_unapply_rejects_overwriting_tags():
    for tag in ("set", "res"):
        with pytest.raises(ValueError):
            unapply_interaction(tag, 1)


def test_check_tag():
    assert check_tag("swap") == "swap"
    with pytest.raises(bn.UnknownInteraction):
        check_tag("bogus")


def test_apply_rejects_unknown_tag():
    with pytest.raises(bn.UnknownInteraction):
        apply_interaction("knop", 0)


def test_type_construction_and_order():
    tau = BooleanType.of("swap", "nop", "inp")
    assert tau.canonical() == ("nop", "inp", "swap")
    assert str(tau) == "nop,inp,swap"
    assert "swap" in tau and "out" not in tau
    assert len(tau) == 3
    assert list(tau) == ["nop", "inp", "swap"]
    assert tau.branch_order() == ("nop", "swap", "inp")


def test_type_parse_round_trip():
    for text in ("nop,inp,swap", "nop,swap", " nop , used ", "nop swap out"):
        tau = BooleanType.parse(text)
        assert BooleanType.parse(str(tau)).canonical() == tau.canonical()


def test_type_errors():
    with pytest.raises(bn.EmptyType):
        BooleanType.of()
    with pytest.raises(bn.UnknownInteraction):
        BooleanType.of("nop", "knop")
    with pytest.raises(bn.UnknownInteraction):
        BooleanType.parse("{}")


def test_type_deduplicates():
    assert BooleanType.of("nop", "nop", "swap").canonical() == ("nop", "swap")

