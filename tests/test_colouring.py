import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxcount import colouring

GROUPS = [colouring.zn_group(2), colouring.zn_group(3), colouring.zn_group(5),
          colouring.klein_group(), colouring.z3diag_group()]


def test_parse_round_trip():
    for g in GROUPS:
        assert colouring.parse_group(str(g)) == g
    assert colouring.parse_group("zn:4").order == 4
    assert colouring.parse_group("klein").variables == ("q0", "qa", "qb", "qc")
    with pytest.raises(ValueError):
        colouring.parse_group("zn:0")
    with pytest.raises(ValueError):
        colouring.parse_group("dihedral")
    # a name is accepted only as the group prints it, which int() alone does not ensure
    for text in ("zn:+3", "zn: 3", "zn:3 ", "zn:03", "zn:1_0", "zn:\u0663", "zn:\uff13", "zn:", "Klein", " klein"):
        with pytest.raises(ValueError):
            colouring.parse_group(text)


def test_group_is_a_plain_record():
    g = colouring.parse_group("zn:3")
    assert g == colouring.zn_group(3) and hash(g) == hash(colouring.zn_group(3))
    assert g != colouring.zn_group(4) and g != colouring.z3diag_group()
    assert {g: "cyclic"}[colouring.zn_group(3)] == "cyclic"
    assert str(g) == g.name == "zn:3" and g.kind == "zn"
    for name in ("name", "order", "digits", "colour"):
        with pytest.raises(AttributeError):
            setattr(g, name, None)
    klein = colouring.klein_group()
    assert klein.digits == ((2, 1, 0, 1, 1), (2, 0, 1, 1, 2))
    assert (klein.order, klein.kind, str(klein)) == (4, "klein", "klein")


def test_variable_counts():
    for g in GROUPS:
        assert len(g.variables) == g.order
        assert len(set(g.variables)) == g.order


def test_characters_lie_in_sl3():
    # each character (n, (a, b, c)) has a + b + c = 0 mod n, and the moduli
    # multiply to the group order (one mixed-radix digit per character)
    for g in GROUPS:
        assert all((a + b + c) % n == 0 for n, (a, b, c) in g.characters)
        assert math.prod(n for n, _ in g.characters) == g.order


coords = st.integers(-6, 6)


@given(st.sampled_from(GROUPS), coords, coords, coords, coords, coords, coords)
@settings(max_examples=200, deadline=None)
def test_colour_is_a_homomorphism(g, x1, y1, z1, x2, y2, z2):
    a = colouring.colour_index(g, x1, y1, z1)
    b = colouring.colour_index(g, x2, y2, z2)
    assert colouring.compose(g, a, b) == colouring.colour_index(g, x1 + x2, y1 + y2, z1 + z2)
    # the box (-x1, -y1, -z1) has the inverse colour
    assert colouring.compose(g, a, colouring.colour_index(g, -x1, -y1, -z1)) == 0
    assert colouring.colour_index(g, 0, 0, 0) == 0


def test_zn_colour_depends_on_diagonal():
    g = colouring.zn_group(3)
    assert colouring.colour_index(g, 4, 1, 2) == 0
    assert colouring.colour_index(g, 1, 0, 5) == 1
    # third coordinate never matters
    for z in range(4):
        assert colouring.colour_index(g, 2, 1, z) == 1


def test_klein_colour_table():
    g = colouring.klein_group()
    # identity / a / b / c by coordinate parities
    assert colouring.colour_index(g, 0, 0, 0) == 0
    assert colouring.colour_index(g, 1, 0, 0) == 1
    assert colouring.colour_index(g, 0, 1, 0) == 2
    assert colouring.colour_index(g, 0, 0, 1) == 3
    assert colouring.colour_index(g, 1, 1, 0) == 3
    assert colouring.colour_index(g, 1, 1, 1) == 0
    # every element is an involution
    for a in range(4):
        assert colouring.compose(g, a, a) == 0


def test_z3diag_colour():
    g = colouring.z3diag_group()
    assert colouring.colour_index(g, 1, 1, 1) == 0
    assert colouring.colour_index(g, 2, 0, 0) == 2
