import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxcount import colouring
from boxcount.enum3d import Diagram3D, coloured_series, enumerate_diagrams, volume_counts

# frozen from tools/oracles/enum_heightmap.py (brute-force height matrices)
VOLUME_COUNTS_8 = [1, 1, 3, 6, 13, 24, 48, 86, 160]
ZN2_COLOURS_6 = {
    (0, 0): 1, (1, 0): 1, (1, 1): 2, (2, 0): 1, (1, 2): 1, (2, 1): 4,
    (3, 0): 1, (2, 2): 8, (3, 1): 4, (4, 0): 1, (2, 3): 4, (3, 2): 15,
    (4, 1): 4, (5, 0): 1, (2, 4): 1, (3, 3): 24, (4, 2): 18, (5, 1): 4, (6, 0): 1,
}
ZN3_COLOURS_6 = {
    (0, 0, 0): 1, (1, 0, 0): 1, (1, 0, 1): 1, (1, 1, 0): 1, (2, 0, 0): 1,
    (1, 1, 1): 3, (2, 0, 1): 1, (2, 1, 0): 1, (3, 0, 0): 1, (1, 1, 2): 1,
    (1, 2, 1): 1, (2, 0, 2): 1, (2, 1, 1): 6, (2, 2, 0): 1, (3, 0, 1): 1,
    (3, 1, 0): 1, (4, 0, 0): 1, (1, 2, 2): 1, (2, 1, 2): 6, (2, 2, 1): 6,
    (3, 0, 2): 1, (3, 1, 1): 6, (3, 2, 0): 1, (4, 0, 1): 1, (4, 1, 0): 1,
    (5, 0, 0): 1, (2, 1, 3): 1, (2, 2, 2): 15, (2, 3, 1): 1, (3, 0, 3): 1,
    (3, 1, 2): 9, (3, 2, 1): 9, (3, 3, 0): 1, (4, 0, 2): 1, (4, 1, 1): 6,
    (4, 2, 0): 1, (5, 0, 1): 1, (5, 1, 0): 1, (6, 0, 0): 1,
}
KLEIN_COLOURS_6 = {
    (0, 0, 0, 0): 1, (1, 0, 0, 0): 1, (1, 0, 0, 1): 1, (1, 0, 1, 0): 1,
    (1, 1, 0, 0): 1, (1, 0, 1, 1): 1, (1, 1, 0, 1): 1, (1, 1, 1, 0): 1,
    (2, 0, 0, 1): 1, (2, 0, 1, 0): 1, (2, 1, 0, 0): 1, (1, 1, 1, 1): 4,
    (2, 0, 0, 2): 1, (2, 0, 1, 1): 2, (2, 0, 2, 0): 1, (2, 1, 0, 1): 2,
    (2, 1, 1, 0): 2, (2, 2, 0, 0): 1, (1, 1, 1, 2): 1, (1, 1, 2, 1): 1,
    (1, 2, 1, 1): 1, (2, 0, 1, 2): 1, (2, 0, 2, 1): 1, (2, 1, 0, 2): 1,
    (2, 1, 1, 1): 9, (2, 1, 2, 0): 1, (2, 2, 0, 1): 1, (2, 2, 1, 0): 1,
    (3, 0, 0, 2): 1, (3, 0, 1, 1): 1, (3, 0, 2, 0): 1, (3, 1, 0, 1): 1,
    (3, 1, 1, 0): 1, (3, 2, 0, 0): 1, (1, 1, 2, 2): 1, (1, 2, 1, 2): 1,
    (1, 2, 2, 1): 1, (2, 1, 1, 2): 8, (2, 1, 2, 1): 8, (2, 2, 1, 1): 8,
    (3, 0, 0, 3): 1, (3, 0, 1, 2): 2, (3, 0, 2, 1): 2, (3, 0, 3, 0): 1,
    (3, 1, 0, 2): 2, (3, 1, 1, 1): 6, (3, 1, 2, 0): 2, (3, 2, 0, 1): 2,
    (3, 2, 1, 0): 2, (3, 3, 0, 0): 1,
}
Z3DIAG_COLOURS_5 = {
    (0, 0, 0): 1, (1, 0, 0): 1, (1, 1, 0): 3, (1, 1, 1): 3, (1, 2, 0): 3,
    (1, 2, 1): 9, (1, 3, 0): 1, (2, 1, 1): 3, (1, 2, 2): 9, (1, 3, 1): 6, (2, 2, 1): 9,
}


def test_volume_counts_fixture():
    assert volume_counts(8) == VOLUME_COUNTS_8


def series_coeffs(s):
    return {e: c for e, c in s.items()}


def test_coloured_fixtures():
    assert series_coeffs(coloured_series(colouring.zn_group(2), 6)) == ZN2_COLOURS_6
    assert series_coeffs(coloured_series(colouring.zn_group(3), 6)) == ZN3_COLOURS_6
    assert series_coeffs(coloured_series(colouring.klein_group(), 6)) == KLEIN_COLOURS_6
    assert series_coeffs(coloured_series(colouring.z3diag_group(), 5)) == Z3DIAG_COLOURS_5


def test_diagram_validation():
    Diagram3D((2, 1), neg=((1,),), pos=((1,), (1,)))
    with pytest.raises(ValueError):
        Diagram3D((1, 1))  # outermost slice has two rows, not closed
    with pytest.raises(ValueError):
        Diagram3D((1,), pos=((2,),))  # grows outward


def test_box_round_trip():
    for d in enumerate_diagrams(6):
        boxes = set(d.boxes())
        assert len(boxes) == d.volume()
        assert Diagram3D.from_boxes(boxes) == d
        for x, y, z in boxes:
            for below in ((x - 1, y, z), (x, y - 1, z), (x, y, z - 1)):
                if min(below) >= 0:
                    assert below in boxes


def test_from_boxes_rejects_non_closed():
    with pytest.raises(ValueError):
        Diagram3D.from_boxes({(0, 0, 0), (1, 1, 0)})
    with pytest.raises(ValueError):
        Diagram3D.from_boxes({(1, 0, 0)})


def test_slices_round_trip():
    for d in enumerate_diagrams(5):
        assert Diagram3D.from_slices(dict(d.slices())) == d


@st.composite
def closed_box_sets(draw):
    heights = draw(st.lists(st.lists(st.integers(0, 2), min_size=1, max_size=3), min_size=1, max_size=3))
    # clamp into a weakly decreasing height map, then stack boxes
    clamped = []
    for i, row in enumerate(heights):
        out = []
        for j, h in enumerate(row):
            if j:
                h = min(h, out[j - 1])
            if i:
                h = min(h, clamped[i - 1][j] if j < len(clamped[i - 1]) else 0)
            out.append(h)
        clamped.append(out)
    return {(i, j, z) for i, row in enumerate(clamped) for j, h in enumerate(row) for z in range(h)}


@given(closed_box_sets())
@settings(max_examples=80, deadline=None)
def test_from_boxes_accepts_closed_sets(boxes):
    d = Diagram3D.from_boxes(boxes)
    assert set(d.boxes()) == boxes
