import itertools
import random

import pytest

from rectlab import universe
from rectlab.drawing import (InvalidDrawing, RectDrawing, boundary_touch_counts,
                             canonical_drawing, from_json, is_diagonal,
                             joints_of, l_labels, make_drawing, order_labels,
                             relations_of, reflect, segments_of, strong_key,
                             validate, weak_key)


def test_validate_accepts_minimal_cut(v2):
    assert validate(v2) == []


def test_validate_rejects_cross_joint():
    four = RectDrawing(2, 2, ((0, 1, 1, 2), (1, 1, 2, 2),
                              (0, 0, 1, 1), (1, 0, 2, 1)))
    assert any("cross" in v for v in validate(four))


def test_validate_rejects_partial_cover():
    d = RectDrawing(2, 1, ((0, 0, 1, 1),))
    assert any("union" in v for v in validate(d))


def test_validate_rejects_misordered_rects(v2):
    swapped = RectDrawing(2, 1, (v2.rects[1], v2.rects[0]))
    assert any("NW-SE" in v for v in validate(swapped))


def test_segments_and_joints(v2, d3, d3p):
    assert len(segments_of(v2)) == 1 and joints_of(v2) == []
    assert {(s.orientation, s.axis, s.lo, s.hi) for s in segments_of(d3)} == \
        {("h", 1, 0, 2), ("v", 1, 0, 1)}
    assert joints_of(d3) == [((1, 1), "td")]
    assert joints_of(d3p) == [((1, 1), "tu")]


def test_relations(v2, d3, d3p):
    assert relations_of(v2) == (".L", "R.")
    assert relations_of(d3) == (".AA", "B.L", "BR.")  # top above both
    assert relations_of(d3p) == (".LA", "R.A", "BB.")


def test_order_labels(v2, d3p):
    assert order_labels(v2, "sw-ne") == [0, 1]
    # bottom first, then left-to-right along the top
    assert order_labels(d3p, "sw-ne") == [2, 0, 1]
    assert order_labels(d3p, "se-nw") == [2, 1, 0]
    assert order_labels(v2, "ne-sw") == [1, 0]
    assert order_labels(d3p, "ne-sw") == [1, 0, 2]


def test_l_labels(v2, h2, d3p):
    assert l_labels(v2) == [0, 1]
    assert l_labels(h2) == [0, 0]
    assert l_labels(d3p) == [0, 1, 0]


def test_boundary_touch_counts(d3):
    assert boundary_touch_counts(d3) == (1, 2, 2, 2)


def test_reflect_swaps_joint_kinds(d3, d3p, pinwheel):
    assert strong_key(reflect(d3, "horizontal")) == strong_key(d3p)
    assert strong_key(reflect(reflect(d3, "vertical"), "vertical")) == \
        strong_key(d3)
    hswap = {"td": "tu", "tu": "td", "tr": "tr", "tl": "tl"}
    vswap = {"td": "td", "tu": "tu", "tr": "tl", "tl": "tr"}
    for d in (d3, d3p, pinwheel):
        kinds = [k for _, k in joints_of(d)]
        flipped = [k for _, k in joints_of(reflect(d, "horizontal"))]
        assert sorted(flipped) == sorted(hswap[k] for k in kinds)
        mirrored = [k for _, k in joints_of(reflect(d, "vertical"))]
        assert sorted(mirrored) == sorted(vswap[k] for k in kinds)


def test_is_diagonal(v2, h2, d3p):
    assert is_diagonal(v2)
    assert is_diagonal(h2)
    assert not is_diagonal(d3p)  # the corner-touching case just misses


def test_json_round_trip(d3):
    assert from_json(d3.to_json()) == d3
    with pytest.raises(InvalidDrawing):
        from_json('{"width":2,"height":1,"rects":[[0,0,1,1]]}')


@pytest.mark.parametrize("text", [
    '{"width": 1.9, "height": true, "rects": [[0, 0, 1.5, true]]}',
    '{"width": 1.0, "height": 1, "rects": [[0, 0, 1, 1]]}',
    '{"width": 1, "height": false, "rects": [[0, 0, 1, 1]]}',
    '{"width": 1, "height": 1, "rects": [[0, 0, "1", 1]]}',
    '{"width": 1, "height": 1, "rects": [[0, 0, 1, 1, 1]]}',
    '{"width": 1, "height": 1, "rects": [0]}',
    '{"width": 1, "height": 1}',
    '[1, 1, [[0, 0, 1, 1]]]',
])
def test_from_json_accepts_integer_fields_only(text):
    with pytest.raises(InvalidDrawing):
        from_json(text)


def test_validate_checks_rect_count_before_the_cover_grid():
    # a cover grid here would hold 10**10 cells
    huge = RectDrawing(10 ** 5, 10 ** 5, ((0, 0, 10 ** 5, 10 ** 5),))
    assert validate(huge) == [
        "1 rects cannot fill a 100000x100000 box one segment per line "
        "(need 199999)"]


def test_canonical_drawing_idempotent_and_key_preserving():
    for n in range(1, 7):
        for d in universe.enumerate_strong(n):
            c = canonical_drawing(d)
            assert c == canonical_drawing(c)
            assert strong_key(c) == strong_key(d)


def test_canonical_drawing_orders_independent_pieces():
    # two independent horizontals drawn at swapped heights come back with
    # the left one lower
    d = make_drawing(3, 3, [(0, 0, 1, 2), (0, 2, 1, 3), (1, 0, 2, 3),
                            (2, 0, 3, 1), (2, 1, 3, 3)])
    spans = {s.axis: (s.lo, s.hi) for s in segments_of(d)
             if s.orientation == "h"}
    assert spans == {2: (0, 1), 1: (2, 3)}  # left piece sits higher
    c = canonical_drawing(d)
    spans = {s.axis: (s.lo, s.hi) for s in segments_of(c)
             if s.orientation == "h"}
    assert spans == {1: (0, 1), 2: (2, 3)}  # now the left piece is lower
    assert strong_key(c) == strong_key(d)


def _random_slide(d, rng):
    """Swap two height-adjacent independent horizontal lines, if any."""
    segs = {s.axis: s for s in segments_of(d) if s.orientation == "h"}
    cands = [(y, y + 1) for y in segs if y + 1 in segs
             and (segs[y].hi < segs[y + 1].lo or segs[y + 1].hi < segs[y].lo)]
    if not cands:
        return None
    a, b = cands[rng.randrange(len(cands))]
    swap = {a: b, b: a}
    boxes = [(x0, swap.get(y0, y0), x1, swap.get(y1, y1))
             for (x0, y0, x1, y1) in d.rects]
    return make_drawing(d.width, d.height, boxes)


def test_strong_key_invariant_under_slides():
    rng = random.Random(7)
    for n in range(3, 7):
        for d in universe.enumerate_strong(n):
            slid = _random_slide(d, rng)
            if slid is not None:
                assert strong_key(slid) == strong_key(d)


def test_trichotomy_and_successor_characterization():
    for n in range(1, 7):
        for d in universe.enumerate_strong(n):
            rel = relations_of(d)
            for i, j in itertools.combinations(range(n), 2):
                assert rel[i][j] in "LRAB"
            # direct NW-SE successors touch corner to corner via a segment
            order = order_labels(d, "nw-se")
            seg_ends = set()
            for s in segments_of(d):
                seg_ends.add(frozenset(s.ends))
            for a, b in zip(order, order[1:]):
                x0a, y0a, x1a, y1a = d.rects[a]
                x0b, y0b, x1b, y1b = d.rects[b]
                corner_pair = frozenset({(x1a, y0a), (x0b, y1b)})
                assert corner_pair in seg_ends, (n, d.rects, a, b)


def test_size_one_defined_everywhere(one):
    assert validate(one) == []
    assert segments_of(one) == [] and joints_of(one) == []
    assert relations_of(one) == (".",)
    assert l_labels(one) == [0]
    assert canonical_drawing(one) == one
    assert is_diagonal(one)
    assert weak_key(one) and strong_key(one)
