import itertools
import json
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from rectlab import drawing, paths, universe
from rectlab.drawing import (InvalidDrawing, RectDrawing, Segment,
                             boundary_touch_counts, canonical_drawing,
                             contacts_of, from_json, heap_order, is_diagonal,
                             joints_of, l_labels, linear_extension,
                             make_drawing, order_labels, relations_of, reflect,
                             segments_of, strong_key, validate, weak_key)


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


def test_from_json_analyses_a_valid_drawing_once(monkeypatch, pinwheel):
    from rectlab import drawing
    calls = []
    real = drawing._analyse

    def counting(*args):
        calls.append(args[:2])
        return real(*args)

    monkeypatch.setattr(drawing, "_analyse", counting)
    for d in [pinwheel] + universe.enumerate_strong(4):
        del calls[:]
        got = from_json(d.to_json())
        assert got == d
        segments_of(got), heap_order(got, "v"), canonical_drawing(got)
        assert len(calls) == 1, d


@pytest.mark.parametrize("rects, width, height", [
    ([[0, 0, 1, 1]], 2, 1),                              # count, cover
    ([[0, 1, 2, 2], [1, 0, 2, 1], [0, 0, 1, 1]], 2, 2),  # NW-SE order
    ([[0, 0, 1, 1], [1, 0, 2, 1], [0, 1, 1, 2], [1, 1, 2, 2]], 3, 1),  # bounds
    ([[0, 0, 1, 2], [1, 0, 2, 2], [0, 0, 2, 1]], 2, 2),  # overlap
])
def test_from_json_reports_every_violation(rects, width, height):
    text = f'{{"width": {width}, "height": {height}, "rects": {rects}}}'
    want = validate(RectDrawing(width, height,
                                tuple(tuple(r) for r in rects)))
    assert want
    with pytest.raises(InvalidDrawing) as err:
        from_json(text)
    assert str(err.value) == "; ".join(want)


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


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-1, 4) | st.floats()
    | st.text(max_size=3),
    lambda kids: st.lists(kids, max_size=5)
    | st.dictionaries(st.sampled_from(["width", "height", "rects", "x"]),
                      kids, max_size=4),
    max_leaves=20)


@settings(deadline=None)
@given(_json_values, st.integers(0, 3 * sys.getrecursionlimit()),
       st.sampled_from(["bare", "rects", "rect"]))
def test_from_json_decodes_or_refuses_any_json(value, depth, where):
    """Any JSON text, nested deeper than the recursion limit or not, gives a
    valid drawing or an InvalidDrawing."""
    deep = "[" * depth + json.dumps(value) + "]" * depth
    text = {"bare": deep,
            "rects": f'{{"width": 1, "height": 1, "rects": {deep}}}',
            "rect": f'{{"width": 1, "height": 1, "rects": [{deep}]}}'}[where]
    try:
        d = from_json(text)
    except InvalidDrawing:
        return
    assert validate(d) == [] and from_json(d.to_json()) == d


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


# ---------------------------------------------------------------------------
# The drawing kernel against the code it replaced.  The reference below is
# the former implementation: line runs, neighbour lists and relations
# recomputed per call, a W x H cover grid, and a first-free scan of the
# tiling DFS that starts from (0, 0) every time.


def _ref_merge_runs(intervals):
    runs = []
    for lo, hi in sorted(intervals):
        if runs and lo <= runs[-1][1]:
            runs[-1][1] = max(runs[-1][1], hi)
        else:
            runs.append([lo, hi])
    return [(lo, hi) for lo, hi in runs]


def _ref_line_runs(boxes, width, height):
    vlines = {x: [] for x in range(1, width)}
    hlines = {y: [] for y in range(1, height)}
    for (x0, y0, x1, y1) in boxes:
        if 0 < x0 < width:
            vlines[x0].append((y0, y1))
        if 0 < x1 < width:
            vlines[x1].append((y0, y1))
        if 0 < y0 < height:
            hlines[y0].append((x0, x1))
        if 0 < y1 < height:
            hlines[y1].append((x0, x1))
    return ({x: _ref_merge_runs(iv) for x, iv in vlines.items()},
            {y: _ref_merge_runs(iv) for y, iv in hlines.items()})


def _ref_structure_violations(width, height, boxes):
    out = []
    if width < 1 or height < 1:
        return ["bounding box must have positive width and height"]
    n = len(boxes)
    if n != width + height - 1:
        out.append(f"{n} rects cannot fill a {width}x{height} box "
                   f"one segment per line (need {width + height - 1})")
    for b in boxes:
        x0, y0, x1, y1 = b
        if not (0 <= x0 < x1 <= width and 0 <= y0 < y1 <= height):
            out.append(f"rect {b} outside box or degenerate")
            return out
    if 4 * width * height > (n + 1) ** 2:
        area = sum((x1 - x0) * (y1 - y0) for x0, y0, x1, y1 in boxes)
        if area != width * height:
            out.append("union != bounding box or rects overlap "
                       f"({area} cells covered of {width * height})")
        return out
    cover = [[0] * width for _ in range(height)]
    for (x0, y0, x1, y1) in boxes:
        for y in range(y0, y1):
            for x in range(x0, x1):
                cover[y][x] += 1
    for y in range(height):
        for x in range(width):
            if cover[y][x] != 1:
                out.append("union != bounding box or rects overlap "
                           f"(cell ({x},{y}) covered {cover[y][x]} times)")
                return out
    vruns, hruns = _ref_line_runs(boxes, width, height)
    segs = []
    for x in range(1, width):
        if len(vruns[x]) != 1:
            out.append(f"line x={x} hosts {len(vruns[x])} segments")
        segs += [Segment("v", x, lo, hi) for lo, hi in vruns[x]]
    for y in range(1, height):
        if len(hruns[y]) != 1:
            out.append(f"line y={y} hosts {len(hruns[y])} segments")
        segs += [Segment("h", y, lo, hi) for lo, hi in hruns[y]]
    for v in segs:
        for h in segs:
            if v.orientation == "v" and h.orientation == "h" and \
                    h.lo < v.axis < h.hi and v.lo < h.axis < v.hi:
                out.append(f"cross joint at ({v.axis},{h.axis})")
    seen = set()
    hseg = {s.axis: s for s in segs if s.orientation == "h"}
    vseg = {s.axis: s for s in segs if s.orientation == "v"}
    for s in segs:
        for (px, py) in s.ends:
            if (s.orientation == "v" and py in (0, height)) or \
                    (s.orientation == "h" and px in (0, width)):
                continue
            if (px, py) in seen:
                out.append(f"segment endpoints coincide at ({px},{py})")
            seen.add((px, py))
            if s.orientation == "v":
                t = hseg.get(py)
                if t is None or not (t.lo < px < t.hi):
                    out.append(f"dangling segment endpoint at ({px},{py})")
            else:
                t = vseg.get(px)
                if t is None or not (t.lo < py < t.hi):
                    out.append(f"dangling segment endpoint at ({px},{py})")
    return out


def _ref_reach_closure(n, direct):
    reach = [0] * n
    changed = True
    while changed:
        changed = False
        for i in range(n):
            m = reach[i]
            for j in direct[i]:
                m |= (1 << j) | reach[j]
            if m != reach[i]:
                reach[i] = m
                changed = True
    return reach


def _ref_neighbor_lists(boxes, width, height):
    vruns, hruns = _ref_line_runs(boxes, width, height)
    vpairs, hpairs = [], []
    for x in range(1, width):
        for lo, hi in vruns[x]:
            vpairs.append(([i for i, b in enumerate(boxes)
                            if b[2] == x and lo <= b[1] and b[3] <= hi],
                           [i for i, b in enumerate(boxes)
                            if b[0] == x and lo <= b[1] and b[3] <= hi]))
    for y in range(1, height):
        for lo, hi in hruns[y]:
            hpairs.append(([i for i, b in enumerate(boxes)
                            if b[3] == y and lo <= b[0] and b[2] <= hi],
                           [i for i, b in enumerate(boxes)
                            if b[1] == y and lo <= b[0] and b[2] <= hi]))
    return vpairs, hpairs


def _ref_relations(width, height, boxes):
    n = len(boxes)
    right_of = [set() for _ in range(n)]
    above_of = [set() for _ in range(n)]
    vpairs, hpairs = _ref_neighbor_lists(boxes, width, height)
    for lefts, rights in vpairs:
        for i in lefts:
            right_of[i].update(rights)
    for bottoms, tops in hpairs:
        for i in bottoms:
            above_of[i].update(tops)
    r_reach = _ref_reach_closure(n, right_of)
    a_reach = _ref_reach_closure(n, above_of)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                row.append(".")
                continue
            cands = [c for c, hit in (("L", r_reach[i] >> j & 1),
                                      ("R", r_reach[j] >> i & 1),
                                      ("B", a_reach[i] >> j & 1),
                                      ("A", a_reach[j] >> i & 1)) if hit]
            if len(cands) != 1:
                raise InvalidDrawing(
                    f"relation trichotomy fails for rects {i},{j}: {cands}")
            row.append(cands[0])
        rows.append("".join(row))
    return tuple(rows)


_REF_ORDER_CHARS = {"nw-se": "LA", "sw-ne": "LB", "se-nw": "RB",
                    "ne-sw": "RA"}


def _ref_order_positions(rel, ordering):
    n = len(rel)
    pos = [sum(rel[j][i] in _REF_ORDER_CHARS[ordering] for j in range(n))
           for i in range(n)]
    return pos if sorted(pos) == list(range(n)) else None


def _ref_check(d):
    """(validate's list, relation matrix in d's order or None)."""
    out = _ref_structure_violations(d.width, d.height, d.rects)
    if out:
        return out, None
    try:
        rel = _ref_relations(d.width, d.height, d.rects)
    except InvalidDrawing as exc:
        return [str(exc)], None
    order = _ref_order_positions(rel, "nw-se")
    if order is None:
        return ["nw-se relation is not a total order"], None
    if order != list(range(len(d.rects))):
        return ["rects not listed in NW-SE order"], rel
    return [], rel


def _ref_make_drawing(width, height, boxes):
    boxes = [tuple(b) for b in boxes]
    bad = _ref_structure_violations(width, height, boxes)
    if bad:
        raise InvalidDrawing("; ".join(bad))
    pos = _ref_order_positions(_ref_relations(width, height, boxes), "nw-se")
    if pos is None:
        raise InvalidDrawing("nw-se relation is not a total order")
    ordered = [None] * len(boxes)
    for i, p in enumerate(pos):
        ordered[p] = boxes[i]
    return RectDrawing(width, height, tuple(ordered))


def _ref_order_labels(rel, ordering):
    pos = _ref_order_positions(rel, ordering)
    out = [0] * len(pos)
    for i, p in enumerate(pos):
        out[p] = i
    return out


def _ref_segments_of(d):
    vruns, hruns = _ref_line_runs(d.rects, d.width, d.height)
    return ([Segment("v", x, lo, hi)
             for x in range(1, d.width) for lo, hi in vruns[x]]
            + [Segment("h", y, lo, hi)
               for y in range(1, d.height) for lo, hi in hruns[y]])


def _ref_contacts_of(d):
    out = []
    for i, (x0, y0, x1, y1) in enumerate(d.rects):
        for j, (a0, b0, a1, b1) in enumerate(d.rects):
            if i == j:
                continue
            if x1 == a0 and min(y1, b1) > max(y0, b0):
                out.append(("h", i, j))
            if y1 == b0 and min(x1, a1) > max(x0, a0):
                out.append(("v", i, j))
    return tuple(sorted(out))


def _ref_heap_order(d, orientation):
    pieces = sorted((s for s in _ref_segments_of(d)
                     if s.orientation == orientation), key=lambda s: s.axis)
    n = len(pieces)
    direct = [{j for j in range(n) if pieces[i].axis < pieces[j].axis and
               pieces[i].lo <= pieces[j].hi and pieces[j].lo <= pieces[i].hi}
              for i in range(n)]
    reach = _ref_reach_closure(n, direct)
    return pieces, {(i, j) for i in range(n) for j in range(n)
                    if reach[i] >> j & 1}


def _ref_canonical_drawing(d):
    ymap = {0: 0, d.height: d.height}
    hpieces, hprec = _ref_heap_order(d, "h")
    for rank, idx in enumerate(linear_extension(hpieces, hprec)):
        ymap[hpieces[idx].axis] = rank + 1
    xmap = {0: 0, d.width: d.width}
    vpieces, vprec = _ref_heap_order(d, "v")
    for rank, idx in enumerate(linear_extension(vpieces, vprec)):
        xmap[vpieces[idx].axis] = rank + 1
    return _ref_make_drawing(d.width, d.height,
                             [(xmap[x0], ymap[y0], xmap[x1], ymap[y1])
                              for (x0, y0, x1, y1) in d.rects])


def _ref_tilings(width, height, max_rects, reverse=False):
    """The reference DFS: every tiling of the width x height grid by at most
    max_rects rectangles, each placed on the first free cell, widths in
    increasing (or, with reverse, decreasing) order.  It is the oracle for
    universe.enumerate_strong."""
    grid = [[False] * width for _ in range(height)]
    boxes = []

    def first_free():
        for y in range(height):
            for x in range(width):
                if not grid[y][x]:
                    return x, y
        return None

    def place(x0, y0, x1, y1, val):
        for y in range(y0, y1):
            for x in range(x0, x1):
                grid[y][x] = val

    def rec():
        spot = first_free()
        if spot is None:
            yield list(boxes)
            return
        if len(boxes) == max_rects:
            return
        x, y = spot
        wmax = x
        while wmax < width and not grid[y][wmax]:
            wmax += 1
        widths = range(x + 1, wmax + 1)
        for x1 in (reversed(widths) if reverse else widths):
            y1 = y + 1
            while y1 <= height and all(not grid[y1 - 1][xx]
                                       for xx in range(x, x1)):
                place(x, y1 - 1, x1, y1, True)
                boxes.append((x, y, x1, y1))
                yield from rec()
                boxes.pop()
                y1 += 1
            for yy in range(y, y1 - 1):
                place(x, yy, x1, yy + 1, False)

    yield from rec()


_UNION = "union != bounding box or rects overlap"


def _same_violations(got, want):
    """validate lists agree; the cover message keeps only its prefix, as
    the cover check no longer names a cell."""
    def norm(msgs):
        return [_UNION if m.startswith(_UNION) else m for m in msgs]
    return norm(got) == norm(want)


def _boxes_agree(width, height, boxes):
    """Kernel and reference agree on boxes: same validate list, same
    accept/reject, and on an accepted drawing every derived fact.  Returns
    whether the boxes were accepted."""
    literal = RectDrawing(width, height, tuple(boxes))
    violations, rel = _ref_check(literal)
    assert _same_violations(validate(literal), violations), boxes
    if rel is None:
        with pytest.raises(InvalidDrawing):
            make_drawing(width, height, boxes)
        return False
    # make_drawing reorders the boxes, and the matrix with them
    pos = _ref_order_positions(rel, "nw-se")
    inv = sorted(range(len(pos)), key=pos.__getitem__)
    want = RectDrawing(width, height, tuple(tuple(boxes[i]) for i in inv))
    rel = tuple("".join(rel[i][j] for j in inv) for i in inv)
    got = make_drawing(width, height, boxes)
    assert got == want
    contacts = _ref_contacts_of(want)
    labels = {o: _ref_order_labels(rel, o)
              for o in ("nw-se", "sw-ne", "se-nw", "ne-sw")}
    heaps = {o: _ref_heap_order(want, o) for o in ("h", "v")}
    canon = _ref_canonical_drawing(want)
    # a drawing make_drawing built, and an equal one it did not build
    for d in (got, RectDrawing(width, height, want.rects)):
        assert relations_of(d) == weak_key(d) == rel
        assert {o: order_labels(d, o) for o in labels} == labels
        assert segments_of(d) == _ref_segments_of(want)
        assert contacts_of(d) == contacts
        assert strong_key(d) == (rel, contacts)
        assert {o: heap_order(d, o) for o in heaps} == heaps
        assert canonical_drawing(d) == canon
    # the canonical drawing carries the relations and segments it has
    assert relations_of(canonical_drawing(got)) == rel
    assert segments_of(canonical_drawing(got)) == _ref_segments_of(canon)
    return True


def test_kernel_matches_reference_on_every_small_tiling():
    accepted = tried = 0
    for width in range(1, 8):
        for height in range(1, 9 - width):
            cap = width + height - 1
            for boxes in _ref_tilings(width, height, cap):
                tried += 1
                accepted += _boxes_agree(width, height, boxes)
    # one accepted tiling per drawing of n <= 7 rects in a W + H = n + 1 box
    assert tried == 32593 and accepted == 5287


def _perturbed(boxes, width, height, rng):
    """One random edit of a box list: a moved coordinate, a dropped,
    duplicated or swapped box, or a grown bounding box."""
    boxes = [list(b) for b in boxes]
    kind = rng.randrange(5)
    if kind == 0:
        b = rng.choice(boxes)
        b[rng.randrange(4)] += rng.choice((-1, 1))
    elif kind == 1 and len(boxes) > 1:
        boxes.pop(rng.randrange(len(boxes)))
    elif kind == 2:
        boxes.append(list(rng.choice(boxes)))
    elif kind == 3:
        i, j = rng.randrange(len(boxes)), rng.randrange(len(boxes))
        boxes[i], boxes[j] = boxes[j], boxes[i]
    else:
        width += rng.choice((0, 1))
        height += rng.choice((0, 1))
    return [tuple(b) for b in boxes], width, height


def test_kernel_matches_reference_on_perturbed_boxes():
    rng = random.Random(11)
    for n in range(1, 8):
        members = universe.enumerate_strong(n)
        for _ in range(300):
            d = rng.choice(members)
            boxes, width, height = list(d.rects), d.width, d.height
            for _ in range(rng.randrange(1, 4)):
                boxes, width, height = _perturbed(boxes, width, height, rng)
            _boxes_agree(width, height, boxes)


# _analyse's bulk pass against the checks it confirms: _structure and
# _nwse, spelt out one check at a time, and the relation matrix built one
# character at a time.


def _ref_rows(pos, right, left):
    inv = [0] * len(pos)
    for i, p in enumerate(pos):
        inv[p] = i
    rows = []
    for p, i in enumerate(inv):
        r, l = right[i], left[i]
        rows.append("".join(
            ["R" if l >> j & 1 else "B" for j in inv[:p]] + ["."]
            + ["L" if r >> j & 1 else "A" for j in inv[p + 1:]]))
    return tuple(rows)


def _ref_analyse(width, height, boxes):
    segs = drawing._structure(width, height, boxes)
    pos, right, left = drawing._nwse(width, height, boxes)
    spans = tuple(v for _, _, lo, hi in segs for v in (lo, hi))
    return pos, _ref_rows(pos, right, left), spans


def _analysis(analyse, width, height, boxes):
    """(pos, rows, spans), or the message of the InvalidDrawing raised."""
    try:
        return analyse(width, height, boxes)
    except InvalidDrawing as exc:
        return str(exc)


def _assert_same_analysis(width, height, boxes):
    want = _analysis(_ref_analyse, width, height, boxes)
    assert _analysis(drawing._analyse, width, height, boxes) == want, \
        (width, height, boxes)
    return not isinstance(want, str)


def _analysed(monkeypatch, build):
    """(width, height, boxes) of each _analyse call that build() makes."""
    seen = []
    real = drawing._analyse

    def spy(width, height, boxes):
        seen.append((width, height, list(boxes)))
        return real(width, height, boxes)

    monkeypatch.setattr(drawing, "_analyse", spy)
    build()
    monkeypatch.undo()
    return seen


def test_bulk_pass_matches_the_checks_on_every_child(ctx, monkeypatch):
    levels = [ctx.strong(n) for n in range(1, 7)]
    for d in itertools.chain(*levels):
        drawing._kernel(d)  # analysed before the spy: parents, not children
    children = _analysed(monkeypatch, lambda: [
        universe._next_level(level) for level in levels])
    assert len(children) == 4728  # the classes of sizes 2..7
    assert all(_assert_same_analysis(*c) for c in children)


def _strip_boxes(height, rows):
    """(width, height, boxes) of strip_drawing(height, rows), row by row
    from the bottom, each row cut at the lines of its verticals."""
    width = len(rows) + 1
    boxes = []
    for r in range(height):
        cuts = [0] + [x for x, rr in enumerate(rows, 1) if rr == r] + [width]
        boxes += [(cuts[t], r, cuts[t + 1], r + 1)
                  for t in range(len(cuts) - 1)]
    return width, height, boxes


def _phi_strips(monkeypatch):
    """(height, rows) of each strip that phi builds for the rushed paths of
    semilength 2..10."""
    seen = []
    real = paths.strip_drawing

    def spy(height, rows):
        seen.append((height, tuple(rows)))
        return real(height, rows)

    monkeypatch.setattr(paths, "strip_drawing", spy)
    for k in range(2, 11):
        for word in paths.rushed_paths(k):
            paths.phi(word)
    monkeypatch.undo()
    return seen


def test_bulk_pass_matches_the_checks_on_strip_drawings(monkeypatch):
    strips = [_strip_boxes(*s) for s in _phi_strips(monkeypatch)]
    assert len(strips) == 1913  # rushed paths of semilength 2..10
    assert all(_assert_same_analysis(*s) for s in strips)


def _assert_strip_kernel(height, rows):
    """strip_drawing writes the rects, relations and spans that
    make_drawing derives from the strip's boxes."""
    got = drawing.strip_drawing(height, rows)
    want = make_drawing(*_strip_boxes(height, rows))
    assert (got, got._kernel) == (want, want._kernel), (height, rows)


def test_strip_kernel_matches_make_drawing_on_every_strip_class_input():
    # the stacks count_strip_class builds for n <= 9
    strips = [(height, rows) for n in range(1, 10)
              for height in range(1, n + 1)
              for rows in itertools.product(range(height), repeat=n - height)]
    assert len(strips) == 3829
    for s in strips:
        _assert_strip_kernel(*s)


def test_strip_kernel_matches_make_drawing_on_every_phi_image(monkeypatch):
    strips = _phi_strips(monkeypatch)
    assert len(strips) == 1913
    for s in strips:
        _assert_strip_kernel(*s)


@pytest.mark.parametrize("height, rows", [
    (0, []), (-1, [0]), (0, [0]), (2, [2]), (2, [-1]), (1, [0, 1]),
    (3, [0, 3, 1])])
def test_strip_drawing_refuses_rows_outside_the_stack(height, rows):
    with pytest.raises(InvalidDrawing):
        make_drawing(*_strip_boxes(height, rows))
    with pytest.raises(InvalidDrawing):
        drawing.strip_drawing(height, rows)


@settings(max_examples=400, deadline=None)
@given(n=st.integers(1, 7), pick=st.integers(0, 10 ** 6),
       edits=st.integers(0, 3), rng=st.randoms(use_true_random=False))
def test_bulk_pass_matches_the_checks_on_perturbed_boxes(ctx, n, pick, edits,
                                                         rng):
    members = ctx.strong(n)
    d = members[pick % len(members)]
    boxes, width, height = list(d.rects), d.width, d.height
    for _ in range(edits):
        boxes, width, height = _perturbed(boxes, width, height, rng)
    _assert_same_analysis(width, height, boxes)


def test_a_valid_drawing_refused_is_an_internal_error(pinwheel):
    # what the bulk pass refuses, _structure and _nwse must refuse too
    with pytest.raises(RuntimeError):
        drawing._refuse(pinwheel.width, pinwheel.height, pinwheel.rects)


def test_to_json_writes_what_json_dumps_writes(ctx):
    for d in [d for n in range(1, 8) for d in ctx.strong(n)]:
        assert d.to_json() == json.dumps(
            {"width": d.width, "height": d.height,
             "rects": [list(r) for r in d.rects]})


def test_foreign_drawings_are_checked_before_their_relations():
    # a literal with a cross joint, and a valid one listed out of order
    cross = RectDrawing(2, 2, ((0, 1, 1, 2), (1, 1, 2, 2),
                               (0, 0, 1, 1), (1, 0, 2, 1)))
    misordered = RectDrawing(2, 1, ((1, 0, 2, 1), (0, 0, 1, 1)))
    for d in (cross, misordered):
        with pytest.raises(InvalidDrawing):
            relations_of(d)
        with pytest.raises(InvalidDrawing):
            segments_of(d)


def test_make_drawing_raises_the_first_violation_only():
    # a wrong count comes before the lines and the cover
    with pytest.raises(InvalidDrawing) as exc:
        make_drawing(3, 1, [(0, 0, 1, 1), (2, 0, 3, 1)])
    assert str(exc.value) == \
        "2 rects cannot fill a 3x1 box one segment per line (need 3)"
    # two segments on line y=1 are found before the empty middle column,
    # which validate reports first and alone
    boxes = [(0, 0, 1, 1), (0, 1, 1, 2), (2, 0, 3, 1), (2, 1, 3, 2)]
    with pytest.raises(InvalidDrawing) as exc:
        make_drawing(3, 2, boxes)
    assert str(exc.value) == "line y=1 hosts 2 segments"
    assert validate(RectDrawing(3, 2, tuple(boxes))) == [
        f"{_UNION} (4 cells covered of 6)"]


def test_validate_checks_the_cover_without_a_grid():
    # 4001 rects in a 2001 x 2001 box: a cover grid would hold 4M cells,
    # 32 MB at one pointer a cell
    side = 2001
    rects = tuple([(0, y, 1, y + 1) for y in range(side - 1, -1, -1)]
                  + [(x, 0, x + 1, side) for x in range(1, side)])
    d = RectDrawing(side, side, rects)
    tracemalloc.start()
    try:
        assert validate(d) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20
    # one overlap, one hole: the area alone cannot tell
    bad = RectDrawing(side, side, rects[:-1] + ((side - 2, 0, side - 1,
                                                 side),))
    assert validate(bad)[0].startswith(_UNION)
