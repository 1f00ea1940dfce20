import json
import random

import pytest
from hypothesis import given, settings, strategies as st
from test_drawing import _ref_line_runs

from rectlab import gentree, invseq, universe, verify
from rectlab.drawing import (InvalidDrawing, canonical_drawing,
                             make_drawing_with_perm, ne_rect_index,
                             segments_of, size1, strong_key)
from rectlab.gentree import (ClassError, children_invseq, children_rect,
                             count_by_tree, level_counts, replay_invseq,
                             replay_levels, replay_rect, replay_rect_tracked,
                             trace_of_invseq, trace_of_rect, trace_from_json,
                             trace_to_json, type_invseq, type_rect)
from rectlab.patterns import contains


def _extensions(e, pats):
    """The values u such that e + (u,) avoids pats, by brute force."""
    return [u for u in range(len(e) + 1) if invseq.avoids_all(e + (u,), pats)]


def test_types(one, h2, d3, d3p):
    assert type_invseq((0,), "t1") == (1, 0)
    assert type_rect(one, "t1") == (1, 0)
    assert type_rect(d3p, "t1") == (2, 0)
    assert type_rect(h2, "t1") == (2, 0)
    assert type_rect(d3, "t2") == (1, 1)
    with pytest.raises(ClassError):
        type_rect(d3, "t1")  # contains the hanging-stem joint
    with pytest.raises(ClassError):
        type_rect(d3p, "t2")


def test_root_children():
    kids = children_invseq((0,), "t1")
    assert {(s, c) for s, c in kids} == \
        {(("*", 1), (0, 1)), (("**", 0), (0, 0))}
    assert sorted(type_invseq(c, "t1") for _, c in kids) == [(1, 0), (2, 0)]


def test_children_arity():
    for n in range(1, 5):
        for d in universe.enumerate_class(n, "strong", ("td",)):
            k, ell = type_rect(d, "t1")
            assert len(children_rect(d, "t1")) == k + ell + 1
        for d in universe.enumerate_class(n, "strong", ("tu",)):
            k, ell = type_rect(d, "t2")
            assert len(children_rect(d, "t2")) == k + ell + 1


def test_star_step_reaches_d3p(h2, d3p):
    kids = children_rect(h2, "t1")
    assert [s for s, c in kids if strong_key(c) == strong_key(d3p)] == \
        [("*", 1)]


def test_t2_children_types_can_collide(d3):
    types = [(s[0], type_rect(c, "t2")) for s, c in children_rect(d3, "t2")]
    assert sorted(types) == [("*", (1, 1)), ("**", (2, 0)), ("***", (2, 0))]


def test_child_types_follow_the_rules():
    for n in range(1, 6):
        for e in invseq.enumerate_invseq(n):
            if invseq.class_check(e, "i7"):
                k, ell = type_invseq(e, "t1")
                got = sorted(type_invseq(c, "t1") for _, c in
                             children_invseq(e, "t1"))
                want = sorted([(j, k - j) for j in range(1, k + 1)] +
                              [(k + 1, i) for i in range(ell + 1)])
                assert got == want, e
            if invseq.avoids_all(e, ("011", "201")):
                k, ell = type_invseq(e, "t2")
                got = sorted(type_invseq(c, "t2") for _, c in
                             children_invseq(e, "t2"))
                want = sorted([(j, k + ell - j) for j in range(1, k + 1)] +
                              [(k + 1, i) for i in range(ell)] + [(k + 1, 0)])
                assert got == want, e


def test_traces(one, d3, d3p):
    assert trace_of_rect(one, "t1") == []
    assert trace_of_rect(d3p, "t1") == [("**", 0), ("*", 1)]
    assert trace_of_rect(d3, "t2") == [("***", None), ("*", 2)]
    assert replay_invseq([("**", 0), ("*", 1)], "t1") == (0, 0, 1)
    assert replay_invseq([("***", None), ("*", 2)], "t2") == (0, 0, 2)


def test_trace_json():
    tr = [("***", None), ("*", 2), ("**", 1)]
    assert trace_from_json(trace_to_json(tr)) == tr
    assert trace_to_json(tr) == '[["***"], ["*", 2], ["**", 1]]'


@pytest.mark.parametrize("tree,pattern", [("t1", "td"), ("t2", "tu")])
def test_replay_round_trips_and_coverage(tree, pattern):
    for n in range(1, 6):
        members = universe.enumerate_class(n, "strong", (pattern,))
        seen = set()
        for d in members:
            tr = trace_of_rect(d, tree)
            assert strong_key(replay_rect(tr, tree)) == strong_key(d)
            seen.add(tuple(tr))
        assert len(seen) == len(members)


def test_sequence_traces_round_trip():
    for n in range(1, 7):
        for e in invseq.enumerate_invseq(n):
            if invseq.class_check(e, "i7"):
                assert replay_invseq(trace_of_invseq(e, "t1"), "t1") == e
            if invseq.avoids_all(e, ("011", "201")):
                assert replay_invseq(trace_of_invseq(e, "t2"), "t2") == e


def test_children_match_brute_force_extension():
    for n in range(1, 6):
        for e in invseq.enumerate_invseq(n):
            for cls in ("i6", "i7", "i8"):
                if invseq.class_check(e, cls):
                    kids = {c for _, c in children_invseq(e, "t1", cls)}
                    want = {e + (u,) for u in _extensions(
                        e, invseq.CLASS_PATTERNS[cls])}
                    assert kids == want
            if invseq.avoids_all(e, ("011", "201")):
                kids = {c for _, c in children_invseq(e, "t2")}
                want = {e + (u,) for u in _extensions(
                    e, ("011", "201"))}
                assert kids == want


def test_e_rects_track_rtl_minima():
    # replaying a trace on both sides: the j-th inserted rect touches E
    # exactly when the j-th value is a right-to-left minimum, and per-rect
    # joint counts on its bottom side equal per-minimum admissible counts
    for n in range(1, 8):
        for f in invseq.enumerate_invseq(n):
            if not invseq.avoids_all(f, ("011", "201")):
                continue
            tr = trace_of_invseq(f, "t2")
            d, order = replay_rect_tracked(tr, "t2")
            mins = set(invseq.rtl_minima_positions(f))
            minvals = sorted(f[p - 1] for p in mins)
            ext = _extensions(f, ("011", "201"))
            for idx, b in enumerate(d.rects):
                step = order[idx]
                is_e = b[2] == d.width
                assert is_e == (step in mins), (f, step)
                if is_e:
                    v = f[step - 1]
                    lo = max((m for m in minvals if m < v), default=0)
                    below = sum(1 for u in ext if lo < u < v)
                    joints = sum(1 for s in segments_of(d)
                                 if s.orientation == "v" and s.hi == b[1]
                                 and b[0] < s.axis < b[2])
                    assert joints == below, (f, step)


def test_count_by_tree():
    assert [count_by_tree("t1", n) for n in range(1, 5)] == [1, 2, 5, 15]
    assert count_by_tree("t1", 1) == 1
    for n in range(1, 51):
        assert count_by_tree("t1", n) == count_by_tree("t2", n)


def _ref_next_level(tree, level):
    """The level DP step on a dict {(k, ell): count} of the nonzero counts,
    with one addition per child type."""
    rowsum = {}
    for (k, ell), c in level.items():
        rowsum[k] = rowsum.get(k, 0) + c
    nxt = {}

    def add(key, c):
        if c:
            nxt[key] = nxt.get(key, 0) + c

    if tree == "t1":
        by_k = {}
        for (k, ell), c in level.items():
            by_k.setdefault(k, {})[ell] = c
        for k, row in by_k.items():
            for a in range(1, k + 1):
                add((a, k - a), rowsum[k])
            suf = 0
            for i in range(max(row), -1, -1):
                suf += row.get(i, 0)
                add((k + 1, i), suf)
    else:
        by_s, by_k = {}, {}
        for (k, ell), c in level.items():
            col = by_s.setdefault(k + ell, {})
            col[k] = col.get(k, 0) + c
            by_k.setdefault(k, {})[ell] = c
        for s, col in by_s.items():
            suf = 0
            for a in range(max(col), 0, -1):
                suf += col.get(a, 0)
                add((a, s - a), suf)
        for k, row in by_k.items():
            suf = 0
            for b in range(max(row) - 1, -1, -1):
                suf += row.get(b + 1, 0)
                add((k + 1, b), suf)
            add((k + 1, 0), rowsum[k])
    return nxt


def _reference_count(tree, n):
    """The level DP run from level 1, without the shared record."""
    level = {(1, 0): 1}
    for _ in range(n - 1):
        level = _ref_next_level(tree, level)
    return sum(level.values())


def _assert_rows_match_reference(n):
    """The row-list levels of both trees equal the dict DP's, type by type,
    on levels 1..n."""
    for tree in gentree.TREES:
        rows, ref = [[1]], {(1, 0): 1}
        for m in range(1, n + 1):
            assert [len(row) for row in rows] == list(range(m, 0, -1))
            assert {(k, ell): c for k, row in enumerate(rows, 1)
                    for ell, c in enumerate(row) if c} == ref, (tree, m)
            rows = gentree._next_level(tree, rows)
            ref = _ref_next_level(tree, ref)


def test_level_rows_match_the_dict_dp():
    _assert_rows_match_reference(100)


@pytest.mark.slow
def test_level_rows_match_the_dict_dp_to_the_cap():
    _assert_rows_match_reference(gentree.LEVEL_CAP)


def test_shared_level_dp_matches_reference_in_any_call_order():
    ref = {t: [_reference_count(t, n) for n in range(1, 41)]
           for t in ("t1", "t2")}
    gentree._LEVELS.clear()
    for n in range(40, 0, -1):
        assert count_by_tree("t1", n) == ref["t1"][n - 1]
    gentree._LEVELS.clear()
    for n in range(1, 41):
        for t in ("t2", "t1"):
            assert count_by_tree(t, n) == ref[t][n - 1]
    gentree._LEVELS.clear()
    assert level_counts("t2", 17) == ref["t2"][:17]
    assert level_counts("t2", 40) == ref["t2"]
    assert level_counts("t1", 40) == ref["t1"]
    assert level_counts("t1", 3) == ref["t1"][:3]
    level_counts("t1", 5).append(0)  # callers get a copy
    assert level_counts("t1", 40) == ref["t1"]


def test_count_by_tree_rejects_bad_input_before_any_work():
    gentree._LEVELS.clear()
    for n in (1, 2, 5):
        with pytest.raises(ValueError):
            count_by_tree("bogus", n)
        with pytest.raises(ValueError):
            level_counts("bogus", n)
    for n in (0, -3):
        with pytest.raises(ValueError):
            count_by_tree("t1", n)
    ctx = verify._Ctx()
    for tree in gentree.TREES:
        with pytest.raises(ValueError, match="exceeds the cap 200"):
            count_by_tree(tree, 201)
        with pytest.raises(ValueError, match="exceeds the cap 200"):
            level_counts(tree, 201)
    with pytest.raises(ValueError, match="exceeds the cap 200"):
        verify.suite_a279555(ctx, dp_n=201)
    assert gentree._LEVELS == {} and ctx._memo == {}


def test_tree_counts_match_universe():
    for n in range(1, 7):
        assert count_by_tree("t1", n) == \
            universe.count_class(n, "strong", ("td",))


def _ref_left_neighbor_lines(d, x, y_lo, y_hi):
    if x == 0:
        return []
    return sorted(s.axis for s in segments_of(d)
                  if s.orientation == "h" and s.hi == x
                  and y_lo < s.axis < y_hi)


def _ref_active_td_joints(d):
    hseg = {s.axis: s for s in segments_of(d) if s.orientation == "h"}
    joints = []
    for s in segments_of(d):
        if s.orientation == "v" and s.hi < d.height:
            h = hseg[s.hi]
            if h.lo < s.axis < h.hi and h.hi == d.width:
                joints.append((s.axis, s.hi))
    return sorted(joints, reverse=True)


def _ref_td_joints_on(d, y, x_left):
    return sum(1 for s in segments_of(d)
               if s.orientation == "v" and s.hi == y
               and x_left < s.axis < d.width)


def test_segment_helpers_match_segments_of(ctx):
    """The helpers read the kernel's spans by line, the references filter
    the full segment list; every caller asks up to the top side."""
    for n in range(1, 7):
        for d in ctx.strong(n):
            g = gentree._view(d)
            assert gentree._active_td_joints(g) == _ref_active_td_joints(d)
            for x in range(d.width + 1):
                for y_lo in range(d.height):
                    assert (gentree._left_neighbor_lines(g, x, y_lo, d.height)
                            == _ref_left_neighbor_lines(d, x, y_lo, d.height))
            for y in range(1, d.height):
                for x_left in range(d.width):
                    assert (gentree._td_joints_on(g, y, x_left)
                            == _ref_td_joints_on(d, y, x_left))


# The spans of every step state against the span rebuild the trees used
# before _segments: the merged runs of the near and far sides on each line.


def _ref_spans(width, height, boxes):
    vruns, hruns = _ref_line_runs(boxes, width, height)
    for runs in (vruns, hruns):
        assert all(len(r) == 1 for r in runs.values()), boxes
    return (tuple(vruns[x][0] for x in range(1, width)),
            tuple(hruns[y][0] for y in range(1, height)))


def _spans_checked(monkeypatch):
    """A list that counts the step states, each checked against _ref_spans
    when _with_spans returns it."""
    seen = []
    real = gentree._with_spans

    def spy(width, height, boxes):
        g = real(width, height, boxes)
        assert g.spans == _ref_spans(width, height, g.rects), g
        seen.append(None)
        return g

    monkeypatch.setattr(gentree, "_with_spans", spy)
    return seen


def _replay_and_trace_every_member(tree, n):
    """Trace every member of the tree with n <= the given size, and replay
    its trace; returns how many members there were."""
    members = 0
    for level in replay_levels(tree, n):
        for d in level.values():
            assert replay_rect(trace_of_rect(d, tree), tree) == d
            members += 1
    return members


@pytest.mark.parametrize("n", [7, pytest.param(8, marks=pytest.mark.slow)])
@pytest.mark.parametrize("tree", ["t1", "t2"])
def test_step_spans_match_the_merged_near_and_far_sides(monkeypatch, tree,
                                                        n):
    seen = _spans_checked(monkeypatch)
    members = sum(level_counts(tree, n))
    assert _replay_and_trace_every_member(tree, n) == members
    assert len(seen) > 2 * members


@pytest.mark.parametrize("tree", ["t1", "t2"])
@pytest.mark.parametrize("seed", range(3))
def test_step_spans_of_random_200_node_members(monkeypatch, tree, seed):
    rng = random.Random(seed)
    e = (0,)
    while len(e) < gentree.NODE_CAP:
        e = rng.choice(children_invseq(e, tree))[1]
    trace = trace_of_invseq(e, tree)
    seen = _spans_checked(monkeypatch)
    d = replay_rect(trace, tree)
    assert trace_of_rect(d, tree) == trace
    assert len(seen) == 2 * len(trace)


def test_with_spans_refuses_a_line_with_two_segments():
    # line x=1 hosts two verticals, 0..1 and 2..3, parted by a full-width
    # rect; line y=1 hosts one segment
    two = [(0, 0, 1, 1), (1, 0, 2, 1), (0, 1, 2, 2), (0, 2, 1, 3),
           (1, 2, 2, 3)]
    with pytest.raises(InvalidDrawing,
                       match="a line hosts more than one segment"):
        gentree._with_spans(2, 3, two)
    # and a line that hosts none
    with pytest.raises(InvalidDrawing,
                       match="a line hosts more than one segment"):
        gentree._with_spans(2, 1, [(0, 0, 2, 1)])
    assert gentree._with_spans(2, 1, [(0, 0, 1, 1), (1, 0, 2, 1)]).spans \
        == (((0, 1),), ())


# The step rule as it stood before it was written once per tree: each
# function below re-derives the steps on its own.  The differential tests
# hold the derived functions to these copies.


def _ref_t1_type_invseq(e, cls="i7"):
    e = tuple(e)
    assert invseq.class_check(e, cls)
    m = max(e)
    ext = _extensions(e, invseq.CLASS_PATTERNS[cls])
    bound = e[-1] if cls == "i7" else m
    return (len(e) - m, sum(1 for u in ext if u < bound))


def _ref_t2_type_invseq(e):
    e = tuple(e)
    assert invseq.avoids_all(e, ("011", "201"))
    m = max(e)
    ext = _extensions(e, ("011", "201"))
    return (len(e) - m, sum(1 for u in ext if 0 < u < m))


def _ref_t1_children_invseq(e, cls="i7"):
    e = tuple(e)
    m = max(e)
    out = []
    for u in _extensions(e, invseq.CLASS_PATTERNS[cls]):
        child = e + (u,)
        if u > m:
            step = ("*", u - m)
        else:
            step = ("**", _ref_t1_type_invseq(child, cls)[1])
        out.append((step, child))
    return out


def _ref_t2_children_invseq(e):
    e = tuple(e)
    m = max(e)
    ext = _extensions(e, ("011", "201"))
    mids = [u for u in ext if 0 < u < m]
    out = []
    for u in ext:
        if u > m:
            step = ("*", u - m)
        elif u == 0:
            step = ("***", None)
        else:
            step = ("**", mids.index(u) + 1)
        out.append((step, e + (u,)))
    return out


def _ref_trace_of_invseq(e, tree, cls="i7"):
    e = tuple(e)
    steps = []
    while len(e) > 1:
        last, prefix = e[-1], e[:-1]
        m = max(prefix)
        if last > m:
            steps.append(("*", last - m))
        elif tree == "t1":
            steps.append(("**", _ref_t1_type_invseq(e, cls)[1]))
        elif last == 0:
            steps.append(("***", None))
        else:
            mids = [u for u in _extensions(prefix, ("011", "201"))
                    if 0 < u < m]
            steps.append(("**", mids.index(last) + 1))
        e = prefix
    return steps[::-1]


def _ref_replay_invseq(trace, tree, cls="i7"):
    e = (0,)
    for rule, param in trace:
        m = max(e)
        if rule == "*":
            e = e + (m + param,)
        elif rule == "***":
            e = e + (0,)
        elif tree == "t1":
            [e] = [c for s, c in _ref_t1_children_invseq(e, cls)
                   if s == ("**", param)]
        else:
            mids = [u for u in _extensions(e, ("011", "201"))
                    if 0 < u < m]
            e = e + (mids[param - 1],)
    return e


# The drawing side as it stood when every step built and analysed a drawing:
# each builder and delete below reads a RectDrawing through the segments_of
# references above, and the boxes of every step go through make_drawing and
# canonical_drawing.  Nothing here calls gentree's drawing side.


def _ref_require(cond, msg):
    if not cond:
        raise InvalidDrawing(msg)


def _ref_span(d, orientation, axis):
    return next((s.lo, s.hi) for s in segments_of(d)
                if s.orientation == orientation and s.axis == axis)


def _ref_e_rects(d):
    return sorted((i for i, b in enumerate(d.rects) if b[2] == d.width),
                  key=lambda i: -d.rects[i][3])


def _ref_n_rects(d):
    return sorted((i for i, b in enumerate(d.rects) if b[3] == d.height),
                  key=lambda i: d.rects[i][0])


def _ref_type_rect(d, tree):
    if tree == "t1":
        ne = d.rects[ne_rect_index(d)]
        return (len(_ref_e_rects(d)),
                len(_ref_left_neighbor_lines(d, ne[0], ne[1], d.height)))
    return (len(_ref_n_rects(d)), len(_ref_active_td_joints(d)))


def _ref_t1_star(d, j):
    erects = _ref_e_rects(d)
    _ref_require(1 <= j <= len(erects), "star parameter out of range")
    y_bot = d.rects[erects[j - 1]][1]
    pushed = set(erects[:j])
    boxes = [(x0, y0, x1 + (0 if i in pushed or x1 < d.width else 1), y1)
             for i, (x0, y0, x1, y1) in enumerate(d.rects)]
    return d.width + 1, d.height, boxes, (d.width, y_bot, d.width + 1, d.height)


def _ref_t1_dstar(d, i):
    ne = ne_rect_index(d)
    x0, y0 = d.rects[ne][0], d.rects[ne][1]
    qs = ([d.height] + _ref_left_neighbor_lines(d, x0, y0, d.height)[::-1]
          + [y0])
    _ref_require(0 <= i <= len(qs) - 2, "dstar parameter out of range")
    p = qs[i + 1] + 1

    def sh(y):
        return y + 1 if y >= p else y

    boxes = []
    for r, (a, b, c, dd) in enumerate(d.rects):
        if r == ne:
            boxes.append((a, sh(b), c, p))
        else:
            boxes.append((a, sh(b), c, sh(dd)))
    return d.width, d.height + 1, boxes, (x0, p, d.width, d.height + 1)


def _ref_t2_star(d, j):
    nrects = _ref_n_rects(d)
    _ref_require(1 <= j <= len(nrects), "star parameter out of range")
    x_star = d.rects[nrects[len(nrects) - j]][0]
    boxes = [(a, b, c, e + (1 if e == d.height and c <= x_star else 0))
             for (a, b, c, e) in d.rects]
    return d.width, d.height + 1, boxes, (x_star, d.height, d.width,
                                          d.height + 1)


def _ref_t2_tstar(d, param):
    _ref_require(param is None, "tstar takes no parameter")
    return d.width + 1, d.height, list(d.rects), (d.width, 0, d.width + 1,
                                                  d.height)


def _ref_t2_dstar(d, i):
    joints = _ref_active_td_joints(d)
    _ref_require(1 <= i <= len(joints), "dstar parameter out of range")
    x_v, y_h = joints[i - 1]
    boxes = []
    for (a, b, c, e) in d.rects:
        if c == d.width and b >= y_h:
            _ref_require(a < x_v, "tower rectangle does not span the joint")
            boxes.append((a, b + 1, x_v, e + 1))
        elif e == y_h and c <= x_v:
            boxes.append((a, b, c, e + 1))
        elif e == y_h:
            _ref_require(a >= x_v, "rect below the shelf straddles the joint")
            boxes.append((a, b, c, e))
        else:
            boxes.append((a, b + (1 if b >= y_h else 0), c,
                          e + (1 if e > y_h else 0)))
    return d.width, d.height + 1, boxes, (x_v, y_h, d.width, d.height + 1)


_REF_BUILDS = {("t1", "*"): _ref_t1_star, ("t1", "**"): _ref_t1_dstar,
               ("t2", "*"): _ref_t2_star, ("t2", "**"): _ref_t2_dstar,
               ("t2", "***"): _ref_t2_tstar}


def _ref_apply_rect_step(d, tree, step):
    rule, param = step
    build = _REF_BUILDS.get((tree, rule))
    if build is None:
        raise ValueError(f"{tree} has no {rule} rule")
    width, height, boxes, new = build(d, param)
    d2, perm = make_drawing_with_perm(width, height, boxes + [new])
    return canonical_drawing(d2), perm


def _ref_t1_delete(d):
    ne = ne_rect_index(d)
    x0, y0, _, _ = d.rects[ne]
    star = y0 == 0 or (x0 > 0 and _ref_span(d, "v", x0)[0] == y0)
    if star:
        lefts = [i for i, b in enumerate(d.rects) if b[2] == x0]
        j = len(lefts) if y0 == 0 else len(
            [i for i in lefts if y0 <= d.rects[i][1]])
        _ref_require(j >= 1 or y0 == 0, "no rectangles to restore")
        boxes = []
        for i, (a, b, c, dd) in enumerate(d.rects):
            if i == ne:
                continue
            if c == x0:
                c = d.width
            boxes.append((a - (a > x0), b, c - (c > x0), dd))
        parent = make_drawing_with_perm(d.width - 1, d.height, boxes)[0]
        step = ("*", j)
    else:
        below = [i for i, b in enumerate(d.rects) if b[3] == y0]
        _ref_require(len(below) == 1, "expected a single rectangle below")
        yb = d.rects[below[0]][1]
        _ref_require(d.rects[below[0]][0] == x0
                     and _ref_span(d, "h", y0)[0] == x0,
                     "shelf does not span the NE rectangle")
        i_param = len(_ref_left_neighbor_lines(d, x0, y0, d.height))
        boxes = []
        for i, (a, b, c, dd) in enumerate(d.rects):
            if i == ne:
                continue
            if i == below[0]:
                a, b, c, dd = x0, yb, d.width, d.height
            boxes.append((a, b - (b > y0), c, dd - (dd > y0)))
        parent = make_drawing_with_perm(d.width, d.height - 1, boxes)[0]
        step = ("**", i_param)
    return canonical_drawing(parent), step


def _ref_t2_delete(d):
    ne = ne_rect_index(d)
    x0, y0, _, _ = d.rects[ne]
    if y0 == 0:
        _ref_require(x0 == d.width - 1, "NE column wider than one cell")
        boxes = [b for i, b in enumerate(d.rects) if i != ne]
        parent = make_drawing_with_perm(x0, d.height, boxes)[0]
        step = ("***", None)
    else:
        lefts = _ref_left_neighbor_lines(d, x0, y0, d.height)
        if not lefts:
            boxes = []
            for i, (a, b, c, dd) in enumerate(d.rects):
                if i == ne:
                    continue
                if dd == y0 and a >= x0:
                    dd = d.height
                boxes.append((a, b - (b > y0), c, dd - (dd > y0)))
            parent = make_drawing_with_perm(d.width, d.height - 1, boxes)[0]
            step = ("*", 1 + _ref_td_joints_on(d, y0, x0))
        else:
            y_h2 = lefts[0]
            i_param = 1 + len(_ref_active_td_joints(d))
            boxes = []
            for i, (a, b, c, dd) in enumerate(d.rects):
                if i == ne:
                    continue
                if c == x0 and b >= y_h2:
                    boxes.append((a, b - 1, d.width, dd - 1))
                elif dd == y0 and a >= x0:
                    boxes.append((a, b, c, y_h2 - 1))
                else:
                    boxes.append((a, b - (b > y0), c, dd - (dd > y0)))
            parent = make_drawing_with_perm(d.width, d.height - 1, boxes)[0]
            step = ("**", i_param)
    return canonical_drawing(parent), step


def _ref_children_rect(d, tree):
    k, ell = _ref_type_rect(d, tree)
    if tree == "t1":
        steps = ([("*", j) for j in range(1, k + 1)]
                 + [("**", i) for i in range(ell + 1)])
    else:
        steps = ([("*", j) for j in range(1, k + 1)]
                 + [("**", i) for i in range(1, ell + 1)] + [("***", None)])
    return [(s, _ref_apply_rect_step(d, tree, s)[0]) for s in steps]


def _ref_trace_of_rect(d, tree):
    d = canonical_drawing(d)
    steps = []
    while d.size > 1:
        d, step = (_ref_t1_delete if tree == "t1" else _ref_t2_delete)(d)
        steps.append(step)
    return steps[::-1]


def _ref_replay_rect_tracked(trace, tree):
    d = size1()
    labels = [1]
    for t, step in enumerate(trace, 2):
        d, perm = _ref_apply_rect_step(d, tree, step)
        relabeled = [None] * d.size
        for old, new in enumerate(perm):
            relabeled[new] = labels[old] if old < len(labels) else t
        labels = relabeled
        labels[perm[-1]] = t
    return d, labels


def _sequence_members(max_n):
    """(tree, cls, e) for every member with n <= max_n of i6, i7, i8 (tree
    t1) and of I(011,201) (tree t2)."""
    for n in range(1, max_n + 1):
        for e in invseq.enumerate_invseq(n):
            for cls in ("i6", "i7", "i8"):
                if invseq.class_check(e, cls):
                    yield "t1", cls, e
            if invseq.avoids_all(e, ("011", "201")):
                yield "t2", "i7", e


def test_sequence_side_matches_the_reference_rules():
    seen = 0
    for tree, cls, e in _sequence_members(6):
        if tree == "t1":
            assert type_invseq(e, "t1", cls) == _ref_t1_type_invseq(e, cls)
            assert (children_invseq(e, "t1", cls)
                    == _ref_t1_children_invseq(e, cls))
        else:
            assert type_invseq(e, "t2") == _ref_t2_type_invseq(e)
            assert children_invseq(e, "t2") == _ref_t2_children_invseq(e)
        tr = trace_of_invseq(e, tree, cls)
        assert tr == _ref_trace_of_invseq(e, tree, cls), (tree, cls, e)
        assert (replay_invseq(tr, tree, cls)
                == _ref_replay_invseq(tr, tree, cls) == e)
        seen += 1
    assert seen == 4 * sum(count_by_tree("t1", n) for n in range(1, 7))


@pytest.mark.parametrize("tree,pattern", [("t1", "td"), ("t2", "tu")])
def test_rect_side_matches_the_reference_rules(tree, pattern):
    for n in range(1, 6):
        for d in universe.enumerate_class(n, "strong", (pattern,)):
            got, want = children_rect(d, tree), _ref_children_rect(d, tree)
            assert [s for s, _ in got] == [s for s, _ in want]
            assert [c.to_json() for _, c in got] == \
                [c.to_json() for _, c in want]
            tr = trace_of_rect(d, tree)
            assert tr == _ref_trace_of_rect(d, tree)
            assert replay_rect(tr, tree).to_json() == \
                _ref_replay_rect_tracked(tr, tree)[0].to_json()


@pytest.mark.parametrize("tree,pattern", [("t1", "td"), ("t2", "tu")])
def test_replay_and_trace_match_the_per_step_reference(ctx, tree, pattern):
    for n in range(1, 8):
        for d in ctx.strong_class(n, (pattern,)):
            tr = trace_of_rect(d, tree)
            assert tr == _ref_trace_of_rect(d, tree), d
            got, order = replay_rect_tracked(tr, tree)
            want, want_order = _ref_replay_rect_tracked(tr, tree)
            assert (got.to_json(), order) == (want.to_json(), want_order)


_SHORT_STEPS = ([(rule, p) for rule in ("*", "**", "***")
                 for p in range(-1, 5)] + [("***", None)])


@pytest.mark.parametrize("tree", ["t1", "t2"])
def test_short_step_lists_match_the_per_step_reference(tree):
    """Every list of at most three steps: the replay refuses exactly the
    lists the per-step reference refuses, and builds the same drawing from
    the others.  The reference walks the lists as a tree of prefixes; None
    marks a prefix it refused."""
    taken = [0] * 4

    def walk(trace, want):
        if want is None:
            with pytest.raises(ValueError):
                replay_rect(trace, tree)
        else:
            assert replay_rect(trace, tree).to_json() == want.to_json()
            taken[len(trace)] += 1
        if len(trace) == 3:
            return
        for step in _SHORT_STEPS:
            child = None
            if want is not None:
                try:
                    child = _ref_apply_rect_step(want, tree, step)[0]
                except ValueError:
                    pass
            walk(trace + [step], child)

    walk([], size1())
    assert taken == [1, 2, 5, 15]


def _ref_random_walk(tree, steps, rng):
    """(trace, drawing) of a walk of the given number of steps down the
    reference tree, each step drawn at random from the node's children."""
    d, trace = size1(), []
    for _ in range(steps):
        k, ell = _ref_type_rect(d, tree)
        choices = [("*", j) for j in range(1, k + 1)]
        if tree == "t1":
            choices += [("**", i) for i in range(ell + 1)]
        else:
            choices += [("**", i) for i in range(1, ell + 1)] + [("***", None)]
        trace.append(rng.choice(choices))
        d = _ref_apply_rect_step(d, tree, trace[-1])[0]
    return trace, d


@pytest.mark.parametrize("tree", ["t1", "t2"])
@pytest.mark.parametrize("seed", range(4))
def test_random_long_traces_match_the_per_step_reference(tree, seed):
    """Random walks of up to NODE_CAP - 1 steps: the boxes a replay or a
    trace carries keep their steps' layout, and still give the replay JSON,
    order and trace of the reference, which redraws every step."""
    rng = random.Random(seed)
    steps = gentree.NODE_CAP - 1 if seed == 0 else rng.randrange(20, 199)
    trace, want = _ref_random_walk(tree, steps, rng)
    got, order = replay_rect_tracked(trace, tree)
    assert (got.to_json(), order) == (
        want.to_json(), _ref_replay_rect_tracked(trace, tree)[1])
    assert trace_of_rect(want, tree) == _ref_trace_of_rect(want, tree) == trace


@pytest.mark.parametrize("tree,pattern", [("t1", "td"), ("t2", "tu")])
def test_trace_reads_any_layout_of_a_strong_class(ctx, tree, pattern):
    """Every child the universe's reverse search builds for n <= 6 in the
    tree's class, before canonical_drawing lays it out, has the trace of
    its canonical drawing."""
    other = 0
    for n in range(1, 6):
        for p in ctx.strong(n):
            for d in universe._children(p):
                if contains(d, pattern):
                    continue
                c = canonical_drawing(d)
                assert trace_of_rect(d, tree) == trace_of_rect(c, tree), d
                other += c != d
    assert other > 0


@pytest.mark.parametrize("tree", ["t1", "t2"])
@pytest.mark.parametrize("rule", ["*", "**", "***"])
def test_replays_refuse_a_parameter_that_is_not_an_int(tree, rule):
    first = ("*", 1)
    for param in (None, True, False, 1.0, "1", [1]):
        if rule == "***" and param is None:
            continue
        for trace in ([(rule, param)], [first, (rule, param)]):
            with pytest.raises(ValueError):
                replay_rect(trace, tree)
            with pytest.raises(ValueError):
                replay_invseq(trace, tree)


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.sampled_from(["*", "**", "***"]) | st.text(max_size=3),
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(_json_values)
def test_trace_from_json_round_trips_or_refuses(value):
    try:
        tr = trace_from_json(json.dumps(value))
    except ValueError:
        return
    for rule, param in tr:
        assert (param is None if rule == "***"
                else rule in ("*", "**") and type(param) is int)
    assert trace_from_json(trace_to_json(tr)) == tr


@pytest.mark.parametrize("text", [
    "[[]]", '[["*"]]', '[["*", "x"]]', '{"a": 1}', '[["?", 1]]',
    '[["***", 5]]', '[["*", true]]', '[["**", 1.0]]', '[["*", 1, 2]]',
    '"*"', "[1]", "nope"])
def test_trace_from_json_refuses_malformed_steps(text):
    with pytest.raises(ValueError):
        trace_from_json(text)


def test_trace_from_json_reads_null_tstar_parameter():
    assert trace_from_json('[["***", null], ["*", 2]]') == \
        [("***", None), ("*", 2)]


@pytest.mark.parametrize("tree", ["t1", "t2"])
@pytest.mark.parametrize("step", [("*", 99), ("*", 0), ("**", -1),
                                  ("**", 5), ("?", 1), ("***", 5)])
def test_replays_refuse_a_step_they_cannot_take(tree, step):
    with pytest.raises(ValueError):
        replay_invseq([step], tree)
    with pytest.raises(ValueError):
        replay_rect([step], tree)


def test_replays_keep_the_steps_they_can_take():
    assert replay_invseq([], "t2") == (0,)
    assert replay_rect([], "t1").size == 1
    with pytest.raises(ValueError, match="t1 has no \\*\\*\\* rule"):
        replay_rect([("***", None)], "t1")
    with pytest.raises(ValueError):
        replay_invseq([("***", None)], "t1")


_LEVEL_CLASSES = {"t1": invseq.CLASS_PATTERNS["i7"], "t2": ("011", "201")}


@pytest.mark.parametrize("tree", ["t1", "t2"])
def test_replay_levels_match_one_replay_per_member(tree):
    """Each level holds the tree's members in enumeration order, and the
    drawing of each is the one its trace replays from the root."""
    seen = 0
    for n, level in enumerate(replay_levels(tree, 7), 1):
        assert list(level) == list(
            invseq.enumerate_invseq(n, _LEVEL_CLASSES[tree]))
        for e, d in level.items():
            want = replay_rect(trace_of_invseq(e, tree, "i7"), tree)
            assert d.to_json() == want.to_json(), e
        seen += len(level)
    assert seen == sum(level_counts(tree, 7))


@pytest.mark.slow
def test_replay_levels_reach_past_the_universe():
    *_, level = replay_levels("t1", 9)
    assert list(level) == list(
        invseq.enumerate_invseq(9, invseq.CLASS_PATTERNS["i7"]))


def test_replay_levels_refuse_bad_input():
    with pytest.raises(ValueError, match="unknown tree"):
        next(replay_levels("t3", 2))
    for tree in ("t1", "t2"):
        for n in (0, -1):
            with pytest.raises(ValueError, match="level must be >= 1"):
                next(replay_levels(tree, n))


def test_unknown_tree_and_empty_sequence_are_refused(one):
    for call in (lambda: trace_of_rect(one, "t3"),
                 lambda: replay_rect([], "t3"),
                 lambda: replay_rect_tracked([], "bogus"),
                 lambda: trace_of_invseq((0,), "t3"),
                 lambda: replay_invseq([], "t3"),
                 lambda: type_rect(one, "t3"),
                 lambda: children_rect(one, "bogus"),
                 lambda: type_invseq((0,), "t3"),
                 lambda: children_invseq((0,), "t3", "i6")):
        with pytest.raises(ValueError, match="unknown tree"):
            call()
    for tree in ("t1", "t2"):
        with pytest.raises(ClassError):
            trace_of_invseq((), tree)
    with pytest.raises(ValueError):
        trace_of_invseq((0, 2), "t1")  # not an inversion sequence


def test_t2_node_operations_ignore_the_class():
    for n in range(1, 6):
        for e in invseq.enumerate_invseq(n, gentree.T2_PATTERNS):
            for cls in ("i6", "i8"):
                assert type_invseq(e, "t2", cls) == type_invseq(e, "t2")
                assert (children_invseq(e, "t2", cls)
                        == children_invseq(e, "t2"))


def test_t2_refuses_exactly_the_sequences_that_contain_its_patterns():
    for n in range(1, 7):
        for e in invseq.enumerate_invseq(n):
            if invseq.avoids_all(e, gentree.T2_PATTERNS):
                type_invseq(e, "t2")
            else:
                with pytest.raises(ClassError, match="does not avoid"):
                    type_invseq(e, "t2")


def test_t1_children_are_the_td_avoiding_reverse_search_children(ctx):
    """Below every td-avoiding strong class with n <= 6, tree t1 grows
    exactly the td-avoiding children that the universe's reverse search
    builds from it.  Tree t2 does not do the same for tu-avoiders."""
    for n in range(1, 7):
        for d in ctx.strong_class(n, ("td",)):
            grown = sorted(strong_key(c) for _, c in children_rect(d, "t1"))
            searched = sorted(strong_key(c) for c in universe._children(d)
                              if not contains(c, "td"))
            assert grown == searched, d.to_json()
