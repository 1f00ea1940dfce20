import pytest

from rectlab import gentree, invseq, universe
from rectlab.drawing import segments_of, strong_key
from rectlab.gentree import (ClassError, count_by_tree, level_counts,
                             replay_invseq,
                             replay_rect, replay_rect_tracked,
                             t1_children_invseq, t1_children_rect,
                             t1_type_invseq, t1_type_rect,
                             t2_children_invseq, t2_children_rect,
                             t2_type_invseq, t2_type_rect, trace_of_invseq,
                             trace_of_rect, trace_from_json, trace_to_json)


def test_types(one, h2, d3, d3p):
    assert t1_type_invseq((0,)) == (1, 0)
    assert t1_type_rect(one) == (1, 0)
    assert t1_type_rect(d3p) == (2, 0)
    assert t1_type_rect(h2) == (2, 0)
    assert t2_type_rect(d3) == (1, 1)
    with pytest.raises(ClassError):
        t1_type_rect(d3)  # contains the hanging-stem joint
    with pytest.raises(ClassError):
        t2_type_rect(d3p)


def test_root_children():
    kids = t1_children_invseq((0,))
    assert {(s, c) for s, c in kids} == \
        {(("*", 1), (0, 1)), (("**", 0), (0, 0))}
    assert sorted(t1_type_invseq(c) for _, c in kids) == [(1, 0), (2, 0)]


def test_children_arity():
    for n in range(1, 5):
        for d in universe.enumerate_class(n, "strong", ("td",)):
            k, ell = t1_type_rect(d)
            assert len(t1_children_rect(d)) == k + ell + 1
        for d in universe.enumerate_class(n, "strong", ("tu",)):
            k, ell = t2_type_rect(d)
            assert len(t2_children_rect(d)) == k + ell + 1


def test_star_step_reaches_d3p(h2, d3p):
    kids = t1_children_rect(h2)
    assert [s for s, c in kids if strong_key(c) == strong_key(d3p)] == \
        [("*", 1)]


def test_t2_children_types_can_collide(d3):
    types = [(s[0], t2_type_rect(c)) for s, c in t2_children_rect(d3)]
    assert sorted(types) == [("*", (1, 1)), ("**", (2, 0)), ("***", (2, 0))]


def test_child_types_follow_the_rules():
    for n in range(1, 6):
        for e in invseq.enumerate_invseq(n):
            if invseq.class_check(e, "i7"):
                k, ell = t1_type_invseq(e)
                got = sorted(t1_type_invseq(c) for _, c in
                             t1_children_invseq(e))
                want = sorted([(j, k - j) for j in range(1, k + 1)] +
                              [(k + 1, i) for i in range(ell + 1)])
                assert got == want, e
            if invseq.avoids_all(e, ("011", "201")):
                k, ell = t2_type_invseq(e)
                got = sorted(t2_type_invseq(c) for _, c in
                             t2_children_invseq(e))
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
                    kids = {c for _, c in t1_children_invseq(e, cls)}
                    want = {e + (u,) for u in invseq.extension_values(
                        e, invseq.CLASS_PATTERNS[cls])}
                    assert kids == want
            if invseq.avoids_all(e, ("011", "201")):
                kids = {c for _, c in t2_children_invseq(e)}
                want = {e + (u,) for u in invseq.extension_values(
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
            ext = invseq.extension_values(f, ("011", "201"))
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


def _reference_count(tree, n):
    """The level DP run from level 1, without the shared record."""
    level = {(1, 0): 1}
    for _ in range(n - 1):
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
        level = nxt
    return sum(level.values())


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
    assert gentree._LEVELS == {}


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
            assert gentree._active_td_joints(d) == _ref_active_td_joints(d)
            for x in range(d.width + 1):
                for y_lo in range(d.height):
                    assert (gentree._left_neighbor_lines(d, x, y_lo, d.height)
                            == _ref_left_neighbor_lines(d, x, y_lo, d.height))
            for y in range(1, d.height):
                for x_left in range(d.width):
                    assert (gentree._td_joints_on(d, y, x_left)
                            == _ref_td_joints_on(d, y, x_left))
