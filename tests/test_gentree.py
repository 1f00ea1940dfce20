import json

import pytest
from hypothesis import given, settings, strategies as st

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


# The step rule as it stood before it was written once per tree: each
# function below re-derives the steps on its own.  The differential tests
# hold the derived functions to these copies.


def _ref_t1_type_invseq(e, cls="i7"):
    e = tuple(e)
    assert invseq.class_check(e, cls)
    m = max(e)
    ext = invseq.extension_values(e, invseq.CLASS_PATTERNS[cls])
    bound = e[-1] if cls == "i7" else m
    return (len(e) - m, sum(1 for u in ext if u < bound))


def _ref_t2_type_invseq(e):
    e = tuple(e)
    assert invseq.avoids_all(e, ("011", "201"))
    m = max(e)
    ext = invseq.extension_values(e, ("011", "201"))
    return (len(e) - m, sum(1 for u in ext if 0 < u < m))


def _ref_t1_children_invseq(e, cls="i7"):
    e = tuple(e)
    m = max(e)
    out = []
    for u in invseq.extension_values(e, invseq.CLASS_PATTERNS[cls]):
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
    ext = invseq.extension_values(e, ("011", "201"))
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
            mids = [u for u in invseq.extension_values(prefix, ("011", "201"))
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
            mids = [u for u in invseq.extension_values(e, ("011", "201"))
                    if 0 < u < m]
            e = e + (mids[param - 1],)
    return e


def _ref_children_rect(d, tree):
    if tree == "t1":
        k, ell = t1_type_rect(d)
        steps = ([("*", j) for j in range(1, k + 1)]
                 + [("**", i) for i in range(ell + 1)])
    else:
        k, ell = t2_type_rect(d)
        steps = ([("*", j) for j in range(1, k + 1)]
                 + [("**", i) for i in range(1, ell + 1)] + [("***", None)])
    return [(s, gentree._apply_rect_step(d, tree, s)[0]) for s in steps]


def _ref_trace_of_rect(d, tree):
    d = gentree.canonical_drawing(d)
    steps = []
    while d.size > 1:
        d, step = (gentree._t1_delete if tree == "t1"
                   else gentree._t2_delete)(d)
        steps.append(step)
    return steps[::-1]


def _ref_replay_rect(trace, tree):
    d = gentree.size1()
    for step in trace:
        d, _ = gentree._apply_rect_step(d, tree, step)
    return d


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
            assert t1_type_invseq(e, cls) == _ref_t1_type_invseq(e, cls)
            assert (t1_children_invseq(e, cls)
                    == _ref_t1_children_invseq(e, cls))
        else:
            assert t2_type_invseq(e) == _ref_t2_type_invseq(e)
            assert t2_children_invseq(e) == _ref_t2_children_invseq(e)
        tr = trace_of_invseq(e, tree, cls)
        assert tr == _ref_trace_of_invseq(e, tree, cls), (tree, cls, e)
        assert (replay_invseq(tr, tree, cls)
                == _ref_replay_invseq(tr, tree, cls) == e)
        seen += 1
    assert seen == 4 * sum(count_by_tree("t1", n) for n in range(1, 7))


@pytest.mark.parametrize("tree,pattern", [("t1", "td"), ("t2", "tu")])
def test_rect_side_matches_the_reference_rules(tree, pattern):
    children = t1_children_rect if tree == "t1" else t2_children_rect
    for n in range(1, 6):
        for d in universe.enumerate_class(n, "strong", (pattern,)):
            got, want = children(d), _ref_children_rect(d, tree)
            assert [s for s, _ in got] == [s for s, _ in want]
            assert [c.to_json() for _, c in got] == \
                [c.to_json() for _, c in want]
            tr = trace_of_rect(d, tree)
            assert tr == _ref_trace_of_rect(d, tree)
            assert replay_rect(tr, tree).to_json() == \
                _ref_replay_rect(tr, tree).to_json()


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


def test_unknown_tree_and_empty_sequence_are_refused(one):
    for call in (lambda: trace_of_rect(one, "t3"),
                 lambda: replay_rect([], "t3"),
                 lambda: replay_rect_tracked([], "bogus"),
                 lambda: trace_of_invseq((0,), "t3"),
                 lambda: replay_invseq([], "t3")):
        with pytest.raises(ValueError, match="unknown tree"):
            call()
    for tree in ("t1", "t2"):
        with pytest.raises(ClassError):
            trace_of_invseq((), tree)
    with pytest.raises(ValueError):
        trace_of_invseq((0, 2), "t1")  # not an inversion sequence
