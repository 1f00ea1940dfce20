"""The two generating trees, realized both on inversion sequences and on
rectangulations via corner insertion, with trace extraction, replay, and
polynomial-time level counting.

Both trees share the root type (1, 0).  Tree "t1" grows the class of
drawings whose vertical segments all reach the top side (and the three
four-pattern sequence classes); tree "t2" grows the drawings whose vertical
segments all reach the bottom side (and the (011, 201)-avoiding sequences).

A trace step is ``(rule, param)`` with rule one of "*", "**", "***":
types alone cannot tell two t2 children apart, so the rule tag is part of
the step.  Parameters are canonical: "*" carries the number of pushed
boundary rectangles (equally, the appended value minus the old maximum);
"**" carries the child's own second type coordinate for t1 and the
right-to-left index of the reworked joint for t2; "***" carries None.
"""

from __future__ import annotations

import threading

from . import invseq
from .drawing import (InvalidDrawing, RectDrawing, canonical_drawing,
                      make_drawing_with_perm, ne_rect_index, segments_of,
                      size1)
from .patterns import contains

STAR, DSTAR, TSTAR = "*", "**", "***"

T2_PATTERNS = ("011", "201")


class ClassError(ValueError):
    """Input object is outside the tree's class."""


# ---------------------------------------------------------------------------
# rectangulation side: shared helpers


def _require(cond, msg):
    if not cond:
        raise InvalidDrawing(msg)


def _e_rects_top_down(d):
    return sorted((i for i, b in enumerate(d.rects) if b[2] == d.width),
                  key=lambda i: -d.rects[i][3])


def _n_rects_left_right(d):
    return sorted((i for i, b in enumerate(d.rects) if b[3] == d.height),
                  key=lambda i: d.rects[i][0])


def _left_neighbor_lines(d, x, y_lo, y_hi):
    """Lines of horizontal segments whose right endpoint sits on the open
    part of the vertical line x between y_lo and y_hi."""
    if x == 0:
        return []
    return sorted(s.axis for s in segments_of(d)
                  if s.orientation == "h" and s.hi == x
                  and y_lo < s.axis < y_hi)


def _active_td_joints(d):
    """Active top-joint positions (vertical top ends inside a horizontal
    that reaches the right side), ordered right to left."""
    hseg = {s.axis: s for s in segments_of(d) if s.orientation == "h"}
    joints = []
    for s in segments_of(d):
        if s.orientation == "v" and s.hi < d.height:
            h = hseg[s.hi]
            if h.lo < s.axis < h.hi and h.hi == d.width:
                joints.append((s.axis, s.hi))
    return sorted(joints, reverse=True)


# ---------------------------------------------------------------------------
# t1 on rectangulations (every vertical segment reaches the top side)


def _check_t1_rect(d):
    if contains(d, "td"):
        raise ClassError("drawing has a vertical segment not reaching N")


def t1_type_rect(d: RectDrawing):
    _check_t1_rect(d)
    k = len(_e_rects_top_down(d))
    ne = d.rects[ne_rect_index(d)]
    ell = len(_left_neighbor_lines(d, ne[0], ne[1], d.height))
    return (k, ell)


def _t1_star_build(d, j):
    erects = _e_rects_top_down(d)
    _require(1 <= j <= len(erects), f"star parameter {j} out of range")
    y_bot = d.rects[erects[j - 1]][1]
    pushed = set(erects[:j])
    boxes = [(x0, y0, x1 + (0 if i in pushed or x1 < d.width else 1), y1)
             for i, (x0, y0, x1, y1) in enumerate(d.rects)]
    return d.width + 1, d.height, boxes, (d.width, y_bot, d.width + 1, d.height)


def _t1_dstar_build(d, i):
    ne = ne_rect_index(d)
    x0, y0 = d.rects[ne][0], d.rects[ne][1]
    qs = [d.height] + _left_neighbor_lines(d, x0, y0, d.height)[::-1] + [y0]
    _require(0 <= i <= len(qs) - 2, f"dstar parameter {i} out of range")
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


def _t1_delete(d):
    """Remove the NE rectangle; returns (parent, step)."""
    ne = ne_rect_index(d)
    x0, y0, _, _ = d.rects[ne]
    n = d.size
    vseg = {s.axis: s for s in segments_of(d) if s.orientation == "v"}
    star = y0 == 0 or (x0 > 0 and vseg[x0].lo == y0)
    if star:
        lefts = [i for i, b in enumerate(d.rects) if b[2] == x0]
        j = len(lefts) if y0 == 0 else len(
            [i for i in lefts if y0 <= d.rects[i][1]])
        _require(j >= 1 or y0 == 0, "no rectangles to restore on the right")
        boxes = []
        for i, (a, b, c, dd) in enumerate(d.rects):
            if i == ne:
                continue
            if c == x0:
                c = d.width
            boxes.append((a - (a > x0), b, c - (c > x0), dd))
        parent = make_drawing_with_perm(d.width - 1, d.height, boxes)[0]
        step = (STAR, j)
    else:
        hseg = {s.axis: s for s in segments_of(d) if s.orientation == "h"}
        below = [i for i, b in enumerate(d.rects) if b[3] == y0]
        _require(len(below) == 1, "expected a single rectangle below the shelf")
        yb = d.rects[below[0]][1]
        _require(d.rects[below[0]][0] == x0 and hseg[y0].lo == x0,
                 "shelf does not span the NE rectangle")
        i_param = len(_left_neighbor_lines(d, x0, y0, d.height))
        boxes = []
        for i, (a, b, c, dd) in enumerate(d.rects):
            if i == ne:
                continue
            if i == below[0]:
                a, b, c, dd = x0, yb, d.width, d.height
            boxes.append((a, b - (b > y0), c, dd - (dd > y0)))
        parent = make_drawing_with_perm(d.width, d.height - 1, boxes)[0]
        step = (DSTAR, i_param)
    return canonical_drawing(parent), step


# ---------------------------------------------------------------------------
# t2 on rectangulations (every vertical segment reaches the bottom side)


def _check_t2_rect(d):
    if contains(d, "tu"):
        raise ClassError("drawing has a vertical segment not reaching S")


def t2_type_rect(d: RectDrawing):
    _check_t2_rect(d)
    return (len(_n_rects_left_right(d)), len(_active_td_joints(d)))


def _t2_star_build(d, j):
    nrects = _n_rects_left_right(d)
    _require(1 <= j <= len(nrects), f"star parameter {j} out of range")
    x_star = d.rects[nrects[len(nrects) - j]][0]
    boxes = [(a, b, c, dd + (1 if dd == d.height and c <= x_star else 0))
             for (a, b, c, dd) in d.rects]
    return d.width, d.height + 1, boxes, (x_star, d.height, d.width,
                                          d.height + 1)


def _t2_tstar_build(d):
    return d.width + 1, d.height, list(d.rects), (d.width, 0, d.width + 1,
                                                  d.height)


def _t2_dstar_build(d, i):
    joints = _active_td_joints(d)
    _require(1 <= i <= len(joints), f"dstar parameter {i} out of range")
    x_v, y_h = joints[i - 1]
    boxes = []
    for (a, b, c, dd) in d.rects:
        if c == d.width and b >= y_h:
            _require(a < x_v, "tower rectangle does not span the joint")
            boxes.append((a, b + 1, x_v, dd + 1))
        elif dd == y_h and c <= x_v:
            boxes.append((a, b, c, dd + 1))
        elif dd == y_h:
            _require(a >= x_v, "rect below the shelf straddles the joint")
            boxes.append((a, b, c, dd))
        else:
            boxes.append((a, b + (1 if b >= y_h else 0), c,
                          dd + (1 if dd > y_h else 0)))
    return d.width, d.height + 1, boxes, (x_v, y_h, d.width, d.height + 1)


def _t2_delete(d):
    ne = ne_rect_index(d)
    x0, y0, _, _ = d.rects[ne]
    if y0 == 0:
        _require(x0 == d.width - 1, "NE column wider than one cell")
        boxes = [b for i, b in enumerate(d.rects) if i != ne]
        parent = make_drawing_with_perm(x0, d.height, boxes)[0]
        step = (TSTAR, None)
    else:
        lefts = _left_neighbor_lines(d, x0, y0, d.height)
        if not lefts:
            boxes = []
            for i, (a, b, c, dd) in enumerate(d.rects):
                if i == ne:
                    continue
                if dd == y0 and a >= x0:
                    dd = d.height
                boxes.append((a, b - (b > y0), c, dd - (dd > y0)))
            parent = make_drawing_with_perm(d.width, d.height - 1, boxes)[0]
            step = (STAR, 1 + _td_joints_on(d, y0, x0))
        else:
            y_h2 = lefts[0]
            i_param = 1 + len(_active_td_joints(d))
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
            step = (DSTAR, i_param)
    return canonical_drawing(parent), step


def _td_joints_on(d, y, x_left):
    """Number of vertical segments whose top endpoint lies strictly inside
    the horizontal segment at line y (which spans [x_left, W])."""
    return sum(1 for s in segments_of(d)
               if s.orientation == "v" and s.hi == y and x_left < s.axis < d.width)


# ---------------------------------------------------------------------------
# public rectangulation-side operations


def _apply_rect_step(d, tree, step):
    rule, param = step
    if tree == "t1":
        if rule == STAR:
            built = _t1_star_build(d, param)
        elif rule == DSTAR:
            built = _t1_dstar_build(d, param)
        else:
            raise ValueError("t1 has no *** rule")
    else:
        if rule == STAR:
            built = _t2_star_build(d, param)
        elif rule == DSTAR:
            built = _t2_dstar_build(d, param)
        else:
            built = _t2_tstar_build(d)
    width, height, boxes, new = built
    d2, perm = make_drawing_with_perm(width, height, boxes + [new])
    return canonical_drawing(d2), perm


def t1_children_rect(d):
    """All (step, child) pairs below d in tree t1."""
    _check_t1_rect(d)
    k, ell = t1_type_rect(d)
    out = []
    for j in range(1, k + 1):
        out.append(((STAR, j), _apply_rect_step(d, "t1", (STAR, j))[0]))
    for i in range(0, ell + 1):
        out.append(((DSTAR, i), _apply_rect_step(d, "t1", (DSTAR, i))[0]))
    return out


def t2_children_rect(d):
    _check_t2_rect(d)
    k, ell = t2_type_rect(d)
    out = []
    for j in range(1, k + 1):
        out.append(((STAR, j), _apply_rect_step(d, "t2", (STAR, j))[0]))
    for i in range(1, ell + 1):
        out.append(((DSTAR, i), _apply_rect_step(d, "t2", (DSTAR, i))[0]))
    out.append(((TSTAR, None), _apply_rect_step(d, "t2", (TSTAR, None))[0]))
    return out


def trace_of_rect(d, tree):
    """Root-to-node step list identifying d in the tree."""
    (_check_t1_rect if tree == "t1" else _check_t2_rect)(d)
    d = canonical_drawing(d)
    steps = []
    while d.size > 1:
        d, step = (_t1_delete if tree == "t1" else _t2_delete)(d)
        steps.append(step)
    return steps[::-1]


def replay_rect(trace, tree):
    d = size1()
    for step in trace:
        d, _ = _apply_rect_step(d, tree, step)
    return d


def replay_rect_tracked(trace, tree):
    """Replay returning (drawing, order) with order[i] = insertion step
    (1-based) of the rect stored at index i."""
    d = size1()
    labels = [1]
    for t, step in enumerate(trace, 2):
        d, perm = _apply_rect_step(d, tree, step)
        relabeled = [None] * d.size
        for old, new in enumerate(perm):
            relabeled[new] = labels[old] if old < len(labels) else t
        labels = relabeled
        labels[perm[-1]] = t
    return d, labels


# ---------------------------------------------------------------------------
# sequence side


def _check_t1_seq(e, cls):
    if not invseq.class_check(e, cls):
        raise ClassError(f"{e} is not in class {cls}")


def _check_t2_seq(e):
    if not invseq.avoids_all(e, T2_PATTERNS):
        raise ClassError(f"{e} does not avoid {T2_PATTERNS}")


def t1_type_invseq(e, cls="i7"):
    e = tuple(e)
    _check_t1_seq(e, cls)
    m = max(e)
    ext = invseq.extension_values(e, invseq.CLASS_PATTERNS[cls])
    bound = e[-1] if cls == "i7" else m
    return (len(e) - m, sum(1 for u in ext if u < bound))


def t2_type_invseq(e):
    e = tuple(e)
    _check_t2_seq(e)
    m = max(e)
    ext = invseq.extension_values(e, T2_PATTERNS)
    return (len(e) - m, sum(1 for u in ext if 0 < u < m))


def t1_children_invseq(e, cls="i7"):
    """All (step, child) pairs below e: appending each admissible value."""
    e = tuple(e)
    _check_t1_seq(e, cls)
    m = max(e)
    out = []
    for u in invseq.extension_values(e, invseq.CLASS_PATTERNS[cls]):
        child = e + (u,)
        if u > m:
            step = (STAR, u - m)
        else:
            step = (DSTAR, t1_type_invseq(child, cls)[1])
        out.append((step, child))
    return out


def t2_children_invseq(e):
    e = tuple(e)
    _check_t2_seq(e)
    m = max(e)
    mids = [u for u in invseq.extension_values(e, T2_PATTERNS) if 0 < u < m]
    out = []
    for u in invseq.extension_values(e, T2_PATTERNS):
        child = e + (u,)
        if u > m:
            step = (STAR, u - m)
        elif u == 0:
            step = (TSTAR, None)
        else:
            step = (DSTAR, mids.index(u) + 1)
        out.append((step, child))
    return out


def trace_of_invseq(e, tree, cls="i7"):
    e = tuple(e)
    if tree == "t1":
        _check_t1_seq(e, cls)
    else:
        _check_t2_seq(e)
    steps = []
    while len(e) > 1:
        last, prefix = e[-1], e[:-1]
        m = max(prefix)
        if last > m:
            steps.append((STAR, last - m))
        elif tree == "t1":
            steps.append((DSTAR, t1_type_invseq(e, cls)[1]))
        elif last == 0:
            steps.append((TSTAR, None))
        else:
            mids = [u for u in invseq.extension_values(prefix, T2_PATTERNS)
                    if 0 < u < m]
            steps.append((DSTAR, mids.index(last) + 1))
        e = prefix
    return steps[::-1]


def replay_invseq(trace, tree, cls="i7"):
    e = (0,)
    for rule, param in trace:
        m = max(e)
        if rule == STAR:
            e = e + (m + param,)
        elif rule == TSTAR:
            if tree != "t2":
                raise ValueError("t1 has no *** rule")
            e = e + (0,)
        elif tree == "t1":
            matches = [child for step, child in t1_children_invseq(e, cls)
                       if step == (DSTAR, param)]
            if len(matches) != 1:
                raise ValueError(f"no unique ** child with parameter {param}")
            e = matches[0]
        else:
            mids = [u for u in invseq.extension_values(e, T2_PATTERNS)
                    if 0 < u < m]
            e = e + (mids[param - 1],)
    return e


# ---------------------------------------------------------------------------
# counting


TREES = ("t1", "t2")

# Per tree, the level DP so far: [counts of levels 1..m, level m's type
# dict].  Levels are a pure function of the tree, so the record is shared by
# every caller and only ever extended, under the lock so that two threads
# never append the same level twice.
_LEVELS = {}
_LEVELS_LOCK = threading.Lock()


def _next_level(tree, level):
    """Type counts of level m+1 from those of level m."""
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
            top = max(row)
            suf = 0
            for i in range(top, -1, -1):
                suf += row.get(i, 0)
                add((k + 1, i), suf)
    else:
        by_s = {}
        by_k = {}
        for (k, ell), c in level.items():
            by_s.setdefault(k + ell, {})[k] = \
                by_s.setdefault(k + ell, {}).get(k, 0) + c
            by_k.setdefault(k, {})[ell] = c
        for s, col in by_s.items():
            suf = 0
            for a in range(max(col), 0, -1):
                suf += col.get(a, 0)
                add((a, s - a), suf)
        for k, row in by_k.items():
            top = max(row)
            suf = 0
            for b in range(top - 1, -1, -1):
                suf += row.get(b + 1, 0)
                add((k + 1, b), suf)
            add((k + 1, 0), rowsum[k])
    return nxt


def _levels(tree, n):
    """The shared list of level counts of the tree, extended to reach n."""
    if tree not in TREES:
        raise ValueError(f"unknown tree {tree!r}")
    if n < 1:
        raise ValueError("level must be >= 1")
    with _LEVELS_LOCK:
        rec = _LEVELS.setdefault(tree, [[1], {(1, 0): 1}])
        counts = rec[0]
        while len(counts) < n:
            rec[1] = _next_level(tree, rec[1])
            counts.append(sum(rec[1].values()))
    return counts


def level_counts(tree, n):
    """Numbers of nodes on levels 1..n of the tree, as a new list."""
    return _levels(tree, n)[:n]


def count_by_tree(tree, n):
    """Number of level-n nodes, by dynamic programming over types.

    One level DP per tree is kept for the whole process and extended only
    past the deepest level asked for so far, so calls for every n up to N
    together cost one DP to level N; `level_counts` reads the same DP."""
    return _levels(tree, n)[n - 1]


def trace_to_json(trace):
    import json
    return json.dumps([[r] if p is None else [r, p] for r, p in trace])


def trace_from_json(text):
    import json
    out = []
    for item in json.loads(text):
        rule = item[0]
        param = item[1] if len(item) > 1 else None
        out.append((rule, param))
    return out
