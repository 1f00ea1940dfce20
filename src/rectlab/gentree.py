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

On drawings, a replay and a trace each analyse one drawing: the steps in
between grow or shrink bare box lists, and only the drawing a replay returns
(or the one a trace reads) goes through the drawing kernel.  The traces of
one level extend those of the level above, so `replay_levels` replays a
whole level at one step and one drawing per member, growing each member's
boxes from its parent's.
"""

from __future__ import annotations

import json
import threading
from itertools import accumulate, chain
from operator import add
from typing import NamedTuple

from . import invseq
from .drawing import (InvalidDrawing, RectDrawing, _brief, _json_loads,
                      _kernel, _segments, canonical_drawing,
                      make_drawing_with_perm, ne_rect_index)
from .patterns import contains

STAR, DSTAR, TSTAR = "*", "**", "***"

TREES = ("t1", "t2")

T2_PATTERNS = ("011", "201")


class ClassError(ValueError):
    """Input object is outside the tree's class."""


# ---------------------------------------------------------------------------
# rectangulation side: shared helpers
#
# Between the drawings they return, the tree operations carry bare boxes
# (_Boxes) in whatever layout of their strong class the steps leave.  Every
# builder, delete and step parameter reads only orders of touching segments
# (the E-rects down the east side, the N-rects along the top, the lines that
# end on one vertical, the td joints on one horizontal), which a strong class
# fixes in any layout (Asinowski et al. 2013).  make_drawing checks the one
# drawing that is returned, and canonical_drawing lays it out.


def _check_tree(tree):
    if tree not in TREES:
        raise ValueError(f"unknown tree {tree!r}")


def _check_rect(d, tree):
    """Refuse an unknown tree, or a drawing outside the tree's class: t1
    takes the drawings without a td joint, t2 those without a tu joint."""
    _check_tree(tree)
    joint, side = ("td", "N") if tree == "t1" else ("tu", "S")
    if contains(d, joint):
        raise ClassError(f"drawing has a vertical segment not reaching {side}")


# Largest node (sequence length, rect count) that a replay, a trace or a
# sequence-side node check takes: on random members each takes at most
# 0.03 s at 200 on a 2-core Xeon, and the cost grows about as the square of
# the size (up to 0.76 s at 800, a drawing-side replay or trace).
NODE_CAP = 200


def _check_size(n):
    if n > NODE_CAP:
        raise ValueError(f"tree node of size {n} exceeds the cap {NODE_CAP}")


def _require(cond, msg):
    if not cond:
        raise InvalidDrawing(msg)


def _check_param(rule, param):
    """Refuse a "*" or "**" parameter that is not an int (bool is a
    subclass of int, and 1.0 and True compare equal to 1)."""
    if rule != TSTAR and type(param) is not int:
        raise ValueError(f"{rule} parameter must be an int, got {param!r}")


class _Boxes(NamedTuple):
    """The rects of a drawing, in any order, with its box and the spans of
    its segments as the drawing kernel keeps them: ([(lo, hi) per vertical
    line x = 1..W-1], [the same per y])."""
    width: int
    height: int
    rects: tuple
    spans: tuple


_ROOT = _Boxes(1, 1, ((0, 0, 1, 1),), ((), ()))


def _view(d):
    """The boxes of the drawing d."""
    return _Boxes(d.width, d.height, d.rects, _kernel(d)[1])


def _with_spans(width, height, boxes):
    """The boxes, in their order and on their lines, with the span of the
    one segment on each interior line, from the far sides of each family
    (_segments); a line with other than one segment is refused."""
    boxes = tuple(boxes)
    X0, Y0, X1, Y1 = zip(*boxes)
    spans = []
    for sides, size in ((zip(X1, Y0, Y1), width), (zip(Y1, X0, X1), height)):
        runs = _segments(sorted(sides), size)
        # one run a line iff no line is empty and size - 1 runs in all
        spans.append(tuple(chain.from_iterable(runs)))
        _require(all(runs) and len(spans[-1]) == size - 1,
                 "a line hosts more than one segment")
    return _Boxes(width, height, boxes, tuple(spans))


def _e_rects_top_down(d):
    return sorted((i for i, b in enumerate(d.rects) if b[2] == d.width),
                  key=lambda i: -d.rects[i][3])


def _n_rects_left_right(d):
    return sorted((i for i, b in enumerate(d.rects) if b[3] == d.height),
                  key=lambda i: d.rects[i][0])


def _left_neighbor_lines(g, x, y_lo, y_hi):
    """Lines of horizontal segments whose right endpoint sits on the open
    part of the vertical line x between y_lo and y_hi."""
    h = g.spans[1]
    return [y for y in range(y_lo + 1, y_hi) if h[y - 1][1] == x]


def _active_td_joints(g):
    """Active top-joint positions (vertical top ends inside a horizontal
    that reaches the right side), ordered right to left."""
    v, h = g.spans
    return [(x, hi) for x, (_, hi) in enumerate(v, 1)
            if hi < g.height and h[hi - 1][1] == g.width][::-1]


# ---------------------------------------------------------------------------
# t1 on rectangulations (every vertical segment reaches the top side)


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

    boxes = [(a, sh(b), c, p if r == ne else sh(dd))
             for r, (a, b, c, dd) in enumerate(d.rects)]
    return d.width, d.height + 1, boxes, (x0, p, d.width, d.height + 1)


def _t1_delete(d):
    """Remove the NE rectangle; returns (the parent's boxes, step)."""
    ne = ne_rect_index(d)
    x0, y0, _, _ = d.rects[ne]
    v, h = d.spans
    star = y0 == 0 or (x0 > 0 and v[x0 - 1][0] == y0)
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
        parent = _with_spans(d.width - 1, d.height, boxes)
        step = (STAR, j)
    else:
        below = [i for i, b in enumerate(d.rects) if b[3] == y0]
        _require(len(below) == 1, "expected a single rectangle below the shelf")
        yb = d.rects[below[0]][1]
        _require(d.rects[below[0]][0] == x0 and h[y0 - 1][0] == x0,
                 "shelf does not span the NE rectangle")
        i_param = len(_left_neighbor_lines(d, x0, y0, d.height))
        boxes = []
        for i, (a, b, c, dd) in enumerate(d.rects):
            if i == ne:
                continue
            if i == below[0]:
                a, b, c, dd = x0, yb, d.width, d.height
            boxes.append((a, b - (b > y0), c, dd - (dd > y0)))
        parent = _with_spans(d.width, d.height - 1, boxes)
        step = (DSTAR, i_param)
    return parent, step


# ---------------------------------------------------------------------------
# t2 on rectangulations (every vertical segment reaches the bottom side)


def _t2_star_build(d, j):
    nrects = _n_rects_left_right(d)
    _require(1 <= j <= len(nrects), f"star parameter {j} out of range")
    x_star = d.rects[nrects[len(nrects) - j]][0]
    boxes = [(a, b, c, dd + (1 if dd == d.height and c <= x_star else 0))
             for (a, b, c, dd) in d.rects]
    return d.width, d.height + 1, boxes, (x_star, d.height, d.width,
                                          d.height + 1)


def _t2_tstar_build(d, param):
    _require(param is None, f"tstar takes no parameter, got {param!r}")
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
    """Remove the NE rectangle; returns (the parent's boxes, step)."""
    ne = ne_rect_index(d)
    x0, y0, _, _ = d.rects[ne]
    if y0 == 0:
        _require(x0 == d.width - 1, "NE column wider than one cell")
        boxes = [b for i, b in enumerate(d.rects) if i != ne]
        parent = _with_spans(x0, d.height, boxes)
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
            parent = _with_spans(d.width, d.height - 1, boxes)
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
            parent = _with_spans(d.width, d.height - 1, boxes)
            step = (DSTAR, i_param)
    return parent, step


def _td_joints_on(d, y, x_left):
    """Number of vertical segments whose top endpoint lies strictly inside
    the horizontal segment at line y (which spans [x_left, W])."""
    v = d.spans[0]
    return sum(1 for x in range(x_left + 1, d.width) if v[x - 1][1] == y)


# ---------------------------------------------------------------------------
# public rectangulation-side operations


_RECT_BUILDS = {
    ("t1", STAR): _t1_star_build,
    ("t1", DSTAR): _t1_dstar_build,
    ("t2", STAR): _t2_star_build,
    ("t2", DSTAR): _t2_dstar_build,
    ("t2", TSTAR): _t2_tstar_build,
}


def _grow(g, tree, step):
    """The boxes of the child of g that the step names."""
    rule, param = step
    build = _RECT_BUILDS.get((tree, rule))
    if build is None:
        raise ValueError(f"{tree} has no {rule} rule")
    _check_param(rule, param)
    width, height, boxes, new = build(g, param)
    return _with_spans(width, height, boxes + [new])


def _drawing(g):
    """(canonical drawing, perm) of the boxes, perm[i] being the index of
    g.rects[i] in the drawing."""
    d, perm = make_drawing_with_perm(g.width, g.height, g.rects)
    return canonical_drawing(d), perm


def type_rect(d: RectDrawing, tree):
    """The type (k, ell) of d in the tree.  On t1, k counts the E-rects and
    ell the left neighbors of the NE rect; on t2, k counts the N-rects and
    ell the active td joints."""
    _check_rect(d, tree)
    g = _view(d)
    if tree == "t1":
        ne = d.rects[ne_rect_index(d)]
        return (len(_e_rects_top_down(d)),
                len(_left_neighbor_lines(g, ne[0], ne[1], d.height)))
    return (len(_n_rects_left_right(d)), len(_active_td_joints(g)))


def children_rect(d: RectDrawing, tree):
    """All (step, child) pairs below d in the tree: the "*" steps, then the
    "**" steps, then (t2 only) the "***" step."""
    k, ell = type_rect(d, tree)
    steps = [(STAR, j) for j in range(1, k + 1)]
    if tree == "t1":
        steps += [(DSTAR, i) for i in range(ell + 1)]
    else:
        steps += [(DSTAR, i) for i in range(1, ell + 1)] + [(TSTAR, None)]
    g = _view(d)
    return [(step, _drawing(_grow(g, tree, step))[0]) for step in steps]


def trace_of_rect(d, tree):
    """Root-to-node step list identifying d in the tree.  Only d itself is
    analysed: the deletes shrink its boxes."""
    _check_tree(tree)
    _check_size(d.size)
    _check_rect(d, tree)
    g = _view(d)
    delete = _t1_delete if tree == "t1" else _t2_delete
    steps = []
    while len(g.rects) > 1:
        g, step = delete(g)
        steps.append(step)
    return steps[::-1]


def replay_rect(trace, tree):
    return replay_rect_tracked(trace, tree)[0]


def replay_rect_tracked(trace, tree):
    """Replay returning (drawing, order) with order[i] = insertion step
    (1-based) of the rect stored at index i.  The boxes stay in insertion
    order through the steps, and only the last drawing is built."""
    _check_tree(tree)
    _check_size(len(trace) + 1)
    g = _ROOT
    for step in trace:
        g = _grow(g, tree, step)
    d, perm = _drawing(g)
    order = [0] * len(perm)
    for t, i in enumerate(perm, 1):  # boxes[t - 1] came with step t
        order[i] = t
    return d, order


def replay_levels(tree, n):
    """Yield, for m = 1..n, {e: drawing} over the level-m sequences e of the
    tree in lexicographic order (class i7 for t1, I(011,201) for t2), each
    drawing equal to replay_rect(trace_of_invseq(e, tree), tree).  The traces
    of a level extend those of the level above, so each member's boxes and
    avoidance state grow by one step from its parent's, and only the last
    level's boxes are held."""
    _check_tree(tree)
    if n < 1:
        raise ValueError("level must be >= 1")
    cls = "i7"
    root, signs, (state,) = _walk((0,), tree, cls)
    # a member carries its avoidance state and the admissible values that
    # list its children
    level = [(root, _ROOT, state, invseq._allowed(state, 1))]
    for m in range(1, n + 1):
        if m > 1:
            children = []
            for e, g, state, ext in level:
                for u in ext:
                    step, kid, kid_ext = _child(e, u, tree, cls, signs, state)
                    children.append((e + (u,), _grow(g, tree, step), kid,
                                     kid_ext))
            level = children
        yield {e: _drawing(g)[0] for e, g, _, _ in level}


# ---------------------------------------------------------------------------
# sequence side
#
# A node is a non-empty sequence in the tree's class, and its children append
# each admissible value u: the u <= len(e) whose bit is clear in the
# forbidden mask of e's avoidance state.  One walk from the root (0,), one
# avoidance step per entry, checks a sequence and keeps each prefix's state;
# the classes are closed under prefixes, so each prefix is a node.


def _walk(e, tree, cls):
    """(e as a tuple, the class's avoidance signs, the avoidance states of
    e[:1], e[:2], ..., e) once e is a non-empty sequence in the tree's
    class, that is once no entry's bit is set in the forbidden mask of the
    prefix before it.  The class of t1 is cls, as the avoiders of its four
    patterns (class_check's structural class); t2 ignores cls."""
    _check_tree(tree)
    e = invseq.check_invseq(e)
    if not e:
        raise ClassError("the empty sequence is not a tree node")
    _check_size(len(e))
    if tree == "t1" and cls not in invseq.CLASS_PATTERNS:
        raise ValueError(f"unknown class {cls!r}")
    pats = invseq.CLASS_PATTERNS[cls] if tree == "t1" else T2_PATTERNS
    signs, state = invseq._avoidance([invseq._pattern(p) for p in pats])
    states = [invseq._extend(state, 0, signs)]
    for v in e[1:]:
        if states[-1][1] >> v & 1:
            raise ClassError(f"{_brief(e)} is not in class {cls}"
                             if tree == "t1" else
                             f"{_brief(e)} does not avoid {T2_PATTERNS}")
        states.append(invseq._extend(states[-1], v, signs))
    return e, signs, states


def _free(state, lo, hi):
    """The number of values lo..hi-1 that a node in the avoidance state
    admits; hi is at most the node's length."""
    return ((~state[1] & (1 << hi) - 1) >> lo).bit_count()


def _type_seq(e, tree, cls, state):
    """The type of the node e in the avoidance state."""
    m = max(e)
    lo, hi = (0, e[-1] if cls == "i7" else m) if tree == "t1" else (1, m)
    return (len(e) - m, _free(state, lo, hi))


def _step(e, u, tree, cls, state, kid):
    """The step that appends the admissible value u to the node e, from the
    avoidance states of e and of e + (u,): a t2 "**" step ranks u among e's
    admissible values, and a t1 "**" step types the child."""
    m = max(e)
    if u > m:
        return (STAR, u - m)
    if tree == "t1":
        return (DSTAR, _type_seq(e + (u,), tree, cls, kid)[1])
    if u == 0:
        return (TSTAR, None)
    return (DSTAR, _free(state, 1, u + 1))


def _child(e, u, tree, cls, signs, state):
    """(step, avoidance state, admissible values) of the child e + (u,) of
    the node e in the avoidance state."""
    kid = invseq._extend(state, u, signs)
    return (_step(e, u, tree, cls, state, kid), kid,
            invseq._allowed(kid, len(e) + 1))


def type_invseq(e, tree, cls="i7"):
    """The type of the sequence e in the tree; t2 ignores cls."""
    e, _, states = _walk(e, tree, cls)
    return _type_seq(e, tree, cls, states[-1])


def children_invseq(e, tree, cls="i7"):
    """All (step, child) pairs below e: appending each admissible value."""
    e, signs, states = _walk(e, tree, cls)
    state = states[-1]
    return [(_step(e, u, tree, cls, state, invseq._extend(state, u, signs)),
             e + (u,)) for u in invseq._allowed(state, len(e))]


def trace_of_invseq(e, tree, cls="i7"):
    e, _, states = _walk(e, tree, cls)
    return [_step(e[:j], e[j], tree, cls, states[j - 1], states[j])
            for j in range(1, len(e))]


def replay_invseq(trace, tree, cls="i7"):
    """Append, for each step, the one admissible value it names, searching
    from the largest value down.  The sequence carries its avoidance state
    and admissible values from step to step, as in replay_levels."""
    e, signs, (state,) = _walk((0,), tree, cls)
    _check_size(len(trace) + 1)
    ext = invseq._allowed(state, 1)
    for rule, param in trace:
        _check_param(rule, param)
        for u in reversed(ext):
            step, kid, kid_ext = _child(e, u, tree, cls, signs, state)
            if step == (rule, param):
                break
        else:
            raise ValueError(f"{tree} has no step {(rule, param)} "
                             f"below {_brief(e)}")
        e, state, ext = e + (u,), kid, kid_ext
    return e


# ---------------------------------------------------------------------------
# counting


# Per tree, the level DP so far: [counts of levels 1..m, level m's rows].
# Levels are a pure function of the tree, so the record is shared by every
# caller and only ever extended, under the lock so that two threads never
# append the same level twice.
_LEVELS = {}
_LEVELS_LOCK = threading.Lock()


def _next_level(tree, level):
    """Type counts of level m+1 from those of level m.  A level is a list of
    rows: level[k - 1][ell] counts the nodes of type (k, ell), and at level m
    every type has k + ell <= m, so row k holds m + 1 - k counts.

    Each rule adds a suffix sum of a row (or, for t2's first rule, of a
    diagonal k + ell = s) to a child row, slice by slice."""
    sufs = [list(accumulate(reversed(row)))[::-1] for row in level]
    if tree == "t1":
        # (a, k - a) for a = 1..k from every node of row k
        rowsum = [suf[0] for suf in sufs]
        firsts = [rowsum[a:] + [0] for a in range(len(level))]
        # (k + 1, i) from the nodes of row k with ell >= i
        seconds = sufs
    else:
        # (a, s - a) from the nodes of types (k, s - k) with k >= a: the
        # diagonal sums, from the last row up
        diag = [level[-1]]
        for row in reversed(level[:-1]):
            diag.append(list(map(add, row, [0, *diag[-1]])))
        firsts = [d + [0] for d in reversed(diag)]
        # (k + 1, b) from the nodes of row k with ell > b, and (k + 1, 0)
        # from all of them
        seconds = [[suf[0] + suf[1], *suf[2:], 0] if len(suf) > 1 else suf
                   for suf in sufs]
    return [firsts[0], *(list(map(add, f, g))
                         for f, g in zip(firsts[1:] + [[0]], seconds))]


# Deepest level the DP computes.  Level m costs about m^2 big-integer steps,
# so the DP to n costs about n^3: 0.24 to 0.34 s for t1 (0.42 to 0.49 s for
# t2) to n = 200 on a 2-core Xeon, 4.3 s more to n = 400, and every level's
# count stays in the shared record.  It is also paths.RUSHED_CAP and so
# cli.COUNT_CAP, the largest n counted from any class-table row.
LEVEL_CAP = 200


def _levels(tree, n):
    """The shared list of level counts of the tree, extended to reach n."""
    _check_tree(tree)
    if n < 1:
        raise ValueError("level must be >= 1")
    if n > LEVEL_CAP:
        raise ValueError(f"level {n} exceeds the cap {LEVEL_CAP}")
    with _LEVELS_LOCK:
        rec = _LEVELS.setdefault(tree, [[1], [[1]]])
        counts = rec[0]
        while len(counts) < n:
            rec[1] = _next_level(tree, rec[1])
            counts.append(sum(map(sum, rec[1])))
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
    return json.dumps([[r] if p is None else [r, p] for r, p in trace])


def trace_from_json(text):
    """The trace written by `trace_to_json`: a list of [rule, int] steps for
    "*" and "**", and [rule] or [rule, null] for "***"."""
    items = _json_loads(text, ValueError)
    if not isinstance(items, list):
        raise ValueError("a trace is a JSON list of steps")
    out = []
    for item in items:
        if isinstance(item, list) and len(item) in (1, 2):
            rule, param = item[0], (item[1] if len(item) == 2 else None)
            if (param is None if rule == TSTAR else
                    rule in (STAR, DSTAR) and type(param) is int):
                out.append((rule, param))
                continue
        raise ValueError(f"bad trace step {_brief(item)}: expected "
                         f"[\"*\", int], [\"**\", int] or [\"***\"]")
    return out
