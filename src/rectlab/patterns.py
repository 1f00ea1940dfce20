"""Containment predicates for the joint-pattern catalog and the guillotine test.

Patterns are named by their wire ids: "td", "tu", "tr", "tl" for the four
T-joint orientations, "wm+" / "wm-" for the two windmill chiralities.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache

from .drawing import RectDrawing, _line_spans, joints_of, segments_of

TD, TU, TR, TL = "td", "tu", "tr", "tl"
WINDMILL_CW, WINDMILL_CCW = "wm+", "wm-"
PATTERNS = (TD, TU, TR, TL, WINDMILL_CW, WINDMILL_CCW)

_T_KINDS = {TD, TU, TR, TL}


def _windmills(d):
    """4-cycles of segments each ending on the next, split by chirality.

    Segments are indexed in segments_of order.  A joint at (x, y) joins the
    vertical at index x - 1 and the horizontal at index W - 2 + y; its kind
    says which of the two ends there.  A windmill has exactly one td and one
    tu joint, so each is found once, from its td edge; the validator's ban
    on shared endpoints makes its four segments distinct.  Each cycle starts
    at its lowest index and each list is sorted."""
    host = {}  # (segment, kind of its end) -> the segment it ends on
    for (x, y), kind in joints_of(d):
        v, h = x - 1, d.width - 2 + y
        if kind in (TD, TU):
            host[v, kind] = h
        else:
            host[h, kind] = v
    cw, ccw = [], []
    for (a, kind), b in host.items():
        if kind != TD:
            continue
        # chirality: which endpoint the horizontal after the td edge uses
        for follow, out in ((TL, cw), (TR, ccw)):
            c = host.get((b, follow))
            e = host.get((c, TU))
            if e is not None and a in (host.get((e, TR)), host.get((e, TL))):
                out.append((a, b, c, e) if a < c else (c, e, a, b))
    segs = segments_of(d)
    return ([tuple(segs[i] for i in cyc) for cyc in sorted(cw)],
            [tuple(segs[i] for i in cyc) for cyc in sorted(ccw)])


def occurrences(d: RectDrawing, pattern: str):
    """Witnesses of the pattern in d (joint points / windmill quadruples)."""
    if pattern in _T_KINDS:
        return [(pt, kind) for pt, kind in joints_of(d) if kind == pattern]
    cw, ccw = _windmills(d)
    if pattern == WINDMILL_CW:
        return cw
    if pattern == WINDMILL_CCW:
        return ccw
    raise ValueError(f"unknown pattern {pattern!r}")


def _has_joint(d, spans, kind):
    """Does d, with these _line_spans, have a T joint of this kind?
    joints_of's test of one segment end, made for any segment, without
    listing and sorting the joints."""
    v, h = spans
    if kind == TD:
        return any(hi < d.height for _, hi in v)
    if kind == TU:
        return any(lo > 0 for lo, _ in v)
    if kind == TR:
        return any(lo > 0 for lo, _ in h)
    return any(hi < d.width for _, hi in h)


def contains(d: RectDrawing, pattern: str) -> bool:
    if pattern in _T_KINDS:
        return _has_joint(d, _line_spans(d), pattern)
    return bool(occurrences(d, pattern))


def avoids_all(d: RectDrawing, patterns) -> bool:
    # one read of the spans serves every T kind, one search both chiralities
    spans = windmills = None
    for p in patterns:
        if p in _T_KINDS:
            if spans is None:
                spans = _line_spans(d)
            if _has_joint(d, spans, p):
                return False
        elif p in (WINDMILL_CW, WINDMILL_CCW):
            if windmills is None:
                windmills = dict(zip((WINDMILL_CW, WINDMILL_CCW),
                                     _windmills(d)))
            if windmills[p]:
                return False
        elif contains(d, p):  # raises: an unknown pattern
            return False
    return True


def _cut(boxes, a, lo, hi, across):
    """Boxes that tile a part from line lo to line hi on axis a (0: x,
    1: y), across long on the other axis, cut at all of its full cuts on
    axis a at once: (start, end, boxes) per slab, or [] when it has none.
    A line is a full cut iff the sides of the boxes that end on it add up
    to across, so one pass over the boxes finds them all."""
    cover = [0] * (hi - lo + 1)
    for b in boxes:
        cover[b[a + 2] - lo] += b[3 - a] - b[1 - a]
    cuts = [lo + i for i, s in enumerate(cover) if s == across]  # hi last
    if len(cuts) == 1:
        return []
    slabs = [[] for _ in cuts]
    for b in boxes:
        slabs[bisect_right(cuts, b[a])].append(b)
    return list(zip([lo, *cuts], cuts, slabs))


@lru_cache(maxsize=1 << 16)
def is_guillotine(d: RectDrawing) -> bool:
    """True iff d decomposes recursively by full cuts.  Each part is cut at
    all of its full vertical cuts, or else at all of its full horizontal
    ones; the parts still to cut wait on a stack, as a drawing can nest
    one cut per rect (a staircase, peeling one rect at each cut)."""
    parts = [(d.rects, 0, 0, d.width, d.height)]
    while parts:
        boxes, x0, y0, x1, y1 = parts.pop()
        if len(boxes) == 1:
            continue
        if slabs := _cut(boxes, 0, x0, x1, y1 - y0):
            parts += [(s, lo, y0, hi, y1) for lo, hi, s in slabs]
        elif slabs := _cut(boxes, 1, y0, y1, x1 - x0):
            parts += [(s, x0, lo, x1, hi) for lo, hi, s in slabs]
        else:
            return False
    return True
