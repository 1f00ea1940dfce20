"""Containment predicates for the joint-pattern catalog and the guillotine test.

Patterns are named by their wire ids: "td", "tu", "tr", "tl" for the four
T-joint orientations, "wm+" / "wm-" for the two windmill chiralities.
"""

from __future__ import annotations

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


@lru_cache(maxsize=1 << 16)
def is_guillotine(d: RectDrawing) -> bool:
    """True iff d decomposes recursively by full cuts.  A part (x0, y0, x1,
    y1) that is not one rect needs one: a line whose one segment spans the
    part.  A vertical cut is a side of a rect on the part's bottom, and a
    horizontal one of a rect on its left, so walks along those two sides,
    one from each end of each side until the two meet, find a cut.  Found
    at step j, it has at least j - 1 segments on each side (the walk from
    the other end passed them), so each search is paid by the smaller side:
    n log n steps in all, however deep the cuts nest.  Parts still to cut
    wait on a stack."""
    v, h = _line_spans(d)  # raises: an invalid drawing
    rects = set(d.rects)
    # walking a part's bottom east or west, or its left side north or south:
    # a rect's corner there, (coordinate along the side, the other), to the
    # coordinate of its next corner
    east, west, north, south = (
        {(r[a], r[b]): r[c] for r in d.rects}
        for a, b, c in ((0, 1, 2), (2, 1, 0), (1, 0, 3), (3, 0, 1)))
    parts = [(0, 0, d.width, d.height)]
    while parts:
        part = x0, y0, x1, y1 = parts.pop()
        if part in rects:
            continue
        e, w, n, s = x0, x1, y0, y1
        while e < w or n < s:
            if e < w:
                e, w = east[e, y0], west[w, y0]
                x = (e if e < x1 and v[e - 1][1] == y1 else
                     w if w > x0 and v[w - 1][1] == y1 else 0)
                if x:
                    parts += [(x0, y0, x, y1), (x, y0, x1, y1)]
                    break
            if n < s:
                n, s = north[n, x0], south[s, x0]
                y = (n if n < y1 and h[n - 1][1] == x1 else
                     s if s > y0 and h[s - 1][1] == x1 else 0)
                if y:
                    parts += [(x0, y0, x1, y), (x0, y, x1, y1)]
                    break
        else:
            return False
    return True
