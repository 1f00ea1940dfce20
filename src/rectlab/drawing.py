"""Integer-coordinate data model for generic rectangulations.

A drawing partitions the ``[0,W] x [0,H]`` box into axis-aligned rectangles
so that every interior grid line hosts exactly one maximal segment and no
two segments cross or share an endpoint.  For a drawing of n rectangles this
forces ``W + H = n + 1``.  Rectangles are stored in NW-SE order (left-of or
above comes first), with y increasing upward.

All values are immutable and all operations are pure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

Box = tuple[int, int, int, int]  # (x0, y0, x1, y1), y up

LEFT, RIGHT, ABOVE, BELOW = "L", "R", "A", "B"
_INVERSE = {LEFT: RIGHT, RIGHT: LEFT, ABOVE: BELOW, BELOW: ABOVE}

ORDERINGS = ("nw-se", "sw-ne", "se-nw", "ne-sw")
# Characters of relations_of(x, y) that put x before y in each ordering.
_ORDER_CHARS = {
    "nw-se": (LEFT, ABOVE),
    "sw-ne": (LEFT, BELOW),
    "se-nw": (RIGHT, BELOW),
    "ne-sw": (RIGHT, ABOVE),
}


@dataclass(frozen=True)
class Segment:
    orientation: str  # "v" or "h"
    axis: int         # x for vertical, y for horizontal
    lo: int
    hi: int

    @property
    def ends(self):
        if self.orientation == "v":
            return (self.axis, self.lo), (self.axis, self.hi)
        return (self.lo, self.axis), (self.hi, self.axis)


@dataclass(frozen=True)
class RectDrawing:
    width: int
    height: int
    rects: tuple[Box, ...]

    @property
    def size(self) -> int:
        return len(self.rects)

    def to_json(self) -> str:
        return json.dumps(
            {"width": self.width, "height": self.height,
             "rects": [list(r) for r in self.rects]}
        )


class InvalidDrawing(ValueError):
    """Raised when a drawing breaks a structural invariant."""


def _merge_runs(intervals):
    """Merge closed integer intervals into maximal runs."""
    runs = []
    for lo, hi in sorted(intervals):
        if runs and lo <= runs[-1][1]:
            runs[-1][1] = max(runs[-1][1], hi)
        else:
            runs.append([lo, hi])
    return [(lo, hi) for lo, hi in runs]


def _line_runs(boxes, width, height):
    """Maximal segment runs per interior grid line, or None on bad boxes."""
    vlines = {x: [] for x in range(1, width)}
    hlines = {y: [] for y in range(1, height)}
    for (x0, y0, x1, y1) in boxes:
        if not (0 <= x0 < x1 <= width and 0 <= y0 < y1 <= height):
            return None, None
        if 0 < x0 < width:
            vlines[x0].append((y0, y1))
        if 0 < x1 < width:
            vlines[x1].append((y0, y1))
        if 0 < y0 < height:
            hlines[y0].append((x0, x1))
        if 0 < y1 < height:
            hlines[y1].append((x0, x1))
    return ({x: _merge_runs(iv) for x, iv in vlines.items()},
            {y: _merge_runs(iv) for y, iv in hlines.items()})


def _structure_violations(width, height, boxes):
    """Violations of the tiling / genericity invariants (order not checked)."""
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
        # Reached only with a wrong rect count, as W + H = n + 1 bounds W * H
        # by (n + 1)^2 / 4.  The cover is checked by area here: a cover grid
        # would be as large as the claimed box, however few rects there are.
        area = sum((x1 - x0) * (y1 - y0) for x0, y0, x1, y1 in boxes)
        if area != width * height:
            out.append("union != bounding box or rects overlap "
                       f"({area} cells covered of {width * height})")
        return out
    # exact cover of unit cells
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
    vruns, hruns = _line_runs(boxes, width, height)
    segs = []
    for x in range(1, width):
        runs = vruns.get(x, [])
        if len(runs) != 1:
            out.append(f"line x={x} hosts {len(runs)} segments")
        segs += [Segment("v", x, lo, hi) for lo, hi in runs]
    for y in range(1, height):
        runs = hruns.get(y, [])
        if len(runs) != 1:
            out.append(f"line y={y} hosts {len(runs)} segments")
        segs += [Segment("h", y, lo, hi) for lo, hi in runs]
    # crossings
    for v in segs:
        if v.orientation != "v":
            continue
        for h in segs:
            if h.orientation != "h":
                continue
            if h.lo < v.axis < h.hi and v.lo < h.axis < v.hi:
                out.append(f"cross joint at ({v.axis},{h.axis})")
    # endpoint coincidences and dangling interior endpoints
    seen = {}
    hseg = {s.axis: s for s in segs if s.orientation == "h"}
    vseg = {s.axis: s for s in segs if s.orientation == "v"}
    for s in segs:
        for (px, py) in s.ends:
            on_boundary = (s.orientation == "v" and py in (0, height)) or \
                          (s.orientation == "h" and px in (0, width))
            if on_boundary:
                continue
            if (px, py) in seen:
                out.append(f"segment endpoints coincide at ({px},{py})")
            seen[(px, py)] = s
            if s.orientation == "v":
                t = hseg.get(py)
                if t is None or not (t.lo < px < t.hi):
                    out.append(f"dangling segment endpoint at ({px},{py})")
            else:
                t = vseg.get(px)
                if t is None or not (t.lo < py < t.hi):
                    out.append(f"dangling segment endpoint at ({px},{py})")
    return out


def validate(d: RectDrawing) -> list[str]:
    """All invariant violations of d; empty list iff d is valid."""
    out = _structure_violations(d.width, d.height, d.rects)
    if out:
        return out
    try:
        rel = _relations(d.width, d.height, d.rects)
    except InvalidDrawing as exc:
        return [str(exc)]
    order = _order_positions(rel, "nw-se")
    if order is None:
        return ["nw-se relation is not a total order"]
    if order != list(range(len(d.rects))):
        return ["rects not listed in NW-SE order"]
    return []


def make_drawing(width: int, height: int, boxes, *, check=True) -> RectDrawing:
    """Build a drawing from unordered boxes, sorting them into NW-SE order."""
    d, _ = make_drawing_with_perm(width, height, boxes, check=check)
    return d


def make_drawing_with_perm(width, height, boxes, *, check=True):
    """Like make_drawing; also returns perm with perm[i] = new index of boxes[i]."""
    boxes = [tuple(b) for b in boxes]
    if check:
        bad = _structure_violations(width, height, boxes)
        if bad:
            raise InvalidDrawing("; ".join(bad))
    rel = _relations(width, height, boxes)
    pos = _order_positions(rel, "nw-se")
    if pos is None:
        raise InvalidDrawing("nw-se relation is not a total order")
    ordered = [None] * len(boxes)
    for i, p in enumerate(pos):
        ordered[p] = boxes[i]
    return RectDrawing(width, height, tuple(ordered)), pos


def _json_int(v, what):
    if type(v) is not int:  # bool is a subclass of int
        raise InvalidDrawing(f"{what} must be an integer, got {v!r}")
    return v


def from_json(text: str) -> RectDrawing:
    """Decode the JSON wire format; rejects non-integer fields and invalid
    drawings."""
    obj = json.loads(text)
    if not isinstance(obj, dict) or not isinstance(obj.get("rects"), list):
        raise InvalidDrawing('expected an object with "width", "height" '
                             'and a "rects" list')
    boxes = []
    for r in obj["rects"]:
        if not isinstance(r, list) or len(r) != 4:
            raise InvalidDrawing(f"rect {r!r} must be a list of 4 integers")
        boxes.append(tuple(_json_int(v, "rect coordinate") for v in r))
    d = RectDrawing(_json_int(obj.get("width"), "width"),
                    _json_int(obj.get("height"), "height"), tuple(boxes))
    bad = validate(d)
    if bad:
        raise InvalidDrawing("; ".join(bad))
    return d


def segments_of(d: RectDrawing) -> list[Segment]:
    """All n-1 interior segments, verticals (by x) then horizontals (by y)."""
    vruns, hruns = _line_runs(d.rects, d.width, d.height)
    segs = [Segment("v", x, lo, hi)
            for x in range(1, d.width) for lo, hi in vruns[x]]
    segs += [Segment("h", y, lo, hi)
             for y in range(1, d.height) for lo, hi in hruns[y]]
    return segs


def joints_of(d: RectDrawing) -> list[tuple[tuple[int, int], str]]:
    """Interior segment endpoints classified as td / tu / tr / tl joints."""
    segs = segments_of(d)
    out = []
    for s in segs:
        if s.orientation == "v":
            if s.hi < d.height:
                out.append(((s.axis, s.hi), "td"))
            if s.lo > 0:
                out.append(((s.axis, s.lo), "tu"))
        else:
            if s.lo > 0:
                out.append(((s.lo, s.axis), "tr"))
            if s.hi < d.width:
                out.append(((s.hi, s.axis), "tl"))
    return sorted(out)


def _reach_closure(n, direct):
    """Reachability bitmasks of a DAG given direct-successor sets."""
    reach = [0] * n
    order = list(range(n))
    changed = True
    while changed:  # n is tiny; fixpoint iteration is fine
        changed = False
        for i in order:
            m = reach[i]
            for j in direct[i]:
                m |= (1 << j) | reach[j]
            if m != reach[i]:
                reach[i] = m
                changed = True
    return reach


def _neighbor_lists(boxes, width, height):
    """Per vertical segment (left rects, right rects); same for horizontal."""
    vruns, hruns = _line_runs(boxes, width, height)
    vpairs, hpairs = [], []
    for x in range(1, width):
        for lo, hi in vruns[x]:
            lefts = [i for i, b in enumerate(boxes)
                     if b[2] == x and lo <= b[1] and b[3] <= hi]
            rights = [i for i, b in enumerate(boxes)
                      if b[0] == x and lo <= b[1] and b[3] <= hi]
            vpairs.append((lefts, rights))
    for y in range(1, height):
        for lo, hi in hruns[y]:
            bottoms = [i for i, b in enumerate(boxes)
                       if b[3] == y and lo <= b[0] and b[2] <= hi]
            tops = [i for i, b in enumerate(boxes)
                    if b[1] == y and lo <= b[0] and b[2] <= hi]
            hpairs.append((bottoms, tops))
    return vpairs, hpairs


def _relations(width, height, boxes) -> tuple[str, ...]:
    n = len(boxes)
    right_of = [set() for _ in range(n)]   # i -> rects right of i (direct)
    above_of = [set() for _ in range(n)]
    vpairs, hpairs = _neighbor_lists(boxes, width, height)
    for lefts, rights in vpairs:
        for i in lefts:
            right_of[i].update(rights)
    for bottoms, tops in hpairs:
        for i in bottoms:
            above_of[i].update(tops)
    r_reach = _reach_closure(n, right_of)
    a_reach = _reach_closure(n, above_of)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                row.append(".")
                continue
            cands = []
            if r_reach[i] >> j & 1:
                cands.append(LEFT)
            if r_reach[j] >> i & 1:
                cands.append(RIGHT)
            if a_reach[i] >> j & 1:
                cands.append(BELOW)
            if a_reach[j] >> i & 1:
                cands.append(ABOVE)
            if len(cands) != 1:
                raise InvalidDrawing(
                    f"relation trichotomy fails for rects {i},{j}: {cands}")
            row.append(cands[0])
        rows.append("".join(row))
    return tuple(rows)


@lru_cache(maxsize=1 << 17)
def relations_of(d: RectDrawing) -> tuple[str, ...]:
    """n x n matrix, entry (i,j) = relation of rect i to rect j."""
    return _relations(d.width, d.height, d.rects)


def _order_positions(rel, ordering):
    """pos[i] = position of rect i, or None if not a total order."""
    chars = _ORDER_CHARS[ordering]
    n = len(rel)
    pos = [sum(rel[j][i] in chars for j in range(n)) for i in range(n)]
    if sorted(pos) != list(range(n)):  # a tournament is transitive iff so
        return None
    return pos


def order_labels(d: RectDrawing, ordering: str) -> list[int]:
    """Rect indices listed in the given diagonal ordering."""
    pos = _order_positions(relations_of(d), ordering)
    if pos is None:
        raise InvalidDrawing(f"{ordering} relation is not a total order")
    out = [0] * len(pos)
    for i, p in enumerate(pos):
        out[p] = i
    return out


def l_labels(d: RectDrawing) -> list[int]:
    """Per rectangle, the number of rectangles strictly to its left."""
    rel = relations_of(d)
    n = len(rel)
    return [sum(rel[j][i] == LEFT for j in range(n)) for i in range(n)]


def heap_order(d: RectDrawing, orientation: str):
    """(pieces, prec) where prec holds (i, j) iff piece i is forced below/left
    of piece j; pieces are the segments of the given orientation in axis order.
    Closed span overlap forces the order; the relation is transitively closed."""
    pieces = [s for s in segments_of(d) if s.orientation == orientation]
    pieces.sort(key=lambda s: s.axis)
    n = len(pieces)
    direct = [set() for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if pieces[i].axis < pieces[j].axis and \
                    pieces[i].lo <= pieces[j].hi and pieces[j].lo <= pieces[i].hi:
                direct[i].add(j)
    reach = _reach_closure(n, direct)
    prec = {(i, j) for i in range(n) for j in range(n) if reach[i] >> j & 1}
    return pieces, prec


def linear_extension(pieces, prec) -> list[int]:
    """Indices of pieces extracted minimal-first, lowest span first among
    minimal ones (for horizontals that is the left-most linear extension)."""
    remaining = set(range(len(pieces)))
    out = []
    while remaining:
        minimal = [i for i in remaining
                   if not any((j, i) in prec for j in remaining)]
        nxt = min(minimal, key=lambda i: (pieces[i].lo, pieces[i].hi))
        out.append(nxt)
        remaining.remove(nxt)
    return out


def canonical_drawing(d: RectDrawing) -> RectDrawing:
    """Redraw so line positions equal the ranks of the heap-order extensions
    (horizontals bottom-to-top by the left-most extension, verticals
    left-to-right by the lowest-first extension).  Strong key is unchanged."""
    hpieces, hprec = heap_order(d, "h")
    vpieces, vprec = heap_order(d, "v")
    ymap = {0: 0, d.height: d.height}
    for rank, idx in enumerate(linear_extension(hpieces, hprec)):
        ymap[hpieces[idx].axis] = rank + 1
    xmap = {0: 0, d.width: d.width}
    for rank, idx in enumerate(linear_extension(vpieces, vprec)):
        xmap[vpieces[idx].axis] = rank + 1
    boxes = [(xmap[x0], ymap[y0], xmap[x1], ymap[y1])
             for (x0, y0, x1, y1) in d.rects]
    return make_drawing(d.width, d.height, boxes)


def contacts_of(d: RectDrawing):
    """Sorted positive-length side contacts: ("h", i, j) for i left of j,
    ("v", i, j) for i below j."""
    out = []
    n = d.size
    for i in range(n):
        x0, y0, x1, y1 = d.rects[i]
        for j in range(n):
            if i == j:
                continue
            a0, b0, a1, b1 = d.rects[j]
            if x1 == a0 and min(y1, b1) > max(y0, b0):
                out.append(("h", i, j))
            if y1 == b0 and min(x1, a1) > max(x0, a0):
                out.append(("v", i, j))
    return tuple(sorted(out))


def weak_key(d: RectDrawing):
    """Canonical identity of the weak equivalence class."""
    return relations_of(d)


def strong_key(d: RectDrawing):
    """Canonical identity of the strong equivalence class."""
    return (relations_of(d), contacts_of(d))


def reflect(d: RectDrawing, axis: str) -> RectDrawing:
    """Mirror image; axis "horizontal" flips top-bottom, "vertical" flips
    left-right."""
    if axis == "horizontal":
        boxes = [(x0, d.height - y1, x1, d.height - y0)
                 for (x0, y0, x1, y1) in d.rects]
    elif axis == "vertical":
        boxes = [(d.width - x1, y0, d.width - x0, y1)
                 for (x0, y0, x1, y1) in d.rects]
    else:
        raise ValueError(f"unknown axis {axis!r}")
    return make_drawing(d.width, d.height, boxes)


def boundary_touch_counts(d: RectDrawing) -> tuple[int, int, int, int]:
    """(nN, nE, nS, nW): how many rects touch each side of the box."""
    n_ = sum(b[3] == d.height for b in d.rects)
    e = sum(b[2] == d.width for b in d.rects)
    s = sum(b[1] == 0 for b in d.rects)
    w = sum(b[0] == 0 for b in d.rects)
    return (n_, e, s, w)


def is_diagonal(d: RectDrawing) -> bool:
    """Does the NW-SE corner-to-corner line meet every open rect interior?"""
    W, H = d.width, d.height
    for (x0, y0, x1, y1) in d.rects:
        # points (tW, H - tH); need t-intervals (x0/W, x1/W) and
        # ((H-y1)/H, (H-y0)/H) to intersect; compare with cross products
        lo = max(x0 * H, (H - y1) * W)
        hi = min(x1 * H, (H - y0) * W)
        if lo >= hi:
            return False
    return True


def ne_rect_index(d: RectDrawing) -> int:
    for i, b in enumerate(d.rects):
        if b[2] == d.width and b[3] == d.height:
            return i
    raise InvalidDrawing("no NE rectangle")


def size1() -> RectDrawing:
    """The degenerate one-rectangle drawing."""
    return RectDrawing(1, 1, ((0, 0, 1, 1),))
