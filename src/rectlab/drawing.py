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
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain
from operator import add, lt, or_

Box = tuple[int, int, int, int]  # (x0, y0, x1, y1), y up

LEFT, RIGHT, ABOVE, BELOW = "L", "R", "A", "B"
_INVERSE = {LEFT: RIGHT, RIGHT: LEFT, ABOVE: BELOW, BELOW: ABOVE}

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


@dataclass(frozen=True, slots=True)
class RectDrawing:
    width: int
    height: int
    rects: tuple[Box, ...]
    # (relations, spans) once the drawing is known to be valid; see _kernel.
    # Not part of the value: equality, hash and repr read the fields above.
    _kernel: tuple | None = field(default=None, init=False, repr=False,
                                  compare=False)

    @property
    def size(self) -> int:
        return len(self.rects)

    def to_json(self) -> str:
        # json.dumps of {"width", "height", "rects": lists}, byte for byte:
        # a list of int lists prints as JSON does
        return '{"width": %d, "height": %d, "rects": %s}' % (
            self.width, self.height, list(map(list, self.rects)))


class InvalidDrawing(ValueError):
    """Raised when a drawing breaks a structural invariant."""


# ---------------------------------------------------------------------------
# The drawing kernel.  _analyse checks a drawing's boxes and derives its NW-SE
# order, its relation matrix and the span of the segment on each line in
# one confirming pass of bulk operations over the box columns: the bounds,
# the cover and the crossings from two sets of corners, one segment per
# line and the spans from a sweep of the sides sorted by line, then the
# endpoints, the trichotomy and the total order.  Its first failed test
# hands the boxes to _structure and _nwse, the checks spelt out one by one,
# which raise the first violation; validate lists every violation through
# them.  make_drawing hands the result to the drawing it returns as its
# kernel: (relations in NW-SE indices, segment spans).  relations_of,
# segments_of, joints_of, heap_order, order_labels, l_labels and
# canonical_drawing read the kernel, and outside the validator every
# segment endpoint is read from it: patterns finds T joints and windmills
# from the spans, gentree reads the spans by line index.  A drawing built
# any other way gets its kernel on first use, after the same checks
# (_kernel).  The generating trees grow and shrink bare box lists between
# the drawings they return: they take each line's span from _line_sides,
# as _structure does, and redraw with _rename_lines, as canonical_drawing
# does.


def _report(out, msg):
    """Raise msg as the first violation, or add it to the list out."""
    if out is None:
        raise InvalidDrawing(msg)
    out.append(msg)


def _merge_runs(intervals):
    """Merge closed integer intervals into maximal runs."""
    intervals.sort()
    runs = []
    for lo, hi in intervals:
        if runs and lo <= runs[-1][1]:
            if hi > runs[-1][1]:
                runs[-1] = (runs[-1][0], hi)
        else:
            runs.append((lo, hi))
    return runs


def _cover_violation(width, height, boxes):
    """None if the boxes tile the box exactly, else the violation.

    A box's indicator function is the signed sum of the quadrants at its
    four corners, and quadrants at distinct points are linearly independent,
    so the boxes tile the box exactly iff their signed corner weights add up
    to the box's own.  Linear in the number of boxes, whatever the area."""
    weight = {(0, 0): -1, (width, 0): 1, (0, height): 1, (width, height): -1}
    get = weight.get
    for x0, y0, x1, y1 in boxes:
        weight[x0, y0] = get((x0, y0), 0) + 1
        weight[x1, y0] = get((x1, y0), 0) - 1
        weight[x0, y1] = get((x0, y1), 0) - 1
        weight[x1, y1] = get((x1, y1), 0) + 1
    if not any(weight.values()):
        return None
    area = sum((x1 - x0) * (y1 - y0) for x0, y0, x1, y1 in boxes)
    more = "" if area != width * height else ", some more than once"
    return ("union != bounding box or rects overlap "
            f"({area} cells covered of {width * height}{more})")


def _line_sides(width, height, boxes):
    """(vlines, hlines): vlines[x] lists the (y0, y1) spans of the box sides
    on line x, for x = 0..W, and hlines[y] the (x0, x1) spans on line y.
    _merge_runs of an interior line gives its maximal runs, one iff the
    line hosts one segment."""
    vlines = [[] for _ in range(width + 1)]
    hlines = [[] for _ in range(height + 1)]
    for x0, y0, x1, y1 in boxes:
        vlines[x0].append((y0, y1))
        vlines[x1].append((y0, y1))
        hlines[y0].append((x0, x1))
        hlines[y1].append((x0, x1))
    return vlines, hlines


def _structure(width, height, boxes, out=None):
    """The interior segments (orientation, axis, lo, hi), verticals by x then
    horizontals by y, after the structural checks.

    With out=None the first violation raises InvalidDrawing, cheapest check
    first: rect count, bounds, one segment per line, cover, crossings,
    endpoints.  With a list, every violation is added to it in validate's
    order, where the cover comes before the lines and a bad bound or cover
    ends the list."""
    if width < 1 or height < 1:
        _report(out, "bounding box must have positive width and height")
        return []
    n = len(boxes)
    if n != width + height - 1:
        _report(out, f"{n} rects cannot fill a {width}x{height} box "
                f"one segment per line (need {width + height - 1})")
    for b in boxes:
        x0, y0, x1, y1 = b
        if not (0 <= x0 < x1 <= width and 0 <= y0 < y1 <= height):
            _report(out, f"rect {b} outside box or degenerate")
            return []
    if out is not None:
        if 4 * width * height > (n + 1) ** 2:
            # Reached only with a wrong rect count, as W + H = n + 1 bounds
            # W * H by (n + 1)^2 / 4.  The per-line checks would take as
            # long as the claimed box is wide, so the area ends the list.
            area = sum((x1 - x0) * (y1 - y0) for x0, y0, x1, y1 in boxes)
            if area != width * height:
                out.append("union != bounding box or rects overlap "
                           f"({area} cells covered of {width * height})")
            return []
        bad = _cover_violation(width, height, boxes)
        if bad:
            out.append(bad)
            return []
    vlines, hlines = _line_sides(width, height, boxes)
    segs = []
    for orient, name, lines in (("v", "x", vlines), ("h", "y", hlines)):
        for axis in range(1, len(lines) - 1):
            runs = _merge_runs(lines[axis])
            if len(runs) != 1:
                _report(out, f"line {name}={axis} hosts {len(runs)} segments")
            segs += [(orient, axis, lo, hi) for lo, hi in runs]
    if out is None:
        bad = _cover_violation(width, height, boxes)
        if bad:
            raise InvalidDrawing(bad)
    # Given an exact cover, two segments cross at p iff p is the NE corner
    # of one rect and the SW corner of another.
    ne_corners = {(x1, y1) for _, _, x1, y1 in boxes}
    for x, y in sorted(ne_corners.intersection((x0, y0)
                                               for x0, y0, _, _ in boxes)):
        _report(out, f"cross joint at ({x},{y})")
    # endpoint coincidences and dangling interior endpoints
    hseg = {axis: (lo, hi) for o, axis, lo, hi in segs if o == "h"}
    vseg = {axis: (lo, hi) for o, axis, lo, hi in segs if o == "v"}
    seen = set()
    for o, axis, lo, hi in segs:
        for end in (lo, hi):
            if o == "v":
                if end == 0 or end == height:
                    continue
                pt, host = (axis, end), hseg.get(end)
            else:
                if end == 0 or end == width:
                    continue
                pt, host = (end, axis), vseg.get(end)
            if pt in seen:
                _report(out, f"segment endpoints coincide at ({pt[0]},{pt[1]})")
            seen.add(pt)
            if host is None or not host[0] < axis < host[1]:
                _report(out, f"dangling segment endpoint at ({pt[0]},{pt[1]})")
    return segs


def _closure(boxes, order, near, far, size):
    """mask[c]: the rects whose `near` side (index into a box) lies on line
    c, and transitively every rect beyond them across their `far` side.

    Once each interior line hosts one segment, the rects whose far side is
    on a line are neighbours of all rects whose near side is on it, so the
    rects are taken in `order`, from the far side of the box inwards, each
    adding its own bit and the mask of its far line."""
    mask = [0] * (size + 1)
    for i in order:
        b = boxes[i]
        mask[b[near]] |= 1 << i | mask[b[far]]
    return mask


def _nwse(width, height, boxes, out=None):
    """(pos, right, left) for boxes that passed _structure: pos[i] is rect
    i's NW-SE position, right[i] / left[i] the bitmasks of the rects to its
    right / left.  None (or InvalidDrawing) if some pair of rects is not
    related in exactly one way or the NW-SE relation is not a total order."""
    n = len(boxes)
    by_x = sorted(range(n), key=[b[0] for b in boxes].__getitem__)
    by_y = sorted(range(n), key=[b[1] for b in boxes].__getitem__)
    rmask = _closure(boxes, by_x[::-1], 0, 2, width)  # rects right of x
    lmask = _closure(boxes, by_x, 2, 0, width)        # rects left of x
    amask = _closure(boxes, by_y[::-1], 1, 3, height)  # rects above y
    bmask = _closure(boxes, by_y, 3, 1, height)        # rects below y
    full = (1 << n) - 1
    pos, right, left = [], [], []
    for i, (x0, y0, x1, y1) in enumerate(boxes):
        r, l, a, b = masks = (rmask[x1], lmask[x0], amask[y1], bmask[y0])
        if (r | l | a | b) != full ^ 1 << i or r.bit_count() + \
                l.bit_count() + a.bit_count() + b.bit_count() != n - 1:
            j = next(j for j in range(n) if j != i and
                     sum(m >> j & 1 for m in masks) != 1)
            cands = [c for c, m in zip((LEFT, RIGHT, BELOW, ABOVE), masks)
                     if m >> j & 1]
            _report(out, f"relation trichotomy fails for rects {i},{j}: "
                         f"{cands}")
            return None
        pos.append(l.bit_count() + a.bit_count())
        right.append(r)
        left.append(l)
    if sorted(pos) != list(range(n)):  # a tournament is transitive iff so
        _report(out, "nw-se relation is not a total order")
        return None
    return pos, right, left


# Row characters before and after the diagonal of a relation matrix row, by
# whether the other rect's bit is set in the row's left-or-right mask.
_BEFORE = str.maketrans("01", "BR")
_AFTER = str.maketrans("01", "AL")


def _sweep(sides, bits, size):
    """(fwd, back, lo, hi) over one family of lines, from sides, sorted:
    (far, lo, hi, near, i) for each rect i, its far side on line far and
    its near side on line near.  fwd / back are _closure's masks (the rects
    beyond line c across it, forwards / backwards), with rect i's bit
    bits[i]; lo[c] is the start of the lowest far side on line c and hi[c]
    the end of the highest one, 0 on a line with none.  Sorted by far line,
    each rect comes after those that end where it starts, so one pass each
    way closes the masks."""
    fwd, back = [0] * (size + 1), [0] * (size + 1)
    lo, hi = [0] * (size + 1), [0] * (size + 1)
    for far, start, _, near, i in reversed(sides):
        fwd[near] |= bits[i] | fwd[far]
        lo[far] = start
    for far, _, end, near, i in sides:
        back[far] |= bits[i] | back[near]
        hi[far] = end
    return fwd, back, lo, hi


def _refuse(width, height, boxes):
    """Raise the first violation of boxes that _analyse's pass refused."""
    _structure(width, height, boxes)
    _nwse(width, height, boxes)
    raise RuntimeError("drawing kernel: the bulk checks refused boxes that "
                       f"_structure and _nwse accept: {_brief(boxes)}")


def _analyse(width, height, boxes):
    """(pos, relations in NW-SE indices, spans) of valid boxes; raises
    InvalidDrawing at the first violation.  spans holds lo, hi of the
    segment on each interior line, verticals by x then horizontals by y.

    One confirming pass makes _structure's and _nwse's checks as a few bulk
    operations each; the first that fails hands the boxes to _structure and
    _nwse, which raise the violation they find first."""
    n = len(boxes)
    if width < 1 or height < 1 or n != width + height - 1:
        _refuse(width, height, boxes)
    X0, Y0, X1, Y1 = zip(*boxes)
    if (min(X0) < 0 or min(Y0) < 0 or max(X1) > width or max(Y1) > height
            or not all(map(lt, X0, X1)) or not all(map(lt, Y0, Y1))):
        _refuse(width, height, boxes)
    # The cover is _cover_violation's corner identity, SW + NE corners and
    # (W,0), (0,H) against SE + NW corners and (0,0), (W,H).  A tiling has
    # no two equal SW or NE corners, and a SW corner on a NE corner is a
    # cross joint, so both sides as sets of 2n + 2 points test the cover
    # and the crossings at once.
    plus = {*zip(X0, Y0), *zip(X1, Y1), (width, 0), (0, height)}
    if len(plus) != 2 * n + 2 or plus != {*zip(X1, Y0), *zip(X0, Y1), (0, 0),
                                          (width, height)}:
        _refuse(width, height, boxes)
    bits = [1 << i for i in range(n)]
    vsides = sorted(zip(X1, Y0, Y1, X0, range(n)))
    rmask, lmask, vlo, vhi = _sweep(vsides, bits, width)
    amask, bmask, hlo, hhi = _sweep(sorted(zip(Y1, X0, X1, Y0, range(n))),
                                    bits, height)
    # Once the cover is exact, the sides on a line do not overlap, so the
    # line hosts one segment iff it has sides and they fill lo..hi.
    if (len(set(X1)) != width or len(set(Y1)) != height
            or sum(Y1) - sum(Y0) != sum(vhi) - sum(vlo)
            or sum(X1) - sum(X0) != sum(hhi) - sum(hlo)):
        _refuse(width, height, boxes)
    # Every interior endpoint lies inside the segment on its line.  With
    # one segment per line, no two endpoints can then coincide.
    for x in range(1, width):
        lo, hi = vlo[x], vhi[x]
        if (lo and not hlo[lo] < x < hhi[lo]
                or hi < height and not hlo[hi] < x < hhi[hi]):
            _refuse(width, height, boxes)
    for y in range(1, height):
        lo, hi = hlo[y], hhi[y]
        if (lo and not vlo[lo] < y < vhi[lo]
                or hi < width and not vlo[hi] < y < vhi[hi]):
            _refuse(width, height, boxes)
    # _nwse's trichotomy and total order.  Rect j is right of rect i iff i
    # is left of j, and the same above and below, so the positions (rects
    # left of or above each rect) add up to half the related ordered pairs.
    # If each rect is related to every other one and the positions are
    # 0..n-1, that is n(n-1) pairs, so no pair is related twice.
    left = list(map(lmask.__getitem__, X0))
    above = list(map(amask.__getitem__, Y1))
    right = map(rmask.__getitem__, X1)
    below = map(bmask.__getitem__, Y0)
    related = map(or_, map(or_, right, left), map(or_, above, below))
    full = (1 << n) - 1
    if not all(map(full.__eq__, map(or_, related, bits))):
        _refuse(width, height, boxes)
    pos = list(map(add, map(int.bit_count, left), map(int.bit_count, above)))
    if sorted(pos) != list(range(n)):
        _refuse(width, height, boxes)
    # The relation matrix from the x-masks again, each rect's bit at its
    # NW-SE position.  A rect before rect i in NW-SE order is left of it or
    # above it; one after it is right of or below it.
    rmask, lmask = _sweep(vsides, [1 << p for p in pos], width)[:2]
    top = 1 << n
    rows = [None] * n
    for x0, x1, p in zip(X0, X1, pos):
        s = format(rmask[x1] | lmask[x0] | top, "b")[::-1]
        rows[p] = s[:p].translate(_BEFORE) + "." + s[p + 1:n].translate(_AFTER)
    spans = (*chain.from_iterable(zip(vlo[1:width], vhi[1:width])),
             *chain.from_iterable(zip(hlo[1:height], hhi[1:height])))
    return pos, tuple(rows), spans


def _with_kernel(d, rel, spans):
    object.__setattr__(d, "_kernel", (rel, spans))
    return d


def _kernel(d):
    """(relations, spans) of d; a drawing that make_drawing did not build is
    checked first and raises InvalidDrawing if it is not valid."""
    if d._kernel is None:
        pos, rel, spans = _analyse(d.width, d.height, d.rects)
        if pos != list(range(len(pos))):
            raise InvalidDrawing("rects not listed in NW-SE order")
        _with_kernel(d, rel, spans)
    return d._kernel


def _split_spans(width, spans):
    """([(lo, hi) per vertical line x = 1..W-1], [the same per y]) from
    spans laid out as in the kernel."""
    it = iter(spans)
    pairs = list(zip(it, it))
    return pairs[:width - 1], pairs[width - 1:]


def _line_spans(d):
    """([(lo, hi) per vertical line x = 1..W-1], [the same per y])."""
    return _split_spans(d.width, _kernel(d)[1])


def validate(d: RectDrawing) -> list[str]:
    """All invariant violations of d; empty list iff d is valid."""
    out = []
    _structure(d.width, d.height, d.rects, out)
    if out:
        return out
    order = _nwse(d.width, d.height, d.rects, out)
    if out:
        return out
    if order[0] != list(range(len(d.rects))):
        return ["rects not listed in NW-SE order"]
    return []


def make_drawing(width: int, height: int, boxes) -> RectDrawing:
    """Build a drawing from unordered boxes, sorting them into NW-SE order;
    raises InvalidDrawing at the first violation."""
    return make_drawing_with_perm(width, height, boxes)[0]


def make_drawing_with_perm(width, height, boxes):
    """Like make_drawing; also returns perm with perm[i] = new index of boxes[i]."""
    boxes = [tuple(b) for b in boxes]
    pos, rel, spans = _analyse(width, height, boxes)
    ordered = [None] * len(boxes)
    for i, p in enumerate(pos):
        ordered[p] = boxes[i]
    d = RectDrawing(width, height, tuple(ordered))
    return _with_kernel(d, rel, spans), pos


def _json_int(v, what):
    if type(v) is not int:  # bool is a subclass of int
        raise InvalidDrawing(f"{what} must be an integer, got {_brief(v)}")
    return v


def _brief(v):
    """repr(v) cut to its first 80 characters, so that an error message
    about one item of a large input does not echo the item whole."""
    r = repr(v)
    return r if len(r) <= 80 else r[:80] + "..."


def _json_loads(text, error):
    """json.loads(text), raising error in place of the RecursionError that
    input nested deeper than the recursion limit raises."""
    try:
        return json.loads(text)
    except RecursionError:
        raise error("JSON input nested too deeply") from None


def from_json(text: str) -> RectDrawing:
    """Decode the JSON wire format; rejects non-integer fields and invalid
    drawings."""
    obj = _json_loads(text, InvalidDrawing)
    if not isinstance(obj, dict) or not isinstance(obj.get("rects"), list):
        raise InvalidDrawing('expected an object with "width", "height" '
                             'and a "rects" list')
    boxes = []
    for r in obj["rects"]:
        if not isinstance(r, list) or len(r) != 4:
            raise InvalidDrawing(f"rect {_brief(r)} must be a list of 4 "
                                 "integers")
        boxes.append(tuple(_json_int(v, "rect coordinate") for v in r))
    d = RectDrawing(_json_int(obj.get("width"), "width"),
                    _json_int(obj.get("height"), "height"), tuple(boxes))
    # One analysis for a valid drawing, kept as its kernel; validate runs
    # only to list the violations of an invalid one.
    try:
        _kernel(d)
    except InvalidDrawing:
        raise InvalidDrawing(_first_few(validate(d))) from None
    return d


# How many violations a from_json error names before it counts the rest.
_NAMED_VIOLATIONS = 5


def _first_few(violations):
    """The first _NAMED_VIOLATIONS violations joined by "; ", then how many
    more there are, so that a large bad input gives a one-line error."""
    more = len(violations) - _NAMED_VIOLATIONS
    tail = [f"and {more} more"] if more > 0 else []
    return "; ".join(violations[:_NAMED_VIOLATIONS] + tail)


def segments_of(d: RectDrawing) -> list[Segment]:
    """All n-1 interior segments, verticals (by x) then horizontals (by y)."""
    v, h = _line_spans(d)
    return ([Segment("v", x, lo, hi) for x, (lo, hi) in enumerate(v, 1)]
            + [Segment("h", y, lo, hi) for y, (lo, hi) in enumerate(h, 1)])


def joints_of(d: RectDrawing) -> list[tuple[tuple[int, int], str]]:
    """Interior segment endpoints classified as td / tu / tr / tl joints."""
    v, h = _line_spans(d)
    out = []
    for x, (lo, hi) in enumerate(v, 1):
        if hi < d.height:
            out.append(((x, hi), "td"))
        if lo > 0:
            out.append(((x, lo), "tu"))
    for y, (lo, hi) in enumerate(h, 1):
        if lo > 0:
            out.append(((lo, y), "tr"))
        if hi < d.width:
            out.append(((hi, y), "tl"))
    return sorted(out)


@lru_cache(maxsize=1 << 17)
def relations_of(d: RectDrawing) -> tuple[str, ...]:
    """n x n matrix, entry (i,j) = relation of rect i to rect j."""
    return _kernel(d)[0]


def _order_positions(rel, ordering):
    """pos[i] = position of rect i, or None if not a total order.  Rect j
    comes before rect i iff rel[i][j] is the inverse of an ordering char."""
    a, b = (_INVERSE[c] for c in _ORDER_CHARS[ordering])
    pos = [row.count(a) + row.count(b) for row in rel]
    if sorted(pos) != list(range(len(rel))):  # transitive iff so
        return None
    return pos


def order_labels(d: RectDrawing, ordering: str) -> list[int]:
    """Rect indices listed in the given diagonal ordering."""
    pos = _order_positions(_kernel(d)[0], ordering)
    if pos is None:
        raise InvalidDrawing(f"{ordering} relation is not a total order")
    out = [0] * len(pos)
    for i, p in enumerate(pos):
        out[p] = i
    return out


def l_labels(d: RectDrawing) -> list[int]:
    """Per rectangle, the number of rectangles strictly to its left."""
    return [row.count(RIGHT) for row in _kernel(d)[0]]


def _forced_before(runs):
    """before[j]: bitmask of the pieces forced before piece j, where runs are
    the (lo, hi) spans of the pieces in axis order and closed span overlap
    forces the order; transitively closed."""
    before = [0] * len(runs)
    for j, (lo, hi) in enumerate(runs):
        for i in range(j):
            if runs[i][0] <= hi and lo <= runs[i][1]:
                before[j] |= 1 << i | before[i]
    return before


def heap_order(d: RectDrawing, orientation: str):
    """(pieces, prec) where prec holds (i, j) iff piece i is forced below/left
    of piece j; pieces are the segments of the given orientation in axis order.
    Closed span overlap forces the order; the relation is transitively closed."""
    v, h = _line_spans(d)
    runs = {"v": v, "h": h}.get(orientation, [])
    pieces = [Segment(orientation, a, lo, hi)
              for a, (lo, hi) in enumerate(runs, 1)]
    before = _forced_before(runs)
    prec = {(i, j) for j in range(len(runs)) for i in range(j)
            if before[j] >> i & 1}
    return pieces, prec


def linear_extension(pieces, prec,
                     key=lambda p: (p.lo, p.hi)) -> list[int]:
    """Indices of pieces extracted minimal-first, the lowest key(piece) first
    among minimal ones; the default, lowest span first, gives for
    horizontals the left-most linear extension."""
    remaining = set(range(len(pieces)))
    out = []
    while remaining:
        minimal = [i for i in remaining
                   if not any((j, i) in prec for j in remaining)]
        nxt = min(minimal, key=lambda i: key(pieces[i]))
        out.append(nxt)
        remaining.remove(nxt)
    return out


def _extension_ranks(runs):
    """ranks[a]: the new position of line a, i.e. its rank in the extension
    linear_extension takes, for the pieces with these (lo, hi) spans in axis
    order; ranks[0] and ranks[-1] are the sides of the box."""
    m = len(runs)
    ranks = list(range(m + 2))
    for j in range(1, m):
        if runs[j][0] > runs[j - 1][1] or runs[j - 1][0] > runs[j][1]:
            break
    else:
        return ranks  # neighbours overlap: the forced order is a chain
    order = sorted(range(m), key=runs.__getitem__)  # lowest span first
    for rank, j in enumerate(_extension(runs, order), 1):
        ranks[j + 1] = rank
    return ranks


def _extension(runs, prefer):
    """Indices of the pieces with these (lo, hi) spans in axis order, in the
    linear extension of their forced order that takes, at each step, the
    first piece in prefer (a list of all the indices) whose forced
    predecessors are all taken: linear_extension over heap_order's pieces,
    with one bitmask test per candidate in place of a set probe per pair."""
    before = _forced_before(runs)
    taken = 0
    out = []
    for _ in prefer:
        for j in prefer:
            if not taken >> j & 1 and not before[j] & ~taken:
                break
        taken |= 1 << j
        out.append(j)
    return out


def _rename_lines(width, rects, spans):
    """(boxes, spans) of the rects with each line moved to its rank in the
    heap-order extensions (horizontals bottom-to-top by the left-most
    extension, verticals left-to-right by the lowest-first extension), for
    rects of a valid drawing whose segment spans are laid out as in the
    kernel; the given tuples themselves when no line moves."""
    v, h = _split_spans(width, spans)
    xr, yr = _extension_ranks(v), _extension_ranks(h)
    boxes = tuple([(xr[x0], yr[y0], xr[x1], yr[y1])
                   for x0, y0, x1, y1 in rects])
    if boxes == rects:
        return rects, spans
    out = [0] * len(spans)
    for x, (lo, hi) in enumerate(v, 1):
        k = 2 * (xr[x] - 1)
        out[k], out[k + 1] = yr[lo], yr[hi]
    for y, (lo, hi) in enumerate(h, 1):
        k = 2 * (len(v) + yr[y] - 1)
        out[k], out[k + 1] = xr[lo], xr[hi]
    return boxes, tuple(out)


def canonical_drawing(d: RectDrawing) -> RectDrawing:
    """Redraw so line positions equal the ranks of the heap-order extensions
    (see _rename_lines).  Strong key is unchanged."""
    rel, spans = _kernel(d)
    boxes, spans = _rename_lines(d.width, d.rects, spans)
    if boxes is d.rects:
        return d
    # Every segment keeps its neighbours on renamed lines, so the relations,
    # and with them the NW-SE order of the rects, stay as they are.
    return _with_kernel(RectDrawing(d.width, d.height, boxes), rel, spans)


def contacts_of(d: RectDrawing):
    """Sorted positive-length side contacts: ("h", i, j) for i left of j,
    ("v", i, j) for i below j.  Reads the boxes alone, through per-line
    lists of the rects by their left and by their bottom side, after the
    checks a drawing make_drawing did not build gets (_kernel)."""
    _kernel(d)
    rects = d.rects
    by_left = [[] for _ in range(d.width)]
    by_bottom = [[] for _ in range(d.height)]
    for j, (x0, y0, _, _) in enumerate(rects):
        by_left[x0].append(j)
        by_bottom[y0].append(j)
    # i ascending, and each line's list in j order: both parts come sorted
    h, v = [], []
    for i, (x0, y0, x1, y1) in enumerate(rects):
        if x1 < d.width:
            for j in by_left[x1]:
                _, b0, _, b1 = rects[j]
                if b0 < y1 and y0 < b1:
                    h.append(("h", i, j))
        if y1 < d.height:
            for j in by_bottom[y1]:
                a0, _, a1, _ = rects[j]
                if a0 < x1 and x0 < a1:
                    v.append(("v", i, j))
    return tuple(h + v)


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


def strip_drawing(height: int, rows) -> RectDrawing:
    """A stack of height full-width rows with one unit vertical per interior
    line x = 1..len(rows), the one on line x in row rows[x-1]."""
    width = len(rows) + 1
    boxes = []
    for r in range(height):
        cuts = [0] + [x for x, rr in enumerate(rows, 1) if rr == r] + [width]
        boxes += [(cuts[t], r, cuts[t + 1], r + 1)
                  for t in range(len(cuts) - 1)]
    return make_drawing(width, height, boxes)
