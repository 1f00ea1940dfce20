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
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, islice
from operator import add, lt, mul, sub

Box = tuple[int, int, int, int]  # (x0, y0, x1, y1), y up

LEFT, RIGHT, ABOVE, BELOW = "L", "R", "A", "B"


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
        return _json_line(self.width, self.height, map(_box_json, self.rects))


def _box_json(box) -> str:
    return str(list(box))  # an int list prints as JSON does


def _json_line(width, height, box_jsons) -> str:
    """json.dumps of {"width", "height", "rects": lists}, byte for byte,
    from the JSON of each box (_box_json): the one definition of the line
    format, which the universe cache writes with each box formatted once."""
    return '{"width": %d, "height": %d, "rects": [%s]}' % (
        width, height, ", ".join(box_jsons))


class InvalidDrawing(ValueError):
    """Raised when a drawing breaks a structural invariant."""


# ---------------------------------------------------------------------------
# The drawing kernel.  _check is the one validity check.  On valid boxes
# it makes one pass of bulk tests over the box columns: the bounds, the
# cover and the crossings (two corner sets), and one segment per line (the
# ends of the sides on each line).  It sweeps only the masks the NW-SE
# positions read: the rects left of each vertical line and above each
# horizontal one.  After a failed test, _violations names the violations
# from the boxes alone.  The four diagonal orders follow from the cover:
# the NW-SE positions come from the sweep, and order_labels derives the
# others from the stored NW-SE order.  _analyse adds the relation matrix,
# from one more sweep of the vertical sides with NW-SE bits, and
# make_drawing keeps (relations in NW-SE indices, spans by family) as the
# kernel of the drawing it returns, which relations_of, _line_spans,
# segments_of, joints_of, heap_order, order_labels, l_labels,
# canonical_drawing, patterns (T joints, windmills) and gentree (spans by
# line index) read.  Any other drawing gets its kernel on first use, after
# the same checks (_kernel).
#
# A share table is a dict kept across calls; the universe keeps one per
# level.  It holds the relation rows by (m, p), the left-or-right mask with
# top bit 1 << n and the NW-SE position, which determine the row, and every
# other value it shares by itself: boxes, (lo, hi) span pairs, the span
# tuple of a family, contact triples.  Equal values become one object, and
# each distinct row is formatted once.  A row's key has m > p and a span
# pair lo < hi, so the two never meet.
#
# The generating trees grow bare box lists between drawings: they take
# each line's span from _line_sides and leave the lines where their steps
# put them; canonical_drawing lays out the drawing a replay returns.


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


def _line_sides(width, height, boxes):
    """(vlines, hlines): vlines[x] lists the (y0, y1) spans of the box sides
    on line x, for x = 0..W, and hlines[y] the (x0, x1) spans on line y.
    gentree takes the segments of the box lists it grows from these: the
    _merge_runs of an interior line, one run iff it hosts one segment."""
    vlines = [[] for _ in range(width + 1)]
    hlines = [[] for _ in range(height + 1)]
    for x0, y0, x1, y1 in boxes:
        vlines[x0].append((y0, y1))
        vlines[x1].append((y0, y1))
        hlines[y0].append((x0, x1))
        hlines[y1].append((x0, x1))
    return vlines, hlines


# Row characters before and after the diagonal of a relation matrix row, by
# whether the other rect's bit is set in the row's left-or-right mask.
_BEFORE = str.maketrans("01", "BR")
_AFTER = str.maketrans("01", "AL")


# How many violations an error names before it counts the rest.
_NAMED_VIOLATIONS = 5


def _invalid(violations):
    """InvalidDrawing with the first _NAMED_VIOLATIONS violations (read once
    from an iterable) and how many more there are, so that a large bad input
    gives a one-line error: validate's list as .violations, joined by "; "
    as the message."""
    rest = iter(violations)
    named = list(islice(rest, _NAMED_VIOLATIONS))
    more = sum(1 for _ in rest)
    if more:
        named.append(f"and {more} more")
    err = InvalidDrawing("; ".join(named))
    err.violations = named
    return err


def _line_violations(sides, size, name):
    """The interior lines that host other than one segment, from sides
    sorted as (far, lo, hi, near, i): rect i's far side on line far, from
    lo to hi, and its near side on line near.  In an exact cover the far
    sides on a line do not overlap and cover the points its near sides
    cover, so the runs of the far sides are the line's segments."""
    runs, end = Counter(), None
    for far, start, stop, _, _ in sides:
        if (far, start) != end:
            runs[far] += 1
        end = far, stop
    return (f"line {name}={c} hosts {runs[c]} segments"
            for c in range(1, size) if runs[c] != 1)


def _check(width, height, boxes):
    """(pos, vsides, spans) of valid boxes: NW-SE positions, the vertical
    sides sorted as _line_violations takes them, and ((lo, hi) of the
    segment on each vertical line x = 1..W-1, the same per y).  Else raises
    _invalid with the violations _violations names.  The NW-SE order
    follows from the cover, so it needs no test."""
    if width < 1 or height < 1:
        raise _invalid(["bounding box must have positive width and height"])
    n = len(boxes)
    # A wrong count leaves the box unbounded by n; the right one bounds the
    # sweeps below.  _violations gives the reasons for the corner test.
    if n != width + height - 1:
        raise _invalid(_violations(width, height, boxes))
    X0, Y0, X1, Y1 = zip(*boxes)
    plus = {*zip(X0, Y0), *zip(X1, Y1), (width, 0), (0, height)}
    if (min(X0) < 0 or min(Y0) < 0 or max(X1) > width or max(Y1) > height
            or not all(map(lt, X0, X1)) or not all(map(lt, Y0, Y1))
            or len(plus) != 2 * n + 2
            or plus != {*zip(X1, Y0), *zip(X0, Y1), (0, 0), (width, height)}):
        raise _invalid(_violations(width, height, boxes))
    # Sorted by far line, each rect comes after those that end where it
    # starts, so one pass closes the masks: left[x] is the rects left of
    # line x, above[y] those above line y, bit i for rect i.  lo[c] is the
    # start of the lowest far side on line c and hi[c] the end of the
    # highest; line c hosts one segment iff its far sides fill lo..hi.
    vsides = sorted(zip(X1, Y0, Y1, X0, range(n)))
    hsides = sorted(zip(Y1, X0, X1, Y0, range(n)))
    left, vlo, vhi = [0] * (width + 1), [0] * (width + 1), [0] * (width + 1)
    above, hlo, hhi = ([0] * (height + 1), [0] * (height + 1),
                       [0] * (height + 1))
    for far, start, _, _, _ in reversed(vsides):
        vlo[far] = start
    for far, _, end, near, i in vsides:
        left[far] |= 1 << i | left[near]
        vhi[far] = end
    for far, start, _, near, i in reversed(hsides):
        above[near] |= 1 << i | above[far]
        hlo[far] = start
    for far, _, end, _, _ in hsides:
        hhi[far] = end
    if not (len(set(X1)) == width and len(set(Y1)) == height
            and sum(Y1) - sum(Y0) == sum(vhi) - sum(vlo)
            and sum(X1) - sum(X0) == sum(hhi) - sum(hlo)):
        raise _invalid(_violations(width, height, boxes))
    # No endpoint check: take the top end (x, hi) of the segment on line x,
    # hi < H.  No side of line x lies just above hi, so a rect spans x there;
    # it cannot reach below hi, where line x parts two rects, so its bottom
    # side has x strictly inside and lies in the one segment on line hi.  An
    # end anywhere else would leave an L-shaped cell.  So every end lies
    # strictly inside the segment it meets, and no two ends meet.
    #
    # No order check either.  The boxes are now a generic rectangulation: an
    # exact cover, one segment per line, no cross joint.  In one, any two
    # rects are related in exactly one of the four ways (Ackerman, Barequet &
    # Pinter 2006): two whose x-ranges overlap are stacked in the strip they
    # share, two whose y-ranges overlap sit side by side, and a diagonal pair
    # is related through the T joints between them, one way, as only a cross
    # joint could relate it both ways.  "Left of or above" is then the total
    # NW-SE order (Asinowski et al. 2013), so pos runs over 0..n-1, and
    # _analyse already writes "B" or "A" for every rect outside a row's
    # left-or-right mask.  The test reference checks both facts.
    pos = list(map(add, map(int.bit_count, map(left.__getitem__, X0)),
                   map(int.bit_count, map(above.__getitem__, Y1))))
    return pos, vsides, (tuple(zip(vlo[1:width], vhi[1:width])),
                         tuple(zip(hlo[1:height], hhi[1:height])))


def _violations(width, height, boxes):
    """The violations of boxes that fail _check: a wrong rect count, then
    the first failure among the bounds, a box too big for the count, the
    cover, and the lines with the cross joints."""
    n = len(boxes)
    found = []
    if n != width + height - 1:
        found.append(f"{n} rects cannot fill a {width}x{height} box "
                     f"one segment per line (need {width + height - 1})")
    X0, Y0, X1, Y1 = zip(*boxes) if boxes else ((),) * 4
    if (min(X0, default=0) < 0 or min(Y0, default=0) < 0
            or max(X1, default=0) > width or max(Y1, default=0) > height
            or not all(map(lt, X0, X1)) or not all(map(lt, Y0, Y1))):
        bad = next(b for b in boxes if not (0 <= b[0] < b[2] <= width
                                            and 0 <= b[1] < b[3] <= height))
        return found + [f"rect {bad} outside box or degenerate"]
    # A box's indicator is the signed sum of the quadrants at its corners,
    # which are linearly independent, so the boxes tile the box iff SW + NE
    # corners and (W,0), (0,H) equal SE + NW corners and (0,0), (W,H) as
    # multisets.  A tiling has no two equal SW or NE corners, and a SW on a
    # NE corner is a cross joint: as sets of 2n + 2 points, the two sides
    # test the cover and the crossings at once (_check's corner test).
    plus = [*zip(X0, Y0), *zip(X1, Y1), (width, 0), (0, height)]
    minus = [*zip(X1, Y0), *zip(X0, Y1), (0, 0), (width, height)]
    cells = width * height
    # Only a wrong rect count lets the box be huge (W + H = n + 1 bounds
    # W * H by (n + 1)^2 / 4), and its lines would take as long as it is wide.
    huge = 4 * cells > (n + 1) ** 2
    if huge or Counter(plus) != Counter(minus):
        area = sum(map(mul, map(sub, X1, X0), map(sub, Y1, Y0)))
        if area != cells or not huge:
            more = "" if area != cells else ", some more than once"
            found.append("union != bounding box or rects overlap "
                         f"({area} cells covered of {cells}{more})")
        return found
    del plus, minus  # the sides below take as much again
    # An exact cover that _check refused has a wrong count, a cross joint
    # or a line with other than one segment: a crossing or a bad line, one
    # of them certain, is named then.
    crosses = sorted(set(zip(X0, Y0)).intersection(zip(X1, Y1)))
    return chain(
        found,
        _line_violations(sorted(zip(X1, Y0, Y1, X0, range(n))), width, "x"),
        _line_violations(sorted(zip(Y1, X0, X1, Y0, range(n))), height, "y"),
        (f"cross joint at ({x},{y})" for x, y in crosses))


def _analyse(width, height, boxes, shared):
    """(pos, relations in NW-SE indices, spans) of valid boxes (_check),
    the rows and the span tuples taken from the share table shared.  A rect
    before rect i in NW-SE order is left of or above it, one after it right
    of or below it: the x-masks swept with NW-SE bits give each row."""
    pos, vsides, (v, h) = _check(width, height, boxes)
    top = 1 << len(pos)
    bits = [1 << p for p in pos]
    right, left = [0] * (width + 1), [0] * (width + 1)
    for far, _, _, near, i in reversed(vsides):
        right[near] |= bits[i] | right[far]
    # left[near] is closed once the sides on line near have passed.  The
    # key, a row's left-or-right mask with top bit 1 << n and its position
    # p, determines the row.
    rows = [None] * len(pos)
    get = shared.get
    for far, _, _, near, i in vsides:
        left[far] |= bits[i] | left[near]
        p = pos[i]
        mask = right[far] | left[near] | top
        row = get((mask, p))
        if row is None:
            s = format(mask, "b")[::-1]
            row = shared[mask, p] = (s[:p].translate(_BEFORE) + "."
                                     + s[p + 1:-1].translate(_AFTER))
        rows[p] = row
    return pos, tuple(rows), _shared_spans(shared, v, h)


def _shared_spans(shared, v, h):
    """The spans (v, h), each (lo, hi) pair and each family's tuple taken
    from the share table shared."""
    share = shared.setdefault
    v, h = tuple(map(share, v, v)), tuple(map(share, h, h))
    return share(v, v), share(h, h)


def _with_kernel(d, rel, spans):
    object.__setattr__(d, "_kernel", (rel, spans))
    return d


def _kernel(d, shared=None):
    """(relations, spans) of d; a drawing that make_drawing did not build is
    checked first and raises InvalidDrawing if it is not valid.  Its rows
    and spans then come from shared, a share table kept across calls, else
    from one local to the call."""
    if d._kernel is None:
        pos, rel, spans = _analyse(d.width, d.height, d.rects,
                                   {} if shared is None else shared)
        if pos != list(range(len(pos))):
            raise InvalidDrawing("rects not listed in NW-SE order")
        _with_kernel(d, rel, spans)
    return d._kernel


def _line_spans(d):
    """([(lo, hi) per vertical line x = 1..W-1], [the same per y]), one
    object per drawing."""
    return _kernel(d)[1]


def validate(d: RectDrawing) -> list[str]:
    """The violations of d, empty iff d is valid: the first five, then how
    many more, as InvalidDrawing names them.  Builds no relation matrix."""
    try:
        pos = _check(d.width, d.height, d.rects)[0]
    except InvalidDrawing as exc:
        return exc.violations
    if pos != list(range(len(pos))):
        return ["rects not listed in NW-SE order"]
    return []


def make_drawing(width: int, height: int, boxes,
                 shared=None) -> RectDrawing:
    """Build a drawing from unordered boxes, sorting them into NW-SE order;
    raises InvalidDrawing listing the violations as validate does.  Its
    rows and span tuples come from shared, a share table kept across calls
    (see the kernel notes), else from one local to the call."""
    return make_drawing_with_perm(width, height, boxes, shared)[0]


def make_drawing_with_perm(width, height, boxes, shared=None):
    """Like make_drawing; also returns perm with perm[i] = new index of boxes[i]."""
    boxes = [tuple(b) for b in boxes]
    pos, rel, spans = _analyse(width, height, boxes,
                               {} if shared is None else shared)
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


# The most rects a JSON drawing may hold: the kernel's rows and masks grow
# with the square of the count (`rectlab render` on a 16,001-rect strip
# peaked at 361 MB of RSS).  It admits every drawing `rectlab map` prints:
# 2,000 rects under bijections.COMPOSITION_CAP, 2,001 under NW_WORD_CAP.
RECT_CAP = 4000


def from_json(text: str) -> RectDrawing:
    """Decode the JSON wire format; rejects non-integer fields, more than
    RECT_CAP rects and invalid drawings."""
    obj = _json_loads(text, InvalidDrawing)
    if not isinstance(obj, dict) or not isinstance(obj.get("rects"), list):
        raise InvalidDrawing('expected an object with "width", "height" '
                             'and a "rects" list')
    if len(obj["rects"]) > RECT_CAP:
        raise InvalidDrawing(f"{len(obj['rects'])} rects exceed the cap of "
                             f"{RECT_CAP}")
    boxes = []
    for r in obj["rects"]:
        if not isinstance(r, list) or len(r) != 4:
            raise InvalidDrawing(f"rect {_brief(r)} must be a list of 4 "
                                 "integers")
        boxes.append(tuple(_json_int(v, "rect coordinate") for v in r))
    d = RectDrawing(_json_int(obj.get("width"), "width"),
                    _json_int(obj.get("height"), "height"), tuple(boxes))
    _kernel(d)  # one analysis, kept; it names the violations as validate does
    return d


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


def order_labels(d: RectDrawing, ordering: str) -> list[int]:
    """Rect indices listed in the given diagonal ordering: "nw-se", the
    stored order, "sw-ne", which puts each rect after the rects left of or
    below it, or "se-nw" and "ne-sw", their reverses."""
    rel = _kernel(d)[0]
    if ordering in ("nw-se", "se-nw"):
        out = list(range(len(rel)))
    elif ordering in ("sw-ne", "ne-sw"):
        out = [0] * len(rel)
        for i, row in enumerate(rel):
            out[row.count(RIGHT) + row.count(ABOVE)] = i
    else:
        raise ValueError(f"unknown ordering {ordering!r}")
    return out[::-1] if ordering in ("se-nw", "ne-sw") else out


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


def canonical_drawing(d: RectDrawing, shared=None) -> RectDrawing:
    """Redraw so line positions equal their ranks in the heap-order
    extensions: horizontals bottom-to-top by the left-most extension,
    verticals left-to-right by the lowest-first extension.  The rects keep
    their order, and the strong key is unchanged.  The new boxes and span
    tuples go through shared, a share table kept across calls, if given."""
    rel, (v, h) = _kernel(d)
    xr, yr = _extension_ranks(v), _extension_ranks(h)
    boxes = tuple([(xr[x0], yr[y0], xr[x1], yr[y1])
                   for x0, y0, x1, y1 in d.rects])
    if boxes == d.rects:
        return d
    nv, nh = [None] * len(v), [None] * len(h)
    for x, (lo, hi) in enumerate(v, 1):
        nv[xr[x] - 1] = yr[lo], yr[hi]
    for y, (lo, hi) in enumerate(h, 1):
        nh[yr[y] - 1] = xr[lo], xr[hi]
    spans = tuple(nv), tuple(nh)
    if shared is not None:
        boxes = tuple(map(shared.setdefault, boxes, boxes))
        spans = _shared_spans(shared, *spans)
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
    line x = 1..len(rows), the one on line x in row rows[x-1].

    Every such stack is a valid drawing, so its kernel is written down from
    the rows, not derived by make_drawing: the NW-SE order runs row by row
    from the top and left to right within a row, a rect is below every rect
    of the rows above it and above every rect of the rows below it, the
    vertical on line x spans its row and each horizontal spans the box."""
    width = len(rows) + 1
    if height < 1:
        raise InvalidDrawing("bounding box must have positive width and "
                             "height")
    cuts = [[] for _ in range(height)]
    for x, r in enumerate(rows, 1):
        if not 0 <= r < height:
            raise InvalidDrawing(f"strip row {_brief(r)} outside "
                                 f"0..{height - 1}")
        cuts[r].append(x)
    n = width + height - 1
    rects, rel = [], []
    above = 0
    for r in reversed(range(height)):
        xs = [0, *cuts[r], width]
        k = len(xs) - 1
        below = n - above - k
        for t in range(k):
            rects.append((xs[t], r, xs[t + 1], r + 1))
            rel.append("B" * above + "R" * t + "." + "L" * (k - 1 - t)
                       + "A" * below)
        above += k
    spans = tuple((r, r + 1) for r in rows), ((0, width),) * (height - 1)
    return _with_kernel(RectDrawing(width, height, tuple(rects)), tuple(rel),
                        spans)
