import time

import pytest

from rectlab import patterns, universe
from rectlab.drawing import (RECT_CAP, InvalidDrawing, RectDrawing, joints_of,
                             make_drawing, reflect, segments_of, strip_drawing)
from rectlab.patterns import (TD, TL, TR, TU, avoids_all, contains,
                              is_guillotine, occurrences)


def _ref_ends_on(segs):
    """Directed edges (i, kind, j): an endpoint of segs[i] lies in the open
    interior of segs[j]; kind is the joint formed there."""
    out = []
    for i, s in enumerate(segs):
        for j, t in enumerate(segs):
            if s.orientation == t.orientation:
                continue
            if s.orientation == "v":
                if t.axis == s.hi and t.lo < s.axis < t.hi:
                    out.append((i, TD, j))
                if t.axis == s.lo and t.lo < s.axis < t.hi:
                    out.append((i, TU, j))
            else:
                if t.axis == s.lo and t.lo < s.axis < t.hi:
                    out.append((i, TR, j))
                if t.axis == s.hi and t.lo < s.axis < t.hi:
                    out.append((i, TL, j))
    return out


def _ref_windmills(d):
    """Reference windmill search: every 4-cycle of the quadratic "ends on"
    graph over segments_of, split by chirality, in discovery order."""
    segs = segments_of(d)
    nxt = {}
    for i, kind, j in _ref_ends_on(segs):
        nxt.setdefault(i, []).append((kind, j))
    cw, ccw = [], []
    seen = set()
    for a in range(len(segs)):
        for k1, b in nxt.get(a, ()):
            for k2, c in nxt.get(b, ()):
                for k3, e in nxt.get(c, ()):
                    for k4, f in nxt.get(e, ()):
                        if f != a or len({a, b, c, e}) != 4:
                            continue
                        key = frozenset((a, b, c, e))
                        if key in seen:
                            continue
                        seen.add(key)
                        kinds = dict(zip((a, b, c, e), (k1, k2, k3, k4)))
                        # chirality: which endpoint the horizontal after the
                        # TD edge uses (tl = one sense, tr = the other)
                        cyc = (a, b, c, e)
                        for idx in range(4):
                            if kinds[cyc[idx]] == TD:
                                follow = kinds[cyc[(idx + 1) % 4]]
                                occ = tuple(segs[x] for x in cyc)
                                (cw if follow == TL else ccw).append(occ)
                                break
    return cw, ccw


def test_t_joint_containment(v2, d3, d3p):
    assert contains(d3, "td") and not contains(d3, "tu")
    assert contains(d3p, "tu") and not contains(d3p, "td")
    for p in ("td", "tu", "tr", "tl", "wm+", "wm-"):
        assert not contains(v2, p)


def test_avoids_all(one, d3, d3p):
    assert avoids_all(d3p, ("td",))
    assert not avoids_all(d3, ("td",))
    assert avoids_all(one, ("td", "tu", "tr", "tl", "wm+", "wm-"))


def test_pinwheel_has_one_windmill(pinwheel):
    occs = occurrences(pinwheel, "wm+") + occurrences(pinwheel, "wm-")
    assert len(occs) == 1
    assert len(occs[0]) == 4
    mirrored = reflect(pinwheel, "vertical")
    assert contains(pinwheel, "wm+") != contains(mirrored, "wm+")
    assert contains(pinwheel, "wm-") != contains(mirrored, "wm-")


def test_guillotine(v2, pinwheel):
    assert is_guillotine(v2)
    assert not is_guillotine(pinwheel)


def test_guillotine_iff_windmill_free_small():
    for n in range(1, 6):
        for d in universe.enumerate_strong(n):
            assert is_guillotine(d) == avoids_all(d, ("wm+", "wm-"))


def _ref_guillotine(boxes, x0, y0, x1, y1):
    """is_guillotine on the boxes tiling [x0, x1] x [y0, y1], as a
    recursion with one call per cut."""
    if len(boxes) == 1:
        return True
    for x in range(x0 + 1, x1):
        if all(b[2] <= x or b[0] >= x for b in boxes):
            left = [b for b in boxes if b[2] <= x]
            right = [b for b in boxes if b[0] >= x]
            return (_ref_guillotine(left, x0, y0, x, y1)
                    and _ref_guillotine(right, x, y0, x1, y1))
    for y in range(y0 + 1, y1):
        if all(b[3] <= y or b[1] >= y for b in boxes):
            low = [b for b in boxes if b[3] <= y]
            high = [b for b in boxes if b[1] >= y]
            return (_ref_guillotine(low, x0, y0, x1, y)
                    and _ref_guillotine(high, x0, y, x1, y1))
    return False


def test_guillotine_matches_the_recursive_reference():
    refused = 0
    for n in range(1, 8):
        for d in universe.enumerate_strong(n):
            got = is_guillotine(d)
            assert got == _ref_guillotine(d.rects, 0, 0, d.width, d.height)
            refused += not got
    assert refused  # the windmills of n = 5 and 6


def test_guillotine_cuts_a_strip_deeper_than_the_recursion_limit():
    """A one-row strip has one cut per rect, past the 1,000 frames a
    recursion gets."""
    assert is_guillotine(strip_drawing(1, [0] * 1499))


def _staircase(m, core, side):
    """A column peeled off the left, then a row off the bottom, m times,
    around core: boxes filling a side x side box."""
    w = m + side
    return make_drawing(w, w, [
        *(b for k in range(m)
          for b in ((k, k, k + 1, w), (k + 1, k, w, k + 1))),
        *((x0 + m, y0 + m, x1 + m, y1 + m) for x0, y0, x1, y1 in core)])


def test_guillotine_cuts_a_staircase_deeper_than_the_recursion_limit(
        pinwheel):
    """A staircase of 600 steps nests 1,200 cuts, each part holding the
    next: the parts wait on a stack."""
    assert is_guillotine(_staircase(600, [(0, 0, 1, 1)], 1))
    assert not is_guillotine(_staircase(600, pinwheel.rects, 3))


def _best_time(d):
    """The best time of five is_guillotine runs on the guillotine drawing
    d."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        assert is_guillotine.__wrapped__(d)  # past the lru_cache
        times.append(time.perf_counter() - start)
    return min(times)


def test_guillotine_cuts_a_strip_in_linear_time():
    """All the cuts of a one-row strip are found in one pass: ten times the
    rects take about ten times as long, not a hundred."""
    def best(rects):
        return _best_time(strip_drawing(1, [0] * (rects - 1)))

    ratio = best(RECT_CAP) / best(RECT_CAP // 10)
    assert ratio < 30, ratio


def _cut_rows(k):
    """k full-width rows, each cut once on a vertical line of its own, from
    the middle row outwards: most of a row's vertical lines host other
    rows' segments."""
    xs = sorted(range(1, k + 1), key=lambda x: abs(2 * x - k - 1))
    return make_drawing(k + 1, k, [b for y, x in enumerate(xs) for b in (
        (0, y, x, y + 1), (x, y, k + 1, y + 1))])


def test_guillotine_cuts_a_staircase_in_n_log_n_time():
    """Nested cuts are found from the ends of each part, so a staircase that
    peels one rect per cut costs no more than a strip: ten times the rects
    take about ten times as long, not a hundred.  The search walks the rects
    along a part's sides, not its lines, as a row cut in its middle shows."""
    for build in (lambda rects: _staircase(rects // 2, [(0, 0, 1, 1)], 1),
                  lambda rects: _cut_rows(rects // 2)):
        ratio = (_best_time(build(RECT_CAP))
                 / _best_time(build(RECT_CAP // 10)))
        assert ratio < 30, ratio


def test_guillotine_refuses_an_invalid_drawing_as_contains_does():
    """is_guillotine reads the segments from the drawing kernel, so an
    invalid literal raises on first use instead of being cut."""
    cross = RectDrawing(2, 2, ((0, 0, 1, 1), (1, 0, 2, 1), (0, 1, 1, 2),
                               (1, 1, 2, 2)))
    gap = RectDrawing(3, 1, ((0, 0, 1, 1), (2, 0, 3, 1)))
    for d in (cross, gap):
        for test in (lambda d: contains(d, TD), is_guillotine):
            with pytest.raises(InvalidDrawing):
                test(d)


def test_td_avoiders_reach_top():
    for n in range(1, 6):
        for d in universe.enumerate_strong(n):
            reaches = all(s.hi == d.height for s in segments_of(d)
                          if s.orientation == "v")
            assert reaches == (not contains(d, "td"))


def test_windmills_match_the_reference(ctx):
    # a pinwheel in the centre of one of the same chirality: the inner td
    # vertical comes first, the outer cycle's lowest segment index first
    nested = make_drawing(5, 5, [
        (0, 0, 4, 1), (4, 0, 5, 4), (1, 4, 5, 5), (0, 1, 1, 5),
        (1, 1, 3, 2), (3, 1, 4, 3), (2, 3, 4, 4), (1, 2, 2, 4), (2, 2, 3, 3)])
    assert len(occurrences(nested, "wm-")) == 2
    for d in [nested] + [d for n in range(1, 8) for d in ctx.strong(n)]:
        cw, ccw = _ref_windmills(d)
        assert occurrences(d, "wm+") == cw, d
        assert occurrences(d, "wm-") == ccw, d


def test_avoids_all_searches_windmills_once_per_drawing(ctx, monkeypatch):
    """Both chiralities come from one _windmills call; occurrences and
    contains still find the reference windmills."""
    drawings = [d for n in range(1, 7) for d in ctx.strong(n)]
    search = patterns._windmills
    calls = []

    def counted(d):
        calls.append(d)
        return search(d)

    monkeypatch.setattr(patterns, "_windmills", counted)
    free = [avoids_all(d, ("wm+", "wm-")) for d in drawings]
    assert len(calls) == len(drawings)
    for d, ok in zip(drawings, free):
        cw, ccw = _ref_windmills(d)
        assert occurrences(d, "wm+") == cw and occurrences(d, "wm-") == ccw
        assert contains(d, "wm+") == bool(cw)
        assert contains(d, "wm-") == bool(ccw)
        assert ok == (not cw and not ccw), d


def test_t_joint_containment_reads_the_spans(ctx):
    """contains and avoids_all test a T kind on the spans; joints_of, which
    lists and sorts the joints, is the reference."""
    for d in [d for n in range(1, 8) for d in ctx.strong(n)]:
        kinds = {kind for _, kind in joints_of(d)}
        for kind in (TD, TU, TR, TL):
            assert contains(d, kind) == (kind in kinds), (d, kind)
            assert avoids_all(d, (kind,)) == (kind not in kinds), (d, kind)
            assert occurrences(d, kind) == [j for j in joints_of(d)
                                            if j[1] == kind]
        assert avoids_all(d, (TD, TU, TR, TL)) == (not kinds), d
