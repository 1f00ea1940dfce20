"""Exhaustive enumeration of all strong / weak generic rectangulations.

Ground truth for every count in the package, built by reverse search
(Avis & Fukuda 1996): every class of size n > 1 has exactly one parent of
size n - 1, and each class is built once, from its parent.

The parent of a drawing D comes from deleting its NE rectangle R.  Exactly
one of R's two inner sides lies on a segment that ends at R's SW corner
(a side of the box counts as such a segment); retracting that side removes
R.  The inverse operations build the children of a parent P:

* left insertion: for each j = 1..k, with k the number of rects on P's east
  side, the top j of them end on a new vertical segment N from the bottom
  y_b of the j-th up to the top, and the new NE rect fills the space right
  of N.  N's foot sits in one gap between the verticals whose top ends on
  line y_b; a gap is feasible when no vertical that must lie right of N is
  forced, by span overlap, to lie left of one that must lie left of N.  The
  vertical lines are then laid out afresh: everything forced left of N in
  its present order, then N, then the rest in their present order, so that
  gaps the given coordinates hide are reached too;
* bottom insertion: the same on the transposed drawing.

Every child goes through make_drawing, with all its structural checks, and
a class built twice raises, so the uniqueness the search relies on is
checked on every run.

With a cache dir, each level is stored once, and never read back in the
call that built it: a strong build stores level n and its weak level (the
first strong representative of each weak class wins), and each distinct
box of a level is formatted once per store.

tests/test_universe.py keeps a grid-tiling DFS that dedupes by key
(_dfs_strong, over the tilings of test_drawing._ref_tilings) as the oracle
this generator is tested against.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from itertools import product
from pathlib import Path

from . import patterns
from .drawing import InvalidDrawing  # noqa: F401 (re-exported)
from .drawing import (RectDrawing, _box_json, _forced_before, _json_line,
                      _kernel, canonical_drawing, contacts_of,
                      make_drawing, size1, strip_drawing, strong_key,
                      weak_key)

DEFAULT_MAX_N = 7


def _left_insertions(width, height, rects, vspans):
    """Box lists of the left insertions into the drawing of these rects,
    each in a (width + 1) x height box; vspans holds (lo, hi) of the
    vertical segment on each line x = 1..width-1."""
    before = _forced_before(vspans)
    erects = sorted((i for i, b in enumerate(rects) if b[2] == width),
                    key=lambda i: -rects[i][3])
    ending = set()  # the rects that end on N
    for i in erects:
        ending.add(i)
        y_b = rects[i][1]
        # left: the lines forced left of N, closed downwards; right: the
        # verticals ending on line y_b right of N's foot
        left, down = 0, []
        for a, (lo, hi) in enumerate(vspans):
            if hi > y_b:
                left |= 1 << a | before[a]
            elif hi == y_b:
                down.append(a)
        right = sum(1 << a for a in down)
        for g in range(len(down) + 1):
            if g:
                a = down[g - 1]
                left |= 1 << a | before[a]
                right ^= 1 << a
            if left & right:
                continue
            # the lines in left, then N on line xn, then the rest, each part
            # in its present order
            xn = left.bit_count() + 1
            xmap = [0] * width + [width + 1]
            x_left, x_right = 1, xn + 1
            for a in range(width - 1):
                if left >> a & 1:
                    xmap[a + 1], x_left = x_left, x_left + 1
                else:
                    xmap[a + 1], x_right = x_right, x_right + 1
            boxes = [(xmap[x0], y0, xn if k in ending else xmap[x1], y1)
                     for k, (x0, y0, x1, y1) in enumerate(rects)]
            boxes.append((xn, y_b, width + 1, height))
            yield boxes


def _transpose(boxes):
    return [(y0, x0, y1, x1) for x0, y0, x1, y1 in boxes]


def _children(p, shared=None):
    """The drawings whose parent is p: its left insertions, then its bottom
    insertions.  shared, a share table kept across calls (see the kernel
    notes in drawing), serves every child, and the first-use analysis of
    p when p comes from the cache; without it, the call keeps its own.  A
    build passes its level's table."""
    shared = {} if shared is None else shared
    share = shared.setdefault
    v, h = _kernel(p, shared)[1]
    for boxes in _left_insertions(p.width, p.height, p.rects, v):
        yield make_drawing(p.width + 1, p.height,
                           [share(b, b) for b in boxes], shared)
    for boxes in _left_insertions(p.height, p.width, _transpose(p.rects), h):
        yield make_drawing(p.width, p.height + 1,
                           [share(b, b) for b in _transpose(boxes)], shared)


def _next_level(parents):
    """The canonical drawings of the children of parents, sorted by key; a
    class built twice raises.  One share table serves the whole level, so
    that equal boxes, relation rows, span tuples and key contact triples
    are one object each, and each distinct row is formatted once: level
    8's 26,194 drawings hold 275 box tuples and 1,024 rows."""
    reps, shared = {}, {}
    share = shared.setdefault
    for p in parents:
        for c in _children(p, shared):
            d = canonical_drawing(c, shared)
            # the key's rows come from the kernel, not through relations_of,
            # whose memo would hash every child once more
            contacts = contacts_of(d)
            key = _kernel(d)[0], tuple(map(share, contacts, contacts))
            if key in reps:
                raise RuntimeError(f"a strong class was built twice: "
                                   f"{d.to_json()}")
            reps[key] = d
    return [reps[k] for k in sorted(reps)]


def _check_size(n, max_n):
    """n must lie in 1..max_n (DEFAULT_MAX_N if None)."""
    cap = DEFAULT_MAX_N if max_n is None else max_n
    if n < 1:
        raise ValueError("size must be >= 1")
    if n > cap:
        raise ValueError(
            f"size {n} exceeds the enumeration cap {cap}; "
            "pass max_n explicitly to raise it")


def _build_strong(n, max_n, cache_dir):
    """(strong, weak): strong level n built from level n - 1 (read from the
    cache when there), and, with a cache dir, its weak level; both are
    stored, so that no call reads back a level it has just built."""
    strong = [size1()] if n == 1 else _next_level(
        enumerate_strong(n - 1, max_n=max_n, cache_dir=cache_dir))
    if cache_dir is None:
        return strong, None
    weak = weak_classes(strong)
    _cache_store(cache_dir, n, "strong", strong)
    _cache_store(cache_dir, n, "weak", weak)
    return strong, weak


def enumerate_strong(n, *, max_n=None, cache_dir=None):
    """One canonical drawing per strong class of size n, sorted by key;
    read from the cache when there, else built (_build_strong)."""
    _check_size(n, max_n)
    strong = _cache_load(cache_dir, n, "strong")
    if strong is None:
        strong, _ = _build_strong(n, max_n, cache_dir)
    return strong


def weak_classes(strong):
    """One representative per weak class among these strong classes, sorted
    by weak key; the first strong representative of each wins."""
    reps = {}
    for d in strong:
        reps.setdefault(weak_key(d), d)
    return [reps[k] for k in sorted(reps)]


def enumerate_weak(n, *, max_n=None, cache_dir=None):
    """One representative per weak class of size n (first strong rep wins);
    read from the cache when there, else taken from the strong level, which
    a build stores with its weak level."""
    _check_size(n, max_n)
    weak = _cache_load(cache_dir, n, "weak")
    if weak is None:
        strong = _cache_load(cache_dir, n, "strong")
        if strong is None:
            strong, weak = _build_strong(n, max_n, cache_dir)
        if weak is None:
            weak = weak_classes(strong)
            _cache_store(cache_dir, n, "weak", weak)
    return weak


def enumerate_class(n, mode, avoid=(), *, max_n=None, cache_dir=None):
    """Class members of size n: mode "strong" or "weak", filtered by the
    avoided pattern ids."""
    if mode == "strong":
        stream = enumerate_strong(n, max_n=max_n, cache_dir=cache_dir)
    elif mode == "weak":
        stream = enumerate_weak(n, max_n=max_n, cache_dir=cache_dir)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    avoid = tuple(avoid)
    for p in avoid:
        if p not in patterns.PATTERNS:
            raise ValueError(f"unknown pattern {p!r}")
    return [d for d in stream if patterns.avoids_all(d, avoid)]


def count_class(n, mode, avoid=(), *, max_n=None, cache_dir=None):
    return len(enumerate_class(n, mode, avoid, max_n=max_n,
                               cache_dir=cache_dir))


def count_strip_class(n: int) -> int:
    """Strong classes of size n whose horizontal segments are all full cuts
    (equivalently: avoiding both sideways joints).

    Independent oracle with no size cap: such a drawing is a stack of rows
    with one unit-height vertical per interior line, so enumerating the row
    assignment of every vertical and deduping by strong key is exhaustive.
    """
    total = 0
    for height in range(1, n + 1):
        width = n + 1 - height
        seen = set()
        for rows in product(range(height), repeat=width - 1):
            seen.add(strong_key(strip_drawing(height, rows)))
        total += len(seen)
    return total


def default_cache_dir() -> Path:
    env = os.environ.get("RECTLAB_CACHE_DIR")
    if env:
        return Path(env)
    base = os.environ.get("XDG_CACHE_HOME", os.path.expanduser("~/.cache"))
    return Path(base) / "rectlab"


def _cache_path(cache_dir, n, mode):
    return Path(cache_dir) / f"universe-{mode}-{n}.jsonl"


# Version of the cache file layout: a header line, then one drawing per line.
CACHE_FORMAT = 2


def _cache_header(mode, n, lines):
    """The header line of a cache file with these body lines (bytes)."""
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line)
    return (json.dumps({"format": CACHE_FORMAT, "mode": mode, "n": n,
                        "count": len(lines), "sha256": digest.hexdigest()})
            + "\n").encode()


def _cache_load(cache_dir, n, mode):
    """The cached drawings, or None when the file is missing or its header
    does not match its body (a truncated, edited or header-less file), so
    that the caller rebuilds it.  One share table per file makes equal
    boxes one tuple, as in a built level."""
    if cache_dir is None:
        return None
    try:
        with _cache_path(cache_dir, n, mode).open("rb") as fh:
            head = fh.readline()
            lines = fh.readlines()
    except FileNotFoundError:
        return None
    if head != _cache_header(mode, n, lines):
        return None
    share = {}.setdefault
    out = []
    # 256 lines a json.loads: a call per line parses a third slower, and one
    # call per file holds all the dicts and lists it parsed at once (4 MB of
    # them at n = 7, against 0.5 MB)
    for i in range(0, len(lines), 256):
        for obj in json.loads(b"[" + b",".join(lines[i:i + 256]) + b"]"):
            rects = tuple(share(b, b) for b in map(tuple, obj["rects"]))
            out.append(RectDrawing(obj["width"], obj["height"], rects))
    return out


def _cache_store(cache_dir, n, mode, drawings):
    """Write the level atomically; on any failure the temp file goes and
    the error propagates."""
    if cache_dir is None:
        return
    path = _cache_path(cache_dir, n, mode)
    path.parent.mkdir(parents=True, exist_ok=True)
    # each distinct box formatted once: level 7's 3,938 drawings hold 27,566
    # boxes, 169 distinct
    box = {}
    for d in drawings:
        for b in d.rects:
            if b not in box:
                box[b] = _box_json(b)
    lines = [(_json_line(d.width, d.height, map(box.__getitem__, d.rects))
              + "\n").encode() for d in drawings]
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(_cache_header(mode, n, lines))
            fh.writelines(lines)
        os.replace(tmp, path)  # atomic: concurrent writers agree on content
    except BaseException:
        os.unlink(tmp)
        raise
