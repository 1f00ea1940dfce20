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

One function, _level, gets every level: it reads level n from the cache,
else takes a weak level from the cached strong one, else builds strong
level n from strong level n - 1, got the same way, and stores it with its
weak level (the first strong representative of each weak class wins).  So
each cache file is written once and never read back in the call that
wrote it, and each distinct box of a level is formatted once per store.
A load checks the shape of each line, not its geometry: enumerate_class
checks every member it returns.

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
            # strong_key, with the contact triples shared
            contacts = contacts_of(d)
            key = _kernel(d)[0], tuple(map(share, contacts, contacts))
            if key in reps:
                raise RuntimeError(f"a strong class was built twice: "
                                   f"{d.to_json()}")
            reps[key] = d
    return [reps[k] for k in sorted(reps)]


def _check_size(n, max_n):
    """n must lie in 1..max_n (DEFAULT_MAX_N if None), and max_n be >= 1."""
    cap = DEFAULT_MAX_N if max_n is None else max_n
    if cap < 1:
        raise ValueError(f"max_n must be >= 1, got {cap}")
    if n < 1:
        raise ValueError("size must be >= 1")
    if n > cap:
        raise ValueError(
            f"size {n} exceeds the enumeration cap {cap}; "
            "pass max_n explicitly to raise it")


def _level(n, mode, cache_dir):
    """Level n of mode ("strong" or "weak"): read from the cache, else, for
    a weak level, taken from the cached strong level, else built from
    strong level n - 1.  A strong level built is stored with its weak level,
    so that no call reads back a level it has built; with nothing to store
    it in, a strong request skips the weak level (32 ms at n = 8)."""
    level = _cache_load(cache_dir, n, mode)
    if level is not None:
        return level
    strong = _cache_load(cache_dir, n, "strong") if mode == "weak" else None
    if strong is None:
        strong = [size1()] if n == 1 else _next_level(
            _level(n - 1, "strong", cache_dir))
        _cache_store(cache_dir, n, "strong", strong)
        if cache_dir is None and mode == "strong":
            return strong
    weak = weak_classes(strong)
    _cache_store(cache_dir, n, "weak", weak)
    return strong if mode == "strong" else weak


def enumerate_strong(n, *, max_n=None, cache_dir=None):
    """One canonical drawing per strong class of size n, sorted by key."""
    _check_size(n, max_n)
    return _level(n, "strong", cache_dir)


def weak_classes(strong):
    """One representative per weak class among these strong classes, sorted
    by weak key; the first strong representative of each wins."""
    reps = {}
    for d in strong:
        reps.setdefault(weak_key(d), d)
    return [reps[k] for k in sorted(reps)]


def enumerate_weak(n, *, max_n=None, cache_dir=None):
    """One representative per weak class of size n (first strong rep
    wins)."""
    _check_size(n, max_n)
    return _level(n, "weak", cache_dir)


def enumerate_class(n, mode, avoid=(), *, max_n=None, cache_dir=None):
    """Class members of size n: mode "strong" or "weak", filtered by the
    avoided pattern ids.  Each member is checked: a drawing read from the
    cache raises InvalidDrawing if it is not valid (a built one carries its
    kernel), and one share table serves the checks."""
    if mode not in ("strong", "weak"):
        raise ValueError(f"unknown mode {mode!r}")
    avoid = tuple(avoid)
    for p in avoid:
        if p not in patterns.PATTERNS:
            raise ValueError(f"unknown pattern {p!r}")
    _check_size(n, max_n)
    shared = {}
    return [d for d in _level(n, mode, cache_dir)
            if _kernel(d, shared) and patterns.avoids_all(d, avoid)]


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
    """The cached drawings, or None when the file is missing or damaged, so
    that the caller rebuilds it: a header that does not match the body (a
    truncated, edited or header-less file), or a body line that is not an
    object with int "width" and "height" and a "rects" list of 4-int lists.
    One share table per file makes equal boxes one tuple, as in a built
    level, and checks each distinct box once."""
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
    shared, out = {}, []
    # 256 lines a json.loads: a call per line parses a third slower, and one
    # call per file holds all the dicts and lists it parsed at once (4 MB of
    # them at n = 7, against 0.5 MB)
    for i in range(0, len(lines), 256):
        chunk = b"[" + b",".join(lines[i:i + 256]) + b"]"
        # True and 1.0 equal 1 and would pass the share table as int boxes:
        # the file may hold no bool, and parse_float=int refuses any float
        if b"true" in chunk or b"false" in chunk:
            return None
        try:
            for obj in json.loads(chunk, parse_float=int):
                rects = obj["rects"]
                if not (type(obj["width"]) is type(obj["height"]) is int
                        and type(rects) is list):
                    return None
                for j, b in enumerate(rects):
                    # tuple() of a number raises, as does the hash of a
                    # nested list; of a dict or a str it holds strs
                    box = shared.get(key := tuple(b))
                    if box is None:
                        if len(key) != 4 or any(type(v) is not int
                                                for v in key):
                            return None
                        box = shared[key] = key
                    rects[j] = box
                out.append(RectDrawing(obj["width"], obj["height"],
                                       tuple(rects)))
        except (KeyError, TypeError, ValueError, RecursionError):
            return None
    # a line such as '{...}, {...}' parses as two drawings
    return out if len(out) == len(lines) else None


def _cache_store(cache_dir, n, mode, drawings):
    """Write the level atomically (_write_atomic)."""
    if cache_dir is None:
        return
    # each distinct box formatted once: level 7's 3,938 drawings hold 27,566
    # boxes, 169 distinct
    box = {}
    for d in drawings:
        for b in d.rects:
            if b not in box:
                box[b] = _box_json(b)
    lines = [(_json_line(d.width, d.height, map(box.__getitem__, d.rects))
              + "\n").encode() for d in drawings]
    _write_atomic(_cache_path(cache_dir, n, mode),
                  [_cache_header(mode, n, lines), *lines])


def _write_atomic(path, chunks):
    """Write the byte chunks to path through a temp file in its directory,
    made first if need be; on any failure the temp file goes and the error
    propagates.  The OEIS client stores its b-files with it too."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)  # atomic: concurrent writers agree on content
    except BaseException:
        os.unlink(tmp)
        raise
