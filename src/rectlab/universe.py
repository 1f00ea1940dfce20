"""Brute-force enumeration of all strong / weak generic rectangulations.

Ground truth for every count in the package: a DFS places a rectangle over
the first uncovered cell of every (W, H) grid with W + H = n + 1, keeps the
tilings that satisfy the genericity invariants, and dedupes by equivalence
key.  Deliberately dumb so that it is obviously exhaustive.
"""

from __future__ import annotations

import json
import os
import tempfile
from itertools import product
from pathlib import Path

from . import patterns
from .drawing import (InvalidDrawing, RectDrawing, canonical_drawing,
                      make_drawing, strip_drawing, strong_key, weak_key)

DEFAULT_MAX_N = 7


def _tilings(width, height, max_rects, reverse=False):
    """Yield all partitions of the width x height grid into rectangles."""
    covered = [False] * (width * height)  # cells row by row, bottom row first
    boxes = []

    def rec(start):
        # Each rect goes on the first free cell, so every cell before start
        # is covered and the scan resumes there.
        try:
            k = covered.index(False, start)
        except ValueError:
            yield list(boxes)
            return
        if len(boxes) == max_rects:
            return
        y, x = divmod(k, width)
        row = k - x
        try:
            wmax = covered.index(True, k, row + width) - row
        except ValueError:
            wmax = width
        widths = range(x + 1, wmax + 1)
        for x1 in (reversed(widths) if reverse else widths):
            top = y  # rows y..top-1 of columns x..x1-1 are placed
            while top < height and \
                    not any(covered[top * width + x:top * width + x1]):
                covered[top * width + x:top * width + x1] = [True] * (x1 - x)
                top += 1
                boxes.append((x, y, x1, top))
                yield from rec(k + x1 - x)
                boxes.pop()
            for yy in range(y, top):
                covered[yy * width + x:yy * width + x1] = [False] * (x1 - x)

    yield from rec(0)


def _check_cap(n, max_n):
    cap = DEFAULT_MAX_N if max_n is None else max_n
    if n < 1:
        raise ValueError("size must be >= 1")
    if n > cap:
        raise ValueError(
            f"size {n} exceeds the enumeration cap {cap}; "
            "pass max_n explicitly to raise it")


def enumerate_strong(n, *, max_n=None, cache_dir=None, _reverse=False):
    """One canonical drawing per strong class of size n, sorted by key."""
    _check_cap(n, max_n)
    cached = _cache_load(cache_dir, n, "strong")
    if cached is not None:
        return cached
    reps = {}
    for width in range(1, n + 1):
        height = n + 1 - width
        for boxes in _tilings(width, height, n, reverse=_reverse):
            if len(boxes) != n:
                continue
            try:
                d = make_drawing(width, height, boxes)
            except InvalidDrawing:
                continue
            key = strong_key(d)
            if key not in reps:
                reps[key] = canonical_drawing(d)
    out = [reps[k] for k in sorted(reps)]
    _cache_store(cache_dir, n, "strong", out)
    return out


def enumerate_weak(n, *, max_n=None, cache_dir=None):
    """One representative per weak class of size n (first strong rep wins)."""
    _check_cap(n, max_n)
    cached = _cache_load(cache_dir, n, "weak")
    if cached is not None:
        return cached
    reps = {}
    for d in enumerate_strong(n, max_n=max_n, cache_dir=cache_dir):
        reps.setdefault(weak_key(d), d)
    out = [reps[k] for k in sorted(reps)]
    _cache_store(cache_dir, n, "weak", out)
    return out


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


def _cache_load(cache_dir, n, mode):
    if cache_dir is None:
        return None
    path = _cache_path(cache_dir, n, mode)
    if not path.exists():
        return None
    out = []
    with path.open() as fh:
        for line in fh:
            obj = json.loads(line)
            out.append(RectDrawing(obj["width"], obj["height"],
                                   tuple(tuple(r) for r in obj["rects"])))
    return out


def _cache_store(cache_dir, n, mode, drawings):
    if cache_dir is None:
        return
    path = _cache_path(cache_dir, n, mode)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    with os.fdopen(fd, "w") as fh:
        for d in drawings:
            fh.write(d.to_json() + "\n")
    os.replace(tmp, path)  # atomic: concurrent writers agree on content
