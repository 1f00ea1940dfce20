"""Inversion sequences: validity, word-pattern containment, statistics, the
rectangular-area structure of the three four-pattern avoidance classes, and
the class transformations between them.

Sequences are plain tuples of ints; patterns are short words like "010" or
"10" whose value set is an initial range.  Left-to-right maxima and
right-to-left minima are strict on their respective sides, so e_1 = 0 is
always a maximum and also counts as a high element (0 = 1 - 1).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

from .drawing import _brief

CLASS_PATTERNS = {
    "i6": ("010", "100", "120", "210"),
    "i7": ("010", "101", "120", "201"),
    "i8": ("010", "110", "120", "210"),
}


def is_invseq(e) -> bool:
    return all(0 <= v <= j for j, v in enumerate(e))


def check_invseq(e):
    e = tuple(e)
    if not is_invseq(e):
        raise ValueError(f"{_brief(e)} is not an inversion sequence")
    return e


@lru_cache(maxsize=256)
def _compile(p, initial_range):
    """(length k, comparison table, its rows within the first k-1 letters,
    (a, sign) for each comparison of letter a with the last letter) of the
    pattern word p.  The table lists (a, b, sign of w[a] - w[b]) for every
    pair of positions a < b, so a candidate occurrence is tested without
    re-deriving the word's order."""
    w = tuple(int(c) for c in p) if isinstance(p, str) else p
    if initial_range and w and set(w) != set(range(max(w) + 1)):
        raise ValueError(f"pattern {p!r} must use an initial value range")
    k = len(w)
    table = tuple((a, b, (w[a] > w[b]) - (w[a] < w[b]))
                  for a in range(k) for b in range(a + 1, k))
    return (k, table, tuple(row for row in table if row[1] < k - 1),
            tuple((a, sign) for a, b, sign in table if b == k - 1))


def _pattern(p, initial_range=True):
    return _compile(p if isinstance(p, str) else tuple(p), initial_range)


def _any_match(table, occurrences) -> bool:
    """Is some value tuple in occurrences ordered as the table says?"""
    for vals in occurrences:
        for a, b, sign in table:
            x, y = vals[a], vals[b]
            if (x > y) - (x < y) != sign:
                break
        else:
            return True
    return False


def _has_relorder_match(e, pat) -> bool:
    k, table = pat[:2]
    return k <= len(e) and _any_match(table, combinations(e, k))


def contains_pattern(e, p) -> bool:
    """Does e have a subsequence in the same relative order (with equalities)
    as p?"""
    return _has_relorder_match(tuple(e), _pattern(p))


def perm_contains(pi, pattern) -> bool:
    """Classical pattern containment for permutations (distinct values)."""
    return _has_relorder_match(tuple(pi), _pattern(pattern,
                                                   initial_range=False))


def avoids_all(e, pats) -> bool:
    return not any(contains_pattern(e, p) for p in pats)


def _avoiding_values(prefix, pats):
    """Values v such that prefix + (v,) is an inversion sequence avoiding
    the compiled patterns, given that the prefix avoids them: every
    occurrence must then end at v.  Each distinct (k-1)-tuple of the prefix
    that matches a pattern's first k-1 letters rules out the values that its
    last letter allows, an interval or a single value."""
    top = len(prefix)
    allowed = [True] * (top + 1)
    for pat in pats:
        k, _, head, last = pat
        if k == 0:
            return []
        for vals in set(combinations(prefix, k - 1)):
            for a, b, sign in head:
                x, y = vals[a], vals[b]
                if (x > y) - (x < y) != sign:
                    break
            else:
                lo, hi = 0, top
                for a, sign in last:
                    if sign > 0:
                        hi = min(hi, vals[a] - 1)
                    elif sign < 0:
                        lo = max(lo, vals[a] + 1)
                    else:
                        lo, hi = max(lo, vals[a]), min(hi, vals[a])
                if lo <= hi:
                    allowed[lo:hi + 1] = [False] * (hi - lo + 1)
    return [v for v in range(top + 1) if allowed[v]]


# Longest sequences enumerate_invseq lists when it avoids some pattern.
LENGTH_CAP = 10


def enumerate_invseq(n, avoid=()):
    """All length-n inversion sequences avoiding the given patterns, in
    lexicographic order."""
    if avoid and n > LENGTH_CAP:
        raise ValueError(f"length {n} exceeds the cap {LENGTH_CAP}")
    pats = tuple(_pattern(p) for p in avoid)

    def rec(prefix):
        if len(prefix) == n:
            yield prefix
            return
        for v in _avoiding_values(prefix, pats):
            yield from rec(prefix + (v,))

    yield from rec(())


def count_invseq(n, avoid=()) -> int:
    return sum(1 for _ in enumerate_invseq(n, avoid))


class Stats(NamedTuple):
    zeros: int
    highs: int
    bounce: int
    ltr_maxima: int
    rtl_minima: int


def ltr_maxima_positions(e):
    """1-based positions of the strict left-to-right maxima."""
    out, best = [], -1
    for j, v in enumerate(e, 1):
        if v > best:
            out.append(j)
            best = v
    return out


def rtl_minima_positions(e):
    """1-based positions of the strict right-to-left minima."""
    out, best = [], None
    for j in range(len(e), 0, -1):
        v = e[j - 1]
        if best is None or v < best:
            out.append(j)
            best = v
    return out[::-1]


def stats(e) -> Stats:
    e = check_invseq(e)
    n = len(e)
    return Stats(
        zeros=sum(v == 0 for v in e),
        highs=sum(v == j - 1 for j, v in enumerate(e, 1)),
        bounce=n - max(e),
        ltr_maxima=len(ltr_maxima_positions(e)),
        rtl_minima=len(rtl_minima_positions(e)),
    )


def theta(pi) -> tuple[int, ...]:
    """Inversion sequence of a permutation of 1..n: e_k counts the earlier
    entries larger than pi_k."""
    pi = tuple(pi)
    if sorted(pi) != list(range(1, len(pi) + 1)):
        raise ValueError(f"{_brief(pi)} is not a permutation of 1..{len(pi)}")
    return tuple(sum(pi[i] > pi[k] for i in range(k)) for k in range(len(pi)))


def active_areas(e):
    """Rectangular areas [(col_lo, col_hi), (val_lo, val_hi)] between
    consecutive left-to-right maxima (inclusive ranges; last area runs to n)."""
    e = check_invseq(e)
    pos = ltr_maxima_positions(e)
    out = []
    for j, a in enumerate(pos):
        col_hi = (pos[j + 1] - 1) if j + 1 < len(pos) else len(e)
        val_lo = 0 if j == 0 else e[pos[j - 1] - 1] + 1
        out.append(((a, col_hi), (val_lo, e[a - 1])))
    return out


def class_check(e, cls) -> bool:
    """Structural membership test for "i6" / "i7" / "i8": the area condition
    plus the per-class shape of the elements inside each area."""
    e = check_invseq(e)
    if cls not in CLASS_PATTERNS:
        raise ValueError(f"unknown class {cls!r}")
    for (c0, c1), (v0, v1) in active_areas(e):
        vals = e[c0 - 1:c1]
        if any(not (v0 <= v <= v1) for v in vals):
            return False
        body = vals[1:]
        if cls == "i7":
            if any(body[i] < body[i + 1] for i in range(len(body) - 1)):
                return False
            if body and body[0] > vals[0]:
                return False
        elif cls == "i8":
            if any(body[i] > body[i + 1] for i in range(len(body) - 1)):
                return False
        else:  # i6: elements below the area maximum strictly increase
            low = [v for v in body if v != v1]
            if any(low[i] >= low[i + 1] for i in range(len(low) - 1)):
                return False
    return True


def _map_areas(e, f):
    e = check_invseq(e)
    out = list(e)
    for (c0, c1), (v0, v1) in active_areas(e):
        body = out[c0:c1]  # area minus its first column
        out[c0:c1] = f(body, v0, v1)
    return tuple(out)


def _reflect_area(body, v0, v1):
    return [v0 + v1 - v for v in body]


def transform_7_to_8(e):
    """Reflect every active area vertically, sparing its first column."""
    if not class_check(e, "i7"):
        raise ValueError(f"{_brief(e)} is not in the weakly-decreasing-area "
                         "class")
    return _map_areas(e, _reflect_area)


def transform_8_to_7(e):
    if not class_check(e, "i8"):
        raise ValueError(f"{_brief(e)} is not in the weakly-increasing-area "
                         "class")
    return _map_areas(e, _reflect_area)


def transform_8_to_6(e):
    """Replace all but the last copy of each repeated sub-maximum value in an
    area by the area maximum."""
    if not class_check(e, "i8"):
        raise ValueError(f"{_brief(e)} is not in the weakly-increasing-area "
                         "class")

    def fwd(body, v0, v1):
        return [v1 if v < v1 and i + 1 < len(body) and body[i + 1] == v else v
                for i, v in enumerate(body)]

    return _map_areas(e, fwd)


def transform_6_to_8(e):
    if not class_check(e, "i6"):
        raise ValueError(f"{_brief(e)} is not in the strictly-increasing-area "
                         "class")

    def inv(body, v0, v1):
        out, nxt = [], None
        for v in reversed(body):
            if v == v1:
                out.append(v if nxt is None else nxt)
            else:
                out.append(v)
                nxt = v
        return out[::-1]

    return _map_areas(e, inv)


def all_ltr_maxima_high(e) -> bool:
    e = check_invseq(e)
    return all(e[p - 1] == p - 1 for p in ltr_maxima_positions(e))


def bounce_equals_zeros(e) -> bool:
    s = stats(e)
    return s.bounce == s.zeros
