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
    # type(v) is int, so that floats and bools are refused too
    return all(type(v) is int and 0 <= v <= j for j, v in enumerate(e))


def check_invseq(e):
    e = tuple(e)
    if not is_invseq(e):
        raise ValueError(f"{_brief(e)} is not an inversion sequence")
    return e


@lru_cache(maxsize=256)
def _compile(p, initial_range):
    """(length k, comparison table, avoidance signs) of the pattern word p.
    The table lists (a, b, sign of w[a] - w[b]) for every pair of positions
    a < b, so a candidate occurrence is tested without re-deriving the
    word's order.  The signs are what the avoidance step (_extend) reads,
    with sab the sign of w[a] - w[b]: (s01, s20, s21) for a word w0 w1 w2,
    (s10,) for w0 w1, () for shorter words and None for longer ones, which
    the step refuses."""
    w = tuple(int(c) for c in p) if isinstance(p, str) else p
    if initial_range and w and set(w) != set(range(max(w) + 1)):
        raise ValueError(f"pattern {p!r} must use an initial value range")
    k = len(w)
    table = tuple((a, b, (w[a] > w[b]) - (w[a] < w[b]))
                  for a in range(k) for b in range(a + 1, k))
    sign = {(a, b): s for a, b, s in table}
    signs = ((sign[0, 1], -sign[0, 2], -sign[1, 2]) if k == 3
             else (-sign[0, 1],) if k == 2 else () if k < 2 else None)
    return k, table, signs


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


# The avoidance step.  A search over prefixes carries, per prefix, the state
# (seen, forbidden) of two int masks: bit x of seen is set when the prefix
# holds the value x, and bit u of forbidden when appending u would complete
# an occurrence of some pattern.  Appending v to a prefix that avoids the
# patterns forbids, for a word w0 w1 w2, the values u with
# sign(u - v) = sign(w2 - w1) and sign(u - x) = sign(w2 - w0) for some
# earlier x with sign(x - v) = sign(w0 - w1): the x are the bits of
# seen & _rel_mask(s01, v), and _rel_union joins their ranges without a loop.
# A word w0 w1 forbids the u with sign(u - v) = sign(w1 - w0), and the empty
# word and one-letter words forbid every value from the start.  A mask of
# values above some y is negative: Python's ints carry its ones on forever.


def _rel_mask(s, y):
    """The mask of the values z >= 0 with sign(z - y) = s."""
    if s < 0:
        return (1 << y) - 1
    return 1 << y if s == 0 else -2 << y


def _rel_union(s, xs):
    """The mask of the values z >= 0 with sign(z - x) = s for some x in the
    nonzero mask xs: below its largest x, its x, or above its smallest x."""
    if s < 0:
        return (1 << xs.bit_length() - 1) - 1
    return xs if s == 0 else -(xs & -xs) << 1


def _avoidance(pats):
    """The sign tuples of the compiled patterns and the state of the empty
    prefix; a word of more than three letters is refused."""
    signs = tuple(pat[2] for pat in pats)
    if None in signs:
        raise ValueError("the avoidance search takes pattern words of at "
                         "most three letters")
    return signs, (0, -1 if () in signs else 0)


def _extend(state, v, signs):
    """The state of prefix + (v,) from the state of a prefix that, with v,
    avoids the patterns."""
    seen, forbidden = state
    for s in signs:
        if len(s) == 3:
            xs = seen & _rel_mask(s[0], v)
            if xs:
                forbidden |= _rel_mask(s[2], v) & _rel_union(s[1], xs)
        elif s:
            forbidden |= _rel_mask(s[0], v)
    return seen | 1 << v, forbidden


def _allowed(state, m):
    """The values 0..m, ascending, that a length-m prefix in the given state
    may be extended by."""
    forbidden = state[1]
    return [v for v in range(m + 1) if not forbidden >> v & 1]


# Longest sequences enumerate_invseq lists, with or without patterns: with
# none it lists all n! of them, 3.6 million at the cap (about 4 s).
LENGTH_CAP = 10


def enumerate_invseq(n, avoid=()):
    """All length-n inversion sequences avoiding the given patterns (words
    of at most three letters), in lexicographic order.  Each prefix carries
    its avoidance state, so a child costs one step per pattern."""
    if n < 0:
        raise ValueError("length must be >= 0")
    if n > LENGTH_CAP:
        raise ValueError(f"length {n} exceeds the cap {LENGTH_CAP}")
    signs, start = _avoidance([_pattern(p) for p in avoid])

    def rec(prefix, state):
        m = len(prefix)
        if m + 1 == n:
            for v in _allowed(state, m):
                yield prefix + (v,)
            return
        for v in _allowed(state, m):
            yield from rec(prefix + (v,), _extend(state, v, signs))

    if n == 0:
        yield ()
    else:
        yield from rec((), start)


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
