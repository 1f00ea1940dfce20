"""Dyck paths (rushed and progressive variants), the strip-drawing bijection,
and exact generating-function machinery: the Catalan fixed point, the
bounded-height family via a three-term polynomial recurrence, and per-height
growth rates.

Paths are words over "U"/"D".  All series coefficients are exact ints;
floating point appears only in the growth-rate root finding.
"""

from __future__ import annotations

import math
import threading

from .drawing import (RECT_CAP, RectDrawing, _brief, _extension,
                      _line_spans, strip_drawing)
from .gentree import LEVEL_CAP, ClassError
from .patterns import avoids_all


def is_dyck(word: str) -> bool:
    h = 0
    for ch in word:
        h += 1 if ch == "U" else -1 if ch == "D" else 2 * len(word)
        if h < 0:
            return False
    return h == 0


def check_dyck(word: str) -> str:
    if not is_dyck(word):
        raise ValueError(f"{_brief(word)} is not a Dyck word")
    return word


# Largest semilength dyck_paths, rushed_paths and progressive_paths list.
PATH_CAP = 13


def dyck_paths(semilength: int):
    """All Dyck words of the given semilength, lexicographic (D < U)."""
    if semilength > PATH_CAP:
        raise ValueError(f"semilength {semilength} exceeds the cap {PATH_CAP}")

    def rec(word, h, rest):
        if rest == 0:
            yield word
            return
        if h > 0:
            yield from rec(word + "D", h - 1, rest - 1)
        if h + 1 <= rest - 1:
            yield from rec(word + "U", h + 1, rest - 1)

    yield from rec("", 0, 2 * semilength)


def initial_rise(word: str) -> int:
    n = 0
    for ch in word:
        if ch != "U":
            break
        n += 1
    return n


def is_rushed(word: str) -> bool:
    """Starts with h up-steps and never returns to altitude h."""
    check_dyck(word)
    h = initial_rise(word)
    alt = h
    for ch in word[h:]:
        alt += 1 if ch == "U" else -1
        if alt == h:
            return False
    return True


def is_progressive(word: str) -> bool:
    """Every peak at altitude above 1 is preceded by a peak one lower."""
    check_dyck(word)
    seen = set()
    alt = 0
    for i, ch in enumerate(word):
        alt += 1 if ch == "U" else -1
        if ch == "U" and i + 1 < len(word) and word[i + 1] == "D":
            if alt > 1 and alt - 1 not in seen:
                return False
            seen.add(alt)
    return True


def rushed_paths(semilength: int):
    """All rushed Dyck words of the given semilength, lexicographic (D < U):
    the dyck_paths words that is_rushed keeps, generated directly.  For each
    initial rise h, ascending, the word goes on with a down-step and then
    stays at altitude 0..h-1 until it returns to 0."""
    if semilength > PATH_CAP:
        raise ValueError(f"semilength {semilength} exceeds the cap {PATH_CAP}")
    if semilength <= 0:
        return [""] if semilength == 0 else []
    out = []

    def rec(word, alt, rest, ceiling):
        if rest == 0:
            out.append(word)
            return
        if alt > 0:
            rec(word + "D", alt - 1, rest - 1, ceiling)
        if alt < ceiling and alt + 1 <= rest - 1:
            rec(word + "U", alt + 1, rest - 1, ceiling)

    for h in range(1, semilength + 1):
        rec("U" * h + "D", h - 1, 2 * semilength - h - 1, h - 1)
    return out


def progressive_paths(semilength: int):
    return [p for p in dyck_paths(semilength) if is_progressive(p)]


# ---------------------------------------------------------------------------
# the strip bijection


def phi(word: str) -> RectDrawing:
    """Drawing of a rushed path: a stack of rows cut by the full horizontal
    lines, with one unit vertical per non-initial up-step, placed left to
    right at the up-step's altitude."""
    if len(word) // 2 - 1 > RECT_CAP:  # one rect fewer than the up-steps
        raise ValueError(f"a word of length {len(word)} draws more than "
                         f"the cap of {RECT_CAP} rects")
    if not is_rushed(word):
        raise ClassError(f"{_brief(word)} is not rushed")
    h = initial_rise(word)
    if h < 2:
        raise ClassError("rushed paths of semilength >= 2 have rise >= 2")
    alt = h
    bottoms = []
    for ch in word[h:]:
        if ch == "U":
            bottoms.append(alt)
            alt += 1
        else:
            alt -= 1
    return strip_drawing(h - 1, bottoms)


def phi_inv(d: RectDrawing) -> str:
    """Rushed path of a drawing avoiding left- and right-pointing joints:
    pieces are the unit verticals; repeatedly take the highest piece whose
    forced-left predecessors are all placed."""
    if not avoids_all(d, ("tr", "tl")):
        raise ClassError("drawing has a horizontal segment not spanning W to E")
    v, _ = _line_spans(d)
    h = d.height + 1
    out = ["U" * h]
    alt = h
    for i in _extension(v, sorted(range(len(v)), key=lambda i: -v[i][0])):
        lo = v[i][0]
        out.append("D" * (alt - lo) + "U")
        alt = lo + 1
    out.append("D" * alt)
    return "".join(out)


def strip_path_count(steps: int, k: int) -> int:
    """Paths of +-1 steps from height 0 to height k staying inside [0, k]."""
    cur = [0] * (k + 1)
    cur[0] = 1
    for _ in range(steps):
        nxt = [0] * (k + 1)
        for y, c in enumerate(cur):
            if c:
                if y + 1 <= k:
                    nxt[y + 1] += c
                if y - 1 >= 0:
                    nxt[y - 1] += c
        cur = nxt
    return cur[k]


# ---------------------------------------------------------------------------
# exact series

# Largest order catalan_series and gk_series compute.  The
# coefficients have about 0.6 * order digits, so the cost grows faster than
# order^2: order 2000 already takes seconds.
SERIES_CAP = 2000


def _extend_inverse(q, inv, order):
    """Extend inv, the series of 1/q so far, in place to the given order."""
    for m in range(len(inv), order + 1):
        acc = 0
        for i in range(1, min(m, len(q) - 1) + 1):
            acc += q[i] * inv[m - i]
        inv.append(-acc)


def q_poly(m: int):
    """Three-term family q_0 = q_1 = 1, q_{m+1} = q_m - x q_{m-1}."""
    if m == 0:
        return [1]
    a, b = [1], [1]
    for _ in range(m - 1):
        shifted = [0] + a
        width = max(len(b), len(shifted))
        nxt = [(b[i] if i < len(b) else 0) -
               (shifted[i] if i < len(shifted) else 0) for i in range(width)]
        a, b = b, nxt
    while len(b) > 1 and b[-1] == 0:
        b.pop()
    return b


# Per height k, [q_{k+1}, the series of 1/q_{k+1} so far].  The series is a
# pure function of k, so the record is shared by every caller and only ever
# extended, under the lock so that two threads never append the same term
# twice; readers copy or index it and never mutate it.
_INVERSES = {}
_INVERSES_LOCK = threading.Lock()


def _inverse(k, order):
    """The shared series of 1/q_{k+1}, extended to at least the given
    order."""
    with _INVERSES_LOCK:
        rec = _INVERSES.get(k)
        if rec is None:
            rec = _INVERSES[k] = [q_poly(k + 1), [1]]
        _extend_inverse(rec[0], rec[1], order)
    return rec[1]


def _check_order(order):
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    if order > SERIES_CAP:
        raise ValueError(f"order {order} exceeds the cap {SERIES_CAP}")


def gk_series(k: int, order: int):
    """Coefficients 0..order of the height-k class generating function
    x^k / q_{k+1}(x), as a new list."""
    if k < 1:
        raise ValueError("k must be >= 1")
    _check_order(order)
    if order < k:
        return [0] * (order + 1)
    return [0] * k + _inverse(k, order - k)[:order - k + 1]


# Largest n rushed_count computes.  It extends the series of 1/q_{k+1} for
# every height k <= n, about n^3 big-integer steps: n = 200 takes 0.2 s on a
# 2-core Xeon, and each doubling of n costs about 8 times more.  It is the
# tree DP's cap and also cli.COUNT_CAP, the largest n counted from any
# class-table row, so that every row, this one included, refuses the same
# sizes.
RUSHED_CAP = LEVEL_CAP


def rushed_count(n: int) -> int:
    """Rushed Dyck paths of semilength n + 1, which is the number of strong
    classes of size n avoiding both vertical (or both horizontal) joints:
    the sum over heights k <= n of [x^n] x^k / q_{k+1}(x).  Reads the shared
    per-height records, so calls for every n up to N together cost one
    series inverse per height to order N."""
    if n < 1:
        raise ValueError(f"size must be >= 1, got {n}")
    if n > RUSHED_CAP:
        raise ValueError(f"size {n} exceeds the cap {RUSHED_CAP}")
    return sum(_inverse(k, n - k)[n - k] for k in range(1, n + 1))


def growth_rate(k: int) -> float:
    """Reciprocal of the smallest positive root of q_{k+1}, found by
    bisection; equals 4 cos^2(pi / (k + 2))."""
    q = q_poly(k + 1)

    def f(x):
        acc = 0.0
        for c in reversed(q):
            acc = acc * x + c
        return acc

    lo, hi, step = 0.0, None, 1e-3
    x = step
    while hi is None:
        if f(x) <= 0:
            hi, lo = x, x - step
        x += step
        if x > 2:
            raise ArithmeticError("no root found below 2")
    for _ in range(200):
        mid = (lo + hi) / 2
        if f(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return 2.0 / (lo + hi)


def reference_growth_rate(k: int) -> float:
    return 4 * math.cos(math.pi / (k + 2)) ** 2


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def catalan_series(order: int):
    """Coefficients 0..order of the class generating function, the fixed
    point of R = x + xR + (x + xR) R = x (1 + R)^2.  With s = 1 + R the
    coefficient r_m is the sum of s_i s_j over i + j = m - 1, so one pass
    computes the coefficients in increasing order."""
    _check_order(order)
    s = [1]
    for m in range(1, order + 1):
        s.append(sum(s[i] * s[m - 1 - i] for i in range(m)))
    return [0] + s[1:]
