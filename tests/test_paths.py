import math
import random
import sys
import threading

import pytest

from rectlab import paths, universe
from rectlab.drawing import (RECT_CAP, heap_order, linear_extension,
                             strong_key, validate)
from rectlab.gentree import ClassError
from rectlab.patterns import contains


def test_dyck_enumeration():
    assert sorted(paths.dyck_paths(2)) == ["UDUD", "UUDD"]
    for m in range(1, 8):
        assert sum(1 for _ in paths.dyck_paths(m)) == paths.catalan(m)
    with pytest.raises(ValueError):
        list(paths.dyck_paths(14))


def test_rushed():
    assert paths.is_rushed("UUDD")
    assert not paths.is_rushed("UDUD")
    assert [len(paths.rushed_paths(m)) for m in (2, 3, 4)] == [1, 2, 4]


def test_rushed_generator_matches_the_filter(monkeypatch):
    for m in range(-1, 13):
        assert paths.rushed_paths(m) == \
            [p for p in paths.dyck_paths(m) if paths.is_rushed(p)], m
    with pytest.raises(ValueError):
        paths.rushed_paths(14)
    monkeypatch.setattr(paths, "PATH_CAP", 14)
    assert len(paths.rushed_paths(14)) == paths.rushed_count(13)


def test_progressive_counts_match_rushed():
    for m in range(1, 13):
        assert len(paths.progressive_paths(m)) == len(paths.rushed_paths(m))


def test_phi_small(one):
    assert strong_key(paths.phi("UUDD")) == strong_key(one)
    d = paths.phi("UUUDDUDD")
    assert (d.width, d.height) == (2, 2)
    assert d.rects == ((0, 1, 1, 2), (1, 1, 2, 2), (0, 0, 2, 1))
    with pytest.raises(ClassError):
        paths.phi("UDUD")


def test_phi_draws_up_to_the_rect_cap_and_refuses_more(monkeypatch):
    """U^m D^m draws m - 1 stacked rows.  One step above the cap, the word
    is refused before any drawing is built."""
    m = RECT_CAP + 1
    assert paths.phi("U" * m + "D" * m).size == RECT_CAP
    monkeypatch.setattr(paths, "strip_drawing", None)
    for word in ("U" * (m + 1) + "D" * (m + 1), "U" * 10**6 + "D" * 10**6):
        with pytest.raises(ValueError, match=f"cap of {RECT_CAP} rects"):
            paths.phi(word)


def test_phi_round_trips():
    for m in range(2, 11):
        for p in paths.rushed_paths(m):
            d = paths.phi(p)
            assert validate(d) == []
            assert not contains(d, "tr") and not contains(d, "tl")
            assert paths.phi_inv(d) == p
            assert strong_key(paths.phi(paths.phi_inv(d))) == strong_key(d)


def _ref_phi_inv(d):
    """phi_inv through the public heap order and its set-based extension."""
    pieces, prec = heap_order(d, "v")
    alt = d.height + 1
    out = ["U" * alt]
    for i in linear_extension(pieces, prec, key=lambda p: -p.lo):
        out.append("D" * (alt - pieces[i].lo) + "U")
        alt = pieces[i].lo + 1
    out.append("D" * alt)
    return "".join(out)


def test_phi_inv_matches_the_heap_order_extension():
    for m in range(2, 11):
        for p in paths.rushed_paths(m):
            d = paths.phi(p)
            assert paths.phi_inv(d) == _ref_phi_inv(d), p


def _height(word):
    h = best = 0
    for ch in word:
        h += 1 if ch == "U" else -1
        best = max(best, h)
    return best


def test_phi_height_bookkeeping():
    for m in range(2, 11):
        for p in paths.rushed_paths(m):
            k = _height(p) - 1
            d = paths.phi(p)
            assert d.height - 1 == k - 1  # k-1 horizontal segments


def test_class_count_small():
    for n in range(1, 7):
        assert universe.count_class(n, "strong", ("tr", "tl")) == \
            len(paths.rushed_paths(n + 1))


def test_q_polys_match_printed_denominators():
    assert paths.q_poly(2) == [1, -1]
    assert paths.q_poly(3) == [1, -2]
    assert paths.q_poly(4) == [1, -3, 1]
    assert paths.q_poly(5) == [1, -4, 3]
    assert paths.q_poly(6) == [1, -5, 6, -1]
    assert paths.q_poly(7) == [1, -6, 10, -4]


def test_q_polys_are_scaled_chebyshev():
    # q_m(x) = x^(m/2) U_m(1/(2 sqrt x)); checked after clearing the
    # fractional powers with x = 1/(4 y^2)
    sympy = pytest.importorskip("sympy")
    y = sympy.Symbol("y")
    for k in range(1, 9):
        m = k + 1
        qm = sum(c * (1 / (4 * y ** 2)) ** j
                 for j, c in enumerate(paths.q_poly(m)))
        lhs = sympy.expand((2 * y) ** m * qm)
        rhs = sympy.expand(sympy.chebyshevu(m, y))
        assert sympy.simplify(lhs - rhs) == 0, m


def test_gk_series():
    assert paths.gk_series(3, 7)[3:] == [1, 3, 8, 21, 55]
    for k in range(1, 9):
        g = paths.gk_series(k, 20)
        assert all(g[i] == 0 for i in range(k))
        for n in range(k, 21):
            assert g[n] == paths.strip_path_count(2 * n - k, k)


def test_strip_counts_sum_to_rushed():
    for m in range(2, 14):
        total = sum(paths.gk_series(k, m - 1)[m - 1] for k in range(1, m))
        assert total == len(paths.rushed_paths(m)) == paths.rushed_count(m - 1)


def test_growth_rates():
    for k in range(1, 9):
        assert abs(paths.growth_rate(k) -
                   4 * math.cos(math.pi / (k + 2)) ** 2) < 1e-9


def _poly_mul(a, b, order):
    """The product of two coefficient lists, truncated after x^order."""
    out = [0] * (order + 1)
    for i, ai in enumerate(a):
        if ai and i <= order:
            for j, bj in enumerate(b):
                if i + j > order:
                    break
                out[i + j] += ai * bj
    return out


def test_catalan_series():
    cs = paths.catalan_series(10)
    assert cs[:6] == [0, 1, 2, 5, 14, 42]
    assert paths.catalan(10) == 16796
    # the truncated series satisfies the defining quadratic
    order = 30
    r = paths.catalan_series(order)
    x = [0, 1] + [0] * (order - 1)
    lhs = _poly_mul(x, _poly_mul(r, r, order), order)
    two_x_minus_1 = [-1, 2] + [0] * (order - 1)
    lhs = [a + b for a, b in zip(lhs, _poly_mul(two_x_minus_1, r, order))]
    lhs = [a + b for a, b in zip(lhs, x)]
    assert all(c == 0 for c in lhs)


def _fixed_point_catalan_series(order):
    """The Catalan series by iterating R <- x + xR + (x + xR) R to a fixed
    point, each pass a full truncated product."""
    r = [0] * (order + 1)
    for _ in range(order + 1):
        xr = [0] + r[:order]
        head = list(xr)  # x + xR
        if order >= 1:
            head[1] += 1
        nxt = [a + b for a, b in zip(_poly_mul(head, r, order), xr)]
        if order >= 1:
            nxt[1] += 1
        if nxt == r:
            break
        r = nxt
    return r


def test_catalan_series_matches_the_fixed_point_iteration():
    for order in range(61):
        assert paths.catalan_series(order) == \
            _fixed_point_catalan_series(order), order


def _reference_gk_series(k, order):
    """x^k / q_{k+1} to the given order, by a fresh series inverse."""
    q = paths.q_poly(k + 1)
    inv = [1] + [0] * order
    for m in range(1, order + 1):
        inv[m] = -sum(q[i] * inv[m - i]
                      for i in range(1, min(m, len(q) - 1) + 1))
    return [0] * min(k, order + 1) + inv[:max(0, order + 1 - k)]


def _gk_reads():
    up = [(k, order) for k in range(1, 7) for order in range(40)]
    mixed = list(up)
    random.Random(4).shuffle(mixed)
    return {"ascending": up, "descending": up[::-1], "interleaved": mixed}


@pytest.mark.parametrize("how", sorted(_gk_reads()))
def test_gk_record_reads_in_any_order(monkeypatch, how):
    monkeypatch.setattr(paths, "_INVERSES", {})
    for k, order in _gk_reads()[how]:
        got = paths.gk_series(k, order)
        assert got == _reference_gk_series(k, order), (k, order)
        got.append(-1)  # a copy: the shared record is not touched
        if order >= k:
            assert paths.rushed_count(order) == sum(
                _reference_gk_series(j, order)[order]
                for j in range(1, order + 1))


@pytest.mark.parametrize("round_", range(8))
def test_gk_record_is_shared_between_threads(monkeypatch, round_):
    # more threads than cores, started together on one empty record with a
    # short switch interval, so that two threads extending a record at once
    # would append a term twice
    monkeypatch.setattr(paths, "_INVERSES", {})
    orders = (300, 150, 300, 250, 300, 200)
    start = threading.Barrier(len(orders))
    results = {}

    def read(i, order):
        start.wait(timeout=60)
        results[i] = [paths.gk_series(k, order) for k in range(1, 9)]

    threads = [threading.Thread(target=read, args=(i, order))
               for i, order in enumerate(orders)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(results) == list(range(len(orders)))
    for i, order in enumerate(orders):
        assert results[i] == [_reference_gk_series(k, order)
                              for k in range(1, 9)]


def test_series_reject_out_of_range_arguments():
    with pytest.raises(ValueError):
        paths.rushed_count(0)
    with pytest.raises(ValueError):
        paths.catalan_series(-1)
    with pytest.raises(ValueError):
        paths.gk_series(2, -3)
    with pytest.raises(ValueError):
        paths.catalan_series(paths.SERIES_CAP + 1)
    with pytest.raises(ValueError):
        paths.gk_series(3, paths.SERIES_CAP + 1)
    assert paths.catalan_series(0) == [0]
    assert paths.gk_series(2, 0) == [0]
    assert paths.gk_series(2, 1) == [0, 0]
