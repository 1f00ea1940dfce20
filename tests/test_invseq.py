from itertools import combinations, product

import pytest
from hypothesis import given, strategies as st

from rectlab import invseq
from rectlab.paths import catalan

FIG_EXAMPLE = (0, 0, 0, 3, 4, 3, 5)


def invseqs(max_n=7):
    return st.integers(1, max_n).flatmap(
        lambda n: st.tuples(*[st.integers(0, j) for j in range(n)]))


def test_validity():
    assert invseq.is_invseq((0, 1, 0, 3))
    assert not invseq.is_invseq((0, 2))
    with pytest.raises(ValueError):
        invseq.check_invseq((1,))


def test_containment_worked_example():
    for p in ("001", "010", "021", "102"):
        assert invseq.contains_pattern(FIG_EXAMPLE, p)
    for p in ("100", "101", "120", "210"):
        assert not invseq.contains_pattern(FIG_EXAMPLE, p)
    assert invseq.contains_pattern((0, 1, 1), "011")
    assert invseq.contains_pattern((0, 1, 0, 2), "010")
    assert not invseq.contains_pattern((0, 1, 0, 2), "201")


def test_pattern_word_validation():
    with pytest.raises(ValueError):
        invseq.contains_pattern((0, 1), "02")


def test_stats_worked_example():
    s = invseq.stats(FIG_EXAMPLE)
    assert s == invseq.Stats(zeros=3, highs=3, bounce=2,
                             ltr_maxima=4, rtl_minima=3)
    assert invseq.stats((0,)) == invseq.Stats(1, 1, 1, 1, 1)
    assert invseq.stats((0, 1, 2)) == invseq.Stats(1, 3, 1, 3, 3)


def test_theta():
    assert invseq.theta((5, 6, 7, 3, 1, 4, 2)) == FIG_EXAMPLE
    assert invseq.theta((1, 2, 3)) == (0, 0, 0)
    assert invseq.theta((2, 1)) == (0, 1)
    with pytest.raises(ValueError):
        invseq.theta((1, 3))


def test_theta_bijective():
    from itertools import permutations
    for n in range(1, 8):
        images = {invseq.theta(p) for p in permutations(range(1, n + 1))}
        assert len(images) == len(set(invseq.enumerate_invseq(n)))


def test_counts():
    assert invseq.count_invseq(3, ("011", "201")) == 5
    assert invseq.count_invseq(4, invseq.CLASS_PATTERNS["i7"]) == 15
    for n in range(1, 8):
        assert invseq.count_invseq(n, ("10",)) == catalan(n)
    with pytest.raises(ValueError):
        invseq.count_invseq(11, ("10",))


def test_class_check_equals_pattern_filter():
    for n in range(1, 9):
        for e in invseq.enumerate_invseq(n):
            for cls, pats in invseq.CLASS_PATTERNS.items():
                assert invseq.class_check(e, cls) == \
                    invseq.avoids_all(e, pats), (e, cls)


def test_class_check_examples():
    assert invseq.class_check((0, 0, 2, 1), "i7")
    assert invseq.class_check((0, 0, 2, 2), "i7")


def test_active_areas():
    assert invseq.active_areas((0, 0, 2, 1)) == \
        [((1, 2), (0, 0)), ((3, 4), (1, 2))]
    assert invseq.active_areas((0,)) == [((1, 1), (0, 0))]


def test_transforms_are_stat_preserving_bijections():
    for n in range(1, 9):
        i7 = [e for e in invseq.enumerate_invseq(n)
              if invseq.class_check(e, "i7")]
        i8 = [e for e in invseq.enumerate_invseq(n)
              if invseq.class_check(e, "i8")]
        i6 = [e for e in invseq.enumerate_invseq(n)
              if invseq.class_check(e, "i6")]
        img = [invseq.transform_7_to_8(e) for e in i7]
        assert sorted(img) == sorted(i8)
        assert [invseq.transform_8_to_7(x) for x in img] == i7
        img6 = [invseq.transform_8_to_6(x) for x in i8]
        assert sorted(img6) == sorted(i6)
        assert [invseq.transform_6_to_8(x) for x in img6] == i8
        for e, x in zip(i7, img):
            a, b = invseq.stats(e), invseq.stats(x)
            assert (a.zeros, a.ltr_maxima, a.bounce, a.highs) == \
                (b.zeros, b.ltr_maxima, b.bounce, b.highs)


def test_transforms_fix_flat_sequence():
    flat = (0, 0, 0, 0)
    assert invseq.transform_7_to_8(flat) == flat
    assert invseq.transform_8_to_6(flat) == flat


def test_middle_admissible_values_are_a_run_below_each_minimum():
    for n in range(1, 9):
        for e in invseq.enumerate_invseq(n):
            if not invseq.avoids_all(e, ("011", "201")):
                continue
            ext = [u for u in range(len(e) + 1)
                   if invseq.avoids_all(e + (u,), ("011", "201"))]
            mins = [e[p - 1] for p in invseq.rtl_minima_positions(e)]
            used = set(e)
            for lo, hi in zip(mins, mins[1:]):
                block = [u for u in ext if lo < u < hi]
                want = [u for u in range(hi - len(block), hi)]
                assert block == want, (e, lo, hi)
                assert all(u not in used for u in block)
                edge = hi - len(block) - 1
                assert edge <= lo or edge in used, (e, lo, hi)


def test_restricted_predicates():
    assert invseq.all_ltr_maxima_high((0, 1, 2))
    assert not invseq.all_ltr_maxima_high((0, 0, 1))
    assert not invseq.bounce_equals_zeros((0, 0, 2))
    assert invseq.bounce_equals_zeros((0, 1))
    assert invseq.bounce_equals_zeros((0, 0, 1, 2))


def minimal_inversion_tree(e):
    """Rooted tree on positions 1..m via minimal inversions.

    A pair (i, j), i < j, is an inversion when e_j <= e_i, and minimal when no
    middle position l has e_j <= e_l < e_i.  Each nonzero non-final position
    gets its unique minimal inversion as parent; zero positions point at the
    next zero.  A trailing 0 is appended when e does not end in one; the last
    position is the root.  Returns (m, parents)."""
    e = invseq.check_invseq(e)
    seq = e if e and e[-1] == 0 else e + (0,)
    m = len(seq)
    parents = {}
    for i in range(1, m):
        ei = seq[i - 1]
        if ei == 0:
            j = next(j for j in range(i + 1, m + 1) if seq[j - 1] == 0)
        else:
            cands = [j for j in range(i + 1, m + 1)
                     if seq[j - 1] <= ei
                     and not any(seq[j - 1] <= seq[l - 1] < ei
                                 for l in range(i + 1, j))]
            j = min(cands)
        parents[i] = j
    return m, parents


def test_minimal_inversion_tree():
    m, parents = minimal_inversion_tree((0, 0, 2))
    assert (m, parents) == (4, {1: 2, 2: 4, 3: 4})
    m, parents = minimal_inversion_tree((0,))
    assert (m, parents) == (1, {})
    # nonzero non-final entries have a unique minimal inversion in the class
    for n in range(1, 8):
        for e in invseq.enumerate_invseq(n):
            if not invseq.avoids_all(e, ("011", "201")):
                continue
            seq = e if e[-1] == 0 else e + (0,)
            for i in range(1, len(seq)):
                if seq[i - 1] == 0:
                    continue
                cands = [j for j in range(i + 1, len(seq) + 1)
                         if seq[j - 1] <= seq[i - 1]
                         and not any(seq[j - 1] <= seq[l - 1] < seq[i - 1]
                                     for l in range(i + 1, j))]
                assert len(cands) == 1, (e, i)


@given(invseqs(), st.sampled_from(["10", "010", "011", "201", "110", "120"]))
def test_containment_matches_naive_scan(e, p):
    from itertools import combinations
    w = tuple(int(c) for c in p)
    naive = False
    for idx in combinations(range(len(e)), len(w)):
        vals = [e[i] for i in idx]
        rank = {v: r for r, v in enumerate(sorted(set(vals)))}
        if tuple(rank[v] for v in vals) == w:
            naive = True
            break
    assert invseq.contains_pattern(e, p) == naive


def _words(max_len=3):
    """Every pattern word of length 1..max_len over an initial value range."""
    for k in range(1, max_len + 1):
        for w in product(range(k), repeat=k):
            if set(w) == set(range(max(w) + 1)):
                yield "".join(map(str, w))


def test_enumeration_prunes_like_full_containment():
    sets = [(w,) for w in _words()]
    sets += [invseq.CLASS_PATTERNS[c] for c in ("i6", "i7", "i8")]
    sets.append(("011", "201"))
    for n in range(1, 8):
        every = list(invseq.enumerate_invseq(n))
        for pats in sets:
            assert list(invseq.enumerate_invseq(n, pats)) == \
                [e for e in every if invseq.avoids_all(e, pats)], (n, pats)


def _avoiding_values_by_last_entry(prefix, pats):
    """For each value v, look for an occurrence that ends at v among all
    (k-1)-subsequences of the prefix."""
    def ends_in_match(e, pat):
        k, table = pat[:2]
        if k == 0:
            return True
        return k <= len(e) and invseq._any_match(
            table, (c + (e[-1],) for c in combinations(e[:-1], k - 1)))

    return [v for v in range(len(prefix) + 1)
            if not any(ends_in_match(prefix + (v,), pat) for pat in pats)]


def test_avoiding_values_matches_the_last_entry_scan():
    sets = [("",)] + [(w,) for w in _words()]
    sets += [invseq.CLASS_PATTERNS[c] for c in ("i6", "i7", "i8")]
    sets.append(("011", "201"))
    compiled = [tuple(invseq._pattern(p) for p in pats) for pats in sets]
    for n in range(7):
        for e in invseq.enumerate_invseq(n):
            for pats in compiled:
                assert invseq._avoiding_values(e, pats) == \
                    _avoiding_values_by_last_entry(e, pats), (e, pats)


def test_pruned_class_enumeration_matches_class_check():
    """The class sets verify enumerates by pruning are, list for list, the
    class_check filters over every inversion sequence, at every size it
    uses."""
    for n in range(9):
        every = list(invseq.enumerate_invseq(n))
        for cls, pats in invseq.CLASS_PATTERNS.items():
            assert list(invseq.enumerate_invseq(n, pats)) == \
                [e for e in every if invseq.class_check(e, cls)], (n, cls)
