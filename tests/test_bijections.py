import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from rectlab import bijections as bij
from rectlab import invseq, universe, verify
from rectlab.drawing import (RECT_CAP, RectDrawing, boundary_touch_counts,
                             from_json, is_diagonal, make_drawing, reflect,
                             strip_drawing, strong_key, weak_key)
from rectlab.gentree import ClassError, replay_rect_tracked, trace_of_rect
from rectlab.patterns import contains
from rectlab.paths import catalan
from test_invseq import minimal_inversion_tree

SEQ18 = (0, 0, 1, 1, 1, 4, 4, 4, 4, 4, 8, 8, 12, 12, 12, 12, 12, 12)
PERM18 = (7, 18, 15, 16, 17, 8, 11, 12, 13, 14, 9, 10, 1, 2, 3, 4, 5, 6)


def test_tau_examples(v2, h2, d3p):
    assert bij.tau(d3p) == (0, 0, 1)
    assert bij.tau(h2) == (0, 0)
    assert bij.tau(v2) == (0, 1)
    stack = make_drawing(1, 4, [(0, y, 1, y + 1) for y in range(3, -1, -1)])
    assert bij.tau(stack) == (0, 0, 0, 0)


def test_tau_rejects_the_wrong_class(d3):
    with pytest.raises(ClassError):
        bij.tau(d3)


def test_eighteen_rect_example_round_trip():
    d = bij.tau_inv(SEQ18)
    assert bij.tau(d) == SEQ18
    assert bij.beta(d) == PERM18
    assert invseq.theta(PERM18) == SEQ18


def test_epsilon_and_delta(d3p):
    assert bij.epsilon((0, 0)) == "UUDD"
    assert bij.epsilon((0, 1)) == "UDUD"
    assert bij.delta(d3p) == "UUDUDD"
    assert bij.epsilon_inv("UUDUDD") == (0, 0, 1)


@given(st.integers(1, 8).flatmap(
    lambda n: st.tuples(*[st.integers(0, j) for j in range(n)])))
def test_epsilon_round_trip(e):
    e = tuple(sorted(e))  # sorting an inversion sequence keeps it valid
    assert bij.epsilon_inv(bij.epsilon(e)) == e


def test_plateaus_and_jumps_read_off_segments():
    # plateau lengths count right neighbors, jump heights left neighbors
    d = bij.tau_inv(SEQ18)
    rights = [sum(b[0] == x for b in d.rects) for x in range(d.width)]
    lefts = [sum(b[2] == x for b in d.rects) for x in range(1, d.width + 1)]
    plateaus, jumps = [], []
    for v in SEQ18:
        if plateaus and v == plateaus[-1][0]:
            plateaus[-1][1] += 1
        else:
            if plateaus:
                jumps.append(v - plateaus[-1][0])
            plateaus.append([v, 1])
    assert rights == [c for _, c in plateaus]
    assert lefts[:-1] == jumps


def test_the_inverse_maps_round_trip_on_every_member(ctx):
    """Each public inverse map takes the image of every member with n <= 6
    back to its class."""
    maps = [("strong", ("td",), fwd, inv, strong_key)
            for fwd, inv in ((bij.tau6, bij.tau6_inv),
                             (bij.tau7, bij.tau7_inv),
                             (bij.tau8, bij.tau8_inv))]
    maps += [("strong", ("tu",), bij.sigma, bij.sigma_inv, strong_key),
             ("weak", ("td",), bij.delta, bij.delta_inv, weak_key)]
    trips = 0
    for n in range(1, 7):
        for mode, avoid, fwd, inv, key in maps:
            members = (ctx.strong_class if mode == "strong"
                       else ctx.weak_class)(n, avoid)
            for d in members:
                assert key(inv(fwd(d))) == key(d), (fwd.__name__, d)
            trips += len(members)
    assert trips == 1248


def test_matched_steps_pair_rect_sides():
    # the two vertical sides of each rect map to a matched U/D pair: the
    # i-th U along line x (right neighbors bottom to top) must match the D
    # of the same rect along its right side (left neighbors top to bottom)
    for n in range(1, 6):
        for d in universe.enumerate_class(n, "weak", ("td",)):
            word = bij.delta_direct(d)
            assert word == bij.delta(d)
            assert weak_key(bij.delta_inv(word)) == weak_key(d)
            u_owner, d_owner = [], []
            for x in range(0, d.width):
                if x:
                    d_owner += sorted(
                        (i for i, b in enumerate(d.rects) if b[2] == x),
                        key=lambda i: -d.rects[i][1])
                u_owner += sorted(
                    (i for i, b in enumerate(d.rects) if b[0] == x),
                    key=lambda i: d.rects[i][1])
            d_owner += sorted(
                (i for i, b in enumerate(d.rects) if b[2] == d.width),
                key=lambda i: -d.rects[i][1])
            ups, downs, stack, pairs = iter(u_owner), iter(d_owner), [], []
            for ch in word:
                if ch == "U":
                    stack.append(next(ups))
                else:
                    pairs.append((stack.pop(), next(downs)))
            assert all(a == b for a, b in pairs), (d.rects, word, pairs)


def test_beta_small(v2, h2, d3p):
    assert bij.beta(v2) == (2, 1)
    assert bij.beta(h2) == (1, 2)
    assert bij.beta(d3p) == (1, 3, 2)


def test_trees_round_trip_small():
    assert bij.rect_of_tree((None, None)).size == 1
    left_comb = (((None, None), None), None)
    d = bij.rect_of_tree(left_comb)
    assert bij.tau(d) == (0, 0, 0)  # the row stack
    keys = {weak_key(bij.rect_of_tree(t)) for t in bij.all_trees(3)}
    assert len(keys) == 5


def test_tree_formula_matches_geometry():
    for n in range(1, 8):
        for t in bij.all_trees(n):
            d = bij.rect_of_tree(t)
            assert not contains(d, "td")
            assert bij.tau(d) == bij.tree_to_seq(t)
            assert bij.seq_to_tree(bij.tree_to_seq(t)) == t


def _tree_size(t):
    return 0 if t is None else 1 + _tree_size(t[0]) + _tree_size(t[1])


def test_tree_to_seq_matches_size_based_definition():
    def by_size(t):
        if t is None:
            return ()
        left, right = t
        shift = 1 + _tree_size(left)
        return (0,) + by_size(left) + tuple(v + shift for v in by_size(right))

    for n in range(11):
        for t in bij.all_trees(n):
            assert bij.tree_to_seq(t) == by_size(t)


def _recursive_all_trees(n):
    """Binary trees with n nodes, every subtree generated afresh."""
    if n == 0:
        yield None
        return
    for i in range(n):
        for left in _recursive_all_trees(i):
            for right in _recursive_all_trees(n - 1 - i):
                yield (left, right)


def test_all_trees_matches_the_recursive_generator():
    for n in range(10):
        assert list(bij.all_trees(n)) == list(_recursive_all_trees(n)), n


def test_tree_images_match_tree_to_seq():
    for n in range(11):
        assert list(bij.tree_image_levels(n))[n] == \
            [bytes(bij.tree_to_seq(t)) for t in bij.all_trees(n)]


def test_tree_images_refuse_entries_past_a_byte():
    with pytest.raises(ValueError):
        next(bij.tree_image_levels(256))


def test_tree_image_distinctness_check_stays_small():
    """The catalan suite's distinctness check over the images with n <= 11
    peaks well below the 11.5 MB that tuples of ints took."""
    tracemalloc.start()
    try:
        levels = bij.tree_image_levels(11)
        assert [verify._count_if_distinct(images) for images in levels] == \
            [catalan(n) for n in range(12)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6, peak


def test_sorting_a_tree_image_level_reorders_only_the_later_levels():
    want = [sorted(level) for level in bij.tree_image_levels(9)]
    got = []
    for level in bij.tree_image_levels(9):
        level.sort()
        got.append(list(level))
    assert got == want


def test_distinctness_check_finds_one_repeated_item():
    assert verify._count_if_distinct([b"\0\1", b"\0\0", b"\0\1"]) is None
    assert verify._count_if_distinct([3, 1, 2, 1]) is None
    assert verify._count_if_distinct([3, 1, 2]) == 3
    assert verify._count_if_distinct([]) == 0


def test_catalan_suite_fails_on_a_repeated_tree_image(ctx, monkeypatch):
    real = bij.tree_image_levels

    def repeating(n):
        for m, level in enumerate(real(n)):
            if m == 5:  # one image twice, the level's size unchanged
                level[-1] = level[0]
            yield level

    monkeypatch.setattr(bij, "tree_image_levels", repeating)
    lines = verify.suite_catalan(ctx, max_n=2).lines
    assert [line for line in lines if line.startswith("FAIL")] == \
        ["FAIL n=5: tree images distinct and Catalan-many"]


def test_tree_image_buckets_split_the_level_by_its_last_two_bytes():
    levels = list(bij.tree_image_levels(12))
    for n in range(13):
        buckets = list(bij.tree_image_buckets(levels[:n]))
        assert sorted(x for b in buckets for x in b) == sorted(levels[n]), n
        keys = [b[0][-2:] for b in buckets]
        assert all(x[-2:] == key for key, b in zip(keys, buckets) for x in b)
        assert len(set(keys)) == len(keys), n


def test_tree_image_buckets_refuse_entries_past_a_byte():
    with pytest.raises(ValueError):
        next(bij.tree_image_buckets([[b""]] * 256))


def _split(image):
    """The left subtree size of the tree with this image: the right part
    starts at the first position p >= 1 holding p."""
    return next((p for p in range(1, len(image)) if image[p] == p),
                len(image)) - 1


def test_catalan_suite_fails_on_a_top_image_repeated_from_another_split(
        ctx, monkeypatch):
    real = bij.tree_image_buckets
    sizes = []

    def repeating(levels):
        done = False
        for bucket in real(levels):
            if not done:
                j = next((j for j, x in enumerate(bucket)
                          if _split(x) != _split(bucket[0])), None)
                if j is not None:  # one image twice, the bucket's size kept
                    bucket[j] = bucket[0]
                    done = True
            sizes.append(len(bucket))
            yield bucket
        assert done

    monkeypatch.setattr(bij, "tree_image_buckets", repeating)
    lines = verify.suite_catalan(ctx, max_n=2).lines
    assert [line for line in lines if line.startswith("FAIL")] == \
        ["FAIL n=12: tree images distinct and Catalan-many"]
    assert sum(sizes) == catalan(12)


def test_catalan_suite_never_holds_the_top_level_whole(ctx):
    """All 208,012 images of n = 12 in one list took 16.4 MB traced."""
    assert verify.suite_catalan(ctx).ok  # the drawings grown before tracing
    tracemalloc.start()
    try:
        assert verify.suite_catalan(ctx).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6, peak


def test_one_verify_run_grows_each_binary_tree_once(monkeypatch):
    grown = []
    real = bij.rect_of_tree

    def counting(t):
        grown.append(t)
        return real(t)

    monkeypatch.setattr(bij, "rect_of_tree", counting)
    run = verify._Ctx()
    assert verify.suite_catalan(run, max_n=4).ok
    assert verify.suite_bijections(run, max_n=5).ok
    assert len(grown) == len(set(grown)) == sum(map(catalan, range(1, 6)))


def _ref_rect_of_tree(t):
    """rect_of_tree as a recursion that builds each subtree's drawing."""
    left, right = t
    if left is None and right is None:
        return make_drawing(1, 1, [(0, 0, 1, 1)])
    if right is None:
        sub = _ref_rect_of_tree(left)
        boxes = [(0, 0, sub.width, 1)]
        boxes += [(x0, y0 + 1, x1, y1 + 1) for (x0, y0, x1, y1) in sub.rects]
        return make_drawing(sub.width, sub.height + 1, boxes)
    if left is None:
        sub = _ref_rect_of_tree(right)
        boxes = [(0, 0, 1, sub.height)]
        boxes += [(x0 + 1, y0, x1 + 1, y1) for (x0, y0, x1, y1) in sub.rects]
        return make_drawing(sub.width + 1, sub.height, boxes)
    da, db = _ref_rect_of_tree(left), _ref_rect_of_tree(right)
    W, H = da.width + db.width, da.height + db.height

    def ya(y):
        return H if y == da.height else y + 1

    def yb(y):
        return 0 if y == 0 else y + da.height

    boxes = [(0, 0, da.width, 1)]
    boxes += [(x0, ya(y0), x1, ya(y1)) for (x0, y0, x1, y1) in da.rects]
    boxes += [(x0 + da.width, yb(y0), x1 + da.width, yb(y1))
              for (x0, y0, x1, y1) in db.rects]
    return make_drawing(W, H, boxes)


def test_rect_of_tree_matches_the_recursive_reference():
    for n in range(1, 9):
        for t in bij.all_trees(n):
            assert (bij.rect_of_tree(t).to_json()
                    == _ref_rect_of_tree(t).to_json()), t


def test_rect_of_tree_rejects_the_empty_tree():
    with pytest.raises(ValueError):
        bij.rect_of_tree(None)


def test_tree_image_counts():
    for n in range(1, 9):
        assert len({bij.tree_to_seq(t) for t in bij.all_trees(n)}) == \
            catalan(n)


def test_diagonal_outputs_when_possible():
    # the column strip and the row stack always come out diagonal
    assert is_diagonal(bij.rect_of_tree((None, (None, (None, None)))))
    assert is_diagonal(bij.rect_of_tree((((None, None), None), None)))


def test_tau7_examples(v2, h2, d3p):
    assert bij.tau7(d3p) == (0, 0, 1)
    assert bij.tau7(v2) == (0, 1)
    assert bij.tau7(h2) == (0, 0)


def test_tau7_weak_projection():
    # when the weak reading is already in the class, no contact shifts occur
    for n in range(1, 6):
        for d in universe.enumerate_class(n, "strong", ("td",)):
            e = bij.tau7(d)
            ebar = bij.tau(d)
            if e == ebar:
                assert all(a <= b for a, b in zip(e, e[1:]))


def _ref_tau7(d):
    """tau7 as a scan of every rect twice per vertical line, and of the
    line's left neighbors once per right neighbor."""
    bij._check_rect(d, "t1")
    e = list(bij.tau(d, check=False))
    pos = {r: p for p, r in enumerate(bij.order_labels(d, "sw-ne"))}
    for x in range(1, d.width):
        rights = sorted((i for i, b in enumerate(d.rects) if b[0] == x),
                        key=lambda i: d.rects[i][1])
        lefts = sorted((i for i, b in enumerate(d.rects) if b[2] == x),
                       key=lambda i: d.rects[i][1])
        for r in rights:
            y = d.rects[r][1]
            j = next(idx for idx, l in enumerate(lefts, 1)
                     if d.rects[l][1] <= y < d.rects[l][3])
            e[pos[r]] -= j - 1
    return tuple(e)


def _ref_delta_direct(d):
    """delta_direct as two sums over every rect per vertical line."""
    bij._check_rect(d, "t1")
    out = ["U" * sum(b[0] == 0 for b in d.rects)]
    for x in range(1, d.width):
        out.append("D" * sum(b[2] == x for b in d.rects))
        out.append("U" * sum(b[0] == x for b in d.rects))
    out.append("D" * sum(b[2] == d.width for b in d.rects))
    return "".join(out)


def test_direct_readings_match_the_scanning_references():
    """Every td-avoider with n <= 6, the 4,000-rect one-row strip (4,000
    lines, built through make_drawing) and the 2,001-rect staircase of
    alternating top and left rects."""
    drawings = [d for n in range(1, 7)
                for d in universe.enumerate_class(n, "strong", ("td",))]
    drawings += [from_json(strip_drawing(1, [0] * (RECT_CAP - 1)).to_json()),
                 bij.rect_of_nw_word("NW" * 1000)]
    for d in drawings:
        assert bij.tau7(d) == _ref_tau7(d), d
        assert bij.delta_direct(d) == _ref_delta_direct(d), d


def test_sigma_examples(v2, h2, d3):
    assert bij.sigma(v2) == (0, 0)
    assert bij.sigma(h2) == (0, 1)
    assert bij.sigma(d3) == (0, 0, 2)


def test_sigma_and_tau7_derive_each_fact_once(monkeypatch):
    """sigma lays out its drawing once and reads the height labels off the
    canonical drawing the contact tree returns; tau7 reads the SW-NE order
    once."""
    d = bij.rect_of_composition((3, 1, 4, 1, 5))  # in both trees' classes
    want = bij.sigma(d), bij.tau7(d)
    calls = Counter()

    def spy(real):
        def call(*args):
            calls[real.__name__] += 1
            return real(*args)
        return call

    for name in ("canonical_drawing", "order_labels"):
        monkeypatch.setattr(bij, name, spy(getattr(bij, name)))
    assert bij.sigma(d) == want[0]
    assert calls == {"canonical_drawing": 1}
    calls.clear()
    assert bij.tau7(d) == want[1]
    assert calls == {"order_labels": 1}


def test_lambda_labels(d3):
    below, per_rect = bij.lambda_labels(d3)
    assert below == {1: 2}
    assert sorted(per_rect) == [0, 0, 2]


def _ref_lambda_labels(d):
    """lambda_labels as one sum over every rect per horizontal line."""
    d = bij.canonical_drawing(d)
    below = {}
    for y in range(1, d.height):
        below[y] = sum(b[3] <= y for b in d.rects)
    rect_lam = [0 if b[1] == 0 else below[b[1]] for b in d.rects]
    return below, rect_lam


def _ref_tree_T(d):
    """tree_T as a scan of every rect for each SE corner's parent."""
    bij._check_rect(d, "t2")
    d = bij.canonical_drawing(d)
    erects = [i for i, b in enumerate(d.rects) if b[2] == d.width]
    root = erects[0] if len(erects) == 1 else -1
    parents = {}
    for i, (x0, y0, x1, y1) in enumerate(d.rects):
        if x1 == d.width:
            if root == -1:
                parents[i] = -1
            elif i != root:
                raise AssertionError("several E-rects without a virtual root")
            continue
        cands = [j for j, b in enumerate(d.rects)
                 if b[0] == x1 and b[1] <= y0 <= b[3]]
        if len(cands) != 1:
            raise AssertionError(f"SE corner of rect {i} touches {cands}")
        parents[i] = cands[0]
    children = {}
    for i in sorted(parents, key=lambda i: d.rects[i][1]):  # bottom to top
        children.setdefault(parents[i], []).append(i)
    return root, parents, children, d


def test_contact_tree_and_height_labels_match_the_scanning_references():
    """Every tu-avoider with n <= 6, the 4,000-rect one-row strip (one rect
    per line, a contact tree as deep as the strip) and the 4,000-rect stack
    (4,000 horizontal lines)."""
    drawings = [d for n in range(1, 7)
                for d in universe.enumerate_class(n, "strong", ("tu",))]
    drawings += [strip_drawing(1, [0] * (RECT_CAP - 1)),
                 strip_drawing(RECT_CAP, [])]
    for d in drawings:
        assert bij.tree_T(d) == _ref_tree_T(d), d
        assert bij.lambda_labels(d) == _ref_lambda_labels(d), d


def test_contact_tree_refuses_a_corner_as_the_scan_does(monkeypatch):
    """A corner on a cross touches two rects, one facing a gap none; a valid
    drawing has neither, so both are drawn past the class check."""
    monkeypatch.setattr(bij, "_check_rect", lambda d, tree: None)
    monkeypatch.setattr(bij, "canonical_drawing", lambda d: d)
    cross = RectDrawing(2, 2, ((0, 0, 1, 1), (1, 0, 2, 1), (0, 1, 1, 2),
                               (1, 1, 2, 2)))
    gap = RectDrawing(3, 1, ((0, 0, 1, 1), (2, 0, 3, 1)))
    for d, message in [(cross, "SE corner of rect 2 touches [1, 3]"),
                       (gap, "SE corner of rect 0 touches []")]:
        for tree in (bij.tree_T, _ref_tree_T):
            with pytest.raises(AssertionError) as err:
                tree(d)
            assert str(err.value) == message


def test_sigma_tree_matches_minimal_inversions():
    # the contact tree equals the minimal-inversion tree on positions, with
    # rect index mapped to insertion step and the virtual root to the
    # augmented trailing zero
    for n in range(1, 7):
        for d in universe.enumerate_class(n, "strong", ("tu",)):
            f = bij.sigma(d)
            m, want = minimal_inversion_tree(f)
            dd, order = replay_rect_tracked(trace_of_rect(d, "t2"), "t2")
            _, tparents, _, _ = bij.tree_T(dd)
            got = {order[i]: (m if p == -1 else order[p])
                   for i, p in tparents.items()}
            assert got == want, (f, got, want)


def test_sigma_reads_a_contact_tree_as_deep_as_the_rect_cap():
    """In a one-row strip each rect is the contact-tree parent of the one to
    its left, so the tree is RECT_CAP levels deep, past the recursion
    limit."""
    strip = strip_drawing(1, [0] * (RECT_CAP - 1))
    assert bij.sigma(strip) == (0,) * RECT_CAP


def test_stack_sigma_is_staircase():
    stack = make_drawing(1, 4, [(0, y, 1, y + 1) for y in range(3, -1, -1)])
    assert bij.sigma(stack) == (0, 1, 2, 3)


def test_composition_examples(one):
    assert bij.composition_of(
        bij.rect_of_composition((3, 5, 1, 3, 4, 2))) == (3, 5, 1, 3, 4, 2)
    assert bij.composition_of(one) == (1,)
    for n in range(1, 7):
        members = universe.enumerate_class(n, "weak", ("td", "tu"))
        comps = {bij.composition_of(d) for d in members}
        assert len(comps) == len(members) == 2 ** (n - 1)


def test_rect_of_composition_refuses_a_sum_above_the_cap(monkeypatch):
    with pytest.raises(ValueError, match="exceeds the cap"):
        bij.rect_of_composition([1] * (bij.COMPOSITION_CAP + 1))
    monkeypatch.setattr(bij, "COMPOSITION_CAP", 5)
    assert bij.composition_of(bij.rect_of_composition((2, 3))) == (2, 3)
    with pytest.raises(ValueError, match="sum 6 exceeds the cap 5"):
        bij.rect_of_composition((3, 3))


def test_rect_of_nw_word_refuses_a_word_above_the_cap(monkeypatch):
    with pytest.raises(ValueError, match="exceeds the cap"):
        bij.rect_of_nw_word("N" * (bij.NW_WORD_CAP + 1))
    monkeypatch.setattr(bij, "NW_WORD_CAP", 5)
    assert bij.nw_word(bij.rect_of_nw_word("NWNWN")) == "NWNWN"
    with pytest.raises(ValueError, match="length 6 exceeds the cap 5"):
        bij.rect_of_nw_word("NWNWNW")


def test_nw_word_examples(v2, h2, one):
    assert bij.nw_word(v2) == "N"
    assert bij.nw_word(h2) == "W"
    assert bij.nw_word(one) == ""
    word = "NWWWNNWNW"
    d = bij.rect_of_nw_word(word)
    assert d.size == 10
    assert bij.nw_word(d) == word


def test_k_class_and_trivial():
    for n in range(1, 7):
        members = {strong_key(bij.k_class(n, k)) for k in range(n)}
        assert len(members) == n
        assert len(bij.trivial_class(n)) == (1 if n == 1 else 2)


def test_statistics_propositions_small():
    for n in range(1, 6):
        for d in universe.enumerate_class(n, "strong", ("td",)):
            nn, ee, ss, ww = boundary_touch_counts(d)
            s = invseq.stats(bij.tau7(d))
            assert (nn, ee, ss, ww) == \
                (s.ltr_maxima, s.bounce, s.highs, s.zeros)
        for d in universe.enumerate_class(n, "strong", ("tu",)):
            nn, ee, ss, ww = boundary_touch_counts(d)
            s = invseq.stats(bij.sigma(d))
            assert (nn, ee, ss, ww) == \
                (s.bounce, s.rtl_minima, s.zeros, s.highs)


def _single_slides(d):
    """All drawings obtained by swapping one height- or width-adjacent
    independent pair of lines (the same strong class, redrawn)."""
    from rectlab.drawing import make_drawing, segments_of

    out = []
    segs = {(s.orientation, s.axis): s for s in segments_of(d)}
    for (o, a), s in segs.items():
        t = segs.get((o, a + 1))
        if t is None or (s.lo <= t.hi and t.lo <= s.hi):
            continue
        sw = {a: a + 1, a + 1: a}
        if o == "h":
            boxes = [(x0, sw.get(y0, y0), x1, sw.get(y1, y1))
                     for (x0, y0, x1, y1) in d.rects]
        else:
            boxes = [(sw.get(x0, x0), y0, sw.get(x1, x1), y1)
                     for (x0, y0, x1, y1) in d.rects]
        out.append(make_drawing(d.width, d.height, boxes))
    return out


def test_readings_are_class_functions(ctx):
    # every strong-class reading gives the same answer on any redrawing
    from rectlab.paths import phi_inv

    checked = 0
    for n in range(3, 8):
        for d in ctx.strong(n):
            for slid in _single_slides(d):
                assert strong_key(slid) == strong_key(d)
                if not contains(d, "td"):
                    assert bij.tau7(slid) == bij.tau7(d)
                if not contains(d, "tu"):
                    assert bij.sigma(slid) == bij.sigma(d)
                if not (contains(d, "tr") or contains(d, "tl")):
                    assert phi_inv(slid) == phi_inv(d)
                checked += 1
    assert checked > 400  # independent adjacent pairs are rare this small


def test_reflect_conjugates_the_two_readings():
    for n in range(1, 6):
        for d in universe.enumerate_class(n, "strong", ("td",)):
            e = bij.tau7(d)
            f = bij.sigma(reflect(d, "horizontal"))
            a, b = invseq.stats(e), invseq.stats(f)
            assert (a.zeros, a.ltr_maxima, a.bounce, a.highs) == \
                (b.highs, b.zeros, b.rtl_minima, b.bounce)
