import errno
import hashlib
import io
import random
import tracemalloc
from functools import cache

import pytest
from test_drawing import _ref_tilings

from rectlab import cli, universe
from rectlab.bijections import beta
from rectlab.drawing import (InvalidDrawing, _forced_before, _kernel,
                             _line_spans, canonical_drawing, make_drawing,
                             ne_rect_index, relations_of, size1, strong_key,
                             validate, weak_key)
from rectlab.patterns import avoids_all, contains


@cache
def _dfs_strong(n, reverse=False):
    """The strong classes of size n from the reference tiling DFS: the first
    tiling of each strong key wins, and is redrawn by canonical_drawing."""
    reps = {}
    for width in range(1, n + 1):
        height = n + 1 - width
        for boxes in _ref_tilings(width, height, n, reverse):
            if len(boxes) != n:
                continue
            try:
                d = make_drawing(width, height, boxes)
            except InvalidDrawing:
                continue
            reps.setdefault(strong_key(d), d)
    return [canonical_drawing(reps[k]) for k in sorted(reps)]


def _parent(d):
    """d without its NE rect R, by the parent rule: retract the one inner
    side of R whose segment (or box side) ends at R's SW corner."""
    x0, y0, _, _ = d.rects[ne_rect_index(d)]
    v, h = _line_spans(d)
    left = x0 > 0 and v[x0 - 1][0] == y0
    bottom = y0 > 0 and h[y0 - 1][0] == x0
    assert left != bottom
    width, height, boxes = d.width, d.height, list(d.rects)
    if bottom:
        width, height, x0 = height, width, y0
        boxes = universe._transpose(boxes)
    # R goes, the rects that end on line x0 take its place, and the line goes
    boxes = [(a - (a > x0), b, width - 1 if c == x0 else c - (c > x0), e)
             for a, b, c, e in boxes if a != x0 or c != width]
    if bottom:
        return make_drawing(height, width - 1, universe._transpose(boxes))
    return make_drawing(width - 1, height, boxes)


def test_small_counts():
    assert [len(universe.enumerate_strong(n)) for n in range(1, 6)] == \
        [1, 2, 6, 24, 116]
    assert [len(universe.enumerate_weak(n)) for n in range(1, 6)] == \
        [1, 2, 6, 22, 92]


def test_members_are_valid_canonical_and_distinct():
    for n in range(1, 6):
        stream = universe.enumerate_strong(n)
        keys = [strong_key(d) for d in stream]
        assert len(set(keys)) == len(keys)
        assert keys == sorted(keys)
        for d in stream:
            assert validate(d) == []
            assert canonical_drawing(d) == d


def test_counts_search_order_invariant():
    # the reference DFS finds the same classes in either order of widths,
    # and so does the generator
    for n in range(1, 6):
        keys = [strong_key(d) for d in universe.enumerate_strong(n)]
        assert [strong_key(d) for d in _dfs_strong(n)] == keys
        assert [strong_key(d) for d in _dfs_strong(n, True)] == keys


def test_generator_matches_reference_dfs():
    for n in range(1, 8):
        assert universe.enumerate_strong(n) == _dfs_strong(n)


def test_canonical_boxes_identify_the_strong_class():
    # every generic tiling with n <= 6: equal canonical boxes iff equal keys
    keys_of, boxes_of = {}, {}
    tilings = 0
    for n in range(1, 7):
        for width in range(1, n + 1):
            for boxes in _ref_tilings(width, n + 1 - width, n):
                if len(boxes) != n:
                    continue
                try:
                    d = make_drawing(width, n + 1 - width, boxes)
                except InvalidDrawing:
                    continue
                tilings += 1
                key, rects = strong_key(d), canonical_drawing(d).rects
                keys_of.setdefault(rects, set()).add(key)
                boxes_of.setdefault(key, set()).add(rects)
    assert tilings == 831 and len(keys_of) == len(boxes_of) == 791
    assert all(len(v) == 1 for v in keys_of.values())
    assert all(len(v) == 1 for v in boxes_of.values())


def _random_ranks(runs, rng):
    """ranks[a]: the position of line a in a random linear extension of the
    forced order of the pieces with these spans; the box sides stay put."""
    before = _forced_before(runs)
    taken, ranks = 0, [0] * (len(runs) + 2)
    for rank in range(1, len(runs) + 1):
        j = rng.choice([j for j in range(len(runs))
                        if not taken >> j & 1 and not before[j] & ~taken])
        taken |= 1 << j
        ranks[j + 1] = rank
    ranks[-1] = len(runs) + 1
    return ranks


def test_every_layout_of_a_class_has_its_canonical_boxes():
    rng = random.Random(7)
    moved = 0
    for d in universe.enumerate_strong(7):
        v, h = _line_spans(d)
        for _ in range(3):
            xr, yr = _random_ranks(v, rng), _random_ranks(h, rng)
            boxes = [(xr[x0], yr[y0], xr[x1], yr[y1])
                     for x0, y0, x1, y1 in d.rects]
            layout = make_drawing(d.width, d.height, boxes)
            moved += layout != d
            assert canonical_drawing(layout).rects == d.rects, layout
    assert moved == 636  # of 11,814: most classes have one layout


def test_generator_reaches_n8():
    # the digest of the sorted strong keys, from the tiling DFS
    strong = universe.enumerate_strong(8, max_n=8)
    keys = sorted(map(strong_key, strong))
    assert len(keys) == 26194
    assert hashlib.sha256(repr(keys).encode()).hexdigest() == \
        "6e8621c2b46dc0a17a4a2c126c61eb064a40132068d94a3d989ded65575a151c"


@cache
def _families(n):
    """(class, its children) for every strong class of size n."""
    return [(p, list(universe._children(p)))
            for p in universe.enumerate_strong(n)]


def test_every_class_is_a_child_of_its_parent():
    for n in range(2, 8):
        children = {strong_key(p): {strong_key(c) for c in cs}
                    for p, cs in _families(n - 1)}
        for d in universe.enumerate_strong(n):
            assert strong_key(d) in children[strong_key(_parent(d))]


def test_pattern_containment_is_inherited():
    built = 0
    for n in range(1, 7):
        for p, children in _families(n):
            built += len(children)
            for pid in ("td", "tu", "tr", "tl", "wm+", "wm-"):
                if contains(p, pid):
                    assert all(contains(c, pid) for c in children), pid
    assert built == 4728


def test_a_class_built_twice_raises(monkeypatch):
    children = universe._children
    monkeypatch.setattr(universe, "_children",
                        lambda p, shared: [*children(p), *children(p)])
    with pytest.raises(RuntimeError, match="built twice"):
        universe.enumerate_strong(3)


def test_a_level_build_leaves_the_relations_memo_alone(tmp_path):
    """The keys read the rows off the kernel: building, storing and loading
    the strong and weak levels looks up no drawing in the memo."""
    level = universe.enumerate_strong(6)
    before = relations_of.cache_info()
    universe._next_level(level)
    for n in range(1, 6):
        universe.enumerate_strong(n, cache_dir=tmp_path)
        universe.enumerate_weak(n, cache_dir=tmp_path)
        universe.enumerate_weak(n, cache_dir=tmp_path / "weak-first")
        universe.enumerate_weak(n)
    assert relations_of.cache_info() == before


def test_class_counts(v2):
    assert universe.count_class(3, "weak", ("td",)) == 5
    assert universe.count_class(4, "weak", ("td", "tu")) == 8
    assert universe.count_class(4, "strong", ()) == 24
    assert universe.count_class(4, "weak", ()) == 22


def test_weak_count_equals_baxter_image_dedupe():
    for n in range(1, 7):
        weak = universe.enumerate_weak(n)
        assert len({beta(d) for d in weak}) == len(weak)
        strong = universe.enumerate_strong(n)
        assert len({beta(d) for d in strong}) == len(weak)


def test_weak_avoidance_representative_independent():
    # every strong member of a weak class agrees on T-joint avoidance
    for n in range(1, 6):
        verdicts = {}
        for d in universe.enumerate_strong(n):
            for pats in (("td",), ("tu",), ("tr",), ("tl",)):
                key = (weak_key(d), pats)
                v = avoids_all(d, pats)
                assert verdicts.setdefault(key, v) == v


def test_size_cap():
    with pytest.raises(ValueError):
        universe.enumerate_strong(8)
    with pytest.raises(ValueError):
        universe.enumerate_strong(0)
    universe.enumerate_strong(3, max_n=3)


def test_enumerate_class_refuses_bad_input_before_any_work(tmp_path,
                                                          monkeypatch):
    def no_work(*args):
        raise AssertionError(f"work done on bad input: {args}")

    monkeypatch.setattr(universe, "_cache_load", no_work)
    monkeypatch.setattr(universe, "_next_level", no_work)
    for args, max_n, match in [
            ((3, "bogus"), None, "unknown mode"),
            ((3, "strong", ("td", "xx")), None, "unknown pattern"),
            ((0, "weak"), None, "size must be >= 1"),
            ((8, "strong"), None, "exceeds the enumeration cap 7"),
            ((3, "weak", ("td",)), 0, "max_n must be >= 1, got 0")]:
        with pytest.raises(ValueError, match=match):
            universe.enumerate_class(*args, max_n=max_n, cache_dir=tmp_path)


def test_cache_round_trip(tmp_path):
    a = universe.enumerate_strong(4, cache_dir=tmp_path)
    path = tmp_path / "universe-strong-4.jsonl"
    head, *body = path.read_text().splitlines()
    assert head.startswith('{"format": 2, "mode": "strong", "n": 4, '
                           '"count": 24, "sha256": ')
    assert len(body) == 24
    b = universe.enumerate_strong(4, cache_dir=tmp_path)
    assert a == b


def test_truncated_cache_is_rebuilt(tmp_path):
    universe.enumerate_strong(5, cache_dir=tmp_path)
    path = tmp_path / "universe-strong-5.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))
    assert len(universe.enumerate_strong(5, cache_dir=tmp_path)) == 116
    assert path.read_text().splitlines(keepends=True) == lines
    # level 6 is built from the rebuilt level 5
    path.write_text("".join(lines[:-1]))
    assert len(universe.enumerate_strong(6, cache_dir=tmp_path)) == 642


def test_headerless_or_damaged_cache_is_rebuilt(tmp_path):
    want = universe.enumerate_weak(4, cache_dir=tmp_path)
    path = tmp_path / "universe-weak-4.jsonl"
    head, *body = path.read_text().splitlines(keepends=True)
    for text in ("".join(body), "", head,
                 head + "".join(body).replace("1", "2", 1)):
        path.write_text(text)
        assert universe.enumerate_weak(4, cache_dir=tmp_path) == want
        assert path.read_text() == head + "".join(body)


_ONE = '{"width": 1, "height": 1, "rects": [[0, 0, 1, 1]]}'


def _write_with_header(path, mode, n, body):
    """A cache file with these body lines under the header that matches
    them."""
    lines = [(line + "\n").encode() for line in body]
    path.write_bytes(universe._cache_header(mode, n, lines) + b"".join(lines))


@pytest.mark.parametrize("body", [
    ['{"width": 1, "height": 1, "rects": 5}'],
    ['{"width": "1", "height": 1, "rects": [[0, 0, 1, 1]]}'],
    ['{"width": 1, "height": 1.0, "rects": [[0, 0, 1, 1]]}'],
    ['{"width": 1, "height": 1}'],
    ['{"width": 1, "height": 1, "rects": [[0, 0, 1, true]]}'],
    ['{"width": 1, "height": 1, "rects": [[0, 0, 1]]}'],
    ['{"width": 1, "height": 1, "rects": [5]}'],
    ['{"width": 1, "height": 1, "rects": ["abcd"]}'],
    ['{"width": 1, "height": 1, "rects": [{"a": 1, "b": 2, "c": 3, "d": 4}]}'],
    ['{"width": 1, "height": 1, "rects": [[0, 0, 1, [1]]]}'],
    [_ONE, _ONE.replace("1]]", "1.0]]")],
    [_ONE, _ONE.replace("1]]", "true]]")],
    [_ONE + ", " + _ONE],
    ["[1, 2]"], ["5"], ["null"], ["garbage"], ["[" * 100000 + "]" * 100000],
], ids=lambda body: body[-1][:40])
def test_a_header_matching_body_of_the_wrong_shape_is_rebuilt(
        tmp_path, capsys, body):
    """A body line that is not an object with int width and height and a
    list of 4-int rects marks the file damaged, bools and floats too, as
    from_json refuses them, even where they equal a box already read."""
    path = universe._cache_path(tmp_path, 1, "strong")
    good = universe.enumerate_strong(1, cache_dir=tmp_path)
    want = path.read_bytes()
    assert universe._cache_load(tmp_path, 1, "strong") == good == [size1()]
    _write_with_header(path, "strong", 1, body)
    assert universe._cache_load(tmp_path, 1, "strong") is None
    assert universe.enumerate_strong(1, cache_dir=tmp_path) == good
    assert path.read_bytes() == want
    argvs = (["count", "--class", "strong", "--n", "1", "--method",
              "universe"], ["list", "--class", "strong", "--n", "1"])
    for argv, out in zip(argvs, ("1\t1\t[universe]\n", _ONE + "\n")):
        _write_with_header(path, "strong", 1, body)
        capsys.readouterr()
        assert cli.main([*argv, "--cache-dir", str(tmp_path)]) == 0
        assert capsys.readouterr() == (out, "")
        assert path.read_bytes() == want


def test_a_cached_drawing_of_invalid_geometry_is_refused(tmp_path, capsys):
    """The cache load checks the shape of a line, not its geometry: each
    member a command counts or lists is checked, and a loaded drawing that
    is not valid stops the command with the kernel's message."""
    bad = '{"width": 1, "height": 1, "rects": [[0, 0, 2, 2]]}'
    for mode in ENUMERATE:
        _write_with_header(universe._cache_path(tmp_path, 1, mode), mode, 1,
                           [bad])
    for argv in (["count", "--class", "strong", "--n", "1", "--method",
                  "universe"],
                 ["count", "--class", "weak", "--n", "1", "--method",
                  "universe"],
                 ["list", "--class", "strong", "--n", "1"]):
        assert cli.main([*argv, "--cache-dir", str(tmp_path)]) == 2
        assert capsys.readouterr() == (
            "", "error: rect (0, 0, 2, 2) outside box or degenerate\n")


def test_cache_loads_the_levels_as_built(tmp_path):
    # level by level, so that each call builds its level from the cache
    built = {}
    for mode, enumerate_ in (("strong", universe.enumerate_strong),
                             ("weak", universe.enumerate_weak)):
        for n in range(1, 8):
            built[mode, n] = enumerate_(n, cache_dir=tmp_path)
    for (mode, n), level in built.items():
        assert universe._cache_load(tmp_path, n, mode) == level


ENUMERATE = {"strong": universe.enumerate_strong,
             "weak": universe.enumerate_weak}

# sha256 of each cache file for n <= 7, as written before the weak level was
# stored with its strong level and each box formatted once per level
CACHE_SHA256 = {
    "strong": ("b901218d0288bb393ee211fe49063de3469c669b826ab738abfdc35978a34f47",
               "8fdb4509ed533db79bddfa886f0ca83f66820ca4d04852aeee022dda3643ccfa",
               "5160f354f5f34a66567ce8bd316b6d1e5bafbae7492524ee8a90a440fd73f10b",
               "5c841eb04e74d7bfdac5febdeed0d8c3e3e089aafec7a5fd6909b37e6331be2c",
               "1ca3a45181e0b9079901d53ae2fe62ad0f904cacd7198229a778a161446879b0",
               "5dcc4abed20f7283107ef51d08dd713da82fe72cb2da90a346be75bac62fc20d",
               "6ea4bd96c307922db109feadc94b4d4d97ced6685b226b15db2b7c4622c5e41a"),
    "weak": ("869a93ca64013e2ea908a3ca53b11a2a1032f81c51ac2c2d779f259a2ddaba28",
             "ae86dcdbda3edc2b1c6c01579c9a7b4a8e865b5e3a39bdb06431d057b1801ee2",
             "f77677a14bf6e5240b4f0cdc525d510d6f4fdd890286001f7cb06e97e1cdabb2",
             "a9f6e32d4d366e8f06a7cb56708c0dbdd01825611cbb1e2221712dace390afd8",
             "16e0f6f4bb4dfce1ff6b94bb4d86573d91aff63b7439f558f2534c99cd89e6a4",
             "11123a035a17b4f34813c6603da5692e3eb518c65c8d3deed53261bb3ca26162",
             "ee0af8af9b9d1496f5dcfb2039c5817a8f4dd71af215c09628c737c27cae6eec"),
}


@pytest.fixture(scope="module")
def cache7(tmp_path_factory):
    """A cache dir holding every level n <= 7, built into an empty dir in a
    fixed shuffled order: weak 7 comes before strong 7, strong 5 before
    weak 5."""
    path = tmp_path_factory.mktemp("universe")
    order = [(mode, n) for mode in ENUMERATE for n in range(1, 8)]
    random.Random(26).shuffle(order)
    for mode, n in order:
        ENUMERATE[mode](n, cache_dir=path)
    return path


def test_cache_files_keep_their_bytes(cache7):
    assert sorted(p.name for p in cache7.iterdir()) == sorted(
        f"universe-{mode}-{n}.jsonl" for mode in ENUMERATE
        for n in range(1, 8))
    for mode, digests in CACHE_SHA256.items():
        for n, want in enumerate(digests, 1):
            path = universe._cache_path(cache7, n, mode)
            assert hashlib.sha256(path.read_bytes()).hexdigest() == want, \
                path.name
            body = path.read_text().splitlines(keepends=True)[1:]
            assert body == [d.to_json() + "\n"
                            for d in universe._cache_load(cache7, n, mode)]


def _spy_cache(monkeypatch):
    """(loads, stores): the (mode, n) of every cache load and store."""
    loads, stores = [], []
    load, store = universe._cache_load, universe._cache_store

    def spy_load(cache_dir, n, mode):
        loads.append((mode, n))
        return load(cache_dir, n, mode)

    def spy_store(cache_dir, n, mode, drawings):
        stores.append((mode, n))
        store(cache_dir, n, mode, drawings)

    monkeypatch.setattr(universe, "_cache_load", spy_load)
    monkeypatch.setattr(universe, "_cache_store", spy_store)
    return loads, stores


def test_the_weak_level_is_stored_with_its_build(tmp_path, monkeypatch):
    loads, stores = _spy_cache(monkeypatch)
    universe.enumerate_strong(6, cache_dir=tmp_path)
    assert sorted(stores) == sorted(
        (mode, n) for mode in ENUMERATE for n in range(1, 7))
    want = universe.weak_classes(universe.enumerate_strong(6))
    loads.clear(), stores.clear()
    assert universe.enumerate_weak(6, cache_dir=tmp_path) == want
    assert (loads, stores) == ([("weak", 6)], [])
    # a damaged weak file is rebuilt from the strong level
    path = universe._cache_path(tmp_path, 6, "weak")
    text = path.read_text()
    path.write_text(text[:-1])
    loads.clear()
    assert universe.enumerate_weak(6, cache_dir=tmp_path) == want
    assert (loads, stores) == ([("weak", 6), ("strong", 6)], [("weak", 6)])
    assert path.read_text() == text


def test_a_weak_miss_writes_each_file_once(tmp_path, monkeypatch):
    _, stores = _spy_cache(monkeypatch)
    universe.enumerate_weak(5, cache_dir=tmp_path)
    assert sorted(stores) == sorted(
        (mode, n) for mode in ENUMERATE for n in range(1, 6))


class _FullDisk(io.FileIO):
    def write(self, data):
        raise OSError(errno.ENOSPC, "No space left on device")


def _fail_replace(src, dst):
    raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("name, fail", [
    ("fdopen", lambda fd, mode: _FullDisk(fd, mode)),
    ("replace", _fail_replace)], ids=["write", "replace"])
def test_a_failed_store_leaves_no_temp_file(tmp_path, monkeypatch, name,
                                            fail):
    level = universe.enumerate_strong(3)
    monkeypatch.setattr(universe.os, name, fail)
    with pytest.raises(OSError, match="No space left"):
        universe._cache_store(tmp_path, 3, "strong", level)
    monkeypatch.undo()
    assert list(tmp_path.iterdir()) == []


@pytest.mark.slow
def test_level_8_stores_the_weak_level_of_its_build(tmp_path):
    universe.enumerate_strong(8, max_n=8, cache_dir=tmp_path)
    path = universe._cache_path(tmp_path, 8, "weak")
    body = path.read_text().splitlines(keepends=True)[1:]
    strong = universe._cache_load(tmp_path, 8, "strong")
    assert len(strong) == 26194
    assert body == [d.to_json() + "\n"
                    for d in universe.weak_classes(strong)]


def _traced_peak(build):
    """The tracemalloc peak of build(), in bytes, from a cold relations_of
    memo."""
    relations_of.cache_clear()
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_level_holds_one_copy_of_each_row_and_box(tmp_path):
    built = universe.enumerate_strong(7, cache_dir=tmp_path)
    loaded = universe._cache_load(tmp_path, 7, "strong")
    rows = [r for d in built for r in _kernel(d)[0]]
    assert len(rows) == 27566
    assert len(set(map(id, rows))) == len(set(rows)) == 448
    for level in (built, loaded):
        boxes = [b for d in level for b in d.rects]
        assert len(set(map(id, boxes))) == len(set(boxes))


def test_parents_loaded_from_the_cache_share_the_level_table(tmp_path):
    universe.enumerate_strong(6, cache_dir=tmp_path)
    parents = universe._cache_load(tmp_path, 6, "strong")
    shared = {}
    for p in parents:
        list(universe._children(p, shared))
    rows = [r for p in parents for r in _kernel(p)[0]]
    spans = [s for p in parents for v in _kernel(p)[1] for s in v]
    assert len(set(map(id, rows))) == len(set(rows)) < len(rows)
    assert len(set(map(id, spans))) == len(set(spans)) < len(spans)


def test_level_7_builds_in_a_few_megabytes():
    peak = _traced_peak(lambda: universe.enumerate_strong(7))
    assert peak < 5 * 2 ** 20, peak


@pytest.mark.slow
def test_level_8_builds_in_a_few_tens_of_megabytes():
    peak = _traced_peak(lambda: universe.enumerate_strong(8, max_n=8))
    assert peak < 35 * 2 ** 20, peak


def test_strip_class_oracle_matches_universe():
    for n in range(1, 7):
        assert universe.count_strip_class(n) == \
            universe.count_class(n, "strong", ("tr", "tl"))
