import errno
import io
import json
import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from rectlab import bijections as bij
from rectlab import cli, gentree, oeis, paths, universe, verify
from rectlab.drawing import RECT_CAP, strip_drawing
from rectlab.gentree import count_by_tree
from rectlab.patterns import PATTERNS, avoids_all
from rectlab.render import ASCII_CAP, render_ascii, render_svg

DATA = Path(__file__).resolve().parent / "data"
SRC = Path(__file__).resolve().parent.parent / "src"


def _python(*args):
    """Run a fresh interpreter with only the checkout's src on the path."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_render_ascii_marks_joints(d3):
    art = render_ascii(d3, joints=True, labels="nwse")
    assert "v" in art and "1" in art and "3" in art
    assert render_ascii(d3, joints=True) == render_ascii(d3, joints=True)


def test_render_svg_deterministic(d3):
    svg = render_svg(d3, labels="nwse", joints=True, diagonal=True)
    assert svg.startswith("<svg") and svg.count("<rect") == 3
    assert svg == render_svg(d3, labels="nwse", joints=True, diagonal=True)


def test_oeis_client_fetch_and_cache(tmp_path):
    calls = []

    def fetcher(url):
        calls.append(url)
        return "# comment\n1 1\n2 2\n3 5\n4 15\n"

    client = oeis.OeisClient(cache_dir=tmp_path, fetcher=fetcher)
    assert client.b_file("A279555") == [(1, 1), (2, 2), (3, 5), (4, 15)]
    assert client.b_file("A279555") == [(1, 1), (2, 2), (3, 5), (4, 15)]
    assert len(calls) == 1  # second read served from cache
    report = oeis.compare("A279555", client.b_file("A279555"),
                          {n: count_by_tree("t1", n) for n in range(1, 5)})
    assert report["ok"] and report["checked"] == 4

    offline = oeis.OeisClient(cache_dir=tmp_path, offline=True)
    assert offline.b_file("A279555")[0] == (1, 1)
    with pytest.raises(oeis.OeisError):
        oeis.OeisClient(cache_dir=tmp_path, offline=True).b_file("A000108")


def test_oeis_reports_mismatches(tmp_path):
    client = oeis.OeisClient(cache_dir=tmp_path, fetcher=lambda url: "1 1\n2 99\n")
    report = oeis.compare("A279555", client.b_file("A279555"), {1: 1, 2: 2})
    assert not report["ok"] and report["mismatches"] == [(2, 2, 99)]


@pytest.mark.parametrize("line", ["2 x", "2 2 3"])
def test_cli_oeis_malformed_b_file_is_an_io_failure(capsys, tmp_path, line):
    (tmp_path / "oeis").mkdir()
    (tmp_path / "oeis" / "b279555.txt").write_text(f"1 1\n{line}\n")
    code = cli.main(["oeis", "--id", "A279555", "--class", "strong:avoid=td",
                     "--max-n", "5", "--offline",
                     "--cache-dir", str(tmp_path)])
    assert code == 3
    assert capsys.readouterr().err == f"oeis: bad b-file line {line!r}\n"


def test_oeis_bad_download_is_not_cached(tmp_path):
    client = oeis.OeisClient(cache_dir=tmp_path,
                             fetcher=lambda url: "<html>not found</html>\n")
    with pytest.raises(oeis.OeisError, match="bad b-file line"):
        client.b_file("A279555")
    assert not (tmp_path / "oeis").exists()
    with pytest.raises(oeis.OeisError, match="offline and not cached"):
        oeis.OeisClient(cache_dir=tmp_path, offline=True).b_file("A279555")


class _FullDisk(io.FileIO):
    def write(self, data):
        raise OSError(errno.ENOSPC, "No space left on device")


def _fail_replace(src, dst):
    raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("name, fail", [
    ("fdopen", lambda fd, mode: _FullDisk(fd, mode)),
    ("replace", _fail_replace)], ids=["write", "replace"])
def test_a_failed_b_file_store_leaves_no_temp_file(tmp_path, monkeypatch,
                                                   name, fail):
    client = oeis.OeisClient(cache_dir=tmp_path, fetcher=lambda url: "1 1\n")
    monkeypatch.setattr(os, name, fail)
    with pytest.raises(OSError, match="No space left"):
        client.b_file("A279555")
    monkeypatch.undo()
    assert list((tmp_path / "oeis").iterdir()) == []
    assert client.b_file("A279555") == [(1, 1)]
    assert [p.name for p in (tmp_path / "oeis").iterdir()] == ["b279555.txt"]


def test_oeis_default_fetcher_reads_a_file_url(tmp_path, monkeypatch):
    site = tmp_path / "site"
    site.mkdir()
    (site / "b279555.txt").write_text("# A279555\n1 1\n2 2\n3 5\n")
    monkeypatch.setattr(oeis, "B_FILE_URL", site.as_uri() + "/b{num}.txt")
    cache = tmp_path / "cache"
    assert oeis.OeisClient(cache_dir=cache).b_file("A279555") == \
        [(1, 1), (2, 2), (3, 5)]
    assert (cache / "oeis" / "b279555.txt").read_text() == \
        (site / "b279555.txt").read_text()


def test_importing_rectlab_loads_no_network_module():
    proc = _python("-c", "import sys, rectlab, rectlab.cli; print(sorted("
                   "{'urllib.request', 'http.client', 'email', 'ssl', "
                   "'socket'} & set(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_python_dash_m_rectlab_runs_the_cli():
    proc = _python("-m", "rectlab", "series", "--which", "catalan",
                   "--order", "5")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[0, 1, 2, 5, 14, 42]\n"

def test_cli_count(capsys):
    assert cli.main(["count", "--class", "strong:avoid=td", "--n", "1..5"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split("\t")[1] for line in out] == ["1", "2", "5", "15", "51"]


def test_cli_count_universe_method(capsys):
    assert cli.main(["count", "--class", "weak:avoid=td,tu", "--n", "4",
                     "--method", "universe"]) == 0
    assert capsys.readouterr().out.split("\t")[1] == "8"


# One spec per CLASSES row and the line `count` prints for it at n = 10.
@pytest.mark.parametrize("cls,line", [
    ("weak:avoid=td", "10\t16796\t[catalan]"),
    ("strong:avoid=td", "10\t59146\t[tree dp]"),
    ("weak:avoid=td,tu", "10\t512\t[formula 2^(n-1)]"),
    ("strong:avoid=tr,tl", "10\t3625\t[bounded-height series]"),
    ("weak:avoid=td,tr", "10\t512\t[formula 2^(n-1)]"),
    ("strong:avoid=tu,tl", "10\t512\t[formula 2^(n-1)]"),
    ("weak:avoid=td,tu,tr", "10\t10\t[formula n]"),
    ("strong:avoid=tu,tr,tl", "10\t10\t[formula n]"),
    ("weak:avoid=td,tu,tr,tl", "10\t2\t[formula 2]"),
    ("strong:avoid=td,tu,tr,tl", "10\t2\t[formula 2]"),
])
def test_cli_count_line_per_class_row(capsys, cls, line):
    assert cli.main(["count", "--class", cls, "--n", "10"]) == 0
    assert capsys.readouterr().out == line + "\n"


def test_class_table_matches_universe(ctx):
    """Every class avoiding a nonempty L within {td, tu, tr, tl} has a
    CLASSES row, and its count equals the universe's for n <= 7."""
    for mode in ("weak", "strong"):
        members = ctx.weak_class if mode == "weak" else ctx.strong_class
        for k in range(1, 5):
            for avoid in combinations(("td", "tu", "tr", "tl"), k):
                for n in range(1, 8):
                    value, tag = cli.class_count(mode, frozenset(avoid), n)
                    assert tag != "universe", (mode, avoid)
                    assert value == len(members(n, avoid)), (mode, avoid, n)


def test_cli_list_and_map(capsys, tmp_path, d3):
    assert cli.main(["list", "--class", "strong:avoid=td", "--n", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and all(json.loads(ln)["rects"] for ln in lines)

    f = tmp_path / "d3.json"
    f.write_text(d3.to_json())
    assert cli.main(["map", "--bijection", "sigma", "--input", str(f)]) == 0
    assert json.loads(capsys.readouterr().out) == [0, 0, 2]

    assert cli.main(["map", "--bijection", "tau", "--direction", "inv",
                     "--values", "0,0,1"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["width"] == 2

    assert cli.main(["map", "--bijection", "phi", "--word", "UUUDDUDD"]) == 0
    assert json.loads(capsys.readouterr().out)["height"] == 2


def test_cli_trace_round_trip(capsys, tmp_path, d3):
    f = tmp_path / "d3.json"
    f.write_text(d3.to_json())
    assert cli.main(["trace", "--tree", "t2", "--input", str(f)]) == 0
    trace = capsys.readouterr().out.strip()
    assert json.loads(trace) == [["***"], ["*", 2]]
    g = tmp_path / "trace.json"
    g.write_text(trace)
    assert cli.main(["trace", "--tree", "t2", "--input", str(g),
                     "--replay", "--side", "invseq"]) == 0
    assert json.loads(capsys.readouterr().out) == [0, 0, 2]


@pytest.mark.parametrize("tree,seq,want", [
    ("t1", [0, 1, 1], [["*", 1], ["**", 0]]),
    ("t2", [0, 0, 2], [["***"], ["*", 2]])])
def test_cli_trace_reads_a_sequence_on_the_invseq_side(capsys, tmp_path, tree,
                                                       seq, want):
    f = tmp_path / "seq.json"
    f.write_text(json.dumps(seq))
    argv = ["trace", "--tree", tree, "--side", "invseq", "--input", str(f)]
    assert cli.main(argv) == 0
    trace = capsys.readouterr().out
    assert json.loads(trace) == want
    f.write_text(trace)
    assert cli.main([*argv, "--replay"]) == 0
    assert json.loads(capsys.readouterr().out) == seq
    f.write_text(json.dumps(seq[::-1]))  # not an inversion sequence
    _assert_refused(capsys, argv)
    f.write_text('{"width": 1, "height": 1, "rects": [[0, 0, 1, 1]]}')
    assert "reads a sequence, not a drawing" in _assert_refused(capsys, argv)


_MALFORMED_TRACES = ["[[]]", '[["*"]]', '[["*", "x"]]', '{"a": 1}',
                     '[["*", 99]]', '[["?", 1]]', '[["***", 5]]']


def _assert_refused(capsys, argv):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    return lines[0]


@pytest.mark.parametrize("side", ["rect", "invseq"])
@pytest.mark.parametrize("tree", ["t1", "t2"])
@pytest.mark.parametrize("text", _MALFORMED_TRACES)
def test_cli_replay_refuses_malformed_traces(capsys, tmp_path, text, tree,
                                             side):
    f = tmp_path / "trace.json"
    f.write_text(text)
    _assert_refused(capsys, ["trace", "--tree", tree, "--input", str(f),
                             "--replay", "--side", side])


@pytest.mark.parametrize("side,tree,want", [
    ("rect", "t2", {"width": 2, "height": 2,
                    "rects": [[0, 1, 2, 2], [0, 0, 1, 1], [1, 0, 2, 1]]}),
    ("invseq", "t2", [0, 0, 2]), ("invseq", "t1", [0])])
def test_cli_replay_keeps_valid_traces(capsys, tmp_path, side, tree, want):
    f = tmp_path / "trace.json"
    f.write_text("[]" if tree == "t1" else '[["***"], ["*", 2]]')
    assert cli.main(["trace", "--tree", tree, "--input", str(f),
                     "--replay", "--side", side]) == 0
    assert json.loads(capsys.readouterr().out) == want


@pytest.mark.parametrize("argv,text", [
    (["--bijection", "tau", "--values", "0,1"], None),
    (["--bijection", "sigma", "--word", "UUDD"], None),
    (["--bijection", "phi", "--direction", "inv", "--word", "UUDD"], None),
    (["--bijection", "phi", "--direction", "inv", "--values", "0,1"], None),
    (["--bijection", "phi"], "d3"),
    (["--bijection", "tau7", "--direction", "inv"], "d3"),
    (["--bijection", "nwword", "--direction", "inv", "--values", "0,1"],
     None),
    (["--bijection", "comp", "--direction", "inv"], "[1.5, 2]"),
    (["--bijection", "tau7", "--direction", "inv"], '[0, "a"]'),
    (["--bijection", "tau7", "--direction", "inv"], "[0, 1.0]"),
    (["--bijection", "tau7", "--direction", "inv"], "[0, true]"),
    (["--bijection", "tau", "--direction", "inv"], "[]"),
    (["--bijection", "sigma", "--direction", "inv"], "[]"),
])
def test_cli_map_refuses_input_of_the_wrong_kind(capsys, tmp_path, d3, argv,
                                                 text):
    if text is not None:
        f = tmp_path / "in.json"
        f.write_text(d3.to_json() if text == "d3" else text)
        argv = argv + ["--input", str(f)]
    _assert_refused(capsys, ["map", *argv])


def test_cli_errors_about_large_inputs_stay_short(capsys, tmp_path):
    """A 100 x 100 grid of unit squares has more rects than the cap, a
    60 x 60 one has 3,481 cross joints, and a long sequence is echoed in its
    class error: all three errors stay under 1 KB."""
    argvs = []
    for side, named in ((100, "rects exceed the cap"),
                        (60, "cross joint at (1,1)")):
        grid = tmp_path / f"grid{side}.json"
        grid.write_text(json.dumps({
            "width": side, "height": side,
            "rects": [[x, y, x + 1, y + 1] for x in range(side)
                      for y in range(side)]}))
        argvs.append((["render", "--input", str(grid)], named))
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps(list(range(3000)) + [0]))
    argvs.append((["map", "--bijection", "tau", "--direction", "inv",
                   "--input", str(seq)], "is not non-decreasing"))
    for argv, named in argvs:
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert named in captured.err
        assert len(captured.err.encode()) < 1024, captured.err[:200]
        assert len(captured.err.splitlines()) == 1


def test_cli_render_refuses_a_drawing_above_the_rect_cap(capsys, tmp_path):
    # a valid strip: one row of 16,001 unit squares, whose relation rows
    # alone would hold 16,001^2 characters
    strip = tmp_path / "strip.json"
    strip.write_text(json.dumps({
        "width": 16001, "height": 1,
        "rects": [[x, 0, x + 1, 1] for x in range(16001)]}))
    _assert_refused(capsys, ["render", "--input", str(strip)])


_ABOVE_NODE_CAP = gentree.NODE_CAP + 1


@pytest.mark.parametrize("argv,obj", [
    (["map", "--bijection", "sigma", "--direction", "inv"],
     [0] * _ABOVE_NODE_CAP),
    (["map", "--bijection", "tau7", "--direction", "inv"],
     [0] * _ABOVE_NODE_CAP),
    (["trace", "--tree", "t2", "--replay", "--side", "rect"],
     [["***"]] * (_ABOVE_NODE_CAP - 1)),
    (["trace", "--tree", "t2", "--replay", "--side", "invseq"],
     [["***"]] * (_ABOVE_NODE_CAP - 1)),
    (["trace", "--tree", "t2"],
     {"width": _ABOVE_NODE_CAP, "height": 1,
      "rects": [[x, 0, x + 1, 1] for x in range(_ABOVE_NODE_CAP)]}),
])
def test_cli_refuses_tree_nodes_above_the_cap(capsys, tmp_path, argv, obj):
    f = tmp_path / "in.json"
    f.write_text(json.dumps(obj))
    err = _assert_refused(capsys, [*argv, "--input", str(f)])
    assert f"size {_ABOVE_NODE_CAP} exceeds the cap" in err


def test_cli_takes_tree_nodes_at_the_cap(capsys, tmp_path):
    f = tmp_path / "trace.json"
    f.write_text(json.dumps([["***"]] * (gentree.NODE_CAP - 1)))
    assert cli.main(["trace", "--tree", "t2", "--input", str(f), "--replay",
                     "--side", "invseq"]) == 0
    assert json.loads(capsys.readouterr().out) == [0] * gentree.NODE_CAP


def test_inverse_maps_refuse_the_empty_sequence():
    from rectlab import bijections
    for inverse in (bijections.tau_inv, bijections.sigma_inv,
                    bijections.tau7_inv):
        with pytest.raises(ValueError):
            inverse(())


def test_cli_series(capsys):
    assert cli.main(["series", "--which", "gk", "--k", "4", "--order", "6"]) == 0
    assert json.loads(capsys.readouterr().out) == [0, 0, 0, 0, 1, 4, 13]


def test_cli_render(capsys, tmp_path, d3):
    f = tmp_path / "d3.json"
    f.write_text(d3.to_json())
    assert cli.main(["render", "--input", str(f), "--format", "svg"]) == 0
    assert "<svg" in capsys.readouterr().out
    f.write_text('{"width": 1.9, "height": true, "rects": [[0, 0, 1.5, true]]}')
    assert cli.main(["render", "--input", str(f)]) == 2
    assert "must be an integer" in capsys.readouterr().err


def test_cli_render_refuses_a_diagonal_in_ascii(capsys, tmp_path, d3):
    f = tmp_path / "d3.json"
    f.write_text(d3.to_json())
    _assert_refused(capsys, ["render", "--input", str(f), "--diagonal"])
    assert cli.main(["render", "--input", str(f), "--format", "svg",
                     "--diagonal"]) == 0
    assert "<line" in capsys.readouterr().out


def test_cli_usage_errors(capsys):
    assert cli.main(["count", "--class", "bogus:avoid=td", "--n", "3"]) == 2
    assert cli.main(["count", "--class", "strong:avoid=td", "--n", "5..3"]) \
        == 2
    assert capsys.readouterr().out == ""
    assert cli.main(["count", "--class", "weak:avoid=xx", "--n", "3"]) == 2
    assert cli.main(["count", "--class", "strong:avoid=wm+", "--n", "9",
                     "--method", "universe"]) == 2  # over the cap


@pytest.mark.parametrize("argv, message", [
    (["count", "--class", "strong", "--n", "3", "--method", "universe",
      "--max-n", "0"], "error: max_n must be >= 1, got 0"),
    (["list", "--class", "weak", "--n", "3", "--max-n", "-2"],
     "error: max_n must be >= 1, got -2"),
    (["count", "--class", "strong", "--n", "1..x"],
     "error: size range must be N or LO..HI with integer ends, got '1..x'"),
    (["list", "--class", "weak:avoid=td", "--n", "3.."],
     "error: size range must be N or LO..HI with integer ends, got '3..'"),
    (["count", "--class", "strong", "--n", "1.." + "x" * 100],
     "error: size range must be N or LO..HI with integer ends, got '1.."
     + "x" * 76 + "..."),
])
def test_cli_size_errors_name_the_argument(capsys, argv, message):
    assert _assert_refused(capsys, argv) == message


@pytest.mark.parametrize("method", ["auto", "universe"])
@pytest.mark.parametrize("cls", ["strong:avoid=td,tr", "strong:avoid=td,tu",
                                 "strong:avoid=td,tu,tr,tl", "weak:avoid=td",
                                 "strong:avoid=td", "strong:avoid=wm+"])
def test_cli_count_rejects_size_zero(capsys, cls, method):
    assert cli.main(["count", "--class", cls, "--n", "0",
                     "--method", method]) == 2
    assert cli.main(["count", "--class", cls, "--n", "0..2",
                     "--method", method]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "size must be >= 1" in captured.err


def test_cli_oeis_stops_at_the_universe_cap(capsys, tmp_path):
    """--max-n bounds the terms compared; the universe is not built past its
    default cap for them."""
    (tmp_path / "oeis").mkdir()
    (tmp_path / "oeis" / "b342141.txt").write_text(
        "1 1\n2 2\n3 6\n4 24\n5 115\n6 624\n7 3712\n")
    assert cli.main(["oeis", "--id", "A342141", "--class", "strong:avoid=wm+",
                     "--max-n", "8", "--offline",
                     "--cache-dir", str(tmp_path)]) == 0
    assert (tmp_path / "universe-strong-7.jsonl").exists()
    assert not (tmp_path / "universe-strong-8.jsonl").exists()
    assert "checked 7 terms, 0 mismatches" in capsys.readouterr().out


def test_cli_oeis_loads_the_b_file_first(capsys, tmp_path):
    """An offline miss exits before any term of our side is counted."""
    assert cli.main(["oeis", "--id", "A342141", "--class", "strong:avoid=wm+",
                     "--max-n", "8", "--offline",
                     "--cache-dir", str(tmp_path)]) == 3
    assert not list(tmp_path.glob("universe-*.jsonl"))
    assert "offline and not cached" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--which", "gk", "--k", "2"],
                                  ["--which", "catalan"]])
def test_cli_series_rejects_a_negative_order(capsys, argv):
    assert cli.main(["series", *argv, "--order", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "order must be >= 0" in captured.err


@pytest.mark.parametrize("argv", [["--which", "gk", "--k", "2"],
                                  ["--which", "catalan"]])
def test_cli_series_rejects_an_order_above_the_cap(capsys, argv):
    too_big = str(paths.SERIES_CAP + 1)
    for order in (too_big, "100000"):
        assert cli.main(["series", *argv, "--order", order]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"order {order} exceeds the cap" in captured.err


def test_cli_count_rejects_a_rushed_size_above_the_cap(capsys):
    with pytest.raises(ValueError):
        paths.rushed_count(paths.RUSHED_CAP + 1)
    for n in (str(paths.RUSHED_CAP + 1), "100000"):
        assert cli.main(["count", "--class", "strong:avoid=tr,tl",
                         "--n", n]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"size {n} exceeds the cap {paths.RUSHED_CAP}" in captured.err


def test_cli_map_refuses_a_composition_above_the_cap(capsys):
    # cap + 1 first: a parent without the cap would try to draw 10^8 rects
    for total in (str(bij.COMPOSITION_CAP + 1), "100000000"):
        assert cli.main(["map", "--bijection", "comp", "--direction", "inv",
                         "--values", total]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (f"composition sum {total} exceeds the cap "
                f"{bij.COMPOSITION_CAP}") in captured.err


def test_cli_map_refuses_a_nw_word_above_the_cap(capsys):
    # cap + 1 first: a parent without the cap would draw 10^5 + 1 rects
    for length in (bij.NW_WORD_CAP + 1, 100000):
        assert cli.main(["map", "--bijection", "nwword", "--direction", "inv",
                         "--word", "N" * length]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (f"word length {length} exceeds the cap "
                f"{bij.NW_WORD_CAP}") in captured.err


def _strip(n):
    """The JSON of the one-row strip of n unit squares."""
    return json.dumps({"width": n, "height": 1,
                       "rects": [[x, 0, x + 1, 1] for x in range(n)]})


def _dyck(m):
    return "U" * m + "D" * m


# A map direction's input at the largest size its cap admits, and one size
# above it: by input kind, or by direction for the maps with a cap of their
# own.  A 1,200-rect strip is deeper than the recursion limit.
_CAP_INPUTS = {
    "drawing": (_strip(1200), _strip(RECT_CAP + 1)),
    "sequence": ([0] * gentree.NODE_CAP, [0] * (gentree.NODE_CAP + 1)),
    ("comp", "inv"): ([1] * bij.COMPOSITION_CAP,
                      [1] * (bij.COMPOSITION_CAP + 1)),
    ("delta", "inv"): (_dyck(gentree.NODE_CAP), _dyck(gentree.NODE_CAP + 1)),
    ("nwword", "inv"): ("NW" * (bij.NW_WORD_CAP // 2),
                        "NW" * (bij.NW_WORD_CAP // 2) + "N"),
    ("phi", "fwd"): (_dyck(RECT_CAP + 1), _dyck(RECT_CAP + 2)),
}

_MAP_DIRECTIONS = [(name, direction, kind)
                   for name, row in sorted(cli._MAPS.items())
                   for direction, fn, kind in (("fwd", *row[:2]),
                                               ("inv", *row[2:]))
                   if fn is not None]


@pytest.mark.parametrize("name,direction,kind", _MAP_DIRECTIONS)
def test_cli_maps_take_their_largest_input_and_refuse_a_larger_one(
        capsys, tmp_path, name, direction, kind):
    """At the largest input its cap admits, every map direction exits 0 or
    refuses with one error line, never with a traceback; one size above the
    cap, it refuses."""
    at, above = _CAP_INPUTS.get((name, direction)) or _CAP_INPUTS[kind]
    for obj in (at, above):
        argv = ["map", "--bijection", name, "--direction", direction]
        if kind == "word":
            argv += ["--word", obj]
        else:
            f = tmp_path / "in.json"
            f.write_text(obj if kind == "drawing" else json.dumps(obj))
            argv += ["--input", str(f)]
        if obj is above:
            _assert_refused(capsys, argv)
            continue
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code == 0 or (code == 2 and err.startswith("error: ")
                             and len(err.splitlines()) == 1), err[-300:]


def test_cli_render_refuses_an_ascii_canvas_above_the_cap(capsys, tmp_path):
    """A 4,000-rect strip of height 40 renders in ASCII; the 2,001-rect
    staircase of "NW" * 1000, a canvas of 12 million characters, only as
    SVG."""
    rng = random.Random(0)
    strip = strip_drawing(40, [rng.randrange(40)
                               for _ in range(RECT_CAP - 40)])
    assert (6 * strip.width + 1) * (2 * strip.height + 1) <= ASCII_CAP
    assert len(render_ascii(strip).splitlines()) == 81
    f = tmp_path / "stairs.json"
    f.write_text(bij.rect_of_nw_word("NW" * 1000).to_json())
    err = _assert_refused(capsys, ["render", "--input", str(f)])
    assert "--format svg" in err
    assert cli.main(["render", "--input", str(f), "--format", "svg"]) == 0
    assert capsys.readouterr().out.count("<rect") == 2001


@pytest.mark.parametrize("argv", [
    ["render"], ["trace", "--tree", "t1"],
    ["trace", "--tree", "t2", "--replay"],
    ["map", "--bijection", "tau", "--direction", "inv"]])
def test_cli_refuses_json_nested_too_deeply(capsys, tmp_path, argv):
    f = tmp_path / "deep.json"
    f.write_text("[" * 100000)
    _assert_refused(capsys, [*argv, "--input", str(f)])


_ONE_HUGE_ITEM = {
    "rect": '{"width": 1, "height": 1, "rects": [HUGE]}',
    "coordinate": '{"width": 1, "height": 1, "rects": [[0, 0, 1, HUGE]]}',
    "width": '{"width": HUGE, "height": 1, "rects": []}',
    "trace step": '[["*", HUGE]]'}


@pytest.mark.parametrize("item", sorted(_ONE_HUGE_ITEM))
def test_cli_error_line_stays_short_for_one_huge_item(capsys, tmp_path, item):
    f = tmp_path / "huge.json"
    f.write_text(_ONE_HUGE_ITEM[item].replace(
        "HUGE", "[" + ", ".join(["0"] * 10 ** 6) + "]"))
    argv = (["trace", "--tree", "t1", "--replay"] if item == "trace step"
            else ["render"])
    assert cli.main([*argv, "--input", str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and len(captured.err) < 1024


# One spec per CLASSES row.
@pytest.mark.parametrize("cls", [
    "weak:avoid=td", "strong:avoid=td", "weak:avoid=td,tu",
    "strong:avoid=tr,tl", "weak:avoid=td,tr", "strong:avoid=tu,tl",
    "weak:avoid=td,tu,tr", "strong:avoid=tu,tr,tl", "weak:avoid=td,tu,tr,tl",
    "strong:avoid=td,tu,tr,tl"])
def test_cli_count_refuses_a_size_above_the_cap(capsys, cls):
    # cap + 1 first: a parent without the cap would run the tree dp to 10^10
    for n in (str(cli.COUNT_CAP + 1), "10000000000"):
        assert cli.main(["count", "--class", cls, "--n", n]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"size {n} exceeds the cap {cli.COUNT_CAP}" in captured.err


def test_cli_oeis_stops_at_the_count_cap(capsys, tmp_path):
    (tmp_path / "oeis").mkdir()
    (tmp_path / "oeis" / "b000108.txt").write_text("".join(
        f"{n} {paths.catalan(n)}\n" for n in range(cli.COUNT_CAP + 51)))
    assert cli.main(["oeis", "--id", "A000108", "--class", "weak:avoid=td",
                     "--max-n", str(cli.COUNT_CAP + 50), "--offline",
                     "--cache-dir", str(tmp_path)]) == 0
    assert (f"checked {cli.COUNT_CAP} terms, 0 mismatches"
            in capsys.readouterr().out)


@pytest.mark.parametrize("argv", [["--suite", "a279555", "--max-n", "0"],
                                  ["--max-n", "-3"]])
def test_cli_verify_refuses_a_max_n_below_one(capsys, argv):
    _assert_refused(capsys, ["verify", *argv])


_SPEC_PARTS = st.sampled_from(["weak", "strong", ":", "avoid", "=", ",",
                               "td", "tu", "tr", "tl", "wm+", "wm-", "x"])


@given(st.text() | st.lists(_SPEC_PARTS).map("".join))
def test_parse_class_spec_gives_a_class_or_refuses(text):
    try:
        mode, avoid = cli.parse_class_spec(text)
    except ValueError:
        return
    assert mode in ("weak", "strong") and avoid <= set(PATTERNS)
    assert cli.parse_class_spec(
        f"{mode}:avoid={','.join(sorted(avoid))}") == (mode, avoid)


@given(st.text() | st.from_regex(r"[+-]?\d{1,4}(\.\.[+-]?\d{1,4})?",
                                 fullmatch=True))
def test_parse_range_gives_a_nonempty_range_or_refuses(text):
    try:
        got = cli.parse_range(text)
    except ValueError:
        return
    lo, sep, hi = text.partition("..")
    assert got == range(int(lo), int(hi if sep else lo) + 1) and got


def test_cli_map_choices():
    assert sorted(cli._MAPS) == ["beta", "comp", "delta", "nwword", "phi",
                                 "sigma", "tau", "tau6", "tau7", "tau8"]
    assert cli.main(["map", "--bijection", "beta", "--direction", "inv",
                     "--values", "1,2"]) == 2


def test_cli_verify_small(capsys):
    assert cli.main(["verify", "--suite", "guillotine", "--max-n", "4"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_run_suites_caps_every_suite_with_a_max_n(monkeypatch):
    calls = {}

    def capped(ctx, max_n=7):
        calls["capped"] = max_n
        return verify.CheckResult("capped")

    def uncapped(ctx, order=100):
        calls["uncapped"] = order
        return verify.CheckResult("uncapped")

    monkeypatch.setattr(verify, "SUITES",
                        {"capped": capped, "uncapped": uncapped})
    verify.run_suites(max_n=3)
    assert calls == {"capped": 3, "uncapped": 100}
    verify.run_suites(max_n=9)
    assert calls == {"capped": 7, "uncapped": 100}
    verify.run_suites()
    assert calls == {"capped": 7, "uncapped": 100}


def test_suites_leave_the_shared_class_lists_unchanged(monkeypatch):
    """The ctx memoises each class list and hands every caller the same
    list; after every suite has run, each list still holds the class
    members in universe order."""
    made = []

    class Recording(verify._Ctx):
        def __init__(self, cache_dir=None):
            super().__init__(cache_dir)
            made.append(self)

    monkeypatch.setattr(verify, "_Ctx", Recording)
    assert all(res.ok for res in verify.run_suites(max_n=4))
    [ctx] = made
    assert ctx.strong_class(3, ("td", "tr")) is \
        ctx.strong_class(3, ["tr", "td"])
    # the class lists are the memo entries keyed (mode, n, avoid)
    classes = {k: v for k, v in ctx._memo.items() if len(k) == 3}
    assert len(classes) > 10
    for (mode, n, avoid), members in classes.items():
        pool = universe.enumerate_strong(n)
        if mode == "weak":
            pool = universe.weak_classes(pool)
        assert members == [d for d in pool if avoids_all(d, avoid)], \
            (mode, n, avoid)


def test_run_suites_call_every_class_row(monkeypatch):
    """The suites check every row of the class table that `count` reads."""
    called = set()

    def recorded(key, fn):
        def count(n):
            called.add(key)
            return fn(n)
        return count

    for key, (tag, fn) in list(verify.CLASSES.items()):
        monkeypatch.setitem(verify.CLASSES, key, (tag, recorded(key, fn)))
    assert all(res.ok for res in verify.run_suites(max_n=4))
    assert called == set(verify.CLASSES)


# The suite that checks each CLASSES row against the universe.
_ROW_SUITES = {
    ("weak", 1, False): "catalan",
    ("strong", 1, False): "a279555",
    ("weak", 2, False): "elementary",
    ("strong", 2, False): "a287709",
    ("weak", 2, True): "elementary",
    ("strong", 2, True): "elementary",
    ("weak", 3, True): "elementary",
    ("strong", 3, True): "elementary",
    ("weak", 4, True): "elementary",
    ("strong", 4, True): "elementary",
}


@pytest.mark.parametrize("key", list(_ROW_SUITES),
                         ids=lambda key: "-".join(map(str, key)))
def test_a_class_row_off_by_one_fails_its_suite(monkeypatch, key):
    tag, fn = verify.CLASSES[key]
    monkeypatch.setitem(verify.CLASSES, key, (tag, lambda n: fn(n) + 1))
    [res] = verify.run_suites([_ROW_SUITES[key]], max_n=4)
    assert not res.ok and any(line.startswith("FAIL ") for line in res.lines)


def test_suites_read_the_replayed_levels(monkeypatch):
    """The round trips through tau, delta, tau7, tau8, tau6 and sigma, and
    the witness map, read the drawings of gentree.replay_levels: with the
    first two drawings of level 3 swapped in each tree, exactly their n=3
    lines fail."""
    replay_levels = gentree.replay_levels

    def swapped(tree, n):
        for level in replay_levels(tree, n):
            if len(next(iter(level))) == 3:
                a, b = list(level)[:2]
                level[a], level[b] = level[b], level[a]
            yield level

    monkeypatch.setattr(gentree, "replay_levels", swapped)
    bijections, stats = verify.run_suites(["bijections", "conjecture-stats"],
                                          max_n=4)
    failed = {line for res in (bijections, stats) for line in res.lines
              if line.startswith("FAIL ")}
    assert failed == {f"FAIL n=3: {label}" for label in (
        "tau injective, onto, with round trips",
        "delta = direct reading, injective, round trips",
        "tau7 bijective with round trips",
        "tau8 bijective with round trips",
        "tau6 bijective with round trips",
        "sigma bijective with round trips",
        "quadruples match object-by-object")}


def test_run_suites_labels_match_the_golden_file():
    """Every check line of the suites at max_n=6, in order, and all pass:
    a rewritten suite cannot drop or rename a claim unnoticed."""
    want = (DATA / "verify_labels_max_n6.txt").read_text().splitlines()
    got = []
    for res in verify.run_suites(max_n=6):
        for line in res.lines:
            status, label = line.split(" ", 1)
            assert status == "PASS", line
            got.append(f"{res.name}: {label}")
    assert got == want


def test_cli_oeis_offline_fallback(capsys, tmp_path):
    code = cli.main(["oeis", "--id", "A279555", "--class", "strong:avoid=td",
                     "--max-n", "10", "--offline",
                     "--cache-dir", str(tmp_path)])
    assert code == 3  # offline with an empty cache is a reported I/O failure
    (tmp_path / "oeis").mkdir(parents=True)
    terms = "\n".join(f"{n} {count_by_tree('t1', n)}" for n in range(1, 31))
    (tmp_path / "oeis" / "b279555.txt").write_text(terms + "\n")
    code = cli.main(["oeis", "--id", "A279555", "--class", "strong:avoid=td",
                     "--max-n", "30", "--offline",
                     "--cache-dir", str(tmp_path)])
    assert code == 0
    assert "checked 30 terms, 0 mismatches" in capsys.readouterr().out
