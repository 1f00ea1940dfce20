import json
from itertools import combinations
from pathlib import Path

import pytest

from rectlab import cli, oeis, paths, universe, verify
from rectlab.gentree import count_by_tree
from rectlab.patterns import avoids_all
from rectlab.render import render_ascii, render_svg

DATA = Path(__file__).resolve().parent / "data"


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
    report = client.compare("A279555",
                            {n: count_by_tree("t1", n) for n in range(1, 5)})
    assert report["ok"] and report["checked"] == 4

    offline = oeis.OeisClient(cache_dir=tmp_path, offline=True)
    assert offline.b_file("A279555")[0] == (1, 1)
    with pytest.raises(oeis.OeisError):
        oeis.OeisClient(cache_dir=tmp_path, offline=True).b_file("A000108")


def test_oeis_reports_mismatches(tmp_path):
    client = oeis.OeisClient(cache_dir=tmp_path, fetcher=lambda url: "1 1\n2 99\n")
    report = client.compare("A279555", {1: 1, 2: 2})
    assert not report["ok"] and report["mismatches"] == [(2, 2, 99)]


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


_MALFORMED_TRACES = ["[[]]", '[["*"]]', '[["*", "x"]]', '{"a": 1}',
                     '[["*", 99]]', '[["?", 1]]', '[["***", 5]]']


def _assert_refused(capsys, argv):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err


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


def test_cli_usage_errors(capsys):
    assert cli.main(["count", "--class", "bogus:avoid=td", "--n", "3"]) == 2
    assert cli.main(["count", "--class", "strong:avoid=td", "--n", "5..3"]) \
        == 2
    assert capsys.readouterr().out == ""
    assert cli.main(["count", "--class", "weak:avoid=xx", "--n", "3"]) == 2
    assert cli.main(["count", "--class", "strong:avoid=wm+", "--n", "9",
                     "--method", "universe"]) == 2  # over the cap


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
    assert len(ctx._classes) > 10
    for (mode, n, avoid), members in ctx._classes.items():
        pool = universe.enumerate_strong(n)
        if mode == "weak":
            pool = universe.weak_classes(pool)
        assert members == [d for d in pool if avoids_all(d, avoid)], \
            (mode, n, avoid)


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
