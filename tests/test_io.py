import json

import pytest

from rectlab import cli, oeis
from rectlab.gentree import count_by_tree
from rectlab.render import render_ascii, render_svg


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


def test_cli_verify_small(capsys):
    assert cli.main(["verify", "--suite", "guillotine", "--max-n", "4"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


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
