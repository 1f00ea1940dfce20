"""Tests of the benchmark itself: span arithmetic, tracing, the correctness
gates and the agreement of BENCHMARK.json with the code.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from rectlab import bijections, invseq, universe, verify  # noqa: E402


def replay(rec, span):
    """Feed a hand-built span (name, start, end, children) to the tracer."""
    name, start, end, children = span
    rec.now = start
    rec.enter(name)
    for child in children:
        replay(rec, child)
    rec.now = end
    rec.exit()


def test_self_time_on_hand_built_span_tree():
    rec = tracer.Tracer(clock=lambda: rec.now)
    # A [0,10] calls B [1,4] (which calls C [2,3]) and B [5,9]; then a
    # second top-level A [20,21] with no children.
    replay(rec, ("A", 0, 10, [("B", 1, 4, [("C", 2, 3, [])]),
                             ("B", 5, 9, [])]))
    replay(rec, ("A", 20, 21, []))
    funcs = tracer.by_name(rec.nodes)
    assert funcs["A"]["calls"] == 2
    assert funcs["A"]["total_s"] == 11
    assert funcs["A"]["self_s"] == (10 - 3 - 4) + 1
    assert funcs["B"]["calls"] == 2
    assert funcs["B"]["self_s"] == (3 - 1) + 4
    assert funcs["C"]["self_s"] == 1
    assert funcs["B"]["leaf_s"] == 4
    assert funcs["A"]["leaf_s"] == 1
    assert tracer.edge(rec.nodes, "A", "B") == (2, 0)
    assert tracer.edge(rec.nodes, "B", "C") == (1, 0)
    assert tracer.edge(rec.nodes, "A", "C") == (0, 0)
    # self times of all spans add up to the top-level spans' duration
    assert sum(f["self_s"] for f in funcs.values()) == 11
    # one node per call path, each with its parent's id
    assert [(n["name"], n["parent"]) for n in
            (node.as_dict() for node in rec.nodes)] == \
        [("bench", None), ("A", 0), ("B", 1), ("C", 2)]


def test_generator_spans_count_one_call_and_every_resume():
    rec = tracer.Tracer(clock=lambda: rec.now)
    rec.now = 0

    def gen():
        rec.now += 1
        yield 1
        rec.now += 2
        yield 2
        rec.now += 4

    assert list(rec.wrap(gen, "g")()) == [1, 2]
    funcs = tracer.by_name(rec.nodes)
    assert funcs["g"]["calls"] == 1
    assert funcs["g"]["self_s"] == 7


def test_install_wraps_every_namespace_and_uninstall_restores():
    originals = (universe.make_drawing, verify.avoids_all,
                 bijections.tree_to_seq)
    rec = tracer.Tracer()
    uninstall = tracer.install(rec, "rectlab", workloads.LAYERS)
    try:
        assert universe.make_drawing is not originals[0]
        assert len(universe.enumerate_strong(4)) == 24
        with pytest.raises(universe.InvalidDrawing):
            universe.make_drawing(1, 1, [(0, 0, 1, 1), (0, 0, 1, 1)])
    finally:
        uninstall()
    assert (universe.make_drawing, verify.avoids_all,
            bijections.tree_to_seq) == originals
    tried, rejected = tracer.edge(rec.nodes, "universe.enumerate_strong",
                                  "drawing.make_drawing")
    classes, _ = tracer.edge(rec.nodes, "universe.enumerate_strong",
                             "drawing.canonical_drawing")
    assert classes == 24 and 0 < rejected < tried
    assert tracer.by_name(rec.nodes)["drawing.make_drawing"]["raised"] \
        == rejected + 1


def run_gate(wl, tmp_path):
    state = wl.setup(tmp_path, random.Random(7))
    return [label for label, ok in
            wl.check(state, wl.body(state, lambda name: nullcontext()))
            if not ok]


def test_universe_gate_passes_and_fires_on_a_dropped_class(tmp_path,
                                                          monkeypatch):
    wl = workloads.UniverseBuild(max_n=4)
    assert run_gate(wl, tmp_path) == []
    real = universe.enumerate_strong

    def drops_one(n, **kwargs):
        out = real(n, **kwargs)
        return out[:-1] if n == 4 else out

    monkeypatch.setattr(universe, "enumerate_strong", drops_one)
    failures = run_gate(wl, tmp_path)
    assert "n=4: 24 strong classes" in failures
    assert "n=4: strong key digest" in failures


def test_structural_gate_passes_and_fires_on_wrong_counts(tmp_path,
                                                         monkeypatch):
    wl = workloads.StructuralCounts(class_n=9, invseq_n=5, catalan_order=20,
                                    gk_order=40, max_k=3, tree_n=5)
    assert run_gate(wl, tmp_path) == []
    real = invseq.count_invseq
    monkeypatch.setattr(invseq, "count_invseq",
                        lambda n, pats, *a: real(n, pats, *a) + 1)
    failures = run_gate(wl, tmp_path)
    assert len(failures) == len(wl.INVSEQ_SETS)


def test_verify_gate_fires_on_a_failed_or_missing_line():
    ok = verify.CheckResult("x")
    for _ in range(workloads.VerifyAll.EXPECTED_LINES):
        ok.check("fine", True)
    wl = workloads.VerifyAll()
    assert all(passed for _, passed in wl.check(None, [ok]))
    bad = verify.CheckResult("y")
    bad.check("wrong", False)
    failures = [label for label, passed in wl.check(None, [ok, bad])
                if not passed]
    lines = workloads.VerifyAll.EXPECTED_LINES
    assert failures == ["y: FAIL wrong", "suite y passes",
                        f"{lines + 1} check lines, expected {lines}"]


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(workloads.PER_LAYER)


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "universe-build",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
