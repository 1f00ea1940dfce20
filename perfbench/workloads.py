"""The benchmark's workloads: inputs, timed body and correctness gate.

Each workload has
  setup(workdir, rng) -> state   prepares inputs; `rng` only permutes order
  body(state, span)   -> out     the timed work; `span(name)` is a context
                                 manager that records a benchmark-side span
  check(state, out)   -> [(label, ok), ...]   the correctness gate
  objects(out)        -> int     the object count reported beside wall_s

Sizes are fixed per workload; the seed only permutes call order.  rectlab
must be importable before this module is imported.
"""

from __future__ import annotations

import hashlib
import itertools
import shutil
from pathlib import Path

import tracer
from rectlab import bijections as bij
from rectlab import (cli, drawing, gentree, invseq, paths, patterns, universe,
                     verify)


def _digest(keys):
    return hashlib.sha256(repr(sorted(keys)).encode()).hexdigest()[:16]


def fresh_dir(path):
    path = Path(path)
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class UniverseBuild:
    """Cold strong and weak universe builds for n = 1..max_n.

    The exhaustive oracle: all the work is in `drawing` and `universe`; no
    `patterns`, `invseq` or `gentree` call is made.
    """

    name = "universe-build"
    # per n: strong classes, weak (Baxter) classes, and 16-hex sha256 digests
    # of the sorted strong keys and of the sorted weak keys.  Keys, not
    # representatives, so that a change of representative is not a failure.
    EXPECTED = {
        1: (1, 1, "65d5b3ec58bdbf2f", "6ab876af3268b1a0"),
        2: (2, 2, "dc24ad2df11acf8f", "790472c9ef2605ee"),
        3: (6, 6, "3d86575be7f6fa63", "dc58b3efbe28c626"),
        4: (24, 22, "6a0f2e8f5cc90171", "5260d42082985e9f"),
        5: (116, 92, "d8f41cf960834afc", "d3fd1a40094bc89c"),
        6: (642, 422, "efbc7ded560ebadc", "24f4de3bb7d1f8de"),
        7: (3938, 2074, "d7cb7cb974de64d6", "917f3856b3344c6c"),
    }

    def __init__(self, max_n=7):
        self.max_n = max_n

    def setup(self, workdir, rng):
        order = list(range(1, self.max_n + 1))
        rng.shuffle(order)
        return {"cache": fresh_dir(Path(workdir) / "cold"), "order": order}

    def body(self, state, span):
        out = {}
        for n in state["order"]:
            strong = universe.enumerate_strong(n, max_n=self.max_n,
                                               cache_dir=state["cache"])
            weak = universe.enumerate_weak(n, max_n=self.max_n,
                                           cache_dir=state["cache"])
            out[n] = (strong, weak)
        return out

    def check(self, state, out):
        checks = []
        for n in sorted(out):
            strong, weak = out[n]
            n_strong, n_weak, d_strong, d_weak = self.EXPECTED[n]
            checks += [
                (f"n={n}: {n_strong} strong classes", len(strong) == n_strong),
                (f"n={n}: {n_weak} weak classes", len(weak) == n_weak),
                (f"n={n}: strong key digest",
                 _digest(map(drawing.strong_key, strong)) == d_strong),
                (f"n={n}: weak key digest",
                 _digest(map(drawing.weak_key, weak)) == d_weak),
            ]
        return checks

    def objects(self, out):
        return sum(len(s) + len(w) for s, w in out.values())


class VerifyAll:
    """Every suite of `rectlab verify`, reading a warm strong cache.

    The suites are called as `verify.run_suites` calls them, sharing one
    `verify._Ctx`, but with the sizes in SIZES: exhaustive caps at n=6 (as
    `--max-n 6` gives) and the a279555 level DP to n=60, so that a pass fits
    several times into one run.  `universe` only loads from the cache.
    """

    name = "verify-all"
    CACHE_N = 6
    SIZES = {
        "catalan": {"max_n": 6},
        "a279555": {"max_n": 6, "dp_n": 60},
        "conjecture-stats": {"max_n": 6},
        "bijections": {"max_n": 6},
        "direct-vs-trace": {"max_n": 6},
        "beta-correspondence": {"max_n": 6},
        "stats-props": {"max_n": 6},
        "a287709": {"max_n": 6},
        "series": {},
        "elementary": {"max_n": 6},
        "guillotine": {"max_n": 6},
    }
    # check lines the suites print at SIZES
    EXPECTED_LINES = 243

    def setup(self, workdir, rng):
        """Cold-build the strong cache the suites read."""
        cache = fresh_dir(Path(workdir) / "warm")
        for n in range(1, self.CACHE_N + 1):
            universe.enumerate_strong(n, cache_dir=cache)
        order = list(self.SIZES)
        rng.shuffle(order)
        return {"cache": cache, "order": order}

    def body(self, state, span):
        ctx = verify._Ctx(cache_dir=state["cache"])
        results = []
        for name in state["order"]:
            with span(f"verify.{name}"):
                results.append(verify.SUITES[name](ctx, **self.SIZES[name]))
        return results

    def check(self, state, out):
        checks = [(f"{res.name}: {line}", line.startswith("PASS "))
                  for res in out for line in res.lines]
        checks += [(f"suite {res.name} passes", res.ok) for res in out]
        n_lines = sum(len(res.lines) for res in out)
        checks.append((f"{n_lines} check lines, expected "
                       f"{self.EXPECTED_LINES}",
                       n_lines == self.EXPECTED_LINES))
        return checks

    def objects(self, out):
        return sum(len(res.lines) for res in out)


T_PATTERNS = ("td", "tu", "tr", "tl")
# The 30 T-only class specs: weak and strong, 1-4 of the T patterns.
CLASS_SPECS = [(mode, frozenset(c)) for mode in ("weak", "strong")
               for k in range(1, 5)
               for c in itertools.combinations(T_PATTERNS, k)]

# Counts of every T-only class at n=1..7 from the universe oracle, keyed by
# (mode, number of patterns, whether the avoided set mixes vertical td/tu
# with sideways tr/tl).  All 30 specs fall under one of these rows.
_FIRST_TERMS = {
    ("weak", 1, False): (1, 2, 5, 14, 42, 132, 429),
    ("strong", 1, False): (1, 2, 5, 15, 51, 189, 746),
    ("weak", 2, False): (1, 2, 4, 8, 16, 32, 64),
    ("weak", 2, True): (1, 2, 4, 8, 16, 32, 64),
    ("strong", 2, False): (1, 2, 4, 9, 22, 57, 154),
    ("strong", 2, True): (1, 2, 4, 8, 16, 32, 64),
    ("weak", 3, True): (1, 2, 3, 4, 5, 6, 7),
    ("strong", 3, True): (1, 2, 3, 4, 5, 6, 7),
    ("weak", 4, True): (1, 2, 2, 2, 2, 2, 2),
    ("strong", 4, True): (1, 2, 2, 2, 2, 2, 2),
}


def first_terms(mode, avoid):
    mixed = bool(avoid & {"td", "tu"}) and bool(avoid & {"tr", "tl"})
    return _FIRST_TERMS[(mode, len(avoid), mixed)]


class StructuralCounts:
    """The counts rectlab gives without a universe: no drawing is built, so
    `drawing` and `universe` do nothing here."""

    name = "structural-counts"
    INVSEQ_SETS = (invseq.CLASS_PATTERNS["i6"], invseq.CLASS_PATTERNS["i7"],
                   invseq.CLASS_PATTERNS["i8"], ("011", "201"), ("10",))

    def __init__(self, class_n=60, invseq_n=8, catalan_order=200,
                 gk_order=300, max_k=8, tree_n=11):
        self.class_n = class_n
        self.invseq_n = invseq_n
        self.catalan_order = catalan_order
        self.gk_order = gk_order
        self.max_k = max_k
        self.tree_n = tree_n

    def setup(self, workdir, rng):
        parts = ([("class", spec, n) for spec in CLASS_SPECS
                  for n in range(1, self.class_n + 1)]
                 + [("invseq", pats) for pats in self.INVSEQ_SETS]
                 + [("catalan",)]
                 + [("gk", k) for k in range(1, self.max_k + 1)]
                 + [("trees", n) for n in range(1, self.tree_n + 1)])
        rng.shuffle(parts)
        return {"parts": parts}

    def body(self, state, span):
        out = {}
        for part in state["parts"]:
            kind = part[0]
            if kind == "class":
                (mode, avoid), n = part[1], part[2]
                out[part] = cli.class_count(mode, avoid, n)[0]
            elif kind == "invseq":
                out[part] = invseq.count_invseq(self.invseq_n, part[1])
            elif kind == "catalan":
                out[part] = paths.catalan_series(self.catalan_order)
            elif kind == "gk":
                out[part] = paths.gk_series(part[1], self.gk_order)
            else:
                out[part] = [bij.tree_to_seq(t)
                             for t in bij.all_trees(part[1])]
        return out

    def check(self, state, out):
        checks = []
        cat = out[("catalan",)]
        checks.append((f"catalan series = closed form to {self.catalan_order}",
                       cat[1:] == [
                           paths.catalan(n)
                           for n in range(1, self.catalan_order + 1)]))
        t2 = [None] + [gentree.count_by_tree("t2", n)
                       for n in range(1, self.class_n + 1)]
        for mode, avoid in CLASS_SPECS:
            spec = f"{mode}:avoid={','.join(sorted(avoid))}"
            got = [out[("class", (mode, avoid), n)]
                   for n in range(1, self.class_n + 1)]
            want = first_terms(mode, avoid)[:self.class_n]
            checks.append((f"{spec}: universe first terms {want}",
                           tuple(got[:len(want)]) == want))
            if len(avoid) == 1:
                ref = t2 if mode == "strong" else cat
                checks += [(f"{spec} n={n}: equals "
                            f"{'tree t2' if mode == 'strong' else 'series'}",
                            got[n - 1] == ref[n])
                           for n in range(1, self.class_n + 1)]
        n = self.invseq_n
        t1_n = gentree.count_by_tree("t1", n)
        checks.append((f"t1 = t2 at n={n}",
                       t1_n == gentree.count_by_tree("t2", n)))
        for pats in self.INVSEQ_SETS:
            want = paths.catalan(n) if pats == ("10",) else t1_n
            checks.append((f"I_{n}({','.join(pats)}) = {want}",
                           out[("invseq", pats)] == want))
        for k in range(1, self.max_k + 1):
            g = out[("gk", k)]
            checks.append((f"g_{k} = strip counts to 30 terms",
                           len(g) == self.gk_order + 1 and all(
                               g[m] == paths.strip_path_count(2 * m - k, k)
                               for m in range(k, 31))))
        for m in range(1, self.tree_n + 1):
            images = out[("trees", m)]
            checks.append((f"n={m}: tree images distinct, Catalan-many, "
                           "non-decreasing inversion sequences",
                           len(set(images)) == len(images) == cat[m]
                           and all(_nondecreasing_invseq(e)
                                   for e in images)))
        return checks

    def objects(self, out):
        return sum(len(v) if isinstance(v, list) else 1
                   for v in out.values())


def _nondecreasing_invseq(e):
    return invseq.is_invseq(e) and all(a <= b for a, b in zip(e, e[1:]))


WORKLOADS = {w.name: w for w in (UniverseBuild, VerifyAll, StructuralCounts)}


def memo_caches():
    """The program's in-process memo caches, which no pass may inherit."""
    return {"drawing.relations_of": drawing.relations_of,
            "patterns.is_guillotine": patterns.is_guillotine}


LAYERS = ("drawing", "patterns", "universe", "invseq", "gentree",
          "bijections", "paths", "cli", "verify")

# Per-layer metrics of a traced pass, in report order: (name, unit).
PER_LAYER = (
    [("drawing.self_s", "s"), ("drawing.calls", "count"),
     ("drawing.make_drawing.calls", "count"),
     ("drawing.make_drawing.self_s", "s"),
     ("drawing.canonical_drawing.self_s", "s"),
     ("drawing.strong_key.self_s", "s"),
     ("drawing.relations_of.hit_ratio", "ratio"),
     ("drawing.relations_of.lookups", "count"),
     ("universe.self_s", "s"), ("universe.tilings_tried", "count"),
     ("universe.rejected", "count"), ("universe.classes", "count"),
     ("universe.yield_ratio", "ratio"), ("universe.load_s", "s"),
     ("patterns.self_s", "s"), ("patterns.avoids_all.calls", "count"),
     ("patterns.is_guillotine.hit_ratio", "ratio"),
     ("patterns.is_guillotine.lookups", "count"),
     ("invseq.self_s", "s"), ("invseq.contains_pattern.calls", "count"),
     ("invseq.contains_pattern.self_s", "s"),
     ("invseq.enumerate_invseq.self_s", "s"),
     ("gentree.self_s", "s"), ("gentree.count_by_tree.calls", "count"),
     ("gentree.count_by_tree.self_s", "s"),
     ("gentree.trace_of_rect.self_s", "s"),
     ("bijections.self_s", "s"), ("bijections.calls", "count"),
     ("bijections.tree_to_seq.calls", "count"),
     ("paths.self_s", "s"), ("paths.catalan_series.self_s", "s"),
     ("cli.class_count.self_s", "s")]
    + [(f"verify.{suite}.s", "s") for suite in VerifyAll.SIZES]
    + [("trace.wall_s", "s"), ("trace.overhead_s", "s")])


def _hit_ratio(info):
    lookups = info.hits + info.misses
    return (info.hits / lookups if lookups else 0.0), lookups


def layer_metrics(nodes, cache_infos):
    """Per-layer metrics of one traced pass from its span tree and the memo
    caches' cache_info() taken right after the body (all but trace.*)."""
    funcs = tracer.by_name(nodes)

    def fn(name, key):
        return funcs.get(name, {}).get(key, 0)

    def layer(prefix, key):
        return sum(v[key] for k, v in funcs.items()
                   if k.startswith(prefix + "."))

    # enumerate_strong calls make_drawing once per tiling it tries and
    # canonical_drawing once per new class; a call served from the cache
    # makes no traced call at all.
    tried, rejected = tracer.edge(nodes, "universe.enumerate_strong",
                                  "drawing.make_drawing")
    classes, _ = tracer.edge(nodes, "universe.enumerate_strong",
                             "drawing.canonical_drawing")
    rel_ratio, rel_lookups = _hit_ratio(cache_infos["drawing.relations_of"])
    gui_ratio, gui_lookups = _hit_ratio(
        cache_infos["patterns.is_guillotine"])
    out = {
        "drawing.self_s": layer("drawing", "self_s"),
        "drawing.calls": layer("drawing", "calls"),
        "drawing.make_drawing.calls": fn("drawing.make_drawing", "calls"),
        "drawing.make_drawing.self_s": fn("drawing.make_drawing", "self_s"),
        "drawing.canonical_drawing.self_s":
            fn("drawing.canonical_drawing", "self_s"),
        "drawing.strong_key.self_s": fn("drawing.strong_key", "self_s"),
        "drawing.relations_of.hit_ratio": rel_ratio,
        "drawing.relations_of.lookups": rel_lookups,
        "universe.self_s": layer("universe", "self_s"),
        "universe.tilings_tried": tried,
        "universe.rejected": rejected,
        "universe.classes": classes,
        "universe.yield_ratio": classes / tried if tried else 0.0,
        "universe.load_s": fn("universe.enumerate_strong", "leaf_s"),
        "patterns.self_s": layer("patterns", "self_s"),
        "patterns.avoids_all.calls": fn("patterns.avoids_all", "calls"),
        "patterns.is_guillotine.hit_ratio": gui_ratio,
        "patterns.is_guillotine.lookups": gui_lookups,
        "invseq.self_s": layer("invseq", "self_s"),
        "invseq.contains_pattern.calls": fn("invseq.contains_pattern",
                                            "calls"),
        "invseq.contains_pattern.self_s": fn("invseq.contains_pattern",
                                             "self_s"),
        "invseq.enumerate_invseq.self_s": fn("invseq.enumerate_invseq",
                                             "self_s"),
        "gentree.self_s": layer("gentree", "self_s"),
        "gentree.count_by_tree.calls": fn("gentree.count_by_tree", "calls"),
        "gentree.count_by_tree.self_s": fn("gentree.count_by_tree",
                                           "self_s"),
        "gentree.trace_of_rect.self_s": fn("gentree.trace_of_rect",
                                           "self_s"),
        "bijections.self_s": layer("bijections", "self_s"),
        "bijections.calls": layer("bijections", "calls"),
        "bijections.tree_to_seq.calls": fn("bijections.tree_to_seq",
                                           "calls"),
        "paths.self_s": layer("paths", "self_s"),
        "paths.catalan_series.self_s": fn("paths.catalan_series", "self_s"),
        "cli.class_count.self_s": fn("cli.class_count", "self_s"),
    }
    for suite in VerifyAll.SIZES:
        out[f"verify.{suite}.s"] = fn(f"verify.{suite}", "total_s")
    return out
