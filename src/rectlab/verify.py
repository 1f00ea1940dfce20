"""Verification suites: every enumerative claim the package makes, runnable
as a whole or one suite at a time.  Each suite returns a CheckResult whose
lines record the individual equalities checked, so the CLI can print one
pass/fail line per claim.
"""

from __future__ import annotations

import inspect
from collections import Counter
from dataclasses import dataclass, field
from itertools import islice, pairwise
from operator import lt

from . import bijections as bij
from . import gentree, invseq, paths, universe
from .drawing import (boundary_touch_counts, reflect, strong_key, weak_key)
from .patterns import avoids_all, contains, is_guillotine


@dataclass
class CheckResult:
    name: str
    ok: bool = True
    lines: list = field(default_factory=list)

    def check(self, label, cond):
        self.lines.append(("PASS" if cond else "FAIL") + " " + label)
        self.ok = self.ok and bool(cond)
        return cond


# Counting method of every class that avoids a nonempty L within
# {td, tu, tr, tl}: one row per orbit of the 32 (mode, L) cells under the
# dihedral symmetries, keyed by (mode, |L|, whether L mixes a vertical joint
# td/tu with a sideways one tr/tl).  A row holds the tag `count` prints and
# the count as a function of n; a class with no row is counted in the
# universe.  The suites check every row against the universe.  The functions
# are looked up at call time, so that a tracer that wraps module functions
# sees these calls.
CLASSES = {
    ("weak", 1, False): ("catalan", lambda n: paths.catalan(n)),
    ("strong", 1, False): ("tree dp",
                           lambda n: gentree.count_by_tree("t1", n)),
    ("weak", 2, False): ("formula 2^(n-1)", lambda n: 2 ** (n - 1)),
    ("strong", 2, False): ("bounded-height series",
                           lambda n: paths.rushed_count(n)),
    ("weak", 2, True): ("formula 2^(n-1)", lambda n: 2 ** (n - 1)),
    ("strong", 2, True): ("formula 2^(n-1)", lambda n: 2 ** (n - 1)),
    ("weak", 3, True): ("formula n", lambda n: n),
    ("strong", 3, True): ("formula n", lambda n: n),
    ("weak", 4, True): ("formula 2", lambda n: 1 if n == 1 else 2),
    ("strong", 4, True): ("formula 2", lambda n: 1 if n == 1 else 2),
}

_VERTICAL, _SIDEWAYS = frozenset({"td", "tu"}), frozenset({"tr", "tl"})


def _class_row(mode, avoid):
    """The CLASSES row (tag, count function) of the class avoiding the
    frozenset avoid, or None."""
    if not avoid <= _VERTICAL | _SIDEWAYS:
        return None
    return CLASSES.get((mode, len(avoid),
                        bool(avoid & _VERTICAL and avoid & _SIDEWAYS)))


def _row_count(mode, avoid, n):
    """The size-n count that the CLASSES row of the class gives."""
    return _class_row(mode, frozenset(avoid))[1](n)


class _Ctx:
    """Shared memo for the expensive enumerations and for the grown drawings
    of the binary trees.  The lists and dicts it returns are shared by every
    caller, which must not change them."""

    def __init__(self, cache_dir=None):
        self.cache_dir = cache_dir
        self._strong = {}
        self._weak = {}
        self._classes = {}
        self._grown = {}

    def strong(self, n):
        if n not in self._strong:
            self._strong[n] = universe.enumerate_strong(
                n, max_n=max(n, universe.DEFAULT_MAX_N),
                cache_dir=self.cache_dir)
        return self._strong[n]

    def weak(self, n):
        if n not in self._weak:
            self._weak[n] = universe.weak_classes(self.strong(n))
        return self._weak[n]

    def _class(self, mode, n, avoid):
        key = (mode, n, frozenset(avoid))
        if key not in self._classes:
            pool = self.strong(n) if mode == "strong" else self.weak(n)
            self._classes[key] = [d for d in pool if avoids_all(d, avoid)]
        return self._classes[key]

    def grown(self, n):
        """{tree: bij.rect_of_tree(tree)} over the binary trees with n
        nodes."""
        if n not in self._grown:
            self._grown[n] = {t: bij.rect_of_tree(t) for t in bij.all_trees(n)}
        return self._grown[n]

    def strong_class(self, n, avoid):
        return self._class("strong", n, avoid)

    def weak_class(self, n, avoid):
        return self._class("weak", n, avoid)


# Sizes of the checks that max_n leaves alone (see run_suites).
PHI_N = 9
RESTRICTED_N = 8
SERIES_ORDER = 100
STRIP_ORDER = 30
MAX_K = 8
TREE_IMAGE_N = 12


def suite_catalan(ctx, max_n=6):
    r = CheckResult("catalan")
    want = [_row_count("weak", ("td",), n) for n in range(1, max_n + 1)]
    got = [len(ctx.weak_class(n, ("td",))) for n in range(1, max_n + 1)]
    r.check(f"universe weak td-avoider counts n<={max_n} = {want}", got == want)
    for n in range(1, max_n + 1):
        ok = all(bij.tau(d) == bij.tree_to_seq(t)
                 for t, d in ctx.grown(n).items())
        r.check(f"n={n}: grown drawings read back as the structural images",
                ok)
    levels = bij.tree_image_levels(TREE_IMAGE_N - 1)
    lower = [next(levels)]  # the empty tree
    for n, images in enumerate(levels, 1):
        lower.append(images)
        if not r.check(f"n={n}: tree images distinct and Catalan-many",
                       _count_if_distinct(images)
                       == _row_count("weak", ("td",), n)):
            break
    else:
        counts = [_count_if_distinct(bucket)
                  for bucket in bij.tree_image_buckets(lower)]
        r.check(f"n={TREE_IMAGE_N}: tree images distinct and Catalan-many",
                None not in counts
                and sum(counts) == _row_count("weak", ("td",), TREE_IMAGE_N))
    return r


def _count_if_distinct(items):
    """len(items) if no two are equal, else None.  Sorts the list in place,
    which unlike a set or a sorted copy needs no table beside it, and
    compares neighbours in C.  A level of tree_image_levels sorted here
    makes every later level a few sorted runs, which the sort merges.  The
    top level is checked one tree_image_buckets list at a time, and the
    level is distinct iff every list is."""
    items.sort()
    return len(items) if all(map(lt, items, islice(items, 1, None))) else None


def suite_a279555(ctx, max_n=7, dp_n=100):
    r = CheckResult("a279555")
    # first, so that a dp_n above gentree.LEVEL_CAP is refused before any work
    t1 = gentree.level_counts("t1", dp_n)
    hand = [1, 2, 5, 15]
    r.check("first terms 1,2,5,15", gentree.level_counts("t1", 4) == hand)
    for n in range(1, max_n + 1):
        ref = _row_count("strong", ("td",), n)
        vals = {
            "strong td-avoiders": len(ctx.strong_class(n, ("td",))),
            "strong tu-avoiders": len(ctx.strong_class(n, ("tu",))),
            "tree t2": gentree.count_by_tree("t2", n),
        }
        for cls, pats in invseq.CLASS_PATTERNS.items():
            vals[cls] = invseq.count_invseq(n, pats)
        vals["I(011,201)"] = invseq.count_invseq(n, ("011", "201"))
        bad = {k: v for k, v in vals.items() if v != ref}
        r.check(f"n={n}: all seven counts equal {ref}", not bad)
    r.check(f"t1 and t2 level counts agree to n={dp_n}",
            t1 == gentree.level_counts("t2", dp_n))
    return r


def _quad_e(e):
    s = invseq.stats(e)
    return (s.zeros, s.ltr_maxima, s.bounce, s.highs)


def _quad_f(f):
    s = invseq.stats(f)
    return (s.highs, s.zeros, s.rtl_minima, s.bounce)


def suite_conjecture_stats(ctx, max_n=7):
    r = CheckResult("conjecture-stats")
    t1_levels = gentree.replay_levels("t1", max_n)
    for n in range(1, max_n + 1):
        tau7_inv = _read_level(next(t1_levels), bij.tau7_inv)
        i7 = list(invseq.enumerate_invseq(n, invseq.CLASS_PATTERNS["i7"]))
        yl = list(invseq.enumerate_invseq(n, ("011", "201")))
        image = []
        objwise = True
        for e in i7:
            f = bij.sigma(reflect(tau7_inv(e), "horizontal"))
            image.append(f)
            objwise = objwise and _quad_e(e) == _quad_f(f)
        r.check(f"n={n}: witness map lands bijectively in the target class",
                sorted(image) == sorted(yl) and len(set(image)) == len(i7))
        r.check(f"n={n}: quadruples match object-by-object", objwise)
        r.check(f"n={n}: quadruple multisets equal",
                Counter(map(_quad_e, i7)) == Counter(map(_quad_f, yl)))
        swap_e = Counter((c, b, a, d) for a, b, c, d in map(_quad_e, i7))
        swap_f = Counter((z, y, x, t) for x, y, z, t in map(_quad_f, yl))
        r.check(f"n={n}: swapped quadruple multisets equal", swap_e == swap_f)
    return r


def _bijective(members, fwd, inv, key, onto=None):
    """True iff fwd maps the members to distinct images, inv takes each
    image back to its member's key class, and, when onto is given, the
    images are exactly onto."""
    images = [fwd(d) for d in members]
    return (len(set(images)) == len(members)
            and all(key(inv(e)) == key(d) for e, d in zip(images, members))
            and (onto is None or sorted(images) == sorted(onto)))


def _read_level(level, inv, pre=None):
    """The map inv after pre (if given) that reads the image of a key of
    level from level and calls inv only on other keys; inv(k) must equal
    level[k] for every key k, so the map equals inv wherever inv is
    defined, and raises where inv raises."""
    def read(e):
        k = e if pre is None else pre(e)
        return level[k] if k in level else inv(k)
    return read


def suite_bijections(ctx, max_n=7):
    """The inverse maps replayed along the generating trees read the
    drawings of gentree.replay_levels, which grows each level once from the
    one above, in place of one replay from the root per member."""
    r = CheckResult("bijections")
    t1_levels = gentree.replay_levels("t1", max_n)
    t2_levels = gentree.replay_levels("t2", max_n)
    for n in range(1, max_n + 1):
        t1, t2 = next(t1_levels), next(t2_levels)
        # tau_inv is tau7_inv on the non-decreasing sequences, all in i7
        mono = {e: d for e, d in t1.items()
                if all(a <= b for a, b in pairwise(e))}
        wk = ctx.weak_class(n, ("td",))
        r.check(f"n={n}: tau injective, onto, with round trips",
                _bijective(wk, bij.tau, _read_level(mono, bij.tau_inv),
                           weak_key,
                           invseq.enumerate_invseq(n, ("10",))))
        r.check(f"n={n}: delta = direct reading, injective, round trips",
                _bijective(wk, bij.delta,
                           _read_level(mono, bij.tau_inv, bij.epsilon_inv),
                           weak_key)
                and all(bij.delta_direct(d) == bij.delta(d) for d in wk))
        grown = ctx.grown(n)
        r.check(f"n={n}: tree construction round trips",
                _bijective(wk, bij.tree_of,
                           _read_level(grown, bij.rect_of_tree), weak_key)
                and all(not contains(d, "td") for d in grown.values()))
        allweak = ctx.weak(n)
        r.check(f"n={n}: beta injective on weak classes",
                len({bij.beta(d) for d in allweak}) == len(allweak))
        st = ctx.strong_class(n, ("td",))
        # tau8_inv and tau6_inv transform their input into i7 for tau7_inv
        to7 = invseq.transform_8_to_7
        for name, fwd, pre, cls in (
                ("tau7", bij.tau7, None, "i7"),
                ("tau8", bij.tau8, lambda e: to7(tuple(e)), "i8"),
                ("tau6", bij.tau6,
                 lambda e: to7(invseq.transform_6_to_8(tuple(e))), "i6")):
            r.check(f"n={n}: {name} bijective with round trips",
                    _bijective(st, fwd, _read_level(t1, bij.tau7_inv, pre),
                               strong_key,
                               invseq.enumerate_invseq(
                                   n, invseq.CLASS_PATTERNS[cls])))
        r.check(f"n={n}: sigma bijective with round trips",
                _bijective(ctx.strong_class(n, ("tu",)), bij.sigma,
                           _read_level(t2, bij.sigma_inv), strong_key,
                           invseq.enumerate_invseq(n, ("011", "201"))))
        comp = ctx.weak_class(n, ("td", "tu"))
        r.check(f"n={n}: composition reading bijective",
                _bijective(comp, bij.composition_of, bij.rect_of_composition,
                           weak_key)
                and len(comp) == _row_count("weak", ("td", "tu"), n))
        r.check(f"n={n}: side-word reading bijective",
                _bijective(ctx.strong_class(n, ("td", "tr")), bij.nw_word,
                           bij.rect_of_nw_word, strong_key))
    # phi(phi_inv(d)) on every universe representative d is checked in
    # suite_a287709
    for m in range(2, PHI_N + 2):
        r.check(f"semilength {m}: phi round trips on all rushed paths",
                _bijective(paths.rushed_paths(m), paths.phi, paths.phi_inv,
                           lambda p: p))
    return r


def suite_direct_vs_trace(ctx, max_n=7):
    r = CheckResult("direct-vs-trace")
    for n in range(1, max_n + 1):
        st = ctx.strong_class(n, ("td",))
        ok = all(bij.tau7(d) ==
                 gentree.replay_invseq(gentree.trace_of_rect(d, "t1"), "t1")
                 for d in st)
        r.check(f"n={n}: contact-corrected reading equals t1 trace replay", ok)
        su = ctx.strong_class(n, ("tu",))
        ok = all(bij.sigma(d) ==
                 gentree.replay_invseq(gentree.trace_of_rect(d, "t2"), "t2")
                 for d in su)
        r.check(f"n={n}: height-label reading equals t2 trace replay", ok)
    return r


def suite_beta_correspondence(ctx, max_n=6):
    r = CheckResult("beta-correspondence")
    for n in range(1, max_n + 1):
        wk = ctx.weak(n)
        ok = all(contains(d, "td") == invseq.perm_contains(bij.beta(d), "213")
                 for d in wk)
        r.check(f"n={n}: td-containment iff 213 in beta ({len(wk)} classes)",
                ok)
        ok = all(bij.tau(d, check=False) == invseq.theta(bij.beta(d))
                 for d in wk)
        r.check(f"n={n}: tau equals theta after beta", ok)
    return r


def suite_stats_props(ctx, max_n=7):
    r = CheckResult("stats-props")
    for n in range(1, max_n + 1):
        ok = True
        for d in ctx.strong_class(n, ("td",)):
            nn, ee, ss, ww = boundary_touch_counts(d)
            for fwd in (bij.tau6, bij.tau7, bij.tau8):
                s = invseq.stats(fwd(d))
                ok = ok and (nn, ee, ss, ww) == \
                    (s.ltr_maxima, s.bounce, s.highs, s.zeros)
        r.check(f"n={n}: side counts match the three strong readings", ok)
        ok = True
        for d in ctx.strong_class(n, ("tu",)):
            nn, ee, ss, ww = boundary_touch_counts(d)
            s = invseq.stats(bij.sigma(d))
            ok = ok and (nn, ee, ss, ww) == \
                (s.bounce, s.rtl_minima, s.zeros, s.highs)
        r.check(f"n={n}: side counts match the height-label reading", ok)
    return r


def suite_a287709(ctx, max_n=9):
    r = CheckResult("a287709")
    r.check("hand-derived counts 1,2,4 at n=1..3",
            [universe.count_strip_class(n) for n in (1, 2, 3)] == [1, 2, 4])
    for n in range(1, max_n + 1):
        cnt = universe.count_strip_class(n)
        rushed = len(paths.rushed_paths(n + 1))
        prog = len(paths.progressive_paths(n + 1))
        r.check(f"n={n}: class count {cnt} = rushed = progressive",
                cnt == rushed == prog
                == _row_count("strong", ("tr", "tl"), n))
        if n <= universe.DEFAULT_MAX_N:  # the largest default universe
            members = ctx.strong_class(n, ("tr", "tl"))
            r.check(f"n={n}: strip oracle agrees with the universe",
                    cnt == len(members))
            ok = True
            for d in members:
                p = paths.phi_inv(d)
                ok = ok and paths.is_rushed(p) and \
                    strong_key(paths.phi(p)) == strong_key(d)
            r.check(f"n={n}: phi_inv is rushed and inverts phi on every "
                    "universe representative", ok)
    for n in range(1, RESTRICTED_N + 1):
        rushed = len(paths.rushed_paths(n + 1))
        i7 = invseq.enumerate_invseq(n, invseq.CLASS_PATTERNS["i7"])
        a = sum(1 for e in i7 if invseq.all_ltr_maxima_high(e))
        b = sum(1 for f in invseq.enumerate_invseq(n, ("011", "201"))
                if invseq.bounce_equals_zeros(f))
        r.check(f"n={n}: restricted classes also count {rushed}",
                a == rushed == b)
    return r


def suite_series(ctx):
    r = CheckResult("series")
    cs = paths.catalan_series(SERIES_ORDER)
    r.check(f"fixed-point series matches the closed form to {SERIES_ORDER} "
            "terms",
            cs[1:] == [paths.catalan(n) for n in range(1, SERIES_ORDER + 1)])
    printed = {1: [1, -1], 2: [1, -2], 3: [1, -3, 1], 4: [1, -4, 3],
               5: [1, -5, 6, -1], 6: [1, -6, 10, -4]}
    r.check("denominators of g_1..g_6 match the printed factorizations",
            all(paths.q_poly(k + 1) == printed[k] for k in printed))
    for k in range(1, MAX_K + 1):
        g = paths.gk_series(k, STRIP_ORDER)
        ok = all(g[n] == paths.strip_path_count(2 * n - k, k)
                 for n in range(k, STRIP_ORDER + 1))
        r.check(f"k={k}: series equals strip counts to {STRIP_ORDER} terms",
                ok)
        err = abs(paths.growth_rate(k) - paths.reference_growth_rate(k))
        r.check(f"k={k}: growth rate within 1e-9 ({err:.2e})", err < 1e-9)
    return r


def suite_elementary(ctx, max_n=7):
    r = CheckResult("elementary")
    for n in range(1, max_n + 1):
        vertical = ("td", "tu")
        r.check(f"n={n}: weak both-vertical-joints avoiders = 2^(n-1)",
                len(ctx.weak_class(n, vertical))
                == _row_count("weak", vertical, n))
        top_left = ("td", "tr")
        cw = len(ctx.weak_class(n, top_left))
        cs = len(ctx.strong_class(n, top_left))
        r.check(f"n={n}: top-or-left class = 2^(n-1), weak = strong",
                cw == cs and cw == _row_count("weak", top_left, n)
                and cs == _row_count("strong", top_left, n))
        three = ("td", "tu", "tr")
        cw = len(ctx.weak_class(n, three))
        cs = len(ctx.strong_class(n, three))
        r.check(f"n={n}: three-pattern class counts n",
                cw == cs and cw == _row_count("weak", three, n)
                and cs == _row_count("strong", three, n))
        four = ("td", "tu", "tr", "tl")
        want = _row_count("strong", four, n)
        r.check(f"n={n}: all-pattern class counts {want}",
                len(ctx.strong_class(n, four)) == want
                and len(ctx.weak_class(n, four))
                == _row_count("weak", four, n))
        r.check(f"n={n}: enumerated members match the explicit families",
                {strong_key(bij.k_class(n, k)) for k in range(n)}
                == {strong_key(d) for d in ctx.strong_class(n, three)}
                and {strong_key(d) for d in bij.trivial_class(n)}
                == {strong_key(d) for d in ctx.strong_class(n, four)})
    return r


def suite_guillotine(ctx, max_n=6):
    r = CheckResult("guillotine")
    for n in range(1, max_n + 1):
        ok = all(is_guillotine(d) == avoids_all(d, ("wm+", "wm-"))
                 for d in ctx.strong(n))
        r.check(f"n={n}: guillotine iff windmill-free on all strong classes",
                ok)
        ok = all(is_guillotine(d) for d in ctx.weak_class(n, ("td",)))
        r.check(f"n={n}: every td-avoiding weak class is guillotine", ok)
    return r


SUITES = {
    "catalan": suite_catalan,
    "a279555": suite_a279555,
    "conjecture-stats": suite_conjecture_stats,
    "bijections": suite_bijections,
    "direct-vs-trace": suite_direct_vs_trace,
    "beta-correspondence": suite_beta_correspondence,
    "stats-props": suite_stats_props,
    "a287709": suite_a287709,
    "series": suite_series,
    "elementary": suite_elementary,
    "guillotine": suite_guillotine,
}


def run_suites(names=None, max_n=None, cache_dir=None):
    """Run the named suites (all by default).  max_n, for quick runs, lowers
    the max_n cap of every suite that has one and never raises it: a suite
    runs at min(max_n, its default cap).  Its other sizes stay.  A max_n
    below 1 is refused."""
    if max_n is not None and max_n < 1:
        raise ValueError(f"max_n must be >= 1, got {max_n}")
    ctx = _Ctx(cache_dir=cache_dir)
    results = []
    for name in names or SUITES:
        fn = SUITES[name]
        kwargs = {}
        cap = inspect.signature(fn).parameters.get("max_n")
        if max_n is not None and cap is not None:
            kwargs["max_n"] = min(max_n, cap.default)
        results.append(fn(ctx, **kwargs))
    return results
