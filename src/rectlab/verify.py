"""Verification suites: every enumerative claim the package makes, runnable
as a whole or one suite at a time.  Each suite returns a CheckResult whose
lines record the individual equalities checked, so the CLI can print one
pass/fail line per claim.
"""

from __future__ import annotations

import inspect
from collections import Counter
from dataclasses import dataclass, field
from itertools import pairwise

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


class _Ctx:
    """Shared memo for the expensive enumerations.  The lists it returns are
    shared by every caller, which must not change them."""

    def __init__(self, cache_dir=None):
        self.cache_dir = cache_dir
        self._strong = {}
        self._weak = {}
        self._classes = {}

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

    def strong_class(self, n, avoid):
        return self._class("strong", n, avoid)

    def weak_class(self, n, avoid):
        return self._class("weak", n, avoid)


def suite_catalan(ctx, max_n=6):
    r = CheckResult("catalan")
    want = [paths.catalan(n) for n in range(1, max_n + 1)]
    got = [len(ctx.weak_class(n, ("td",))) for n in range(1, max_n + 1)]
    r.check(f"universe weak td-avoider counts n<={max_n} = {want}", got == want)
    for n in range(1, max_n + 1):
        ok = all(bij.tau(bij.rect_of_tree(t)) == bij.tree_to_seq(t)
                 for t in bij.all_trees(n))
        r.check(f"n={n}: grown drawings read back as the structural images",
                ok)
    levels = bij.tree_image_levels(12)
    next(levels)  # the empty tree
    for n, images in enumerate(levels, 1):
        if not r.check(f"n={n}: tree images distinct and Catalan-many",
                       _count_if_distinct(images) == paths.catalan(n)):
            break
    return r


def _count_if_distinct(items):
    """len(items) if no two are equal, else None.  Sorts a copy, which
    unlike a set needs no table beside it."""
    items = sorted(items)
    return len(items) if all(a < b for a, b in pairwise(items)) else None


def suite_a279555(ctx, max_n=7, dp_n=100):
    r = CheckResult("a279555")
    hand = [1, 2, 5, 15]
    r.check("first terms 1,2,5,15", gentree.level_counts("t1", 4) == hand)
    for n in range(1, max_n + 1):
        ref = gentree.count_by_tree("t1", n)
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
    t1 = gentree.level_counts("t1", dp_n)
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
    for n in range(1, max_n + 1):
        i7 = list(invseq.enumerate_invseq(n, invseq.CLASS_PATTERNS["i7"]))
        yl = list(invseq.enumerate_invseq(n, ("011", "201")))
        image = []
        objwise = True
        for e in i7:
            f = bij.sigma(reflect(bij.tau7_inv(e), "horizontal"))
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


def suite_bijections(ctx, max_n=7, phi_n=9):
    r = CheckResult("bijections")
    for n in range(1, max_n + 1):
        wk = ctx.weak_class(n, ("td",))
        taus = [bij.tau(d) for d in wk]
        ok = len(set(taus)) == len(wk)
        ok = ok and all(weak_key(bij.tau_inv(e)) == weak_key(d)
                        for e, d in zip(taus, wk))
        ok = ok and sorted(taus) == sorted(
            invseq.enumerate_invseq(n, ("10",)))
        r.check(f"n={n}: tau injective, onto, with round trips", ok)
        deltas = [bij.delta(d) for d in wk]
        ok = len(set(deltas)) == len(wk)
        ok = ok and all(bij.delta_direct(d) == p for d, p in zip(wk, deltas))
        ok = ok and all(weak_key(bij.delta_inv(p)) == weak_key(d)
                        for d, p in zip(wk, deltas))
        r.check(f"n={n}: delta = direct reading, injective, round trips", ok)
        trees = [bij.tree_of(d) for d in wk]
        ok = all(weak_key(bij.rect_of_tree(t)) == weak_key(d)
                 for t, d in zip(trees, wk))
        ok = ok and all(not contains(bij.rect_of_tree(t), "td")
                        for t in bij.all_trees(n))
        r.check(f"n={n}: tree construction round trips", ok)
        allweak = ctx.weak(n)
        r.check(f"n={n}: beta injective on weak classes",
                len({bij.beta(d) for d in allweak}) == len(allweak))
        st = ctx.strong_class(n, ("td",))
        for name, fwd, inv, cls in (
                ("tau7", bij.tau7, bij.tau7_inv, "i7"),
                ("tau8", bij.tau8, bij.tau8_inv, "i8"),
                ("tau6", bij.tau6, bij.tau6_inv, "i6")):
            imgs = [fwd(d) for d in st]
            ok = len(set(imgs)) == len(st)
            ok = ok and all(strong_key(inv(e)) == strong_key(d)
                            for e, d in zip(imgs, st))
            ok = ok and sorted(imgs) == list(
                invseq.enumerate_invseq(n, invseq.CLASS_PATTERNS[cls]))
            r.check(f"n={n}: {name} bijective with round trips", ok)
        su = ctx.strong_class(n, ("tu",))
        imgs = [bij.sigma(d) for d in su]
        ok = len(set(imgs)) == len(su)
        ok = ok and all(strong_key(bij.sigma_inv(f)) == strong_key(d)
                        for f, d in zip(imgs, su))
        ok = ok and sorted(imgs) == list(
            invseq.enumerate_invseq(n, ("011", "201")))
        r.check(f"n={n}: sigma bijective with round trips", ok)
        comp = ctx.weak_class(n, ("td", "tu"))
        cs = [bij.composition_of(d) for d in comp]
        ok = len(set(cs)) == len(comp) == 2 ** (n - 1)
        ok = ok and all(weak_key(bij.rect_of_composition(c)) == weak_key(d)
                        for c, d in zip(cs, comp))
        r.check(f"n={n}: composition reading bijective", ok)
        nw = ctx.strong_class(n, ("td", "tr"))
        ws = [bij.nw_word(d) for d in nw]
        ok = len(set(ws)) == len(nw)
        ok = ok and all(strong_key(bij.rect_of_nw_word(w)) == strong_key(d)
                        for w, d in zip(ws, nw))
        r.check(f"n={n}: side-word reading bijective", ok)
    for m in range(2, phi_n + 2):
        ok = all(bij_phi_roundtrip(p) for p in paths.rushed_paths(m))
        r.check(f"semilength {m}: phi round trips on all rushed paths", ok)
    return r


def bij_phi_roundtrip(p):
    """phi_inv(phi(p)) == p.  The other direction, phi(phi_inv(d)) on
    every universe representative d, is checked in suite_a287709."""
    return paths.phi_inv(paths.phi(p)) == p


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


def suite_a287709(ctx, max_n=9, cross_n=7, restricted_n=8):
    r = CheckResult("a287709")
    r.check("hand-derived counts 1,2,4 at n=1..3",
            [universe.count_strip_class(n) for n in (1, 2, 3)] == [1, 2, 4])
    for n in range(1, max_n + 1):
        cnt = universe.count_strip_class(n)
        rushed = len(paths.rushed_paths(n + 1))
        prog = len(paths.progressive_paths(n + 1))
        r.check(f"n={n}: class count {cnt} = rushed = progressive",
                cnt == rushed == prog)
        if n <= cross_n:
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
    for n in range(1, restricted_n + 1):
        rushed = len(paths.rushed_paths(n + 1))
        i7 = invseq.enumerate_invseq(n, invseq.CLASS_PATTERNS["i7"])
        a = sum(1 for e in i7 if invseq.all_ltr_maxima_high(e))
        b = sum(1 for f in invseq.enumerate_invseq(n, ("011", "201"))
                if invseq.bounce_equals_zeros(f))
        r.check(f"n={n}: restricted classes also count {rushed}",
                a == rushed == b)
    return r


def suite_series(ctx, order=100, strip_order=30, max_k=8):
    r = CheckResult("series")
    cs = paths.catalan_series(order)
    r.check(f"fixed-point series matches the closed form to {order} terms",
            cs[1:] == [paths.catalan(n) for n in range(1, order + 1)])
    printed = {1: [1, -1], 2: [1, -2], 3: [1, -3, 1], 4: [1, -4, 3],
               5: [1, -5, 6, -1], 6: [1, -6, 10, -4]}
    r.check("denominators of g_1..g_6 match the printed factorizations",
            all(paths.q_poly(k + 1) == printed[k] for k in printed))
    for k in range(1, max_k + 1):
        g = paths.gk_series(k, strip_order)
        ok = all(g[n] == paths.strip_path_count(2 * n - k, k)
                 for n in range(k, strip_order + 1))
        r.check(f"k={k}: series equals strip counts to {strip_order} terms",
                ok)
        err = abs(paths.growth_rate(k) - paths.reference_growth_rate(k))
        r.check(f"k={k}: growth rate within 1e-9 ({err:.2e})", err < 1e-9)
    return r


def suite_elementary(ctx, max_n=7):
    r = CheckResult("elementary")
    for n in range(1, max_n + 1):
        r.check(f"n={n}: weak both-vertical-joints avoiders = 2^(n-1)",
                len(ctx.weak_class(n, ("td", "tu"))) == 2 ** (n - 1))
        cw = len(ctx.weak_class(n, ("td", "tr")))
        cs = len(ctx.strong_class(n, ("td", "tr")))
        r.check(f"n={n}: top-or-left class = 2^(n-1), weak = strong",
                cw == cs == 2 ** (n - 1))
        cw = len(ctx.weak_class(n, ("td", "tu", "tr")))
        cs = len(ctx.strong_class(n, ("td", "tu", "tr")))
        r.check(f"n={n}: three-pattern class counts n", cw == cs == n)
        cs = len(ctx.strong_class(n, ("td", "tu", "tr", "tl")))
        r.check(f"n={n}: all-pattern class counts {1 if n == 1 else 2}",
                cs == (1 if n == 1 else 2))
        r.check(f"n={n}: enumerated members match the explicit families",
                {strong_key(bij.k_class(n, k)) for k in range(n)}
                == {strong_key(d)
                    for d in ctx.strong_class(n, ("td", "tu", "tr"))}
                and {strong_key(d) for d in bij.trivial_class(n)}
                == {strong_key(d)
                    for d in ctx.strong_class(n, ("td", "tu", "tr", "tl"))})
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
    """Run the named suites (all by default); max_n lowers the exhaustive
    cap of every suite that has a max_n parameter, for quick runs."""
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
