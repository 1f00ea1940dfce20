"""Command line interface.

Exit codes: 0 success, 1 check failure, 2 usage error, 3 I/O or network
error.  Class specs look like "strong:avoid=td,tu" (or just "weak").
"""

from __future__ import annotations

import argparse
import json
import sys

from . import bijections as bij
from . import gentree, invseq, oeis, paths, universe, verify
from .drawing import InvalidDrawing, from_json
from .patterns import PATTERNS
from .render import render_ascii, render_svg


class UsageError(Exception):
    pass


def parse_class_spec(spec):
    mode, _, rest = spec.partition(":")
    if mode not in ("weak", "strong"):
        raise UsageError(f"class spec must start with weak: or strong:, "
                         f"got {spec!r}")
    avoid = ()
    if rest:
        key, _, val = rest.partition("=")
        if key != "avoid":
            raise UsageError(f"expected avoid=... in {spec!r}")
        avoid = tuple(p for p in val.split(",") if p)
        for p in avoid:
            if p not in PATTERNS:
                raise UsageError(f"unknown pattern {p!r}")
    return mode, frozenset(avoid)


def parse_range(text):
    if ".." in text:
        lo, hi = text.split("..", 1)
        out = range(int(lo), int(hi) + 1)
    else:
        out = range(int(text), int(text) + 1)
    if not out:
        raise UsageError(f"empty range {text!r}")
    return out


def _rushed_count(n):
    return sum(paths.gk_series(k, n)[n] for k in range(1, n + 1))


def known_count(mode, avoid, n):
    """(value, method) via a class-specific formula, or None."""
    t_only = avoid & {"td", "tu", "tr", "tl"} == avoid
    if not t_only:
        return None
    verts = avoid & {"td", "tu"}
    horiz = avoid & {"tr", "tl"}
    if len(avoid) == 4:
        return (1 if n == 1 else 2), "formula 2"
    if len(avoid) == 3:
        return n, "formula n"
    if len(avoid) == 2:
        if verts and horiz:
            return 2 ** (n - 1), "formula 2^(n-1)"
        # both vertical-like or both horizontal-like
        if mode == "weak":
            return 2 ** (n - 1), "formula 2^(n-1)"
        return _rushed_count(n), "bounded-height series"
    if len(avoid) == 1:
        if mode == "weak":
            return paths.catalan(n), "catalan"
        tree = "t1" if avoid & {"td", "tu"} else None
        if tree:
            return gentree.count_by_tree(tree, n), "tree dp"
        # single sideways pattern: rotate the board a quarter turn
        return gentree.count_by_tree("t1", n), "tree dp"
    return None


def class_count(mode, avoid, n, method="auto", max_n=None, cache_dir=None):
    if method in ("auto", "formula", "tree"):
        known = known_count(mode, avoid, n)
        if known is not None:
            return known
        if method != "auto":
            raise UsageError(f"no formula for {mode}:{sorted(avoid)}")
    return (universe.count_class(n, mode, avoid, max_n=max_n,
                                 cache_dir=cache_dir), "universe")


def _load_input(args):
    if getattr(args, "values", None):
        return tuple(int(v) for v in args.values.split(","))
    if getattr(args, "word", None):
        return args.word
    if not getattr(args, "input", None):
        raise UsageError("provide --input, --values, or --word")
    if args.input == "-":
        return sys.stdin.read()
    with open(args.input) as fh:
        return fh.read()


def _drawing_from(args):
    text = _load_input(args)
    if not isinstance(text, str):
        raise UsageError("expected a drawing JSON file")
    return from_json(text)


def _cache_dir(args):
    return args.cache_dir or universe.default_cache_dir()


def cmd_count(args):
    mode, avoid = parse_class_spec(args.cls)
    for n in parse_range(args.n):
        value, method = class_count(mode, avoid, n, method=args.method,
                                    max_n=args.max_n,
                                    cache_dir=_cache_dir(args))
        print(f"{n}\t{value}\t[{method}]")
    return 0


def cmd_list(args):
    mode, avoid = parse_class_spec(args.cls)
    for n in parse_range(args.n):
        for d in universe.enumerate_class(n, mode, avoid, max_n=args.max_n,
                                          cache_dir=_cache_dir(args)):
            print(d.to_json())
    return 0


_MAPS = {
    "tau": (lambda d: bij.tau(d), lambda e: bij.tau_inv(e)),
    "delta": (lambda d: bij.delta(d), lambda w: bij.delta_inv(w)),
    "beta": (lambda d: bij.beta(d), None),
    "tau6": (lambda d: bij.tau6(d), lambda e: bij.tau6_inv(e)),
    "tau7": (lambda d: bij.tau7(d), lambda e: bij.tau7_inv(e)),
    "tau8": (lambda d: bij.tau8(d), lambda e: bij.tau8_inv(e)),
    "sigma": (lambda d: bij.sigma(d), lambda e: bij.sigma_inv(e)),
    "comp": (lambda d: bij.composition_of(d), lambda c: bij.rect_of_composition(c)),
    "nwword": (lambda d: bij.nw_word(d), lambda w: bij.rect_of_nw_word(w)),
    "phi": (lambda w: paths.phi(w), lambda d: paths.phi_inv(d)),
}


def cmd_map(args):
    fwd, inv = _MAPS[args.bijection]
    fn = fwd if args.direction == "fwd" else inv
    if fn is None:
        raise UsageError(f"{args.bijection} has no inverse direction")
    raw = _load_input(args)
    if isinstance(raw, tuple):
        obj = raw
    else:
        text = raw.strip()
        if text.startswith("{"):
            obj = from_json(text)
        elif text.startswith("["):
            obj = tuple(json.loads(text))
        else:
            obj = text  # a letter word
    result = fn(obj)
    if hasattr(result, "to_json"):
        print(result.to_json())
    elif isinstance(result, tuple):
        print(json.dumps(list(result)))
    else:
        print(json.dumps(result))
    return 0


def cmd_trace(args):
    if args.replay:
        trace = gentree.trace_from_json(_load_input(args))
        if args.side == "rect":
            print(gentree.replay_rect(trace, args.tree).to_json())
        else:
            print(json.dumps(list(gentree.replay_invseq(trace, args.tree))))
    else:
        d = _drawing_from(args)
        print(gentree.trace_to_json(gentree.trace_of_rect(d, args.tree)))
    return 0


def cmd_render(args):
    d = _drawing_from(args)
    if args.format == "ascii":
        print(render_ascii(d, labels=args.labels, joints=args.joints))
    else:
        print(render_svg(d, labels=args.labels, joints=args.joints,
                         diagonal=args.diagonal))
    return 0


def cmd_series(args):
    if args.which == "catalan":
        print(json.dumps(paths.catalan_series(args.order)))
    else:
        if args.k is None:
            raise UsageError("--k is required for the bounded-height series")
        print(json.dumps(paths.gk_series(args.k, args.order)))
    return 0


def cmd_verify(args):
    names = None if args.suite == "all" else [args.suite]
    if names and names[0] not in verify.SUITES:
        raise UsageError(f"unknown suite {args.suite!r}; "
                         f"choose from {', '.join(verify.SUITES)}")
    results = verify.run_suites(names, max_n=args.max_n,
                                cache_dir=_cache_dir(args))
    failed = 0
    for res in results:
        print(f"== suite {res.name}: {'pass' if res.ok else 'FAIL'}")
        for line in res.lines:
            print("  " + line)
        failed += not res.ok
    return 1 if failed else 0


def cmd_oeis(args):
    mode, avoid = parse_class_spec(args.cls)
    ours = {}
    for n in range(1, args.max_n + 1):
        try:
            ours[n], method = class_count(mode, avoid, n, max_n=args.max_n,
                                          cache_dir=_cache_dir(args))
        except ValueError:
            break
    client = oeis.OeisClient(cache_dir=_cache_dir(args),
                             offline=args.offline)
    try:
        report = client.compare(args.id, ours, offset=args.offset)
    except oeis.OeisError as exc:
        print(f"oeis: {exc}", file=sys.stderr)
        return 3
    side = f"ours = {mode}:avoid={','.join(sorted(avoid))} (oracle-derived)"
    print(f"{args.id} vs {side}: checked {report['checked']} terms, "
          f"{len(report['mismatches'])} mismatches")
    for n, ours_v, ref in report["mismatches"]:
        print(f"  n={n}: ours {ours_v} != oeis {ref}")
    return 0 if report["ok"] else 1


def build_parser():
    ap = argparse.ArgumentParser(
        prog="rectlab",
        description="pattern-avoiding rectangulations workbench")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p, cache=True):
        if cache:
            p.add_argument("--cache-dir", default=None)
        p.add_argument("--max-n", type=int, default=None)

    p = sub.add_parser("count", help="count class members by size")
    p.add_argument("--class", dest="cls", required=True)
    p.add_argument("--n", required=True, help="size or range like 1..6")
    p.add_argument("--method", choices=("auto", "universe", "tree", "formula"),
                   default="auto")
    common(p)
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser("list", help="emit class members as JSON lines")
    p.add_argument("--class", dest="cls", required=True)
    p.add_argument("--n", required=True)
    common(p)
    p.set_defaults(fn=cmd_list)

    p = sub.add_parser("map", help="apply a bijection")
    p.add_argument("--bijection", choices=sorted(_MAPS), required=True)
    p.add_argument("--direction", choices=("fwd", "inv"), default="fwd")
    p.add_argument("--input", help="file with JSON (or - for stdin)")
    p.add_argument("--values", help="comma-separated sequence literal")
    p.add_argument("--word", help="letter-word literal (Dyck or N/W)")
    p.set_defaults(fn=cmd_map)

    p = sub.add_parser("trace", help="generating-tree trace of a drawing")
    p.add_argument("--tree", choices=gentree.TREES, required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--replay", action="store_true",
                   help="input is a trace; rebuild the object")
    p.add_argument("--side", choices=("rect", "invseq"), default="rect")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("render", help="draw a drawing")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=("ascii", "svg"), default="ascii")
    p.add_argument("--joints", action="store_true")
    p.add_argument("--labels", choices=("nwse",), default=None)
    p.add_argument("--diagonal", action="store_true")
    p.set_defaults(fn=cmd_render)

    p = sub.add_parser("series", help="emit series coefficients as JSON")
    p.add_argument("--which", choices=("catalan", "gk"), required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--order", type=int, required=True)
    p.set_defaults(fn=cmd_series)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", default="all")
    common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("oeis", help="compare counts against an OEIS b-file")
    p.add_argument("--id", required=True)
    p.add_argument("--class", dest="cls", required=True)
    p.add_argument("--offset", type=int, default=0,
                   help="b-file index of our size-n count is n+offset")
    p.add_argument("--offline", action="store_true")
    p.add_argument("--max-n", type=int, default=30)
    p.add_argument("--cache-dir", default=None)
    p.set_defaults(fn=cmd_oeis)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InvalidDrawing, gentree.ClassError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
