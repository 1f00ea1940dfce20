"""Command line interface.

Exit codes: 0 success, 1 check failure, 2 usage error, 3 I/O or network
error.  Class specs look like "strong:avoid=td,tu" (or just "weak").
"""

from __future__ import annotations

import argparse
import json
import sys

from . import bijections as bij
from . import gentree, oeis, paths, universe, verify
from .drawing import _json_loads, from_json
from .patterns import PATTERNS
from .render import render_ascii, render_svg


class UsageError(ValueError):
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


# Largest n class_count gives from a verify.CLASSES row: 200, the cap that
# rushed_count and the tree DP (gentree.LEVEL_CAP) apply to their own rows.
COUNT_CAP = paths.RUSHED_CAP


def class_count(mode, avoid, n, method="auto", max_n=None, cache_dir=None):
    """(value, tag): the class's verify.CLASSES row under method "auto",
    else the universe count.  A row gives sizes up to COUNT_CAP."""
    if n < 1:
        raise UsageError(f"size must be >= 1, got {n}")
    row = verify._class_row(mode, avoid) if method == "auto" else None
    if row is not None:
        if n > COUNT_CAP:
            raise ValueError(f"size {n} exceeds the cap {COUNT_CAP}")
        return row[1](n), row[0]
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


# name: (forward map, its input kind, inverse map, its input kind)
_MAPS = {
    "tau": (bij.tau, "drawing", bij.tau_inv, "sequence"),
    "delta": (bij.delta, "drawing", bij.delta_inv, "word"),
    "beta": (bij.beta, "drawing", None, None),
    "tau6": (bij.tau6, "drawing", bij.tau6_inv, "sequence"),
    "tau7": (bij.tau7, "drawing", bij.tau7_inv, "sequence"),
    "tau8": (bij.tau8, "drawing", bij.tau8_inv, "sequence"),
    "sigma": (bij.sigma, "drawing", bij.sigma_inv, "sequence"),
    "comp": (bij.composition_of, "drawing", bij.rect_of_composition,
             "sequence"),
    "nwword": (bij.nw_word, "drawing", bij.rect_of_nw_word, "word"),
    "phi": (paths.phi, "word", paths.phi_inv, "drawing"),
}


def _map_input(args):
    """(kind, object) of the map's input: a drawing, a sequence of integers
    or a letter word."""
    raw = _load_input(args)
    if isinstance(raw, tuple):
        return "sequence", raw
    text = raw.strip()
    if text.startswith("{"):
        return "drawing", from_json(text)
    if text.startswith("["):
        seq = _json_loads(text, UsageError)
        if any(type(v) is not int for v in seq):
            raise UsageError("a sequence must be a JSON list of integers")
        return "sequence", tuple(seq)
    return "word", text


def cmd_map(args):
    row = _MAPS[args.bijection]
    fn, kind = row[:2] if args.direction == "fwd" else row[2:]
    if fn is None:
        raise UsageError(f"{args.bijection} has no inverse direction")
    got, obj = _map_input(args)
    if got != kind:
        raise UsageError(f"{args.bijection} --direction {args.direction} "
                         f"reads a {kind}, not a {got}")
    result = fn(obj)
    print(result.to_json() if hasattr(result, "to_json")
          else json.dumps(result))
    return 0


def cmd_trace(args):
    if args.replay:
        trace = gentree.trace_from_json(_load_input(args))
        if args.side == "rect":
            print(gentree.replay_rect(trace, args.tree).to_json())
        else:
            print(json.dumps(list(gentree.replay_invseq(trace, args.tree))))
    elif args.side == "rect":
        d = from_json(_load_input(args))
        print(gentree.trace_to_json(gentree.trace_of_rect(d, args.tree)))
    else:
        got, e = _map_input(args)
        if got != "sequence":
            raise UsageError(f"trace --side invseq reads a sequence, not a "
                             f"{got}")
        print(gentree.trace_to_json(gentree.trace_of_invseq(e, args.tree)))
    return 0


def cmd_render(args):
    if args.diagonal and args.format == "ascii":
        raise UsageError("--diagonal needs --format svg")
    d = from_json(_load_input(args))
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
    client = oeis.OeisClient(cache_dir=_cache_dir(args),
                             offline=args.offline)
    # the b-file before our side, so that a miss costs no counting
    try:
        b_file = client.b_file(args.id)
    except oeis.OeisError as exc:
        print(f"oeis: {exc}", file=sys.stderr)
        return 3
    ours, tag = {}, "no terms"
    # --max-n bounds the terms compared, not the universe: a class with no
    # CLASSES row stops at the universe's default cap, and a class with one
    # at COUNT_CAP.  n starts at 1, so the ValueError caught is a cap, never
    # a UsageError
    for n in range(1, args.max_n + 1):
        try:
            ours[n], tag = class_count(mode, avoid, n,
                                       cache_dir=_cache_dir(args))
        except ValueError:
            break
    report = oeis.compare(args.id, b_file, ours, args.offset)
    side = f"ours = {mode}:avoid={','.join(sorted(avoid))} [{tag}]"
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

    def common(p):
        p.add_argument("--cache-dir", default=None)
        p.add_argument("--max-n", type=int, default=None)

    p = sub.add_parser("count", help="count class members by size")
    p.add_argument("--class", dest="cls", required=True)
    p.add_argument("--n", required=True, help="size or range like 1..6")
    p.add_argument("--method", choices=("auto", "universe"), default="auto")
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

    p = sub.add_parser("trace", help="tree trace of a drawing or sequence")
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
    p.add_argument("--cache-dir", default=None)
    p.add_argument("--max-n", type=int, default=None,
                   help="lower every suite's size cap to this; a cap below "
                        "it stays, so it never enlarges a suite")
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
    except ValueError as exc:  # UsageError, InvalidDrawing, ClassError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
