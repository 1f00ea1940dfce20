"""One pass of a workload in a fresh process.

    python3 perfbench/worker.py '<json config>'

The config names the checkout root, the workload, the seed, a private work
directory, whether to trace, and whether to stop after set-up.  The pass
imports rectlab from <root>/src, sets up, empties the program's memo caches
(so the body inherits nothing from set-up), runs the body, reads its peak
RSS, runs the correctness gate and prints one JSON line.  A fresh process per
pass means no pass reads memo state that another pass left behind.
"""

from __future__ import annotations

import json
import random
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path


def _no_span(name):
    return nullcontext()


def main(argv):
    cfg = json.loads(argv[1])
    src = (Path(cfg["root"]) / "src").resolve()
    sys.path.insert(0, str(src))

    t0 = time.perf_counter()
    import rectlab
    if not Path(rectlab.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"rectlab imported from {rectlab.__file__}, "
                         f"not from {src}")
    import tracer
    import workloads
    wl = workloads.WORKLOADS[cfg["workload"]]()
    state = wl.setup(cfg["workdir"], random.Random(cfg["seed"]))
    setup_s = time.perf_counter() - t0
    if cfg["setup_only"]:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    caches = workloads.memo_caches()
    for cache in caches.values():
        cache.cache_clear()
    rec = uninstall = None
    span = _no_span
    if cfg["trace"]:
        rec = tracer.Tracer()
        uninstall = tracer.install(rec, "rectlab", workloads.LAYERS)
        span = rec.span
    t1 = time.perf_counter()
    try:
        out = wl.body(state, span)
    finally:
        wall_s = time.perf_counter() - t1
        if uninstall is not None:
            uninstall()
    infos = {name: cache.cache_info() for name, cache in caches.items()}
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    checks = wl.check(state, out)
    result = {"setup_s": setup_s, "wall_s": wall_s,
              "peak_rss_mb": peak_rss_mb, "objects": wl.objects(out),
              "attempted": len(checks),
              "failures": [label for label, ok in checks if not ok]}
    if rec is not None:
        result["layers"] = workloads.layer_metrics(rec.nodes, infos)
        result["spans"] = [node.as_dict() for node in rec.nodes]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
