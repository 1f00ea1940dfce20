"""rectlab benchmark: fixed workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the checkout root is the parent of this directory and
rectlab is imported from <root>/src.  Workloads are `universe-build`,
`verify-all` and `structural-counts` (see perfbench/README.md).  One client,
closed loop: passes run one after another, each in a fresh process
(worker.py), as long as the next is expected to end within --seconds; at
least two passes (one untraced and one traced pass with --trace 1) and three
set-ups always run.  The seed only permutes call order.

--trace 0 reports the end-to-end metrics: the median over passes of wall_s
(body wall time), setup_s (imports plus input preparation) and peak_rss_mb
(peak RSS of the pass process).  --trace 1 alternates untraced and traced
passes and reports the per-layer metrics of the traced ones, with the
tracing overhead.  Every pass runs its correctness gate; a failed check or a
failed pass makes the run incorrect, and then no metric is reported.

Machine facts and a pure-Python calibration time taken beside every pass are
printed and, with every sample and (traced) the span tree, written to
.perfbench/results/ under the root.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  Exit code 0
when correct, 1 when a check or pass failed, 2 when the checkout holds no
rectlab sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
MIN_PASSES = 2
MIN_SETUPS = 3
PASS_TIMEOUT_S = 150


def calibrate():
    """Seconds for a fixed pure-Python loop, a probe of the host's speed."""
    start = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    return time.perf_counter() - start


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root):
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_facts(root, seed):
    return {"nproc": os.cpu_count(), "cpu_model": _cpu_model(),
            "python": platform.python_version(),
            "git_commit": _git_commit(root), "seed": seed}


def run_worker(cfg, workdir):
    """Run one pass (or set-up only) in a fresh process; its JSON result, or
    None if the process failed."""
    workdir.mkdir(parents=True)
    # Every cache the program could fall back to lives in workdir.
    env = dict(os.environ, RECTLAB_CACHE_DIR=str(workdir / "default-cache"),
               XDG_CACHE_HOME=str(workdir / "xdg"), PYTHONHASHSEED="0")
    cfg = dict(cfg, workdir=str(workdir))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(cfg)],
            stdout=subprocess.PIPE, text=True, env=env, cwd=cfg["root"],
            timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"pass timed out after {PASS_TIMEOUT_S} s", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload, seed, seconds, trace, work):
    cfg = {"root": str(ROOT), "workload": workload, "seed": seed,
           "trace": False, "setup_only": False}
    samples = {"wall_s": [], "setup_s": [], "peak_rss_mb": [],
               "traced_wall_s": [], "calibration_s": [calibrate()]}
    report = {"samples": samples, "layers": [], "spans": None,
              "objects": None, "attempted": 0, "failures": []}
    kinds = (False, True) if trace else (False,)
    start = time.monotonic()
    n_pass = 0
    while True:
        began = time.monotonic()
        for traced in kinds:
            res = run_worker(dict(cfg, trace=traced), work / f"pass-{n_pass}")
            n_pass += 1
            samples["calibration_s"].append(calibrate())
            report["attempted"] += 1 if res is None else res["attempted"]
            if res is None:
                report["failures"].append("pass process failed")
                return report
            report["failures"] += res["failures"]
            report["objects"] = res["objects"]
            samples["setup_s"].append(res["setup_s"])
            if traced:
                samples["traced_wall_s"].append(res["wall_s"])
                report["layers"].append(res["layers"])
                report["spans"] = res["spans"]
            else:
                samples["wall_s"].append(res["wall_s"])
                samples["peak_rss_mb"].append(res["peak_rss_mb"])
        # After MIN_PASSES untraced passes (one round when tracing), stop
        # unless another round as long as the last is expected to end within
        # the run length.
        now = time.monotonic()
        if report["failures"] or (
                (trace or len(samples["wall_s"]) >= MIN_PASSES)
                and (now - start) + (now - began) > seconds):
            break
    while len(samples["setup_s"]) < MIN_SETUPS:
        res = run_worker(dict(cfg, setup_only=True),
                         work / f"setup-{len(samples['setup_s'])}")
        report["attempted"] += 1
        if res is None:
            report["failures"].append("set-up process failed")
            return report
        samples["setup_s"].append(res["setup_s"])
    return report


def layer_report(report, per_layer):
    """Per-layer metrics: medians over traced passes for times, and counts
    and ratios, which must repeat exactly from pass to pass."""
    runs = report["layers"]
    report["attempted"] += 1
    exact = [name for name, unit in per_layer if unit != "s"]
    differ = [k for k in exact if k in runs[0]
              and any(r[k] != runs[0][k] for r in runs)]
    if differ:
        report["failures"].append(
            f"counts differ between traced passes: {differ}")
    samples = report["samples"]
    traced = statistics.median(samples["traced_wall_s"])
    values = {"trace.wall_s": traced,
              "trace.overhead_s": traced - statistics.median(
                  samples["wall_s"])}
    for name, unit in per_layer:
        if name not in values:
            values[name] = (statistics.median(r[name] for r in runs)
                            if unit == "s" else runs[0][name])
    return values


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # On SIGTERM, unwind: the running pass process is killed and waited for,
    # and the work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "rectlab" / "__init__.py").is_file():
        print(f"error: no rectlab sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from "
                 f"{', '.join(workloads.WORKLOADS)}")

    base = ROOT / ".perfbench"
    work = base / f"run-{os.getpid()}"
    facts = machine_facts(ROOT, args.seed)
    print("facts " + json.dumps(facts), flush=True)
    try:
        report = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    samples = report["samples"]
    correct = not report["failures"]
    metrics = {}
    if correct:
        if args.trace:
            units = dict(workloads.PER_LAYER)
            values = layer_report(report, workloads.PER_LAYER)
            correct = not report["failures"]
        else:
            units = dict(END_TO_END)
            values = {name: statistics.median(samples[name])
                      for name, _ in END_TO_END}
        if correct:
            metrics = {name: {"value": values[name], "unit": units[name]}
                       for name in units}
    failed = len(report["failures"])
    for label in report["failures"][:20]:
        print(f"FAIL {label}", file=sys.stderr)
    summary = {"workload": args.workload, "passes": len(samples["wall_s"]),
               "traced_passes": len(samples["traced_wall_s"]),
               "objects": report["objects"],
               "fail_ratio": failed / max(report["attempted"], 1),
               "calibration_s_median": statistics.median(
                   samples["calibration_s"])}
    print("summary " + json.dumps(summary), flush=True)

    results = base / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    out = results / (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                     f"{stamp}-{os.getpid()}.json")
    out.write_text(json.dumps(
        {"facts": facts, "summary": summary, "samples": samples,
         "metrics": metrics, "failures": report["failures"],
         "spans": report["spans"]}, indent=1))

    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
