"""Repeat benchmark runs and report the spread of every metric.

Run from the root of a checkout::

    # ten runs of one workload, seeds 1..10, saved for later
    python3 perfbench/spread.py run --workload paper_1d --runs 10 --out a.json

    # median, quartiles, min and max of each metric, against its bound
    python3 perfbench/spread.py report a.json

    # paired parent/change comparison (same seeds on both sides)
    python3 perfbench/spread.py compare parent.json change.json

The spread of a metric is the distance between its first and third
quartile, as ``statistics.quantiles(values, n=4)`` gives them, as a share
of its median.  ``report`` marks each end-to-end metric whose spread
exceeds its bound in BENCHMARK.json, or a third of it.  ``compare``
reports each side's median and quartiles, the share of pairs the change
wins, and whether the change's median is worse than the parent's by more
than the bound.  Simulated-clock metrics must agree exactly seed by seed,
so ``compare`` lists every exact metric that differs for some seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Metrics that are functions of the seed alone.  Two runs with one seed
#: must report them bit-identically, whatever the machine or its load.
EXACT_PREFIXES = (
    "sim_", "tta_", "space_amp", "storage.disk.", "storage.external_sort.calls",
    "storage.external_sort.records", "acetree.build.calls",
    "acetree.query.batches", "acetree.query.records", "acetree.query.stabs",
    "acetree.query.leaves_read", "acetree.storage.leaf_reads",
    "baselines.sample.records", "serve.", "obs.recorder.spans",
)


def is_exact(name: str) -> bool:
    return name.startswith(EXACT_PREFIXES) and not name.endswith(".self_s")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark process; returns its parsed result line."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["process_s"] = time.monotonic() - start
    return result


def load_bounds() -> dict:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in config["end_to_end"] + config["per_layer"]}


def summarize(values: list[float]) -> dict:
    ordered = sorted(values)
    median = statistics.median(ordered)
    if len(ordered) >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q3 = median
    return {
        "n": len(ordered), "median": median, "q1": q1, "q3": q3,
        "min": ordered[0], "max": ordered[-1],
        "spread": (q3 - q1) / median if median else 0.0,
    }


def by_metric(runs: list[dict]) -> dict:
    """{(workload, metric): [values in run order]}."""
    out = defaultdict(list)
    for run in runs:
        for name, metric in run["result"]["metrics"].items():
            out[(run["workload"], name)].append(metric["value"])
    return out


def cmd_run(args) -> int:
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    runs = []
    for workload in args.workload:
        for i in range(args.runs):
            seed = args.seed_base + i
            result = run_once(workload, seed, seconds, args.trace)
            runs.append({"workload": workload, "seed": seed, "trace": args.trace,
                         "result": result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  f"in {result['process_s']:.1f} s", flush=True)
            if args.out:
                Path(args.out).write_text(json.dumps(runs, indent=1) + "\n")
    return 0


def cmd_report(args) -> int:
    bounds = load_bounds()
    runs = [run for path in args.files for run in json.loads(Path(path).read_text())]
    status = 0
    bad = [r for r in runs if not r["result"]["correct"] or r["result"]["failed"]]
    for run in bad:
        print(f"INCORRECT: {run['workload']} seed {run['seed']}")
        status = 1
    print(f"{'workload':13s} {'metric':42s} {'n':>3s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'min':>12s} {'max':>12s} {'spread':>7s} {'bound':>6s}")
    for (workload, name), values in sorted(by_metric(runs).items()):
        s = summarize(values)
        bound = bounds.get(name, {}).get("bound")
        flag = ""
        if bound is not None and name != "setup_s" and s["spread"] > bound:
            flag, status = "OVER BOUND", 1
        elif bound is not None and s["spread"] > bound / 3:
            flag = "over a third"
        print(f"{workload:13s} {name:42s} {s['n']:>3d} {s['median']:>12.6g} "
              f"{s['q1']:>12.6g} {s['q3']:>12.6g} {s['min']:>12.6g} "
              f"{s['max']:>12.6g} {s['spread']:>7.2%} "
              f"{'' if bound is None else f'{bound:.2f}':>6s} {flag}")
    return status


def cmd_compare(args) -> int:
    bounds = load_bounds()
    parent = json.loads(Path(args.parent).read_text())
    change = json.loads(Path(args.change).read_text())
    p_metrics, c_metrics = by_metric(parent), by_metric(change)
    p_by_seed = {(r["workload"], r["seed"]): r["result"]["metrics"] for r in parent}
    c_by_seed = {(r["workload"], r["seed"]): r["result"]["metrics"] for r in change}
    status = 0
    print(f"{'workload':13s} {'metric':42s} {'parent median [q1, q3]':>38s} "
          f"{'change median [q1, q3]':>38s} {'worse by':>9s} {'bound':>6s} "
          f"{'wins':>6s}")
    for key in sorted(set(p_metrics) & set(c_metrics)):
        workload, name = key
        p, c = summarize(p_metrics[key]), summarize(c_metrics[key])
        better = bounds.get(name, {}).get("better", "lower")
        sign = 1 if better == "lower" else -1
        worse = sign * (c["median"] - p["median"]) / p["median"] if p["median"] else 0.0
        pairs = [(p_by_seed[k][name]["value"], c_by_seed[k][name]["value"])
                 for k in p_by_seed if k[0] == workload and k in c_by_seed
                 and name in p_by_seed[k] and name in c_by_seed[k]]
        wins = sum(1 for a, b in pairs if sign * (b - a) < 0)
        bound = bounds.get(name, {}).get("bound")
        flag = ""
        if bound is not None and worse > bound:
            flag, status = "WORSE", 1
        if is_exact(name) and any(a != b for a, b in pairs):
            flag, status = flag + " EXACT-MISMATCH", 1
        print(f"{workload:13s} {name:42s} "
              f"{p['median']:>12.6g} [{p['q1']:>10.5g}, {p['q3']:>10.5g}] "
              f"{c['median']:>12.6g} [{c['q1']:>10.5g}, {c['q3']:>10.5g}] "
              f"{worse:>9.2%} {'' if bound is None else f'{bound:.2f}':>6s} "
              f"{wins:>3d}/{len(pairs):<2d} {flag}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run the benchmark repeatedly")
    run.add_argument("--workload", action="append", required=True)
    run.add_argument("--runs", type=int, default=10)
    run.add_argument("--seed-base", type=int, default=1)
    run.add_argument("--seconds", type=int, default=None,
                     help="default: run_seconds from BENCHMARK.json")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--out", help="write the runs here as JSON")
    report = sub.add_parser("report", help="spread of every metric")
    report.add_argument("files", nargs="+")
    compare = sub.add_parser("compare", help="paired parent/change comparison")
    compare.add_argument("parent")
    compare.add_argument("change")
    args = parser.parse_args(argv)
    return {"run": cmd_run, "report": cmd_report, "compare": cmd_compare}[
        args.command](args)


if __name__ == "__main__":
    sys.exit(main())
