"""Alternating parent/change pairs of benchmark runs, as BENCH_<PR>.json.

    python3 tools/bench_pairs.py --parent REV --out BENCH_23.json \
        [--pairs 10] [--seed 2301] [--seconds 20]

The parent side is the committed tree of REV, extracted with `git archive`
into a temporary directory; the change side is this checkout as it stands.
For each of the four workloads W, pair k runs `perfbench/run.py
--workload W --seed <seed + k> --seconds S --trace 0` on both sides, one
run at a time, the parent first when k is even. The output holds every
run's final JSON line and report, and per workload and end-to-end metric
the medians, quartiles, pair wins (ties count for neither) and the
change's median over the parent's; each report-only figure gets its two
medians. Which way a metric is better comes from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("field_algebra", "compile_execute", "monte_carlo", "classify")
# report keys that are settings or sample facts, not figures to compare
NOT_FIGURES = {"seed", "seconds", "trace", "item_tail_percentile",
               "item_samples", "fail_ratio", "speed_factor_median",
               "timed_wall_s"}


def extract(rev: str, dest: str) -> None:
    """The committed tree of rev, unpacked into dest."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest)


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in tree: its final line with the report."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"], cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} in {tree} failed:\n{proc.stderr}")
    path = os.path.join(tree, "perfbench", "out",
                        f"result-{workload}-seed{seed}-trace0.json")
    with open(path) as fh:
        result = json.load(fh)
    return {"final": {k: v for k, v in result.items() if k != "report"},
            "report": result["report"]}


def compare(parent: list[float], change: list[float], higher: bool) -> dict:
    wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
    pm, cm = statistics.median(parent), statistics.median(change)

    def quartiles(xs):
        if len(xs) < 2:
            return [xs[0], xs[0]]
        q = statistics.quantiles(xs, n=4)
        return [q[0], q[2]]

    return {"parent_median": pm, "change_median": cm,
            "change_over_parent": cm / pm if pm else None,
            "parent_quartiles": quartiles(parent),
            "change_quartiles": quartiles(change),
            "change_wins": wins, "parent": parent, "change": change}


def summarise(runs: list[dict], workload: str, better: dict) -> dict:
    mine = [r for r in runs if r["workload"] == workload]
    sides = {s: sorted((r for r in mine if r["side"] == s),
                       key=lambda r: r["pair"]) for s in ("parent", "change")}
    out = {"pairs": len(sides["change"]),
           "seeds": [r["seed"] for r in sides["change"]],
           "all_correct": all(r["final"]["correct"] for r in mine)}
    metrics = sides["change"][0]["final"]["metrics"]
    for name in sorted(metrics):
        vals = {s: [r["final"]["metrics"][name]["value"] for r in rs]
                for s, rs in sides.items()}
        out[name] = compare(vals["parent"], vals["change"],
                            better.get(name) == "higher")
    figures = {}
    for key, val in sides["change"][0]["report"].items():
        if key in metrics or key in NOT_FIGURES or isinstance(val, bool) \
                or not isinstance(val, (int, float)):
            continue
        figures[key] = {f"{s}_median": statistics.median(
            r["report"][key] for r in rs if key in r["report"])
            for s, rs in sides.items()}
    out["figures"] = figures
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True,
                    help="git revision to compare with")
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=2301,
                    help="seed of pair 0; pair k uses seed + k")
    ap.add_argument("--seconds", type=float, default=20)
    args = ap.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        ap.error("--pairs must be at least 1 and --seconds positive")
    rev = subprocess.run(["git", "rev-parse", "--short", args.parent],
                         cwd=ROOT, check=True, capture_output=True,
                         text=True).stdout.strip()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        better = {m["name"]: m["better"]
                  for m in json.load(fh)["end_to_end"]}

    runs = []
    with tempfile.TemporaryDirectory() as parent_tree:
        extract(rev, parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        for workload in WORKLOADS:
            for k in range(args.pairs):
                seed = args.seed + k
                order = ("change", "parent") if k % 2 else ("parent", "change")
                for side in order:
                    run = run_once(trees[side], workload, seed, args.seconds)
                    runs.append({"side": side, "workload": workload,
                                 "seed": seed, "pair": k, "first": order[0],
                                 **run})
                    value = run["final"]["metrics"]["items_per_s"]["value"]
                    print(f"{workload} pair {k} {side}: items_per_s "
                          f"{value:.2f}", file=sys.stderr)

    doc = {
        "what": (f"perfbench final JSON lines of alternating parent/change "
                 f"pairs, python3 perfbench/run.py --workload W --seed N "
                 f"--seconds {args.seconds:g} --trace 0, run one at a time "
                 f"by tools/bench_pairs.py; parent = commit {rev}, change = "
                 f"this change; pair k runs the parent first when k is even; "
                 f"medians, quartiles and pair wins (ties count for neither) "
                 f"in summary"),
        "machine": {"nproc": os.cpu_count(),
                    "python": platform.python_version(),
                    "platform": platform.platform()},
        "summary": {w: summarise(runs, w, better) for w in WORKLOADS},
        "runs": runs,
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    for w, s in doc["summary"].items():
        for name in ("items_per_s", "item_p50_ms", "item_tail_ms",
                     "peak_rss_mb"):
            m = s[name]
            print(f"{w} {name}: parent {m['parent_median']:.4g} "
                  f"[{m['parent_quartiles'][0]:.4g}, "
                  f"{m['parent_quartiles'][1]:.4g}], change "
                  f"{m['change_median']:.4g}, wins {m['change_wins']}/"
                  f"{s['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
