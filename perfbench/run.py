"""coinfield benchmark: four closed-loop workloads, one process, one thread.

Run from the root of a checkout:

    python3 perfbench/run.py --workload field_algebra --seed 1 --seconds 20 --trace 0

Workloads: field_algebra, compile_execute, monte_carlo, classify (see
workloads.py and BENCHMARK.json for why each exists). The seed fixes the
inputs. The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it are a readable report.
--trace 0 times items untraced and reports the end-to-end metrics. --trace 1
runs the same items once untraced and once under the tracing wrappers of
tracer.py, and reports the per-layer metrics (counts and self times per item)
plus the tracing overhead; the spans go to perfbench/out/.

The speed of a shared machine can drift by +-25% within seconds, so every time
reported is scaled to a reference machine speed: a fixed pure-Python kernel
(no coinfield code) runs between items, and each item's latency is multiplied
by REFERENCE_CAL_S over the kernel's mean time just before and after it. The
report also gives the unscaled wall-clock figures.

The benchmark imports coinfield only from src/ of the checkout it sits in
and exits with status 2, printing no result, when that is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("field_algebra", "compile_execute", "monte_carlo", "classify")
# setup_s is the median of this many set-ups: fresh child processes plus
# the run's own
SETUP_SAMPLES = 5
# share of --seconds the traced run spends on its untraced pass; the traced
# pass repeats the same items and takes overhead_ratio times as long
TRACE_SHARE = 0.25
# the calibration kernel's time at the reference speed: its median on the
# 2-core x86-64 virtual machine with Python 3.11 the benchmark was tuned on
REFERENCE_CAL_S = 0.0027
CAL_TERMS = 900


class SetupError(RuntimeError):
    pass


def _rng(workload: str, seed: int, purpose: str) -> random.Random:
    return random.Random(f"{workload}/{seed}/{purpose}")


def load(workload: str, seed: int, corrupt: bool = False):
    """Import coinfield from this checkout, build the workload and warm it up
    on a few items of a separate stream. Returns the workload and the
    seconds all of that took."""
    t0 = time.perf_counter()
    if not os.path.isfile(os.path.join(SRC, "coinfield", "__init__.py")):
        raise SetupError(f"no coinfield package under {SRC}")
    for path in (HERE, SRC):
        if path not in sys.path:
            sys.path.insert(0, path)
    import coinfield
    if not os.path.abspath(coinfield.__file__).startswith(SRC + os.sep):
        raise SetupError(f"coinfield imported from {coinfield.__file__}, "
                         f"not from {SRC}")
    import workloads
    w = workloads.WORKLOADS[workload](corrupt=corrupt)
    # the warm-up inputs do not depend on the seed, so set-up does the same
    # work in every run
    warm = w.stream(_rng(workload, 0, "warmup"))
    for _ in range(w.warmup):
        w.run(next(warm))
    return w, time.perf_counter() - t0


def calibrate() -> float:
    """Seconds a fixed Fraction kernel takes at the machine's current speed."""
    t0 = time.perf_counter()
    total = Fraction(0)
    for k in range(1, CAL_TERMS):
        total += Fraction(1, k)
    return time.perf_counter() - t0


def speed_factors(cals: list[float], n: int) -> list[float]:
    """cals[i] ran just before item i, cals[n] after the last item; item i
    is scaled by the mean kernel time just before and just after it."""
    return [2 * REFERENCE_CAL_S / (cals[i] + cals[i + 1]) for i in range(n)]


def timed_load(workload: str, seed: int):
    """load(), with its time scaled to the reference speed by the median of
    kernel runs just before and just after it."""
    cals = [calibrate() for _ in range(3)]
    w, took = load(workload, seed)
    cals += [calibrate() for _ in range(3)]
    return w, took * REFERENCE_CAL_S / statistics.median(cals)


def _setup_probe(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise SetupError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


class Pass:
    """One closed-loop pass: records [(item, output or exception)], raw
    per-item latencies, and per-item speed factors. Under a tracer, selfs[i]
    holds item i's self time per span kind."""

    def __init__(self, records, raw, factors, selfs):
        self.records, self.raw, self.factors, self.selfs = \
            records, raw, factors, selfs

    @property
    def lats(self) -> list[float]:
        """Latencies at the reference speed."""
        return [t * f for t, f in zip(self.raw, self.factors)]


def loop(w, stream, seconds=None, count=None, tracer=None) -> Pass:
    """Closed loop: issue the next item when the previous one returns.
    Stops after `count` items, or at the first end of a round of the
    workload's input mix after `seconds` of wall time."""
    records, raw, cals, selfs = [], [], [], []
    clock = time.perf_counter
    t_start = clock()
    while (len(records) < count) if count is not None \
            else (clock() - t_start < seconds
                  or len(records) % w.round_items):
        item = next(stream)
        cals.append(calibrate())
        if tracer is not None:
            before = list(tracer.self_s)
            tracer.begin_item(len(records))
        t0 = clock()
        try:
            out = w.run(item)
        except Exception as err:  # an item that raises counts as failed
            out = err
        t1 = clock()
        if tracer is not None:
            raw.append(tracer.end_item())
            selfs.append([a - b for a, b in zip(tracer.self_s, before)])
        else:
            raw.append(t1 - t0)
        records.append((item, out if isinstance(out, Exception)
                        else w.condense(out)))
    cals.append(calibrate())
    return Pass(records, raw, speed_factors(cals, len(records)), selfs)


def verdicts(w, records) -> list[bool]:
    try:
        ok = w.check_all(records)
    except Exception as err:  # a check that cannot run fails every item
        print(f"# check error: {err!r}", file=sys.stderr)
        return [False] * len(records)
    report_failures(records, ok)
    return ok


def report_failures(records, ok, shown=5) -> None:
    """Name the first failed items on stderr: for an item that raised, the
    exception and the innermost frames it came through."""
    bad = [i for i, v in enumerate(ok) if not v]
    for i in bad[:shown]:
        item, out = records[i]
        if isinstance(out, Exception):
            frames = traceback.extract_tb(out.__traceback__)[-4:]
            where = " > ".join(f"{f.name} ({os.path.basename(f.filename)}"
                               f":{f.lineno})" for f in frames)
            why = f"raised {out!r} in {where}"
        else:
            why = "output failed its check"
        print(f"# failed item {i}: {why}; input {str(item)[:400]}",
              file=sys.stderr)
    if len(bad) > shown:
        print(f"# ... and {len(bad) - shown} more failed items", file=sys.stderr)


def latency_figures(lats) -> dict:
    srt = sorted(lats)
    n = len(srt)
    # highest percentile with at least ten samples above it; the maximum
    # when that percentile would not lie above the median
    k = n - 11 if n > 20 else n - 1
    return {"items_per_s": n / sum(lats),
            "item_p50_ms": statistics.median(lats) * 1e3,
            "item_tail_ms": srt[k] * 1e3,
            "item_tail_percentile": 100 * (k + 1) / n,
            "item_samples": n}


def machine_facts() -> dict:
    try:
        with open("/proc/loadavg") as fh:
            load_avg = fh.read().strip()
    except OSError:
        load_avg = "unavailable"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "loadavg_at_start": load_avg, "platform": platform.platform()}


END_TO_END_UNITS = {"setup_s": "s", "items_per_s": "1/s", "item_p50_ms": "ms",
                    "item_tail_ms": "ms", "pass_ratio": "ratio",
                    "peak_rss_mb": "MB"}


def plain_run(w, name, seed, seconds) -> tuple[dict, dict]:
    run = loop(w, w.stream(_rng(name, seed, "timed")), seconds=seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    records, n = run.records, len(run.records)
    failed = verdicts(w, records).count(False)
    figs = latency_figures(run.lats)
    metrics = {"items_per_s": figs["items_per_s"],
               "item_p50_ms": figs["item_p50_ms"],
               "item_tail_ms": figs["item_tail_ms"],
               "pass_ratio": 1 - failed / n,
               "peak_rss_mb": peak_mb}
    wall = latency_figures(run.raw)
    extra = dict(figs, fail_ratio=failed / n,
                 speed_factor_median=statistics.median(run.factors),
                 wall_items_per_s=wall["items_per_s"],
                 wall_item_p50_ms=wall["item_p50_ms"],
                 wall_item_tail_ms=wall["item_tail_ms"],
                 timed_wall_s=sum(run.raw), **w.figures(run))
    return {"attempted": n, "failed": failed, "metrics": metrics}, extra


def _tree_depth(prog) -> int:
    depth, stack = 0, [(prog.root, 1)]
    while stack:
        nid, d = stack.pop()
        depth = max(depth, d)
        stack.extend((ref, d + 1) for tag, ref in prog.nodes[nid].items
                     if tag == "child")
    return depth


COUNT_METRICS = {  # metric -> traced kind whose calls it counts
    "scalars.mul_calls": "scalars.mul",
    "scalars.inverse_calls": "scalars.inverse",
    "polys.gcd_calls": "polys.gcd",
    "polys.divmod_calls": "polys.divmod",
    "polys.ratfn_norm_calls": "polys.ratfn_norm",
    "polys.mul_calls": "polys.mul",
    "polys.sturm_calls": "polys.sturm",
    "polys.certify_nonneg_calls": "polys.certify_nonneg",
    "polys.square_test_calls": "polys.square_test",
    "field.vanishing_order_calls": "field.vanishing_order",
    "field.fe_eval_calls": "field.fe_eval",
    "lang.sqrt_decisions": "lang.sqrt_decision",
}
SELF_NAMES = {"cli.main": "cli.self_s"}
# workload figures that belong to one workload; reported as 0 on the others
WORKLOAD_FIGURES = ("coins_per_sample_geomean", "samples_per_s",
                    "decided_ratio", "sim.trials_per_s.worked_example",
                    "sim.trials_per_s.construct_p",
                    "sim.coins_per_sample_empirical.worked_example",
                    "sim.coins_per_sample_empirical.construct_p",
                    "sim.coin_yield.worked_example",
                    "sim.coin_yield.construct_p", "sim.aborted_ratio")


PER_LAYER_UNITS = {"polys.peak_degree": "degree",
                   "polys.peak_coeff_bits": "bits",
                   "synth.instructions_per_program": "count",
                   "synth.measures_per_program": "count",
                   "synth.tree_depth_max": "count",
                   "coins_per_sample_geomean": "coins",
                   "samples_per_s": "1/s", "lang.sqrt_decisions": "count/item",
                   "trace.spans": "count/item", "trace.item_s": "s/item"}


def per_layer_units(name: str) -> str:
    if name in PER_LAYER_UNITS:
        return PER_LAYER_UNITS[name]
    if name.endswith("self_s"):
        return "s/item"
    if name.endswith("_calls"):
        return "count/item"
    if name.startswith("sim.trials_per_s"):
        return "1/s"
    if name.startswith("sim.coins_per_sample"):
        return "coins"
    return "ratio"


def traced_run(w, name, seed, seconds) -> tuple[dict, dict]:
    import tracer as tracing
    from coinfield import synth

    plain = loop(w, w.stream(_rng(name, seed, "timed")),
                 seconds=seconds * TRACE_SHARE)
    n = len(plain.records)
    tr = tracing.Tracer()
    tr.install()
    try:
        traced = loop(w, w.stream(_rng(name, seed, "timed")), count=n,
                      tracer=tr)
    finally:
        tr.uninstall()

    def digest(out):
        return repr(out) if isinstance(out, Exception) else w.digest(out)
    same = [digest(a) == digest(b)
            for (_, a), (_, b) in zip(plain.records, traced.records)]
    ok = verdicts(w, traced.records)
    failed = sum(not (v and s) for v, s in zip(ok, same))

    # self times per kind, each item's share scaled by its speed factor
    scaled = [sum(f * item[k] for f, item in zip(traced.factors, traced.selfs))
              for k in range(len(tr.kinds))]
    calls = dict(zip(tr.kinds, tr.calls))
    m = {metric: calls[kind] / n for metric, kind in COUNT_METRICS.items()}
    for kind, total in zip(tr.kinds, scaled):
        if kind not in tracing.COUNTS:  # count-only kinds have no spans
            m[SELF_NAMES.get(kind, kind + "_self_s")] = total / n
    m["polys.peak_degree"] = tr.peak_degree
    m["polys.peak_coeff_bits"] = tr.peak_bits
    m["field.norms_per_op"] = tr.fe_norms / tr.fe_ops if tr.fe_ops else 0.0
    progs = tr.programs
    m["synth.instructions_per_program"] = \
        statistics.mean(len(p.instructions) for p in progs) if progs else 0.0
    m["synth.measures_per_program"] = statistics.mean(
        synth.static_counts(p)["measures"] for p in progs) if progs else 0.0
    m["synth.tree_depth_max"] = max(map(_tree_depth, progs), default=0)
    figs = w.figures(plain)
    for key in WORKLOAD_FIGURES:
        m[key] = figs.get(key, 0.0)
    m["trace.item_s"] = sum(traced.lats) / n
    m["trace.spans"] = len(tr.kind) / n
    m["trace.overhead_ratio"] = sum(traced.lats) / sum(plain.lats)

    self_sum = sum(scaled) / n
    adds_up = math.isclose(self_sum, m["trace.item_s"], rel_tol=1e-6)
    tr.write(os.path.join(OUT, f"trace-{name}.npz"))
    extra = {"traced_items": n, "outputs_identical": all(same),
             "self_time_sum_s_per_item": self_sum, "self_times_add_up": adds_up,
             "untraced_wall_s": sum(plain.raw), "traced_wall_s": sum(traced.raw)}
    return {"attempted": n, "failed": failed, "metrics": m,
            "adds_up": adds_up}, extra


REPORT_UNITS = {"fail_ratio": "ratio", "item_tail_percentile": "%",
                "item_samples": "count", "coins_per_sample_geomean": "coins",
                "samples_per_s": "1/s", "decided_ratio": "ratio",
                "speed_factor_median": "ratio"}


def run_all(args) -> int:
    """Every workload in turn, each in its own process; prints each report
    and a combined result whose metric names carry the workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], capture_output=True, text=True,
            cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        combined["metrics"].update(
            {f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)

    try:
        if args.setup_probe:
            _, took = timed_load(args.workload, args.seed)
            print(took)
            return 0
        facts = machine_facts()
        if not os.path.isfile(os.path.join(SRC, "coinfield", "__init__.py")):
            raise SetupError(f"no coinfield package under {SRC}")
        setups = [_setup_probe(args.workload, args.seed)
                  for _ in range(SETUP_SAMPLES - 1)]
        w, took = timed_load(args.workload, args.seed)
        setups.append(took)
    except SetupError as err:
        print(f"benchmark set-up failed: {err}", file=sys.stderr)
        return 2
    import numpy
    facts["numpy"] = numpy.__version__

    run = traced_run if args.trace else plain_run
    result, extra = run(w, args.workload, args.seed, args.seconds)
    if not args.trace:
        result["metrics"]["setup_s"] = statistics.median(setups)
    correct = result.pop("adds_up", True) and result["failed"] == 0
    units = END_TO_END_UNITS if not args.trace else None
    metrics = {k: {"value": v, "unit": units[k] if units else per_layer_units(k)}
               for k, v in sorted(result["metrics"].items())}

    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": facts, "setup_samples_s": setups, **extra}
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}"
                             f"-trace{args.trace}.json")
    final = {"correct": correct, "attempted": result["attempted"],
             "failed": result["failed"], "metrics": metrics}
    with open(path, "w") as fh:
        json.dump(dict(final, report=report), fh, indent=1)
    for key, val in report.items():
        if key not in REPORT_UNITS:
            print(f"# {key}: {val}")
    for key, val in metrics.items():
        print(f"{args.workload} {key} = {val['value']:.6g} {val['unit']}")
    for key, unit in REPORT_UNITS.items():
        if key in report:
            print(f"{args.workload} {key} = {report[key]:.6g} {unit} "
                  "(report only)")
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
