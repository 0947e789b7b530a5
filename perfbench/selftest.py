"""Self-test of the benchmark. Run from the root of a checkout:

    python3 perfbench/selftest.py

1. For each workload, a corrupted reference must make its checks fail
   (fail_ratio > 0), while the same items pass against the true reference.
2. For each workload, short untraced and traced runs must print, as their
   last line, exactly the keys correct/attempted/failed/metrics, with exactly
   the end-to-end or per-layer metrics that BENCHMARK.json names, in its
   units, all correct; end-to-end values must be nonzero and the traced self
   times must add up to the traced item time.
3. In a directory holding only BENCHMARK.json and the benchmark's files, the
   benchmark must exit with a nonzero status and print no result.

Exits 0 when every assertion holds, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run

SPEC = json.load(open(os.path.join(run.ROOT, "BENCHMARK.json")))


def check_corruption(name: str) -> list[str]:
    errors = []
    for corrupt in (False, True):
        w, _ = run.load(name, 7, corrupt=corrupt)
        stream = w.stream(run._rng(name, 7, "timed"))
        records = run.loop(w, stream, count=2 * w.warmup).records
        fail_ratio = run.verdicts(w, records).count(False) / len(records)
        if corrupt and not fail_ratio > 0:
            errors.append(f"{name}: corrupted reference still passes")
        if not corrupt and fail_ratio:
            errors.append(f"{name}: fail_ratio {fail_ratio} on true references")
    return errors


def _run(args: list[str], cwd: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py"] + args,
                          capture_output=True, text=True, timeout=300, cwd=cwd)


def check_output(name: str, trace: int) -> list[str]:
    tag = f"{name} --trace {trace}"
    proc = _run(["--workload", name, "--seed", "3", "--seconds", "2",
                 "--trace", str(trace)], run.ROOT)
    if proc.returncode != 0:
        return [f"{tag}: exit {proc.returncode}: {proc.stderr.strip()}"]
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{tag}: keys {sorted(res)}")
    if res["correct"] is not True or res["failed"] != 0 or res["attempted"] < 1:
        errors.append(f"{tag}: correct={res['correct']} failed={res['failed']}"
                      f" attempted={res['attempted']}")
    want = SPEC["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in want}
    got = res["metrics"]
    if set(got) != set(units):
        errors.append(f"{tag}: missing {sorted(set(units) - set(got))}, "
                      f"extra {sorted(set(got) - set(units))}")
    for key, val in got.items():
        if key in units and val["unit"] != units[key]:
            errors.append(f"{tag}: {key} unit {val['unit']} != {units[key]}")
        if not isinstance(val["value"], (int, float)):
            errors.append(f"{tag}: {key} is not a number")
        elif not trace and val["value"] == 0:
            errors.append(f"{tag}: end-to-end {key} is 0")
    if trace:
        path = os.path.join(run.OUT, f"result-{name}-seed3-trace1.json")
        if not json.load(open(path))["report"]["self_times_add_up"]:
            errors.append(f"{tag}: self times do not add up to item time")
    return errors


def check_bare_directory() -> list[str]:
    bare = os.path.join(run.OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(run.ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    try:
        proc = _run(["--workload", "field_algebra", "--seed", "1",
                     "--seconds", "1", "--trace", "0"], bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 or (lines and lines[-1].startswith("{")):
        return [f"bare directory: exit {proc.returncode}, printed {lines[-1:]}"]
    return []


def main() -> int:
    errors = []
    for name in run.WORKLOADS:
        errors += check_corruption(name)
        for trace in (0, 1):
            errors += check_output(name, trace)
    errors += check_bare_directory()
    for err in errors:
        print("FAIL", err)
    print("selftest:", "FAIL" if errors else "PASS")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
