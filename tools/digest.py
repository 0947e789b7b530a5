"""One sha256 per group of the toolkit's outputs, so that "same results" is
a check anyone can rerun.

    python3 tools/digest.py            compare with tools/digest.json; exit 1
                                       and name each group that moved
    python3 tools/digest.py --write    rewrite tools/digest.json

The groups:
- readme_text and readme_json: every `$ coinfield ...` command shown in
  README.md, run in-process in a scratch directory. A pipeline feeds each
  stage's stdout to the next; `printf '...' > file` writes the file, and a
  trailing `grep` is left out, so the whole report is digested. The text
  group runs each command as written, the JSON group with --json on its
  last coinfield stage.
- fixtures: `coinfield fixtures`.
- real_side: a fixed list of commands on the real side of the toolkit, in
  text and with --json: `decide "sqrt(c*q^2*s)"` for each of five shapes
  s (1, p/(1-p), (1-p)/p, p*(p-1), 1/(p*(p-1))), each c in
  {1, 4/9, 2, 1/2, -1, -2, 3} and q = (1-2p)/(p+2) or p*(p-1); then
  `corollary` and `classify` on piecewise files (a tent, a V, the
  flat-ramp figure, a jump, a range fault, a zero, a one and a constant
  zero piece at or between breakpoints) and on single expressions.
- workload.<name>: the first 10 items of each benchmark workload's timed
  stream at seed 7, each reduced by the workload's own condense and digest
  (perfbench/workloads.py), as the benchmark compares a traced pass with a
  plain one.

A change that means to move an output rewrites the file; its diff then names
the group.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shlex
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for path in (os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
import workloads  # noqa: E402
from coinfield import cli  # noqa: E402

DIGESTS = os.path.join(ROOT, "tools", "digest.json")
SEED = 7
ITEMS = 10

SQRT_SHAPES = ("", "*p/(1-p)", "*(1-p)/p", "*p*(p-1)", "/(p*(p-1))")
SQRT_CS = ("1", "4/9", "2", "1/2", "-1", "-2", "3")
SQRT_QS = ("(1-2*p)/(p+2)", "p*(p-1)")
PIECEWISE = {
    "tent.txt": "[0,1/2) p\n[1/2,1] 1 - p\n",
    "v.txt": "[0,1/2) 3/4 - p\n[1/2,1] p - 1/4\n",
    "fig1.txt": "[0,1/2) 1/2\n[1/2,1] p/2 + 1/4\n",
    "jump.txt": "[0,1/2) p\n[1/2,1] p/2\n",
    "range.txt": "[0,1/2) p\n[1/2,1] 2*p - 1/2\n",
    "zero_at_break.txt": "[0,1/2) 1/2 - p\n[1/2,1] p - 1/2\n",
    "one_at_break.txt": "[0,1/2) 1/2 + p\n[1/2,1] 3/2 - p\n",
    "zero_inside.txt": "[0,1/2) (1/4 - p)^2\n[1/2,1] p^2 - 3/16\n",
    "zero_piece.txt": "[0,1/3) 0\n[1/3,1] 3/2*p - 1/2\n",
}
REAL_EXPRS = ("p", "p^2", "(p-1/3)^2/(1 + (p-1/3)^2)",
              "p^3*(1-p)/(1 + p^3*(1-p))", "2*p", "1/2")


def _cli(argv: list[str], stdin: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    finally:
        sys.stdin = saved
    return rc, out.getvalue(), err.getvalue()


def _pipeline(line: str, json_out: bool) -> list:
    """(rc, stdout, stderr) of each coinfield stage of one README command."""
    stages = [shlex.split(s) for s in line.split(" | ")]
    runs = [k for k, argv in enumerate(stages) if argv[0] == "coinfield"]
    results, stdin = [], ""
    for k, argv in enumerate(stages):
        if argv[0] == "printf" and len(argv) == 4 and argv[2] == ">":
            with open(argv[3], "w") as f:
                f.write(argv[1].replace("\\n", "\n"))
        elif argv[0] == "coinfield":
            args = argv[1:] + (["--json"] if json_out and k == runs[-1] else [])
            res = _cli(args, stdin)
            results.append(res)
            stdin = res[1]
        elif not (argv[0] == "grep" and k == len(stages) - 1):
            raise SystemExit(f"digest: README command not understood: {line}")
    return results


def readme_groups() -> dict[str, str]:
    with open(os.path.join(ROOT, "README.md")) as f:
        lines = re.findall(r"^\s+\$ (.*)$", f.read(), re.M)
    out = {}
    here = os.getcwd()
    for group, json_out in (("readme_text", False), ("readme_json", True)):
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                out[group] = workloads._digest(
                    *((line, _pipeline(line, json_out)) for line in lines))
            finally:
                os.chdir(here)
    return out


def real_side_group() -> str:
    """The real_side group: each command in text and with --json."""
    commands = [["decide", f"sqrt(({c})*({q})^2{shape})"]
                for q in SQRT_QS for shape in SQRT_SHAPES for c in SQRT_CS]
    for spec in (*PIECEWISE, *REAL_EXPRS):
        commands += [["corollary", spec], ["classify", spec]]
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, text in PIECEWISE.items():
                with open(name, "w") as f:
                    f.write(text)
            return workloads._digest(*((argv, _cli(argv, ""),
                                        _cli(argv + ["--json"], ""))
                                       for argv in commands))
        finally:
            os.chdir(here)


def workload_groups() -> dict[str, str]:
    out = {}
    for name, cls in workloads.WORKLOADS.items():
        w = cls()
        stream = w.stream(run._rng(name, SEED, "timed"))
        digests = []
        for _ in range(ITEMS):
            try:
                digests.append(w.digest(w.condense(w.run(next(stream)))))
            except Exception as err:
                digests.append(repr(err))
        out[f"workload.{name}"] = workloads._digest(*digests)
    return out


def compute() -> dict[str, str]:
    return {**readme_groups(),
            "fixtures": workloads._digest(*_cli(["fixtures"], "")),
            "real_side": real_side_group(),
            **workload_groups()}


def main(argv: list[str]) -> int:
    if argv not in ([], ["--write"]):
        raise SystemExit(__doc__)
    got = compute()
    if argv:
        with open(DIGESTS, "w") as f:
            json.dump(got, f, indent=1, sort_keys=True)
            f.write("\n")
        return 0
    with open(DIGESTS) as f:
        want = json.load(f)
    moved = sorted(g for g in got.keys() | want.keys()
                   if got.get(g) != want.get(g))
    for group in moved:
        print(f"digest moved: {group}", file=sys.stderr)
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
