"""Command line wiring: exit codes, JSON output, file and stdin plumbing."""

import gc
import io
import json
import sys
import time
import warnings

import pytest

from coinfield.cli import main


def run_cli(capsys, *argv, stdin=None):
    if stdin is not None:
        old = sys.stdin
        sys.stdin = io.StringIO(stdin)
        try:
            code = main(list(argv))
        finally:
            sys.stdin = old
    else:
        code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# parse
# ---------------------------------------------------------------------------

def test_parse_prints_tree(capsys):
    code, out, err = run_cli(capsys, "parse", "1 - 2*p")
    assert code == 0
    assert "Sub" in out or "-" in out


def test_parse_json(capsys):
    code, out, _ = run_cli(capsys, "parse", "--json", "p^2 + t")
    assert code == 0
    json.loads(out)


def test_parse_rejects_garbage(capsys):
    code, out, err = run_cli(capsys, "parse", "p +* 2")
    assert code == 1
    assert err


# ---------------------------------------------------------------------------
# decide / corollary
# ---------------------------------------------------------------------------

def test_decide_simulable_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "decide", "p - 1/2")
    assert code == 0
    assert "simulable" in out


def test_decide_not_simulable_exit_two(capsys):
    code, out, _ = run_cli(capsys, "decide", "sqrt(p^2/(1-p^2))")
    assert code == 2


def test_decide_refuses_sqrt_of_an_argument_with_a_t_part(capsys):
    code, out, _ = run_cli(capsys, "decide", "sqrt(t)")
    assert code == 2
    assert out == ("simulable: no\ndiagnosis: sqrt argument must be a "
                   "rational function of p alone (no t component)\n")


def test_decide_bad_input_exit_one(capsys):
    code, _, err = run_cli(capsys, "decide", "(((")
    assert code == 1 and err


def test_decide_json_carries_witness(capsys):
    code, out, _ = run_cli(capsys, "decide", "--json", "p - 1/2")
    assert code == 0
    data = json.loads(out)
    assert data["simulable"] is True
    assert len(data["witness"]) == 4


def test_corollary_recovers_coin(capsys):
    code, out, _ = run_cli(capsys, "corollary", "p")
    assert code == 0
    assert "t" in out


def test_corollary_of_one_prints_an_infinite_ratio(capsys):
    code, out, _ = run_cli(capsys, "corollary", "1")
    assert code == 0
    assert "h: inf\n" in out


def test_corollary_rejects_p_squared(capsys):
    code, out, _ = run_cli(capsys, "corollary", "p^2")
    assert code == 2


def test_corollary_refuses_a_piecewise_file(tmp_path, capsys):
    spec = tmp_path / "tent.txt"
    spec.write_text("[0,1/2) p\n[1/2,1] 1 - p\n")
    code, out, err = run_cli(capsys, "corollary", str(spec))
    assert code == 1 and out == ""
    assert err == ("bad input: corollary takes one expression; classify "
                   "takes piecewise files\n")


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def test_classify_expression(capsys):
    code, out, _ = run_cli(capsys, "classify", "p^2")
    assert code == 0
    assert "CC:" in out and "QQ:" in out


def test_classify_piecewise_file(tmp_path, capsys):
    spec = tmp_path / "f.txt"
    spec.write_text("[0,1/2) 1/2\n[1/2,1] p/2 + 1/4\n")
    code, out, _ = run_cli(capsys, "classify", str(spec))
    assert code == 0
    assert "CC: yes" in out and "QQ: no" in out


def test_classify_with_witness(capsys):
    code, out, _ = run_cli(capsys, "classify", "p^2",
                           "--witness", "(sqrt2*p/(1+p))*t + i*p/(1+p)")
    assert code == 0
    assert "QQ: yes" in out and "QC: yes" in out


def test_classify_names_a_failed_supplied_witness(capsys):
    # t - 1 fails |h|^2 = f/(1-f) for f = p; QQ still finds t, and says
    # first that the supplied witness failed
    code, out, _ = run_cli(capsys, "classify", "p", "--witness", "t - 1")
    assert code == 0
    assert out.splitlines()[-1] == (
        "QQ: yes (witness t)  [supplied witness -1 + t fails its check "
        "|h|^2 = f/(1-f); f/(1-f) is a square via q*t with q = 1]")
    code, out, _ = run_cli(capsys, "classify", "p", "--witness", "t - 1",
                           "--json")
    assert code == 0
    qq = json.loads(out)["qq"]
    assert (qq["verdict"], qq["witness"]) == ("yes", "t")
    assert qq["reason"].startswith("supplied witness -1 + t fails its check")
    code, out, _ = run_cli(capsys, "classify", "p", "--witness", "t")
    assert out.splitlines()[-1].endswith("[supplied witness checks: |h|^2 = f/(1-f)]")


def test_classify_names_a_witness_for_a_piecewise_function(tmp_path, capsys):
    # no h has |h|^2 = f/(1-f) when f has two distinct pieces
    spec = tmp_path / "f.txt"
    spec.write_text("[0,1/2) 1/2\n[1/2,1] p/2 + 1/4\n")
    code, out, _ = run_cli(capsys, "classify", str(spec), "--witness", "t")
    assert code == 0
    assert out.splitlines()[-1] == (
        "QQ: no  [supplied witness t fails its check |h|^2 = f/(1-f); "
        "pieces differ, but |h|^2/(1+|h|^2) is real-analytic on (0,1): "
        "equal to a rational piece on an interval, it equals that piece on "
        "all of (0,1)]")


def test_classify_tent_is_in_cc_not_qq(tmp_path, capsys):
    spec = tmp_path / "tent.txt"
    spec.write_text("[0,1/2) p\n[1/2,1] 1 - p\n")
    code, out, _ = run_cli(capsys, "classify", str(spec))
    assert code == 0
    cc, qc, qq = out.splitlines()
    assert cc.startswith("CC: yes (witness n=1)") and qq.startswith("QQ: no ")


def test_classify_json_matches_library(capsys):
    from coinfield.analysis import classify, parse_piecewise
    code, out, _ = run_cli(capsys, "classify", "--json", "p^2")
    assert code == 0
    data = json.loads(out)
    rep = classify(parse_piecewise("[0,1] p^2"))
    assert data["cc"]["verdict"] == rep.cc.verdict
    assert data["qq"]["verdict"] == rep.qq.verdict


# ---------------------------------------------------------------------------
# compile / simulate / cost / run pipeline
# ---------------------------------------------------------------------------

def test_compile_not_simulable_exit_two(capsys):
    code, _, err = run_cli(capsys, "compile", "sqrt(p)")
    assert code == 2 and err


def test_compile_then_simulate_via_stdin(capsys):
    code, prog_json, _ = run_cli(capsys, "compile", "p")
    assert code == 0
    code2, out2, _ = run_cli(capsys, "simulate", "-", stdin=prog_json)
    assert code2 == 0
    assert out2.strip() == "ratio: p"


def test_compile_then_simulate_via_file(tmp_path, capsys):
    code, prog_json, _ = run_cli(capsys, "compile", "1 - 2*p")
    path = tmp_path / "prog.json"
    path.write_text(prog_json)
    code2, out2, _ = run_cli(capsys, "simulate", str(path))
    assert code2 == 0
    assert out2.strip() == "ratio: 1 - 2*p"


def test_file_reads_close_their_files(tmp_path, capsys):
    _, prog_json, _ = run_cli(capsys, "compile", "p")
    prog = tmp_path / "prog.json"
    prog.write_text(prog_json)
    tent = tmp_path / "tent.txt"
    tent.write_text("[0,1/2) p\n[1/2,1] 1 - p\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(capsys, "cost", "--p0", "3/10", str(prog))[0] == 0
        assert run_cli(capsys, "classify", str(tent))[0] == 0
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_simulate_json(capsys):
    _, prog_json, _ = run_cli(capsys, "compile", "t")
    code, out, _ = run_cli(capsys, "simulate", "--json", "-", stdin=prog_json)
    assert code == 0
    data = json.loads(out)
    assert "ratio" in data


def test_cost_reports_expected_coins(capsys):
    _, prog_json, _ = run_cli(capsys, "compile", "t")
    code, out, _ = run_cli(capsys, "cost", "--p0", "1/2", "-", stdin=prog_json)
    assert code == 0
    assert "expected coins" in out
    assert "1" in out


def test_cost_json_of_two_coin_protocol(capsys):
    from coinfield.synth import program_to_json, worked_example_program
    prog_json = json.dumps(program_to_json(worked_example_program()))
    code, out, _ = run_cli(capsys, "cost", "--json", "--p0", "3/10", "-",
                           stdin=prog_json)
    assert code == 0
    data = json.loads(out)
    assert abs(data["expected_coins"] - 2 / 0.58) < 1e-9


def test_cost_past_the_float_range_prints_finite_numbers(capsys, monkeypatch):
    _, prog_json, _ = run_cli(capsys, "compile", "(1+p)^40")
    code, out, _ = run_cli(capsys, "cost", "--p0", "3/10", "-", stdin=prog_json)
    assert code == 0
    assert "expected coins: 7.99558e+540" in out.splitlines()
    assert "success probability per attempt: 2.08447e-550" in out.splitlines()

    def refuse(name):
        raise ValueError(name)

    code, out, _ = run_cli(capsys, "cost", "--json", "--p0", "3/10", "-",
                           stdin=prog_json)
    assert code == 0
    data = json.loads(out, parse_constant=refuse)
    assert data["expected_coins"].startswith("7.99558")
    # lift the replay bound, which refuses this run, to reach the run report
    monkeypatch.setattr("coinfield.sim.MAX_REPLAY_COINS", 10 ** 600)
    code, out, _ = run_cli(capsys, "run", "--json", "--p0", "0.3", "--trials",
                           "2", "--max-retries", "0", "-", stdin=prog_json)
    assert code == 0
    data = json.loads(out, parse_constant=refuse)
    assert data["expected_coins_analytic"].startswith("7.99558")


@pytest.mark.parametrize("digits", [160, 170])
def test_cost_of_keep_probabilities_below_the_float_range(capsys, digits):
    # the kept mass of the last measurement is about 10^-2*digits of its
    # total, below the float range; as a mantissa and an exponent it neither
    # rounds to 0 nor makes the attempt counts infinite
    big = 10 ** digits
    _, prog_json, _ = run_cli(capsys, "compile", f"{big}*p/(p+{big})")
    code, out, _ = run_cli(capsys, "cost", "--p0", "3/10", "-", stdin=prog_json)
    assert code == 0
    assert f"expected coins: 1.22477e+{2 * digits + 1}" in out.splitlines()

    def refuse(name):
        raise ValueError(name)

    code, out, _ = run_cli(capsys, "cost", "--json", "--p0", "3/10", "-",
                           stdin=prog_json)
    assert code == 0 and "null" not in out
    data = json.loads(out, parse_constant=refuse)
    assert data["expected_coins"].startswith("1.22477")
    code, out, err = run_cli(capsys, "run", "--p0", "0.3", "--trials", "10",
                             "-", stdin=prog_json)
    assert code == 1 and not out and len(err.splitlines()) == 1
    assert "1.22477e+" in err and "exceed the replay bound" in err


def test_run_refuses_a_replay_past_its_bound(capsys):
    # without the bound these three trials do not end: the program costs
    # 8.0e540 coins per sample at 0.3
    _, prog_json, _ = run_cli(capsys, "compile", "(1+p)^40")
    for retries in ("1000", "0"):
        code, out, err = run_cli(capsys, "run", "--p0", "0.3", "--trials", "3",
                                 "--max-retries", retries, "-", stdin=prog_json)
        assert code == 1 and not out
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("bad input:") and "7.99558e+540 expected coins" in err


def test_run_refuses_a_replay_of_minutes(capsys):
    # three trials at 0.999999 expect 7.8e8 coins and constant coins, some
    # minutes of replay; the bound refuses them before any trial runs
    _, prog_json, _ = run_cli(capsys, "compile", "(1+p)^5")
    code, out, err = run_cli(capsys, "run", "--p0", "0.999999", "--trials",
                             "3", "-", stdin=prog_json)
    assert code == 1 and not out and len(err.splitlines()) == 1
    assert err.startswith("bad input:") and "replay bound" in err


def test_run_seeded(capsys):
    from coinfield.synth import program_to_json, worked_example_program
    prog_json = json.dumps(program_to_json(worked_example_program()))
    code, out, _ = run_cli(capsys, "run", "--p0", "0.3", "--trials", "2000",
                           "--seed", "5", "--json", "-", stdin=prog_json)
    assert code == 0
    data = json.loads(out)
    assert data["trials"] == 2000
    code2, out2, _ = run_cli(capsys, "run", "--p0", "0.3", "--trials", "2000",
                             "--seed", "5", "--json", "-", stdin=prog_json)
    assert json.loads(out2) == data


def test_run_reports_observed_attempts(capsys):
    from coinfield.synth import program_to_json, worked_example_program
    prog_json = json.dumps(program_to_json(worked_example_program()))
    code, out, _ = run_cli(capsys, "run", "--p0", "0.3", "--trials", "2000",
                           "--seed", "5", "--json", "-", stdin=prog_json)
    assert code == 0
    data = json.loads(out)
    assert set(data["node_attempts"]) == {"0"}
    assert data["node_attempts"]["0"] >= 1
    assert 0 < data["max_retries_seen"] <= data["max_retries"]
    code, out, _ = run_cli(capsys, "run", "--p0", "0.3", "--trials", "2000",
                           "--seed", "5", "-", stdin=prog_json)
    assert code == 0
    assert f'node_attempts: {{"0": {data["node_attempts"]["0"]}}}' in out
    assert f"max_retries_seen: {data['max_retries_seen']}" in out


def test_run_prints_expected_attempts_beside_observed(capsys):
    from fractions import Fraction
    from coinfield.sim import expected_cost
    from coinfield.synth import construct_p
    prog = construct_p()
    want = {str(nid): a for nid, a in
            sorted(expected_cost(prog, Fraction(3, 10)).expected_attempts.items())}
    code, out, _ = run_cli(capsys, "run", "--p0", "0.3", "--trials", "200",
                           "--seed", "5", "--json", "-",
                           stdin=_program_json(prog))
    assert code == 0
    data = json.loads(out)
    assert data["expected_attempts"] == want
    assert list(data["expected_attempts"]) == list(data["node_attempts"])
    keys = list(data)
    assert keys[keys.index("node_attempts") + 1] == "expected_attempts"
    code, out, _ = run_cli(capsys, "run", "--p0", "0.3", "--trials", "200",
                           "--seed", "5", "-", stdin=_program_json(prog))
    assert code == 0
    lines = out.splitlines()
    at = lines.index(f"node_attempts: {json.dumps(data['node_attempts'])}")
    assert lines[at + 1] == f"expected_attempts: {json.dumps(want)}"


def test_run_takes_one_exact_pass(capsys, monkeypatch):
    from coinfield import sim
    calls = []
    real = sim._exact_pass

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(sim, "_exact_pass", counted)
    _, prog_json, _ = run_cli(capsys, "compile", "p")
    code, out, _ = run_cli(capsys, "run", "--p0", "0.3", "--trials", "20",
                           "--seed", "5", "-", stdin=prog_json)
    assert code == 0 and "expected_attempts: " in out
    assert len(calls) == 1


@pytest.mark.parametrize("extra", [[], ["--json"]])
def test_decide_takes_each_view_once(capsys, monkeypatch, extra):
    from coinfield.field import FieldElem
    from coinfield.lang import lower, parse
    expr = "(1/3+i*p/7+p^2/5)^6/(t+1/2)^3"
    want = run_cli(capsys, "decide", expr, *extra)
    calls = []
    real = FieldElem.zeta_view

    def counted(self, *args, **kwargs):
        calls.append(1)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(FieldElem, "zeta_view", counted)
    assert run_cli(capsys, "decide", expr, *extra) == want
    assert want[0] == 0 and len(calls) == 2
    # the element prints as str of the lowered element does
    element = str(lower(parse(expr)))
    if extra:
        assert json.loads(want[1])["element"] == element
    else:
        assert want[1].splitlines()[1] == f"element: {element}"


def test_run_rejects_negative_seed(capsys):
    from coinfield.synth import program_to_json, worked_example_program
    prog_json = json.dumps(program_to_json(worked_example_program()))
    code, out, err = run_cli(capsys, "run", "--p0", "0.3", "--trials", "10",
                             "--seed", "-1", "-", stdin=prog_json)
    assert code == 1 and not out
    assert len(err.strip().splitlines()) == 1 and "seed" in err


def test_run_rejects_bad_p0(capsys):
    from coinfield.synth import program_to_json, worked_example_program
    prog_json = json.dumps(program_to_json(worked_example_program()))
    code, _, err = run_cli(capsys, "run", "--p0", "1.5", "--trials", "10", "-",
                           stdin=prog_json)
    assert code == 1 and err


@pytest.mark.parametrize("argv", [
    ("decide", "1/0"),
    ("compile", "1/(p-p)"),
    ("corollary", "0^-1"),
    ("classify", "1/(p-p)"),
    ("classify", "p", "--witness", "1/(p-p)"),
    ("cost", "--p0", "1/0", "-"),
])
def test_division_by_zero_exits_one(capsys, argv):
    from coinfield.synth import program_to_json, worked_example_program
    prog_json = json.dumps(program_to_json(worked_example_program()))
    code, out, err = run_cli(capsys, *argv, stdin=prog_json)
    assert code == 1 and not out
    assert len(err.strip().splitlines()) == 1 and err.startswith("bad input")


@pytest.mark.parametrize("argv", [
    ("parse", "(" * 2000 + "p" + ")" * 2000),
    ("decide", "0" + "-" * 3000 + "p"),
    ("parse", "+".join(["p"] * 3000)),
    ("compile", "sqrt(" * 500 + "p^2" + ")" * 500),
])
def test_deep_expression_exits_one(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and not out
    assert len(err.strip().splitlines()) == 1 and "deeper than" in err


@pytest.mark.parametrize("argv", [
    ("decide", "(1+p)^3000"),
    ("decide", "t^-100000"),
    ("decide", "((1+p)^64)^64"),
    ("corollary", "(1+p)^3000"),
    ("compile", "t^-100000"),
    ("classify", "(1+p)^3000"),
    ("classify", "p", "--witness", "t^-100000"),
    ("decide", "*".join(["(1+p)^128"] * 8)),
    ("decide", "1/(p+1)^100 + 1/(p+2)^100"),
])
def test_power_past_degree_limit_exits_one(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and not out
    assert len(err.strip().splitlines()) == 1 and "exceeds degree" in err


BIG = "1" + "0" * 400


@pytest.mark.parametrize("argv", [
    ("decide", f"sqrt(p+{BIG})"),
    ("classify", f"(p+{BIG})/(2*p+2*{BIG}+1)"),
    ("corollary", f"(p+{BIG})/(2*p+2*{BIG}+1)"),
])
def test_long_literal_gets_a_verdict(capsys, argv):
    # root bounds of such coefficients overflow a float
    code, out, err = run_cli(capsys, *argv)
    assert code in (0, 2) and "Traceback" not in err
    assert out.startswith("CC: yes" if argv[0] == "classify" else "simulable: no")


def test_huge_coefficient_classify_gets_a_verdict(capsys):
    # h = 10^400 p: its coefficients overflow a float, so the QC grid scales
    # A, B and C first; 1 - f = 1/(1 + 10^800 p^2) needs a CC witness
    # n > 128, which exists by Keane and O'Brien
    f = f"(({BIG}*p)^2)/(1+({BIG}*p)^2)"
    code, out, err = run_cli(capsys, "classify", f)
    assert code == 0 and not err
    cc, qc, qq = out.splitlines()
    assert cc == ("CC: yes  [continuous with no interior zero or one, so a "
                  "witness n exists (Keane-O'Brien); the least exceeds 128]")
    assert qc == "QC: yes  [zeros: 0 order 2 k=1; ones: none]"
    assert qq.startswith(f"QQ: yes (witness {BIG}*p)")


def _fresh_env():
    import os
    import coinfield
    src = os.path.dirname(os.path.dirname(coinfield.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def test_reused_parser_matches_fresh_processes(capsys):
    # main() builds its parser once per process; a flag from one call must
    # not reach the next, and a flag the parser does not know is refused
    import subprocess
    f = "(p+1)/(p+2)"
    witness = "(t + 1/sqrt2 + i*(t - 1/sqrt2))/(t + i)"
    calls = [("classify", f, "--witness", witness, "--json"),
             ("classify", f, "--json"),
             ("classify", f, "--no-complex-witness")]
    here = [run_cli(capsys, *argv)[:2] for argv in calls]
    fresh = []
    for argv in calls:
        done = subprocess.run([sys.executable, "-m", "coinfield.cli", *argv],
                              env=_fresh_env(), capture_output=True,
                              text=True, timeout=60)
        fresh.append((done.returncode, done.stdout))
    assert here == fresh
    verdicts = [json.loads(out)["qq"]["verdict"] for _, out in here[:2]]
    assert verdicts == ["yes", "unknown"]
    assert here[2] == (1, "")


def test_run_json_without_completed_trials_is_valid(capsys):
    from coinfield.synth import program_to_json, worked_example_program
    prog_json = json.dumps(program_to_json(worked_example_program()))
    code, out, _ = run_cli(capsys, "run", "--p0", "0.5", "--trials", "1",
                           "--max-retries", "0", "--seed", "2", "--json", "-",
                           stdin=prog_json)
    assert code == 0

    def refuse(name):
        raise ValueError(f"bare {name} in run --json output")

    data = json.loads(out, parse_constant=refuse)
    assert data["completed"] == 0 and data["aborted"] == 1
    assert data["empirical_p0_prob"] is None
    assert data["expected_coins_empirical"] is None
    assert list(data["node_attempts"].values()) == [None]


def test_import_leaves_numpy_out():
    import os
    import subprocess
    import coinfield
    src = os.path.dirname(os.path.dirname(coinfield.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, coinfield.cli; print('numpy' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_run_rejects_bad_workers(capsys, workers):
    from coinfield.synth import program_to_json, worked_example_program
    prog_json = json.dumps(program_to_json(worked_example_program()))
    code, out, err = run_cli(capsys, "run", "--p0", "0.3", "--trials", "10",
                             "--workers", workers, "-", stdin=prog_json)
    assert code == 1 and not out
    assert len(err.strip().splitlines()) == 1 and "workers" in err


def _program_json(prog) -> str:
    from coinfield.synth import program_to_json
    return json.dumps(program_to_json(prog))


def _worked_example_json() -> str:
    from coinfield.synth import worked_example_program
    return _program_json(worked_example_program())


def _const_json(value) -> str:
    from coinfield.synth import const_program
    data = json.loads(_program_json(const_program(1)))
    data["instructions"][0]["value"] = value
    return json.dumps(data)


def _cnot_chain_json(n: int) -> str:
    from coinfield.synth import (AllocCoin, CircuitProgram, Gate, Measure,
                                 ProvNode)
    instrs = tuple(AllocCoin(r) for r in range(n)) \
        + tuple(Gate("CNOT", (r, r + 1)) for r in range(n - 1)) \
        + tuple(Measure(r, 0) for r in range(1, n))
    node = ProvNode("protocol", tuple(("instr", k) for k in range(len(instrs))))
    return _program_json(CircuitProgram(instrs, 0, (node,), 0))


def _ancestor_measure_json() -> str:
    from coinfield.synth import (AllocCoin, CircuitProgram, Gate, Measure,
                                 ProvNode)
    instrs = (AllocCoin(0), AllocCoin(1), Gate("CNOT", (0, 1)), Measure(1, 0))
    nodes = (ProvNode("root", (("instr", 0), ("child", 1))),
             ProvNode("inner", (("instr", 1), ("instr", 2), ("instr", 3))))
    return _program_json(CircuitProgram(instrs, 0, nodes, 0))


def _first(op):
    return lambda data: next(r for r in data["instructions"] if r["op"] == op)


def _root_items(data):
    return data["provenance"]["nodes"][data["provenance"]["root"]]["items"]


def _mutated_json(where, key, value) -> str:
    """The program of "1 - 2*p" as JSON, with where(data)[key] = value."""
    from coinfield.lang import lower, parse
    from coinfield.synth import compile
    data = json.loads(_program_json(compile(lower(parse("1 - 2*p")))))
    where(data)[key] = value
    return json.dumps(data)


LONG = "1" + "0" * 4999


COST = ("cost", "--p0", "3/10", "-")

# (argv, stdin, piecewise file text); "{file}" in argv names that file
BAD_INPUT = {
    "parse-long-literal": (("parse", LONG), None, None),
    "decide-long-literal": (("decide", f"p + {LONG}"), None, None),
    "corollary-long-literal": (("corollary", f"{LONG}*p/(1+{LONG}*p)"),
                               None, None),
    "cost-p0-long-exponent": (("cost", "--p0", "1e-99999999", "-"),
                              _worked_example_json(), None),
    "simulate-const-long-exponent": (("simulate", "-"),
                                     _const_json(["1e99999999", "0", "0", "0"]),
                                     None),
    "classify-endpoint-long-exponent": (
        ("classify", "{file}"), None,
        "[0,1e-99999999) p\n[1e-99999999,1] p\n"),
    "simulate-deep-json": (("simulate", "-"),
                           "[" * 100000 + "]" * 100000, None),
    "cost-wide-group": (("cost", "--p0", "3/10", "-"), _cnot_chain_json(20),
                        None),
    "decide-without-argument": (("decide",), None, None),
    "run-trials-not-int": (("run", "--p0", "0.3", "--trials", "abc", "-"),
                           _worked_example_json(), None),
    "simulate-const-two-parts": (("simulate", "-"), _const_json(["1", "0"]),
                                 None),
    "run-negative-max-retries": (("run", "--p0", "0.3", "--trials", "10",
                                  "--max-retries", "-1", "-"),
                                 _worked_example_json(), None),
    "run-p0-past-float-range": (("run", "--p0", "1e400", "--trials", "10",
                                 "-"), _worked_example_json(), None),
    "unknown-command": (("frobnicate",), None, None),
    "cost-measure-names-ancestor": (COST, _ancestor_measure_json(), None),
    "cost-registers-string": (COST, _mutated_json(lambda d: d, "registers",
                                                  "10"), None),
    "cost-output-list": (COST, _mutated_json(lambda d: d, "output", [0]),
                         None),
    "cost-root-null": (COST, _mutated_json(lambda d: d["provenance"], "root",
                                           None), None),
    "cost-reg-list": (COST, _mutated_json(_first("coin"), "reg", [0]), None),
    "cost-node-float": (COST, _mutated_json(_first("measure"), "node", 1.5),
                        None),
    "cost-node-object": (COST, _mutated_json(_first("measure"), "node", {}),
                         None),
    "cost-keep-true": (COST, _mutated_json(_first("measure"), "keep", True),
                       None),
    "cost-gate-name-int": (COST, _mutated_json(_first("gate"), "name", 3),
                           None),
    "cost-gate-reg-string": (COST, _mutated_json(
        lambda d: _first("gate")(d)["regs"], 0, "0"), None),
    "cost-kind-list": (COST, _mutated_json(
        lambda d: d["provenance"]["nodes"][0], "kind", ["coin"]), None),
    "cost-child-out-of-range": (COST, _mutated_json(_root_items, 0,
                                                    ["child", 1000000]), None),
    "cost-item-tag-int": (COST, _mutated_json(_root_items, 0, [0, 0]), None),
    "decide-constant-tower": (("decide", "((((2^128)^128)^128)^128)^128"),
                              None, None),
}

# program JSON from outside that reaches each refusal of the program reader
# (synth._provenance and validate_program), with the message it prints
PROGRAM_FAULTS = {
    "root-out-of-range": (_mutated_json(lambda d: d["provenance"], "root", 5),
                          "provenance root out of range"),
    "node-reached-twice": (_mutated_json(_root_items, 1, ["child", 0]),
                           "node 0 reached twice"),
    "unknown-item": (_mutated_json(_root_items, 1, ["gate", 6]),
                     "unknown provenance item 'gate'"),
    "instr-out-of-order": (_mutated_json(_root_items, 1, ["instr", 7]),
                           "provenance must cover instructions in list order"),
    "instr-left-out": (_mutated_json(
        lambda d: d["provenance"]["nodes"][1], "items",
        [["child", 0], ["instr", 6], ["instr", 7]]),
        "provenance must cover instructions in list order"),
    "node-unreached": (_mutated_json(
        lambda d: d["provenance"]["nodes"], slice(2, None),
        [{"kind": "spare", "items": []}]),
        "provenance must cover every node exactly once"),
    "gate-regs-repeat": (_mutated_json(
        lambda d: _first("gate")(d)["regs"], 1, 0),
        "gate registers must be distinct"),
    "measure-dead-reg": (_mutated_json(_first("measure"), "reg", 5),
                         "measurement of dead register 5"),
    "measure-keep-two": (_mutated_json(_first("measure"), "keep", 2),
                         "measurement keeps outcome 0 or 1"),
}
BAD_INPUT.update({f"cost-{name}": (COST, program, None)
                  for name, (program, _) in PROGRAM_FAULTS.items()})


@pytest.mark.parametrize("case", BAD_INPUT.values(), ids=list(BAD_INPUT))
def test_bad_input_exits_one_with_one_line(tmp_path, capsys, case):
    argv, stdin, piecewise = case
    if piecewise is not None:
        path = tmp_path / "f.txt"
        path.write_text(piecewise)
        argv = tuple(str(path) if a == "{file}" else a for a in argv)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv, stdin=stdin)
    assert time.perf_counter() - start < 2
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("bad input: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("case", PROGRAM_FAULTS.values(),
                         ids=list(PROGRAM_FAULTS))
def test_program_fault_names_its_check(capsys, case):
    program, message = case
    code, out, err = run_cli(capsys, *COST, stdin=program)
    assert (code, out, err) == (1, "", f"bad input: {message}\n")


def test_failed_report_leaves_stdout_empty(capsys, monkeypatch):
    # the report fails after its first line, as str() of an integer past the
    # interpreter's int-string limit does; none of it reaches stdout
    import dataclasses

    from coinfield import analysis

    class Unprintable:
        def __str__(self):
            raise ValueError("cannot print")

    decision = analysis.decide_qq_ratio("p")
    monkeypatch.setattr(analysis, "decide_qq_ratio", lambda expr: (
        dataclasses.replace(decision, element=Unprintable())))
    code, out, err = run_cli(capsys, "decide", "p")
    assert (code, out, err) == (1, "", "bad input: cannot print\n")


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as done:
        main(["run", "--help"])
    assert done.value.code == 0
    assert capsys.readouterr().out.startswith("usage: coinfield run ")


def test_classify_outside_unit_interval_answers_no(capsys):
    code, out, err = run_cli(capsys, "classify", "2*p")
    assert code == 0 and not err
    assert out.splitlines() == [
        "CC: no  [f > 1 somewhere on [0,1]]",
        "QC: not computed (no ratio witness available)",
        "QQ: no  [not a probability function: f > 1 somewhere on [0,1]]",
    ]


def test_simulate_rejects_corrupt_program(capsys):
    code, _, err = run_cli(capsys, "simulate", "-", stdin='{"bogus": 1}')
    assert code == 1 and err


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

def test_fixture_battery_all_pass(capsys):
    code, out, _ = run_cli(capsys, "fixtures")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert len(lines) == 14
    assert all(ln.rstrip().endswith("PASS") for ln in lines)


def test_fixture_battery_json(capsys):
    code, out, _ = run_cli(capsys, "fixtures", "--json")
    assert code == 0
    data = json.loads(out)
    assert len(data["rows"]) == 14 and data["all_pass"] is True
    assert all(row["pass"] is True for row in data["rows"])


def test_poly_arithmetic_is_left_to_field_and_polys(tmp_path, capsys,
                                                   monkeypatch):
    # the commands run on integer lists; Poly and RatFn arithmetic serves
    # only FieldElem's own operations and the Poly canonical form
    import os
    from coinfield.polys import Poly, RatFn
    tent = tmp_path / "tent.txt"
    tent.write_text("[0,1/2) p\n[1/2,1] 1 - p\n")
    outside = set()

    def watched(op, name):
        def wrapper(*args):
            code = sys._getframe(1).f_code
            if os.path.basename(code.co_filename) not in ("field.py",
                                                          "polys.py"):
                outside.add((code.co_filename, code.co_name, name))
            return op(*args)
        return wrapper

    for cls, names in (
            (Poly, ("__add__", "__sub__", "__mul__", "__rmul__",
                    "__divmod__")),
            (RatFn, ("__add__", "__neg__", "__sub__", "__mul__", "__rmul__",
                     "inverse", "__truediv__", "__pow__"))):
        for name in names:
            monkeypatch.setattr(cls, name, watched(getattr(cls, name), name))
    commands = [["decide", text] for text in (
        "t + p - 1/2", "p/(1 + p)", "sqrt(p^2/(1-p^2))", "sqrt(3*p^2)",
        "sqrt((p-1/3)^2*p/(1-p))", "sqrt(-2*(1-2*p)^2*(1-p)/p)")]
    commands += [[cmd, text] for cmd in ("corollary", "classify")
                 for text in ("(1-2*p)^2/(1+(1-2*p)^2)", "p", "p^2", "2*p",
                              "(p-1/2)^2/(1+(p-1/2)^2)",
                              "p^3*(1-p)/(1+p^3*(1-p))")]
    commands += [["classify", str(tent)], ["fixtures"]]
    for argv in commands:
        for extra in ([], ["--json"]):
            run_cli(capsys, *argv, *extra)
    for text in ("p", "1 - 2*p", "(1+p)^3", "t + p - 1/2"):
        _, program, _ = run_cli(capsys, "compile", text)
        for argv in (["simulate", "-"], ["cost", "--p0", "3/10", "-"]):
            code, _, _ = run_cli(capsys, *argv, stdin=program)
            assert code == 0
    assert not outside


def test_field_keeps_poly_arithmetic_to_its_operations(capsys, monkeypatch):
    # inside field.py, Poly +, -, * and the Poly canonical form serve only
    # FieldElem's +, * and inverse and the helpers they build on; every
    # other element is built on integer lists
    import os
    from coinfield import field
    from coinfield.analysis import check_phased_witness, read_real_ratfn
    from coinfield.field import FieldElem
    from coinfield.lang import field_sqrt, lower, parse
    from coinfield.polys import Poly
    allowed = {"__add__", "__mul__", "inverse", "from_abc", "w_mul",
               "w_norm", "_times"}
    outside = set()

    def watched(op, name):
        def wrapper(*args):
            code = sys._getframe(1).f_code
            if os.path.basename(code.co_filename) == "field.py" \
                    and code.co_name not in allowed:
                outside.add((code.co_name, name))
            return op(*args)
        return wrapper

    for name in ("__add__", "__sub__", "__mul__", "__rmul__"):
        monkeypatch.setattr(Poly, name, watched(getattr(Poly, name), name))
    monkeypatch.setattr(field, "canonical",
                        watched(field.canonical, "canonical"))
    h = lower(parse("(p + i)/(p - 3) + (2*p - 1)/(p^2 + 5)*t"))
    g = lower(parse("(2*p - 1/3)/(p + i)"))
    assert FieldElem(h.r, h.s) == h
    for x in (h, g):
        for n in (3, -3, 0):
            x ** n
    assert field_sqrt(read_real_ratfn("4*p^2/(p+2)^2"))
    assert check_phased_witness(
        lower(parse("(sqrt2*p/(1+p))*t + i*p/(1+p)")), read_real_ratfn("p^2"))
    for argv in (["decide", "((p^2+i*p+1/3)/(p+1/5))^-3"],
                 ["decide", "sqrt((p-1/3)^2*p/(1-p))"],
                 ["decide", "1/(t + p)^2"],
                 ["corollary", "(1-2*p)^2/(1+(1-2*p)^2)"],
                 ["classify", "p^2", "--witness",
                  "(sqrt2*p/(1+p))*t + i*p/(1+p)"]):
        for extra in ([], ["--json"]):
            code, _, _ = run_cli(capsys, *argv, *extra)
            assert code == 0
    _, program, _ = run_cli(capsys, "compile", "t + p - 1/2")
    code, _, _ = run_cli(capsys, "simulate", "-", stdin=program)
    assert code == 0 and not outside


def test_closed_pipe_exits_one_without_traceback():
    # the reader has closed its end before the report is written
    import os
    import subprocess
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "coinfield.cli", "compile", "(1+p)^6"],
            env=_fresh_env(), stdout=write_end, stderr=subprocess.PIPE,
            text=True, timeout=60)
    finally:
        os.close(write_end)
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert "Exception ignored" not in done.stderr


def test_over_degree_input_is_refused_before_it_is_computed(capsys):
    # both terms lower, but their sum's denominator has degree 200: both
    # powers are built, in milliseconds, and then the sum is refused
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "decide", "1/(p+1)^100 + 1/(p+2)^100")
    assert time.perf_counter() - t0 < 0.3
    assert code == 1 and not out and "exceeds degree" in err


# ---------------------------------------------------------------------------
# Golden --json lines: the reports byte for byte
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv, program, want", [
    (["decide", "t + p - 1/2"], None,
     '{"simulable": true, "diagnosis": "", "witness": {"g1": "1", '
     '"g2": "1", "g3": "-1/2 + p", "g4": "1"}, "element": "-1/2 + p + '
     't"}'),
    (["corollary", "(1-2*p)^2/(1+(1-2*p)^2)"], None,
     '{"simulable": true, "h": "1 - 2*p", "reason": "f/(1-f) is a '
     'square via q = 1 - 2*p"}'),
    (["classify", "p^2", "--witness", "(sqrt2*p/(1+p))*t + i*p/(1+p)"], None,
     '{"cc": {"verdict": "yes", "witness_n": 2, "reason": "min(f,1-f) '
     '>= min(p^2,(1-p)^2)"}, "qc": {"in_qc": true, "zeros": [{"point": '
     '"0", "kind": "zero", "order": "2", "k": 1, "delta": 0.125, "c": '
     '0.4999999999999998, "residual": "min of integer order 1 from A '
     "and half-integer order 1 + 1/2 from B; the two kinds cannot "
     'cancel"}], "ones": [{"point": "1", "kind": "one", "order": "1", '
     '"k": 1, "delta": 0.125, "c": 7.52005012531329, "residual": "min '
     "of integer order 1 from A and half-integer order 0 + 1/2 from B; "
     'the two kinds cannot cancel"}]}, "qq": {"verdict": "yes", '
     '"witness": "i*p/(1 + p) + (sqrt2*p/(1 + p))*t", "reason": '
     '"supplied witness checks: |h|^2 = f/(1-f)"}}'),
    (["classify", "(p^2-1/2)^2/(1+(p^2-1/2)^2)"], None,
     '{"cc": {"verdict": "no", "witness_n": null, "reason": "interior '
     'zero inside (0,1)"}, "qc": {"in_qc": true, "zeros": [{"point": '
     '{"poly": "-1/2 + p^2", "interval": ["0", "1"], "approx": '
     '0.7071067811865476}, "kind": "zero", "order": "2", "k": 1, '
     '"delta": 0.125, "c": 0.8109708129229277, "residual": "shared '
     "order 1 in A and B; the conjugate product vanishes to exactly 2k "
     '= 2, so both conjugates carry order k"}], "ones": []}, "qq": '
     '{"verdict": "yes", "witness": "1/2 - p^2", "reason": "f/(1-f) is '
     'a square via q = 1/2 - p^2"}}'),
    (["cost", "--p0", "3/10", "-"], "p",
     '{"p0": 0.3, "expected_coins": 11.009174311926607, '
     '"expected_consts": 6.385321100917432, "success_probability": '
     '0.18166666666666664, "expected_attempts": {"0": '
     '5.5045871559633035, "1": 5.5045871559633035, "2": '
     '5.5045871559633035, "3": 3.192660550458716, "4": '
     '3.192660550458716, "5": 3.192660550458716, "6": '
     '3.192660550458716, "7": 1.0}, "measure_probs": {"3": 0.58, "8": '
     '0.5086206896551724, "11": 0.615819209039548}, "static": '
     '{"coins": 2, "consts": 2, "gates": 6, "measures": 3, '
     '"registers": 4}}'),
    (["run", "--p0", "0.5", "--trials", "1", "--max-retries", "0", "--seed",
      "2", "-"], "p",
     '{"p0": 0.5, "trials": 1, "successes": 0, "empirical_p0_prob": '
     'null, "expected_coins_analytic": 9.6, '
     '"expected_coins_empirical": null, "seed": 2, "aborted": 1, '
     '"completed": 0, "coins_total": 0, "consts_total": 0, '
     '"max_retries": 0, "node_attempts": {"0": null, "1": null, "2": '
     'null, "3": null, "4": null, "5": null, "6": null, "7": null}, '
     '"expected_attempts": {"0": 4.8, "1": 4.8, "2": 4.8, "3": 2.4, '
     '"4": 2.4, "5": 2.4, "6": 2.4, "7": 1.0}, "max_retries_seen": 0, '
     '"aborted_coins": 2, "aborts_per_measure": {"3": 1}}'),
    # a complex witness: the zero is named by p^2 - 1/2 from the real core
    # (p^2 - 1/2)^2 of n = A^2, without the factor p^2 + 1 of |n|^2
    (["classify", "((p^2-1/2)^2*(p^2+1))/(1+(p^2-1/2)^2*(p^2+1))",
      "--witness", "(p^2-1/2)*(p+i)"], None,
     '{"cc": {"verdict": "no", "witness_n": null, "reason": "interior '
     'zero inside (0,1)"}, "qc": {"in_qc": true, "zeros": [{"point": '
     '{"poly": "-1/2 + p^2", "interval": ["0", "1"], "approx": '
     '0.7071067811865476}, "kind": "zero", "order": "2", "k": 1, '
     '"delta": 0.125, "c": 1.0771797493338395, "residual": "shared '
     "order 1 in A and B; the conjugate product vanishes to exactly 2k "
     '= 2, so both conjugates carry order k"}], "ones": []}, "qq": '
     '{"verdict": "yes", "witness": "-1/2*i - 1/2*p + i*p^2 + p^3", '
     '"reason": "supplied witness checks: |h|^2 = f/(1-f)"}}'),
    # the constants: h = inf is the state |0>, h = 0 the state |1>
    (["classify", "1"], None,
     '{"cc": {"verdict": "yes", "witness_n": null, "reason": "constant '
     'function"}, "qc": null, "qq": {"verdict": "yes", "witness": "inf", '
     '"reason": "constant 1: the state |0>"}}'),
    (["classify", "0"], None,
     '{"cc": {"verdict": "yes", "witness_n": null, "reason": "constant '
     'function"}, "qc": null, "qq": {"verdict": "yes", "witness": "0", '
     '"reason": "constant 0: the state |1>"}}'),
    (["classify", "p/sqrt2"], None,
     '{"cc": {"verdict": "yes", "witness_n": 2, "reason": "min(f,1-f) '
     '>= min(p^2,(1-p)^2)"}, "qc": null, "qq": {"verdict": "unknown", '
     '"witness": null, "reason": "piece has irrational coefficients; '
     'square detection covers rational coefficients only"}}'),
    # the root of zero: square_test's zero branch, no sign to fix
    (["decide", "sqrt(0)"], None,
     '{"simulable": true, "diagnosis": "", "witness": {"g1": "0", "g2": '
     '"1", "g3": "0", "g4": "1"}, "element": "0"}'),
    # a unary minus of a sum keeps its parentheses
    (["parse", "-(p+1) + sqrt(1/2)"], None,
     '{"printed": "-(p + 1) + sqrt(1/2)", "ast": {"add": [{"sub": '
     '[{"const": "0"}, {"add": [{"atom": "p"}, {"const": "1"}]}]}, '
     '{"sqrt": {"div": [{"const": "1"}, {"const": "2"}]}}]}}'),
])
def test_json_lines_are_pinned(capsys, argv, program, want):
    # cost and run read the compiled program of `program`; the run's one
    # trial aborts, so its NaN fields are null
    stdin = None if program is None else run_cli(capsys, "compile", program)[1]
    code, out, _ = run_cli(capsys, argv[0], "--json", *argv[1:], stdin=stdin)
    assert code == 0
    assert out == want + "\n"
