import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

from wpolys.cli import emit_report, main, parse_cli, run
from wpolys.polyring import QLaurent, XPoly
from wpolys.verdicts import Verdict


def test_parse_verify_ranges():
    config = parse_cli(["verify", "thm-qsum-plain", "--n", "2..10",
                        "--alpha", "1..2", "--m", "1..2", "--r", "1..2"])
    assert config.command == "verify"
    assert config.statement == "thm-qsum-plain"
    assert {name: (lo, hi) for name, lo, hi in config.ranges} == {
        "n": (2, 10), "alpha": (1, 2), "m": (1, 2), "r": (1, 2)}
    assert config.format == "jsonl" and config.workers == 0


def test_parse_single_value_range():
    config = parse_cli(["verify", "thm-int-plain", "--n", "3"])
    assert config.ranges == (("n", 3, 3),)


def test_parse_eval_config():
    config = parse_cli(["eval", "w", "--n", "3", "--alpha", "1"])
    assert config.command == "eval"
    assert config.eval_target == "w"
    assert config.eval_params == {"n": 3, "alpha": 1}


def test_parse_rejects_malformed():
    for argv in (["verify", "nonexistent"],
                 ["verify", "thm-qsum-plain", "--n", "2..x"],
                 ["verify", "thm-qsum-plain", "--n", "2...4"],
                 ["eval", "nosuchtarget", "--n", "1"],
                 ["nosuchcommand"]):
        try:
            with redirect_stderr(io.StringIO()):
                parse_cli(argv)
            assert False, f"{argv} should exit with a usage error"
        except SystemExit as exc:
            assert exc.code == 2


def test_unknown_statement_lists_catalog():
    err = io.StringIO()
    try:
        with redirect_stderr(err):
            parse_cli(["verify", "nonexistent"])
        assert False
    except SystemExit:
        pass
    text = err.getvalue()
    assert "thm-qsum-plain" in text and "conj-54-iii" in text


def test_eval_prints_canonical_text():
    cases = [
        (["eval", "w", "--n", "3", "--alpha", "1"], "1 + 5*x + 5*x^2"),
        (["eval", "cyclotomic", "--d", "6"], "1 - q + q^2"),
        (["eval", "qint", "--n", "-2"], "q^-2*(-1) + q^-1*(-1)"),
        (["eval", "qw", "--k", "2", "--alpha", "1"],
         "q^2*(x) + q^3*(1) + q^4*(x)"),
        (["eval", "qbinom", "--n", "4", "--k", "2"],
         "(1) + q^1*(1) + q^2*(2) + q^3*(1) + q^4*(1)"),
    ]
    for argv, want in cases:
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(argv)
        assert code == 0
        assert out.getvalue().rstrip("\n") == want


def test_eval_output_parses_back():
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["eval", "w", "--n", "6"]) == 0
    assert XPoly.parse(out.getvalue().strip()) == XPoly(
        (1, 20, 120, 300, 330, 132))
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["eval", "qw", "--k", "3", "--alpha", "2"]) == 0
    from wpolys.wpoly import q_w_poly
    assert QLaurent.parse(out.getvalue().strip()) == q_w_poly(3, 2)


def test_eval_missing_argument():
    with redirect_stderr(io.StringIO()):
        assert main(["eval", "w"]) == 2
        assert main(["eval", "bpoly", "--a", "0"]) == 2


def test_verify_jsonl_stream():
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["verify", "thm-int-plain", "--n", "1..5"])
    assert code == 0
    lines = out.getvalue().splitlines()
    assert len(lines) == 6
    for line in lines[:-1]:
        obj = json.loads(line)
        assert obj["statement"] == "thm-int-plain"
        assert obj["pass"] is True and obj["witness"] is None
        assert set(obj) == {"statement", "params", "pass", "witness",
                            "elapsed_ms"}
    summary = json.loads(lines[-1])
    assert summary == {"summary": {"total": 5, "passed": 5, "failed": 0}}


def test_verify_fault_exit_one():
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["verify", "thm-qsum-plain", "--n", "2..3",
                     "--inject-fault"])
    assert code == 1
    lines = out.getvalue().splitlines()
    summary = json.loads(lines[-1])
    assert summary["summary"]["failed"] == 2
    for line in lines[:-1]:
        obj = json.loads(line)
        assert obj["pass"] is False and obj["witness"]


def test_verify_bad_grid_exit_two():
    with redirect_stderr(io.StringIO()):
        assert main(["verify", "conj-54-iii", "--r", "1..2"]) == 2
        assert main(["verify", "thm-qsum-plain", "--n", "5..2"]) == 2
        assert main(["verify", "thm-qsum-plain"]) == 2


def test_verify_output_file_and_worker_determinism():
    with tempfile.TemporaryDirectory() as tmp:
        one = os.path.join(tmp, "w1.jsonl")
        four = os.path.join(tmp, "w4.jsonl")
        argv = ["verify", "thm-int-plain", "--n", "1..6", "--alpha", "1..2"]
        assert main(argv + ["--workers", "1", "--output", one]) == 0
        assert main(argv + ["--workers", "4", "--output", four]) == 0
        with open(one, "rb") as fh:
            first = fh.read()
        with open(four, "rb") as fh:
            second = fh.read()
        assert first == second and first


def test_verify_unwritable_output_exit_three():
    with tempfile.TemporaryDirectory() as tmp:
        bad = os.path.join(tmp, "missing", "report.jsonl")
        with redirect_stderr(io.StringIO()):
            code = main(["verify", "thm-int-plain", "--n", "1..2",
                         "--output", bad])
        assert code == 3


def test_verify_text_format():
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["verify", "lemma-31", "--d", "2..6", "--format", "text"])
    assert code == 0
    lines = out.getvalue().splitlines()
    assert lines[0] == "PASS lemma-31 d=2"
    assert lines[-1] == "total=5 passed=5 failed=0"


def test_table_output():
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["table", "--nmax", "4"]) == 0
    lines = out.getvalue().splitlines()
    assert lines[2] == "n= 3: 1 5 5"
    assert lines[3] == "n= 4: 1 9 21 14"


def test_selftest_passes():
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["selftest"]) == 0
    text = out.getvalue()
    assert "FAIL" not in text
    assert "ok thm-qsum-plain" in text and "ok conj-54-iii" in text


def test_emit_report_empty_and_failing():
    sink = io.StringIO()
    emit_report([], sink)
    assert json.loads(sink.getvalue()) == {"summary": {
        "total": 0, "passed": 0, "failed": 0}}
    sink = io.StringIO()
    emit_report([Verdict("mod-qn", {"n": 2}, False, "(1)")], sink)
    lines = sink.getvalue().splitlines()
    assert json.loads(lines[0])["witness"] == "(1)"
    assert json.loads(lines[1])["summary"]["failed"] == 1


def test_verify_negative_workers_exit_two():
    err = io.StringIO()
    with redirect_stderr(err):
        assert main(["verify", "thm-int-plain", "--n", "1..3",
                     "--workers", "-3"]) == 2
    assert "workers must be nonnegative" in err.getvalue()


def test_selftest_names_a_broken_invariant_with_and_without_optimize():
    # the structural checks must not be asserts that python -O strips
    import subprocess
    import sys

    import wpolys
    src = os.path.dirname(os.path.dirname(os.path.abspath(wpolys.__file__)))
    code = ("import sys, wpolys.cli as cli\n"
            "from wpolys.polyring import XPoly\n"
            "cli.schroder_poly = lambda n: XPoly()\n"
            "sys.exit(cli.main(['selftest']))\n")
    for flags in ([], ["-O"]):
        done = subprocess.run(
            [sys.executable, *flags, "-c", code], capture_output=True,
            text=True, timeout=120, env=dict(os.environ, PYTHONPATH=src))
        assert done.returncode == 1, (flags, done.stdout, done.stderr)
        assert ("FAIL structural: schroder_poly(1) == w_alpha_poly(1, 1)\n"
                in done.stdout), (flags, done.stdout)
        assert "ok thm-qsum-plain" in done.stdout
