import dataclasses
import io
import itertools
import json
import os
import select
import signal
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest

from wpolys import cli
from wpolys.cli import emit_report, main, parse_cli, run
from wpolys.congruence import STATEMENTS, GridSpec, grid_stream, grid_verify
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
    # each config that takes the default gets a dict of its own
    bare = [parse_cli(argv) for argv in (["table"], ["selftest"])]
    assert bare[0].eval_params == bare[1].eval_params == {}
    assert bare[0].eval_params is not bare[1].eval_params


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


def test_unwritable_output_exits_three_before_any_cell(monkeypatch):
    import dataclasses

    from wpolys import congruence

    def runner(params, fault):
        raise AssertionError("the grid ran before the report was opened")

    entry = congruence.STATEMENTS["thm-qsum-plain"]
    monkeypatch.setitem(congruence.STATEMENTS, "thm-qsum-plain",
                        dataclasses.replace(entry, runner=runner))
    with tempfile.TemporaryDirectory() as tmp:
        bad = os.path.join(tmp, "missing", "report.jsonl")
        err = io.StringIO()
        with redirect_stderr(err):
            code = main(["verify", "thm-qsum-plain", "--n", "2..4",
                         "--workers", "1", "--output", bad])
    assert code == 3
    assert "cannot write report" in err.getvalue()


def _parse_report_line(line, fmt):
    # one verdict line of either format, as (passed, params)
    if fmt == "jsonl":
        obj = json.loads(line)
        return obj["pass"], obj["params"]
    head, _, witness = line.partition("  witness: ")
    verdict, statement, *fields = head.split()
    assert verdict in ("PASS", "FAIL") and statement == "thm-qsum-plain"
    assert (verdict == "FAIL") == bool(witness)
    return verdict == "PASS", {k: int(v) for k, v in
                               (f.split("=") for f in fields)}


def _install_runner(monkeypatch, runner):
    import dataclasses

    from wpolys import congruence

    entry = congruence.STATEMENTS["thm-qsum-plain"]
    monkeypatch.setitem(congruence.STATEMENTS, "thm-qsum-plain",
                        dataclasses.replace(entry, runner=runner))


def _report_lines(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


@pytest.mark.parametrize("fmt", ["jsonl", "text"])
def test_verify_writes_each_verdict_before_the_next_cell(monkeypatch, fmt):
    # the first verdict is written at once; a later one waits only while it
    # arrives less than 1 ms after the last write
    for pause, want in ((0.0, [0, 1]), (0.002, [0, 1, 2])):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "report")
            seen = []

            def runner(params, fault):
                seen.append(_report_lines(path))
                time.sleep(pause)
                return [Verdict("thm-qsum-plain", params, True)]

            _install_runner(monkeypatch, runner)
            code = main(["verify", "thm-qsum-plain", "--n", "2..4",
                         "--format", fmt, "--output", path])
            assert code == 0
            # the file on disk, read from inside the next cell's runner
            assert [len(lines) for lines in seen][:len(want)] == want
            assert _parse_report_line(seen[1][0], fmt) == (
                True, {"n": 2, "alpha": 1, "m": 1, "r": 1})
            assert len(_report_lines(path)) == 4


class _RecordingSink:
    def __init__(self):
        self.events = []

    def write(self, text):
        self.events.append(text)

    def flush(self):
        self.events.append(None)


@pytest.mark.parametrize("fmt", ["jsonl", "text"])
def test_report_is_written_in_whole_line_batches(fmt):
    witnesses = ["Φ₆ = 1 - q + q², é \U0001d4e0 " * (i % 40 + 1)
                 for i in range(400)]
    witnesses[150] = "Φ" * select.PIPE_BUF      # one line longer than a batch
    verdicts = [Verdict("lemma-23", {"a": 0, "b": i, "d": 7}, False, witness)
                for i, witness in enumerate(witnesses)]
    sink = _RecordingSink()
    assert not emit_report(iter(verdicts), sink, fmt)
    # one flush after each write but the summary's
    *writes, summary = sink.events[::2]
    assert sink.events[1::2] == [None] * len(writes)
    assert 10 < len(writes) < len(verdicts)
    for text in writes:
        assert text.endswith("\n")
        assert (len(text.encode()) <= select.PIPE_BUF
                or text.count("\n") == 1), len(text.encode())
    line = cli._text_line if fmt == "text" else (
        lambda v: json.dumps(v.to_json()))
    lines = [line(v) + "\n" for v in verdicts]
    assert writes[0] == lines[0]
    assert "".join(writes) == "".join(lines)
    assert summary == ("total=400 passed=0 failed=400\n" if fmt == "text"
                       else '{"summary": {"total": 400, "passed": 0, '
                            '"failed": 400}}\n')


@pytest.mark.parametrize("fmt", ["jsonl", "text"])
def test_verify_crash_leaves_a_valid_report_prefix(monkeypatch, fmt):
    class Crash(Exception):
        pass

    def runner(params, fault):
        if params["n"] == 4:
            raise Crash
        return [Verdict("thm-qsum-plain", params, params["n"] == 2,
                        None if params["n"] == 2 else "(1)")]

    _install_runner(monkeypatch, runner)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "report")
        with pytest.raises(Crash):
            main(["verify", "thm-qsum-plain", "--n", "2..6",
                  "--format", fmt, "--output", path])
        lines = _report_lines(path)
    assert [_parse_report_line(line, fmt) for line in lines] == [
        (True, {"n": 2, "alpha": 1, "m": 1, "r": 1}),
        (False, {"n": 3, "alpha": 1, "m": 1, "r": 1})]
    assert not any("summary" in line or "total=" in line for line in lines)


@pytest.mark.parametrize("fmt", ["jsonl", "text"])
def test_verify_bad_grid_writes_no_verdict(monkeypatch, fmt):
    def runner(params, fault):
        raise AssertionError("a cell ran for a rejected grid")

    _install_runner(monkeypatch, runner)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "report")
        for bad in (["--n", "5..2"], ["--n", "2..4", "--workers", "-1"],
                    ["--n", "2..4", "--beta", "1"]):
            with redirect_stderr(io.StringIO()):
                code = main(["verify", "thm-qsum-plain", *bad,
                             "--format", fmt, "--output", path])
            assert code == 2
            assert _report_lines(path) == []


def test_report_line_encoder_matches_json_dumps():
    verdicts = []
    for statement, ranges in cli._SELFTEST_GRIDS:
        spec = GridSpec(statement, ranges, count=40, timing=True)
        verdicts += grid_verify(spec)
        if STATEMENTS[statement].fault_ok:
            verdicts += grid_verify(dataclasses.replace(spec,
                                                        inject_fault=True))
    assert {v.statement for v in verdicts} == set(STATEMENTS)
    assert any(v.status for v in verdicts)
    assert any(not v.passed for v in verdicts)
    texts = ('say "q" \\ or "\\n"', "q ∈ ℤ[q], Φ₆ = 1 - q + q², é \U0001d4e0",
             "tab\t, newline\n, NUL\x00, DEL\x7f", "")
    for text in texts:
        verdicts += [Verdict("lemma-23", {"a": 0, "b": -3, "d": 10 ** 30},
                             bool(not text), text or None, 12, text or None),
                     Verdict(text, {}, True, text, 7, text)]
    # params that are not all ints take json.dumps itself
    for params in ({"n": True}, {"n": 1.5}, {"n": "2"}, {"n": None},
                   {"n": [1]}, {1: 2}, {"n": 1, "m": float("nan")}):
        verdicts.append(Verdict("thm-int-plain", params, False, "(1)"))
    verdicts.append(Verdict("thm-int-plain", {"n": 1}, 1, None))
    for v in verdicts:
        assert cli._json_line(v) == json.dumps(v.to_json()), v


def test_report_line_head_keeps_percent_signs():
    # the cached line head is a %-template of the param values
    for v in 2 * [Verdict("50% plain", {"n%": 3, "%d": -4}, True),
                  Verdict("%s%%", {}, False, "(1)")]:
        assert cli._json_line(v) == json.dumps(v.to_json())


def test_timed_report_lines_are_the_json_encoding():
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["verify", "thm-qsum-plain", "--n", "2..6",
                     "--r", "1..2", "--inject-fault", "--timing"]) == 1
    lines = out.getvalue().splitlines()
    assert len(lines) == 11
    assert all("elapsed_ms" in line for line in lines[:-1])
    for line in lines:
        assert line == json.dumps(json.loads(line))


def test_killed_verify_child_leaves_a_valid_report_prefix():
    import wpolys
    src = os.path.dirname(os.path.dirname(os.path.abspath(wpolys.__file__)))
    child = subprocess.Popen(
        [sys.executable, "-m", "wpolys.cli", "verify", "lemma-qlucas",
         "--count", "200000"],
        stdout=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src))
    try:
        head = [child.stdout.readline() for _ in range(1000)]
    finally:
        child.send_signal(signal.SIGKILL)
        rest = child.stdout.read()
        child.stdout.close()
        child.wait(timeout=60)
    assert child.returncode == -signal.SIGKILL
    data = b"".join(head) + rest
    lines = data.split(b"\n")[:-1]      # complete lines only
    assert len(lines) >= 1000
    cells = grid_stream(GridSpec("lemma-qlucas", count=200000))
    want = [json.dumps(v.to_json()).encode()
            for v in itertools.islice(cells, len(lines))]
    cells.close()
    assert lines == want
    assert all(json.loads(line)["statement"] == "lemma-qlucas"
               and b"summary" not in line for line in lines)


@pytest.mark.parametrize("argv", [
    ["verify", "thm-int-plain", "--n", "1..5"],
    ["verify", "thm-qsum-plain", "--n", "2..5", "--format", "text"],
    ["verify", "thm-qsum-plain", "--n", "2..4", "--inject-fault"],
    ["verify", "thm-int-plain", "--n", "3..1"],
    ["verify", "thm-int-plain", "--n", "1..3", "--output",
     "{tmp}/missing/report"],
    ["verify", "thm-qsum-alternating", "--n", "2..4", "--inject-fault",
     "--output", "{tmp}/report"],
    ["verify", "no-such-statement"],
    ["eval", "qw", "--k", "3", "--alpha", "2"],
    ["table", "--nmax", "7"],
], ids=["jsonl", "text", "fault", "bad-grid", "unwritable", "output-file",
        "usage", "eval", "table"])
def test_command_exit_path_matches_in_process_main(argv, tmp_path):
    # python -m wpolys.cli ends in a flush and os._exit: its stdout bytes
    # through a pipe, its stderr, its exit code and its --output file must
    # be what main() gives in process
    import wpolys
    src = os.path.dirname(os.path.dirname(os.path.abspath(wpolys.__file__)))
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    report = tmp_path / "report"

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    written = report.read_bytes() if report.exists() else None
    report.unlink(missing_ok=True)

    # block-buffered stdout, whose unflushed bytes os._exit would drop
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    flags = ["-O"] if sys.flags.optimize else []
    done = subprocess.run(
        [sys.executable, *flags, "-m", "wpolys.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=120,
        env=dict(env, PYTHONPATH=src))
    assert done.returncode == code
    assert done.stdout == out.getvalue().encode()
    assert done.stderr.decode() == err.getvalue()
    assert (report.read_bytes() if report.exists() else None) == written
    assert (written is not None) == ("--output" in argv and code != 3)
    assert done.stdout or err.getvalue() or written
