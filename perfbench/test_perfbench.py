"""Tests of the benchmark itself: the correctness gate, the tracer's clean-up,
the reach of the workload seed, the reference-time units and the metric
lists in BENCHMARK.json.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import layertrace
import run
from workloads import WORKLOADS, Command, check_report

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

# wpolys.cli imports every module the tracer wraps
import wpolys.cli  # noqa: E402,F401
from wpolys import congruence, polyring  # noqa: E402


def _cli(*args):
    done = subprocess.run(
        [sys.executable, "-m", "wpolys.cli", "verify", *args],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
        timeout=120)
    return done.stdout, done.returncode


def _command(args, report, passed, pinned):
    digest = hashlib.sha256(report).hexdigest() if pinned else None
    return Command(args, report.count(b"\n") - 1, passed, digest)


PASSING = ("thm-qsum-plain", "--n", "2..5", "--workers", "1")
FAILING = ("thm-qsum-plain", "--n", "2..5", "--inject-fault", "--workers", "1")


def test_gate_accepts_the_real_reports():
    for args, passed in ((PASSING, True), (FAILING, False)):
        report, code = _cli(*args)
        assert code == (0 if passed else 1)
        for pinned in (True, False):
            gate = check_report(_command(args, report, passed, pinned),
                                report, code)
            assert (gate.expected, gate.failed, gate.problems) == (4, 0, [])


def test_gate_flags_flipped_pass_dropped_line_and_exit_code():
    report, code = _cli(*PASSING)
    lines = report.split(b"\n")
    flipped = report.replace(b'"pass": true', b'"pass": false', 1)
    dropped = b"\n".join(lines[:1] + lines[2:])
    for pinned in (True, False):
        command = _command(PASSING, report, True, pinned)
        assert check_report(command, flipped, code).failed >= 1
        assert check_report(command, dropped, code).failed >= 1
        assert check_report(command, report, 1).failed == command.verdicts
        if pinned:
            assert check_report(command, flipped, code).failed == 4


def test_gate_flags_a_fail_without_witness():
    report, code = _cli(*FAILING)
    first = report.split(b"\n")[0]
    witness = json.loads(first)["witness"]
    stripped = report.replace(json.dumps(witness).encode(), b"null", 1)
    command = _command(FAILING, report, False, pinned=False)
    gate = check_report(command, stripped, code)
    assert gate.failed == 1 and "witness" in gate.problems[0]


def _snapshot():
    # every attribute of every wpolys module and ring class, plus the table
    owners = [m for name, m in sys.modules.items()
              if name == "wpolys" or name.startswith("wpolys.")]
    owners += [polyring.QLaurent, polyring.QPoly, polyring.XPoly]
    out = {(id(owner), attr): value for owner in owners
           for attr, value in vars(owner).items()}
    out.update((("STATEMENTS", sid), entry)
               for sid, entry in congruence.STATEMENTS.items())
    return out


def test_tracer_leaves_no_wrapper_behind():
    before = _snapshot()
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        during = _snapshot()
        congruence.grid_verify(congruence.GridSpec(
            "thm-qsum-plain", (("n", 2, 5),), workers=2, inject_fault=True))
        congruence.grid_verify(congruence.GridSpec(
            "lemma-23",
            (("a", 0, 0), ("b", 0, 2), ("d", 4, 5), ("alpha", 1, 1)),
            workers=1))
    finally:
        tracer.restore()
    after = _snapshot()
    assert before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())
    assert any(during[key] is not value for key, value in before.items())

    totals = tracer.totals()
    layers = totals["layers"]
    assert layers["congruence.cell"]["calls"] == 4 + 6
    assert layers["congruence.build"]["calls"] == 4
    assert layers["polyring.ql_str"]["calls"] == 4
    assert layers["wpoly.lemma_check"]["calls"] == 6
    # self times partition the cells' wall time, tracer cost excluded
    cell_wall = sum(wall for wall, _ in totals["cells"])
    self_total = sum(entry["self_ns"] for entry in layers.values())
    assert 0 < self_total <= cell_wall
    assert all(entry["self_ns"] >= 0 for entry in layers.values())


def test_seed_changes_only_the_qlucas_sample():
    for workload in WORKLOADS.values():
        assert workload.commands(3) == workload.commands(3)
        for a, b in zip(workload.commands(0), workload.commands(7)):
            if a.statement != "lemma-qlucas":
                assert a == b
                continue
            changed = [a.args[i - 1] for i in range(len(a.args))
                       if a.args[i] != b.args[i]]
            assert changed == ["--seed"]
    sample = {}
    for seed in ("0", "7"):
        report, code = _cli("lemma-qlucas", "--count", "20", "--seed", seed)
        assert code == 0
        sample[seed] = [json.loads(line)["params"]
                        for line in report.splitlines()[:-1]]
    assert sample["0"] != sample["7"]


def test_ref_metrics_are_seconds_over_the_reference_time():
    runs = [
        run.CommandRun(b"", 0, wall_s=3.0, cpu_s=2.0, rss_mb=10.0,
                       verdict_s=[2.0, 2.0, 2.5]),
        run.CommandRun(b"", 0, wall_s=1.0, cpu_s=1.0, rss_mb=30.0,
                       verdict_s=[0.25, 0.5]),
    ]
    values = run.Rep(runs, gates=[], ref_s=0.5).metrics()
    expected = {"grid": 4.0, "first_verdict": 2.0, "verdict_p50": 2.0,
                "cpu": 3.0}
    for name, seconds in expected.items():
        assert values[f"{name}_s"] == seconds
        assert values[f"{name}_ref"] == seconds / 0.5
    assert values["peak_rss_mb"] == 30.0
    assert values["ref_s"] == 0.5


def test_benchmark_json_names_every_metric_and_workload():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == layertrace.METRICS


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "qsum-window",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60)
    assert done.returncode != 0
    assert b"correct" not in done.stdout
