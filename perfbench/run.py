"""Benchmark of the wpolys verifier as its command-line users meet it.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the repository root.  With ``--trace 0`` the benchmark repeats the
workload's ``python -m wpolys.cli verify ...`` commands, each in a fresh
interpreter so that the memo caches start cold, for about S seconds.  It
reads each report from the pipe as it arrives, takes rusage from
``os.wait4``, checks every report against the workload's expected outcomes,
and prints the end-to-end metrics as medians over the repetitions.  Before
and after each command it times a fixed reference loop in its own process.
The ``*_ref`` metrics are each repetition's times in units of the mean of
its reference times, which cancels most of the host's drift in speed; the
raw seconds are printed beside them.  With ``--trace 1`` it runs the
commands twice untraced and twice under ``layertrace.py`` and prints the
per-layer metrics instead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every report passed the correctness gate; it is 2 when the checkout holds
no ``src/wpolys`` to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import select
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import layertrace
from workloads import DEFAULT_SEED, WORKLOADS, check_report

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
ENV = dict(os.environ, PYTHONPATH=str(SRC))
RUN_LIMIT_S = 170        # every run ends well inside three minutes
SETUP_PER_REP = 2

# (name, unit) of every end-to-end metric, in report order
END_TO_END = (
    ("setup_s", "s"),
    ("grid_ref", "ref"),
    ("first_verdict_ref", "ref"),
    ("verdict_p50_ref", "ref"),
    ("cpu_ref", "ref"),
    ("peak_rss_mb", "MB"),
)
# printed beside them, but not part of the result line
RAW = (
    ("grid_s", "s"),
    ("first_verdict_s", "s"),
    ("verdict_p50_s", "s"),
    ("cpu_s", "s"),
    ("ref_s", "s"),
)

_SETUP_PROBE = ("import time, wpolys, wpolys.cli; "
                "print(time.monotonic_ns(), wpolys.__file__)")
_REF_SMALL_INT = 3 ** 40000          # 63 kbit
_REF_LARGE_INT = 3 ** 400000         # 634 kbit
_REF_KEYS = [random.Random(1).getrandbits(40) for _ in range(200000)]


def reference_s():
    """Seconds that a fixed reference loop takes now, in this process.

    The loop does not touch wpolys.  It mixes what the workloads spend their
    time on: big-integer products of two sizes, as in the ring's Kronecker
    multiply; a small-integer convolution, as in its list arithmetic; and
    dictionary updates over a small and a large key set, as in its memo
    tables.  The host's speed drifts by up to a factor of two, both within
    seconds and over minutes.  Dividing a repetition's times by the mean of
    this loop's times before and after each of its commands cancels most of
    that drift, but not a change in the program.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(40):
        acc ^= ((_REF_SMALL_INT + i) * (_REF_SMALL_INT - i)) & 0xFFFF
    for i in range(2):
        acc ^= ((_REF_LARGE_INT + i) * (_REF_LARGE_INT - i)) & 0xFFFF
    coeffs = list(range(1, 161))
    for _ in range(30):
        out = [0] * (2 * len(coeffs) - 1)
        for i, x in enumerate(coeffs):
            for j, y in enumerate(coeffs):
                out[i + j] += x * y
        acc ^= out[len(coeffs)] & 0xFFFF
    small = {}
    for i in range(150000):
        small[i & 511] = small.get(i & 511, 0) + i
    large = {key: key * 3 for key in _REF_KEYS}
    for key in _REF_KEYS:
        acc ^= large[key] & 0xFFFF
    return time.perf_counter() - start


@dataclass
class CommandRun:
    report: bytes
    exit_code: int
    wall_s: float        # spawn to exit
    cpu_s: float         # user + system
    rss_mb: float        # ru_maxrss
    verdict_s: list      # arrival of each verdict line, from spawn


def spawn(argv, deadline):
    """Run one child, reading its stdout as it arrives; kill it at deadline."""
    with tempfile.TemporaryFile(dir=OUT) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                env=ENV, cwd=ROOT)
        chunks, arrivals = [], []
        fd = proc.stdout.fileno()
        while True:
            left = max(0.0, deadline - time.monotonic())
            if not select.select([fd], [], [], left)[0]:
                proc.kill()
                break
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            now = time.perf_counter() - start
            chunks.append(chunk)
            arrivals.extend([now] * chunk.count(b"\n"))
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        if code not in (0, 1):
            err.seek(0)
            sys.stderr.write(err.read()[-4000:].decode(errors="replace"))
    report = b"".join(chunks)
    verdict_s = [t for line, t in zip(report.split(b"\n"), arrivals)
                 if not line.startswith(b'{"summary"')]
    return CommandRun(report, code, wall, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024, verdict_s)


@dataclass
class Rep:
    runs: list           # CommandRun per command
    gates: list          # GateResult per command
    ref_s: float         # mean time of the reference loops around the runs

    def metrics(self):
        grid = sum(run.wall_s for run in self.runs)
        first = grid
        before = 0.0
        for run in self.runs:
            if run.verdict_s:
                first = before + run.verdict_s[0]
                break
            before += run.wall_s
        arrivals = [t for run in self.runs for t in run.verdict_s]
        values = {"peak_rss_mb": max(run.rss_mb for run in self.runs),
                  "ref_s": self.ref_s}
        for name, seconds in (
                ("grid", grid),
                ("first_verdict", first),
                ("verdict_p50",
                 statistics.median(arrivals) if arrivals else first),
                ("cpu", sum(run.cpu_s for run in self.runs))):
            values[f"{name}_s"] = seconds
            values[f"{name}_ref"] = seconds / self.ref_s
        return values


def run_rep(commands, argv_for, deadline):
    """Run the commands once, timing the reference loop before each and
    after the last."""
    refs = [reference_s()]
    runs = []
    for i, command in enumerate(commands):
        runs.append(spawn(argv_for(i, command), deadline))
        refs.append(reference_s())
    gates = [check_report(command, run.report, run.exit_code)
             for command, run in zip(commands, runs)]
    return Rep(runs, gates, statistics.mean(refs))


def cli_argv(i, command):
    return [sys.executable, "-m", "wpolys.cli", "verify", *command.args]


def setup_times(count, deadline):
    """Seconds from spawning an interpreter until ``import wpolys.cli``
    returns, one sample per start."""
    times = []
    for _ in range(count):
        start = time.monotonic_ns()
        done = subprocess.run([sys.executable, "-c", _SETUP_PROBE], env=ENV,
                              cwd=ROOT, capture_output=True, check=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        stamp, path = done.stdout.decode().split(maxsplit=1)
        if not Path(path.strip()).resolve().is_relative_to(SRC.resolve()):
            raise RuntimeError(f"wpolys imported from {path.strip()}")
        times.append((int(stamp) - start) / 1e9)
    return times


def timed(commands, seconds, deadline):
    setup_times(1, deadline)            # writes the bytecode cache; not timed
    reference_s()                       # first call allocates; not used
    setup, reps = [], []
    begin = time.monotonic()
    while True:
        # set-up samples are spread over the run, like the repetitions
        setup += setup_times(SETUP_PER_REP, deadline)
        reps.append(run_rep(commands, cli_argv, deadline))
        elapsed = time.monotonic() - begin
        if elapsed * (len(reps) + 1) / len(reps) > seconds:
            break
        if time.monotonic() + elapsed / len(reps) > deadline:
            break
    per_rep = [rep.metrics() for rep in reps]
    values = {"setup_s": statistics.median(setup)}
    for name in per_rep[0]:
        values[name] = statistics.median(m[name] for m in per_rep)
    notes = {"setup_s": f"median of {len(setup)} interpreter starts"}
    notes.update((name, f"median of {len(reps)} repetitions")
                 for name in per_rep[0])
    for name in ("verdict_p50_s", "verdict_p50_ref"):
        notes[name] += (
            f", {sum(len(r.verdict_s) for r in reps[0].runs)} verdicts each")
    notes["ref_s"] += " of the per-repetition means"
    return reps, values, notes, END_TO_END, RAW


def traced(workload, commands, seed, deadline):
    """Untraced, traced, traced, untraced: a steady drift in machine speed
    cancels out of the overhead ratio.  Layers come from the last traced
    pass."""
    outs = [OUT / f"trace-{workload}-{seed}-{i}.json"
            for i in range(len(commands))]

    def trace_argv(i, command):
        return [sys.executable, str(HERE / "layertrace.py"), str(outs[i]),
                "verify", *command.args]

    first = run_rep(commands, cli_argv, deadline)
    under = []
    for _ in range(2):
        for out in outs:
            out.unlink(missing_ok=True)
        under.append(run_rep(commands, trace_argv, deadline))
    last = run_rep(commands, cli_argv, deadline)
    for rep in under:
        for a, b, gate in zip(first.runs, rep.runs, rep.gates):
            if a.report != b.report:
                gate.failed = gate.expected
                gate.problems.append("traced report differs from untraced")
    totals = []
    for out, gate in zip(outs, under[-1].gates):
        if out.is_file():
            with open(out, encoding="utf-8") as f:
                totals.append(json.load(f))
        else:
            gate.failed = gate.expected
            gate.problems.append(f"tracer wrote no {out.name}")
    traced_s = sum(rep.metrics()["grid_ref"] for rep in under)
    plain_s = sum(rep.metrics()["grid_ref"] for rep in (first, last))
    values = layertrace.layer_metrics(
        layertrace.merge(totals),
        report_bytes=sum(len(run.report) for run in under[-1].runs),
        overhead_ratio=traced_s / plain_s)
    notes = {"trace.overhead_ratio":
             f"traced {traced_s:.3f} ref / untraced {plain_s:.3f} ref, "
             "2 passes each"}
    return ([first, *under, last], values, notes,
            [(name, unit) for name, unit, _ in layertrace.METRICS], ())


def machine(seed):
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu": cpu,
        "seed": seed,
        "commit": _commit(),
        "src_lines": sum(len(p.read_bytes().splitlines())
                         for p in sorted(SRC.rglob("*.py"))),
    }


def _commit():
    # The benchmark may run from a plain export with no .git directory.
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (git / head[5:]).read_text().strip()
    except OSError:
        return None
    return head


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (SRC / "wpolys" / "cli.py").is_file():
        print(f"error: no wpolys sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    commands = WORKLOADS[args.workload].commands(args.seed)
    if args.trace:
        reps, values, notes, metrics, raw = traced(
            args.workload, commands, args.seed, deadline)
    else:
        reps, values, notes, metrics, raw = timed(commands, args.seconds,
                                                  deadline)

    attempted = sum(g.expected for rep in reps for g in rep.gates)
    failed = sum(g.failed for rep in reps for g in rep.gates)
    for rep in reps:
        for command, gate in zip(commands, rep.gates):
            for problem in gate.problems[:5]:
                print(f"gate: {' '.join(command.args)}: {problem}",
                      file=sys.stderr)
    print(f"# workload {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'timed'}, {len(reps)} repetitions")
    print(f"# machine {json.dumps(machine(args.seed))}")
    for name, unit in (*metrics, *raw):
        note = notes.get(name, "")
        print(f"{name:34} {values[name]:>14.6g} {unit:6} {note}".rstrip())
    print(f"{'error_rate':34} {failed / attempted:>14.6g} {'ratio':6} "
          f"{failed} of {attempted} verdicts")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in metrics},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
