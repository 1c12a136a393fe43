"""The benchmark's workloads and the gate that checks their reports.

Each workload is a short list of ``wpolys verify`` commands.  Every command
carries its expected outcome: the verdict count, whether every verdict
passes or fails, the exit code that follows from that, and the SHA-256 of
the report bytes where the report is fixed.  The digests were taken from the
seed commit of this benchmark; only the ``lemma-qlucas`` sample depends on
the workload seed, and its digest is pinned for the default seed alone.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Command:
    """One ``wpolys verify`` invocation and the report it must produce."""

    args: tuple          # arguments after ``wpolys verify``
    verdicts: int        # verdict lines expected before the summary
    passed: bool         # expected outcome of every verdict
    sha256: str | None   # digest of the report bytes, None where not pinned

    @property
    def statement(self):
        return self.args[0]

    @property
    def exit_code(self):
        return 0 if self.passed else 1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: object     # seed -> tuple of Command


_QSUM_WINDOW = Command(
    ("thm-qsum-general", "--n", "2..8", "--beta", "2", "--m", "1..2",
     "--workers", "1"),
    14, True,
    "69b94c6acf0131a1bb353c186d0821f028a18ee1a632dd8856eec6737650a6f9")

_QSUM_WEIGHTS = Command(
    ("thm-qsum-alternating", "--n", "2..16", "--alpha", "1..3", "--m", "1",
     "--r", "1..3", "--workers", "1"),
    135, True,
    "023364cd6ca88a4c89561ecb26d3f277c9473b1726e4693df9bb2e4192ad37aa")

_LEMMA_23 = Command(
    ("lemma-23", "--a", "0..2", "--b", "0..8", "--d", "3..10",
     "--alpha", "1..2", "--workers", "1"),
    852, True,
    "28229905903025c5be89b7da0caa9ae0832ef7f2141d2b2974320db30fd98f34")

# Large enough that the sample's cost varies by about 5% between seeds
# (about 25% at 2000 cells).
_QLUCAS_COUNT = 6000
_QLUCAS_SHA256 = {
    DEFAULT_SEED:
    "b5aad1672e6e07c1e2c9d87612befd70577761d8a70f4ed788088f9f6e364e90"}


def _qlucas(seed):
    return Command(
        ("lemma-qlucas", "--count", str(_QLUCAS_COUNT), "--seed", str(seed),
         "--workers", "1"),
        _QLUCAS_COUNT, True, _QLUCAS_SHA256.get(seed))


_FAULTS = (
    Command(
        ("thm-qsum-plain", "--n", "2..16", "--alpha", "1..2", "--m", "1..2",
         "--r", "1..2", "--inject-fault", "--workers", "2"),
        120, False,
        "c8a732d0436bcceff1869026e958877115aa1f983b44a4741f3ad169ae68e050"),
    Command(
        ("thm-int-plain", "--n", "1..60", "--alpha", "1..3", "--m", "1..3",
         "--r", "1..3", "--inject-fault", "--workers", "2"),
        1620, False,
        "de2c2f69508e91f85f9c0316da247ee11d5bb62fde89671023eaa3b882a34792"),
    Command(
        ("thm-int-lcm", "--n", "1..24", "--beta", "1..2", "--alpha", "1..2",
         "--m", "1..2", "--r", "1..2", "--inject-fault", "--workers", "2"),
        384, False,
        "2ed96da2edca1a915b51d924215f0f734c1baa6c7aea5514675b392fecdc0aab"),
)

WORKLOADS = {w.name: w for w in (
    Workload(
        "qsum-window",
        "beta=2 window sums: few huge QLaurent products dominate, the "
        "mechanism of the folded ring and of bivariate Kronecker multiply",
        lambda seed: (_QSUM_WINDOW,)),
    Workload(
        "qsum-weights",
        "m=1 alternating sums: stride-2 q-integer windows and the cyclic fold "
        "dominate, with almost no w-power products",
        lambda seed: (_QSUM_WEIGHTS,)),
    Workload(
        "lemma-blocks",
        "thousands of small cells: Gaussian-binomial exact division, small "
        "multiplies and small remainders; carries the seed",
        lambda seed: (_LEMMA_23, _qlucas(seed))),
    Workload(
        "faults-pooled",
        "injected faults at --workers 2: witness formatting, the thread pool "
        "and the integer side (XPoly, intcomb)",
        lambda seed: _FAULTS),
)}


@dataclass
class GateResult:
    expected: int        # verdicts this command should have produced
    failed: int          # verdicts missing, malformed or wrongly decided
    problems: list       # human-readable reasons, empty when failed == 0


def check_report(command, report, exit_code):
    """Compare one command's report bytes and exit code with its expectation.

    A wrong exit code or a pinned digest that does not match fails every
    verdict of the command; otherwise each missing, malformed or wrongly
    decided verdict line counts once.
    """
    expected = command.verdicts
    if exit_code != command.exit_code:
        return GateResult(expected, expected,
                          [f"exit code {exit_code}, want {command.exit_code}"])
    if command.sha256 is not None:
        digest = hashlib.sha256(report).hexdigest()
        if digest != command.sha256:
            return GateResult(
                expected, expected,
                [f"report sha256 {digest}, want {command.sha256}"])
    lines = report.split(b"\n")
    if lines[-1] != b"":
        return GateResult(expected, expected,
                          ["report does not end in a newline"])
    lines = lines[:-1]
    want_summary = {"total": expected,
                    "passed": expected if command.passed else 0,
                    "failed": 0 if command.passed else expected}
    try:
        summary = json.loads(lines[-1]) if lines else None
    except ValueError:
        summary = None
    if summary != {"summary": want_summary}:
        last = lines[-1] if lines else b""
        return GateResult(expected, expected,
                          [f"summary line {last!r}, want {want_summary}"])
    verdict_lines = lines[:-1]
    problems = []
    failed = abs(expected - len(verdict_lines))
    if failed:
        problems.append(f"{len(verdict_lines)} verdict lines, want {expected}")
    for number, line in enumerate(verdict_lines[:expected], 1):
        reason = _verdict_problem(command, line)
        if reason:
            failed += 1
            problems.append(f"line {number}: {reason}")
    return GateResult(expected, min(failed, expected), problems)


def _verdict_problem(command, line):
    try:
        verdict = json.loads(line)
    except ValueError:
        return "not JSON"
    if not isinstance(verdict, dict):
        return "not an object"
    if verdict.get("statement") != command.statement:
        return f"statement {verdict.get('statement')!r}"
    if not isinstance(verdict.get("params"), dict):
        return "params missing"
    if verdict.get("pass") is not command.passed:
        return f"pass is {verdict.get('pass')!r}, want {command.passed}"
    witness = verdict.get("witness")
    if command.passed and witness is not None:
        return "witness on a passing verdict"
    if not command.passed and not (isinstance(witness, str) and witness):
        return "failing verdict without a witness"
    return None
