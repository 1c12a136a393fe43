"""Command-line front end: statement verification over parameter grids with
JSON-lines reports, polynomial evaluation, the w triangle, and a self-test."""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import sys
import time
from collections import namedtuple
from functools import lru_cache

from .congruence import (STATEMENTS, GridError, GridSpec, grid_stream,
                         grid_verify)
from .intcomb import w_number
from .polyring import QLaurent, XPoly
from .qobjects import cyclotomic, q_binomial, q_integer, qint_factorization_check
from .wpoly import b_poly, q_w_poly, q_w_poly_alt, schroder_poly, w_alpha_poly

_RANGE_FLAGS = ("n", "alpha", "beta", "m", "r", "d", "a", "b")


class CliConfig(namedtuple("CliConfig", "command statement ranges workers "
                           "output format inject_fault count seed timing "
                           "eval_target eval_params nmax")):
    # the count field hides tuple.count, which nothing here calls
    __slots__ = ()

    def __new__(cls, command, statement=None, ranges=(), workers=0,
                output=None, format="jsonl", inject_fault=False, count=500,
                seed=0, timing=False, eval_target=None, eval_params=None,
                nmax=10):
        # eval_params defaults to a fresh dict, not one shared by every
        # config
        return tuple.__new__(cls, (
            command, statement, ranges, workers, output, format,
            inject_fault, count, seed, timing, eval_target,
            {} if eval_params is None else eval_params, nmax))


def _range_type(text):
    parts = text.split("..", 1) if ".." in text else [text, text]
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad range {text!r}, want lo..hi")
    return lo, hi


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="wpolys",
        description="Exact verification of q-congruence and integrality "
                    "statements for the w(n,k) polynomial family.")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="sweep one statement over a grid")
    verify.add_argument("statement")
    for name in _RANGE_FLAGS:
        verify.add_argument(f"--{name}", type=_range_type, default=None,
                            metavar="LO..HI")
    verify.add_argument("--workers", type=int, default=0,
                        help="kept for existing command lines; grids run in "
                             "one thread, so it has no effect")
    verify.add_argument("--output", default=None, help="report file path")
    verify.add_argument("--format", choices=("jsonl", "text"),
                        default="jsonl")
    verify.add_argument("--inject-fault", action="store_true",
                        help="add 1 to each assembled value (witness "
                             "testing)")
    verify.add_argument("--count", type=int, default=500,
                        help="sample size for the sampled statement")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--timing", action="store_true",
                        help="record real per-cell elapsed_ms in reports")

    ev = sub.add_parser("eval", help="print one polynomial in canonical text")
    ev.add_argument("target", choices=("w", "schroder", "qw", "qw-alt",
                                       "qbinom", "qint", "cyclotomic",
                                       "bpoly"))
    for name in ("n", "k", "d", "a", "b", "alpha"):
        ev.add_argument(f"--{name}", type=int, default=None)

    table = sub.add_parser("table", help="print the w(n,k) triangle")
    table.add_argument("--nmax", type=int, default=10)

    sub.add_parser("selftest", help="run the built-in invariant suites")
    return parser


def parse_cli(argv):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify":
        if args.statement not in STATEMENTS:
            parser.error(f"unknown statement {args.statement!r}; catalog: "
                         + ", ".join(sorted(STATEMENTS)))
        ranges = tuple((name, *getattr(args, name))
                       for name in _RANGE_FLAGS
                       if getattr(args, name) is not None)
        return CliConfig(command="verify", statement=args.statement,
                         ranges=ranges, workers=args.workers,
                         output=args.output, format=args.format,
                         inject_fault=args.inject_fault, count=args.count,
                         seed=args.seed, timing=args.timing)
    if args.command == "eval":
        params = {name: getattr(args, name)
                  for name in ("n", "k", "d", "a", "b", "alpha")
                  if getattr(args, name) is not None}
        return CliConfig(command="eval", eval_target=args.target,
                         eval_params=params)
    if args.command == "table":
        return CliConfig(command="table", nmax=args.nmax)
    return CliConfig(command="selftest")


def _text_line(v):
    line = ("PASS" if v.passed else "FAIL") + " " + v.statement
    line += "".join(f" {k}={val}" for k, val in v.params.items())
    return line if v.passed else f"{line}  witness: {v.witness}"


_encode = json.encoder.encode_basestring_ascii

# emit_report's batch gap: a verdict that arrives this long or longer after
# the last write goes out at once, with the lines held back before it
_BATCH_GAP_S = 0.001


@lru_cache(maxsize=None)
def _json_head(statement, names):
    # a report line's text up to its params' close, as a %-template of the
    # params' int values
    params = ", ".join(_encode(k).replace("%", "%%") + ": %d" for k in names)
    return (f'{{"statement": {_encode(statement).replace("%", "%%")}, '
            f'"params": {{{params}}}, ')


def _json_line(v):
    """json.dumps(v.to_json()), written out directly when the params are all
    ints (every statement's cells), else by json.dumps itself."""
    if (type(v.passed) is bool and type(v.elapsed_ms) is int
            and {*map(type, v.params.values())} <= {int}):
        try:
            head = _json_head(v.statement, tuple(v.params))
            witness = "null" if v.witness is None else _encode(v.witness)
            status = ("" if v.status is None
                      else f', "status": {_encode(v.status)}')
            return (f'{head % tuple(v.params.values())}'
                    f'"pass": {"true" if v.passed else "false"}, '
                    f'"witness": {witness}, '
                    f'"elapsed_ms": {v.elapsed_ms}{status}}}')
        except TypeError:       # a key or a text field that is not a str
            pass
    return json.dumps(v.to_json())


def emit_report(verdicts, sink, fmt="jsonl"):
    """Write a line per verdict in format fmt, then the summary; return
    whether all passed.

    Verdict lines go out in whole-line batches, one write and one flush
    each: the first verdict at once; after that, a batch whenever a verdict
    arrives 1 ms (_BATCH_GAP_S) or more after the last write, before a line
    that would take the batch past select.PIPE_BUF encoded bytes (so that a
    batch is one atomic write to a pipe, unless one line is longer), and
    when the verdicts end or raise.  A verdict decided less than 1 ms after
    the last write therefore waits for the next verdict or for the end of
    the run.  A run that stops early leaves a valid prefix of its report:
    whole verdict lines, without the summary.
    """
    text = fmt == "text"
    line = _text_line if text else _json_line
    clock = time.perf_counter
    total = passed = size = 0
    batch = []
    last = -math.inf

    def write():
        nonlocal size, last
        sink.write("".join(batch))
        sink.flush()
        batch.clear()
        size = 0
        last = clock()

    try:
        for v in verdicts:
            now = clock()
            out = line(v) + "\n"
            nbytes = len(out) if out.isascii() else len(out.encode())
            if size + nbytes > select.PIPE_BUF and batch:
                write()
            batch.append(out)
            size += nbytes
            if now - last >= _BATCH_GAP_S:
                write()
            total += 1
            passed += v.passed
    finally:
        if batch:
            write()
    counts = {"total": total, "passed": passed, "failed": total - passed}
    sink.write((" ".join(f"{k}={n}" for k, n in counts.items()) if text
                else json.dumps({"summary": counts})) + "\n")
    return passed == total


def _eval_value(target, params):
    def need(*names):
        missing = [x for x in names if x not in params]
        if missing:
            raise ValueError(f"eval {target} needs --" + " --".join(missing))
        return [params[x] for x in names]

    alpha = params.get("alpha", 1)
    if target == "w":
        return w_alpha_poly(*need("n"), alpha)
    if target == "schroder":
        return schroder_poly(*need("n"))
    if target == "qw":
        return q_w_poly(*need("k"), alpha)
    if target == "qw-alt":
        return q_w_poly_alt(*need("k"), alpha)
    if target == "qbinom":
        return q_binomial(*need("n", "k"))
    if target == "qint":
        return q_integer(*need("n"))
    if target == "cyclotomic":
        return cyclotomic(*need("d"))
    return b_poly(*need("a", "b", "d"), alpha)


def _verify(config, sink):
    spec = GridSpec(statement=config.statement, ranges=config.ranges,
                    workers=config.workers, inject_fault=config.inject_fault,
                    count=config.count, seed=config.seed, timing=config.timing)
    try:
        verdicts = grid_stream(spec)
    except GridError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if emit_report(verdicts, sink, config.format) else 1


def run(config):
    if config.command == "verify":
        # the report file is opened before the grid runs, so that a path
        # that cannot be written fails before any cell is computed
        try:
            if not config.output:
                return _verify(config, sys.stdout)
            with open(config.output, "w", encoding="utf-8") as sink:
                return _verify(config, sink)
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return 3

    if config.command == "eval":
        try:
            value = _eval_value(config.eval_target, config.eval_params)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(value)
        return 0

    if config.command == "table":
        if config.nmax < 1:
            print("error: --nmax must be >= 1", file=sys.stderr)
            return 2
        for n in range(1, config.nmax + 1):
            row = " ".join(str(w_number(n, k)) for k in range(1, n + 1))
            print(f"n={n:>2}: {row}")
        return 0

    return _selftest()


_SELFTEST_GRIDS = (
    ("thm-qsum-plain", (("n", 2, 6),)),
    ("thm-qsum-alternating", (("n", 2, 6),)),
    ("thm-qsum-product", (("n", 2, 6),)),
    ("thm-qsum-general", (("n", 2, 5), ("beta", 1, 2))),
    ("thm-int-plain", (("n", 1, 10), ("alpha", 1, 2), ("m", 1, 2),
                       ("r", 1, 2))),
    ("thm-int-alternating", (("n", 1, 10), ("alpha", 1, 2), ("m", 1, 2),
                             ("r", 1, 2))),
    ("thm-int-lcm", (("n", 1, 8), ("beta", 1, 2))),
    ("lemma-23", (("a", 0, 1), ("b", 0, 4), ("d", 3, 6))),
    ("lemma-31", (("d", 2, 16),)),
    ("lemma-qlucas", (("d", 2, 10),)),
    ("identity-suite", (("n", 1, 10), ("m", 1, 10), ("b", 0, 6))),
    ("conj-52-even", (("n", 1, 8),)),
    ("conj-54-ii", (("n", 1, 8),)),
    ("conj-54-iii", (("n", 1, 8),)),
)


def _selftest_structural():
    """Yield (invariant, holds) for each structural invariant."""
    for n in range(2, 41):
        yield (f"[{n}] is the product of its cyclotomic factors",
               qint_factorization_check(n))
    for n in range(1, 13):
        w = w_alpha_poly(n, 1)
        yield f"schroder_poly({n}) == w_alpha_poly({n}, 1)", \
            schroder_poly(n) == w
        yield f"w_alpha_poly({n}, 1) at x -> -1-x is (-1)^{n - 1} times it", \
            w.affine_subst(-1, -1) == w * (-1) ** (n - 1)
    for k in range(1, 11):
        for alpha in (1, 2):
            yield f"q_w_poly({k}, {alpha}) at q = 1 is w_alpha_poly", \
                q_w_poly(k, alpha).eval_q_one() == w_alpha_poly(k, alpha)
    for k in range(1, 9):
        yield f"q_w_poly_alt({k}, 2) == q_w_poly({k}, 2)", \
            q_w_poly_alt(k, 2) == q_w_poly(k, 2)
    for sample in (w_alpha_poly(7, 2), XPoly((3, 0, -2)), q_w_poly(5, 1),
                   q_integer(-3), q_binomial(-4, 3)):
        yield f"{type(sample).__name__}.parse round trip of {sample}", \
            type(sample).parse(str(sample)) == sample


def _selftest():
    failures = 0
    checks = 0
    for invariant, holds in _selftest_structural():
        if not holds:
            print(f"FAIL structural: {invariant}")
            failures += 1
            break
        checks += 1
    else:
        print(f"ok structural ({checks} checks)")
    for statement, ranges in _SELFTEST_GRIDS:
        spec = GridSpec(statement=statement, ranges=ranges, workers=1,
                        count=150)
        verdicts = grid_verify(spec)
        bad = [v for v in verdicts if not v.passed]
        if bad:
            print(f"FAIL {statement}: {len(bad)} of {len(verdicts)} cells; "
                  f"first witness: {bad[0].witness}")
            failures += 1
        else:
            print(f"ok {statement} ({len(verdicts)} cells)")
    return 1 if failures else 0


def main(argv=None):
    config = parse_cli(sys.argv[1:] if argv is None else argv)
    return run(config)


if __name__ == "__main__":
    # Flush, then end the process without interpreter finalisation, which
    # costs several ms and does nothing that a finished run needs: the
    # --output file is closed by run(), and wpolys registers no atexit
    # handler.  A flush that raises, SystemExit from argparse and any other
    # exception from main() take the normal exit.
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)
