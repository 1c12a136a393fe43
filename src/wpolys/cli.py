"""Command-line front end: statement verification over parameter grids with
JSON-lines reports, polynomial evaluation, the w triangle, and a self-test."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

from .congruence import STATEMENTS, GridError, GridSpec, grid_verify
from .intcomb import w_number
from .polyring import QLaurent, XPoly
from .qobjects import cyclotomic, q_binomial, q_integer, qint_factorization_check
from .wpoly import b_poly, q_w_poly, q_w_poly_alt, schroder_poly, w_alpha_poly

_RANGE_FLAGS = ("n", "alpha", "beta", "m", "r", "d", "a", "b")


@dataclass(frozen=True)
class CliConfig:
    command: str
    statement: str | None = None
    ranges: tuple = ()
    workers: int = 0
    output: str | None = None
    format: str = "jsonl"
    inject_fault: bool = False
    count: int = 500
    seed: int = 0
    timing: bool = False
    eval_target: str | None = None
    eval_params: dict = field(default_factory=dict)
    nmax: int = 10


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
                        help="worker threads; 0 means available parallelism")
    verify.add_argument("--output", default=None, help="report file path")
    verify.add_argument("--format", choices=("jsonl", "text"),
                        default="jsonl")
    verify.add_argument("--inject-fault", action="store_true",
                        help="corrupt each summand by +1 (witness testing)")
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


def emit_report(verdicts, sink):
    """JSON-lines: one object per verdict, then a summary object."""
    passed = sum(1 for v in verdicts if v.passed)
    for v in verdicts:
        sink.write(json.dumps(v.to_json()) + "\n")
    sink.write(json.dumps({"summary": {
        "total": len(verdicts), "passed": passed,
        "failed": len(verdicts) - passed}}) + "\n")


def _emit_text(verdicts, sink):
    passed = 0
    for v in verdicts:
        line = ("PASS" if v.passed else "FAIL") + " " + v.statement
        line += "".join(f" {k}={val}" for k, val in v.params.items())
        if not v.passed:
            line += f"  witness: {v.witness}"
        sink.write(line + "\n")
        passed += v.passed
    sink.write(f"total={len(verdicts)} passed={passed} "
               f"failed={len(verdicts) - passed}\n")


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


def run(config):
    if config.command == "verify":
        spec = GridSpec(statement=config.statement, ranges=config.ranges,
                        workers=config.workers,
                        inject_fault=config.inject_fault, count=config.count,
                        seed=config.seed, timing=config.timing)
        try:
            verdicts = grid_verify(spec)
        except GridError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        emit = emit_report if config.format == "jsonl" else _emit_text
        try:
            if config.output:
                with open(config.output, "w", encoding="utf-8") as sink:
                    emit(verdicts, sink)
            else:
                emit(verdicts, sys.stdout)
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return 3
        return 0 if all(v.passed for v in verdicts) else 1

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
    sys.exit(main())
