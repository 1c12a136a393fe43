"""Builds the theorem sums, decides the divisibility and integrality claims,
and sweeps statements over parameter grids with deterministic reporting."""

from __future__ import annotations

import math
import os
import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import cache

from .intcomb import lcm_range, rising_factorial, w_identity_suite
from .polyring import DivisionWitness, QLaurent, QPoly, XPoly
from .qobjects import cyclotomic, lemma31_check, q_binomial, q_lucas_check
from .verdicts import Verdict
from .wpoly import lemma_congruence_check, q_w_poly, w_alpha_poly


class GridError(ValueError):
    """Malformed grid request: unknown statement, bad range, bad name."""


def _qint_qpoly(n):
    # [n] for n >= 0 as a QPoly; the modulus form of the q-integer.
    return QPoly([1] * n)


@cache
def _w_power(k, alpha, m):
    if m == 1:
        return q_w_poly(k, alpha)
    half = _w_power(k, alpha, m // 2)
    out = half * half
    if m & 1:
        out = out * q_w_poly(k, alpha)
    return out


@cache
def _w_power_q2(k, alpha, m):
    return _w_power(k, alpha, m).subst_q_squared()


@cache
def _w_run(k, alpha, m, count):
    # product of w_j^alpha to the m over j = k .. k+count-1
    if count == 1:
        return _w_power(k, alpha, m)
    return _w_run(k, alpha, m, count - 1) * _w_power(k + count - 1, alpha, m)


@cache
def _wx_power(k, alpha, m):
    return w_alpha_poly(k, alpha) ** m


@cache
def _wx_run(k, alpha, m, count):
    if count == 1:
        return _wx_power(k, alpha, m)
    return _wx_run(k, alpha, m, count - 1) * _wx_power(k + count - 1, alpha, m)


def _check_positive(**kwargs):
    for name, value in kwargs.items():
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")


def qsum_plain(n, alpha, m, r):
    """Sum over k = 0..n-1 of [k(k+1)]^r [2k+1] q^((n-1-k)(alpha*m+1))
    times the m-th power of the q-analogue w-polynomial."""
    _check_positive(n=n, alpha=alpha, m=m, r=r)
    return QLaurent.sum(    # k = 0 drops out: [0] = 0
        _w_power(k, alpha, m)
        .mul_qint_power(k * (k + 1), r)
        .mul_qint_power(2 * k + 1)
        .shift_q((n - 1 - k) * (alpha * m + 1))
        for k in range(1, n))


def qsum_alternating(n, alpha, m, r):
    """Alternating variant: (-1)^k, the k(k+1) weight taken at q^2, the
    w-polynomial at q^2, and shift exponent (n-1-k)(2*alpha*m+1)."""
    _check_positive(n=n, alpha=alpha, m=m, r=r)

    def term(k):
        value = (_w_power_q2(k, alpha, m)
                 .mul_qint_power(k * (k + 1), r, stride=2)
                 .mul_qint_power(2 * k + 1)
                 .shift_q((n - 1 - k) * (2 * alpha * m + 1)))
        return -value if k & 1 else value

    return QLaurent.sum(map(term, range(1, n)))


def qsum_product(n, alpha, m, r):
    """Neighbour-product variant: weights [k(k+2)]^r [2(k+1)], summand
    (w_k w_{k+1})^m, shift exponent (n-2-k)(2*alpha*m+1)."""
    _check_positive(n=n, alpha=alpha, m=m, r=r)
    return QLaurent.sum(    # k = 0 drops out: [k(k+2)] = 0
        _w_run(k, alpha, m, 2)
        .mul_qint_power(k * (k + 2), r)
        .mul_qint_power(2 * (k + 1))
        .shift_q((n - 2 - k) * (2 * alpha * m + 1))
        for k in range(1, n))


def qsum_general(n, alpha, beta, m, r):
    """Window variant: rising-factorial weights [(k)_b (k+b+1)_b]^r [2(k+b)],
    summand the product of 2*beta consecutive w powers, shift exponent
    (n-2*beta-k)(2*beta*alpha*m+1)."""
    _check_positive(n=n, alpha=alpha, beta=beta, m=m, r=r)
    return QLaurent.sum(    # k = 0 drops out: (0)_beta = 0
        _w_run(k, alpha, m, 2 * beta)
        .mul_qint_power(rising_factorial(k, beta)
                        * rising_factorial(k + beta + 1, beta), r)
        .mul_qint_power(2 * (k + beta))
        .shift_q((n - 2 * beta - k) * (2 * beta * alpha * m + 1))
        for k in range(1, n))


def verify_divisible_by_qn(value, n, statement="mod-qn", params=None):
    """Pass iff the remainder of value mod [n] is zero."""
    if n < 2:
        raise ValueError("modulus [n] needs n >= 2")
    rem = value.rem_monic_cyclic(_qint_qpoly(n), n)
    ok = rem.is_zero()
    return Verdict(statement, dict(params or {"n": n}), ok,
                   None if ok else str(rem))


def verify_cyclotomic_product(value, n, statement="cyclotomic-product",
                              params=None):
    """Factor-wise divisibility: cyclotomic(d) for odd divisors d > 1 of n,
    cyclotomic(2d) (the q^2 image of cyclotomic(d)) for even divisors."""
    if n < 2:
        raise ValueError("cyclotomic product needs n >= 2")
    witness = None
    for d in _cyclotomic_product_factors(n):
        rem = value.rem_monic_cyclic(cyclotomic(d), d)
        if not rem.is_zero():
            witness = f"d={d}: {rem}"
            break
    return Verdict(statement, dict(params or {"n": n}), witness is None,
                   witness)


def _cyclotomic_product_factors(n):
    # Divisor d of n contributes Phi_d(q) when odd, Phi_d(q^2) = Phi_2d(q)
    # when even.
    from .intcomb import divisors
    out = []
    for d in divisors(n):
        if d > 1:
            out.append(d if d % 2 else 2 * d)
    return out


_TWO_X_PLUS_ONE = XPoly((1, 2))


def _triple(n):
    return n * (n + 1) * (n + 2)


def _plain_sum(n, alpha, m, r, sign):
    # sum over k = 1..n of sign^k [k(k+1)]^r (2k+1) w_k^(alpha, m)
    return sum((_wx_power(k, alpha, m)
                * (sign ** k * (k * (k + 1)) ** r * (2 * k + 1))
                for k in range(1, n + 1)), XPoly())


def _window_sum(n, alpha, beta, m, r):
    # sum over k = 1..n of [(k)_beta (k+beta+1)_beta]^r (k+beta) times the
    # product of 2*beta consecutive w powers
    return sum((_wx_run(k, alpha, m, 2 * beta)
                * (rising_factorial(k, beta) ** r
                   * rising_factorial(k + beta + 1, beta) ** r * (k + beta))
                for k in range(1, n + 1)), XPoly())


def _by_triple(acc, p):
    # gcd(2,n) times the sum, divided by n(n+1)(n+2)
    return (acc * math.gcd(2, p["n"])).divexact(_triple(p["n"]))


def _by_two_x_plus_one(acc, power, n):
    # divide by (2x+1)^power, then 2*gcd(2,n) times that by n(n+1)(n+2)
    quot = acc.divexact(_TWO_X_PLUS_ONE ** power)
    if isinstance(quot, DivisionWitness):
        return quot
    return (quot * (2 * math.gcd(2, n))).divexact(_triple(n))


# integer-side statement -> (its XPoly sum, the exact division that decides
# it); both take the cell's parameters
_DIVISIONS = {
    "thm-int-plain": (lambda p: _plain_sum(sign=1, **p), _by_triple),
    "thm-int-alternating": (lambda p: _plain_sum(sign=-1, **p), _by_triple),
    "thm-int-lcm": (
        lambda p: _window_sum(**p),
        lambda acc, p: (acc * 2).divexact(
            lcm_range(p["n"], p["n"] + 2 * p["beta"] + 1))),
    "conj-52-even": (
        lambda p: _plain_sum(r=1, sign=-1, **p),
        lambda acc, p: acc.divexact(_triple(p["n"]))),
    # conj-54 sums the neighbour products k(k+1)(k+2) (w_k w_(k+1))^m
    "conj-54-ii": (
        lambda p: _window_sum(alpha=1, beta=1, r=1, **p),
        lambda acc, p: _by_two_x_plus_one(acc, p["m"], p["n"])),
    "conj-54-iii": (
        lambda p: _window_sum(alpha=1, beta=1, m=1, r=1, **p),
        lambda acc, p: _by_two_x_plus_one(acc, 3, p["n"])),
}


def _divide(statement, params, fault):
    """Exact quotient of an integer-side statement's sum, or the obstruction
    witness; fault adds one to the sum first."""
    build, divide = _DIVISIONS[statement]
    acc = build(params)
    if fault:
        acc = acc + 1
    return divide(acc, params)


def _division_verdict(statement, params, fault=False):
    quot = _divide(statement, params, fault)
    failed = isinstance(quot, DivisionWitness)
    status = "conjecture-empirical" if statement.startswith("conj-") else None
    return Verdict(statement, params, not failed,
                   str(quot) if failed else None, status=status)


_INT_PLAIN_IDS = {"plus": "thm-int-plain",
                  "alternating": "thm-int-alternating"}


def _int_plain_instance(n, alpha, m, r, sign):
    _check_positive(n=n, alpha=alpha, m=m, r=r)
    if sign not in _INT_PLAIN_IDS:
        raise ValueError(f"sign must be plus or alternating, got {sign!r}")
    return _INT_PLAIN_IDS[sign], {"n": n, "alpha": alpha, "m": m, "r": r}


def int_sum_plain_quotient(n, alpha, m, r, sign="plus"):
    """The integer-side quotient polynomial, or the obstruction witness.

    Builds gcd(2,n) times the weighted sum of w powers at q = 1 and divides
    by n(n+1)(n+2) exactly.
    """
    return _divide(*_int_plain_instance(n, alpha, m, r, sign), False)


def int_sum_plain(n, alpha, m, r, sign="plus"):
    return _division_verdict(*_int_plain_instance(n, alpha, m, r, sign))


def _int_lcm_instance(n, alpha, beta, m, r):
    _check_positive(n=n, alpha=alpha, beta=beta, m=m, r=r)
    return "thm-int-lcm", {"n": n, "alpha": alpha, "beta": beta, "m": m,
                           "r": r}


def int_sum_lcm_quotient(n, alpha, beta, m, r):
    """Quotient of twice the windowed sum by lcm(n..n+2*beta+1), or the
    obstruction witness."""
    return _divide(*_int_lcm_instance(n, alpha, beta, m, r), False)


def int_sum_lcm(n, alpha, beta, m, r):
    return _division_verdict(*_int_lcm_instance(n, alpha, beta, m, r))


def _conjecture_instance(variant, n, alpha, m):
    _check_positive(n=n, m=m)
    if variant == "c52_eq14_even_n":
        if alpha <= 1:
            raise ValueError("this variant is stated for alpha > 1")
        if n % 2:
            raise ValueError("this variant is stated for even n")
        return "conj-52-even", {"n": n, "alpha": alpha, "m": m}
    if variant == "c54_ii":
        if alpha != 1:
            raise ValueError("this variant is stated for alpha = 1")
        return "conj-54-ii", {"n": n, "m": m}
    if variant == "c54_iii":
        if alpha != 1 or m != 1:
            raise ValueError("this variant fixes alpha = m = 1")
        if n % 2:
            raise ValueError("this variant is stated for even n")
        return "conj-54-iii", {"n": n}
    raise ValueError(f"unknown conjecture variant {variant!r}")


def conjecture_quotient(variant, n, alpha=1, m=1):
    """Quotient polynomial for a conjecture instance, or the obstruction."""
    return _divide(*_conjecture_instance(variant, n, alpha, m), False)


def conjecture_checks(variant, n, alpha=1, m=1):
    """Empirical check of one conjecture instance; the Verdict is tagged
    with status conjecture-empirical to keep it apart from proved facts."""
    return _division_verdict(*_conjecture_instance(variant, n, alpha, m))


@dataclass(frozen=True)
class GridSpec:
    """A statement id plus inclusive parameter ranges to sweep.

    ranges is an ordered tuple of (name, lo, hi); missing names take the
    statement's defaults.  count and seed only matter for the sampled
    q-Lucas statement.  inject_fault adds one to the assembled value (test
    hook for witness soundness); only divisibility statements support it.
    """

    statement: str
    ranges: tuple = ()
    workers: int = 0
    inject_fault: bool = False
    count: int = 500
    seed: int = 0
    timing: bool = False


def _qsum_runner(statement, build, decide):
    """Cell runner of a q-sum statement: build the value, add the fault
    (+1) if asked, and decide its divisibility."""
    def run(p, fault):
        value = build(p)
        if fault:
            value = value + QLaurent.one()
        return [decide(value, p["n"], statement, p)]
    return run


def _division_runner(statement):
    return lambda p, fault: [_division_verdict(statement, p, fault)]


def _run_lemma23(p, fault):
    return lemma_congruence_check(p["a"], p["b"], p["d"], p["alpha"])


def _run_lemma31(p, fault):
    ok = lemma31_check(p["d"])
    witness = None
    if not ok:
        doubled = cyclotomic(p["d"]).subst_q_squared()
        witness = f"q^2 image of cyclotomic({p['d']}) is {doubled}"
    return [Verdict("lemma-31", p, ok, witness)]


def _run_qlucas(p, fault):
    ok = q_lucas_check(p["d"], p["a"], p["b"], p["s"], p["t"])
    witness = None
    if not ok:
        diff = (q_binomial(p["a"] * p["d"] + p["b"], p["s"] * p["d"] + p["t"])
                - math.comb(p["a"], p["s"]) * q_binomial(p["b"], p["t"]))
        witness = str(diff.rem_monic_cyclic(cyclotomic(p["d"]), p["d"]))
    return [Verdict("lemma-qlucas", p, ok, witness)]


def _run_identity_suite(p, fault):
    reports = w_identity_suite(p["n"], p["m"], p["b"])
    bad = [r for r in reports if not r.holds]
    ok = not bad
    witness = None if ok else "; ".join(
        f"{r.identity}: lhs={r.lhs} rhs={r.rhs}" for r in bad)
    return [Verdict("identity-suite", p, ok, witness)]


@dataclass(frozen=True)
class _Statement:
    # params: (name, minimum, default (lo, hi) or None when required)
    params: tuple
    runner: object
    fault_ok: bool = True
    cell_filter: object = None
    sampled: bool = False


def _lemma23_valid(p):
    b, d = p["b"], p["d"]
    return (1 <= b <= d - 2) or (d > 3 and 0 <= b <= d - 3)


_QSUM_PARAMS = (("n", 2, None), ("alpha", 1, (1, 1)), ("m", 1, (1, 1)),
                ("r", 1, (1, 1)))
_INT_PARAMS = (("n", 1, None), ("alpha", 1, (1, 1)), ("m", 1, (1, 1)),
               ("r", 1, (1, 1)))

# The q-sum runners look up qsum_* and verify_* in this module's globals when
# a cell runs, not when the table is built, so that rebinding those names
# (as perfbench/layertrace.py does) reaches every cell.
STATEMENTS = {
    "thm-qsum-plain": _Statement(_QSUM_PARAMS, _qsum_runner(
        "thm-qsum-plain", lambda p: qsum_plain(**p),
        lambda *args: verify_divisible_by_qn(*args))),
    "thm-qsum-alternating": _Statement(_QSUM_PARAMS, _qsum_runner(
        "thm-qsum-alternating", lambda p: qsum_alternating(**p),
        lambda *args: verify_cyclotomic_product(*args))),
    "thm-qsum-product": _Statement(_QSUM_PARAMS, _qsum_runner(
        "thm-qsum-product", lambda p: qsum_product(**p),
        lambda *args: verify_divisible_by_qn(*args))),
    "thm-qsum-general": _Statement(
        (("n", 2, None), ("alpha", 1, (1, 1)), ("beta", 1, (1, 1)),
         ("m", 1, (1, 1)), ("r", 1, (1, 1))),
        _qsum_runner("thm-qsum-general", lambda p: qsum_general(**p),
                     lambda *args: verify_divisible_by_qn(*args))),
    "thm-int-plain": _Statement(_INT_PARAMS,
                                _division_runner("thm-int-plain")),
    "thm-int-alternating": _Statement(
        _INT_PARAMS, _division_runner("thm-int-alternating")),
    "thm-int-lcm": _Statement(
        (("n", 1, None), ("alpha", 1, (1, 1)), ("beta", 1, (1, 1)),
         ("m", 1, (1, 1)), ("r", 1, (1, 1))),
        _division_runner("thm-int-lcm")),
    "lemma-23": _Statement(
        (("a", 0, (0, 3)), ("b", 0, (0, 8)), ("d", 3, (3, 10)),
         ("alpha", 1, (1, 2))),
        _run_lemma23, fault_ok=False, cell_filter=_lemma23_valid),
    "lemma-31": _Statement((("d", 2, (2, 30)),), _run_lemma31,
                           fault_ok=False),
    "lemma-qlucas": _Statement(
        (("d", 2, (2, 12)), ("a", 0, (0, 4))),
        _run_qlucas, fault_ok=False, sampled=True),
    "identity-suite": _Statement(
        (("n", 1, None), ("m", 1, (1, 1)), ("b", 0, (0, 12))),
        _run_identity_suite, fault_ok=False,
        cell_filter=lambda p: p["m"] <= p["n"]),
    "conj-52-even": _Statement(
        (("n", 1, None), ("alpha", 2, (2, 2)), ("m", 1, (1, 1))),
        _division_runner("conj-52-even"),
        cell_filter=lambda p: p["n"] % 2 == 0),
    "conj-54-ii": _Statement(
        (("n", 1, None), ("m", 1, (1, 1))),
        _division_runner("conj-54-ii")),
    "conj-54-iii": _Statement(
        (("n", 1, None),),
        _division_runner("conj-54-iii"),
        cell_filter=lambda p: p["n"] % 2 == 0),
}


def _resolve_ranges(spec, schema):
    given = {}
    for name, lo, hi in spec.ranges:
        if name in given:
            raise GridError(f"range for {name!r} given twice")
        given[name] = (lo, hi)
    known = {entry[0] for entry in schema.params}
    for name in given:
        if name not in known:
            raise GridError(
                f"statement {spec.statement!r} takes no parameter {name!r}")
    resolved = []
    for name, minimum, default in schema.params:
        if name in given:
            lo, hi = given[name]
        elif default is not None:
            lo, hi = default
        else:
            raise GridError(
                f"statement {spec.statement!r} requires a range for {name!r}")
        if lo > hi:
            raise GridError(f"empty range {lo}..{hi} for {name!r}")
        if lo < minimum:
            raise GridError(
                f"{name!r} must be >= {minimum} for {spec.statement!r}")
        resolved.append((name, lo, hi))
    return resolved


def _enumerate_cells(spec, schema):
    if schema.sampled:
        bounds = dict((name, (lo, hi))
                      for name, lo, hi in _resolve_ranges(spec, schema))
        rng = random.Random(spec.seed)
        cells = []
        for _ in range(spec.count):
            d = rng.randint(*bounds["d"])
            a = rng.randint(*bounds["a"])
            cells.append({
                "d": d,
                "a": a,
                "b": rng.randint(0, d - 1),
                "s": rng.randint(0, a + 1),
                "t": rng.randint(0, d - 1),
            })
        return cells
    resolved = _resolve_ranges(spec, schema)
    cells = [{}]
    for name, lo, hi in resolved:
        cells = [dict(c, **{name: v}) for c in cells for v in range(lo, hi + 1)]
    if schema.cell_filter is not None:
        cells = [c for c in cells if schema.cell_filter(c)]
    return cells


def grid_verify(spec):
    """Run one statement over its parameter grid.

    Cells are enumerated lexicographically in schema order and results keep
    that order whatever the worker count, so reports are reproducible.
    """
    schema = STATEMENTS.get(spec.statement)
    if schema is None:
        catalog = ", ".join(sorted(STATEMENTS))
        raise GridError(
            f"unknown statement {spec.statement!r}; catalog: {catalog}")
    if spec.inject_fault and not schema.fault_ok:
        raise GridError(
            f"statement {spec.statement!r} does not support fault injection")
    if spec.count < 0:
        raise GridError("count must be nonnegative")
    if spec.workers < 0:
        raise GridError("workers must be nonnegative")
    cells = _enumerate_cells(spec, schema)

    def run_cell(params):
        if spec.timing:
            t0 = time.perf_counter_ns()
            verdicts = schema.runner(params, spec.inject_fault)
            elapsed = (time.perf_counter_ns() - t0) // 1_000_000
            return [replace(v, elapsed_ms=elapsed) for v in verdicts]
        return schema.runner(params, spec.inject_fault)

    workers = spec.workers if spec.workers > 0 else (os.cpu_count() or 1)
    if workers == 1 or len(cells) <= 1:
        chunks = [run_cell(c) for c in cells]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(run_cell, cells))
    return [v for chunk in chunks for v in chunk]
