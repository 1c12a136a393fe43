"""Builds the theorem sums, decides the divisibility and integrality claims,
and sweeps statements over parameter grids with deterministic reporting."""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, replace
from functools import cache
from itertools import chain, repeat
from operator import add, mod as modulo, mul, sub

from .intcomb import (divisors, lcm_range, rising_factorial, w_identity_suite,
                      w_number)
from .polyring import (DivisionWitness, QLaurent, QPoly, XPoly,
                       _divmod_monic_lists, _fold_cyclic, _indivisible,
                       _kronecker, _pack_columns, _packing_bits, _trim,
                       _window_slide_cyclic)
from .qobjects import (_GRID_MEMO, _q_lucas_remainder, cyclotomic,
                       lemma31_check, q_lucas_check)
from .verdicts import Verdict
from .wpoly import (_q_w_lowest_term, lemma_congruence_check, q_w_poly,
                    w_alpha_poly)


class GridError(ValueError):
    """Malformed grid request: unknown statement, bad range, bad name."""


def _qint_qpoly(n):
    # [n] for n >= 0 as a QPoly; the modulus form of the q-integer.
    return QPoly([1] * n)


def _fold(value, order):
    # the image in Z[x][q]/(q^order - 1); no order means the full value
    return value if order is None else value.fold(order)


def _split(count):
    # A run of count > 1 factors is the run of its first 2^i factors, 2^i the
    # largest power of two below count, times the run of the rest: a product
    # tree, balanced when count is a power of two, whose subtrees
    # neighbouring windows share.
    return 1 << (count - 1).bit_length() - 1


def _power_tree(power, m, order=None):
    # power(m) for m > 1 as power(h) * power(m - h), h = _split(m), both
    # cached by the caller: m = 3 reuses m = 2, m = 4 squares it
    h = _split(m)
    return _fold(power(h) * power(m - h), order)


@cache
def _w_power(k, alpha, m, order=None):
    """q_w_poly(k, alpha) to the m, folded mod q^order - 1 when an order is
    given.  Callers pass order positionally so that each value has one key."""
    if m > 1:
        return _power_tree(lambda e: _w_power(k, alpha, e, order), m, order)
    # the full value's memo key in q_w_poly has no order
    return q_w_poly(k, alpha) if order is None else q_w_poly(k, alpha, order)


@cache
def _w_power_q2(k, alpha, m, order=None):
    # q -> q^2 maps q^(order / gcd(2, order)) to a power of q^order, so the
    # folded image needs the power only modulo that smaller order
    if order is None:
        return _w_power(k, alpha, m, None).subst_q_squared()
    half = order // math.gcd(2, order)
    return _w_power(k, alpha, m, half).subst_q_squared().fold(order)


@cache
def _w_run(k, alpha, m, count, order=None):
    """The product of q_w_poly(j, alpha)^m over j = k .. k+count-1, folded
    when an order is given: a power tree over m > 1, else the product of
    the two cached runs that _split gives."""
    if count == 1:
        return _w_power(k, alpha, m, order)
    if m > 1:
        return _power_tree(lambda e: _w_run(k, alpha, e, count, order), m,
                           order)
    half = _split(count)
    return _fold(_w_run(k, alpha, 1, half, order)
                 * _w_run(k + half, alpha, 1, count - half, order), order)


@cache
def _run_lowest_term(k, alpha, m, count):
    """_w_run(k, alpha, m, count).lowest_term(), from the factors' lowest
    terms (see _Summand.lowest_term)."""
    if count == 1:
        e, c = _q_w_lowest_term(k, alpha)
        return m * e, c ** m
    if m > 1:
        e, c = _run_lowest_term(k, alpha, 1, count)
        return m * e, c ** m
    half = _split(count)
    e, c = _run_lowest_term(k, alpha, 1, half)
    f, d = _run_lowest_term(k + half, alpha, 1, count - half)
    return e + f, c * d


@cache
def _wx_power(k, alpha, m):
    if m > 1:
        return _power_tree(lambda e: _wx_power(k, alpha, e), m)
    return w_alpha_poly(k, alpha)


@cache
def _wx_run(k, alpha, m, count):
    # the q = 1 image of _w_run, built in the same shape
    if count == 1:
        return _wx_power(k, alpha, m)
    if m > 1:
        return _power_tree(lambda e: _wx_run(k, alpha, e, count), m)
    half = _split(count)
    return _wx_run(k, alpha, 1, half) * _wx_run(k + half, alpha, 1,
                                                count - half)


def _check_positive(**kwargs):
    for name, value in kwargs.items():
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")


@dataclass(frozen=True)
class _Summand:
    """One term of a q-sum: (-1 if negative) q^shift, times the q-integer
    weights, times the w-run.

    The w-run is the product of q_w_poly(j, alpha)^m over j = k ..
    k+count-1, taken at q^2 when doubled (only with count 1).  Each weight
    (M, r, stride) is the r-th power of [M] at q^stride.
    """

    k: int
    count: int
    alpha: int
    m: int
    weights: tuple
    shift: int
    doubled: bool = False
    negative: bool = False

    def base(self, order=None):
        """The w-run, folded mod q^order - 1 when an order is given."""
        if self.doubled:
            return _w_power_q2(self.k, self.alpha, self.m, order)
        return _w_run(self.k, self.alpha, self.m, self.count, order)

    def value(self):
        """The full summand; _packed_columns sums folded summands without
        building it."""
        value = self.base()
        for n, r, stride in self.weights:
            value = value.mul_qint_power(n, r, stride)
        value = value.shift_q(self.shift)
        return -value if self.negative else value

    def lowest_term(self):
        """(e, c) for the summand's lowest q-term c*q^e.

        Z[x] has no zero divisors, so the lowest term of a product is the
        product of the factors' lowest terms; a weight's is 1*q^0, q -> q^2
        doubles e, and the shift and the sign carry straight through.  Each
        w factor's lowest term comes from its bases' lowest terms, without
        the full w-polynomial.
        """
        e, c = _run_lowest_term(self.k, self.alpha, self.m, self.count)
        if self.doubled:
            e *= 2
        return e + self.shift, -c if self.negative else c


# The summands of the four q-sums, k = 1..n-1; k = 0 drops out of each
# because a weight is [0].  The public qsum_* builders and the grid runners
# both read these.

def _plain_summands(n, alpha, m, r):
    return [_Summand(k, 1, alpha, m,
                     ((k * (k + 1), r, 1), (2 * k + 1, 1, 1)),
                     (n - 1 - k) * (alpha * m + 1))
            for k in range(1, n)]


def _alternating_summands(n, alpha, m, r):
    return [_Summand(k, 1, alpha, m,
                     ((k * (k + 1), r, 2), (2 * k + 1, 1, 1)),
                     (n - 1 - k) * (2 * alpha * m + 1),
                     doubled=True, negative=bool(k & 1))
            for k in range(1, n)]


def _product_summands(n, alpha, m, r):
    return [_Summand(k, 2, alpha, m,
                     ((k * (k + 2), r, 1), (2 * (k + 1), 1, 1)),
                     (n - 2 - k) * (2 * alpha * m + 1))
            for k in range(1, n)]


def _general_summands(n, alpha, beta, m, r):
    return [_Summand(k, 2 * beta, alpha, m,
                     ((rising_factorial(k, beta)
                       * rising_factorial(k + beta + 1, beta), r, 1),
                      (2 * (k + beta), 1, 1)),
                     (n - 2 * beta - k) * (2 * beta * alpha * m + 1))
            for k in range(1, n)]


def _packed_columns(summands, order, moduli=()):
    """The sum of the summands in Z[x][q]/(q^order - 1) as (cols, bits,
    depth): its order q-columns under x -> 2^bits, by Kronecker substitution
    in x, and a bound on its x-degree.

    Each summand's folded w-run becomes its order q-columns (_pack_columns
    of _base_rows).  The weights are cyclic windows on those integers, the
    q-shift a rotation, the sign a subtraction, and the summands add into
    one accumulator.  x -> 2^bits is a ring homomorphism Z[x] -> Z, and the
    weights, rotation, sign and sum act on each q-column alone, so they
    commute with it.  A cyclic window [M] makes each output the sum of
    exactly M inputs, so every coefficient of the sum is at most bound =
    the sum over the summands of maxabs(w-run) * prod M^r, which
    _packing_bits turns into bits, here rounded up to whole 64-bit words:
    the bounds of r-siblings differ by a factor of at most the largest
    first-weight M, so they mostly share a width, and with it each summand's
    windowed columns (_windowed_columns).  In test_folded.py,
    test_qsum_cells_in_one_scope_match_a_fresh_scope_per_cell and
    test_packed_columns_in_one_scope_match_a_fresh_scope check that sharing
    against a fresh scope per call,
    test_r_sibling_at_the_same_width_packs_no_summand pins it, and
    test_packed_rows_live_only_in_the_grid_scope keeps it in the grid.
    """
    bases = [_base_rows(t, order) for t in summands]
    bound = sum(top * math.prod(n ** r for n, r, _ in t.weights)
                for t, (_, top) in zip(summands, bases))
    bits = (_packing_bits(bound, order, moduli) + 63) & ~63
    acc = [0] * order
    for t, (rows, _) in zip(summands, bases):
        cols = _windowed_columns(t, rows, bits, order)
        turn = order - t.shift % order
        acc = list(map(sub if t.negative else add, acc,
                       cols[turn:] + cols[:turn]))
    depth = max((len(rows) for rows, _ in bases), default=1)
    return acc, bits, depth


def _windowed_columns(t, rows, bits, order):
    """The summand's packed q-columns at bits times its weights, before its
    q-shift and sign.  Every summand table puts the r-carrying weight first.

    Inside a grid the scope keeps one entry per summand without its shift,
    sign and r: (bits, r_done, cols), cols after the other weights and
    r_done passes of the first.  A summand at the same bits with r >= r_done
    runs only the r - r_done missing passes; any other packs afresh.  Either
    way it overwrites the entry.  The windows are exact multiplications in
    the commutative ring Z[x][q]/(q^order - 1), so their order does not
    change the columns."""
    memo = _GRID_MEMO.get()
    (first, r, stride), *others = t.weights
    key = ("windowed cols", t.k, t.count, t.alpha, t.m, t.doubled, order,
           tuple(others), first, stride)
    entry = None if memo is None else memo.get(key)
    if entry is not None and entry[0] == bits and entry[1] <= r:
        _, done, cols = entry
    else:
        cols = _pack_columns(rows or [[0] * order], bits)
        for n, e, s in others:
            cols = _window_slide_cyclic(cols, n, s, order, e)
        done = 0
    if r > done:
        cols = _window_slide_cyclic(cols, first, stride, order, r - done)
    if memo is not None:
        memo[key] = bits, r, cols
    return cols


def _base_rows(t, order):
    """(rows, top) of the summand's folded w-run: its x-slices padded to
    order q-coefficients (QLaurent._x_rows) and its largest coefficient
    magnitude.  The r-siblings of a grid cell share them, so inside a grid
    they are kept in its memo scope; outside a grid nothing keeps them."""
    memo = _GRID_MEMO.get()
    key = ("packed rows", t.k, t.count, t.alpha, t.m, t.doubled, order)
    if memo is not None and key in memo:
        return memo[key]
    base = t.base(order)
    entry = base._x_rows(order), base._max_abs()
    if memo is not None:
        memo[key] = entry
    return entry


def _packed_remainders(cols, moduli, shift):
    """The remainders of q^shift times the packed q-columns cols modulo each
    (mod, d) of moduli, d dividing len(cols), by schoolbook division of the
    packed integers: division by a monic mod is Z-linear, so each is the
    packed remainder of the x-slices (zero iff they all are, within the
    bits of _packing_bits)."""
    return [_divmod_monic_lists(_fold_cyclic(cols, shift, d), mod.coeffs)[1]
            for mod, d in moduli]


# series -> (n, full value) of the last full q-sum built; one entry only.
# When n grows, every old summand's q-shift grows by the series' step and
# nothing else of it changes, so V(n) = q^((n-n0)*step) V(n0) plus the
# summands k = n0..n-1 of n.  Memoising every summand's n-independent core
# instead would hold far more memory than this one value.
_RUNNING_QSUM = {}


def _qsum(summands, n, args, step, order):
    """The sum of summands(n, *args), folded mod q^order - 1 when an order
    is given (_packed_columns, unpacked once).  A full value extends the
    last full value of its series when that was built for an n no larger;
    anything else starts over."""
    if order is not None:
        return QLaurent._x_unpacked(*_packed_columns(summands(n, *args),
                                                     order))
    series = (summands, *args)
    done, value = _RUNNING_QSUM.get(series, (1, QLaurent.zero()))
    if done > n:
        done, value = 1, QLaurent.zero()
    if done < n:
        value = QLaurent.sum(chain(
            (value.shift_q((n - done) * step),),
            (t.value() for t in summands(n, *args)[done - 1:])))
    _RUNNING_QSUM.clear()
    _RUNNING_QSUM[series] = (n, value)
    return value


def qsum_plain(n, alpha, m, r, order=None):
    """Sum over k = 0..n-1 of [k(k+1)]^r [2k+1] q^((n-1-k)(alpha*m+1))
    times the m-th power of the q-analogue w-polynomial.

    Given an order, each qsum_* returns the image of its value in
    Z[x][q]/(q^order - 1) (see QLaurent.fold), built without the full value:
    the folded w-runs are packed under x -> 2^bits into one integer per
    q-column, the weights, shifts and signs act on those integers, and the
    sum is unpacked once.  That is exact because bits exceeds the bound on
    the sum's coefficients (see _packed_columns).
    """
    _check_positive(n=n, alpha=alpha, m=m, r=r)
    return _qsum(_plain_summands, n, (alpha, m, r), alpha * m + 1, order)


def qsum_alternating(n, alpha, m, r, order=None):
    """Alternating variant: (-1)^k, the k(k+1) weight taken at q^2, the
    w-polynomial at q^2, and shift exponent (n-1-k)(2*alpha*m+1)."""
    _check_positive(n=n, alpha=alpha, m=m, r=r)
    return _qsum(_alternating_summands, n, (alpha, m, r),
                 2 * alpha * m + 1, order)


def qsum_product(n, alpha, m, r, order=None):
    """Neighbour-product variant: weights [k(k+2)]^r [2(k+1)], summand
    (w_k w_{k+1})^m, shift exponent (n-2-k)(2*alpha*m+1)."""
    _check_positive(n=n, alpha=alpha, m=m, r=r)
    return _qsum(_product_summands, n, (alpha, m, r), 2 * alpha * m + 1,
                 order)


def qsum_general(n, alpha, beta, m, r, order=None):
    """Window variant: rising-factorial weights [(k)_b (k+b+1)_b]^r [2(k+b)],
    summand the product of 2*beta consecutive w powers, shift exponent
    (n-2*beta-k)(2*beta*alpha*m+1)."""
    _check_positive(n=n, alpha=alpha, beta=beta, m=m, r=r)
    return _qsum(_general_summands, n, (alpha, beta, m, r),
                 2 * beta * alpha * m + 1, order)


def verify_divisible_by_qn(value, n, statement="mod-qn", params=None):
    """Pass iff the remainder of value mod [n] is zero."""
    if n < 2:
        raise ValueError("modulus [n] needs n >= 2")
    [(mod, d)] = _qn_moduli(n)
    rem = value.rem_monic_cyclic(mod, d)
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
    for mod, d in _cyclotomic_moduli(n):
        rem = value.rem_monic_cyclic(mod, d)
        if not rem.is_zero():
            witness = f"d={d}: {rem}"
            break
    return Verdict(statement, dict(params or {"n": n}), witness is None,
                   witness)


def _cyclotomic_moduli(n):
    # (Phi_d, d) for the factors of the cyclotomic product: divisor d of n
    # contributes Phi_d(q) when odd, Phi_d(q^2) = Phi_2d(q) when even
    return [(cyclotomic(e), e)
            for e in (d if d % 2 else 2 * d for d in divisors(n) if d > 1)]


def _qn_moduli(n):
    return [(_qint_qpoly(n), n)]


_TWO_X_PLUS_ONE = XPoly((1, 2))


# series -> (n, its sum over k = 1..n).  Grids run n outermost, so each
# cell extends the previous n's sum of its series by the new terms instead
# of summing from k = 1 again; a smaller n starts the series over.  Only the
# public int_sum_* and *_quotient functions and the conj-54 grids fill it; the
# other integer grids keep residue sums in their memo scope (_residue_sum).
_RUNNING_SUMS = {}


def _running_sum(table, series, n, step, zero):
    # the sum of the series over k = 1..n, kept in table: step(acc, k) adds
    # term k to acc
    done, acc = table.get(series, (0, zero))
    if done > n:
        done, acc = 0, zero
    for k in range(done + 1, n + 1):
        acc = step(acc, k)
    table[series] = (n, acc)
    return acc


def _plain_series(n, alpha, m, r, sign):
    # sum over k = 1..n of sign^k [k(k+1)]^r (2k+1) w_k^(alpha, m), as
    # (series key, n, alpha, m, run length, weight of term k)
    return (("plain", alpha, m, r, sign), n, alpha, m, 1,
            lambda k: sign ** k * (k * (k + 1)) ** r * (2 * k + 1))


def _window_series(n, alpha, beta, m, r):
    # sum over k = 1..n of [(k)_beta (k+beta+1)_beta]^r (k+beta) times the
    # product of 2*beta consecutive w powers
    return (("window", alpha, beta, m, r), n, alpha, m, 2 * beta,
            lambda k: (rising_factorial(k, beta)
                       * rising_factorial(k + beta + 1, beta)) ** r
            * (k + beta))


def _int_sum(key, n, alpha, m, count, weight):
    # the exact XPoly sum of a series, kept process-wide in _RUNNING_SUMS
    return _running_sum(
        _RUNNING_SUMS, key, n,
        lambda acc, k: acc + _wx_run(k, alpha, m, count) * weight(k), XPoly())


def _residue_run(k, alpha, m, count, memo, modulus):
    """_wx_run(k, alpha, m, count) with its coefficients mod modulus, built
    in the same shape from the runs it splits into, each kept in the memo:
    a series' r-siblings and neighbouring windows share them."""
    key = ("int run", k, alpha, m, count)
    run = memo.get(key)
    if run is not None:
        return run
    if m == count == 1:
        # w_alpha_poly(k, alpha) mod modulus, coefficient by coefficient
        run = [pow(w_number(k, j), alpha, modulus) for j in range(1, k + 1)]
    else:
        h = _split(m if m > 1 else count)
        a, b = (((k, alpha, h, count), (k, alpha, m - h, count)) if m > 1
                else ((k, alpha, 1, h), (k + h, alpha, 1, count - h)))
        # a square (a == b) is one list, which _kronecker packs once
        run = list(map(modulo, _kronecker(_residue_run(*a, memo, modulus),
                                          _residue_run(*b, memo, modulus)),
                       repeat(modulus)))
    memo[key] = run
    return run


def _residue_sum(key, n, alpha, m, count, weight, memo, modulus):
    """(residues, constant) of a series' sum over k = 1..n, kept in the
    memo: coefficients congruent to the exact sum's mod modulus (each run
    is reduced, the weighted sum is not), and the exact constant term.

    A run's constant term is the product of its factors' constant terms,
    each a power of w(j, 1) = 1 (as _run_lowest_term multiplies lowest
    terms), so the sum's constant term is the sum of the weights."""
    def step(acc, k):
        res, low = acc
        c = weight(k)
        term = list(map(mul, _residue_run(k, alpha, m, count, memo, modulus),
                        repeat(c)))
        return (list(map(add, res, term))
                + (term[len(res):] or res[len(term):]), low + c)
    return _running_sum(memo, ("int sum", key), n, step, ([], 0))


def _triple(n):
    return n * (n + 1) * (n + 2)


def _by_triple(p):
    # gcd(2, n) times the sum by n(n+1)(n+2)
    return math.gcd(2, p["n"]), _triple(p["n"]), 0


# integer-side statement -> (the cell's series, (g, t, power)): the
# statement says that g times the series' sum over k = 1..n, divided exactly
# by (2x+1)^power, is divisible by the integer t; both take the cell's
# parameters
_DIVISIONS = {
    "thm-int-plain": (lambda p: _plain_series(sign=1, **p), _by_triple),
    "thm-int-alternating": (lambda p: _plain_series(sign=-1, **p),
                            _by_triple),
    "thm-int-lcm": (
        lambda p: _window_series(**p),
        lambda p: (2, lcm_range(p["n"], p["n"] + 2 * p["beta"] + 1), 0)),
    "conj-52-even": (lambda p: _plain_series(r=1, sign=-1, **p),
                     lambda p: (1, _triple(p["n"]), 0)),
    # conj-54 sums the neighbour products k(k+1)(k+2) (w_k w_(k+1))^m
    "conj-54-ii": (
        lambda p: _window_series(alpha=1, beta=1, r=1, **p),
        lambda p: (2 * math.gcd(2, p["n"]), _triple(p["n"]), p["m"])),
    "conj-54-iii": (
        lambda p: _window_series(alpha=1, beta=1, m=1, r=1, **p),
        lambda p: (2 * math.gcd(2, p["n"]), _triple(p["n"]), 3)),
}


def _divide(statement, params, fault):
    """Exact quotient of an integer-side statement's sum, or the obstruction
    witness; fault adds one to the sum first."""
    series, division = _DIVISIONS[statement]
    acc = _int_sum(*series(params))
    if fault:
        acc = acc + 1
    g, t, power = division(params)
    if power:
        acc = acc.divexact(_TWO_X_PLUS_ONE ** power)
        if isinstance(acc, DivisionWitness):
            return acc
    return (acc * g).divexact(t)


def _int_verdict(statement, params, quot):
    failed = isinstance(quot, DivisionWitness)
    status = "conjecture-empirical" if statement.startswith("conj-") else None
    return Verdict(statement, params, not failed,
                   str(quot) if failed else None, status=status)


def _division_verdict(statement, params, fault=False):
    return _int_verdict(statement, params,
                        _divide(statement, params, fault))


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
    workers must be >= 0 and selects nothing: grids run in one thread.
    """

    statement: str
    ranges: tuple = ()
    workers: int = 0
    inject_fault: bool = False
    count: int = 500
    seed: int = 0
    timing: bool = False


def _lowest_q_exp(summands, fault):
    """min_q_exp of the sum of the summands, plus one under a fault, read off
    their lowest q-terms; None when the terms at the lowest exponent cancel,
    since the sum's lowest exponent is then not known from them."""
    lows = [t.lowest_term() for t in summands]
    if fault:
        lows.append((0, XPoly.const(1)))
    e = min(f for f, _ in lows)
    return e if sum((c for f, c in lows if f == e), XPoly()) else None


def _qsum_runner(statement, build, summands, decide, moduli):
    """Cell runner of a q-sum statement: decide the value, plus one under a
    fault, in Z[x][q]/(q^N - 1), N the lcm of the orders d of moduli(n), so
    that every modulus divides q^N - 1.

    The witness is the remainder of q^shift times the full value, with shift
    = max(0, -min_q_exp); q is a unit modulo q^N - 1, so the verdict does
    not depend on the shift, and the witness is the remainder of the folded
    value rotated by it.  An unfaulted cell is first reduced on its x-packed
    q-columns (_packed_columns) at shift 0 and passes if every remainder is
    zero.  Any other cell reads min_q_exp off the summands' lowest q-terms
    (when they cancel, it builds the full value and decides that instead),
    builds its value with build and decides it with decide, which gives the
    witness; if a cell that failed on its columns then passes, the
    packing's bound was wrong, and it raises.
    """
    def run(p, fault):
        n = p["n"]
        mods = moduli(n)
        order = math.lcm(*(d for _, d in mods))
        terms = summands(**p)
        if not fault:
            cols, _, _ = _packed_columns(terms, order, mods)
            if not any(_packed_remainders(cols, mods, 0)):
                return [Verdict(statement, dict(p), True)]
        low = _lowest_q_exp(terms, fault)
        value = build(p, None if low is None else order)
        if fault:
            value = value + QLaurent.one()
        if low is not None:
            value = value.shift_q(max(0, -low)).fold(order)
        verdict = decide(value, n, statement, p)
        if not fault and verdict.passed:
            raise ArithmeticError(
                f"{statement} {p}: a packed remainder is nonzero but the "
                f"value's remainder is zero; the packing bound is too small")
        return [verdict]
    return run


def _division_runner(statement):
    return lambda p, fault: [_division_verdict(statement, p, fault)]


def _grid_modulus(statement, cells):
    # M for _residue_runner: the lcm of the divisor t of every cell
    division = _DIVISIONS[statement][1]
    return math.lcm(*{division(p)[1] for p in cells})


def _residue_runner(statement):
    """Cell runner of an integer-side statement whose divisor is the integer
    t (power 0 in _DIVISIONS): decide g times the sum, plus one under a
    fault, on its coefficients mod M, the lcm of every cell's t in the grid
    (memo key ("int modulus",), set by _run_cells).

    Z -> Z/M -> Z/t is a ring map for t dividing M, and g c = 0 mod t iff
    c = 0 mod t/gcd(g, t), so the residues give the exact verdict and the
    degree of the top indivisible coefficient, the witness.  At degree 0,
    where a fault's +1 lands, that coefficient is g times the exact constant
    term (_residue_sum).  Above it the cell takes the exact path (_divide);
    if that passes, or fails at another degree, the residues were wrong, and
    this raises.  Outside a grid the exact path decides.
    """
    series, division = _DIVISIONS[statement]

    def run(p, fault):
        memo = _GRID_MEMO.get()
        modulus = None if memo is None else memo.get(("int modulus",))
        if modulus is None:
            return [_division_verdict(statement, p, fault)]
        g, t, _ = division(p)
        res, low = _residue_sum(*series(p), memo, modulus)
        if (res[0] - low) % modulus:
            raise ArithmeticError(
                f"{statement} {p}: the residue sum's constant term is not "
                f"the sum of the weights")
        step = t // math.gcd(g, t)
        if any(map(modulo, res[1:], repeat(step))):
            top = len(_trim(list(map(modulo, res, repeat(step))))) - 1
            quot = _divide(statement, p, fault)
            if not isinstance(quot, DivisionWitness) or quot.degree != top:
                raise ArithmeticError(
                    f"{statement} {p}: the residues mod {modulus} fail at "
                    f"degree {top}, the exact sum gives {quot}")
        elif (low + fault) % step:
            quot = _indivisible(g * (low + fault), 0, t)
        else:
            quot = None
        return [_int_verdict(statement, p, quot)]
    return run


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
    args = (p["d"], p["a"], p["b"], p["s"], p["t"])
    ok = q_lucas_check(*args)
    witness = None if ok else str(_q_lucas_remainder(*args))
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
    residues: bool = False      # decided by _residue_runner


def _lemma23_valid(p):
    b, d = p["b"], p["d"]
    return (1 <= b <= d - 2) or (d > 3 and 0 <= b <= d - 3)


_QSUM_PARAMS = (("n", 2, None), ("alpha", 1, (1, 1)), ("m", 1, (1, 1)),
                ("r", 1, (1, 1)))
_INT_PARAMS = (("n", 1, None), ("alpha", 1, (1, 1)), ("m", 1, (1, 1)),
               ("r", 1, (1, 1)))

# The q-sum runners look up qsum_* and verify_* in this module's globals when
# a cell runs, not when the table is built, so that rebinding those names
# (as perfbench/layertrace.py does) reaches every cell that calls them: a
# cell that passes on its packed q-columns calls neither, and every other
# cell (faulted, failing, or with cancelling lowest terms) calls both.  The
# last argument of each runner gives the statement's moduli: [n] at order n,
# or each factor Phi_d of the cyclotomic product at order d.
STATEMENTS = {
    "thm-qsum-plain": _Statement(_QSUM_PARAMS, _qsum_runner(
        "thm-qsum-plain", lambda p, order: qsum_plain(**p, order=order),
        _plain_summands,
        lambda *args: verify_divisible_by_qn(*args), _qn_moduli)),
    "thm-qsum-alternating": _Statement(_QSUM_PARAMS, _qsum_runner(
        "thm-qsum-alternating",
        lambda p, order: qsum_alternating(**p, order=order),
        _alternating_summands,
        lambda *args: verify_cyclotomic_product(*args), _cyclotomic_moduli)),
    "thm-qsum-product": _Statement(_QSUM_PARAMS, _qsum_runner(
        "thm-qsum-product", lambda p, order: qsum_product(**p, order=order),
        _product_summands,
        lambda *args: verify_divisible_by_qn(*args), _qn_moduli)),
    "thm-qsum-general": _Statement(
        (("n", 2, None), ("alpha", 1, (1, 1)), ("beta", 1, (1, 1)),
         ("m", 1, (1, 1)), ("r", 1, (1, 1))),
        _qsum_runner("thm-qsum-general",
                     lambda p, order: qsum_general(**p, order=order),
                     _general_summands,
                     lambda *args: verify_divisible_by_qn(*args),
                     _qn_moduli)),
    "thm-int-plain": _Statement(
        _INT_PARAMS, _residue_runner("thm-int-plain"), residues=True),
    "thm-int-alternating": _Statement(
        _INT_PARAMS, _residue_runner("thm-int-alternating"), residues=True),
    "thm-int-lcm": _Statement(
        (("n", 1, None), ("alpha", 1, (1, 1)), ("beta", 1, (1, 1)),
         ("m", 1, (1, 1)), ("r", 1, (1, 1))),
        _residue_runner("thm-int-lcm"), residues=True),
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
        _residue_runner("conj-52-even"),
        cell_filter=lambda p: p["n"] % 2 == 0, residues=True),
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
    # the ranges are checked here, at once; sampled cells are drawn lazily
    resolved = _resolve_ranges(spec, schema)
    if schema.sampled:
        bounds = {name: (lo, hi) for name, lo, hi in resolved}
        return _sampled_cells(bounds, spec.count, spec.seed)
    cells = [{}]
    for name, lo, hi in resolved:
        cells = [dict(c, **{name: v}) for c in cells for v in range(lo, hi + 1)]
    if schema.cell_filter is not None:
        cells = [c for c in cells if schema.cell_filter(c)]
    return cells


def _randint(bits, lo, hi):
    # random.Random.randint(lo, hi) of the generator whose getrandbits is
    # bits, drawing exactly what it draws: getrandbits of the width's bit
    # length, again while the draw is not below the width
    width = hi - lo + 1
    k = width.bit_length()
    r = bits(k)
    while r >= width:
        r = bits(k)
    return lo + r


def _sampled_cells(bounds, count, seed):
    # count q-Lucas cells drawn from one seeded generator, each as it is
    # needed, so memory and the time to the first cell do not grow with count
    bits = random.Random(seed).getrandbits
    for _ in range(count):
        d = _randint(bits, *bounds["d"])
        a = _randint(bits, *bounds["a"])
        yield {
            "d": d,
            "a": a,
            "b": _randint(bits, 0, d - 1),
            "s": _randint(bits, 0, a + 1),
            "t": _randint(bits, 0, d - 1),
        }


def grid_verify(spec):
    """Run one statement over its parameter grid: list(grid_stream(spec))."""
    return list(grid_stream(spec))


def grid_stream(spec):
    """Check the request at once (GridError), then return a generator of the
    verdicts, cell by cell in lexicographic schema order as each is decided;
    cells run one at a time in this thread, so reports are reproducible.
    The generator keeps one memo scope for the grid (qobjects._GRID_MEMO)."""
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
    return _run_cells(schema, _enumerate_cells(spec, schema), spec)


def _run_cells(schema, cells, spec):
    # The grid's memo scope (qobjects._GRID_MEMO): made at the first cell, set
    # only while a cell runs, and dropped with this generator's frame when
    # the grid ends or the generator is closed.  A grid of _residue_runner
    # cells starts it with M, the lcm of every cell's divisor.
    memo = {}
    if schema.residues:
        memo[("int modulus",)] = _grid_modulus(spec.statement, cells)
    for params in cells:
        t0 = time.perf_counter_ns()
        token = _GRID_MEMO.set(memo)
        try:
            verdicts = schema.runner(params, spec.inject_fault)
        finally:
            _GRID_MEMO.reset(token)
        if spec.timing:
            elapsed = (time.perf_counter_ns() - t0) // 1_000_000
            verdicts = [replace(v, elapsed_ms=elapsed) for v in verdicts]
        yield from verdicts
