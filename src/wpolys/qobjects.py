"""q-integers, Gaussian binomials, cyclotomic polynomials, and the classical
facts connecting them (the [n] factorization, q-Lucas reduction, and the
q -> q^2 behaviour of cyclotomics)."""

from __future__ import annotations

import math
from contextvars import ContextVar
from functools import cache
from itertools import accumulate

from .intcomb import divisors, mobius
from .polyring import (DivisionWitness, QLaurent, QPoly, _divmod_monic_lists,
                       _sub_lists)


# The memo scope of the grid being run: a dict that congruence.grid_stream
# sets while each of its cells runs and drops with the grid; None outside
# a grid.  It holds lemma-23's decided equations and folded blocks (see
# wpoly.lemma_congruence_check) and q-Lucas's folded q-Pascal tables, each
# under a tuple key whose first entry names the table, so what a grid keeps
# depends on that grid alone, not on the process's history.
_GRID_MEMO = ContextVar("wpolys_grid_memo", default=None)


def q_integer(n):
    """[n] = (1 - q^n)/(1 - q) as a QLaurent; negative n gives -q^n*[-n]."""
    if n == 0:
        return QLaurent.zero()
    if n > 0:
        return QLaurent.from_qpoly(QPoly([1] * n))
    return QLaurent(((n, (-1,) * (-n)),))


def _ratio_step(coeffs, m, k):
    """coeffs times (1 - q^m)/(1 - q^k), in two linear passes.

    The multiply is b[i] = a[i] - a[i-m] and the division the recurrence
    c[i] = b[i] + c[i-k], a prefix sum along each residue class mod k.  The
    division is exact only if the recurrence ends in k zeros; otherwise
    ArithmeticError.
    """
    run = list(coeffs) + [0] * m
    run[m:] = [x - y for x, y in zip(run[m:], coeffs)]
    for r in range(k):
        run[r::k] = accumulate(run[r::k])
    if any(run[-k:]):
        raise ArithmeticError(
            f"(1 - q^{k}) does not divide ({QPoly(coeffs)}) * (1 - q^{m})")
    return run[:-k]


@cache
def _qbinom_poly(n, k):
    # qbinom(n, k) = qbinom(n, k-1) (1 - q^(n-k+1))/(1 - q^k): one row chain
    if not 0 <= k <= n:
        raise ValueError(f"_qbinom_poly needs 0 <= k <= n, got ({n}, {k})")
    k = min(k, n - k)
    if k == 0:
        return QPoly([1])
    return QPoly(_ratio_step(_qbinom_poly(n, k - 1).coeffs, n - k + 1, k))


def q_binomial_poly(n, k):
    """Gaussian binomial for 0 <= k <= n, as a plain QPoly."""
    if not 0 <= k <= n:
        raise ValueError(f"q_binomial_poly needs 0 <= k <= n, got ({n}, {k})")
    return _qbinom_poly(n, k)


def q_binomial(n, k):
    """Gaussian binomial with any integer top.

    Zero for k < 0 or (n >= 0 and k > n).  Negative tops reflect:
    qbinom(-a, k) = (-1)^k q^(-ak - C(k,2)) qbinom(a+k-1, k), which brings in
    negative q exponents, hence the QLaurent return type.
    """
    if k < 0:
        return QLaurent.zero()
    if k == 0:
        return QLaurent.one()
    if n >= 0:
        if k > n:
            return QLaurent.zero()
        return QLaurent.from_qpoly(_qbinom_poly(n, k))
    base = _qbinom_poly(-n + k - 1, k)
    if k & 1:
        base = -base
    return QLaurent.from_qpoly(base, q_shift=n * k - math.comb(k, 2))


@cache
def cyclotomic(d):
    """The d-th cyclotomic polynomial, as the exact quotient of the
    (q^e - 1)^mobius(d/e) over divisors e of d."""
    if d <= 0:
        raise ValueError("cyclotomic index must be positive")
    num = QPoly([1])
    den = QPoly([1])
    for e in divisors(d):
        mu = mobius(d // e)
        if mu == 0:
            continue
        factor = QPoly([-1] + [0] * (e - 1) + [1])
        if mu == 1:
            num = num * factor
        else:
            den = den * factor
    phi = num.divexact(den)
    if isinstance(phi, DivisionWitness):
        raise ArithmeticError(f"cyclotomic({d}) is not exact: {phi}")
    if not phi.is_monic() or (d > 1 and phi.coeff(0) != 1):
        raise ArithmeticError(
            f"cyclotomic({d}) = {phi} is not monic with constant term 1")
    return phi


def qint_factorization_check(n):
    """[n] = product of cyclotomic(d) over divisors d > 1 of n."""
    if n < 2:
        raise ValueError("factorization check needs n >= 2")
    prod = QPoly([1])
    for d in divisors(n):
        if d > 1:
            prod = prod * cyclotomic(d)
    return prod == QPoly([1] * n)


def q_lucas_check(d, a, b, s, t):
    """qbinom(ad+b, sd+t) = C(a,s) * qbinom(b, t) mod cyclotomic(d)."""
    if d <= 1:
        raise ValueError("q-Lucas reduction needs d > 1")
    if a < 0 or s < 0:
        raise ValueError("a and s must be nonnegative")
    if not (0 <= b < d and 0 <= t < d):
        raise ValueError("b and t must lie in [0, d-1]")
    return not _q_lucas_row(d, a, b, s, t)


def _q_pascal_rows(d, n):
    """The folded q-Pascal table of d, built at least to row n: entry [m][k]
    is qbinom(m, k) mod q^d - 1, a list of d ints, for 0 <= k <= m.

    qbinom(m, k) = qbinom(m-1, k-1) + q^k qbinom(m-1, k) (Andrews, The
    Theory of Partitions, Thm 3.2), and multiplying by q^k in
    Z[q]/(q^d - 1) rotates a row right by k mod d; qbinom(m, k) =
    qbinom(m, m-k), so the upper half of each row repeats the lower.  In a
    grid the table lives in its memo scope under ("q-pascal", d) and grows
    on demand; outside one a call builds its own rows.
    """
    memo = _GRID_MEMO.get()
    rows = [] if memo is None else memo.setdefault(("q-pascal", d), [])
    if not rows:
        rows.append([[1] + [0] * (d - 1)])
    for m in range(len(rows), n + 1):
        prev = rows[-1]
        half = [prev[0]]
        for k in range(1, m // 2 + 1):
            e, r = prev[k], k % d       # at r = 0 the rotation is e itself
            half.append([x + y for x, y in zip(prev[k - 1], e[-r:] + e[:-r])])
        rows.append(half + half[(m - 1) // 2::-1])
    return rows


def _q_lucas_row(d, a, b, s, t):
    """Remainder of qbinom(ad+b, sd+t) - C(a,s) qbinom(b,t) mod cyclotomic(d),
    as a list of integers, empty when it is zero.

    Both tops are nonnegative, so the difference lies in Z[q] and each
    binomial may be taken in Z[q]/(q^d - 1) first, which cyclotomic(d)
    divides; the remainder is that of the full difference.  Both folded
    binomials are read from the q-Pascal table (_q_pascal_rows), so the
    difference is one row of d integers, and no polynomial value is made.
    """
    rows = _q_pascal_rows(d, a * d + b)

    def folded(n, k):
        return rows[n][k] if k <= n else []
    c = math.comb(a, s)
    row = _sub_lists(folded(a * d + b, s * d + t),
                     [c * x for x in folded(b, t)])
    return _divmod_monic_lists(row, cyclotomic(d).coeffs)[1]


def _q_lucas_remainder(d, a, b, s, t):
    """_q_lucas_row as a QLaurent: the witness of a failing cell."""
    return QLaurent(((0, _q_lucas_row(d, a, b, s, t)),))


def lemma31_check(d):
    """Behaviour of cyclotomic(d) under q -> q^2.

    Odd d > 1: cyclotomic(d) divides cyclotomic(d) at q^2.
    Even d: cyclotomic(d) at q^2 equals cyclotomic(2d) exactly.
    """
    if d <= 1:
        raise ValueError("needs d > 1")
    doubled = cyclotomic(d).subst_q_squared()
    if d % 2 == 0:
        return doubled == cyclotomic(2 * d)
    return not isinstance(doubled.divexact(cyclotomic(d)), DivisionWitness)
