"""Integer combinatorics: generalized binomials, Mobius, lcm ranges, the
w(n,k) triangle, Narayana numbers, and the identity suite relating them."""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cache

from .polyring import XPoly


def binomial_general(n, k):
    """C(n, k) for any integer top; 0 for k < 0."""
    if k < 0:
        return 0
    if n >= 0:
        return math.comb(n, k)
    # (n)(n-1)...(n-k+1)/k! = (-1)^k C(k-n-1, k)
    return (-1 if k & 1 else 1) * math.comb(k - n - 1, k)


def mobius(n):
    if n <= 0:
        raise ValueError("mobius is defined on positive integers")
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1 if p == 2 else 2
    if n > 1:
        result = -result
    return result


def divisors(n):
    if n <= 0:
        raise ValueError("divisors is defined on positive integers")
    small = []
    large = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def lcm_range(lo, hi):
    if not 1 <= lo <= hi:
        raise ValueError(f"bad lcm range [{lo}, {hi}]")
    return math.lcm(*range(lo, hi + 1))


def rising_factorial(x0, n):
    if n < 0:
        raise ValueError("rising factorial needs a nonnegative length")
    out = 1
    for i in range(n):
        out *= x0 + i
    return out


def catalan_number(n):
    return math.comb(2 * n, n) // (n + 1)


@cache
def w_number(n, k):
    """w(n,k), the triangle underlying everything downstream.

    Computed as C(n-1,k-1)*C(n+k,k-1)/k with the division checked exact, and
    cross-checked against the binomial-difference form.
    """
    if not 1 <= k <= n:
        raise ValueError(f"w_number needs 1 <= k <= n, got ({n}, {k})")
    num = math.comb(n - 1, k - 1) * math.comb(n + k, k - 1)
    quot, rem = divmod(num, k)
    if rem:
        raise ArithmeticError(f"w({n},{k}) division not exact")
    alt = (math.comb(n - 1, k - 1) * math.comb(n + k, k)
           - math.comb(n, k) * math.comb(n + k, k - 1))
    if quot != alt:
        raise ArithmeticError(f"w({n},{k}) closed forms disagree")
    return quot


def narayana_number(n, k):
    if not 1 <= k <= n:
        raise ValueError(f"narayana_number needs 1 <= k <= n, got ({n}, {k})")
    num = math.comb(n, k) * math.comb(n, k - 1)
    quot, rem = divmod(num, n)
    if rem:
        raise ArithmeticError(f"N({n},{k}) division not exact")
    return quot


class IdentityReport(namedtuple("IdentityReport",
                                "identity params holds lhs rhs")):
    __slots__ = ()


def w_identity_suite(n, m, b):
    """Check the four structural identities of the w triangle at (n, m, b).

    Returns one report each for: the alternating-sum recovery of w(n,m), the
    two transforms between w(n,.) and the Narayana row, and the oddness of
    the partial row sum with 2b+1 terms.
    """
    if not 1 <= m <= n:
        raise ValueError(f"identity suite needs 1 <= m <= n, got ({n}, {m})")
    if b < 0:
        raise ValueError("b must be nonnegative")
    reports = []

    alt = sum((-1) ** (n - k) * math.comb(k - 1, m - 1) * w_number(n, k)
              for k in range(m, n + 1))
    target = w_number(n, m)
    reports.append(IdentityReport("alternating-sum", (n, m),
                                  alt == target, alt, target))

    w_row = XPoly([w_number(n, k) for k in range(1, n + 1)])
    from_narayana = XPoly([
        sum(math.comb(n - j, k - j) * narayana_number(n, j)
            for j in range(1, k + 1))
        for k in range(1, n + 1)])
    reports.append(IdentityReport("w-from-narayana", (n,),
                                  w_row == from_narayana, w_row, from_narayana))

    n_row = XPoly([narayana_number(n, k) for k in range(1, n + 1)])
    from_w = XPoly([
        sum((-1) ** (k - j) * math.comb(n - j, k - j) * w_number(n, j)
            for j in range(1, k + 1))
        for k in range(1, n + 1)])
    reports.append(IdentityReport("narayana-from-w", (n,),
                                  n_row == from_w, n_row, from_w))

    partial = sum(w_number(n, k + 1) for k in range(0, 2 * b + 1) if k + 1 <= n)
    reports.append(IdentityReport("partial-row-sum-odd", (n, b),
                                  partial % 2 == 1, partial % 2, 1))

    return reports
