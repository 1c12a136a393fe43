"""The w polynomial family, its q-analogue in two equivalent forms, and the
block polynomials used by the congruence lemmas."""

from __future__ import annotations

import math
from functools import cache

from .intcomb import binomial_general, narayana_number, w_number
from .polyring import QLaurent, XPoly
from .qobjects import _GRID_MEMO, _ratio_step, cyclotomic, q_binomial
from .verdicts import Verdict


@cache
def w_alpha_poly(n, alpha):
    """Sum of w(n,j)^alpha * x^(j-1) over j = 1..n."""
    if n < 1 or alpha < 1:
        raise ValueError("w_alpha_poly needs n, alpha >= 1")
    return XPoly([w_number(n, j) ** alpha for j in range(1, n + 1)])


def schroder_poly(n):
    """Little Schroder polynomial, built from the Narayana row; equals
    w_alpha_poly(n, 1) after expansion."""
    if n < 1:
        raise ValueError("schroder_poly needs n >= 1")
    xp1 = XPoly((1, 1))
    acc = XPoly()
    for k in range(1, n + 1):
        term = XPoly([0] * (k - 1) + [narayana_number(n, k)])
        acc = acc + term * xp1 ** (n - k)
    return acc


def _defining_base(k, j):
    # The j-th coefficient base of the defining q-analogue form; built from
    # QLaurent binomials so out-of-range j vanishes instead of erroring.
    # q_w_poly reads it only in its support guard (j = 0 and j = k + 1);
    # the tests compare the ratio chain against it.  A product whose first
    # factor is zero is skipped, so the guard builds no qbinom(2k+1, .) row.
    def product(n1, k1, n2, k2):
        first = q_binomial(n1, k1)
        return first * q_binomial(n2, k2) if first else first
    return product(k - 1, j - 1, k + j, j) - product(k, j, k + j, j - 1)


def _w_shift(k, j):
    # q-shift of slice j of q_w_poly(k, 1); alpha multiplies it
    return math.comb(j + 1, 2) - (k + 1) * (j - 1)


@cache
def q_w_poly(k, alpha, order=None):
    """q-analogue of w_alpha_poly(k, alpha): for each j in 1..k the base
    qbinom(k-1,j-1)qbinom(k+j,j) - qbinom(k,j)qbinom(k+j,j-1), raised to
    alpha, shifted by q^(alpha*(C(j+1,2)-(k+1)(j-1))), attached to x^(j-1).

    qbinom(k+j,j) = qbinom(k+j,j-1)[k+1]/[j], qbinom(k,j) =
    qbinom(k-1,j-1)[k]/[j] and [k+1] - [k] = q^k, so the j-th base is
    q^k P_j/[j] with P_j = qbinom(k-1,j-1)qbinom(k+j,j-1) (a q-Narayana
    factorisation).  The alpha = 1 build runs the chain P_1 = 1,
    P_j = P_(j-1) (1-q^(k-j+1))/(1-q^(j-1)) (1-q^(k+j))/(1-q^(j-1)), whose
    every step is an exact polynomial division (_ratio_step, which raises
    ArithmeticError otherwise), and takes P_j (1-q)/(1-q^j) as slice j; it
    makes no polynomial product and checks the support of the defining sum.

    Slice j of the value is the alpha-th power of slice j at alpha = 1, and
    the full value at alpha > 1 is the slice-wise product of the cached
    alpha - 1 and alpha = 1 values, so alpha = 3 reuses alpha = 2.  With an
    order, the image in Z[x][q]/(q^order - 1) (see QLaurent.fold): at
    alpha = 1 the fold of the cached full value, and at alpha > 1 the slice
    power of that folded value, which takes each nonnegative slice (every
    slice, as q-Narayana runs) by one packed integer power.
    """
    if k < 1 or alpha < 1:
        raise ValueError("q_w_poly needs k, alpha >= 1")
    if alpha > 1:
        if order is not None:
            return q_w_poly(k, 1, order)._slice_power(alpha, order)
        # the full value's memo keys have no order
        return q_w_poly(k, alpha - 1)._slice_mul(q_w_poly(k, 1))
    if not (_defining_base(k, 0).is_zero()
            and _defining_base(k, k + 1).is_zero()):
        raise ArithmeticError(
            f"q_w_poly({k}, 1): the defining sum has support outside "
            f"j in [1, {k}]")
    if order is not None:
        return q_w_poly(k, 1).fold(order)
    slices = []
    run = [1]       # P_j
    for j in range(1, k + 1):
        if j > 1:
            run = _ratio_step(_ratio_step(run, k - j + 1, j - 1), k + j, j - 1)
        slices.append((k + _w_shift(k, j), _ratio_step(run, 1, j)))
    return QLaurent(slices)


def _q_w_lowest_term(k, alpha):
    """q_w_poly(k, alpha).lowest_term(), read off the lowest terms of the
    slices of the cached q_w_poly(k, 1): slice j is the alpha-th power of
    slice j at alpha = 1, and Z has no zero divisors, so its lowest term is
    (alpha*e, c^alpha) for that slice's (e, c)."""
    lows = [(d, s[0], s[1][0])
            for d, s in enumerate(q_w_poly(k, 1)._slices) if s is not None]
    e = alpha * min(f for _, f, _ in lows)
    row = [0] * (lows[-1][0] + 1)
    for d, f, c in lows:
        if alpha * f == e:
            row[d] = c ** alpha
    return e, XPoly(row)


def _alt_base(k, j):
    return _block_base(k, 0, j)     # the t-base of b_poly at d = 0


def q_w_poly_alt(k, alpha):
    """The same q-analogue assembled from the reflected negative-top form:
    sum over j of (-1)^(alpha*j) q^(alpha*j^2) (q^(k+1)qbinom(k-1,j-1)
    qbinom(-k-1,j) + qbinom(k,j)qbinom(-k-2,j-1))^alpha x^(j-1)."""
    if k < 1 or alpha < 1:
        raise ValueError("q_w_poly_alt needs k, alpha >= 1")
    if not (_alt_base(k, 0).is_zero() and _alt_base(k, k + 1).is_zero()):
        raise ArithmeticError(f"q_w_poly_alt({k}): support outside [1, {k}]")
    acc = QLaurent.zero()
    for j in range(1, k + 1):
        term = _alt_base(k, j) ** alpha
        if (alpha * j) & 1:
            term = -term
        term = term.shift_q(alpha * j * j)
        acc = acc + term * QLaurent.monomial(1, x_degree=j - 1)
    return acc


def _block_base(b, d, t):
    first = (q_binomial(b - 1, t - 1) * q_binomial(d - b - 1, t)).shift_q(b + 1)
    second = q_binomial(b, t) * q_binomial(d - b - 2, t - 1)
    return first + second


@cache
def b_poly(a, b, d, alpha):
    """Block polynomial over s in [0,a], t in [1,d-1]: the t-base above to
    the alpha, signed by (-1)^(alpha(sd+t)), scaled by
    (C(a,s)C(-a-1,s))^alpha q^(alpha t^2), attached to x^(sd+t-1).

    Sign, scale and shift at alpha are the alpha-th powers of those at
    alpha = 1, so alpha > 1 raises each x-slice of the cached alpha = 1
    value, whose build checks both supports, to the alpha-th power."""
    if a < 0 or alpha < 1:
        raise ValueError("b_poly needs a >= 0 and alpha >= 1")
    if d <= 2 or not 1 <= b <= d - 2:
        raise ValueError(f"b_poly needs d > 2 and 1 <= b <= d-2, got b={b}, d={d}")
    if alpha > 1:
        return b_poly(a, b, d, 1)._slice_power(alpha)
    # guards: support truncation is genuine vanishing, not convention
    if binomial_general(a, -1) or binomial_general(a, a + 1):
        raise ArithmeticError(f"b_poly: C({a},s)C({-a - 1},s) beyond [0, {a}]")
    if not (_block_base(b, d, 0).is_zero() and _block_base(b, d, d).is_zero()):
        raise ArithmeticError(f"b_poly: t-base of b={b} beyond [1, {d - 1}]")
    # slice sd+t-1 is (-1)^(sd)C(a,s)C(-a-1,s) times slice t-1 of the s = 0
    # block, and slice sd+d-1 is empty
    row = [_block_base(b, d, t).shift_q(t * t) * (-1) ** t
           for t in range(1, d)]
    slices = []
    for s in range(a + 1):
        sign = (-1) ** (s * d)
        c = sign * binomial_general(a, s) * binomial_general(-a - 1, s)
        slices += [(base * c)._slices[0] if base else None for base in row]
        slices.append(None)
    return QLaurent(slices)


def lemma_congruence_check(a, b, d, alpha):
    """Check the block congruences for the q-analogues modulo cyclotomic(d).

    Two pairs apply depending on (b, d):
      eq 1/2 (d > 2, 1 <= b <= d-2):   w_{ad+b}     = B_{a,b,d}
                                       w_{ad+d-b-1} = q^(-alpha(2b+1)) B_{a,b,d}
      eq 3/4 (d > 3, 0 <= b <= d-3):   w_{ad+b+1}   = B_{a,b+1,d}
                                       w_{ad+d-b-2} = q^(-alpha(2b+3)) B_{a,b+1,d}

    Returns one Verdict per applicable congruence.  Inside a grid each
    distinct equation is decided once: eq 1 and 2 of b are eq 3 and 4 of
    b - 1.
    """
    if a < 0 or alpha < 1 or d <= 2:
        raise ValueError("need a >= 0, alpha >= 1, d > 2")
    first_pair = 1 <= b <= d - 2
    second_pair = d > 3 and 0 <= b <= d - 3
    if not (first_pair or second_pair):
        raise ValueError(f"(b={b}, d={d}) fits neither congruence pair")
    checks = []
    if first_pair:
        checks.append((1, a * d + b, b, 0))
        checks.append((2, a * d + d - b - 1, b, -alpha * (2 * b + 1)))
    if second_pair:
        checks.append((3, a * d + b + 1, b + 1, 0))
        checks.append((4, a * d + d - b - 2, b + 1, -alpha * (2 * b + 3)))
    # outside a grid the memo holds this call's blocks alone
    memo = _GRID_MEMO.get()
    if memo is None:
        memo = {}
    out = []
    for eq, widx, bidx, shift in checks:
        key = ("lemma-23", a, d, alpha, widx, bidx, shift)
        if key not in memo:
            memo[key] = _decide_lemma23(memo, a, d, alpha, widx, bidx, shift)
        ok, witness = memo[key]
        out.append(Verdict(
            "lemma-23",
            {"a": a, "b": b, "d": d, "alpha": alpha, "eq": eq},
            ok, witness))
    return out


def _decide_lemma23(memo, a, d, alpha, widx, bidx, shift):
    """(passed, witness) of w_widx = q^shift B_{a,bidx,d} modulo
    cyclotomic(d) at alpha, with the folded block kept in memo.

    fold is a ring homomorphism, so the folded block is the slice power of
    the folded alpha = 1 block; q is a unit mod cyclotomic(d), so the
    folded difference has the same verdict, and only a failing equation
    builds the full difference for its witness.
    """
    block_key = ("lemma-23 block", a, bidx, d, alpha)
    block = memo.get(block_key)
    if block is None:
        block = b_poly(a, bidx, d, 1).fold(d)._slice_power(alpha, d)
        memo[block_key] = block
    phi = cyclotomic(d)
    folded = q_w_poly(widx, alpha, d) - block.shift_q(shift).fold(d)
    if folded.rem_monic_cyclic(phi, d).is_zero():
        return True, None
    full = q_w_poly(widx, alpha) - b_poly(a, bidx, d, alpha).shift_q(shift)
    return False, str(full.rem_monic_cyclic(phi, d))
