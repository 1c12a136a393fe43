"""Exact dense polynomial arithmetic over the integers.

Three value types live here.  XPoly is Z[x], QPoly is Z[q] (used for moduli
such as cyclotomic polynomials), both on one dense implementation, and
QLaurent is a Laurent polynomial in q whose coefficients are integer
polynomials in x.  Everything is immutable
after construction and all arithmetic is exact.

Every product is one convolution of two coefficient lists.  A QLaurent
product flattens each operand x-outer into one run in which the x^d slice
starts at d*W, with W = qspan(a) + qspan(b) - 1; the slice products then do
not overlap, and the product's slices are cut from the flat result at stride
W.  Leading empty slices are skipped and the last slice is not padded, so a
single-slice operand is its own run.

Small convolutions run schoolbook.  Larger ones use Kronecker substitution:
each list is packed into one big integer, the two are multiplied once, and
the product is unpacked with balanced digit extraction; a square packs once.
From _DECIMAL_CUTOFF packed decimal digits on, the packing is decimal: each
list becomes one exact Decimal, built from fixed-width digit strings, and
libmpdec's number-theoretic transform multiplies them.  Its context traps
Inexact and Rounded, so a lost digit raises, also under python -O.  That
path is taken only with the C decimal module (decimal.__libmpdec_version__)
and with blocks of at most 4,300 digits and at most the process's
int_max_str_digits limit, which is read but never set; otherwise the product
stays binary.

The fold and the cyclic window of Z[q]/(q^order - 1) loop over laps and
cycles, not over terms.  A fold sums a run in laps of order terms, by slices
and C-level maps, and rotates the sum; a value already folded is returned
as it is.  A window [n] at q^stride is taken on each cycle of q^stride
modulo the order, from prefix sums of the cycle taken twice; no linear
window is built.  A folded value can also be packed in x alone: under
x -> 2^bits each of its order q-columns is one integer (_pack_columns), so
q-side maps such as the cyclic window run once per column, not per x-slice.
A folded slice with no negative coefficient is raised to a power the other
way round: packed in q into one integer, raised by one integer power and
wrapped modulo 2^(bits*order) - 1, with its digit sum checked against the
value at q = 1 (_cyclic_run_power); the product of two such runs is one
packed multiply, wrapped and checked the same way (_cyclic_run_product).
"""

from __future__ import annotations

import math
import re
import sys
from collections import namedtuple
from functools import lru_cache
from itertools import accumulate, chain, repeat, zip_longest
from operator import add, and_, floordiv, lshift, mod as modulo, neg, sub

# Schoolbook up to this many coefficient products.  Timed on the flat
# operands of each benchmark workload against values from 0 to 4096, 1024
# was fastest on lemma-blocks and qsum-weights and within 20% of the best on
# the others; with no schoolbook path lemma-blocks took twice as long.
_SCHOOLBOOK_CUTOFF = 1024
# From this many packed decimal digits in the shorter operand on, a Kronecker
# product goes through libmpdec, whose number-theoretic transform beats
# CPython's Karatsuba multiply: measured on flat operands of 8- to 2000-bit
# coefficients, the decimal path took 0.28-0.85 of the binary time at 80k
# digits and 0.49-1.22 at 40k.
_DECIMAL_CUTOFF = 80_000
# Widest coefficient block, in decimal digits, that the decimal path takes;
# wider blocks go binary (CPython's default int <-> str limit).
_DECIMAL_MAX_DIGITS = 4300


def _trim(cs):
    n = len(cs)
    while n and cs[n - 1] == 0:
        n -= 1
    return cs[:n]


def _add_lists(a, b):
    return [x + y for x, y in zip_longest(a, b, fillvalue=0)]


def _sub_lists(a, b):
    return [x - y for x, y in zip_longest(a, b, fillvalue=0)]


def _stretch(run):
    # a run taken at q^2: a zero between neighbouring terms
    out = [0] * (2 * len(run) - 1) if run else []
    out[::2] = run
    return out


def _power(base, n, one):
    # base ** n by square-and-multiply, starting from one
    if n < 0:
        raise ValueError(f"negative power of a {type(base).__name__}")
    result = one
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


def _pack(coeffs, bits):
    # Two's-complement pack: every entry is written masked to bits, lowest
    # first, by one join of fixed-width bytes; when an entry is negative, an
    # indicator integer holding 1 one digit above each negative entry is
    # subtracted afterwards to restore the true signed value.
    nb = bits >> 3
    value = int.from_bytes(b"".join(map(
        int.to_bytes, map(and_, coeffs, repeat((1 << bits) - 1)), repeat(nb),
        repeat("little"))), "little")
    if coeffs and min(coeffs) < 0:
        indicator = bytearray(len(coeffs) * nb + nb)
        for i, c in enumerate(coeffs):
            if c < 0:
                indicator[(i + 1) * nb] = 1
        value -= int.from_bytes(indicator, "little")
    return value


def _balanced(digits, width, read, arg, half, n):
    # Balanced digit extraction of n coefficients in [-half, half), base
    # 2*half.  Adding half at each of the n digits makes every digit the
    # coefficient plus half.  digits holds that sum's plain digits, most
    # significant first, width items each, and read(block, arg) reads one.
    # The sum lies in [0, base^n) exactly when the value is n such
    # coefficients; otherwise, as a wrong digit bound would give, digits is
    # None and this raises.
    if digits is None:
        raise OverflowError(
            f"Kronecker unpack: the value overflows {n} balanced digits")
    blocks = [digits[i - width:i] for i in range(len(digits), 0, -width)]
    return list(map(sub, map(read, blocks, repeat(arg)), repeat(half)))


def _unpack(value, bits, n):
    nb = bits >> 3
    # half is 0x80 followed by nb - 1 zero bytes
    value += int.from_bytes((b"\x80" + bytes(nb - 1)) * n, "big")
    fits = value >= 0 and value.bit_length() <= n * bits
    return _balanced(value.to_bytes(n * nb, "big") if fits else None, nb,
                     int.from_bytes, "big", 1 << (bits - 1), n)


def _pack_columns(rows, bits):
    # x -> 2^bits on each column of equal-length rows, rows[d] the x^d row:
    # col[e] = sum over d of rows[d][e] * 2^(bits*d).  Rows are paired as
    # (hi << w) + lo with w doubling at each level, and an odd last row goes
    # up a level as it is: a product tree, in which each level moves every
    # packed bit once.  Horner's rule would move the low rows again at every
    # row, quadratic in the row count.
    w = bits
    while len(rows) > 1:
        paired = [list(map(add, lo, map(lshift, hi, repeat(w))))
                  for lo, hi in zip(rows[::2], rows[1::2])]
        if len(rows) & 1:
            paired.append(rows[-1])
        rows, w = paired, 2 * w
    return list(rows[0])


def _unpack_columns(cols, bits, depth):
    # Inverse of _pack_columns for depth rows of entries in [-2^(bits-1),
    # 2^(bits-1)), bits a multiple of 8: the rows, as tuples.
    return list(zip(*map(_unpack, cols, repeat(bits), repeat(depth))))


def _decimal_context():
    """The exact context of the decimal path, or None without libmpdec (the
    pure-Python decimal module would be far slower than int).

    Traps Inexact and Rounded, so a product that would lose a digit raises.
    decimal is imported here, on first use: importing it adds a few ms to
    every start-up, and only products past _DECIMAL_CUTOFF need it.
    """
    import decimal
    if not hasattr(decimal, "__libmpdec_version__"):
        return None
    return decimal.Context(
        prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
        traps=[decimal.Inexact, decimal.Rounded])


def _decimal_pack(coeffs, digits, context):
    # The decimal analogue of _pack: one signed Decimal whose base-10^digits
    # digits are coeffs, lowest first.  The positive entries and the
    # magnitudes of the negative ones are written as fixed-width digit
    # strings, and the two values are subtracted exactly.
    zero = "0" * digits
    pos = "".join(str(c).zfill(digits) if c > 0 else zero
                  for c in reversed(coeffs))
    neg = "".join(str(-c).zfill(digits) if c < 0 else zero
                  for c in reversed(coeffs))
    return context.subtract(context.create_decimal(pos),
                            context.create_decimal(neg))


def _decimal_unpack(value, digits, n):
    # _unpack in base 10^digits.  The bias is built by doubling, because
    # reading it from a string of n blocks costs as much as the whole unpack.
    context = _decimal_context()
    half = 10 ** digits // 2
    bias = blocks = 0
    for bit in bin(n)[2:]:
        bias = context.add(bias, context.scaleb(bias, blocks * digits))
        blocks *= 2
        if bit == "1":
            bias = context.add(context.scaleb(bias, digits), half)
            blocks += 1
    text = str(context.add(value, bias))
    fits = not text.startswith("-") and len(text) <= n * digits
    return _balanced(text.zfill(n * digits) if fits else None, digits,
                     int, 10, half, n)


def _str_digit_cap():
    # Widest block the decimal path may write: str() and int() raise
    # ValueError past the process's int_max_str_digits limit (0: none).
    # The limit is only read here, never set.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    return min(limit, _DECIMAL_MAX_DIGITS) if limit else _DECIMAL_MAX_DIGITS


def _kronecker(a, b):
    # A square (b is a) packs once and multiplies the packed value by itself.
    amax = max(map(abs, a))
    bmax = amax if b is a else max(map(abs, b))
    n = len(a) + len(b) - 1
    if amax == 0 or bmax == 0:
        return [0] * n
    shorter = min(len(a), len(b))
    bound = amax * bmax * shorter
    # 10^digits > 2^(bit_length + 1) > 2*bound, as 0.30103 > log10(2)
    digits = (bound.bit_length() + 1) * 30103 // 100000 + 1
    context = (_decimal_context() if shorter * digits >= _DECIMAL_CUTOFF
               and digits <= _str_digit_cap() else None)
    if context is not None:
        pa = _decimal_pack(a, digits, context)
        pb = pa if b is a else _decimal_pack(b, digits, context)
        return _decimal_unpack(context.multiply(pa, pb), digits, n)
    bits = bound.bit_length() + 2
    bits = (bits + 7) & ~7
    pa = _pack(a, bits)
    pb = pa if b is a else _pack(b, bits)
    return _unpack(pa * pb, bits, n)


def _convolve(a, b):
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return []
    if la == 1:
        c = a[0]
        return [c * x for x in b]
    if lb == 1:
        c = b[0]
        return [c * x for x in a]
    if la * lb <= _SCHOOLBOOK_CUTOFF:
        out = [0] * (la + lb - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        out[i + j] += ai * bj
        return out
    return _kronecker(a, b)


def _window_slide(run, n, stride=1):
    """Multiply a dense run by 1 + q^stride + ... + q^((n-1)*stride).

    Each output entry is a window sum of n inputs spaced stride apart, so
    prefix sums give the product in linear time instead of a convolution.
    """
    if stride == 1:
        # entry i is pref[i] - pref[i - n], where pref, the prefix sums,
        # stays at the total past the run and counts as 0 below index 0
        pref = list(accumulate(run))
        pref += repeat(pref[-1], n - 1)
        return list(map(sub, pref, chain(repeat(0, n), pref)))
    out = [0] * (len(run) + stride * (n - 1))
    for res in range(min(stride, len(run))):
        out[res::stride] = _window_slide(run[res::stride], n)
    return out


def _window_slide_cyclic(run, n, stride, order, r=1):
    """_window_slide r times in Z[q]/(q^order - 1), for a run folded to
    length order: the product with the r-th power of [n] at q^stride.

    q^stride moves the exponents mod order in g = gcd(stride, order) cycles
    of p = order / g terms; the cycle through c < g is
    (run * (stride // g))[c::stride], and the factor maps each cycle to
    itself, so all r passes run on one cycle before the next.  On a cycle
    the factor is n // p whole turns, which add the cycle's total to each of
    its terms, plus a window of n mod p terms, a difference of prefix sums
    of the cycle taken twice.  Cycle c is written to buf[c::stride] of a
    buffer of p*stride terms, whose fold places every exponent once; when
    stride divides order the buffer is already folded and is returned as it
    is.
    """
    g = math.gcd(stride, order)
    period = order // g
    laps, rest = divmod(n, period)
    turns = run * (stride // g)
    buf = [0] * (period * stride)
    for c in range(g):
        cycle = turns[c::stride]
        for _ in range(r):
            pref = list(accumulate(cycle + cycle, initial=0))
            window = map(sub, pref[period + 1:],
                         pref[period + 1 - rest:2 * period + 1 - rest])
            cycle = list(map(add, window, repeat(laps * pref[period])))
        buf[c::stride] = cycle
    return buf if g == stride else _fold_cyclic(buf, 0, order)


def _power_bits(run, alpha):
    # Bits per digit, in whole bytes, for the alpha-th power of a
    # nonnegative run of L <= order terms, each at most c, mod q^order - 1.
    # Its q^j coefficient sums the products over the alpha-tuples of indices
    # whose sum is j mod order; the first alpha - 1 indices fix the last one
    # mod order, and L <= order leaves at most one choice below L, so there
    # are at most L^(alpha-1) such tuples, over every wrap at once, and each
    # coefficient is at most c^alpha L^(alpha-1) < 2^bits.
    return ((max(run) ** alpha * len(run) ** (alpha - 1)).bit_length()
            + 7) & ~7


def _product_bits(a, b):
    # Bits per digit, in whole bytes, for the product of two nonnegative
    # runs of at most order terms mod q^order - 1: as in _power_bits, each
    # index of the shorter run fixes at most one index of the other, so each
    # coefficient is at most max(a) max(b) min(len(a), len(b)) < 2^bits.
    return ((max(a) * max(b) * min(len(a), len(b))).bit_length() + 7) & ~7


def _wrapped_digits(value, bits, order, turn, total):
    """The order digits, base 2^bits, of value modulo 2^(bits*order) - 1
    times 2^(bits*turn): a packed product folded mod q^order - 1 and
    multiplied by q^turn.

    2^(bits*order) is 1 modulo 2^(bits*order) - 1, so the wrap folds the
    exponents mod order (as in GMP's mpn_mulmod_bnm1), and the shift by turn
    digits is a rotation.  Every digit of a product of nonnegative runs is
    nonnegative, so a carry out of a digit, which a short bound would cause,
    lowers the digit sum by 2^bits - 1; the digit sum must equal total, the
    value at q = 1, or this raises ArithmeticError, also under python -O.
    """
    width = bits * order
    mask = (1 << width) - 1
    while value >> width:
        value = (value & mask) + (value >> width)
    turn = turn % order * bits
    value = (value << turn & mask) | value >> (width - turn)
    # Read by shift and mask: timed with CPython 3.11 on x86-64, a third to
    # three quarters of the time of slicing the value's bytes up to 2^13
    # bits.  Each shift copies the value, so the read is quadratic in the
    # order; no cell that the tests or the benchmark verify packs past 2^14
    # bits.
    digit = (1 << bits) - 1
    out = [value >> i & digit for i in range(0, width, bits)]
    if sum(out) != total:
        raise ArithmeticError(
            f"packed cyclic product: the digits mod q^{order} - 1 at {bits} "
            f"bits carried; the bound is too small")
    return out


def _cyclic_run_power(qmin, run, alpha, order):
    """(q^qmin run)^alpha in Z[q]/(q^order - 1) as its order coefficients,
    for a nonempty, nonnegative run of at most order terms.

    q -> 2^bits (Kronecker substitution, Harvey 2009) packs the run into
    one integer P, bits from _power_bits, and P^alpha is one integer power,
    wrapped and rotated by alpha*qmin and checked against (sum of run)^alpha
    by _wrapped_digits.
    """
    bits = _power_bits(run, alpha)
    return _wrapped_digits(pow(_pack(run, bits), alpha), bits, order,
                           alpha * qmin, sum(run) ** alpha)


def _cyclic_run_product(qmin, a, b, order):
    """q^qmin a b in Z[q]/(q^order - 1) as its order coefficients, for two
    nonnegative runs of at most order terms, neither all zero: one packed
    integer multiply at the bits of _product_bits, wrapped, rotated by qmin
    and checked against sum(a) sum(b) by _wrapped_digits."""
    bits = _product_bits(a, b)
    return _wrapped_digits(_pack(a, bits) * _pack(b, bits), bits, order,
                           qmin, sum(a) * sum(b))


def _divexact_lists(num, den):
    """Divide num by den in Z[coeff], top down.

    Returns (quotient, None) on exact division, or (None, witness) naming
    the first obstruction: a leading coefficient that does not divide, or a
    nonzero remainder of lower degree.
    """
    den = _trim(list(den))
    if not den:
        raise ZeroDivisionError("exact division by zero polynomial")
    num = list(_trim(list(num)))
    if not num:
        return [], None
    dd = len(den) - 1
    lead = den[-1]
    if len(num) - 1 < dd:
        return None, DivisionWitness("remainder", len(num) - 1,
                                     "degree of remainder below divisor")
    if not dd:
        # a constant divisor: one C-level map for the remainders and one for
        # the quotient; the top indivisible coefficient is the witness
        top = len(_trim(list(map(modulo, num, repeat(lead))))) - 1
        if top < 0:
            return list(map(floordiv, num, repeat(lead))), None
        return None, _indivisible(num[top], top, lead)
    q = [0] * (len(num) - dd)
    for pos in range(len(num) - 1 - dd, -1, -1):
        c = num[pos + dd]
        if c == 0:
            continue
        qc, rem = divmod(c, lead)
        if rem:
            return None, _indivisible(c, pos + dd, lead)
        q[pos] = qc
        for i, dc in enumerate(den):
            num[pos + i] -= qc * dc
    leftover = _trim(num)
    if leftover:
        return None, DivisionWitness(
            "remainder", len(leftover) - 1,
            f"nonzero remainder of degree {len(leftover) - 1}")
    return q, None


def _indivisible(c, degree, lead):
    return DivisionWitness(
        "coefficient", degree,
        f"coefficient {c} at degree {degree} not divisible by {lead}")


def _divmod_monic_lists(num, mod):
    """Schoolbook division by a monic modulus; returns (quotient, remainder)."""
    dd = len(mod) - 1
    num = list(num)
    if len(num) - 1 < dd:
        return [], _trim(num)
    q = [0] * (len(num) - dd)
    for pos in range(len(num) - 1 - dd, -1, -1):
        c = num[pos + dd]
        if c:
            q[pos] = c
            for i in range(dd):
                num[pos + i] -= c * mod[i]
            num[pos + dd] = 0
    return _trim(q), _trim(num[:dd])


def _fold_cyclic(coeffs, base, order):
    # Replace q^e by q^(e mod order); valid against any modulus dividing
    # q^order - 1.  base is the absolute exponent of coeffs[0].  The terms
    # are summed in laps of order terms, then rotated by base mod order: a
    # run below four laps is added lap by lap (one lap is a copy), and from
    # four laps on each residue's stride slice is summed in C.
    size = len(coeffs)
    if size < 4 * order:
        out = list(coeffs[:order])
        if size < order:
            out += [0] * (order - size)
        for lo in range(order, size, order):
            lap = coeffs[lo:lo + order]
            out[:len(lap)] = map(add, out, lap)
    else:
        out = [sum(coeffs[i::order]) for i in range(order)]
    shift = base % order
    return out[-shift:] + out[:-shift] if shift else out


def _packing_bits(bound, order, moduli=()):
    """Bits per x-digit for q-columns mod q^order - 1 with coefficients of
    magnitude at most bound, such that each remainder modulo a (mod, d) of
    moduli decodes too: folding to d sums order/d columns, and a remainder
    of d terms of magnitude at most c is at most c * R(mod, d) (_rem_spread).
    bits is bit_length(bound * that factor) + 2 in whole bytes, so each value
    lies in [-2^(bits-1), 2^(bits-1)), where x -> 2^bits is injective.  An
    under-estimated bound would decode wrongly and raise nothing."""
    spread = max((order // d * _rem_spread(mod.coeffs, d)
                  for mod, d in moduli), default=1)
    return ((bound * spread).bit_length() + 2 + 7) & ~7


@lru_cache(maxsize=256)
def _rem_spread(mod, order):
    # R(mod, order) = max over i of the sum over e < order of
    # |(q^e mod mod)_i|, for mod a monic coefficient tuple
    rems = (map(abs, _divmod_monic_lists([0] * e + [1], mod)[1])
            for e in range(order))
    return max(map(sum, zip_longest(*rems, fillvalue=0)))


class DivisionWitness(namedtuple("DivisionWitness", "kind degree detail")):
    """Why an exact division failed: obstruction kind, degree, and detail."""

    __slots__ = ()

    def __str__(self):
        return f"{self.kind} obstruction at degree {self.degree}: {self.detail}"


def _format_terms(pairs, var):
    # pairs: (exponent, integer coefficient), ascending, zeros omitted.
    parts = []
    for e, c in pairs:
        if c == 0:
            continue
        if e == 0:
            term = str(c)
        else:
            mon = var if e == 1 else f"{var}^{e}"
            if c == 1:
                term = mon
            elif c == -1:
                term = f"-{mon}"
            else:
                term = f"{c}*{mon}"
        parts.append(term)
    if not parts:
        return "0"
    out = parts[0]
    for term in parts[1:]:
        if term.startswith("-"):
            out += " - " + term[1:]
        else:
            out += " + " + term
    return out


def _parse_terms(text, var):
    """Inverse of _format_terms; returns a dict exponent -> coefficient."""
    text = text.strip()
    if not text:
        raise ValueError("empty polynomial text")
    # every minus sign starts a term, except one right after "^": that one
    # belongs to the exponent, which the caller's check then rejects
    norm = re.sub(r"(?<!\^)-", "+-", text).replace("++", "+")
    if norm.startswith("+"):
        norm = norm[1:]
    coeffs: dict[int, int] = {}
    for raw in norm.split("+"):
        piece = raw.strip()
        if not piece:
            raise ValueError(f"malformed polynomial text: {text!r}")
        sign = 1
        if piece.startswith("-"):
            sign = -1
            piece = piece[1:].strip()
        if "*" in piece:
            cpart, mpart = piece.split("*", 1)
            coeff = sign * int(cpart.strip())
            mon = mpart.strip()
        elif piece.startswith(var):
            coeff = sign
            mon = piece
        else:
            coeff = sign * int(piece)
            mon = ""
        if mon == "":
            exp = 0
        elif mon == var:
            exp = 1
        elif mon.startswith(var + "^"):
            exp = int(mon[len(var) + 1:])
        else:
            raise ValueError(f"unexpected monomial {mon!r} in {text!r}")
        coeffs[exp] = coeffs.get(exp, 0) + coeff
    return coeffs


class _DensePoly:
    """Dense integer polynomial in one variable, named by the subclass.

    Values of different subclasses never mix: arithmetic between them raises
    TypeError and they compare unequal.
    """

    __slots__ = ("coeffs",)
    var = ""

    def __init__(self, coeffs=()):
        object.__setattr__(self, "coeffs", tuple(_trim(list(coeffs))))

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def const(cls, c):
        return cls((c,))

    def is_zero(self):
        return not self.coeffs

    def degree(self):
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.coeffs == type(self).const(other).coeffs
        if isinstance(other, type(self)):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return type(self)(_add_lists(self.coeffs, other.coeffs))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return type(self)(_sub_lists(self.coeffs, other.coeffs))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return type(self)(_sub_lists(other.coeffs, self.coeffs))

    def __neg__(self):
        return type(self)([-c for c in self.coeffs])

    def __mul__(self, other):
        cls = type(self)
        if isinstance(other, int):
            return cls([other * c for c in self.coeffs])
        if isinstance(other, cls):
            return cls(_convolve(self.coeffs, other.coeffs))
        return NotImplemented

    def __pow__(self, n):
        return _power(self, n, type(self).const(1))

    def _coerce(self, other):
        if isinstance(other, int):
            return type(self).const(other)
        if isinstance(other, type(self)):
            return other
        return NotImplemented

    def coeff(self, e):
        return self.coeffs[e] if 0 <= e < len(self.coeffs) else 0

    def evaluate(self, v0):
        """Value at v0 by Horner's rule; only tests call it, as an oracle."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * v0 + c
        return acc

    def divexact(self, other):
        """Exact quotient self/other, or the DivisionWitness obstructing it."""
        other = self._coerce(other)
        if other is NotImplemented:
            raise TypeError(f"{type(self).__name__} divides only by its own "
                            "type or an int")
        q, witness = _divexact_lists(self.coeffs, other.coeffs)
        if witness is not None:
            return witness
        return type(self)(q)

    def __str__(self):
        return _format_terms(enumerate(self.coeffs), self.var)

    def __repr__(self):
        return f"{type(self).__name__}({self})"

    @classmethod
    def parse(cls, text):
        """Inverse of __str__."""
        table = _parse_terms(text, cls.var)
        if any(e < 0 for e in table):
            raise ValueError(
                f"negative exponent in {cls.__name__} text: {text!r}")
        coeffs = [0] * (max(table) + 1 if table else 0)
        for e, c in table.items():
            coeffs[e] = c
        return cls(coeffs)


class XPoly(_DensePoly):
    """Dense integer polynomial in x."""

    __slots__ = ()
    var = "x"
    # Multiply and exact division are bound in each class's own namespace so
    # that a profiler can wrap the x and q sides apart (perfbench/layertrace).
    __mul__ = __rmul__ = _DensePoly.__mul__
    divexact = _DensePoly.divexact

    @classmethod
    def x(cls):
        return cls((0, 1))

    def affine_subst(self, c0, c1):
        """p(c0 + c1*x), by Horner over XPoly."""
        step = XPoly((c0, c1))
        acc = XPoly()
        for c in reversed(self.coeffs):
            acc = acc * step + c
        return acc


class QPoly(_DensePoly):
    """Dense integer polynomial in q; the modulus type for congruence work."""

    __slots__ = ()
    var = "q"
    __mul__ = __rmul__ = _DensePoly.__mul__    # see XPoly
    divexact = _DensePoly.divexact

    def fold(self, order):
        """Image in Z[q]/(q^order - 1): exponent e becomes e mod order."""
        if order < 1:
            raise ValueError("fold order must be >= 1")
        if len(self.coeffs) <= order:
            return self
        return QPoly(_fold_cyclic(self.coeffs, 0, order))

    def subst_q_squared(self):
        return QPoly(_stretch(self.coeffs))


def _slice_norm(qmin, run):
    # Canonical slice: nonzero first and last coefficient, or None if empty.
    # The run becomes one tuple, kept as it is when it is one already, and a
    # slice of a whole tuple is that tuple, so a canonical run is not copied.
    coeffs = tuple(run)
    lo = 0
    hi = len(coeffs)
    while hi > lo and coeffs[hi - 1] == 0:
        hi -= 1
    while lo < hi and coeffs[lo] == 0:
        lo += 1
    if lo == hi:
        return None
    return (qmin + lo, coeffs[lo:hi])


class QLaurent:
    """Laurent polynomial in q with XPoly coefficients.

    Stored x-outer: _slices[d] is None or (qmin, coeffs) where coeffs is the
    dense q-coefficient run of the x^d slice, starting at exponent qmin.
    """

    __slots__ = ("_slices",)

    def __init__(self, slices=()):
        cleaned = [s if s is None else _slice_norm(*s) for s in slices]
        while cleaned and cleaned[-1] is None:
            cleaned.pop()
        object.__setattr__(self, "_slices", tuple(cleaned))

    def __setattr__(self, *_):
        raise AttributeError("QLaurent is immutable")

    @classmethod
    def zero(cls):
        return _QL_ZERO

    @classmethod
    def one(cls):
        return _QL_ONE

    @classmethod
    def from_int(cls, c):
        if c == 0:
            return _QL_ZERO
        return cls(((0, (c,)),))

    @classmethod
    def from_xpoly(cls, p):
        return cls(tuple((0, (c,)) if c else None for c in p.coeffs))

    @classmethod
    def from_qpoly(cls, p, x_degree=0, q_shift=0):
        if p.is_zero():
            return _QL_ZERO
        return cls((None,) * x_degree + ((q_shift, p.coeffs),))

    @classmethod
    def monomial(cls, coeff=1, x_degree=0, q_exp=0):
        if coeff == 0:
            return _QL_ZERO
        return cls((None,) * x_degree + ((q_exp, (coeff,)),))

    def is_zero(self):
        return not self._slices

    def __bool__(self):
        return bool(self._slices)

    def x_degree(self):
        return len(self._slices) - 1

    def lowest_term(self):
        """(e, c) for the lowest q-term c*q^e, with c an XPoly; (0, 0) for
        the zero value."""
        e = self.min_q_exp()
        return e, XPoly([self.coeff(e, d) for d in range(len(self._slices))])

    def min_q_exp(self):
        """Smallest q exponent present; 0 for the zero value."""
        lows = [s[0] for s in self._slices if s is not None]
        return min(lows) if lows else 0

    def max_q_exp(self):
        highs = [s[0] + len(s[1]) - 1 for s in self._slices if s is not None]
        return max(highs) if highs else 0

    @property
    def terms(self):
        """Mapping q exponent -> XPoly coefficient (zeros omitted)."""
        table: dict[int, list[int]] = {}
        for d, s in enumerate(self._slices):
            if s is None:
                continue
            qmin, cs = s
            for i, c in enumerate(cs):
                if c:
                    row = table.setdefault(qmin + i, [])
                    if len(row) <= d:
                        row.extend([0] * (d + 1 - len(row)))
                    row[d] = c
        return {e: XPoly(row) for e, row in sorted(table.items())}

    def coeff(self, q_exp, x_deg):
        if not 0 <= x_deg < len(self._slices):
            return 0
        s = self._slices[x_deg]
        if s is None:
            return 0
        qmin, cs = s
        i = q_exp - qmin
        return cs[i] if 0 <= i < len(cs) else 0

    def __eq__(self, other):
        if isinstance(other, int):
            return self._slices == QLaurent.from_int(other)._slices
        if isinstance(other, QLaurent):
            return self._slices == other._slices
        return NotImplemented

    @classmethod
    def sum(cls, values):
        """Sum of an iterable of QLaurent values.

        Each x slice accumulates in place in one run that grows to cover the
        terms' q ranges, so a long sum makes no intermediate values.
        """
        runs = []   # runs[d] is None or [qmin, coefficient list]
        for value in values:
            slices = value._slices
            if len(slices) > len(runs):
                runs.extend([None] * (len(slices) - len(runs)))
            for d, s in enumerate(slices):
                if s is None:
                    continue
                qmin, cs = s
                cur = runs[d]
                if cur is None:
                    runs[d] = [qmin, list(cs)]
                    continue
                lo, run = cur
                if qmin < lo or qmin + len(cs) > lo + len(run):
                    new_lo = min(lo, qmin)
                    grown = [0] * (max(lo + len(run), qmin + len(cs)) - new_lo)
                    grown[lo - new_lo:lo - new_lo + len(run)] = run
                    cur[0] = lo = new_lo
                    cur[1] = run = grown
                off = qmin - lo
                run[off:off + len(cs)] = map(add, run[off:off + len(cs)], cs)
        return cls(runs)

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QLaurent.sum((self, other))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def _map(self, fn):
        # fn(qmin, run) -> (qmin, run) on each nonempty x-slice
        return QLaurent([None if s is None else fn(*s) for s in self._slices])

    def __neg__(self):
        return self._map(lambda qmin, cs: (qmin, map(neg, cs)))

    def __mul__(self, other):
        if isinstance(other, int):
            return self._map(lambda qmin, cs: (qmin, [other * c for c in cs]))
        if isinstance(other, QLaurent):
            return _ql_mul(self, other)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n):
        return _power(self, n, _QL_ONE)

    @staticmethod
    def _coerce(other):
        if isinstance(other, int):
            return QLaurent.from_int(other)
        if isinstance(other, QLaurent):
            return other
        return NotImplemented

    def shift_q(self, e):
        """Multiply by q^e."""
        if e == 0:
            return self
        return self._map(lambda qmin, cs: (qmin + e, cs))

    def mul_qpoly(self, p):
        """Multiply by a QPoly without lifting it to a QLaurent.

        Only tests call it, as the oracle for mul_qint_power.
        """
        return self._map(lambda qmin, cs: (qmin, _convolve(cs, p.coeffs)))

    def mul_qint_power(self, n, r=1, stride=1, order=None):
        """Multiply by the r-th power of 1 + q^stride + ... + q^((n-1)*stride).

        At stride 1 that factor is the n-th q-integer; at stride 2 it is the
        same q-integer taken at q^2.  Window sums keep every pass linear in
        the operand size, which matters once n runs into the thousands.

        Given an order, the product is taken in Z[x][q]/(q^order - 1) and
        equals the fold of the full product; every pass is then O(order)
        whatever n is.
        """
        if n < 1 or r < 0 or stride < 1 or (order is not None and order < 1):
            raise ValueError("need n >= 1, r >= 0, stride >= 1, order >= 1")
        if r == 0 or n == 1 or self.is_zero():
            return self if order is None else self.fold(order)

        def window(qmin, run):
            if order is not None:
                return 0, _window_slide_cyclic(_fold_cyclic(run, qmin, order),
                                               n, stride, order, r)
            for _ in range(r):
                run = _window_slide(run, n, stride)
            return qmin, run
        return self._map(window)

    def fold(self, order):
        """Image in Z[x][q]/(q^order - 1): each exponent e becomes e mod
        order, so every exponent lies in [0, order).

        This is a ring homomorphism, so products and sums may be folded
        term by term, and rem_monic_cyclic(mod, order) of a value equals
        that of its fold whenever the value has no negative exponent.
        """
        if order < 1:
            raise ValueError("fold order must be >= 1")
        if all(s is None or 0 <= s[0] and s[0] + len(s[1]) <= order
               for s in self._slices):
            return self
        return self._map(lambda qmin, cs: (0, _fold_cyclic(cs, qmin, order)))

    def _max_abs(self):
        # the largest coefficient magnitude; 0 for the zero value
        return max((max(map(abs, s[1])) for s in self._slices if s is not None),
                   default=0)

    def _x_rows(self, order):
        """The fold mod q^order - 1 as its x-slices, lowest x first, each
        padded to order q-coefficients: under x -> 2^bits (_pack_columns)
        they give the value's order q-columns."""
        rows = []
        for s in self.fold(order)._slices:
            row = [0] * order
            if s is not None:
                row[s[0]:s[0] + len(s[1])] = s[1]
            rows.append(row)
        return rows

    @classmethod
    def _x_unpacked(cls, cols, bits, depth):
        """Inverse of packing _x_rows for x-degree below depth and
        coefficients in [-2^(bits-1), 2^(bits-1)): the value with q^e-column
        cols[e]."""
        return cls([(0, row) for row in _unpack_columns(cols, bits, depth)])

    def _slice_mul(self, other):
        """The value whose x^d slice is the product of the x^d slices of
        this value and other."""
        return QLaurent([None if a is None or b is None
                         else (a[0] + b[0], _convolve(a[1], b[1]))
                         for a, b in zip(self._slices, other._slices)])

    def _slice_power(self, alpha, order=None):
        """The value whose x^d slice is the alpha-th power of this value's
        x^d slice.  Given an order, the fold of that value: a folded slice
        with no negative coefficient is raised by one packed integer power
        (_cyclic_run_power), and any other by a chain of products, each
        folded before the next one."""
        if order is None:
            out = self
            for _ in range(alpha - 1):
                out = out._slice_mul(self)
            return out

        def power(qmin, run):
            if min(run) >= 0:
                return 0, _cyclic_run_power(qmin, run, alpha, order)
            out = _fold_cyclic(run, qmin, order)
            for _ in range(alpha - 1):
                out = _fold_cyclic(_convolve(out, run), qmin, order)
            return 0, out
        folded = self.fold(order)
        return folded._map(power) if alpha > 1 else folded

    def subst_q_squared(self):
        """q -> q^2."""
        return self._map(lambda qmin, cs: (2 * qmin, _stretch(cs)))

    def eval_q_one(self):
        """Specialize q = 1, collapsing each x slice to its coefficient sum."""
        return XPoly([0 if s is None else sum(s[1]) for s in self._slices])

    def eval_xq(self, x0, q0_num, q0_den=1):
        """Evaluate at integer x and rational q = q0_num/q0_den.

        Returns (numerator, denominator) as an exact fraction, unreduced.
        Only tests call it, as an oracle for products, q -> q^2 and q = 1.
        """
        if q0_den == 0:
            raise ValueError("q denominator must be nonzero")
        if self.is_zero():
            return 0, 1
        shift = max(0, -self.min_q_exp())
        if q0_num == 0 and shift:
            raise ValueError("negative q exponents cannot be evaluated at q = 0")
        hi = self.max_q_exp() + shift
        num = 0
        for d, s in enumerate(self._slices):
            if s is None:
                continue
            qmin, cs = s
            xp = x0 ** d
            for i, c in enumerate(cs):
                if c:
                    e = qmin + i + shift
                    num += c * xp * q0_num ** e * q0_den ** (hi - e)
        mx = hi - shift
        if mx >= 0:
            return num, q0_num ** shift * q0_den ** mx
        return num * q0_den ** (-mx), q0_num ** shift

    def rem_monic(self, mod):
        """Canonical remainder of q^N * self modulo the monic QPoly mod.

        N clears the negative q exponents: N = max(0, -min_q_exp).  The
        result has q degrees in [0, deg(mod) - 1].
        """
        return self.divmod_monic(mod)[1]

    def divmod_monic(self, mod):
        """Full division data: (quotient, remainder, shift) with

            q^shift * self == quotient * mod + remainder

        and remainder equal to rem_monic(mod).
        """
        self._check_modulus(mod)
        shift = max(0, -self.min_q_exp())

        # the reference path: each part divides every slice on its own
        def part(i):
            return self._map(lambda qmin, cs: (0, _divmod_monic_lists(
                [0] * (qmin + shift) + list(cs), mod.coeffs)[i]))
        return part(0), part(1), shift

    def rem_monic_cyclic(self, mod, order):
        """rem_monic fast path for a modulus dividing q^order - 1.

        Exponents are first folded mod order (q^order acts as 1), which keeps
        the division step at size < order regardless of how large the value
        grew.  Agrees exactly with rem_monic.
        """
        self._check_modulus(mod)
        if order < 1:
            raise ValueError("order must be >= 1")
        if not _divides_q_power_minus_one(mod.coeffs, order):
            raise ValueError(f"modulus does not divide q^{order} - 1")
        shift = max(0, -self.min_q_exp())
        return self._map(lambda qmin, cs: (0, _divmod_monic_lists(
            _fold_cyclic(cs, qmin + shift, order), mod.coeffs)[1]))

    @staticmethod
    def _check_modulus(mod):
        if not isinstance(mod, QPoly) or not mod.is_monic() or mod.degree() < 1:
            raise ValueError("modulus must be a monic QPoly of degree >= 1")

    def __str__(self):
        return " + ".join(f"({c})" if e == 0 else f"q^{e}*({c})"
                          for e, c in self.terms.items()) or "0"

    def __repr__(self):
        return f"QLaurent({self})"

    @classmethod
    def parse(cls, text):
        """Inverse of __str__: 'q^-1*(1 + 2*x) + q^3*(5)' and friends."""
        text = text.strip()
        if text == "0":
            return _QL_ZERO
        depth = 0
        start = 0
        chunks = []
        for i, ch in enumerate(text):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth < 0:
                    raise ValueError(f"unbalanced parens in {text!r}")
            elif ch == "+" and depth == 0:
                chunks.append(text[start:i])
                start = i + 1
        if depth:
            raise ValueError(f"unbalanced parens in {text!r}")
        chunks.append(text[start:])
        terms = {}
        for chunk in chunks:
            chunk = chunk.strip()
            if not chunk.endswith(")"):
                raise ValueError(f"malformed QLaurent term {chunk!r}")
            head, inner = chunk[:-1].split("(", 1)
            head = head.strip()
            if head == "":
                e = 0
            elif head.endswith("*"):
                mon = head[:-1].strip()
                if mon == "q":
                    e = 1
                elif mon.startswith("q^"):
                    e = int(mon[2:])
                else:
                    raise ValueError(f"bad q monomial {mon!r} in {text!r}")
            else:
                raise ValueError(f"malformed QLaurent term {chunk!r}")
            if e in terms:
                raise ValueError(f"repeated q exponent {e} in {text!r}")
            terms[e] = XPoly.parse(inner)
        return cls.sum(cls.from_xpoly(p).shift_q(e) for e, p in terms.items())


@lru_cache(maxsize=256)
def _divides_q_power_minus_one(mod_coeffs, order):
    target = QPoly([-1] + [0] * (order - 1) + [1])
    return not isinstance(target.divexact(QPoly(mod_coeffs)), DivisionWitness)


def _extent(slices):
    # (index of the first nonempty slice, lowest q exponent, q-span)
    if len(slices) == 1:
        # most products have a q-only operand; read it off directly
        return 0, slices[0][0], len(slices[0][1])
    live = [s for s in slices if s is not None]
    lo = min([s[0] for s in live])
    hi = max([s[0] + len(s[1]) for s in live])
    return slices.index(live[0]), lo, hi - lo


def _flatten(slices, first, lo, width):
    # x-outer flat run from the first nonempty slice on: the x^d slice
    # starts at (d - first) * width, and the last slice is not padded
    last = slices[-1]
    flat = [0] * ((len(slices) - 1 - first) * width
                  + last[0] - lo + len(last[1]))
    for d in range(first, len(slices)):
        s = slices[d]
        if s is not None:
            off = (d - first) * width + s[0] - lo
            flat[off:off + len(s[1])] = s[1]
    return flat


def _ql_mul(a, b):
    # One convolution of the flattened operands (see the module docstring);
    # a square passes the same run twice, so _kronecker packs it once.
    sa, sb = a._slices, b._slices
    if not sa or not sb:
        return _QL_ZERO
    ka, lo_a, span_a = _extent(sa)
    kb, lo_b, span_b = _extent(sb)
    width = span_a + span_b - 1
    fa = _flatten(sa, ka, lo_a, width)
    fb = fa if sa == sb else _flatten(sb, kb, lo_b, width)
    flat = _convolve(fa, fb)
    lo = lo_a + lo_b
    return QLaurent((None,) * (ka + kb) + tuple(
        (lo, flat[i:i + width]) for i in range(0, len(flat), width)))


_QL_ZERO = QLaurent(())
_QL_ONE = QLaurent(((0, (1,)),))
