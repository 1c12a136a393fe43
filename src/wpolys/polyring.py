"""Exact dense polynomial arithmetic over the integers.

Three value types live here.  XPoly is Z[x], QPoly is Z[q] (used for moduli
such as cyclotomic polynomials), both on one dense implementation, and
QLaurent is a Laurent polynomial in q whose coefficients are integer
polynomials in x.  Everything is immutable
after construction and all arithmetic is exact.

Coefficient convolution switches to Kronecker substitution once operands are
large: the arrays are packed into single big integers, multiplied once, and
unpacked with balanced digit extraction.  CPython's integer multiply then
carries the real work.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, zip_longest

_SCHOOLBOOK_CUTOFF = 1024


def _trim(cs):
    n = len(cs)
    while n and cs[n - 1] == 0:
        n -= 1
    return cs[:n]


def _add_lists(a, b):
    return [x + y for x, y in zip_longest(a, b, fillvalue=0)]


def _sub_lists(a, b):
    return [x - y for x, y in zip_longest(a, b, fillvalue=0)]


def _pack(coeffs, bits):
    # Two's-complement pack: negative entries are stored masked, and an
    # indicator integer holding 1 one digit above each negative entry is
    # subtracted afterwards to restore the true signed value.
    nb = bits >> 3
    mask = (1 << bits) - 1
    buf = bytearray(len(coeffs) * nb)
    neg = None
    for i, c in enumerate(coeffs):
        if c:
            buf[i * nb:(i + 1) * nb] = (c & mask).to_bytes(nb, "little")
            if c < 0:
                if neg is None:
                    neg = bytearray(len(coeffs) * nb + nb)
                neg[(i + 1) * nb] = 1
    value = int.from_bytes(bytes(buf), "little")
    if neg is not None:
        value -= int.from_bytes(bytes(neg), "little")
    return value


def _unpack(value, bits, n):
    # Balanced digit extraction: every true coefficient is < 2^(bits-1) in
    # absolute value, so digits at or above the halfway mark encode a
    # negative coefficient plus a carry into the next digit.
    negate = value < 0
    if negate:
        value = -value
    nb = bits >> 3
    raw = value.to_bytes(n * nb + nb, "little")
    half = 1 << (bits - 1)
    full = 1 << bits
    out = []
    carry = 0
    for i in range(n):
        d = int.from_bytes(raw[i * nb:(i + 1) * nb], "little") + carry
        if d >= half:
            d -= full
            carry = 1
        else:
            carry = 0
        out.append(-d if negate else d)
    assert carry == 0
    return out


def _kronecker(a, b):
    amax = max(map(abs, a))
    bmax = max(map(abs, b))
    if amax == 0 or bmax == 0:
        return [0] * (len(a) + len(b) - 1)
    bound = amax * bmax * min(len(a), len(b))
    bits = bound.bit_length() + 2
    bits = (bits + 7) & ~7
    prod = _pack(a, bits) * _pack(b, bits)
    return _unpack(prod, bits, len(a) + len(b) - 1)


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
        pref = list(accumulate(run))
        w = len(run)
        total = pref[-1]
        return [(pref[i] if i < w else total)
                - (pref[i - n] if i >= n else 0)
                for i in range(w + n - 1)]
    out = [0] * (len(run) + stride * (n - 1))
    for res in range(stride):
        cls = run[res::stride]
        if cls:
            for j, val in enumerate(_window_slide(cls, n)):
                out[res + stride * j] = val
    return out


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
    q = [0] * (len(num) - dd)
    for pos in range(len(num) - 1 - dd, -1, -1):
        c = num[pos + dd]
        if c == 0:
            continue
        qc, rem = divmod(c, lead)
        if rem:
            return None, DivisionWitness(
                "coefficient", pos + dd,
                f"coefficient {c} at degree {pos + dd} not divisible by {lead}")
        q[pos] = qc
        for i, dc in enumerate(den):
            num[pos + i] -= qc * dc
    leftover = _trim(num)
    if leftover:
        return None, DivisionWitness(
            "remainder", len(leftover) - 1,
            f"nonzero remainder of degree {len(leftover) - 1}")
    return q, None


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
    # q^order - 1.  base is the absolute exponent of coeffs[0].
    out = [0] * order
    for i, c in enumerate(coeffs):
        if c:
            out[(base + i) % order] += c
    return out


@dataclass(frozen=True)
class DivisionWitness:
    """Why an exact division failed: obstruction kind, degree, and detail."""

    kind: str
    degree: int
    detail: str

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
    norm = text.replace("-", "+-").replace("++", "+")
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
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = type(self).const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def _coerce(self, other):
        if isinstance(other, int):
            return type(self).const(other)
        if isinstance(other, type(self)):
            return other
        return NotImplemented

    def coeff(self, e):
        return self.coeffs[e] if 0 <= e < len(self.coeffs) else 0

    def evaluate(self, v0):
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

    def subst_q_squared(self):
        out = [0] * (2 * len(self.coeffs) - 1) if self.coeffs else []
        for i, c in enumerate(self.coeffs):
            out[2 * i] = c
        return QPoly(out)


def _slice_norm(qmin, coeffs):
    # Canonical slice: nonzero first and last coefficient, or None if empty.
    lo = 0
    hi = len(coeffs)
    while hi > lo and coeffs[hi - 1] == 0:
        hi -= 1
    while lo < hi and coeffs[lo] == 0:
        lo += 1
    if lo == hi:
        return None
    return (qmin + lo, tuple(coeffs[lo:hi]))


class QLaurent:
    """Laurent polynomial in q with XPoly coefficients.

    Stored x-outer: _slices[d] is None or (qmin, coeffs) where coeffs is the
    dense q-coefficient run of the x^d slice, starting at exponent qmin.
    """

    __slots__ = ("_slices",)

    def __init__(self, slices=()):
        cleaned = [s if s is None else _slice_norm(s[0], list(s[1]))
                   for s in slices]
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
                seg = run[off:off + len(cs)]
                run[off:off + len(cs)] = [x + y for x, y in zip(seg, cs)]
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

    def __neg__(self):
        return QLaurent(tuple(
            None if s is None else (s[0], tuple(-c for c in s[1]))
            for s in self._slices))

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return _QL_ZERO
            return QLaurent(tuple(
                None if s is None else (s[0], tuple(other * c for c in s[1]))
                for s in self._slices))
        if isinstance(other, QLaurent):
            return _ql_mul(self, other)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a QLaurent")
        result = _QL_ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    @staticmethod
    def _coerce(other):
        if isinstance(other, int):
            return QLaurent.from_int(other)
        if isinstance(other, QLaurent):
            return other
        return NotImplemented

    def shift_q(self, e):
        """Multiply by q^e."""
        if e == 0 or self.is_zero():
            return self
        return QLaurent(tuple(
            None if s is None else (s[0] + e, s[1]) for s in self._slices))

    def mul_qpoly(self, p):
        """Multiply by a QPoly without lifting it to a QLaurent."""
        if p.is_zero() or self.is_zero():
            return _QL_ZERO
        cs = list(p.coeffs)
        return QLaurent(tuple(
            None if s is None else (s[0], _convolve(list(s[1]), cs))
            for s in self._slices))

    def mul_qint_power(self, n, r=1, stride=1):
        """Multiply by the r-th power of 1 + q^stride + ... + q^((n-1)*stride).

        At stride 1 that factor is the n-th q-integer; at stride 2 it is the
        same q-integer taken at q^2.  Window sums keep every pass linear in
        the operand size, which matters once n runs into the thousands.
        """
        if n < 1 or r < 0 or stride < 1:
            raise ValueError("need n >= 1, r >= 0, stride >= 1")
        if r == 0 or n == 1 or self.is_zero():
            return self
        out = []
        for s in self._slices:
            if s is None:
                out.append(None)
                continue
            qmin, cs = s
            run = list(cs)
            for _ in range(r):
                run = _window_slide(run, n, stride)
            out.append((qmin, run))
        return QLaurent(tuple(out))

    def subst_q_squared(self):
        """q -> q^2."""
        out = []
        for s in self._slices:
            if s is None:
                out.append(None)
                continue
            qmin, cs = s
            run = [0] * (2 * len(cs) - 1)
            for i, c in enumerate(cs):
                run[2 * i] = c
            out.append((2 * qmin, run))
        return QLaurent(out)

    def eval_q_one(self):
        """Specialize q = 1, collapsing each x slice to its coefficient sum."""
        return XPoly([0 if s is None else sum(s[1]) for s in self._slices])

    def eval_xq(self, x0, q0_num, q0_den=1):
        """Evaluate at integer x and rational q = q0_num/q0_den.

        Returns (numerator, denominator) as an exact fraction, unreduced.
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
        self._check_modulus(mod)
        shift = max(0, -self.min_q_exp())
        mcs = list(mod.coeffs)
        out = []
        for s in self._slices:
            if s is None:
                out.append(None)
                continue
            qmin, cs = s
            run = [0] * (qmin + shift) + list(cs)
            out.append((0, _divmod_monic_lists(run, mcs)[1]))
        return QLaurent(out)

    def divmod_monic(self, mod):
        """Full division data: (quotient, remainder, shift) with

            q^shift * self == quotient * mod + remainder

        and remainder equal to rem_monic(mod).
        """
        self._check_modulus(mod)
        shift = max(0, -self.min_q_exp())
        mcs = list(mod.coeffs)
        quots = []
        rems = []
        for s in self._slices:
            if s is None:
                quots.append(None)
                rems.append(None)
                continue
            qmin, cs = s
            run = [0] * (qmin + shift) + list(cs)
            qq, rr = _divmod_monic_lists(run, mcs)
            quots.append((0, qq))
            rems.append((0, rr))
        return QLaurent(quots), QLaurent(rems), shift

    def rem_monic_cyclic(self, mod, order):
        """rem_monic fast path for a modulus dividing q^order - 1.

        Exponents are first folded mod order (q^order acts as 1), which keeps
        the division step at size < order regardless of how large the value
        grew.  Agrees exactly with rem_monic.
        """
        self._check_modulus(mod)
        if not _divides_q_power_minus_one(mod.coeffs, order):
            raise ValueError(f"modulus does not divide q^{order} - 1")
        shift = max(0, -self.min_q_exp())
        mcs = list(mod.coeffs)
        out = []
        for s in self._slices:
            if s is None:
                out.append(None)
                continue
            qmin, cs = s
            folded = _fold_cyclic(cs, qmin + shift, order)
            out.append((0, _divmod_monic_lists(folded, mcs)[1]))
        return QLaurent(out)

    @staticmethod
    def _check_modulus(mod):
        if not isinstance(mod, QPoly) or not mod.is_monic() or mod.degree() < 1:
            raise ValueError("modulus must be a monic QPoly of degree >= 1")

    def __str__(self):
        if not self._slices:
            return "0"
        groups: dict[int, list[tuple[int, int]]] = {}
        for d, s in enumerate(self._slices):
            if s is None:
                continue
            qmin, cs = s
            for i, c in enumerate(cs):
                if c:
                    groups.setdefault(qmin + i, []).append((d, c))
        parts = []
        for e in sorted(groups):
            inner = _format_terms(groups[e], "x")
            if e == 0:
                parts.append(f"({inner})")
            else:
                parts.append(f"q^{e}*({inner})")
        return " + ".join(parts)

    def __repr__(self):
        return f"QLaurent({self})"

    @classmethod
    def parse(cls, text):
        """Inverse of __str__: 'q^-1*(1 + 2*x) + q^3*(5)' and friends."""
        text = text.strip()
        if text == "0":
            return _QL_ZERO
        table: dict[int, dict[int, int]] = {}
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
            if e in table:
                raise ValueError(f"repeated q exponent {e} in {text!r}")
            table[e] = _parse_terms(inner, "x")
        xmax = 0
        for xt in table.values():
            for d in xt:
                if d < 0:
                    raise ValueError(f"negative x exponent in {text!r}")
                xmax = max(xmax, d)
        slices = []
        for d in range(xmax + 1):
            entries = [(e, xt[d]) for e, xt in table.items() if xt.get(d)]
            if not entries:
                slices.append(None)
                continue
            entries.sort()
            lo = entries[0][0]
            run = [0] * (entries[-1][0] - lo + 1)
            for e, c in entries:
                run[e - lo] = c
            slices.append((lo, run))
        return cls(slices)


@lru_cache(maxsize=None)
def _divides_q_power_minus_one(mod_coeffs, order):
    target = QPoly([-1] + [0] * (order - 1) + [1])
    return not isinstance(target.divexact(QPoly(mod_coeffs)), DivisionWitness)


def _ql_mul(a, b):
    sa, sb = a._slices, b._slices
    if not sa or not sb:
        return _QL_ZERO
    same = sa == sb
    nout = len(sa) + len(sb) - 1
    lo = [None] * nout
    hi = [None] * nout
    pairs = []
    for i, si in enumerate(sa):
        if si is None:
            continue
        jstart = i if same else 0
        for j in range(jstart, len(sb)):
            sj = sb[j]
            if sj is None:
                continue
            d = i + j
            lo_e = si[0] + sj[0]
            hi_e = lo_e + len(si[1]) + len(sj[1]) - 2
            lo[d] = lo_e if lo[d] is None else min(lo[d], lo_e)
            hi[d] = hi_e if hi[d] is None else max(hi[d], hi_e)
            pairs.append((d, si, sj, same and i != j))
    runs = [None if lo[d] is None else [0] * (hi[d] - lo[d] + 1)
            for d in range(nout)]
    for d, si, sj, doubled in pairs:
        prod = _convolve(list(si[1]), list(sj[1]))
        run = runs[d]
        off = si[0] + sj[0] - lo[d]
        if doubled:
            for i, c in enumerate(prod):
                if c:
                    run[off + i] += 2 * c
        else:
            for i, c in enumerate(prod):
                if c:
                    run[off + i] += c
    return QLaurent(tuple(
        None if runs[d] is None else (lo[d], runs[d]) for d in range(nout)))


_QL_ZERO = QLaurent(())
_QL_ONE = QLaurent(((0, (1,)),))
