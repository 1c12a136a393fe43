import decimal
import operator
import random

import pytest

from wpolys import polyring
from wpolys.polyring import (
    _SCHOOLBOOK_CUTOFF,
    DivisionWitness,
    QLaurent,
    QPoly,
    XPoly,
    _convolve,
    _fold_cyclic,
    _kronecker,
    _pack,
    _pack_columns,
    _unpack,
    _unpack_columns,
)


def test_convolve_matches_schoolbook():
    rng = random.Random(11)
    for _ in range(300):
        la = rng.randint(1, 40)
        lb = rng.randint(1, 40)
        scale = 10 ** rng.choice((0, 0, 1, 9, 30))
        a = [rng.randint(-9, 9) * scale for _ in range(la)]
        b = [rng.randint(-9, 9) * scale for _ in range(lb)]
        direct = [0] * (la + lb - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                direct[i + j] += ai * bj
        assert _kronecker(a, b) == direct
        assert _convolve(a, b) == direct


def _schoolbook(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def _operands_at_bound(rng, target_bits):
    # all-equal magnitudes whose product bound amax*bmax*min(la, lb) has
    # bit length target_bits; with aligned signs the middle coefficient of
    # the product equals that bound
    while True:
        short = rng.randint(2, 24)
        bound = rng.randrange(1 << (target_bits - 1), 1 << target_bits)
        amax = max(1, rng.randrange(1, bound // short + 2) // 2)
        bmax = max(1, bound // (short * amax))
        if (amax * bmax * short).bit_length() == target_bits:
            longer = short + rng.randint(0, 8)
            return [amax] * short, [bmax] * longer


def test_kronecker_at_the_digit_bound():
    # every bound bit length from 2 to 65, so on both sides of each
    # multiple of 8: the digit width rounds up to whole bytes and leaves
    # between 2 and 9 bits above the bound
    rng = random.Random(5)
    for target in range(2, 66):
        for _ in range(4):
            a, b = _operands_at_bound(rng, target)
            if rng.random() < 0.5:
                a, b = b, a
            bound = max(a) * max(b) * min(len(a), len(b))
            for sa, sb in ((1, 1), (-1, -1), (1, -1), (-1, 1)):
                sa_ops = [sa * x for x in a]
                sb_ops = [sb * x for x in b]
                direct = _schoolbook(sa_ops, sb_ops)
                assert max(map(abs, direct)) == bound
                assert _kronecker(sa_ops, sb_ops) == direct
            # a negative entry next to a positive one: the product digits
            # change sign from one position to the next, so unpack carries
            mixed_a = [x if i % 2 else -x for i, x in enumerate(a)]
            mixed_b = list(b)
            mixed_b[rng.randrange(len(b))] *= -1
            for x, y in ((mixed_a, b), (a, mixed_b), (mixed_a, mixed_b)):
                assert _kronecker(x, y) == _schoolbook(x, y)


def test_pack_unpack_round_trip_at_the_digit_extremes():
    rng = random.Random(9)
    for bits in (8, 16, 24, 64, 136):
        half = 1 << (bits - 1)
        extremes = (-half, half - 1, -(half - 1), 0, 1, -1)
        for _ in range(60):
            c = [rng.choice(extremes) for _ in range(rng.randint(1, 12))]
            assert _unpack(_pack(c, bits), bits, len(c)) == c
        for c in ([-half], [-half, -half], [0, -half], [half - 1, -half],
                  [-half, -(half - 1)], [-(half - 1), half - 1]):
            assert _unpack(_pack(c, bits), bits, len(c)) == c


def test_column_pack_unpack_round_trip_at_the_digit_extremes():
    # every column of the rows under x -> 2^bits, packed as a product tree:
    # row counts 1, 2, 3 and 7 (odd counts carry a row up a level), zero
    # rows, N = 1 column, and entries at the ends of the balanced range
    rng = random.Random(12)
    for bits in (8, 16, 40):
        half = 1 << (bits - 1)
        extremes = (-half, half - 1, -(half - 1), 0, 1, -1)
        for depth in (1, 2, 3, 7):
            for order in (1, 2, 5):
                for _ in range(20):
                    rows = [[rng.choice(extremes) for _ in range(order)]
                            for _ in range(depth)]
                    if rng.random() < 0.3:
                        rows[rng.randrange(depth)] = [0] * order
                    cols = _pack_columns(rows, bits)
                    assert cols == [sum(row[e] << bits * d
                                        for d, row in enumerate(rows))
                                    for e in range(order)]
                    assert _unpack_columns(cols, bits, depth) == [
                        tuple(row) for row in rows]
                zero = [[0] * order for _ in range(depth)]
                assert _unpack_columns(_pack_columns(zero, bits), bits,
                                       depth) == [tuple(row) for row in zero]
        for rows in ([[-half]], [[-half], [half - 1], [-half]],
                     [[half - 1, -half]] * 7):
            assert _unpack_columns(_pack_columns(rows, bits), bits,
                                   len(rows)) == [tuple(r) for r in rows]


def test_convolve_edge_cases():
    assert _convolve([], [1, 2]) == []
    assert _convolve([3], [1, 2]) == [3, 6]
    assert _convolve([0, 0], [0]) == [0, 0]
    big = [10 ** 40, -(10 ** 41)]
    assert _kronecker(big, big) == [10 ** 80, -2 * 10 ** 81, 10 ** 82]


def _random_xpoly(rng):
    return XPoly([rng.randint(-9, 9) for _ in range(rng.randint(0, 9))])


def test_xpoly_ring_axioms():
    rng = random.Random(23)
    one = XPoly.const(1)
    for _ in range(1000):
        a, b, c = (_random_xpoly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a - b) + b == a
        assert a * one == a
        assert (a * b) * c == a * (b * c)


def test_xpoly_basics():
    p = XPoly((1, 5, 5))
    assert str(p) == "1 + 5*x + 5*x^2"
    assert p.degree() == 2 and p.coeff(1) == 5 and p.coeff(7) == 0
    assert p.evaluate(2) == 31
    assert XPoly((0, 0)).is_zero() and XPoly().degree() == -1
    assert XPoly((1, -1)) ** 2 == XPoly((1, -2, 1))
    assert str(XPoly((0, -1, 2))) == "-x + 2*x^2"
    assert str(XPoly()) == "0"
    assert 2 * p == p + p
    assert 1 + p == XPoly((2, 5, 5))


def test_xpoly_immutable_and_hashable():
    p = XPoly((1, 2))
    try:
        p.coeffs = (3,)
        assert False, "XPoly must be immutable"
    except AttributeError:
        pass
    assert len({XPoly((1, 2)), XPoly((1, 2)), XPoly((2, 1))}) == 2


def test_xpoly_divexact():
    rng = random.Random(5)
    for _ in range(250):
        a = _random_xpoly(rng)
        b = _random_xpoly(rng)
        if b.is_zero():
            continue
        assert (a * b).divexact(b) == a
    w = XPoly((1, 1)).divexact(XPoly((0, 2)))
    assert isinstance(w, DivisionWitness) and w.kind == "coefficient"
    w = XPoly((1, 0, 1)).divexact(XPoly((1, 1)))
    assert isinstance(w, DivisionWitness) and w.kind == "remainder"
    assert XPoly((2, 4)).divexact(2) == XPoly((1, 2))
    assert isinstance(XPoly((1, 2)).divexact(2), DivisionWitness)
    assert XPoly().divexact(XPoly((1, 1))) == XPoly()


def test_xpoly_affine_subst():
    rng = random.Random(7)
    for _ in range(200):
        p = _random_xpoly(rng)
        c0 = rng.randint(-5, 5)
        c1 = rng.randint(-5, 5)
        q = p.affine_subst(c0, c1)
        for x0 in (-2, 0, 1, 3):
            assert q.evaluate(x0) == p.evaluate(c0 + c1 * x0)
        assert p.affine_subst(0, 1) == p


def test_xpoly_parse_roundtrip():
    rng = random.Random(9)
    for _ in range(200):
        p = _random_xpoly(rng)
        assert XPoly.parse(str(p)) == p
    assert XPoly.parse("0") == XPoly()
    assert XPoly.parse("x") == XPoly((0, 1))
    assert XPoly.parse("-x^2 + 3") == XPoly((3, 0, -1))


def test_qpoly_basics():
    phi6 = QPoly((1, -1, 1))
    assert str(phi6) == "1 - q + q^2"
    assert phi6.is_monic() and phi6.degree() == 2
    assert phi6.subst_q_squared() == QPoly((1, 0, -1, 0, 1))
    assert phi6.evaluate(2) == 3
    q3 = QPoly((1, 1, 1))
    assert q3 * QPoly((1, 1)) == QPoly((1, 2, 2, 1))
    assert (q3 ** 2).coeffs == (1, 2, 3, 2, 1)
    quot = QPoly((1, 2, 2, 1)).divexact(QPoly((1, 1)))
    assert quot == q3
    assert isinstance(QPoly((1, 1, 1)).divexact(QPoly((1, 1))), DivisionWitness)


def _random_qlaurent(rng):
    slices = []
    for _ in range(rng.randint(0, 4)):
        qmin = rng.randint(-6, 6)
        run = [rng.randint(-9, 9) for _ in range(rng.randint(0, 5))]
        slices.append((qmin, run) if run else None)
    return QLaurent(slices)


def test_qlaurent_ring_axioms():
    rng = random.Random(31)
    one = QLaurent.one()
    for _ in range(1000):
        a, b, c = (_random_qlaurent(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a - b) + b == a
        assert a * one == a
        assert (a * b) * c == a * (b * c)
        assert a ** 2 == a * a and a ** 3 == a * a * a


def test_qlaurent_evaluation_consistency():
    # multiplication must commute with evaluation at integer points
    rng = random.Random(37)
    for _ in range(200):
        a = _random_qlaurent(rng)
        b = _random_qlaurent(rng)
        prod = a * b
        for x0, qn, qd in ((1, 2, 1), (-2, 3, 2), (3, -1, 3)):
            na, da = a.eval_xq(x0, qn, qd)
            nb, db = b.eval_xq(x0, qn, qd)
            np_, dp = prod.eval_xq(x0, qn, qd)
            assert na * nb * dp == np_ * da * db


def test_qlaurent_construction_and_accessors():
    v = QLaurent(((2, (1, 0, 3)), None, (-1, (5,))))
    assert v.min_q_exp() == -1 and v.max_q_exp() == 4
    assert v.x_degree() == 2
    assert v.coeff(2, 0) == 1 and v.coeff(4, 0) == 3 and v.coeff(-1, 2) == 5
    assert v.coeff(3, 0) == 0 and v.coeff(2, 1) == 0
    terms = v.terms
    assert terms[2] == XPoly((1,)) and terms[-1] == XPoly((0, 0, 5))
    assert QLaurent.from_int(0).is_zero()
    assert QLaurent.from_xpoly(XPoly((1, 2))).eval_q_one() == XPoly((1, 2))
    assert QLaurent.monomial(3, 1, -2).coeff(-2, 1) == 3


def test_qlaurent_canonical_text():
    v = QLaurent.monomial(1, 0, -1) + QLaurent.monomial(2, 1, -1) \
        + QLaurent.monomial(5, 0, 3)
    assert str(v) == "q^-1*(1 + 2*x) + q^3*(5)"
    assert QLaurent.parse(str(v)) == v
    assert str(QLaurent.zero()) == "0"
    assert QLaurent.parse("0").is_zero()
    rng = random.Random(41)
    for _ in range(200):
        v = _random_qlaurent(rng)
        assert QLaurent.parse(str(v)) == v


def test_qlaurent_shift_subst_eval():
    v = QLaurent(((1, (1, 2)), (0, (3,))))
    assert v.shift_q(-4).min_q_exp() == -4
    assert v.shift_q(2).shift_q(-2) == v
    w = v.subst_q_squared()
    assert w.coeff(2, 0) == 1 and w.coeff(4, 0) == 2 and w.coeff(0, 1) == 3
    assert v.eval_q_one() == XPoly((3, 3))
    rng = random.Random(43)
    for _ in range(100):
        a = _random_qlaurent(rng)
        n1, d1 = a.subst_q_squared().eval_xq(2, 3, 2)
        n2, d2 = a.eval_xq(2, 9, 4)
        assert n1 * d2 == n2 * d1


def test_rem_monic_known_values():
    q3 = QLaurent.from_qpoly(QPoly((1, 1, 1)))  # [3]
    phi2 = QPoly((1, 1))
    assert str(q3.rem_monic(phi2)) == "(1)"
    assert q3.rem_monic(QPoly((1, 1, 1))).is_zero()
    assert QLaurent.zero().rem_monic(phi2).is_zero()
    # negative exponents are cleared by one global q-power first
    v = QLaurent.monomial(1, 0, -1)  # q^-1
    r = v.rem_monic(phi2)            # q^1 * q^-1 = 1
    assert str(r) == "(1)"


def test_divmod_monic_reconstruction():
    rng = random.Random(47)
    mods = [QPoly((1, 1)), QPoly((1, 1, 1)), QPoly((-1, 0, 0, 1)),
            QPoly((1, 0, -1, 1))]
    for _ in range(300):
        a = _random_qlaurent(rng)
        mod = mods[rng.randrange(len(mods))]
        quot, rem, shift = a.divmod_monic(mod)
        lhs = a.shift_q(shift)
        assert lhs == quot * QLaurent.from_qpoly(mod) + rem
        assert rem == a.rem_monic(mod)
        assert rem.is_zero() or rem.max_q_exp() < mod.degree()
        assert rem.is_zero() or rem.min_q_exp() >= 0


def test_rem_monic_cyclic_agrees():
    rng = random.Random(53)
    cyclics = [(QPoly((1, 1)), 2), (QPoly((1, 1, 1)), 3),
               (QPoly((1, 1, 1, 1, 1)), 5), (QPoly((1, 0, 1)), 4),
               (QPoly((1, -1, 1)), 6)]
    for _ in range(300):
        a = _random_qlaurent(rng)
        mod, order = cyclics[rng.randrange(len(cyclics))]
        assert a.rem_monic_cyclic(mod, order) == a.rem_monic(mod)


def test_rem_monic_rejects_bad_modulus():
    v = QLaurent.one()
    for bad in (QPoly((2, 1, 1)), QPoly((1,)), QPoly()):
        if bad.is_monic() and bad.degree() >= 1:
            continue
        try:
            v.rem_monic(bad)
            assert False, "expected rejection"
        except ValueError:
            pass
    try:
        v.rem_monic_cyclic(QPoly((1, -1, 1)), 3)  # phi_6 does not divide q^3-1
        assert False, "expected rejection"
    except ValueError:
        pass


def test_qpoly_parse_roundtrip():
    from wpolys.qobjects import cyclotomic
    for d in range(1, 31):
        phi = cyclotomic(d)
        assert QPoly.parse(str(phi)) == phi
    rng = random.Random(13)
    for _ in range(200):
        scale = 10 ** rng.choice((0, 0, 1, 30))
        p = QPoly([rng.randint(-9, 9) * scale
                   for _ in range(rng.randint(0, 9))])
        assert QPoly.parse(str(p)) == p
    assert QPoly.parse("-q^2 + 3") == QPoly((3, 0, -1))
    assert QPoly.parse("0") == QPoly()
    for text in ("1 + x", "q^-1"):
        with pytest.raises(ValueError):
            QPoly.parse(text)


def test_xpoly_and_qpoly_do_not_mix():
    x, q = XPoly((1, 2)), QPoly((1, 2))
    for op in (operator.add, operator.sub, operator.mul):
        for a, b in ((x, q), (q, x)):
            with pytest.raises(TypeError):
                op(a, b)
    for a, b in ((x, q), (q, x)):
        with pytest.raises(TypeError):
            a.divexact(b)
    assert x != q and q != x
    assert str(x) == "1 + 2*x" and str(q) == "1 + 2*q"
    with pytest.raises(ValueError):
        QLaurent.one().rem_monic(XPoly((1, 1)))


def test_qlaurent_sum_matches_termwise_xpoly_sum():
    rng = random.Random(29)
    assert QLaurent.sum([]) == QLaurent.zero()
    for _ in range(300):
        values = [_random_qlaurent(rng) for _ in range(rng.randint(1, 6))]
        expect = {}
        for v in values:
            for e, c in v.terms.items():
                expect[e] = expect.get(e, XPoly()) + c
        total = QLaurent.sum(iter(values))
        assert total.terms == {e: c for e, c in expect.items() if c}
        assert QLaurent.sum(values + [-v for v in values]).is_zero()


def test_fold_is_a_ring_homomorphism():
    rng = random.Random(59)
    for _ in range(400):
        a, b = _random_qlaurent(rng), _random_qlaurent(rng)
        order = rng.randint(1, 9)
        fa, fb = a.fold(order), b.fold(order)
        assert (a * b).fold(order) == (fa * fb).fold(order)
        assert (a + b).fold(order) == (fa + fb).fold(order)
        assert fa.is_zero() or (fa.min_q_exp() >= 0
                                and fa.max_q_exp() < order)
        assert fa.eval_q_one() == a.eval_q_one()
    with pytest.raises(ValueError):
        QLaurent.one().fold(0)


def test_fold_on_both_sides_of_the_lap_cutoff():
    # _fold_cyclic sums stride slices from four laps of the order on and
    # walks the terms below that; both must take each exponent mod order
    rng = random.Random(73)
    for _ in range(300):
        order = rng.randint(1, 12)
        p, r = (QPoly([rng.randint(-9, 9)
                       for _ in range(rng.randint(0, laps * order))])
                for laps in (8, 3))
        shift = rng.randint(-30, 30)
        image = [0] * order
        shifted = [0] * order
        for e, c in enumerate(p.coeffs):
            image[e % order] += c
            shifted[(e + shift) % order] += c
        assert p.fold(order) == QPoly(image)
        assert (QLaurent.from_qpoly(p, q_shift=shift).fold(order)
                == QLaurent.from_qpoly(QPoly(shifted)))
        product = [0] * order
        for i, a in enumerate(p.coeffs):
            for j, b in enumerate(r.coeffs):
                product[(i + j) % order] += a * b
        assert (p.fold(order) * r.fold(order)).fold(order) == QPoly(product)
    with pytest.raises(ValueError):
        QPoly((1,)).fold(0)


def test_fold_keeps_the_cyclic_remainder():
    from wpolys.qobjects import cyclotomic
    rng = random.Random(61)
    for _ in range(300):
        v = _random_qlaurent(rng)
        v = v.shift_q(max(0, -v.min_q_exp()) + rng.randint(0, 20))
        d = rng.randint(2, 12)
        order = d * rng.randint(1, 3)
        mod = cyclotomic(d)
        assert (v.fold(order).rem_monic_cyclic(mod, order)
                == v.rem_monic_cyclic(mod, order))


def test_folded_qint_splits_into_whole_periods():
    # [M] at q^s = (M // L) [L] + [M mod L] at q^s modulo q^N - 1, where
    # L = N / gcd(s, N); given the order N, mul_qint_power takes the r-th
    # power of [M] at q^s there, and equals the fold of the full product
    import math
    rng = random.Random(67)
    for _ in range(200):
        v = _random_qlaurent(rng)
        if v.is_zero():
            continue
        stride = rng.randint(1, 5)
        order = rng.randint(1, 12)
        period = order // math.gcd(stride, order)
        for big in (period - 1, period, period + 1, 3 * period + 2):
            if big < 1:
                continue
            laps, rest = divmod(big, period)
            split = v.mul_qint_power(period, 1, stride) * laps
            if rest:
                split = split + v.mul_qint_power(rest, 1, stride)
            assert (split.fold(order)
                    == v.mul_qint_power(big, 1, stride).fold(order))
            for r in range(4):
                assert (v.mul_qint_power(big, r, stride, order)
                        == v.mul_qint_power(big, r, stride).fold(order))


def _termwise_fold(coeffs, base, order):
    out = [0] * order
    for i, c in enumerate(coeffs):
        out[(base + i) % order] += c
    return out


def test_fold_cyclic_matches_the_termwise_fold():
    # copy or rotation within one lap, lap-by-lap sums up to four laps and
    # stride-slice sums from four laps on, each at negative and large bases
    rng = random.Random(79)
    for order in range(1, 13):
        for laps in range(9):
            for extra in {0, 1, order - 1}:
                size = max(0, laps * order + extra - (order if laps else 0))
                run = [rng.randint(-50, 50) for _ in range(size)]
                for base in (0, 1, -1, -order - 2, 3 * order + 1,
                             rng.randint(-100, 100)):
                    want = _termwise_fold(run, base, order)
                    got = polyring._fold_cyclic(run, base, order)
                    assert got == want, (order, size, base)
                    assert polyring._fold_cyclic(tuple(run), base,
                                                 order) == want


def test_window_slide_matches_the_explicit_factor():
    # 1 + q^stride + ... + q^((n-1)*stride) multiplied out by _convolve, on
    # runs shorter and longer than the stride
    rng = random.Random(89)
    for stride in range(1, 7):
        for size in sorted({1, stride - 1, stride, stride + 1, 3 * stride + 2,
                            rng.randint(1, 40)} - {0}):
            run = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(size)]
            for n in (1, 2, 3, stride + 1, rng.randint(1, 12)):
                factor = [0] * (stride * (n - 1) + 1)
                factor[::stride] = [1] * n
                assert (polyring._window_slide(run, n, stride)
                        == _convolve(run, factor)), (stride, size, n)


def test_window_slide_cyclic_matches_the_folded_linear_window():
    # prefix sums on each cycle of q^stride, for strides that divide the
    # order and for those that do not
    import math
    rng = random.Random(83)
    for order in range(1, 41):
        for stride in range(1, 7):
            period = order // math.gcd(stride, order)
            run = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(order)]
            sizes = {0, 1, period - 1, period, period + 1, 2 * period + 1,
                     3 * period, rng.randint(1, 3 * period)}
            for n in sorted(size for size in sizes if size >= 0):
                want = (polyring._fold_cyclic(
                    polyring._window_slide(run, n, stride), 0, order)
                    if n else [0] * order)
                got = polyring._window_slide_cyclic(run, n, stride, order)
                assert got == want, (order, stride, n)


def test_window_slide_cyclic_runs_r_passes_in_one_call():
    rng = random.Random(89)
    for order in range(1, 25):
        for stride in range(1, 6):
            run = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(order)]
            n = rng.randint(1, 3 * order)
            want = run
            for r in range(5):
                assert polyring._window_slide_cyclic(
                    run, n, stride, order, r) == want, (order, stride, r)
                want = polyring._window_slide_cyclic(want, n, stride, order)


def test_cyclic_run_power_matches_the_folded_product_chain():
    # nonnegative runs at random starts, against alpha - 1 convolutions each
    # folded; all-equal runs of full length make every coefficient of the
    # power exactly c^alpha order^(alpha-1), the bound of _power_bits
    rng = random.Random(101)
    for order in range(1, 30):
        for alpha in range(2, 6):
            runs = [(0, [c] * order) for c in (1, 255, 256, 2 ** 16 - 1)]
            for _ in range(4):
                size = rng.randint(1, order)
                run = [rng.randint(0, 10 ** rng.randint(0, 12))
                       for _ in range(size)]
                run[rng.randrange(size)] += 1
                runs.append((rng.randint(0, order - size), run))
            for qmin, run in runs:
                base = _fold_cyclic(run, qmin, order)
                want = base
                for _ in range(alpha - 1):
                    want = _fold_cyclic(_convolve(want, base), 0, order)
                got = polyring._cyclic_run_power(qmin, run, alpha, order)
                assert got == want, (order, alpha, qmin, run)
                if len(set(run)) == 1 and len(run) == order:
                    assert set(got) == {run[0] ** alpha
                                        * order ** (alpha - 1)}


def _bytearray_pack(coeffs, bits):
    # the one-entry-at-a-time two's-complement pack that _pack replaced
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


def test_pack_matches_the_bytearray_loop():
    # seeded signed runs at 8 to 160 bits, zeros and the digit extremes
    # +-2^(bits-1) included, and all-nonnegative runs, which skip the
    # indicator
    rng = random.Random(131)
    for _ in range(3000):
        bits = 8 * rng.randint(1, 20)
        half = 1 << (bits - 1)
        pool = (0, 0, 1, -1, half, -half, half - 1, -(half - 1))
        run = [rng.choice(pool) if rng.random() < 0.3
               else rng.randint(-half, half)
               for _ in range(rng.randint(0, 40))]
        if rng.random() < 0.3:
            run = list(map(abs, run))
        assert _pack(run, bits) == _bytearray_pack(run, bits), (bits, run)


def test_cyclic_run_product_matches_schoolbook():
    # nonnegative runs of at most order terms at random rotations, against
    # the fold of their schoolbook product, from 1-bit to 1,300-bit digits
    rng = random.Random(103)
    for order in range(1, 17):
        for _ in range(40):
            a, b = ([rng.randint(0, 10 ** rng.choice((0, 2, 12, 400)))
                     for _ in range(rng.randint(1, order))] for _ in "ab")
            a[rng.randrange(len(a))] += 1
            b[rng.randrange(len(b))] += 1
            qmin = rng.randint(-3 * order, 3 * order)
            want = _fold_cyclic(_schoolbook(a, b), qmin, order)
            assert polyring._cyclic_run_product(qmin, a, b, order) == want
    # all-equal runs of full length reach the bound of _product_bits
    for c in (1, 255, 2 ** 16 - 1):
        assert polyring._cyclic_run_product(0, [c] * 9, [c] * 9, 9) == \
            [c * c * 9] * 9


def test_cyclic_run_product_with_a_short_bound_raises(monkeypatch):
    # a carry out of a digit lowers the digit sum below sum(a) sum(b), so
    # too few bits raise instead of giving a wrong product
    monkeypatch.setattr(polyring, "_product_bits", lambda a, b: 8)
    with pytest.raises(ArithmeticError, match="bound is too small"):
        polyring._cyclic_run_product(0, [200] * 5, [200] * 5, 5)
    assert polyring._cyclic_run_product(0, [1] * 5, [1] * 5, 5) == [5] * 5


def test_fold_of_a_folded_value_is_that_value():
    v = QLaurent.parse("q^2*(1 + x) + q^4*(3*x^2)")
    assert v.fold(5) is v
    assert v.fold(4) == QLaurent.parse("(3*x^2) + q^2*(1 + x)")
    assert v.shift_q(-1).fold(5) == QLaurent.parse(
        "q*(1 + x) + q^3*(3*x^2)")


def test_unpack_rejects_a_digit_above_its_n_blocks():
    # a nonzero digit past the n digits read means a wrong digit bound, as
    # in _decimal_unpack; pytest.raises is not stripped by python -O
    for value, bits, n in ((256, 8, 1), (1 << 16, 8, 2), (-256, 8, 1),
                           (1 << 40, 16, 2), ((1 << 24) + 5, 8, 2)):
        with pytest.raises(OverflowError):
            _unpack(value, bits, n)
    assert _unpack(_pack([-1, 1], 8), 8, 2) == [-1, 1]
    assert _unpack(-(1 << 8), 8, 2) == [0, -1]


def test_rem_monic_cyclic_matches_rem_monic_below_zero():
    from wpolys.qobjects import cyclotomic
    rng = random.Random(71)
    for _ in range(300):
        v = _random_qlaurent(rng)
        if v.is_zero():
            continue
        v = v.shift_q(-v.max_q_exp() - rng.randint(1, 15))
        assert v.min_q_exp() < 0
        d = rng.randint(2, 12)
        order = d * rng.randint(1, 3)
        assert (v.rem_monic_cyclic(cyclotomic(d), order)
                == v.rem_monic(cyclotomic(d)))


def test_divisibility_checks_keep_at_most_256_entries():
    # rem_monic_cyclic checks once per (modulus, order) that the modulus
    # divides q^order - 1; like _rem_spread, that table keeps at most 256
    # entries however many distinct checks a process makes
    table = polyring._divides_q_power_minus_one
    table.cache_clear()
    v = QLaurent.parse("q^-3*(1 + x) + q^5*(2)")
    mod = QPoly((1, 1))
    for order in range(2, 602, 2):
        assert v.rem_monic_cyclic(mod, order) == v.rem_monic(mod)
    info = table.cache_info()
    assert info.misses == 300
    assert info.maxsize == 256 and info.currsize <= 256


def test_lowest_term():
    v = QLaurent.parse("q^-2*(3*x^2) + q^-1*(1) + q^4*(x)")
    assert v.lowest_term() == (-2, XPoly((0, 0, 3)))
    assert QLaurent.zero().lowest_term() == (0, XPoly())


def test_result_guards_survive_optimize():
    # python -O strips asserts; these guards protect results and must raise
    import os
    import subprocess
    import sys

    import wpolys
    src = os.path.dirname(os.path.dirname(os.path.abspath(wpolys.__file__)))
    code = """
from wpolys import polyring, qobjects, wpoly
from wpolys.polyring import DivisionWitness, QLaurent, QPoly

def raises(fn, *args):
    try:
        fn(*args)
    except ArithmeticError:
        return True
    return False

checks = [raises(polyring._unpack, 200, 8, 1)]
wpoly._defining_base = lambda k, j: QLaurent.one()
checks.append(raises(wpoly.q_w_poly, 3, 1))
QPoly.divexact = lambda self, other: DivisionWitness("remainder", 0, "forced")
checks.append(raises(qobjects._ratio_step, (1,), 1, 2))
checks.append(raises(qobjects.cyclotomic, 6))
print(checks)
"""
    done = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True,
        timeout=60, env=dict(os.environ, PYTHONPATH=src))
    assert done.stdout.strip() == "[True, True, True, True]", done.stderr


def _termwise_product(a, b):
    # independent reference for _ql_mul: every pair of (q, x) terms
    out = {}
    for e, c in a.terms.items():
        for f, d in b.terms.items():
            for i, ci in enumerate(c.coeffs):
                for j, dj in enumerate(d.coeffs):
                    out[e + f, i + j] = out.get((e + f, i + j), 0) + ci * dj
    return {key: c for key, c in out.items() if c}


def _as_terms(value):
    return {(e, i): ci for e, c in value.terms.items()
            for i, ci in enumerate(c.coeffs) if ci}


def _random_product_operand(rng):
    scale = rng.choice((1, 9, 10 ** 6, 10 ** 40))
    if rng.random() < 0.15:
        return QLaurent.monomial(rng.choice((-1, 1)) * rng.randint(1, scale),
                                 x_degree=rng.randint(0, 4),
                                 q_exp=rng.randint(-9, 9))
    slices = [None] * rng.randint(0, 3)
    for _ in range(rng.randint(1, 6)):
        if rng.random() < 0.25:
            slices.append(None)
            continue
        run = [rng.randint(-scale, scale) for _ in range(rng.randint(1, 40))]
        slices.append((rng.randint(-20, 20), run))
    return QLaurent(slices)


def test_packed_product_matches_termwise_product(monkeypatch):
    # mixed signs, empty and leading empty x-slices, x-monomials, negative q
    # exponents and squares, on both sides of the schoolbook cutoff and,
    # with the decimal cutoff lowered, of the decimal one
    monkeypatch.setattr(polyring, "_DECIMAL_CUTOFF", 3000)
    paths = {"kronecker": 0, "decimal": 0, "schoolbook": 0}

    def counted(name, fn):
        def wrapped(*args):
            paths[name] += 1
            return fn(*args)
        return wrapped

    convolve = polyring._convolve

    def spy_convolve(a, b):
        if len(a) > 1 and len(b) > 1 and len(a) * len(b) <= _SCHOOLBOOK_CUTOFF:
            paths["schoolbook"] += 1
        return convolve(a, b)

    monkeypatch.setattr(polyring, "_convolve", spy_convolve)
    monkeypatch.setattr(polyring, "_kronecker",
                        counted("kronecker", polyring._kronecker))
    monkeypatch.setattr(polyring, "_decimal_pack",
                        counted("decimal", polyring._decimal_pack))
    rng = random.Random(71)
    for _ in range(400):
        a = _random_product_operand(rng)
        b = a if rng.random() < 0.2 else _random_product_operand(rng)
        assert _as_terms(a * b) == _termwise_product(a, b)
        assert a * b == b * a
    assert all(paths.values()), paths


def test_decimal_kronecker_at_the_digit_bound(monkeypatch):
    # the decimal path's balanced extraction, at the same bounds as the
    # binary one, and its pack/unpack round trip at the block extremes
    monkeypatch.setattr(polyring, "_DECIMAL_CUTOFF", 0)
    rng = random.Random(13)
    for target in range(2, 70, 3):
        for _ in range(3):
            a, b = _operands_at_bound(rng, target)
            mixed = [x if i % 2 else -x for i, x in enumerate(a)]
            for x, y in ((a, b), (mixed, b), ([-v for v in a], b)):
                assert _kronecker(x, y) == _schoolbook(x, y)
            assert _kronecker(mixed, mixed) == _schoolbook(mixed, mixed)
    context = polyring._decimal_context()
    for digits in (1, 2, 3, 19, 40):
        half = 10 ** digits // 2
        extremes = (-half, half - 1, -(half - 1), 0, 1, -1)
        for _ in range(60):
            c = [rng.choice(extremes) for _ in range(rng.randint(1, 12))]
            packed = polyring._decimal_pack(c, digits, context)
            assert polyring._decimal_unpack(packed, digits, len(c)) == c
    with pytest.raises(OverflowError):
        polyring._decimal_unpack(polyring._decimal_pack([7], 2, context), 1, 1)


def test_decimal_path_needs_libmpdec(monkeypatch):
    # without the C accelerator, decimal is the slow pure-Python module
    monkeypatch.setattr(polyring, "_DECIMAL_CUTOFF", 0)
    monkeypatch.delattr(decimal, "__libmpdec_version__", raising=False)
    monkeypatch.setattr(polyring, "_decimal_pack", None)
    a = [3, -(10 ** 30), 5, 0, 7]
    assert _kronecker(a, a[::-1]) == _schoolbook(a, a[::-1])


def test_wide_coefficients_take_the_binary_path(monkeypatch):
    # blocks past 4,300 digits would trip the int <-> str limit: binary
    monkeypatch.setattr(polyring, "_DECIMAL_CUTOFF", 0)
    monkeypatch.setattr(polyring, "_decimal_pack", None)
    a = [10 ** 2200 + 1, -3, 7]
    b = [1, -(10 ** 2150), 2]
    assert _kronecker(a, b) == _schoolbook(a, b)


def test_decimal_guards_survive_optimize_and_str_limits():
    # under -O and the lowest int <-> str limit: blocks wider than the limit
    # go binary without ValueError, and a forced precision loss raises
    import os
    import subprocess
    import sys

    import wpolys
    src = os.path.dirname(os.path.dirname(os.path.abspath(wpolys.__file__)))
    code = """
import decimal
from wpolys import polyring

def school(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out

polyring._DECIMAL_CUTOFF = 0
wide = ([10 ** 700 + 1, -3, 7], [1, -(10 ** 710), 2])
small = [12345678, -9, 5] * 40
checks = [polyring._kronecker(*wide) == school(*wide),
          polyring._kronecker(small, small) == school(small, small)]
exact = polyring._decimal_context

def lossy():
    context = exact()
    context.prec = 50
    return context

polyring._decimal_context = lossy
try:
    polyring._kronecker(small, small)
    checks.append(False)
except (decimal.Inexact, decimal.Rounded):
    checks.append(True)
print(checks)
"""
    done = subprocess.run(
        [sys.executable, "-O", "-X", "int_max_str_digits=640", "-c", code],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src))
    assert done.stdout.strip() == "[True, True, True]", done.stderr


def _gappy_qlaurent(rng):
    # leading and interior empty x-slices, negative q exponents
    slices = [None] * rng.randint(0, 2)
    for _ in range(rng.randint(1, 5)):
        if rng.random() < 0.3:
            slices.append(None)
            continue
        run = [rng.randint(-9, 9) for _ in range(rng.randint(1, 9))]
        slices.append((rng.randint(-12, 8), run))
    return QLaurent(slices)


def _map_terms(terms, fn):
    # terms {(q exponent, x degree): c}; fn((e, i), c) yields new terms
    out = {}
    for key, c in terms.items():
        for new, d in fn(key, c):
            out[new] = out.get(new, 0) + d
    return {key: c for key, c in out.items() if c}


def _slice_power_terms(terms, alpha, order):
    out = {}
    for i in {i for _, i in terms}:
        row = {e: c for (e, j), c in terms.items() if j == i}
        power = {0: 1}
        for _ in range(alpha):
            product = {}
            for e, c in power.items():
                for f, d in row.items():
                    product[e + f] = product.get(e + f, 0) + c * d
            power = product
        for e, c in power.items():
            key = (e % order if order else e, i)
            out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}


def _divmod_terms(terms, mod, shift):
    # long division of each x-slice of q^shift * value by the monic mod
    top = len(mod.coeffs) - 1
    quot, rem = {}, {}
    for i in {i for _, i in terms}:
        run = {e + shift: c for (e, j), c in terms.items() if j == i}
        while run and max(run) >= top:
            e = max(run)
            c = run.pop(e)
            if c:
                quot[e - top, i] = c
                for k, m in enumerate(mod.coeffs[:-1]):
                    run[e - top + k] = run.get(e - top + k, 0) - c * m
        rem.update({(e, i): c for e, c in run.items() if c})
    return quot, rem


def test_slice_map_methods_match_termwise_references():
    # every method built on QLaurent._map, against a reference that works
    # term by term from QLaurent.terms
    from wpolys.qobjects import cyclotomic
    rng = random.Random(97)
    for _ in range(250):
        v = _gappy_qlaurent(rng)
        terms = _as_terms(v)
        k = rng.choice((-3, -1, 0, 2, 7))
        e = rng.randint(-9, 9)
        p = QPoly([rng.randint(-5, 5) for _ in range(rng.randint(0, 4))])
        n, r, stride = rng.randint(1, 6), rng.randint(0, 3), rng.randint(1, 3)
        order = rng.randint(1, 9)
        alpha = rng.randint(1, 3)
        assert _as_terms(-v) == _map_terms(terms, lambda key, c: [(key, -c)])
        assert _as_terms(v * k) == _as_terms(k * v) == _map_terms(
            terms, lambda key, c: [(key, k * c)])
        assert _as_terms(v.shift_q(e)) == _map_terms(
            terms, lambda key, c: [((key[0] + e, key[1]), c)])
        assert _as_terms(v.mul_qpoly(p)) == _map_terms(
            terms, lambda key, c: [((key[0] + j, key[1]), c * pj)
                                   for j, pj in enumerate(p.coeffs)])
        assert _as_terms(v.subst_q_squared()) == _map_terms(
            terms, lambda key, c: [((2 * key[0], key[1]), c)])
        folded = _map_terms(terms, lambda key, c: [((key[0] % order, key[1]),
                                                     c)])
        assert _as_terms(v.fold(order)) == folded
        window = terms
        for _ in range(r):
            window = _map_terms(window, lambda key, c: [
                ((key[0] + j * stride, key[1]), c) for j in range(n)])
        assert _as_terms(v.mul_qint_power(n, r, stride)) == window
        assert _as_terms(v.mul_qint_power(n, r, stride, order)) == _map_terms(
            window, lambda key, c: [((key[0] % order, key[1]), c)])
        assert _as_terms(v._slice_power(alpha)) == _slice_power_terms(
            terms, alpha, None)
        assert _as_terms(v._slice_power(alpha, order)) == _slice_power_terms(
            terms, alpha, order)
        d = rng.randint(2, 8)
        mod = cyclotomic(d)
        quot, rem, shift = v.divmod_monic(mod)
        assert shift == max(0, -v.min_q_exp())
        assert (_as_terms(quot), _as_terms(rem)) == _divmod_terms(
            terms, mod, shift)
        assert _as_terms(v.rem_monic_cyclic(mod, d * rng.randint(1, 3))) == (
            _divmod_terms(terms, mod, shift)[1])


def test_qlaurent_parse_round_trips_and_rejects_malformed_text():
    assert QLaurent.parse("0") == QLaurent.zero()
    assert QLaurent.parse(" 0 ").is_zero()
    text = "q^-3*(2*x^4) + q^-1*(-7) + (x^2) + q^5*(1 - x)"
    assert str(QLaurent.parse(text)) == text
    assert QLaurent.parse("q^-2*(x^2) + q^3*(5*x^4)") == QLaurent(
        [None, None, (-2, [1]), None, (3, [5])])
    assert QLaurent.parse("q*(3) + q^-1*(x)") == QLaurent(
        [(1, [3]), (-1, [1])])
    rng = random.Random(101)
    for _ in range(200):
        v = _gappy_qlaurent(rng)
        assert QLaurent.parse(str(v)) == v
    for bad in ("q^2*(1) + q^2*(x)",         # repeated q exponent
                "q*(1) + q^1*(x)",
                "q*(1 + x", "q*(1)) + (2", ")(",  # unbalanced parens
                "z^2*(1)", "q^2(1)", "q^x*(1)", "5",  # bad q monomial
                "q^2*(1 + y)", "q*()",       # bad x polynomial
                "q*(x^-2)"):                 # negative x exponent
        with pytest.raises(ValueError):
            QLaurent.parse(bad)


def test_negative_exponent_text_names_the_negative_exponent():
    for parse, text in ((XPoly.parse, "x^-2"), (XPoly.parse, "1 - x^-2"),
                        (QPoly.parse, "q^-1"),
                        (QLaurent.parse, "q*(x^-2)"),
                        (QLaurent.parse, "q^-1*(3 - x^-2)")):
        with pytest.raises(ValueError, match="negative exponent"):
            parse(text)


def test_cyclic_order_below_one_raises():
    # pytest.raises is not stripped by python -O
    for order in (0, -1, -2):
        with pytest.raises(ValueError):
            QLaurent.one().rem_monic_cyclic(QPoly([-1, 1]), order)
        with pytest.raises(ValueError):
            (QPoly([1, 2, 3]) * QPoly([1, 1])).fold(order)
        with pytest.raises(ValueError):
            QLaurent.one().fold(order)
        with pytest.raises(ValueError):
            QPoly([1, 2]).fold(order)


def _per_coefficient_divexact(num, lead):
    # oracle for division by the constant lead: top down, one coefficient at
    # a time, the first indivisible one from the top is the witness
    num = list(num)
    while num and num[-1] == 0:
        num.pop()
    for degree in range(len(num) - 1, -1, -1):
        if num[degree] % lead:
            return None, (f"coefficient obstruction at degree {degree}: "
                          f"coefficient {num[degree]} at degree {degree} "
                          f"not divisible by {lead}")
    return [c // lead for c in num], None


def test_constant_divisor_matches_the_per_coefficient_oracle():
    rng = random.Random(41)
    cases = [([], 7), ([0, 0, 0], -3), ([5], 5), ([-5], -5), ([0], 1)]
    for _ in range(300):
        lead = rng.choice([-1, 1]) * rng.randint(1, 1 << rng.choice((3, 64,
                                                                     300)))
        size = rng.randint(1, 120)
        # exact multiples and zeros, or with some probability any integers,
        # so that several coefficients may be indivisible
        scale = lead if rng.random() < 0.7 else 1
        num = [scale * rng.randint(-(1 << 300), 1 << 300)
               if rng.random() < 0.8 else 0 for _ in range(size)]
        where = rng.choice(("none", "top", "middle", "zero"))
        if where != "none" and abs(lead) > 1:
            degree = {"top": size - 1, "middle": size // 2,
                      "zero": 0}[where]
            num[degree] += rng.randint(1, abs(lead) - 1)
        cases.append((num, lead))
    failing = set()
    for num, lead in cases:
        quot, witness = _per_coefficient_divexact(num, lead)
        got = XPoly(num).divexact(lead)
        if witness is None:
            assert got == XPoly(quot), (num, lead)
        else:
            assert isinstance(got, DivisionWitness), (num, lead)
            assert str(got) == witness, (num, lead)
            failing.add("top" if got.degree == len(num) - 1 else
                        "zero" if got.degree == 0 else "middle")
    assert failing == {"top", "middle", "zero"}


def _old_slice_norm(qmin, coeffs):
    coeffs = list(coeffs)
    lo, hi = 0, len(coeffs)
    while hi > lo and coeffs[hi - 1] == 0:
        hi -= 1
    while lo < hi and coeffs[lo] == 0:
        lo += 1
    return None if lo == hi else (qmin + lo, tuple(coeffs[lo:hi]))


def test_qlaurent_slices_from_every_kind_of_run():
    rng = random.Random(43)
    kinds = (list, tuple, lambda run: map(int, run),
             lambda run: (c for c in run))
    for _ in range(200):
        runs = []
        for _ in range(rng.randint(0, 5)):
            core = [rng.randint(-9, 9) for _ in range(rng.randint(0, 6))]
            zeros = [0] * rng.randint(0, 3), [0] * rng.randint(0, 3)
            runs.append(None if rng.random() < 0.2 else
                        (rng.randint(-5, 5), zeros[0] + core + zeros[1]))
        want = [None if s is None else _old_slice_norm(*s) for s in runs]
        while want and want[-1] is None:
            want.pop()
        for kind in kinds:
            value = QLaurent([None if s is None else (s[0], kind(s[1]))
                              for s in runs])
            assert value._slices == tuple(want), (runs, kind)
            assert all(type(s[1]) is tuple for s in value._slices if s)
    # a canonical tuple run is kept, not copied
    run = (3, 0, -1)
    assert QLaurent(((2, run),))._slices[0][1] is run
