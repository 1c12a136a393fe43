import operator
import random

import pytest

from wpolys.polyring import (
    DivisionWitness,
    QLaurent,
    QPoly,
    XPoly,
    _convolve,
    _kronecker,
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
