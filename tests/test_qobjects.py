import dataclasses
import gc
import math
import random

from wpolys import qobjects
from wpolys.congruence import STATEMENTS, GridSpec, grid_stream
from wpolys.polyring import QLaurent, QPoly, _fold_cyclic
from wpolys.qobjects import (
    _q_pascal_rows,
    _qbinom_poly,
    cyclotomic,
    lemma31_check,
    q_binomial,
    q_binomial_poly,
    q_integer,
    q_lucas_check,
    qint_factorization_check,
)


def test_q_integer_frozen():
    assert q_integer(0).is_zero()
    assert str(q_integer(1)) == "(1)"
    assert str(q_integer(3)) == "(1) + q^1*(1) + q^2*(1)"
    assert q_integer(-2) == QLaurent.parse("q^-2*(-1) + q^-1*(-1)")
    for n in range(1, 30):
        assert q_integer(n).eval_q_one().coeff(0) == n
        assert q_integer(-n).eval_q_one().coeff(0) == -n


def test_q_binomial_poly_frozen():
    assert str(q_binomial_poly(4, 2)) == "1 + q + 2*q^2 + q^3 + q^4"
    assert str(q_binomial_poly(2, 1)) == "1 + q"
    assert q_binomial_poly(5, 0).coeffs == (1,)
    assert q_binomial_poly(3, 3).coeffs == (1,)


def test_q_binomial_values_at_one():
    for n in range(0, 26):
        for k in range(0, n + 1):
            p = q_binomial_poly(n, k)
            assert all(c >= 0 for c in p.coeffs)
            assert p.evaluate(1) == math.comb(n, k)
            assert p.degree() == k * (n - k)


def test_qbinom_poly_matches_the_product_quotient():
    # oracle: qbinom(n, k) = prod (1 - q^(n-i)) / prod (1 - q^(i+1)) over
    # i < k; q-Lucas samples reach the top 4*12 + 11 = 59.  Z[q] has no zero
    # divisors, so got * den == num says got is that quotient; the division
    # itself (QPoly.divexact) is checked on the smaller tops, where its
    # schoolbook cost stays small.
    def times_one_minus(p, e):
        return p - QPoly([0] * e + list(p.coeffs))

    for n in range(61):
        num = den = QPoly([1])
        for k in range(n + 1):
            if k:
                num = times_one_minus(num, n - k + 1)
                den = times_one_minus(den, k)
            got = _qbinom_poly(n, k)
            assert got * den == num, (n, k)
            if n <= 24:
                assert got == num.divexact(den), (n, k)
            assert got.evaluate(1) == math.comb(n, k)


def test_q_binomial_edge_and_negative():
    assert q_binomial(3, -1).is_zero()
    assert q_binomial(3, 5).is_zero()
    assert q_binomial(0, 0) == QLaurent.one()
    assert q_binomial(-2, 1) == q_integer(-2)
    assert q_binomial(-1, 3) == QLaurent.monomial(-1, 0, -6)
    # negative top at q = 1 must match the generalized binomial
    from wpolys.intcomb import binomial_general
    for n in range(-8, 0):
        for k in range(0, 8):
            v = q_binomial(n, k)
            num, den = v.eval_xq(0, 1, 1)
            assert den == 1 or num % den == 0
            assert num // den == binomial_general(n, k)


def test_q_binomial_symmetry_and_pascal():
    for n in range(0, 21):
        for k in range(0, n + 1):
            assert q_binomial(n, k) == q_binomial(n, n - k)
            lhs = q_binomial(n, k)
            rhs = q_binomial(n - 1, k - 1) + q_binomial(n - 1, k).shift_q(k)
            if n >= 1:
                assert lhs == rhs


def test_q_binomial_reflection():
    # negative-top reflection, both column offsets
    for k in range(1, 13):
        for j in range(1, k + 1):
            lhs = q_binomial(k + j, j)
            rhs = q_binomial(-k - 1, j).shift_q(k * j + math.comb(j + 1, 2))
            if j & 1:
                rhs = -rhs
            assert lhs == rhs
            lhs = q_binomial(k + j, j - 1)
            rhs = q_binomial(-k - 2, j - 1).shift_q(
                (k + 1) * (j - 1) + math.comb(j, 2))
            if (j - 1) & 1:
                rhs = -rhs
            assert lhs == rhs


def test_cyclotomic_frozen():
    assert str(cyclotomic(1)) == "-1 + q"
    assert str(cyclotomic(2)) == "1 + q"
    assert str(cyclotomic(6)) == "1 - q + q^2"
    assert str(cyclotomic(12)) == "1 - q^2 + q^4"
    for p in (2, 3, 5, 7, 11, 13):
        assert cyclotomic(p).coeffs == (1,) * p


def test_cyclotomic_degree_and_shape():
    for d in range(1, 61):
        phi = cyclotomic(d)
        totient = sum(1 for j in range(1, d + 1) if math.gcd(j, d) == 1)
        assert phi.degree() == totient
        assert phi.is_monic()
        if d > 1:
            assert phi.coeffs[0] == 1


def test_cyclotomic_cache_identity():
    assert cyclotomic(30) is cyclotomic(30)
    cached = cyclotomic(12)
    cyclotomic.cache_clear()
    assert cyclotomic(12) == cached


def test_qint_factorization():
    for n in range(2, 121):
        assert qint_factorization_check(n)


def test_q_lucas_frozen_examples():
    assert q_lucas_check(3, 1, 1, 0, 2)
    assert q_lucas_check(2, 2, 1, 1, 0)
    assert q_lucas_check(5, 0, 3, 0, 2)
    assert q_lucas_check(4, 3, 2, 4, 1)


def test_q_lucas_random_tuples():
    rng = random.Random(17)
    for _ in range(300):
        d = rng.randint(2, 12)
        a = rng.randint(0, 4)
        b = rng.randint(0, d - 1)
        s = rng.randint(0, a + 1)
        t = rng.randint(0, d - 1)
        assert q_lucas_check(d, a, b, s, t)


def test_q_lucas_rejects_bad_domain():
    for bad in ((1, 0, 0, 0, 0), (3, 0, 3, 0, 0), (3, 0, 0, 0, -1),
                (3, -1, 0, 0, 0)):
        try:
            q_lucas_check(*bad)
            assert False, f"q_lucas_check{bad} should be rejected"
        except ValueError:
            pass


def test_q_pascal_table_matches_the_folded_binomials():
    # every entry the q-Lucas cells can read, 0 <= k <= n <= 5d - 1, against
    # the fold of the Gaussian-binomial row; a table grown row by row in a
    # grid scope equals one built at once outside it
    for d in range(2, 13):
        rows = _q_pascal_rows(d, 5 * d - 1)
        assert len(rows) == 5 * d
        for n, row in enumerate(rows):
            assert [len(e) for e in row] == [d] * (n + 1), (d, n)
            for k, entry in enumerate(row):
                assert entry == _fold_cyclic(_qbinom_poly(n, k).coeffs, 0, d), \
                    (d, n, k)
        memo = {}
        token = qobjects._GRID_MEMO.set(memo)
        try:
            for n in (0, 3, 2, 5 * d - 1):
                grown = _q_pascal_rows(d, n)
        finally:
            qobjects._GRID_MEMO.reset(token)
        assert memo == {("q-pascal", d): rows} and grown is memo["q-pascal", d]


def _module_tables():
    # the size of every table qobjects holds at module level
    sizes = {}
    for name, value in vars(qobjects).items():
        if hasattr(value, "cache_info"):
            sizes[name] = value.cache_info().currsize
        elif isinstance(value, (dict, list, set)):
            sizes[name] = len(value)
    return sizes


def test_qlucas_grid_keeps_its_q_pascal_tables_in_its_scope(monkeypatch):
    for d in range(2, 13):          # cyclotomic's table is process-wide
        cyclotomic(d)
    binomials = _qbinom_poly.cache_info()
    tables = _module_tables()
    assert q_lucas_check(12, 4, 11, 3, 7)       # outside a grid
    seen = []
    entry = STATEMENTS["lemma-qlucas"]

    def runner(p, fault):
        verdicts = entry.runner(p, fault)
        seen.append(qobjects._GRID_MEMO.get()["q-pascal", p["d"]])
        return verdicts

    monkeypatch.setitem(STATEMENTS, "lemma-qlucas",
                        dataclasses.replace(entry, runner=runner))
    spec = GridSpec("lemma-qlucas", count=300, seed=5)
    for half_read in (False, True):
        seen.clear()
        cells = grid_stream(spec)
        if half_read:
            for _ in range(100):
                assert next(cells).passed
            # while the grid lives its scope holds each table
            assert len(gc.get_referrers(seen[-1])) == 2
            cells.close()
        else:
            verdicts = list(cells)
            assert len(verdicts) == 300 and all(v.passed for v in verdicts)
        assert cells.gi_frame is None
        assert len({id(table) for table in seen}) > 5
        # only this test's list still holds the grid's tables
        for i in range(len(seen)):
            assert gc.get_referrers(seen[i]) == [seen]
    assert _qbinom_poly.cache_info() == binomials
    assert _module_tables() == tables


def test_lemma31():
    for d in range(2, 31):
        assert lemma31_check(d)
    assert cyclotomic(2).subst_q_squared() == cyclotomic(4)
    assert cyclotomic(6).subst_q_squared() == cyclotomic(12)
    assert cyclotomic(3).subst_q_squared() == cyclotomic(3) * cyclotomic(6)
