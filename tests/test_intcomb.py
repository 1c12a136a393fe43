import math
import random
from fractions import Fraction

from wpolys.intcomb import (
    IdentityReport,
    binomial_general,
    catalan_number,
    divisors,
    lcm_range,
    mobius,
    narayana_number,
    rising_factorial,
    w_identity_suite,
    w_number,
)


def test_binomial_general_frozen():
    assert binomial_general(-2, 3) == -4
    assert binomial_general(4, 2) == 6
    assert binomial_general(-1, 5) == -1
    assert binomial_general(0, 0) == 1
    for n in (-5, 0, 7):
        assert binomial_general(n, 0) == 1
    assert binomial_general(3, -1) == 0
    assert binomial_general(-3, -2) == 0
    assert binomial_general(3, 5) == 0


def test_binomial_general_product_oracle():
    for n in range(-12, 13):
        for k in range(0, 13):
            prod = Fraction(1)
            for i in range(k):
                prod *= Fraction(n - i, i + 1)
            assert prod.denominator == 1
            assert binomial_general(n, k) == prod.numerator


def test_binomial_pascal():
    rng = random.Random(3)
    for _ in range(500):
        n = rng.randint(-30, 30)
        k = rng.randint(0, 30)
        assert binomial_general(n, k) == (binomial_general(n - 1, k - 1)
                                          + binomial_general(n - 1, k))


def test_mobius_and_divisors():
    assert mobius(1) == 1
    assert mobius(6) == 1
    assert mobius(12) == 0
    assert mobius(30) == -1
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]
    assert divisors(13) == [1, 13]
    for n in range(1, 201):
        total = sum(mobius(d) for d in divisors(n))
        assert total == (1 if n == 1 else 0)


def test_lcm_range():
    assert lcm_range(1, 4) == 12
    assert lcm_range(2, 5) == 60
    assert lcm_range(7, 7) == 7
    for lo in range(1, 8):
        for hi in range(lo, 12):
            v = lcm_range(lo, hi)
            for j in range(lo, hi + 1):
                assert v % j == 0
            assert v == math.lcm(*range(lo, hi + 1))


def test_rising_factorial():
    assert rising_factorial(2, 3) == 24
    assert rising_factorial(1, 5) == 120
    assert rising_factorial(7, 0) == 1
    assert rising_factorial(0, 2) == 0
    for x in range(1, 10):
        for n in range(0, 6):
            assert rising_factorial(x, n) == math.factorial(x + n - 1) // math.factorial(x - 1)


def test_catalan():
    assert [catalan_number(n) for n in range(1, 7)] == [1, 2, 5, 14, 42, 132]


def test_w_number_frozen():
    assert w_number(1, 1) == 1
    assert w_number(3, 2) == 5
    assert [w_number(4, k) for k in range(1, 5)] == [1, 9, 21, 14]
    assert [w_number(3, k) for k in range(1, 4)] == [1, 5, 5]


def test_w_number_closed_forms_agree():
    # the 1/k product form must match the two-product difference form
    for n in range(1, 41):
        for k in range(1, n + 1):
            lhs = w_number(n, k)
            rhs = (binomial_general(n - 1, k - 1) * binomial_general(n + k, k)
                   - binomial_general(n, k) * binomial_general(n + k, k - 1))
            assert lhs == rhs
            num = binomial_general(n - 1, k - 1) * binomial_general(n + k, k - 1)
            assert num % k == 0 and num // k == lhs
        assert w_number(n, n) == catalan_number(n)


def test_w_number_rejects_out_of_range():
    for bad in ((3, 0), (3, 4), (0, 1), (2, -1)):
        try:
            w_number(*bad)
            assert False, f"w_number{bad} should be rejected"
        except ValueError:
            pass


def test_narayana_frozen():
    assert narayana_number(3, 2) == 3
    assert narayana_number(4, 2) == 6
    for n in range(1, 20):
        assert narayana_number(n, 1) == 1
        assert narayana_number(n, n) == 1
        assert sum(narayana_number(n, k) for k in range(1, n + 1)) == catalan_number(n)


def test_identity_suite_shape():
    reports = w_identity_suite(3, 2, 1)
    assert len(reports) == 4
    assert all(isinstance(rep, IdentityReport) for rep in reports)
    names = [rep.identity for rep in reports]
    assert names == ["alternating-sum", "w-from-narayana",
                     "narayana-from-w", "partial-row-sum-odd"]
    alt = reports[0]
    assert alt.params == (3, 2) and alt.holds
    assert alt.lhs == 5 and alt.rhs == 5
    parity = reports[3]
    assert parity.params == (3, 1) and parity.holds
    assert parity.lhs == 11 % 2 and parity.rhs == 1
    # the record: repr, equality and immutability
    assert repr(parity) == ("IdentityReport(identity='partial-row-sum-odd', "
                            "params=(3, 1), holds=True, lhs=1, rhs=1)")
    assert parity == IdentityReport("partial-row-sum-odd", (3, 1), True, 1, 1)
    assert parity != IdentityReport("partial-row-sum-odd", (3, 1), True, 1, 0)
    for field in ("holds", "other"):
        try:
            setattr(parity, field, False)
            assert False, f"assigning {field} should raise"
        except AttributeError:
            pass


def test_identity_suite_holds_small():
    for n in range(1, 13):
        for m in range(1, n + 1):
            for b in (0, 1, 5):
                assert all(rep.holds for rep in w_identity_suite(n, m, b))


def test_identity_suite_rejects_bad_m():
    try:
        w_identity_suite(3, 4, 0)
        assert False, "m > n should be rejected"
    except ValueError:
        pass
