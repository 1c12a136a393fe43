import random

from wpolys.congruence import (
    GridError,
    GridSpec,
    STATEMENTS,
    conjecture_checks,
    conjecture_quotient,
    grid_verify,
    int_sum_lcm,
    int_sum_lcm_quotient,
    int_sum_plain,
    int_sum_plain_quotient,
    qsum_alternating,
    qsum_general,
    qsum_plain,
    qsum_product,
    verify_cyclotomic_product,
    verify_divisible_by_qn,
    _qint_qpoly,
)
from wpolys.intcomb import rising_factorial
from wpolys.polyring import DivisionWitness, QLaurent, XPoly
from wpolys.qobjects import q_integer
from wpolys.wpoly import w_alpha_poly


def test_qsum_frozen_values():
    assert qsum_plain(2, 1, 1, 1) == QLaurent.parse(
        "q^2*(1) + q^3*(2) + q^4*(2) + q^5*(1)")
    assert qsum_alternating(2, 1, 1, 1) == QLaurent.parse(
        "q^4*(-1) + q^5*(-1) + q^6*(-2) + q^7*(-1) + q^8*(-1)")
    assert qsum_plain(1, 1, 1, 1).is_zero()
    assert qsum_alternating(1, 2, 2, 2).is_zero()
    assert qsum_product(1, 1, 1, 1).is_zero()


def _int_weight_sum(n, alpha, m, r, sign):
    total = XPoly()
    for k in range(1, n + 1):
        term = w_alpha_poly(k, alpha) ** m * ((k * (k + 1)) ** r * (2 * k + 1))
        if sign == "alternating" and (n - k) % 2:
            term = -term
        total = total + term
    return total


def test_qsum_plain_specializes_at_q_one():
    for n in range(2, 9):
        for alpha in (1, 2):
            for m in (1, 2):
                for r in (1, 2):
                    got = qsum_plain(n, alpha, m, r).eval_q_one()
                    want = XPoly()
                    for k in range(1, n):
                        want = want + (w_alpha_poly(k, alpha) ** m
                                       * ((k * (k + 1)) ** r * (2 * k + 1)))
                    assert got == want


def test_qsum_alternating_specializes_at_q_one():
    for n in range(2, 8):
        for alpha in (1, 2):
            got = qsum_alternating(n, alpha, 2, 1).eval_q_one()
            want = XPoly()
            for k in range(1, n):
                term = w_alpha_poly(k, alpha) ** 2 * (k * (k + 1) * (2 * k + 1))
                want = want + (-term if k % 2 else term)
            assert got == want


def test_qsum_product_specializes_at_q_one():
    for n in range(2, 8):
        got = qsum_product(n, 2, 1, 2).eval_q_one()
        want = XPoly()
        for k in range(1, n):
            run = w_alpha_poly(k, 2) * w_alpha_poly(k + 1, 2)
            want = want + run * ((k * (k + 2)) ** 2 * 2 * (k + 1))
        assert got == want


def test_qsum_general_specializes_at_q_one():
    for n in range(2, 7):
        for beta in (1, 2):
            got = qsum_general(n, 1, beta, 1, 1).eval_q_one()
            want = XPoly()
            for k in range(1, n):
                run = XPoly((1,))
                for i in range(2 * beta):
                    run = run * w_alpha_poly(k + i, 1)
                ww = rising_factorial(k, beta) * rising_factorial(k + beta + 1, beta)
                want = want + run * (ww ** 1 * 2 * (k + beta))
            assert got == want


def test_qsum_general_beta_one_matches_product():
    for n in range(2, 8):
        for alpha in (1, 2):
            for r in (1, 2):
                assert qsum_general(n, alpha, 1, 2, r) == qsum_product(n, alpha, 2, r)


def test_verify_divisible_by_qn():
    ok = verify_divisible_by_qn(QLaurent.zero(), 5)
    assert ok.passed and ok.witness is None and ok.statement == "mod-qn"
    bad = verify_divisible_by_qn(q_integer(3), 2, params={"n": 2})
    assert not bad.passed and bad.witness == "(1)"
    assert bad.params == {"n": 2}
    try:
        verify_divisible_by_qn(QLaurent.one(), 1)
        assert False, "n = 1 modulus should be rejected"
    except ValueError:
        pass


def test_verify_cyclotomic_product():
    bad = verify_cyclotomic_product(QLaurent.one(), 2)
    assert not bad.passed and bad.witness == "d=4: (1)"
    ok = verify_cyclotomic_product(qsum_alternating(6, 1, 1, 1), 6)
    assert ok.passed


def test_int_sum_plain_quotients_frozen():
    assert int_sum_plain_quotient(1, 1, 1, 1) == XPoly((1,))
    assert int_sum_plain_quotient(2, 1, 1, 1) == XPoly((3, 5))
    assert int_sum_plain_quotient(2, 1, 1, 1, "alternating") == XPoly((2, 5))
    assert int_sum_plain_quotient(3, 1, 1, 1) == XPoly((2, 8, 7))
    assert int_sum_plain_quotient(3, 1, 1, 1, "alternating") == XPoly((-1, -6, -7))
    assert int_sum_plain_quotient(4, 1, 1, 1, "alternating") == XPoly((2, 21, 56, 42))
    try:
        int_sum_plain_quotient(2, 1, 1, 1, "minus")
        assert False, "bad sign should be rejected"
    except ValueError:
        pass


def test_int_sum_plain_verdicts():
    v = int_sum_plain(5, 2, 2, 2)
    assert v.passed and v.statement == "thm-int-plain"
    assert v.params == {"n": 5, "alpha": 2, "m": 2, "r": 2}
    v = int_sum_plain(5, 2, 2, 2, "alternating")
    assert v.passed and v.statement == "thm-int-alternating"


def test_int_sum_lcm_frozen():
    assert int_sum_lcm_quotient(1, 1, 1, 1, 1) == XPoly((1, 2))
    assert int_sum_lcm_quotient(2, 1, 1, 1, 1) == XPoly((1, 2)) ** 3
    v = int_sum_lcm(4, 2, 2, 1, 2)
    assert v.passed and v.statement == "thm-int-lcm"
    assert v.params == {"n": 4, "alpha": 2, "beta": 2, "m": 1, "r": 2}


def test_conjecture_quotients_frozen():
    assert conjecture_quotient("c54_ii", 1, 1, 1) == XPoly((2,))
    assert conjecture_quotient("c54_iii", 2) == XPoly((5,))
    assert conjecture_quotient("c52_eq14_even_n", 2, 2, 1) == XPoly((1, 5))


def test_conjecture_domain_validation():
    for bad in (("c52_eq14_even_n", 2, 1, 1),   # needs alpha > 1
                ("c52_eq14_even_n", 3, 2, 1),   # needs even n
                ("c54_ii", 2, 2, 1),            # fixed alpha = 1
                ("c54_iii", 3, 1, 1),           # needs even n
                ("c54_iii", 2, 1, 2),           # fixed m = 1
                ("no-such-conjecture", 2, 1, 1)):
        try:
            conjecture_quotient(*bad)
            assert False, f"conjecture_quotient{bad} should be rejected"
        except ValueError:
            pass


def test_conjecture_checks_status():
    v = conjecture_checks("c54_ii", 3, 1, 2)
    assert v.passed and v.status == "conjecture-empirical"
    assert v.statement == "conj-54-ii" and v.params == {"n": 3, "m": 2}
    js = v.to_json()
    assert js["status"] == "conjecture-empirical" and js["pass"] is True


def test_statement_catalog():
    assert len(STATEMENTS) == 14
    for sid in ("thm-qsum-plain", "thm-qsum-alternating", "thm-qsum-product",
                "thm-qsum-general", "thm-int-plain", "thm-int-alternating",
                "thm-int-lcm", "lemma-23", "lemma-31", "lemma-qlucas",
                "identity-suite", "conj-52-even", "conj-54-ii", "conj-54-iii"):
        assert sid in STATEMENTS


def test_grid_verify_basic_sweep():
    spec = GridSpec("thm-int-plain", ranges=(("n", 1, 6),))
    verdicts = grid_verify(spec)
    assert len(verdicts) == 6
    assert all(v.passed for v in verdicts)
    ns = [v.params["n"] for v in verdicts]
    assert ns == sorted(ns)


def test_grid_verify_deterministic_across_workers():
    spec1 = GridSpec("thm-int-plain", ranges=(("n", 1, 6), ("alpha", 1, 2)),
                     workers=1)
    spec4 = GridSpec("thm-int-plain", ranges=(("n", 1, 6), ("alpha", 1, 2)),
                     workers=4)
    assert grid_verify(spec1) == grid_verify(spec4)


def test_grid_verify_sampled_qlucas_deterministic():
    spec = GridSpec("lemma-qlucas", ranges=(("d", 2, 8),), count=40, seed=7)
    first = grid_verify(spec)
    second = grid_verify(spec)
    assert first == second
    assert len(first) == 40 and all(v.passed for v in first)


def test_grid_verify_fault_injection():
    spec = GridSpec("thm-qsum-plain", ranges=(("n", 2, 4),), inject_fault=True)
    verdicts = grid_verify(spec)
    assert len(verdicts) == 3
    for v in verdicts:
        assert not v.passed and v.witness
        n = v.params["n"]
        faulted = qsum_plain(n, 1, 1, 1) + QLaurent.one()
        assert v.witness == str(faulted.rem_monic(_qint_qpoly(n)))


def test_grid_verify_identity_suite_filter():
    spec = GridSpec("identity-suite", ranges=(("n", 1, 4), ("m", 2, 2),
                                              ("b", 0, 0)))
    verdicts = grid_verify(spec)
    # m = 2 requires n >= 2, so the n = 1 cell is filtered out
    assert [v.params["n"] for v in verdicts] == [2, 3, 4]
    assert all(v.passed for v in verdicts)


def test_grid_verify_lemma23_filters_invalid_cells():
    spec = GridSpec("lemma-23", ranges=(("a", 0, 0), ("b", 0, 0),
                                        ("d", 3, 4), ("alpha", 1, 1)))
    verdicts = grid_verify(spec)
    # (b=0, d=3) fits neither pair; (b=0, d=4) yields eqs 3 and 4
    assert [v.params["eq"] for v in verdicts] == [3, 4]


def test_grid_verify_timing_flag():
    spec = GridSpec("thm-int-plain", ranges=(("n", 3, 3),), timing=True)
    verdicts = grid_verify(spec)
    assert len(verdicts) == 1
    assert isinstance(verdicts[0].elapsed_ms, int) and verdicts[0].elapsed_ms >= 0


def test_grid_errors():
    cases = [
        GridSpec("no-such-statement"),
        GridSpec("thm-qsum-plain", ranges=(("n", 2, 4), ("n", 2, 4))),
        GridSpec("thm-qsum-plain", ranges=(("n", 2, 4), ("beta", 1, 2))),
        GridSpec("thm-qsum-plain", ranges=(("n", 4, 2),)),
        GridSpec("thm-qsum-plain", ranges=(("n", 1, 4),)),   # below minimum
        GridSpec("thm-qsum-plain"),                           # n is required
        GridSpec("lemma-23", ranges=(("a", 0, 1),), inject_fault=True),
    ]
    for spec in cases:
        try:
            grid_verify(spec)
            assert False, f"{spec} should be rejected"
        except GridError:
            pass


def test_mul_qint_weight_matches_qpoly_path():
    # the window-sum fast path must agree with plain convolution
    rng = random.Random(61)
    for _ in range(100):
        sl = []
        for _ in range(rng.randint(1, 3)):
            qmin = rng.randint(-4, 4)
            run = [rng.randint(-9, 9) for _ in range(rng.randint(1, 5))]
            sl.append((qmin, run))
        v = QLaurent(sl)
        n = rng.randint(2, 9)
        r = rng.randint(1, 3)
        assert v.mul_qint_power(n, r) == v.mul_qpoly(_qint_qpoly(n) ** r)


def test_grid_rejects_negative_workers():
    spec = GridSpec("thm-int-plain", ranges=(("n", 1, 3),), workers=-3)
    try:
        grid_verify(spec)
        assert False, "negative workers must be rejected"
    except GridError as exc:
        assert "workers" in str(exc)
