import gc
import math
import random
import re
import tracemalloc
from dataclasses import replace

import pytest

from wpolys import congruence, qobjects
from wpolys.cli import _json_line
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
from wpolys.intcomb import lcm_range, rising_factorial
from wpolys.polyring import DivisionWitness, QLaurent, XPoly
from wpolys.qobjects import q_integer
from wpolys.wpoly import q_w_poly, w_alpha_poly


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


def _eager_qlucas_sample(spec):
    # the sampler as it drew every cell before the first verdict
    bounds = {name: (lo, hi) for name, lo, hi in congruence._resolve_ranges(
        spec, STATEMENTS[spec.statement])}
    rng = random.Random(spec.seed)
    cells = []
    for _ in range(spec.count):
        d = rng.randint(*bounds["d"])
        a = rng.randint(*bounds["a"])
        cells.append({
            "d": d,
            "a": a,
            "b": rng.randint(0, d - 1),
            "s": rng.randint(0, a + 1),
            "t": rng.randint(0, d - 1),
        })
    return cells


def test_sampled_cells_are_drawn_lazily_in_the_seeded_order():
    for seed in range(4):
        for ranges in ((), (("d", 3, 7), ("a", 1, 2))):
            spec = GridSpec("lemma-qlucas", ranges, count=300, seed=seed)
            want = _eager_qlucas_sample(spec)
            cells = congruence._enumerate_cells(
                spec, STATEMENTS["lemma-qlucas"])
            assert iter(cells) is cells and list(cells) == want
            assert [v.params for v in congruence.grid_stream(spec)] == want
    # a bad range still raises at once, before any cell is drawn
    for ranges in ((("d", 1, 3),), (("a", 2, 1),), (("n", 1, 2),)):
        with pytest.raises(GridError):
            congruence.grid_stream(GridSpec("lemma-qlucas", ranges))


def test_first_sampled_verdict_does_not_draw_the_whole_count():
    spec = GridSpec("lemma-qlucas", count=200000)
    tracemalloc.start()
    try:
        cells = congruence.grid_stream(spec)
        first = next(cells)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    cells.close()
    assert [first] == grid_verify(replace(spec, count=1))
    assert peak < 1 << 20, peak


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


def _direct_int_sum(n, alpha, m, r, sign):
    # sum of sign^k [k(k+1)]^r (2k+1) w_k^(alpha, m), term by term from k = 1
    total = XPoly()
    for k in range(1, n + 1):
        total = total + (w_alpha_poly(k, alpha) ** m
                         * (sign ** k * (k * (k + 1)) ** r * (2 * k + 1)))
    return total


def _direct_window_sum(n, alpha, beta, m, r):
    total = XPoly()
    for k in range(1, n + 1):
        run = XPoly.const(1)
        for i in range(2 * beta):
            run = run * w_alpha_poly(k + i, alpha) ** m
        weight = (rising_factorial(k, beta)
                  * rising_factorial(k + beta + 1, beta)) ** r
        total = total + run * (weight * (k + beta))
    return total


def _plain_quotient(acc, n):
    return (acc * math.gcd(2, n)).divexact(n * (n + 1) * (n + 2))


def _lcm_quotient(acc, n, beta):
    return (acc * 2).divexact(lcm_range(n, n + 2 * beta + 1))


def test_running_integer_sums_match_direct_sums():
    # each series keeps one running sum, extended while n grows and started
    # over when n falls; n ascending, descending and repeated
    for ns in (range(1, 9), range(9, 0, -1), (3, 3, 5, 5, 2, 2, 6, 1, 1)):
        for n in ns:
            for sign, name in ((1, "plus"), (-1, "alternating")):
                want = _plain_quotient(_direct_int_sum(n, 2, 2, 1, sign), n)
                assert int_sum_plain_quotient(n, 2, 2, 1, name) == want
                assert int_sum_plain(n, 2, 2, 1, name).passed
            assert int_sum_lcm_quotient(n, 1, 2, 1, 2) == _lcm_quotient(
                _direct_window_sum(n, 1, 2, 1, 2), n, 2)
            if n % 2 == 0:
                acc = _direct_int_sum(n, 2, 1, 1, -1)
                assert conjecture_quotient("c52_eq14_even_n", n, 2, 1) == (
                    acc.divexact(n * (n + 1) * (n + 2)))


def test_running_integer_sums_in_grids_match_direct_sums():
    # a faulted cell's witness is the obstruction of the sum built from k = 1
    # plus one; grids after a larger grid start their series over
    for lo, hi in ((4, 7), (1, 3), (1, 3), (2, 8)):
        spec = GridSpec("thm-int-alternating",
                        ranges=(("n", lo, hi), ("m", 1, 2)), inject_fault=True)
        for v in grid_verify(spec):
            p = v.params
            acc = _direct_int_sum(p["n"], 1, p["m"], 1, -1) + 1
            assert not v.passed
            assert v.witness == str(_plain_quotient(acc, p["n"]))
        spec = GridSpec("thm-int-lcm", ranges=(("n", lo, hi), ("beta", 1, 2)))
        for v in grid_verify(spec):
            p = v.params
            assert v.passed
            assert int_sum_lcm_quotient(p["n"], 1, p["beta"], 1, 1) == (
                _lcm_quotient(_direct_window_sum(p["n"], 1, p["beta"], 1, 1),
                              p["n"], p["beta"]))


def test_balanced_runs_match_a_left_to_right_chain():
    # every count up to 6 splits unevenly somewhere (3 = 2 + 1, 5 = 4 + 1,
    # 6 = 4 + 2); the chain multiplies one factor at a time, as a window
    # is written
    rng = random.Random(41)
    for m in (1, 2, 3):
        for count in range(1, 7):
            k, alpha = rng.randint(1, 3), rng.randint(1, 2)
            chain, xchain = QLaurent.one(), XPoly.const(1)
            for j in range(k, k + count):
                chain = chain * q_w_poly(j, alpha) ** m
                xchain = xchain * w_alpha_poly(j, alpha) ** m
            args = (k, alpha, m, count)
            assert congruence._w_run(*args, None) == chain, args
            assert congruence._wx_run(*args) == xchain, args
            assert congruence._run_lowest_term(*args) == chain.lowest_term()
            for order in sorted(rng.sample(range(2, 13), 3)):
                assert (congruence._w_run(*args, order)
                        == chain.fold(order)), (args, order)


def test_m_power_trees_match_plain_powers():
    # m = 3 is m = 2 times m = 1, m = 4 the square of m = 2, and m = 5 is
    # m = 4 times m = 1 (congruence._power_tree)
    for k, alpha in ((2, 1), (3, 2), (4, 1)):
        w = [q_w_poly(j, alpha) for j in (k, k + 1)]
        wx = [w_alpha_poly(j, alpha) for j in (k, k + 1)]
        for m in range(1, 6):
            assert congruence._wx_power(k, alpha, m) == wx[0] ** m
            assert congruence._wx_run(k, alpha, m, 2) == (wx[0] * wx[1]) ** m
            assert congruence._w_power(k, alpha, m, None) == w[0] ** m
            for order in (5, 7):
                assert (congruence._w_power(k, alpha, m, order)
                        == (w[0] ** m).fold(order))
                assert (congruence._w_run(k, alpha, m, 2, order)
                        == ((w[0] * w[1]) ** m).fold(order))


# statement builder, its summand table, and two series of its parameters
QSUM_SERIES = (
    (qsum_plain, congruence._plain_summands,
     {"alpha": 1, "m": 1, "r": 1}, {"alpha": 2, "m": 1, "r": 2}),
    (qsum_alternating, congruence._alternating_summands,
     {"alpha": 1, "m": 1, "r": 1}, {"alpha": 1, "m": 2, "r": 1}),
    (qsum_product, congruence._product_summands,
     {"alpha": 1, "m": 1, "r": 1}, {"alpha": 2, "m": 1, "r": 1}),
    (qsum_general, congruence._general_summands,
     {"alpha": 1, "beta": 1, "m": 1, "r": 1},
     {"alpha": 1, "beta": 2, "m": 1, "r": 2}),
)


def test_running_full_qsums_match_the_summand_tables(monkeypatch):
    # one series alone extends its running value (1 -> 5 -> 7 and 3 -> 8),
    # starts over when n falls, by one or more, and reuses it when n
    # repeats; two series interleaved start over at each call.  Only the new
    # summands are built.
    built = []
    value = congruence._Summand.value

    def spy(self):
        built.append(self.k)
        return value(self)

    monkeypatch.setattr(congruence._Summand, "value", spy)
    congruence._RUNNING_QSUM.clear()
    ns = (1, 5, 7, 6, 3, 3, 8)
    # the first summand k each call builds
    starts = (1, 1, 5, 1, 1, 3, 3) + (1,) * (2 * len(ns))
    for build, summands, first, second in QSUM_SERIES:
        calls = [(n, first) for n in ns]
        calls += [(n, p) for n in ns for p in (first, second)]
        for (n, p), start in zip(calls, starts):
            del built[:]
            got = build(n, **p)
            assert built == list(range(start, n)), (build.__name__, n, p)
            assert got == QLaurent.sum(t.value() for t in summands(n, **p)), (
                build.__name__, n, p)
        # a folded value leaves the running value as it was
        kept = dict(congruence._RUNNING_QSUM)
        build(6, **second, order=6)
        assert congruence._RUNNING_QSUM == kept


def test_faulted_qsum_witnesses_parse_back_to_the_runner_remainder(
        monkeypatch):
    # every witness of a faulted grid is the text of the remainder the
    # runner computed, and QLaurent.parse reads it back to that value
    remainders = []
    rem_monic_cyclic = QLaurent.rem_monic_cyclic

    def spy(self, mod, order):
        rem = rem_monic_cyclic(self, mod, order)
        remainders.append(rem)
        return rem

    monkeypatch.setattr(QLaurent, "rem_monic_cyclic", spy)
    verdicts = grid_verify(GridSpec("thm-qsum-plain", ranges=(("n", 2, 6),),
                                    inject_fault=True))
    assert len(verdicts) == len(remainders) == 5
    for v, rem in zip(verdicts, remainders):
        assert not v.passed and not rem.is_zero()
        assert QLaurent.parse(v.witness) == rem


def test_randint_draw_matches_random_randint():
    # the sampler's draw takes the same bits as Random.randint, width-1
    # ranges included (randint draws one bit for them, and redraws a 1), so
    # the values and the generator's state after them agree
    bounds = [(0, 0), (5, 5), (-3, -3), (0, 1), (2, 12), (0, 4), (-7, 9),
              (1, 2), (3, 1000), (0, 2 ** 40), (10 ** 30, 10 ** 30 + 3)]
    for seed in (0, 1, 7, 2025, 2 ** 64 + 5):
        picker = random.Random(-seed)
        picks = [picker.choice(bounds) for _ in range(4000)]
        draw, ref = random.Random(seed), random.Random(seed)
        got = [congruence._randint(draw.getrandbits, lo, hi)
               for lo, hi in picks]
        assert got == [ref.randint(lo, hi) for lo, hi in picks]
        assert draw.getstate() == ref.getstate()


# the integer statements that _residue_runner decides
RESIDUE_STATEMENTS = ("thm-int-plain", "thm-int-alternating", "thm-int-lcm",
                      "conj-52-even")


def _random_int_ranges(rng, statement):
    # one or two cells often have a prime of M that no other cell has
    lo = rng.randint(1, 14)
    if statement == "conj-52-even":
        lo += lo % 2    # conj-52's cells have even n
    ranges = [("n", lo, lo + rng.choice((0, 1, 2, 5, 9)))]
    if statement == "conj-52-even":
        return ranges + [("alpha", 2, rng.randint(2, 3)),
                         ("m", 1, rng.randint(1, 2))]
    ranges += [("alpha", 1, rng.randint(1, 2))]
    if statement == "thm-int-lcm":
        ranges += [("beta", 1, 2)]
    return ranges + [("m", 1, rng.randint(1, 2)), ("r", 1, rng.randint(1, 2))]


def _degree(witness):
    return int(re.match(r"\w+ obstruction at degree (\d+):", witness)[1])


def test_residue_grids_match_the_exact_division_byte_for_byte():
    # seeded grids of every residue statement, faulted and unfaulted, both
    # signs and beta <= 2: each report line equals the exact path's.  In
    # the first grid the cells at the first n alone have the prime 5 of M,
    # and their w-powers exceed the M of the other cells, so an M without
    # that prime fails on their residues
    rng = random.Random(20)
    for statement in RESIDUE_STATEMENTS:
        first = ((("n", 4, 6), ("alpha", 2, 3), ("m", 1, 2))
                 if statement == "conj-52-even"
                 else (("n", 5, 6), ("alpha", 1, 3), ("m", 1, 2)))
        for fault in (False, True):
            grids = [first] + [tuple(_random_int_ranges(rng, statement))
                               for _ in range(4)]
            for ranges in grids:
                spec = GridSpec(statement, ranges, inject_fault=fault)
                verdicts = grid_verify(spec)
                assert verdicts
                for v in verdicts:
                    want = congruence._division_verdict(statement, v.params,
                                                        fault)
                    assert _json_line(v) == _json_line(want), (spec, v)
                    assert v.passed is not fault
                    if fault:
                        assert _degree(v.witness) == 0


def test_residue_cell_failing_above_degree_zero_takes_the_exact_path(
        monkeypatch):
    # with t = 10007 n(n+1)(n+2) the top coefficients fail; such a cell's
    # witness comes from _divide, and only such cells call it
    monkeypatch.setattr(congruence, "_triple",
                        lambda n: 10007 * n * (n + 1) * (n + 2))
    calls = []
    divide = congruence._divide

    def spy(statement, params, fault):
        calls.append(dict(params))
        return divide(statement, params, fault)

    for statement in ("thm-int-plain", "thm-int-alternating",
                      "conj-52-even"):
        ranges = (("n", 1, 8), ("alpha", 2, 2)) + (
            () if statement == "conj-52-even" else (("r", 1, 2),))
        for fault in (False, True):
            monkeypatch.setattr(congruence, "_divide", spy)
            del calls[:]
            verdicts = grid_verify(GridSpec(statement, ranges,
                                            inject_fault=fault))
            monkeypatch.setattr(congruence, "_divide", divide)
            high = [v.params for v in verdicts
                    if not v.passed and _degree(v.witness) > 0]
            assert high and calls == high, (statement, fault)
            for v in verdicts:
                want = congruence._division_verdict(statement, v.params,
                                                    fault)
                assert _json_line(v) == _json_line(want)


def _rerun(statement, p, fault, memo):
    # run one cell with memo as its grid scope
    token = qobjects._GRID_MEMO.set(memo)
    try:
        return STATEMENTS[statement].runner(p, fault)
    finally:
        qobjects._GRID_MEMO.reset(token)


def _one_cell_scope(statement, p, fault):
    # run one cell in a fresh scope holding its own modulus; return the
    # verdicts and the scope
    memo = {("int modulus",): congruence._grid_modulus(statement, [p])}
    return _rerun(statement, p, fault, memo), memo


def test_residue_failures_that_the_exact_path_passes_raise():
    # crafted residue sums in the scope: a nonzero residue above degree 0
    # that the exact sum does not have, one that moves a faulted cell's
    # witness off degree 0, and a constant term that disagrees with the sum
    # of the weights; each raises, also under python -O
    for statement, p in (
            ("thm-int-plain", {"n": 5, "alpha": 2, "m": 2, "r": 1}),
            ("thm-int-lcm", {"n": 4, "alpha": 1, "beta": 2, "m": 1,
                             "r": 2}),
            ("conj-52-even", {"n": 6, "alpha": 2, "m": 1})):
        for fault, index, delta in ((False, 1, 1), (True, 2, 1),
                                    (False, 0, 1)):
            verdicts, memo = _one_cell_scope(statement, p, fault)
            assert verdicts == [congruence._division_verdict(
                statement, p, fault)]
            [key] = [key for key in memo if key[0] == "int sum"]
            n, (res, low) = memo[key]
            res = list(res)
            res[index] += delta
            memo[key] = n, (res, low)
            with pytest.raises(ArithmeticError):
                _rerun(statement, p, fault, memo)


def test_residue_runner_restarts_its_series_when_n_falls():
    # one scope over n ascending, descending and repeated: each series'
    # residue sum extends, starts over, or is reused, and every verdict is
    # the exact path's; outside a grid the runner takes the exact path
    ns = (*range(1, 9), *range(9, 0, -1), 3, 3, 5, 5, 2, 2, 6, 1, 1)
    for statement in RESIDUE_STATEMENTS:
        base = {"alpha": 2, "m": 2}
        if statement == "thm-int-lcm":
            base.update(beta=2, r=1)
        elif statement != "conj-52-even":
            base["r"] = 2
        cells = [dict(n=n, **base) for n in ns
                 if statement != "conj-52-even" or n % 2 == 0]
        memo = {("int modulus",): congruence._grid_modulus(statement, cells)}
        for fault in (False, True):
            for p in cells:
                want = congruence._division_verdict(statement, p, fault)
                assert _rerun(statement, p, fault, memo) == [want], p
                assert STATEMENTS[statement].runner(p, fault) == [want]


def test_faulted_int_grid_lives_only_in_the_grid_scope(monkeypatch):
    # every witness of a faulted thm-int-plain grid is at degree 0, so the
    # grid builds no exact sum: the process-wide w-power, w-run and running
    # sum tables are untouched, and once the grid is exhausted or closed
    # partway nothing else holds its residue runs and sums
    kinds = ("int run", "int sum")
    held, seen = {}, set()
    entry = STATEMENTS["thm-int-plain"]

    def runner(p, fault):
        verdicts = entry.runner(p, fault)
        for key, value in qobjects._GRID_MEMO.get().items():
            if key[0] in kinds:
                seen.add(key[0])
                held[id(value)] = value
        return verdicts

    monkeypatch.setitem(STATEMENTS, "thm-int-plain",
                        replace(entry, runner=runner))
    spec = GridSpec("thm-int-plain", (("n", 1, 24), ("alpha", 1, 2),
                                      ("m", 1, 3), ("r", 1, 2)),
                    inject_fault=True)
    for half_read in (False, True):
        held.clear()
        seen.clear()
        infos = (congruence._wx_power.cache_info(),
                 congruence._wx_run.cache_info())
        sums = dict(congruence._RUNNING_SUMS)
        cells = congruence.grid_stream(spec)
        if half_read:
            for _ in range(100):
                assert _degree(next(cells).witness) == 0
            cells.close()
        else:
            verdicts = list(cells)
            assert len(verdicts) == 288
            assert all(_degree(v.witness) == 0 for v in verdicts)
        assert (congruence._wx_power.cache_info(),
                congruence._wx_run.cache_info()) == infos
        assert congruence._RUNNING_SUMS == sums
        assert seen == set(kinds) and cells.gi_frame is None
        assert all(gc.get_referrers(value) == [held]
                   for value in held.values())
