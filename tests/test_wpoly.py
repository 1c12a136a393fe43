import math
import os
import subprocess
import sys

import pytest

import wpolys
from wpolys import polyring, wpoly
from wpolys.intcomb import binomial_general, w_number
from wpolys.polyring import DivisionWitness, QLaurent, XPoly
from wpolys.wpoly import (
    b_poly,
    lemma_congruence_check,
    q_w_poly,
    q_w_poly_alt,
    schroder_poly,
    w_alpha_poly,
)


def test_w_alpha_poly_frozen():
    assert str(w_alpha_poly(3, 1)) == "1 + 5*x + 5*x^2"
    assert w_alpha_poly(3, 2) == XPoly((1, 25, 25))
    assert w_alpha_poly(4, 1) == XPoly((1, 9, 21, 14))
    for alpha in (1, 2, 5):
        assert w_alpha_poly(1, alpha) == XPoly((1,))
    for n in range(1, 15):
        for alpha in (1, 2, 3):
            p = w_alpha_poly(n, alpha)
            assert p.degree() == n - 1
            assert p.coeffs == tuple(w_number(n, k) ** alpha
                                     for k in range(1, n + 1))


def test_schroder_equality():
    assert schroder_poly(1) == XPoly((1,))
    assert schroder_poly(2) == XPoly((1, 2))
    assert schroder_poly(3) == XPoly((1, 5, 5))
    for n in range(1, 16):
        assert schroder_poly(n) == w_alpha_poly(n, 1)


def test_w_symmetry():
    # w_n(-1-x) = (-1)^(n-1) w_n(x)
    for n in range(1, 21):
        p = w_alpha_poly(n, 1)
        flipped = p.affine_subst(-1, -1)
        assert flipped == (p if (n - 1) % 2 == 0 else -p)


def test_w_squared_alternating_identity():
    # (2x+1) sum_{k=1}^n k(k+1)(2k+1)(-1)^(n-k) w_k(x)^2
    #   = n(n+1)(n+2) w_n(x) w_{n+1}(x)
    two_x_one = XPoly((1, 2))
    for n in range(1, 11):
        total = XPoly()
        for k in range(1, n + 1):
            term = w_alpha_poly(k, 1) ** 2 * (k * (k + 1) * (2 * k + 1))
            total = total + (term if (n - k) % 2 == 0 else -term)
        lhs = two_x_one * total
        rhs = w_alpha_poly(n, 1) * w_alpha_poly(n + 1, 1) * (n * (n + 1) * (n + 2))
        assert lhs == rhs


def test_w_even_index_divisible():
    two_x_one = XPoly((1, 2))
    for j in range(1, 9):
        quot = w_alpha_poly(2 * j, 1).divexact(two_x_one)
        assert isinstance(quot, XPoly)
        assert quot * two_x_one == w_alpha_poly(2 * j, 1)
    # odd indices evaluate to the odd Catalan-like value at -1/2, so they
    # are never divisible
    assert isinstance(w_alpha_poly(3, 1).divexact(two_x_one), DivisionWitness)


def test_q_w_poly_frozen():
    assert str(q_w_poly(1, 1)) == "q^2*(1)"
    assert str(q_w_poly(2, 1)) == "q^2*(x) + q^3*(1) + q^4*(x)"
    assert q_w_poly(1, 3) == QLaurent.monomial(1, 0, 6)
    for alpha in (1, 2, 4):
        assert q_w_poly(1, alpha) == QLaurent.monomial(1, 0, 2 * alpha)
    v = q_w_poly(3, 1)
    assert v.x_degree() == 2
    assert v.min_q_exp() >= 0


def test_q_w_poly_bridge_to_integers():
    for k in range(1, 13):
        for alpha in (1, 2, 3):
            assert q_w_poly(k, alpha).eval_q_one() == w_alpha_poly(k, alpha)


def test_q_w_poly_alt_form_agrees():
    for k in range(1, 9):
        for alpha in (1, 2):
            assert q_w_poly_alt(k, alpha) == q_w_poly(k, alpha)


def _defining_value(k, alpha):
    # the defining sum built term by term from QLaurent binomials, with no
    # slice taken from another value
    return QLaurent.sum(
        (wpoly._defining_base(k, j) ** alpha).shift_q(
            alpha * (math.comb(j + 1, 2) - (k + 1) * (j - 1)))
        * QLaurent.monomial(1, x_degree=j - 1)
        for j in range(1, k + 1))


def _x_slice(value, d):
    # the x^d slice of a QLaurent value, as a QLaurent in q alone
    return QLaurent.sum(QLaurent.monomial(c.coeff(d), q_exp=e)
                        for e, c in value.terms.items())


def test_slice_j_at_alpha_is_the_alpha_power_of_slice_j_at_one():
    for k in range(1, 21):
        one = _defining_value(k, 1)
        assert q_w_poly(k, 1) == one
        for alpha in (2, 3):
            value = _defining_value(k, alpha)
            assert q_w_poly(k, alpha) == value
            for d in range(k):
                assert _x_slice(value, d) == _x_slice(one, d) ** alpha
            for order in (3, 7, 12, 32):
                folded = q_w_poly(k, alpha, order)
                assert folded == value.fold(order)
                for d in range(k):
                    assert _x_slice(folded, d) == (
                        _x_slice(q_w_poly(k, 1, order), d) ** alpha
                    ).fold(order)


def test_lowest_term_without_the_full_value():
    for k in range(1, 31):
        for alpha in (1, 2, 3):
            assert (wpoly._q_w_lowest_term(k, alpha)
                    == q_w_poly(k, alpha).lowest_term()), (k, alpha)


def test_every_defining_base_starts_at_q_to_the_k():
    for k in range(1, 31):
        for j in range(1, k + 1):
            assert (wpoly._defining_base(k, j).lowest_term()
                    == (k, XPoly.const(1)))


def test_ratio_chain_beyond_the_small_k():
    # the chain runs k - 1 double steps, so the larger k exercise long runs
    # of exact divisions that k <= 20 never reaches
    for k in (25, 33, 45):
        value = q_w_poly(k, 1)
        assert value == _defining_value(k, 1), k
        assert value == q_w_poly_alt(k, 1), k
        assert value.eval_q_one() == w_alpha_poly(k, 1), k
        for order in (7, k, 2 * k + 1):
            assert q_w_poly(k, 1, order) == value.fold(order), (k, order)


def test_inexact_ratio_step_raises_through_q_w_poly_under_O():
    # a chain whose division is off by one step must raise from
    # _ratio_step's own check, which python -O does not strip
    src = os.path.dirname(os.path.dirname(os.path.abspath(wpolys.__file__)))
    code = """
from wpolys import qobjects, wpoly
step = qobjects._ratio_step
wpoly._ratio_step = lambda coeffs, m, k: step(coeffs, m, k + 1)
try:
    wpoly.q_w_poly(6, 1)
except ArithmeticError as exc:
    print("raised", "does not divide" in str(exc))
"""
    done = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True,
        timeout=60, env=dict(os.environ, PYTHONPATH=src))
    assert done.stdout.strip() == "raised True", done.stderr


def test_b_poly_frozen():
    assert b_poly(0, 1, 3, 1) == QLaurent.parse("q^1*(-1) + q^3*(-1)")
    v = b_poly(1, 1, 4, 2)
    assert not v.is_zero()
    assert v.x_degree() <= 1 * 4 + (4 - 1) - 1


def _accumulated_b_poly(a, b, d, alpha):
    # the block polynomial summed term by term: each t-base raised to the
    # alpha, signed, scaled, shifted and placed by a monomial product
    acc = QLaurent.zero()
    for s in range(a + 1):
        cfac = (binomial_general(a, s) * binomial_general(-a - 1, s)) ** alpha
        for t in range(1, d):
            base = wpoly._block_base(b, d, t)
            if base.is_zero():
                continue
            term = (base ** alpha) * cfac
            if (alpha * (s * d + t)) & 1:
                term = -term
            term = term.shift_q(alpha * t * t)
            acc = acc + term * QLaurent.monomial(1, x_degree=s * d + t - 1)
    return acc


def _block_cells():
    return [(a, b, d, alpha) for a in range(4) for d in range(3, 13)
            for b in range(1, d - 1) for alpha in (1, 2, 3)]


def test_b_poly_matches_the_accumulated_sum():
    for cell in _block_cells():
        assert b_poly(*cell) == _accumulated_b_poly(*cell), cell


def test_folded_block_at_alpha_is_the_slice_power_of_the_folded_block_at_one():
    for a, b, d, alpha in _block_cells():
        assert (b_poly(a, b, d, 1).fold(d)._slice_power(alpha, d)
                == b_poly(a, b, d, alpha).fold(d)), (a, b, d, alpha)


def _slice_chains(value, order, top):
    # the schoolbook slice powers at alpha = 2..top of the fold of value:
    # each is the slice product of the one before and the fold, folded
    folded = value.fold(order)
    out = [folded]
    for _ in range(top - 1):
        out.append(out[-1]._slice_mul(folded).fold(order))
    return dict(enumerate(out[1:], 2))


def _spy_packed_runs(monkeypatch):
    # the runs that go through the packed integer power
    runs = []
    real = polyring._cyclic_run_power
    monkeypatch.setattr(polyring, "_cyclic_run_power", lambda qmin, run, *a:
                        runs.append(run) or real(qmin, run, *a))
    return runs


def test_packed_slice_power_matches_the_product_chain(monkeypatch):
    # every folded slice of q_w_poly(k, 1) is nonnegative, so each goes
    # through the packed power; N = 1 and N > 2k cover one lap and none
    runs = _spy_packed_runs(monkeypatch)
    for k in range(1, 25):
        for order in range(1, 49):
            folded = q_w_poly(k, 1, order)
            for alpha, want in _slice_chains(folded, order, 4).items():
                runs.clear()
                assert folded._slice_power(alpha, order) == want, (
                    k, alpha, order)
                assert len(runs) == k, (k, alpha, order)
    # and through q_w_poly itself, against the full value's chain
    for k, alpha, order in ((24, 2, 48), (24, 3, 7), (17, 4, 34), (9, 3, 1)):
        runs.clear()
        assert q_w_poly.__wrapped__(k, alpha, order) == _slice_chains(
            q_w_poly(k, 1), order, alpha)[alpha]
        assert len(runs) == k


def test_signed_folded_block_slices_take_the_product_chain(monkeypatch):
    # lemma-23's folded blocks have signed slices; those keep the schoolbook
    # chain and the nonnegative ones of the same value take the packed power
    runs = _spy_packed_runs(monkeypatch)
    signed = 0
    for a, b, d, _ in _block_cells():
        block = b_poly(a, b, d, 1)
        folded = block.fold(d)
        live = [s[1] for s in folded._slices if s is not None]
        signed += sum(min(run) < 0 for run in live)
        for alpha, want in _slice_chains(block, d, 4).items():
            runs.clear()
            assert folded._slice_power(alpha, d) == want, (a, b, d, alpha)
            assert runs == [run for run in live if min(run) >= 0]
    assert signed


def test_packed_slice_power_with_a_short_bound_raises(monkeypatch):
    # a carry out of a digit lowers the digit sum below the value at q = 1,
    # so too few bits raise instead of giving a wrong slice
    monkeypatch.setattr(polyring, "_power_bits", lambda run, alpha: 8)
    for alpha, order in ((2, 24), (3, 7)):
        with pytest.raises(ArithmeticError, match="bound is too small"):
            q_w_poly(12, 1, order)._slice_power(alpha, order)


def test_b_poly_rejects_bad_domain():
    for bad in ((0, 0, 3, 1), (0, 2, 3, 1), (0, 1, 2, 1), (-1, 1, 3, 1),
                (0, 1, 3, 0)):
        try:
            b_poly(*bad)
            assert False, f"b_poly{bad} should be rejected"
        except ValueError:
            pass


def test_lemma_congruence_first_pair_only():
    verdicts = lemma_congruence_check(0, 1, 3, 1)
    assert [v.params["eq"] for v in verdicts] == [1, 2]
    assert all(v.passed and v.witness is None for v in verdicts)
    assert all(v.statement == "lemma-23" for v in verdicts)


def test_lemma_congruence_both_pairs():
    verdicts = lemma_congruence_check(1, 1, 4, 1)
    assert [v.params["eq"] for v in verdicts] == [1, 2, 3, 4]
    assert all(v.passed for v in verdicts)


def test_lemma_congruence_second_pair_only():
    verdicts = lemma_congruence_check(0, 0, 4, 1)
    assert [v.params["eq"] for v in verdicts] == [3, 4]
    assert all(v.passed for v in verdicts)


def test_lemma_congruence_rejects():
    for bad in ((0, 0, 3, 1), (0, 2, 3, 1), (-1, 1, 4, 1), (0, 1, 2, 1)):
        try:
            lemma_congruence_check(*bad)
            assert False, f"lemma_congruence_check{bad} should be rejected"
        except ValueError:
            pass


def test_intcomb_and_wpoly_guards_survive_optimize():
    # python -O strips asserts; these guards protect results and must raise
    import json
    import os
    import subprocess
    import sys

    import wpolys
    src = os.path.dirname(os.path.dirname(os.path.abspath(wpolys.__file__)))
    code = """
import json
import math
import types

from wpolys import intcomb, wpoly
from wpolys.polyring import QLaurent

def message(fn, *args):
    try:
        fn(*args)
    except ArithmeticError as exc:
        return str(exc)
    return None

out = []
intcomb.math = types.SimpleNamespace(comb=lambda n, k: 1)
out.append(message(intcomb.w_number, 3, 2))
out.append(message(intcomb.w_number, 2, 1))
out.append(message(intcomb.narayana_number, 2, 1))
intcomb.math = math
wpoly._alt_base = lambda k, j: QLaurent.one()
out.append(message(wpoly.q_w_poly_alt, 3, 1))
binomial_general = wpoly.binomial_general
wpoly.binomial_general = lambda a, s: 1
out.append(message(wpoly.b_poly, 1, 1, 4, 1))
wpoly.binomial_general = binomial_general
wpoly._block_base = lambda b, d, t: QLaurent.one()
out.append(message(wpoly.b_poly, 0, 1, 4, 1))
print(json.dumps(out))
"""
    done = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True,
        timeout=60, env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 0, done.stderr
    messages = json.loads(done.stdout)
    expected = ("w(3,2) division not exact", "w(2,1) closed forms disagree",
                "N(2,1) division not exact", "q_w_poly_alt(3)",
                "b_poly: C(1,s)C(-2,s)", "b_poly: t-base")
    assert len(messages) == len(expected)
    for got, want in zip(messages, expected):
        assert got is not None and want in got, (got, want)
