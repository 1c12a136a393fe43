"""The grid runners decide the q-sum statements in Z[x][q]/(q^N - 1) and
rebuild the witness from the folded value.  Their verdicts, witness text
included, must equal the full-value path: verify_* on the public qsum_*
value, which spans thousands of q exponents."""

import random

import pytest

from wpolys import congruence
from wpolys.congruence import (
    STATEMENTS,
    qsum_alternating,
    qsum_general,
    qsum_plain,
    qsum_product,
    verify_cyclotomic_product,
    verify_divisible_by_qn,
)
from wpolys.polyring import QLaurent

# statement -> (public full-value builder, its decision, its summands)
FULL_PATH = {
    "thm-qsum-plain": (qsum_plain, verify_divisible_by_qn,
                       congruence._plain_summands),
    "thm-qsum-alternating": (qsum_alternating, verify_cyclotomic_product,
                             congruence._alternating_summands),
    "thm-qsum-product": (qsum_product, verify_divisible_by_qn,
                         congruence._product_summands),
    "thm-qsum-general": (qsum_general, verify_divisible_by_qn,
                         congruence._general_summands),
}


def _cells(statement, rng, count):
    cells = []
    for _ in range(count):
        p = {"n": rng.randint(2, 10), "alpha": rng.randint(1, 2)}
        if statement == "thm-qsum-general":
            p["beta"] = rng.randint(1, 2)
            if p["beta"] == 2:
                # the full value of a beta = 2 window takes up to a minute
                # to build at n = 10, so the reference side stays at n <= 6
                p["n"] = min(p["n"], 6)
        p["m"] = rng.randint(1, 2)
        p["r"] = rng.randint(1, 2)
        cells.append(p)
    return cells


def _full_verdict(statement, p, fault):
    build, decide, _ = FULL_PATH[statement]
    value = build(**p)
    if fault:
        value = value + QLaurent.one()
    return decide(value, p["n"], statement, p)


def _sample():
    rng = random.Random(2027)
    return [(statement, p, fault)
            for statement in FULL_PATH
            for p in _cells(statement, rng, 5)
            for fault in (False, True)]


@pytest.mark.parametrize("statement,params,fault", _sample())
def test_folded_runner_matches_full_value(statement, params, fault):
    got = STATEMENTS[statement].runner(params, fault)
    assert got == [_full_verdict(statement, params, fault)]
    assert got[0].passed is not fault


@pytest.mark.parametrize("statement", sorted(FULL_PATH))
def test_cancelled_lowest_terms_rebuild_the_same_witness(statement,
                                                         monkeypatch):
    # when the summands' lowest q-terms cancel, the runner cannot read the
    # shift off them and must fall back to the full value
    calls = []

    def cancelled(summands, fault):
        calls.append(fault)
        return None

    monkeypatch.setattr(congruence, "_lowest_q_exp", cancelled)
    params = {"n": 6, "alpha": 2, "m": 1, "r": 2}
    if statement == "thm-qsum-general":
        params = {"n": 6, "alpha": 1, "beta": 2, "m": 1, "r": 1}
    for fault in (False, True):
        got = STATEMENTS[statement].runner(params, fault)
        assert got == [_full_verdict(statement, params, fault)]
    assert calls == [False, True]


def test_lowest_terms_give_the_full_value_lowest_exponent():
    rng = random.Random(5)
    for statement, (build, _, summands_of) in FULL_PATH.items():
        for p in _cells(statement, rng, 3):
            summands = summands_of(**p)
            value = build(**p)
            assert congruence._lowest_q_exp(summands, False) == \
                value.min_q_exp()
            assert [t.lowest_term() for t in summands] == [
                t.value().lowest_term() for t in summands]


def test_folded_builders_are_the_fold_of_the_full_value():
    for n, alpha, m, r in ((5, 2, 2, 1), (6, 1, 1, 2), (4, 2, 1, 2)):
        for order in (n, 2 * n, 3):
            assert (qsum_plain(n, alpha, m, r, order=order)
                    == qsum_plain(n, alpha, m, r).fold(order))
            assert (qsum_alternating(n, alpha, m, r, order=order)
                    == qsum_alternating(n, alpha, m, r).fold(order))
            assert (qsum_product(n, alpha, m, r, order=order)
                    == qsum_product(n, alpha, m, r).fold(order))
            assert (qsum_general(n, alpha, 2, m, r, order=order)
                    == qsum_general(n, alpha, 2, m, r).fold(order))
