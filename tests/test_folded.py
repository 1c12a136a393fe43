"""The grid runners decide the q-sum statements in Z[x][q]/(q^N - 1) and
rebuild the witness from the folded value, and lemma-23 and q-Lucas are
decided in Z[x][q]/(q^d - 1).  Their verdicts, witness text included, must
equal the full-value path: verify_* on the public qsum_* value, which spans
thousands of q exponents, and the remainder of the whole lemma-23 or q-Lucas
difference."""

import dataclasses
import gc
import itertools
import math
import random

import pytest

from wpolys import congruence, polyring, qobjects, wpoly
from wpolys.congruence import (
    STATEMENTS,
    qsum_alternating,
    qsum_general,
    qsum_plain,
    qsum_product,
    verify_cyclotomic_product,
    verify_divisible_by_qn,
)
from wpolys.intcomb import divisors
from wpolys.polyring import (QLaurent, QPoly, _divmod_monic_lists,
                             _fold_cyclic)
from wpolys.qobjects import cyclotomic, q_binomial
from wpolys.wpoly import b_poly, lemma_congruence_check, q_w_poly

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
    # shift off them and must fall back to the full value; a passing
    # unfaulted cell is decided on its packed columns and reads no lowest
    # terms
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
    assert calls == [True]


def _spy_q_w_poly(monkeypatch):
    # every q_w_poly call from congruence and from q_w_poly itself, each with
    # the Gaussian-binomial rows and convolutions made inside it; q_w_poly's
    # own table, the congruence memo tables and the running full q-sum are
    # cleared so that no earlier test answers for q_w_poly
    calls = []
    made = []
    real = wpoly.q_w_poly

    def spy(*args):
        calls.append(args)
        start = len(made)
        value = real(*args)
        if args[1] == 1:
            assert len(made) == start, (args, made[start:])
        return value

    def counted(name, fn):
        return lambda *args: made.append(name) or fn(*args)

    monkeypatch.setattr(qobjects, "_qbinom_poly",
                        counted("_qbinom_poly", qobjects._qbinom_poly))
    monkeypatch.setattr(polyring, "_convolve",
                        counted("_convolve", polyring._convolve))
    wpoly.q_w_poly.cache_clear()
    for table in (congruence._w_power, congruence._w_power_q2,
                  congruence._w_run):
        table.cache_clear()
    congruence._RUNNING_QSUM.clear()
    monkeypatch.setattr(wpoly, "q_w_poly", spy)
    monkeypatch.setattr(congruence, "q_w_poly", spy)
    return calls


GRIDS = (
    ("thm-qsum-plain", (("n", 2, 7), ("alpha", 1, 2), ("r", 1, 2))),
    ("thm-qsum-alternating", (("n", 2, 7), ("alpha", 1, 3))),
    ("thm-qsum-product", (("n", 2, 6), ("m", 1, 2))),
    ("thm-qsum-general", (("n", 2, 6), ("beta", 1, 2), ("alpha", 1, 2))),
)


@pytest.mark.parametrize("statement,ranges", GRIDS)
def test_passing_qsum_grid_builds_only_folded_w_polynomials(
        statement, ranges, monkeypatch):
    calls = _spy_q_w_poly(monkeypatch)
    verdicts = congruence.grid_verify(congruence.GridSpec(statement, ranges))
    assert verdicts and all(v.passed for v in verdicts)
    assert calls
    # a full value is built only at alpha = 1, and the spy checks that each
    # alpha = 1 build makes no Gaussian-binomial row and no product
    assert all(args[1] == 1 or len(args) == 3 and args[2] is not None
               for args in calls), [args for args in calls if len(args) < 3]


def test_cancelled_lowest_terms_still_build_the_full_value(monkeypatch):
    calls = _spy_q_w_poly(monkeypatch)
    monkeypatch.setattr(congruence, "_lowest_q_exp", lambda *args: None)
    params = {"n": 5, "alpha": 2, "m": 1, "r": 1}
    # a faulted cell: an unfaulted one passes on its packed columns
    assert STATEMENTS["thm-qsum-plain"].runner(params, True) == [
        _full_verdict("thm-qsum-plain", params, True)]
    # every alpha = 1 build is full now, so look for a full alpha = 2 value
    assert any(args[1:] == (2,) for args in calls)


# a failing cell of each q-sum statement once its k = 1 summand's first
# weight [M] becomes [M + 1] (_bump_first_weight)
FAILING_CELLS = {
    "thm-qsum-plain": {"n": 6, "alpha": 2, "m": 1, "r": 2},
    "thm-qsum-alternating": {"n": 6, "alpha": 2, "m": 1, "r": 1},
    "thm-qsum-product": {"n": 5, "alpha": 1, "m": 2, "r": 1},
    "thm-qsum-general": {"n": 5, "alpha": 1, "beta": 2, "m": 1, "r": 1},
}


def _bump_first_weight(monkeypatch):
    # every summand table builds _Summand by its module-global name, so the
    # runner and the public qsum_* read the same bumped weight; the running
    # full q-sum starts empty and is dropped afterwards
    real = congruence._Summand

    def bumped(k, *args, **kwargs):
        t = real(k, *args, **kwargs)
        if k > 1:
            return t
        (n, r, stride), *rest = t.weights
        return dataclasses.replace(t, weights=((n + 1, r, stride), *rest))

    monkeypatch.setattr(congruence, "_Summand", bumped)
    monkeypatch.setattr(congruence, "_RUNNING_QSUM", {})


@pytest.mark.parametrize("statement", sorted(FULL_PATH))
def test_failing_cell_with_cancelled_lowest_terms_gives_the_full_witness(
        statement, monkeypatch):
    # an unfaulted cell that fails on its packed columns reads the lowest
    # terms for its witness; when they cancel, it decides the full value
    _bump_first_weight(monkeypatch)
    params = FAILING_CELLS[statement]
    want = _full_verdict(statement, params, False)
    assert not want.passed and want.witness
    assert STATEMENTS[statement].runner(params, False) == [want]
    calls = []
    monkeypatch.setattr(congruence, "_lowest_q_exp",
                        lambda summands, fault: calls.append(fault))
    assert STATEMENTS[statement].runner(params, False) == [want]
    assert calls == [False]


@pytest.mark.parametrize("statement,ranges", GRIDS)
def test_passing_qsum_cells_read_no_lowest_terms(statement, ranges,
                                                 monkeypatch):
    # q is a unit, so a pass on the packed columns at shift 0 needs no
    # lowest term; only the witness of a faulted cell reads them
    calls = []
    real = congruence._lowest_q_exp
    monkeypatch.setattr(congruence, "_lowest_q_exp",
                        lambda *args: calls.append(args[1]) or real(*args))
    spec = congruence.GridSpec(statement, ranges)
    verdicts = congruence.grid_verify(spec)
    assert verdicts and all(v.passed for v in verdicts)
    assert not calls
    faulted = congruence.grid_verify(dataclasses.replace(
        spec, inject_fault=True))
    assert calls == [True] * len(faulted)


def test_packed_rows_live_only_in_the_grid_scope(monkeypatch):
    # each folded w-run's padded rows are built once per grid, shared by the
    # r-siblings of a cell through the grid's memo scope, which keeps one
    # windowed-columns entry per summand beside them, not one per r or per
    # width; nothing keeps either once the grid ends or is closed, faulted
    # or not, and a folded qsum_* call outside a grid keeps none
    made, windowed = [], []
    real_rows, real_cols = QLaurent._x_rows, congruence._windowed_columns
    monkeypatch.setattr(QLaurent, "_x_rows", lambda self, order:
                        made.append(real_rows(self, order)) or made[-1])
    monkeypatch.setattr(congruence, "_windowed_columns", lambda *args: (
        windowed.append(real_cols(*args)) or windowed[-1]))
    keys = {"packed rows": set(), "windowed cols": set()}
    entry = STATEMENTS["thm-qsum-alternating"]

    def runner(p, fault):
        verdicts = entry.runner(p, fault)
        for key in wpoly._GRID_MEMO.get():
            keys.get(key[0], set()).add(key)
        return verdicts

    def held_by_the_test_alone():
        return (all(gc.get_referrers(rows) == [made] for rows in made)
                and all(gc.get_referrers(cols) == [windowed]
                        for cols in windowed))

    monkeypatch.setitem(STATEMENTS, "thm-qsum-alternating",
                        dataclasses.replace(entry, runner=runner))
    assert wpoly._GRID_MEMO.get() is None
    assert qsum_alternating(6, 2, 1, 2, order=12) == qsum_alternating(
        6, 2, 1, 2).fold(12)
    assert made and windowed and held_by_the_test_alone()
    spec = congruence.GridSpec("thm-qsum-alternating", (
        ("n", 2, 7), ("alpha", 1, 2), ("r", 1, 3)))
    for fault, half_read in ((False, False), (True, False), (False, True)):
        for seen in (made, windowed, *keys.values()):
            seen.clear()
        cells = congruence.grid_stream(dataclasses.replace(
            spec, inject_fault=fault))
        if half_read:
            for _ in range(7):
                next(cells)
            cells.close()
        else:
            verdicts = list(cells)
            assert all(v.passed is not fault for v in verdicts)
            # three r-siblings per (n, alpha), n - 1 summands each
            assert sum(v.params["n"] - 1 for v in verdicts) == 3 * len(
                keys["packed rows"])
        assert len(made) == len(keys["packed rows"]) == len(
            keys["windowed cols"]) > 0
        assert len(windowed) > len(made)
        assert cells.gi_frame is None
        assert held_by_the_test_alone()


def _in_scope(memo, fn, *args):
    token = qobjects._GRID_MEMO.set(memo)
    try:
        return fn(*args)
    finally:
        qobjects._GRID_MEMO.reset(token)


def _spy_packing(monkeypatch):
    # every _packed_columns result and every _pack_columns call
    results, packs = [], []
    real_columns, real_pack = (congruence._packed_columns,
                               congruence._pack_columns)
    monkeypatch.setattr(congruence, "_packed_columns", lambda *args: (
        results.append(real_columns(*args)) or results[-1]))
    monkeypatch.setattr(congruence, "_pack_columns", lambda *args: (
        packs.append(args) or real_pack(*args)))
    return results, packs


def _scope_sequence(statement):
    # (params, fault) in the order one scope runs them: r ascending,
    # descending, repeated, and r = 16, whose bound is more than a 64-bit
    # word above r = 1's; alpha, n and beta changing between siblings; and
    # faulted cells, which qsum_*(order=N) packs without the moduli's
    # headroom, so at another width
    cells = [(6, 1, 1, 1), (6, 1, 2, 1), (6, 1, 3, 1), (6, 1, 3, 1),
             (6, 1, 2, 1), (6, 1, 1, 1), (6, 1, 16, 1), (6, 1, 2, 1),
             (6, 2, 2, 1), (6, 2, 3, 1), (7, 2, 3, 1), (7, 1, 1, 1),
             (6, 1, 1, 2), (6, 1, 2, 2), (5, 1, 2, 1), (6, 1, 1, 1)]
    faults = {12, 13, 14}
    seq = []
    for i, (n, alpha, r, beta) in enumerate(cells):
        p = {"n": n, "alpha": alpha}
        if statement == "thm-qsum-general":
            p["beta"] = beta
        p.update(m=1, r=r)
        seq.append((p, i in faults))
    return seq


@pytest.mark.parametrize("statement", sorted(FULL_PATH))
def test_qsum_cells_in_one_scope_match_a_fresh_scope_per_cell(statement,
                                                              monkeypatch):
    # one grid scope over the sequence reuses each summand's windowed
    # columns across r-siblings; every verdict and every _packed_columns
    # result (cols, bits, depth) must equal a fresh scope per cell's
    results, packs = _spy_packing(monkeypatch)
    runner = STATEMENTS[statement].runner
    seq = _scope_sequence(statement)
    memo = {}
    shared = [_in_scope(memo, runner, p, fault) for p, fault in seq]
    shared_results, shared_packs = results[:], len(packs)
    del results[:], packs[:]
    fresh = [_in_scope({}, runner, p, fault) for p, fault in seq]
    assert shared == fresh
    assert [v.passed for [v] in fresh] == [not fault for _, fault in seq]
    assert shared_results == results
    assert shared_packs < len(packs)
    # r = 16 moved the unfaulted n = 6, alpha = 1 cells to another width
    assert len({bits for (p, fault), (_, bits, _) in zip(seq, results)
                if p["n"] == 6 and p["alpha"] == 1 and not fault}) > 1
    windowed = [key for key in memo if key[0] == "windowed cols"]
    assert len(windowed) == len({key for key in memo
                                 if key[0] == "packed rows"})


def test_packed_columns_in_one_scope_match_a_fresh_scope():
    # summand lists that share entries beyond the statements' own cells:
    # two n at one order (same summands, other shifts), with and without
    # the moduli's headroom (other widths), and summands that differ only
    # in the first weight's M, at one width
    def other_first_weight(terms):
        return [dataclasses.replace(t, weights=(
            (t.weights[0][0] + 1, *t.weights[0][1:]), *t.weights[1:]))
            for t in terms]

    mods = congruence._qn_moduli(12)
    plain, alternating = (congruence._plain_summands,
                          congruence._alternating_summands)
    calls = [(plain(12, 1, 1, 1), 12, mods),
             (plain(7, 1, 1, 2), 12, ()),
             (plain(7, 1, 1, 16), 12, mods),
             (plain(7, 1, 1, 1), 12, mods),
             (other_first_weight(plain(7, 1, 1, 1)), 12, mods),
             (alternating(6, 2, 1, 2), 12, ()),
             (other_first_weight(alternating(6, 2, 1, 2)), 12, ()),
             (alternating(6, 2, 1, 1), 12, ()),
             (alternating(5, 2, 1, 3), 12, ())]
    memo = {}
    shared = [_in_scope(memo, congruence._packed_columns, *args)
              for args in calls]
    fresh = [_in_scope({}, congruence._packed_columns, *args)
             for args in calls]
    assert shared == fresh
    # each M pair is at one width, so only the key tells them apart
    assert shared[3][1] == shared[4][1] and shared[5][1] == shared[6][1]
    assert shared[1][1] != shared[2][1]


@pytest.mark.parametrize("statement", sorted(FULL_PATH))
def test_r_sibling_at_the_same_width_packs_no_summand(statement,
                                                      monkeypatch):
    # at n = 5 an r = 2 cell's bound is a byte or more above its r = 1
    # sibling's; in whole 64-bit words both take one width, so the r = 2
    # cell runs one pass of its first weight on each summand's kept columns
    # and packs none
    results, packs = _spy_packing(monkeypatch)
    runner = STATEMENTS[statement].runner
    p = {"n": 5, "alpha": 1, "m": 1, "r": 1}
    if statement == "thm-qsum-general":
        p["beta"] = 1
    memo = {}
    assert _in_scope(memo, runner, p, False)[0].passed
    assert len(packs) == 4
    del packs[:]
    assert _in_scope(memo, runner, dict(p, r=2), False)[0].passed
    assert results[0][1] == results[1][1] == 64
    assert not packs


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


def _packed_sum_cells():
    # seeded cells of every q-sum with alpha, m and r up to 3, beta up to 2
    # and n up to 10 (6 at beta = 2, whose full value takes seconds beyond
    # that), then cells whose weights prod M^r dwarf the w-run coefficients
    rng = random.Random(4242)
    cells = []
    for statement in FULL_PATH:
        for _ in range(4):
            p = {"n": rng.randint(2, 10), "alpha": rng.randint(1, 3)}
            if statement == "thm-qsum-general":
                p["beta"] = rng.randint(1, 2)
                if p["beta"] == 2:
                    p["n"] = min(p["n"], 6)
            p["m"] = rng.randint(1, 3)
            p["r"] = rng.randint(1, 3)
            cells.append((statement, p))
    cells += [("thm-qsum-plain", {"n": 10, "alpha": 1, "m": 1, "r": 3}),
              ("thm-qsum-alternating", {"n": 9, "alpha": 1, "m": 1, "r": 3}),
              ("thm-qsum-product", {"n": 8, "alpha": 1, "m": 1, "r": 3}),
              ("thm-qsum-general",
               {"n": 6, "alpha": 1, "beta": 2, "m": 1, "r": 3})]
    # and an order N >= 1 that n does not divide
    return [(statement, p, rng.choice([N for N in range(1, 2 * p["n"] + 3)
                                       if N % p["n"]]))
            for statement, p in cells]


@pytest.mark.parametrize("statement,params,odd", _packed_sum_cells())
def test_packed_qsum_is_the_fold_of_the_summed_summands(statement, params,
                                                         odd):
    # the x-packed folded sum at N = n, 2n, 1 and odd, against the full
    # summands summed and then folded; and the runner's faulted verdict
    # against the full value's
    build, _, summands_of = FULL_PATH[statement]
    n = params["n"]
    full = QLaurent.sum(t.value() for t in summands_of(**params))
    for order in (n, 2 * n, 1, odd):
        assert build(**params, order=order) == full.fold(order), order
    got = STATEMENTS[statement].runner(params, True)
    assert got == [_full_verdict(statement, params, True)]
    assert not got[0].passed


def _decision_moduli():
    # (order, (mod, d)): [n] at order n, and Phi_d at order 2n for every
    # d > 1 dividing 2n, n <= 16
    for n in range(2, 17):
        yield n, (congruence._qint_qpoly(n), n)
        for d in divisors(2 * n):
            if d > 1:
                yield 2 * n, (cyclotomic(d), d)


def _extreme_rows(mod, d, order, bound):
    # rows of order entries, each +-bound: row i takes the sign of
    # coefficient i of q^(e mod d) mod mod at exponent e, so that its
    # remainder's coefficient i is as large as any such row's; then all
    # +bound, all -bound and random signs
    rems = [_divmod_monic_lists([0] * e + [1], mod.coeffs)[1]
            for e in range(d)]
    rows = [[-bound if i < len(rems[e % d]) and rems[e % d][i] < 0
             else bound for e in range(order)]
            for i in range(mod.degree())]
    rng = random.Random(order * 100 + d)
    rows += [[bound] * order, [-bound] * order,
             [rng.choice((bound, -bound)) for _ in range(order)]]
    return rows


def _padded(coeffs, width):
    return list(coeffs) + [0] * (width - len(coeffs))


@pytest.mark.parametrize("bound", [1] + [2 ** j - 1 for j in range(57, 65)])
def test_packed_remainders_decode_to_the_per_slice_remainders(bound):
    # Each x-slice of the folded value at +-bound, bits from _packing_bits
    # for that modulus alone: the packed remainder unpacks to the per-slice
    # remainders.  bits is a bit length plus 2 in whole bytes, so for each
    # headroom factor one of the eight bounds 2^j - 1 leaves a single bit of
    # slack, and dropping a factor of 4 or more from the (order/d) R(mod, d)
    # headroom makes the unpack decode wrongly or raise.
    rng = random.Random(bound)
    for order, (mod, d) in _decision_moduli():
        rows = _extreme_rows(mod, d, order, bound)
        bits = congruence._packing_bits(bound, order, [(mod, d)])
        cols = polyring._pack_columns(rows, bits)
        shift = rng.randrange(order)
        [rem] = congruence._packed_remainders(cols, [(mod, d)], shift)
        width = mod.degree()
        got = polyring._unpack_columns(_padded(rem, width), bits, len(rows))
        want = [_padded(_divmod_monic_lists(
            _fold_cyclic(row, shift, d), mod.coeffs)[1], width)
            for row in rows]
        assert [list(row) for row in got] == want, (order, d)
        assert (not rem) == (not any(map(any, want)))


def test_packed_fail_that_the_reference_passes_raises(monkeypatch):
    # a nonzero packed remainder on a cell whose value verify_* passes means
    # the packing's bound was too small: a real exception, kept under -O
    monkeypatch.setattr(congruence, "_packed_remainders",
                        lambda *args: [[1]])
    for statement in ("thm-qsum-plain", "thm-qsum-alternating"):
        with pytest.raises(ArithmeticError, match="packing bound"):
            STATEMENTS[statement].runner({"n": 5, "alpha": 1, "m": 1,
                                          "r": 1}, False)


@pytest.mark.parametrize("statement,ranges", GRIDS)
def test_passing_folded_qsum_grid_stays_on_packed_columns(statement, ranges,
                                                          monkeypatch):
    # a passing cell is decided on its x-packed q-columns: no unpack, no
    # QLaurent remainder and no qsum_* or verify_* call; each faulted cell
    # is built by qsum_*, which unpacks its columns once, and returns
    # verify_*'s verdict and witness
    calls, decided = [], []
    rem_monic_cyclic, unpacked = (QLaurent.rem_monic_cyclic,
                                  QLaurent._x_unpacked)
    monkeypatch.setattr(QLaurent, "rem_monic_cyclic",
                        lambda self, *args: calls.append("rem")
                        or rem_monic_cyclic(self, *args))
    monkeypatch.setattr(QLaurent, "_x_unpacked", staticmethod(
        lambda *args: calls.append("unpack") or unpacked(*args)))
    for name in ("verify_divisible_by_qn", "verify_cyclotomic_product"):
        monkeypatch.setattr(congruence, name, lambda *args, real=getattr(
            congruence, name): decided.append(real(*args)) or decided[-1])
    for name in ("qsum_plain", "qsum_alternating", "qsum_product",
                 "qsum_general"):
        monkeypatch.setattr(congruence, name, lambda *args, real=getattr(
            congruence, name), **kwargs: calls.append("build")
            or real(*args, **kwargs))
    spec = congruence.GridSpec(statement, ranges)
    verdicts = congruence.grid_verify(spec)
    assert verdicts and all(v.passed for v in verdicts)
    assert not calls and not decided
    faulted = congruence.grid_verify(dataclasses.replace(
        spec, inject_fault=True))
    assert [v.params for v in faulted] == [v.params for v in verdicts]
    assert faulted == decided and not any(v.passed for v in faulted)
    assert (calls.count("build") == calls.count("unpack") == len(faulted)
            <= calls.count("rem"))


def test_folded_q_w_poly_is_the_fold_of_the_full_value():
    for k in range(1, 31):
        for alpha in range(1, 4):
            full = q_w_poly(k, alpha)
            for order in range(2, 13):
                assert q_w_poly(k, alpha, order) == full.fold(order), \
                    (k, alpha, order)


# lemma-23 equation -> (w index, B index, q-shift) as functions of (a, b, d,
# alpha), the four congruences of lemma_congruence_check's docstring
LEMMA23_EQS = {
    1: lambda a, b, d, alpha: (a * d + b, b, 0),
    2: lambda a, b, d, alpha: (a * d + d - b - 1, b, -alpha * (2 * b + 1)),
    3: lambda a, b, d, alpha: (a * d + b + 1, b + 1, 0),
    4: lambda a, b, d, alpha: (a * d + d - b - 2, b + 1,
                               -alpha * (2 * b + 3)),
}


def _full_lemma23_remainder(a, b, d, alpha, eq):
    widx, bidx, shift = LEMMA23_EQS[eq](a, b, d, alpha)
    diff = q_w_poly(widx, alpha) - wpoly.b_poly(a, bidx, d, alpha).shift_q(
        shift)
    return diff.rem_monic_cyclic(cyclotomic(d), d)


def _lemma23_grid():
    ranges = {name: bounds for name, _, bounds
              in STATEMENTS["lemma-23"].params}
    cells = itertools.product(*(range(lo, hi + 1) for lo, hi in (
        ranges["a"], ranges["b"], ranges["d"], ranges["alpha"])))
    return [c for c in cells
            if congruence._lemma23_valid({"b": c[1], "d": c[2]})]


def test_folded_lemma23_verdicts_match_the_full_remainder():
    grid = _lemma23_grid()
    assert max(a for a, _, _, _ in grid) == 3
    for a, b, d, alpha in grid:
        for v in lemma_congruence_check(a, b, d, alpha):
            rem = _full_lemma23_remainder(a, b, d, alpha, v.params["eq"])
            assert v.passed and rem.is_zero(), (a, b, d, alpha, v)


def test_failing_lemma23_equation_gives_the_full_witness(monkeypatch):
    real = b_poly
    monkeypatch.setattr(wpoly, "b_poly",
                        lambda *args: real(*args) + QLaurent.one())
    for a, b, d, alpha in ((0, 1, 3, 1), (1, 2, 7, 2), (2, 0, 5, 1),
                           (1, 3, 10, 2)):
        verdicts = lemma_congruence_check(a, b, d, alpha)
        assert verdicts
        for v in verdicts:
            rem = _full_lemma23_remainder(a, b, d, alpha, v.params["eq"])
            assert not v.passed and not rem.is_zero()
            assert v.witness == str(rem)


def test_passing_lemma23_grid_builds_only_alpha_one_blocks(monkeypatch):
    calls = []
    real = wpoly.b_poly

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(wpoly, "b_poly", spy)
    verdicts = congruence.grid_verify(congruence.GridSpec(
        "lemma-23", (("a", 0, 2), ("d", 3, 8), ("alpha", 1, 3))))
    assert verdicts and all(v.passed for v in verdicts)
    assert calls
    assert all(args[3] == 1 for args in calls), \
        [args for args in calls if args[3] != 1]


# the lemma-23 command of the benchmark's lemma-blocks workload
BENCH_LEMMA23 = (("a", 0, 2), ("b", 0, 8), ("d", 3, 10), ("alpha", 1, 2))


def test_lemma23_grid_matches_per_cell_calls_outside_a_grid():
    assert wpoly._GRID_MEMO.get() is None
    want = [v for cell in _lemma23_grid()
            for v in lemma_congruence_check(*cell)]
    got = congruence.grid_verify(congruence.GridSpec("lemma-23"))
    assert len(got) > 1000 and got == want


def test_benchmark_lemma23_grid_decides_each_distinct_equation_once(
        monkeypatch):
    # eq 1 and 2 of cell b are eq 3 and 4 of cell b - 1, so the 852
    # verdicts rest on 432 equations; each folded block (a, B index, d,
    # alpha) is built once
    decided, blocks = [], []
    decide, build = wpoly._decide_lemma23, wpoly.b_poly

    def decide_spy(memo, *equation):
        decided.append(equation)
        return decide(memo, *equation)

    def build_spy(*args):
        blocks.append(args)
        return build(*args)

    monkeypatch.setattr(wpoly, "_decide_lemma23", decide_spy)
    monkeypatch.setattr(wpoly, "b_poly", build_spy)
    verdicts = congruence.grid_verify(congruence.GridSpec(
        "lemma-23", BENCH_LEMMA23))
    assert len(verdicts) == 852 and all(v.passed for v in verdicts)
    assert len(decided) == len(set(decided)) == 432
    assert len(blocks) == 216 and len(set(blocks)) == 108
    assert all(args[3] == 1 for args in blocks)


def test_lemma23_rows_and_columns_live_only_in_the_grid_scope(monkeypatch):
    # a passing lemma-23 grid decides every equation from its scope's
    # q-Pascal tables, rows and packed columns: it calls no q_w_poly, and
    # once the grid is exhausted or closed half read nothing else holds them
    kinds = ("q-pascal", "lemma-23 w rows", "lemma-23 block",
             "lemma-23 cols")
    held, seen = {}, set()
    entry = STATEMENTS["lemma-23"]

    def runner(p, fault):
        verdicts = entry.runner(p, fault)
        for key, value in wpoly._GRID_MEMO.get().items():
            if key[0] in kinds:
                seen.add(key[0])
                held[id(value)] = value
        return verdicts

    monkeypatch.setitem(STATEMENTS, "lemma-23",
                        dataclasses.replace(entry, runner=runner))
    spec = congruence.GridSpec("lemma-23", BENCH_LEMMA23)
    for half_read in (False, True):
        held.clear()
        seen.clear()
        info = q_w_poly.cache_info()
        cells = congruence.grid_stream(spec)
        if half_read:
            for _ in range(100):
                assert next(cells).passed
            cells.close()
        else:
            verdicts = list(cells)
            assert len(verdicts) == 852 and all(v.passed for v in verdicts)
        assert q_w_poly.cache_info() == info
        assert seen == set(kinds) and cells.gi_frame is None
        assert all(gc.get_referrers(value) == [held]
                   for value in held.values())


def test_packed_lemma23_fail_that_the_full_difference_passes_raises():
    # R(cyclotomic(30), 30) = 12, so the packed bits must cover twelve times
    # the difference's height.  256 reduced by multiples q^i cyclotomic(30)
    # mod q^30 - 1 is a row r of height below 64, whose remainder is 256;
    # with -1 on the next x-slice the remainder is 256 - 256x, which
    # vanishes at x = 2^8, the bits of that height alone.  w_1 = B_{0,1,30}
    # holds, so with these rows in the memo the packed remainder must be
    # nonzero and the full difference's zero, and that raises, also under -O
    d = 30
    phi = cyclotomic(d).coeffs
    shifts = [[sum(phi[j] for j in range(len(phi)) if (i + j) % d == e)
               for e in range(d)] for i in range(d)]
    row = [256] + [0] * (d - 1)
    better = True
    while better:
        better = False
        for step, sign in itertools.product(shifts, (1, -1)):
            cand = [x + sign * y for x, y in zip(row, step)]
            if (max(map(abs, cand)), sum(x * x for x in cand)) < (
                    max(map(abs, row)), sum(x * x for x in row)):
                row, better = cand, True
    top = max(map(abs, row))
    assert top < 64 and polyring._packing_bits(top, d) == 8
    assert _divmod_monic_lists(row, phi)[1] == [256]
    memo = {("lemma-23 w rows", 1, 1, d): ([row, [-1] + [0] * (d - 1)], top),
            ("lemma-23 block", 0, 1, d, 1): ([[0] * d], 0)}
    with pytest.raises(ArithmeticError, match="packed remainder is nonzero"):
        wpoly._decide_lemma23(memo, 0, d, 1, 1, 1, 0)


def test_patched_b_poly_between_grids_fails_every_equation(monkeypatch):
    spec = congruence.GridSpec(
        "lemma-23", (("a", 0, 1), ("d", 3, 7), ("alpha", 1, 2)))
    first = congruence.grid_verify(spec)
    assert first and all(v.passed for v in first)
    # every full block the witnesses need is in b_poly's table before the
    # patch, so the patched calls below store no corrupted value there
    for v in first:
        p = v.params
        _full_lemma23_remainder(p["a"], p["b"], p["d"], p["alpha"], p["eq"])
    real = wpoly.b_poly
    misses = real.cache_info().misses
    monkeypatch.setattr(wpoly, "b_poly",
                        lambda *args: real(*args) + QLaurent.one())
    second = congruence.grid_verify(spec)
    assert [v.params for v in second] == [v.params for v in first]
    for v in second:
        p = v.params
        rem = _full_lemma23_remainder(p["a"], p["b"], p["d"], p["alpha"],
                                      p["eq"])
        assert not v.passed and v.witness == str(rem), p
    assert real.cache_info().misses == misses


def test_grid_memo_scope_lives_while_its_grid_runs(monkeypatch):
    seen = []
    entry = STATEMENTS["lemma-23"]

    def runner(p, fault):
        seen.append(wpoly._GRID_MEMO.get())
        return entry.runner(p, fault)

    monkeypatch.setitem(STATEMENTS, "lemma-23",
                        dataclasses.replace(entry, runner=runner))
    spec = congruence.GridSpec(
        "lemma-23", (("a", 0, 0), ("d", 3, 6), ("alpha", 1, 1)))
    scopes = []
    for half_read in (False, True):
        seen.clear()
        cells = congruence.grid_stream(spec)
        assert not seen
        if half_read:
            next(cells)
            # code between cells does not see the scope
            assert wpoly._GRID_MEMO.get() is None
            cells.close()
        else:
            assert len(list(cells)) > len(seen) > 1
        assert seen[0] and all(scope is seen[0] for scope in seen)
        assert wpoly._GRID_MEMO.get() is None and cells.gi_frame is None
        # only this test's list still holds the grid's scope
        assert gc.get_referrers(seen[0]) == [seen]
        scopes.append(seen[0])
    assert scopes[0] is not scopes[1]


def test_support_guard_builds_no_unused_binomial(monkeypatch):
    tops = []
    real = wpoly.q_binomial

    def spy(n, k):
        tops.append(n)
        return real(n, k)

    monkeypatch.setattr(wpoly, "q_binomial", spy)
    for k in (1, 4, 9):
        for order in (None, 5):
            tops.clear()
            q_w_poly.__wrapped__(k, 1, order)
            assert tops and 2 * k + 1 not in tops, (k, order)


def test_passing_qlucas_cell_makes_no_polynomial_value(monkeypatch):
    cells = _qlucas_sample(37, 300)
    for p in cells:                 # warm the binomial and cyclotomic tables
        assert qobjects.q_lucas_check(*_qlucas_args(p))
    made = []
    for cls in (QLaurent, QPoly):
        init = cls.__init__
        monkeypatch.setattr(cls, "__init__", lambda self, *args, init=init:
                            made.append(type(self)) or init(self, *args))
    for p in cells:
        assert STATEMENTS["lemma-qlucas"].runner(p, False)[0].passed
    assert not made


def test_q_w_poly_support_guard_raises_on_the_order_path(monkeypatch):
    monkeypatch.setattr(wpoly, "_defining_base",
                        lambda k, j: QLaurent.one())
    for order in (None, 5):
        with pytest.raises(ArithmeticError, match="support outside"):
            q_w_poly.__wrapped__(3, 1, order)


def _full_qlucas_remainder(d, a, b, s, t):
    diff = (q_binomial(a * d + b, s * d + t)
            - math.comb(a, s) * q_binomial(b, t))
    return diff.rem_monic_cyclic(cyclotomic(d), d)


def _qlucas_sample(seed, count):
    rng = random.Random(seed)
    cells = []
    for _ in range(count):
        d = rng.randint(2, 12)
        a = rng.randint(0, 4)
        cells.append({"d": d, "a": a, "b": rng.randint(0, d - 1),
                      "s": rng.randint(0, a + 1), "t": rng.randint(0, d - 1)})
    return cells


def _qlucas_args(p):
    return p["d"], p["a"], p["b"], p["s"], p["t"]


def test_folded_qlucas_remainder_matches_the_full_difference():
    cells = _qlucas_sample(29, 400)
    # s = a + 1 makes C(a, s) zero, t > b the second binomial zero
    assert any(p["s"] == p["a"] + 1 for p in cells)
    assert any(p["t"] > p["b"] for p in cells)
    for p in cells:
        args = _qlucas_args(p)
        assert (qobjects._q_lucas_remainder(*args)
                == _full_qlucas_remainder(*args)), p


def test_failing_qlucas_cell_gives_the_full_witness():
    # a grid scope whose q-Pascal tables add one to every folded binomial:
    # the runner must read them there, and its witness must be the remainder
    # of the full difference of the binomials plus one; t >= 1 keeps both
    # bottoms positive, so every binomial that is not zero is corrupted
    cells = [p for p in _qlucas_sample(31, 200) if p["t"] >= 1]
    memo = {}
    for d in {p["d"] for p in cells}:
        rows = qobjects._q_pascal_rows(d, 5 * d - 1)
        memo["q-pascal", d] = [[[e[0] + 1, *e[1:]] for e in row]
                               for row in rows]
    tables = dict(memo)

    def plus_one(n, k):
        return q_binomial(n, k) + QLaurent.one() if k <= n else QLaurent.zero()

    failed = 0
    for p in cells:
        d, a, b, s, t = _qlucas_args(p)
        diff = plus_one(a * d + b, s * d + t) - math.comb(a, s) * plus_one(b, t)
        rem = diff.rem_monic_cyclic(cyclotomic(d), d)
        token = wpoly._GRID_MEMO.set(memo)
        try:
            [v] = STATEMENTS["lemma-qlucas"].runner(p, False)
        finally:
            wpoly._GRID_MEMO.reset(token)
        assert v.passed is rem.is_zero(), p
        if not v.passed:
            failed += 1
            assert v.witness == str(rem), p
    assert failed
    # the runner read the corrupted tables and neither rebuilt nor grew them
    assert memo.keys() == tables.keys()
    assert all(memo[key] is table and len(table) == 5 * key[1]
               for key, table in tables.items())
