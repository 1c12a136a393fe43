"""Acceptance sweep: the eight headline checks, one test per criterion.

Run with -v to get one pass/fail line per criterion.  Everything here is
exact; there are no tolerances anywhere.
"""

import io
import json
import os
import tempfile
from contextlib import redirect_stdout

from wpolys import congruence
from wpolys.cli import main
from wpolys.congruence import (
    GridSpec,
    conjecture_checks,
    grid_verify,
    int_sum_lcm,
    int_sum_plain,
    qsum_alternating,
    qsum_general,
    qsum_plain,
    qsum_product,
    verify_cyclotomic_product,
    verify_divisible_by_qn,
    _qint_qpoly,
)
from wpolys.intcomb import w_identity_suite
from wpolys.polyring import QLaurent, XPoly
from wpolys.wpoly import q_w_poly, q_w_poly_alt, schroder_poly, w_alpha_poly


def _clear_heavy_caches():
    for fn in (congruence._w_power, congruence._w_power_q2, congruence._w_run,
               congruence._run_lowest_term, congruence._wx_power,
               congruence._wx_run):
        fn.cache_clear()
    congruence._RUNNING_QSUM.clear()


def test_criterion_1_plain_sum_mod_qn():
    cells = {(n, a, m, r)
             for n in range(2, 21) for a in (1, 2) for m in (1, 2)
             for r in (1, 2)}
    cells |= {(n, a, m, r)
              for n in range(2, 13) for a in (1, 2, 3) for m in (1, 2, 3)
              for r in (1, 2, 3)}
    for n, a, m, r in sorted(cells):
        v = verify_divisible_by_qn(qsum_plain(n, a, m, r), n)
        assert v.passed, f"plain sum fails at n={n} alpha={a} m={m} r={r}"
    print("criterion 1 (plain q-sum divisible by [n]): PASS")


def test_criterion_2_alternating_sum_cyclotomic_product():
    _clear_heavy_caches()
    for n in range(2, 17):
        for a in (1, 2):
            for m in (1, 2):
                for r in (1, 2):
                    v = verify_cyclotomic_product(
                        qsum_alternating(n, a, m, r), n)
                    assert v.passed, (
                        f"alternating sum fails at n={n} alpha={a} m={m} r={r}")
    print("criterion 2 (alternating q-sum cyclotomic product): PASS")


def test_criterion_3_product_and_window_sums_mod_qn():
    _clear_heavy_caches()
    # n innermost, as in the window block, so that each full value extends
    # the last one of its series instead of starting over
    for a in (1, 2):
        for m in (1, 2):
            for r in (1, 2):
                for n in range(2, 17):
                    v = verify_divisible_by_qn(qsum_product(n, a, m, r), n)
                    assert v.passed, (
                        f"product sum fails at n={n} alpha={a} m={m} r={r}")
    for beta in (1, 2):
        for a in (1, 2):
            for m in (1, 2):
                for r in (1, 2):
                    for n in range(2, 13):
                        v = verify_divisible_by_qn(
                            qsum_general(n, a, beta, m, r), n)
                        assert v.passed, (
                            f"window sum fails at n={n} alpha={a} "
                            f"beta={beta} m={m} r={r}")
        _clear_heavy_caches()
    print("criterion 3 (product and window q-sums divisible by [n]): PASS")


def test_criterion_4_integer_sums():
    for sign in ("plus", "alternating"):
        for n in range(1, 41):
            for a in (1, 2, 3):
                for m in (1, 2, 3):
                    for r in (1, 2, 3):
                        v = int_sum_plain(n, a, m, r, sign)
                        assert v.passed, (
                            f"integer sum ({sign}) fails at n={n} alpha={a} "
                            f"m={m} r={r}")
    for n in range(1, 25):
        for beta in (1, 2):
            for a in (1, 2):
                for m in (1, 2):
                    for r in (1, 2):
                        v = int_sum_lcm(n, a, beta, m, r)
                        assert v.passed, (
                            f"lcm sum fails at n={n} alpha={a} beta={beta} "
                            f"m={m} r={r}")
    _clear_heavy_caches()
    print("criterion 4 (integer sums): PASS")


def test_criterion_5_lemma_suite():
    qlucas = grid_verify(GridSpec("lemma-qlucas", count=500, seed=0))
    assert len(qlucas) == 500 and all(v.passed for v in qlucas)
    lemma31 = grid_verify(GridSpec("lemma-31", ranges=(("d", 2, 30),)))
    assert len(lemma31) == 29 and all(v.passed for v in lemma31)
    from wpolys.qobjects import qint_factorization_check
    for n in range(2, 201):
        assert qint_factorization_check(n), f"factorization fails at n={n}"
    blocks = grid_verify(GridSpec("lemma-23", ranges=(
        ("a", 0, 3), ("b", 0, 8), ("d", 3, 10), ("alpha", 1, 2))))
    assert len(blocks) == 1136 and all(v.passed for v in blocks)
    print("criterion 5 (lemma suite): PASS")


def test_criterion_6_structural_identities():
    for n in range(1, 31):
        assert schroder_poly(n) == w_alpha_poly(n, 1)
        p = w_alpha_poly(n, 1)
        assert p.affine_subst(-1, -1) == (p if (n - 1) % 2 == 0 else -p)
    two_x_one = XPoly((1, 2))
    for n in range(1, 26):
        total = XPoly()
        for k in range(1, n + 1):
            term = w_alpha_poly(k, 1) ** 2 * (k * (k + 1) * (2 * k + 1))
            total = total + (term if (n - k) % 2 == 0 else -term)
        assert (two_x_one * total ==
                w_alpha_poly(n, 1) * w_alpha_poly(n + 1, 1)
                * (n * (n + 1) * (n + 2)))
    for j in range(1, 16):
        quot = w_alpha_poly(2 * j, 1).divexact(two_x_one)
        assert isinstance(quot, XPoly), f"w_{2 * j} not divisible by 2x+1"
    for n in range(1, 26):
        for m in range(1, n + 1):
            for b in range(0, 13):
                reports = w_identity_suite(n, m, b)
                assert all(rep.holds for rep in reports), (
                    f"identity suite fails at n={n} m={m} b={b}")
    for k in range(1, 16):
        for alpha in (1, 2, 3):
            assert q_w_poly_alt(k, alpha) == q_w_poly(k, alpha), (
                f"alternate q-form differs at k={k} alpha={alpha}")
    for k in range(1, 21):
        for alpha in (1, 2, 3):
            assert q_w_poly(k, alpha).eval_q_one() == w_alpha_poly(k, alpha), (
                f"q = 1 bridge fails at k={k} alpha={alpha}")
    print("criterion 6 (structural identities): PASS")


def test_criterion_7_conjecture_checkers():
    for alpha in (2, 3):
        for n in range(2, 21, 2):
            for m in (1, 2, 3):
                v = conjecture_checks("c52_eq14_even_n", n, alpha, m)
                assert v.passed and v.status == "conjecture-empirical"
    for n in range(1, 21):
        for m in (1, 2, 3):
            v = conjecture_checks("c54_ii", n, 1, m)
            assert v.passed and v.status == "conjecture-empirical"
    for n in range(2, 21, 2):
        v = conjecture_checks("c54_iii", n)
        assert v.passed and v.status == "conjecture-empirical"
    print("criterion 7 (conjecture checkers): PASS")


def test_criterion_8_witness_soundness_and_determinism():
    # every fault-injected q-sum verdict carries a reconstructible witness
    faults = grid_verify(GridSpec("thm-qsum-plain",
                                  ranges=(("n", 2, 6),), inject_fault=True))
    assert len(faults) == 5
    for v in faults:
        assert not v.passed and v.witness
        n = v.params["n"]
        faulted = qsum_plain(n, 1, 1, 1) + QLaurent.one()
        mod = _qint_qpoly(n)
        quot, rem, shift = faulted.divmod_monic(mod)
        assert not rem.is_zero()
        assert str(rem) == v.witness
        assert faulted.shift_q(shift) == quot * QLaurent.from_qpoly(mod) + rem
    # integer-side faults must carry a division obstruction witness
    ifaults = grid_verify(GridSpec("thm-int-plain",
                                   ranges=(("n", 1, 6),), inject_fault=True))
    assert all((not v.passed) and v.witness for v in ifaults)
    lfaults = grid_verify(GridSpec("thm-int-lcm",
                                   ranges=(("n", 1, 4),), inject_fault=True))
    assert all((not v.passed) and v.witness for v in lfaults)
    # byte-identical reports across worker counts
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["verify", "thm-qsum-plain", "--n", "2..8", "--alpha", "1..2"]
        paths = []
        for workers in (1, 4):
            path = os.path.join(tmp, f"w{workers}.jsonl")
            assert main(argv + ["--workers", str(workers),
                                "--output", path]) == 0
            paths.append(path)
        blobs = []
        for path in paths:
            with open(path, "rb") as fh:
                blobs.append(fh.read())
        assert blobs[0] == blobs[1] and blobs[0]
        for line in blobs[0].decode().splitlines()[:-1]:
            assert json.loads(line)["pass"] is True
    # the stream form matches the file form byte for byte
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(argv + ["--workers", "2"]) == 0
    assert out.getvalue().encode() == blobs[0]
    print("criterion 8 (witness soundness and determinism): PASS")
