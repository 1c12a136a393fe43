"""Golden reports: SHA-256 digests of `wpolys verify` reports on small grids
of every statement, of the --inject-fault reports of every statement that
supports it, and of the `selftest` output.

A refactor of the ring or statement layers must leave every digest
unchanged.  A digest changes only when the report format or a verdict
changes on purpose; record the new one together with that change.
"""

import hashlib
import io
from contextlib import redirect_stdout

import pytest

from wpolys.cli import main

# statement -> (grid arguments, digest of the report, digest of the
# --inject-fault report or None where the statement does not support it)
GOLDEN = {
    "thm-qsum-plain": (
        ("--n", "2..6", "--alpha", "1..2", "--m", "1..2", "--r", "1..2"),
        "c0d435c9c21454c6835ca3f8601f2f8013cbeff6d84451a02da18a545d173434",
        "e332b4209e67054a48379d3bdc9a84da58f3361d410cd2e5496bd4e5de7fd9ba"),
    "thm-qsum-alternating": (
        ("--n", "2..6", "--alpha", "1..2", "--m", "1..2", "--r", "1..2"),
        "232107c0f48298af14cacf081eb942c0757c87eaee7f8108095d082f4314a825",
        "a72e64b863adf5afb1a01d9d3ababedc93ec2510c5725664f10541db1edbb7b4"),
    "thm-qsum-product": (
        ("--n", "2..6", "--alpha", "1..2", "--m", "1..2"),
        "f352a56f09de8c8ba1a40d8781089d6c37aafbd862a7a4685f209900019a4c07",
        "6906c7c50d8c37bc1ce3d01e76e1f5bd1d5c63678a91e5e0d7c5f9832a1372eb"),
    "thm-qsum-general": (
        ("--n", "2..5", "--beta", "1..2", "--m", "1..2"),
        "bd36629cb355c451a4a90680fb1b15d0d9b8cb07b0057cff0d0e5119773de152",
        "aba1311bd8fbec0b5cc0213ef439785569625d6d6c53b0e6066d4c6e6f084a62"),
    "thm-int-plain": (
        ("--n", "1..8", "--alpha", "1..2", "--m", "1..2", "--r", "1..2"),
        "ae8c84228ed7b208f12e042030270433b7327c139a9adbc24811b6ad88e1aa58",
        "7a775d6af285c3b395ef3ed49b4a9aa4fa5eb8c9aaec70a246e60c925e79f5a6"),
    "thm-int-alternating": (
        ("--n", "1..8", "--alpha", "1..2", "--m", "1..2", "--r", "1..2"),
        "446538e15a65c15ae708517bf77c1670abe01de60107585faa062c52bb03298e",
        "fc452f58ef44e0af1165c5814ddb05dcde3f636da323d3417367330c624a8493"),
    "thm-int-lcm": (
        ("--n", "1..6", "--beta", "1..2", "--alpha", "1..2"),
        "686b39fd83653ef9edc3d62c95a3e1b981ba3226d7c0e2a798842d29235050f5",
        "54fdbc3f43e9e0e2fae43557b144ba15ca670d6df5448c81fc66e9b0c33b007d"),
    "lemma-23": (
        ("--a", "0..1", "--b", "0..4", "--d", "3..6"),
        "2bcfdfd11c89aff64d3f1e19720666e8e6c6d392ebd1f07e2181d116060f7b26",
        None),
    "lemma-31": (
        ("--d", "2..12"),
        "d5adf42c60fc8f85657708441c3704176a3044f9686a0348ba7a5ce9c90bae7f",
        None),
    "lemma-qlucas": (
        ("--d", "2..8", "--count", "60", "--seed", "3"),
        "4495f4f289343f65eaf028ee679ec6de663258e1f3a426092bbb017ad57c3c69",
        None),
    "identity-suite": (
        ("--n", "1..6", "--m", "1..6", "--b", "0..3"),
        "f05f47f891a1896aebd0be8c2207e815bae92977b078a69e66158d2d1a82d531",
        None),
    "conj-52-even": (
        ("--n", "1..8", "--alpha", "2..3", "--m", "1..2"),
        "40901567a5aa4d93ab0d6cc3d021217da9c35b7a4aba8c6defc7774e695b5532",
        "333d66945a7fa95ceb7988ff61e8797981d6bd7d1931f21596b0196356250251"),
    "conj-54-ii": (
        ("--n", "1..8", "--m", "1..2"),
        "991f9839498520c6580f3538e44ac108e98b8b88e18c1b1864aab2231d1cc0a8",
        "1728da67c5e1617de6e5fa26084f944d576ad784472b09b5b9066183efb36597"),
    "conj-54-iii": (
        ("--n", "1..8",),
        "333e50c5d76f7077b9a60dab40208e6e1a74104f9ba5aa8540863e74345b64ed",
        "9eb21f7609a06192f1a93129795a626c36f3279d5158366b144ff2157aa3a428"),
}

SELFTEST_SHA256 = (
    "3b090541cc0fcf4fc64e27b9d49991445ff9ad4928505fcd330983e562672039")

CASES = [(sid, False) for sid in GOLDEN]
CASES += [(sid, True) for sid, row in GOLDEN.items() if row[2] is not None]


def _run(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def test_golden_covers_every_statement():
    from wpolys.congruence import STATEMENTS
    assert sorted(GOLDEN) == sorted(STATEMENTS)
    assert [sid for sid, fault in CASES if fault] == [
        sid for sid, entry in STATEMENTS.items() if entry.fault_ok]


@pytest.mark.parametrize(
    "statement,fault", CASES,
    ids=[sid + ("-fault" if fault else "") for sid, fault in CASES])
def test_verify_report_digest(statement, fault):
    grid, digest, fault_digest = GOLDEN[statement]
    argv = ["verify", statement, *grid, "--workers", "1"]
    if fault:
        argv.append("--inject-fault")
    code, got = _run(argv)
    assert code == (1 if fault else 0)
    assert got == (fault_digest if fault else digest)


def test_selftest_output_digest():
    assert _run(["selftest"]) == (0, SELFTEST_SHA256)
