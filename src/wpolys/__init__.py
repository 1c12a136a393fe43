"""Exact verification toolkit for the w(n,k) polynomial family, its
q-analogues, and the congruence and integrality statements they satisfy."""

from .congruence import (
    GridError,
    GridSpec,
    STATEMENTS,
    conjecture_checks,
    conjecture_quotient,
    grid_stream,
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
)
from .intcomb import (
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
from .polyring import DivisionWitness, QLaurent, QPoly, XPoly
from .qobjects import (
    cyclotomic,
    lemma31_check,
    q_binomial,
    q_binomial_poly,
    q_integer,
    q_lucas_check,
    qint_factorization_check,
)
from .verdicts import Verdict
from .wpoly import (
    b_poly,
    lemma_congruence_check,
    q_w_poly,
    q_w_poly_alt,
    schroder_poly,
    w_alpha_poly,
)

__all__ = [name for name in dir() if not name.startswith("_")]
