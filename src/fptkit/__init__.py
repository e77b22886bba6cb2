"""Exact F-pure thresholds of polynomials over finite fields and log
canonical thresholds of monomial ideals, with certificates."""

from .charp import (
    Certificate,
    FpPoly,
    NuTable,
    QPoly,
    TermBudget,
    ThresholdReport,
    bracket,
    certify_lower,
    fpt_is_one,
    frobenius_reduce,
    nu,
    nu_ideal,
    nu_table,
    reduce_mod_p,
)
from .exactnum import (
    carry_free_prefix,
    multinomial_mod_p,
    primes_in_progression,
    truncate,
)
from .parsing import parse_monomials, parse_polynomial
from .polygeo import (
    MaximalPointResult,
    MonomialSet,
    NewtonAnalysis,
    maximal_points,
    newton_analysis,
    newton_contains,
    newton_threshold,
    splitting_polytope,
    splitting_threshold,
)
from .ratlp import LinearProgram, LpOutcome, maximize
from .thresholds import (
    CarryVerdict,
    CoefficientPolynomial,
    ScanRow,
    carry_criterion,
    dense_fpurity_scan,
    generic_gap_test,
    scan_csv_text,
    scan_json_document,
    theta_for_point,
    theta_polynomial,
)

__version__ = "0.1.0"
