"""Exact-arithmetic verification toolkit for the Borwein sign conjectures.

The product ∏_{j=0}^n (1-q^{3j+1})(1-q^{3j+2}) is conjectured to have
coefficients that are nonnegative at exponents divisible by 3 and
nonpositive elsewhere. This package expands such products exactly at
desk scale (degrees into the millions), verifies the sign pattern and
the strict positivity of residue-class partial sums, cross-validates a
divisor-grouped closed form for signed subset-sum counts against
independent oracles, and checks the partition-theoretic structure of
the infinite-product analogs.

Everything is integer-exact: no floats, no fixed-width arithmetic.
"""

from .exactmath import (
    binomial,
    divisors,
    euler_phi,
    generalized_binomial,
    is_prime,
    mobius,
    ramanujan_sum,
    trinomial_coeff,
)
from .modcount import (
    CapacityError,
    OracleMismatchError,
    SignedCountTable,
    character_class_polynomial,
    cross_validate,
    divisor_formula_eval,
    divisor_formula_table,
    dp_signed_counts,
    enumerate_signed_counts,
    literal_closed_form,
)
from .partitions import (
    RestrictedPartitionSpec,
    eta_quotient_coeffs,
    pentagonal_series,
    restricted_partition_counts,
    sign_coherence_check,
    verify_stanley,
)
from .qpoly import (
    InexactDivisionError,
    IntPolynomial,
    MirrorMismatchError,
    ProductSpec,
    eval_at,
    exact_div,
    expand_product,
    gaussian_binomial,
    mul_sparse_factor,
    pow_trunc,
)
from .report import TOOL_VERSION, CrossCheck, ReportDocument, Violation, report_to_json
from .series import (
    BorweinSeries,
    TripleDecomposition,
    a_via_qbinomial,
    check_sign_pattern,
    decompose_abc,
    expand_borwein,
    partial_sum_violations,
    residue_partial_sums,
    sign_violations,
    verify_partial_sums,
)

__version__ = TOOL_VERSION

__all__ = [
    "__version__",
    # exactmath
    "binomial",
    "divisors",
    "euler_phi",
    "generalized_binomial",
    "is_prime",
    "mobius",
    "ramanujan_sum",
    "trinomial_coeff",
    # qpoly
    "InexactDivisionError",
    "IntPolynomial",
    "MirrorMismatchError",
    "ProductSpec",
    "eval_at",
    "exact_div",
    "expand_product",
    "gaussian_binomial",
    "mul_sparse_factor",
    "pow_trunc",
    # series
    "BorweinSeries",
    "TripleDecomposition",
    "a_via_qbinomial",
    "check_sign_pattern",
    "decompose_abc",
    "expand_borwein",
    "partial_sum_violations",
    "residue_partial_sums",
    "sign_violations",
    "verify_partial_sums",
    # modcount
    "CapacityError",
    "OracleMismatchError",
    "SignedCountTable",
    "character_class_polynomial",
    "cross_validate",
    "divisor_formula_eval",
    "divisor_formula_table",
    "dp_signed_counts",
    "enumerate_signed_counts",
    "literal_closed_form",
    # partitions
    "RestrictedPartitionSpec",
    "eta_quotient_coeffs",
    "pentagonal_series",
    "restricted_partition_counts",
    "sign_coherence_check",
    "verify_stanley",
    # reports
    "CrossCheck",
    "ReportDocument",
    "Violation",
    "report_to_json",
]
