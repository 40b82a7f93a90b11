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

Importing the package loads none of its modules. Each export, and each
module by its name, loads on first use (a module-level __getattr__), so
a command line loads only the modules its command runs. _EXPORTS lists
every module's __all__, in the order of the package's __all__.
"""

import importlib

_EXPORTS = {
    "exactmath": (
        "divisors", "mobius", "euler_phi", "ramanujan_sum", "binomial",
        "generalized_binomial", "trinomial_coeff", "is_prime",
    ),
    "qpoly": (
        "InexactDivisionError", "MirrorMismatchError", "IntPolynomial", "ProductSpec",
        "mul_sparse_factor", "exact_div", "pow_trunc", "gaussian_binomial",
        "expand_product", "eval_at",
    ),
    "series": (
        "BorweinSeries", "TripleDecomposition", "expand_borwein", "decompose_abc",
        "check_sign_pattern", "sign_violations", "a_via_qbinomial",
        "residue_partial_sums", "partial_sum_violations", "verify_partial_sums",
    ),
    "modcount": (
        "CapacityError", "OracleMismatchError", "SignedCountTable", "dp_signed_counts",
        "enumerate_signed_counts", "character_class_polynomial", "divisor_formula_eval",
        "divisor_formula_table", "literal_closed_form", "cross_validate",
    ),
    "partitions": (
        "RestrictedPartitionSpec", "pentagonal_series", "eta_quotient_coeffs",
        "restricted_partition_counts", "verify_stanley", "sign_coherence_check",
    ),
    "report": (
        "TOOL_VERSION", "Violation", "CrossCheck", "ReportDocument", "new_report",
        "report_to_json",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *(name for names in _EXPORTS.values() for name in names)]


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    export = "TOOL_VERSION" if name == "__version__" else name
    if export in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[export]}"), export)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
