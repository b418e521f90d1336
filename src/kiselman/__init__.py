"""Exact computational engine for generalized Kiselman semigroups.

The semigroup K_n is generated by letters 1..n subject to aa = a and
aba = bab = ab whenever a < b.  This package reduces words to their
unique canonical forms, multiplies elements, enumerates and counts all
canonical words per rank, and certifies the growth bounds and structure
results with exact integer and rational arithmetic.
"""

__version__ = "0.1.0"

from .bounds import (
    binomial_lemma_check,
    even_upper_bound,
    km_upper_bound,
    limit_report,
    lower_bound,
    maximal_multiset,
    monotone_sequence_check,
    multinomial,
    multinomial_identity_check,
    prefix_upper_bound,
    scaled_log,
)
from .census import (
    Census,
    LongestCensus,
    count,
    filtered_recount,
    iter_canonical,
    longest_census,
)
from .oracle import certify_reducer, congruence_closure, verify_reducer_against_oracle
from .reduce import KElement, canonical_form, delete_step, generators, identity, multiply
from .reports import BoundReport, reports_to_csv, reports_to_json
from .verify import run_all, run_suite
from .words import (
    CanonicalViolation,
    ResourceGuardError,
    Word,
    canonical_violation,
    is_canonical,
    length_bound,
)

__all__ = [
    "__version__",
    "Word",
    "KElement",
    "Census",
    "LongestCensus",
    "BoundReport",
    "CanonicalViolation",
    "ResourceGuardError",
    "length_bound",
    "is_canonical",
    "canonical_violation",
    "canonical_form",
    "delete_step",
    "multiply",
    "identity",
    "generators",
    "iter_canonical",
    "count",
    "filtered_recount",
    "longest_census",
    "congruence_closure",
    "certify_reducer",
    "verify_reducer_against_oracle",
    "lower_bound",
    "km_upper_bound",
    "prefix_upper_bound",
    "even_upper_bound",
    "maximal_multiset",
    "multinomial",
    "multinomial_identity_check",
    "binomial_lemma_check",
    "monotone_sequence_check",
    "limit_report",
    "scaled_log",
    "run_suite",
    "run_all",
    "reports_to_json",
    "reports_to_csv",
]
