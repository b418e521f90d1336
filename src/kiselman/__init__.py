"""Exact computational engine for generalized Kiselman semigroups.

The semigroup K_n is generated by letters 1..n subject to aa = a and
aba = bab = ab whenever a < b.  This package reduces words to their
unique canonical forms, multiplies elements, enumerates and counts all
canonical words per rank, and certifies the growth bounds and structure
results with exact integer arithmetic.

Importing the package loads no submodule: each public name, and each
submodule, is imported on first access (PEP 562), so a CLI command loads
only the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# the verify suites in report order, here so the CLI can offer them without importing verify
SUITES = ("reducer", "bounds", "identities", "structure")

_SUBMODULES = ("words", "reduce", "census", "oracle", "verify", "bounds", "reports", "cli")

# the submodule that defines each public name
_HOMES = {
    "Word": "words",
    "KElement": "reduce",
    "Census": "census",
    "LongestCensus": "census",
    "BoundReport": "reports",
    "CanonicalViolation": "words",
    "ResourceGuardError": "words",
    "length_bound": "words",
    "is_canonical": "words",
    "canonical_violation": "words",
    "canonical_form": "reduce",
    "multiply": "reduce",
    "identity": "reduce",
    "generators": "reduce",
    "iter_canonical": "census",
    "count": "census",
    "longest_census": "census",
    "certify_reducer": "oracle",
    "lower_bound": "bounds",
    "km_upper_bound": "bounds",
    "prefix_upper_bound": "bounds",
    "parity_cap": "bounds",
    "maximal_multiset": "bounds",
    "multinomial": "bounds",
    "scaled_log": "bounds",
    "run_suite": "verify",
    "reports_to_json": "reports",
    "reports_to_csv": "reports",
}

__all__ = ["__version__", *_HOMES]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    if name in _HOMES:
        value = getattr(import_module(f".{_HOMES[name]}", __name__), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
