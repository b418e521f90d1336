"""Named verification suites aggregating every certified check.

Each suite returns a list of BoundReports; a suite passes when every
report holds.  Discrepancies that are known to be on the side of a
printed closed form rather than the enumeration are reported with a
"WARN:" note and holds=True, so they surface without failing a run.
"""

from __future__ import annotations

from . import SUITES, bounds
from .reports import BoundReport
from .words import Word, _guard, is_canonical, length_bound

__all__ = ["SUITES", "REDUCER_CHECKS", "run_suite", "failing", "warned"]

# (rank, word-length cap) pairs certified against the congruence oracle
REDUCER_CHECKS = ((1, 7), (2, 7), (3, 7), (4, 8))

COUNTEREXAMPLE_WORD = (2, 3, 1, 2, 4, 3)


def reducer_suite(max_n: int = 6) -> list[BoundReport]:
    """Certify the deletion reducer against the congruence-closure oracle."""
    from . import oracle  # the only suite that runs the oracle, so the others do not load it

    return [
        oracle.verify_reducer_against_oracle(n, max_len)
        for n, max_len in REDUCER_CHECKS
        if n <= max_n
    ]


def bounds_suite(max_n: int = 6) -> list[BoundReport]:
    """Sandwich every enumerated count between the proved bounds.

    Exact integer comparisons throughout: the double-exponential lower
    bound, both upper bounds, the parity caps, the doubling recursion
    and the parity-limit estimates.
    """
    from . import census  # the two suites that run the census load it, so the others do not
    counts = {n: census.count(n).total for n in range(max_n + 1)}
    reports, prefix = [], {}
    for n, c in counts.items():
        reports.append(BoundReport.at_most("lower-bound-below-count", n, bounds.lower_bound(n), c))
        if n >= 1:
            prefix[n] = bounds.prefix_upper_bound(n)
            reports.append(BoundReport.at_most("count-below-prefix-bound", n, c, prefix[n]))
            km = bounds.km_upper_bound(n)
            reports.append(BoundReport.at_most("count-below-km-bound", n, c, km))
        if n >= 2 and n % 2 == 0:
            cap = bounds.parity_cap(n)
            name = "count-below-even-upper-bound"
            reports.append(BoundReport.at_most(name, n // 2, c, cap, f"rank {n}"))
    reports.extend(bounds.monotone_sequence_check(list(counts.items())))
    reports.extend(bounds.limit_report(list(counts.items())))
    for n in range(2, max_n + 1, 2):
        name = "prefix-bound-below-even-upper-bound"
        reports.append(BoundReport.at_most(name, n // 2, prefix[n], bounds.parity_cap(n), f"rank {n}"))
    for n in range(1, max_n + 1, 2):
        name = "log2-prefix-bound-below-odd-exponent"
        note = "exact form: prefix bound <= 432^(2^((n-1)/2))"
        reports.append(BoundReport.at_most(name, n, prefix[n], bounds.parity_cap(n), note))
    return reports


def identities_suite(max_n: int = 6) -> list[BoundReport]:
    """Exact combinatorial identities and integer-form binomial estimates."""
    # rank n's multiset row holds about n^2/4 bits, n^2/256 64-bit words; summed over n <= max_n
    _guard(max_n * (max_n + 1) * (2 * max_n + 1) // 1536, f"multiset rows up to rank {max_n}")
    reports = []
    for n in range(1, max_n + 1):
        total = sum(bounds.maximal_multiset(n).values())
        ell = length_bound(n)
        reports.append(BoundReport.equal("multiset-sums-to-length-bound", n, total, ell))
    for k in range(1, 9):
        reports.append(bounds.multinomial_identity_check(k))
    for N in range(1, 65):
        for part in (1, 2, 3):
            reports.append(bounds.binomial_lemma_check(N, part))
    return reports


def _counterexample_report(max_length: int) -> BoundReport:
    word = Word(COUNTEREXAMPLE_WORD, 4)
    half = length_bound(2)
    middle = COUNTEREXAMPLE_WORD[half : half + 2]
    factors = set(middle) == {1, 4}
    holds = (
        is_canonical(word)
        and len(word) == length_bound(4)
        and len(word) == max_length
        and not factors
    )
    return BoundReport(
        name="even-rank-counterexample-word",
        n_or_k=4,
        lhs=len(word),
        rhs=max_length,
        holds=holds,
        note=f"word '{word}' is canonical and maximal but its middle pair is {middle}, not {{1, 4}}",
    )


def structure_suite(max_n: int = 6) -> list[BoundReport]:
    """Longest-word structure: lengths, counts, factorization, embeddings."""
    from . import census
    longest = {n: census.longest_census(n) for n in range(1, max_n + 1)}
    reports = [
        BoundReport.equal(
            "max-length-equals-length-bound",
            n,
            lc.max_length,
            length_bound(n),
            f"{lc.count} words of maximal length",
        )
        for n, lc in longest.items()
    ]
    for n in range(3, max_n + 1, 2):
        reports.append(census._odd_structure_report(longest[n], longest[n - 2]))
        enumerated = longest[n].count
        # the paper's printed formula for the maximal words coincides with its lower bound
        printed = bounds.lower_bound(n)
        note = (
            f"WARN: enumerated {enumerated} maximal words, printed closed form "
            f"gives {printed}; enumeration follows f(n) = 2*f(n-2)^2"
        )
        name = "longest-count-vs-printed-closed-form"
        reports.append(BoundReport(name, n, enumerated, printed, holds=True, note=note))
    if max_n >= 4:
        reports.append(_counterexample_report(longest[4].max_length))
    for n in range(2, max_n + 1):
        reports.append(census.verify_subalphabet_embedding(n))
    for n in range(0, min(max_n - 2, 4) + 1):
        reports.append(census.verify_lower_bound_construction(n))
    return reports


def run_suite(suite: str, max_n: int = 6) -> list[BoundReport]:
    if suite == "reducer":
        return reducer_suite(max_n)
    if suite == "bounds":
        return bounds_suite(max_n)
    if suite == "identities":
        return identities_suite(max_n)
    if suite == "structure":
        return structure_suite(max_n)
    if suite == "all":
        # structure first, as its listing guard refuses a rank soonest; reports keep SUITES order
        structure = structure_suite(max_n)
        return [r for s in SUITES for r in (structure if s == "structure" else run_suite(s, max_n))]
    raise ValueError(f"unknown suite {suite!r}; choose from {SUITES + ('all',)}")


def failing(reports: list[BoundReport]) -> list[BoundReport]:
    return [r for r in reports if not r.holds]


def warned(reports: list[BoundReport]) -> list[BoundReport]:
    """The reports with a "WARN:" note: known discrepancies that surface without failing a run."""
    return [r for r in reports if r.note.startswith("WARN")]
