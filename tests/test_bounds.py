import math
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import pytest

from kiselman import bounds, census, words
from kiselman.bounds import (
    PI_UPPER,
    km_upper_bound,
    lower_bound,
    maximal_multiset,
    multinomial,
    parity_cap,
    prefix_upper_bound,
    scaled_log,
)
from kiselman.verify import run_suite
from kiselman.words import ResourceGuardError, length_bound

COUNTS = [(0, 1), (1, 2), (2, 5), (3, 18), (4, 115), (5, 1710), (6, 83973)]


def test_lower_bound_values():
    assert [lower_bound(n) for n in range(8)] == [1, 2, 2, 8, 8, 128, 128, 32768]


def test_km_upper_bound_values():
    assert km_upper_bound(1) == 2
    assert km_upper_bound(2) == 5
    assert km_upper_bound(3) == 1 + 3**4 == 82
    with pytest.raises(ValueError):
        km_upper_bound(0)


def test_maximal_multiset():
    assert maximal_multiset(4) == {1: 1, 2: 2, 3: 2, 4: 1}
    assert maximal_multiset(5) == {1: 1, 2: 2, 3: 4, 4: 2, 5: 1}
    for n in range(1, 12):
        assert sum(maximal_multiset(n).values()) == (
            2 ** (n // 2 + 1) - 2 if n % 2 == 0 else 3 * 2 ** (n // 2) - 2
        )


def test_multinomial():
    assert multinomial([1, 2, 2, 1]) == 180
    assert multinomial([2, 3]) == math.comb(5, 2)
    assert multinomial([]) == 1
    # agrees with the factorial formula
    parts = [1, 2, 4, 2, 1]
    expected = math.factorial(sum(parts))
    for p in parts:
        expected //= math.factorial(p)
    assert multinomial(parts) == expected == 37800


def test_prefix_upper_bound_values():
    assert prefix_upper_bound(1) == 2
    assert prefix_upper_bound(2) == 6
    assert prefix_upper_bound(3) == 60
    assert prefix_upper_bound(4) == 7 * 180 == 1260
    assert prefix_upper_bound(5) == 11 * 37800


def _identities(name):
    # the identities suite's fixed checks, which its max_n does not reach
    return [r for r in run_suite("identities", 0) if r.name.startswith(name)]


def test_multinomial_identity():
    reports = _identities("multiset-multinomial-equals-binomial-product")
    assert [r.n_or_k for r in reports] == list(range(1, 9))
    for k, report in enumerate(reports, 1):
        assert report.holds
        assert report.lhs == report.rhs == multinomial(list(maximal_multiset(2 * k).values()))
    # k = 2 by hand: multinomial(6; 1,2,2,1) = 180 = C(2,1)C(1,1) * C(6,2)C(4,2)
    assert reports[1].lhs == 180


def _binomials():
    # (N, part) -> the suite's report on that binomial estimate
    return {(r.n_or_k, int(r.name[-1])): r for r in _identities("binomial-estimate-part-")}


def test_binomial_lemma_all_parts():
    reports = _binomials()
    assert sorted(reports) == [(N, part) for N in range(1, 65) for part in (1, 2, 3)]
    for key, report in reports.items():
        assert report.holds, key


def test_binomial_lemma_exact_rational():
    report = _binomials()[1, 1]
    assert (report.lhs, report.rhs) == (4 * 355, 113 * 16) == (1420, 1808)
    report = _binomials()[2, 3]
    assert report.lhs == 15 * 16 and report.rhs == 27**2


# (entry point, its last admitted arguments, its refused ones) under the default budget: the
# first refused size, then any size that ran for seconds before the module weighed its integers,
# then a size near 10^6, whose closed-form bit count alone would take over 8 KiB to build
BUDGETED = [
    (lower_bound, (32,), [(33,), (70,), (10**6,)]),
    (km_upper_bound, (27,), [(28,), (40,), (10**6,)]),
    (prefix_upper_bound, (27,), [(28,), (40,), (10**6,)]),
    (parity_cap, (28,), [(30,), (10**6,)]),
    (parity_cap, (28,), [(29,), (45,), (10**6 + 1,)]),
]


@pytest.mark.parametrize("call, admitted, refused", BUDGETED, ids=[f"{c.__name__}-{r[0][0]}" for c, _, r in BUDGETED])
def test_bounds_weigh_their_integers_against_the_budget(monkeypatch, call, admitted, refused):
    # every integer the module builds is weighed as (its bits / 64)^2 word products, before it
    # is built: the builders below fail if called, and a refusal allocates under 8 KiB, half the
    # smallest integer (2^17 bits, lower_bound(33)) a first refused size would build
    def fail(*_):
        raise AssertionError(f"{call.__name__} built a number before its guard")

    with monkeypatch.context() as m:
        for builder in ("multinomial", "maximal_multiset", "scaled_log"):
            m.setattr(bounds, builder, fail)
        m.setattr(bounds, "math", SimpleNamespace(comb=fail, isqrt=fail))
        for args in refused:
            tracemalloc.start()
            try:
                with pytest.raises(ResourceGuardError, match=r"refused: .* \(kiselman\.words\.BUDGET\)$"):
                    call(*args)
                assert tracemalloc.get_traced_memory()[1] < 8192, args
            finally:
                tracemalloc.stop()
    assert call(*admitted) is not None
    # the budget, read at call time, is the one override
    monkeypatch.setattr(words, "BUDGET", 4 * words.BUDGET)
    assert call(*refused[0]) is not None


def test_maximal_multiset_weighs_its_row(monkeypatch):
    # the rows up to rank 12 are the powers of two rising from both ends
    for n in range(1, 13):
        assert list(maximal_multiset(n).values()) == [1 << min(i, n - 1 - i) for i in range(n)]
    # rank n's row holds about n^2/4 bits, n^2/256 64-bit words, weighed before it is built
    tracemalloc.start()
    try:
        with pytest.raises(ResourceGuardError, match=r"^rank 1000000 maximal multiset refused: .* \(kiselman\.words\.BUDGET\)$"):
            maximal_multiset(10**6)
        assert tracemalloc.get_traced_memory()[1] < 8192
    finally:
        tracemalloc.stop()
    monkeypatch.setattr(words, "BUDGET", 4)
    assert sum(maximal_multiset(35).values()) == length_bound(35)  # 1225 // 256 = 4
    with pytest.raises(ResourceGuardError, match="rank 36 maximal multiset"):
        maximal_multiset(36)  # 1296 // 256 = 5


def test_pi_upper_is_upper():
    assert Fraction(*PI_UPPER) > math.pi


def test_binomial_sides_are_the_rational_ones_cleared():
    # the sides as exact rationals with pi replaced by 355/113, times 113 for part 1 and 113^2 for part 2
    pi = Fraction(355, 113)
    reports = _binomials()
    for N in range(1, 65):
        rational = {
            1: (Fraction(math.comb(2 * N, N) ** 2 * N) * pi, Fraction(2 ** (4 * N))),
            2: (Fraction(math.comb(4 * N, N) ** 2 * math.comb(3 * N, N) ** 2 * N**2 * 2) * pi**2, Fraction(2 ** (12 * N))),
        }
        for part, sides in rational.items():
            report = reports[N, part]
            assert (report.lhs, report.rhs) == tuple(113**part * side for side in sides)
            assert type(report.lhs) is type(report.rhs) is int


def _suite_reports(name):
    return [(r.n_or_k, r.lhs, r.rhs, r.holds, r.note) for r in run_suite("bounds", 6) if r.name == name]


def test_parity_cap():
    assert [parity_cap(n) for n in range(7)] == [64, 432, 2**12, 432**2, 2**24, 432**4, 2**48]
    with pytest.raises(ValueError, match="^rank must be nonnegative, got -1$"):
        parity_cap(-1)
    for n in range(1, 28):
        assert prefix_upper_bound(n) <= parity_cap(n), n
    # the bounds suite's even report names k, as the cap's exponent 2^k does, not the rank 2k
    assert _suite_reports("prefix-bound-below-even-upper-bound") == [
        (k, prefix_upper_bound(2 * k), parity_cap(2 * k), True, f"rank {2 * k}") for k in (1, 2, 3)
    ]


@pytest.mark.parametrize(
    ("call", "message"),
    [
        (lambda: maximal_multiset(0), "need rank >= 1, got 0"),
        (lambda: prefix_upper_bound(-1), "rank must be nonnegative, got -1"),
    ],
    ids=["maximal_multiset", "prefix_upper_bound"],
)
def test_argument_refusals(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_odd_exponent():
    # log2(432)/sqrt(2), the odd limit's bound, printed by the same routine
    assert scaled_log(1, 216) == "6.190640"
    for n in range(1, 16, 2):
        assert parity_cap(n) == 432 ** (2 ** ((n - 1) // 2))
    # log2 of the prefix bound below log2(432) * 2^((n-1)/2), decided on the integers
    note = "exact form: prefix bound <= 432^(2^((n-1)/2))"
    assert _suite_reports("log2-prefix-bound-below-odd-exponent") == [
        (n, prefix_upper_bound(n), parity_cap(n), True, note) for n in (1, 3, 5)
    ]


def test_monotone_sequence():
    reports = _suite_reports("doubled-count-square-below-next")
    # within each parity, evens first: (2*count(n))^2 vs 2*count(n+2)
    counts = dict(COUNTS)
    assert reports == [
        (n, (2 * counts[n]) ** 2, 2 * counts[n + 2], True, f"(2*count({n}))^2 vs 2*count({n + 2})") for n in (0, 2, 4, 1, 3)
    ]
    # (2*2)^2 = 16 <= 2*18 = 36 for the pair (1, 3), and 4 <= 10 for (0, 2)
    assert reports[3][1:3] == (16, 36) and reports[0][1:3] == (4, 10)


def test_scaled_log_values():
    assert scaled_log(0, 1) == "1.000000"
    assert scaled_log(0, 32) == "6.000000"
    assert scaled_log(1, 2) == "1.414213"  # sqrt(2) = 1.4142135...
    assert scaled_log(2, 5) == "1.660964"
    with pytest.raises(ValueError, match="count must be positive, got 0"):
        scaled_log(3, 0)


@pytest.mark.parametrize("n", [-1, -2, -5])
def test_negative_rank_is_refused_by_name(n):
    # lower_bound's message, not a bare shift's "negative shift count" or a
    # scaled log of a rank that does not exist
    message = f"^rank must be nonnegative, got {n}$"
    for call in (lambda: lower_bound(n), lambda: scaled_log(n, 5), lambda: parity_cap(n)):
        with pytest.raises(ValueError, match=message):
            call()


def _at_most_scaled_log(n: int, c: int, p: int, q: int) -> bool:
    """Exactly: p/q <= 2^(-n/2) * log2(2c), or for odd n a stronger claim.

    Even n = 2k: 2^(p*2^k) <= (2c)^q.  Odd n = 2k+1: sqrt(2) * p * 2^k is
    below isqrt(2 * (p*2^k)^2) + 1, so 2^(that) <= (2c)^q suffices.
    """
    e = p * 2 ** (n // 2)
    if n % 2:
        e = math.isqrt(2 * e * e) + 1
    return (1 << e) <= (2 * c) ** q


def _above_scaled_log(n: int, c: int, p: int, q: int) -> bool:
    """Exactly: p/q > 2^(-n/2) * log2(2c), or for odd n a stronger claim.

    Odd n: isqrt(2 * (p*2^k)^2) is below sqrt(2) * p * 2^k, so
    2^(that) > (2c)^q suffices.
    """
    e = p * 2 ** (n // 2)
    if n % 2:
        e = math.isqrt(2 * e * e)
    return (1 << e) > (2 * c) ** q


@pytest.mark.parametrize("n", range(13))
def test_scaled_log_passes_exact_power_tests(n):
    # the 3- and 4-decimal truncations are lower bounds, and one unit more is not
    c = census.count(n).total
    whole, decimals = scaled_log(n, c).split(".")
    for digits in (3, 4):
        p, q = int(whole + decimals[:digits]), 10**digits
        assert _at_most_scaled_log(n, c, p, q)
        assert _above_scaled_log(n, c, p + 1, q)


def test_limit_report():
    assert _suite_reports("count-monotone-in-rank") == [
        (n, c, COUNTS[n + 1][1], True, f"count({n}) <= count({n + 1})") for n, c in COUNTS[:-1]
    ]
    reports = [r for r in run_suite("bounds", 6) if r.name.endswith(("below-6", "sqrt2"))]
    # the latest even and odd ranks, 2*count(n) against the parity cap
    assert [(r.n_or_k, r.lhs, r.rhs, r.holds) for r in reports] == [(6, 2 * 83973, 2**48, True), (5, 2 * 1710, 432**4, True)]
    evens = [Fraction(scaled_log(n, c)) for n, c in COUNTS if n % 2 == 0]
    odds = [Fraction(scaled_log(n, c)) for n, c in COUNTS if n % 2 == 1]
    assert evens == sorted(evens)
    assert odds == sorted(odds)
    notes = {r.name: r.note for r in reports}
    assert notes["even-scaled-log-below-6"] == "lower estimate for the even limit: 2.169704 <= 6.000000, both rounded down"
    assert notes["odd-scaled-log-below-log2-432-over-sqrt2"] == (
        "lower estimate for the odd limit: 2.075319 <= 6.190640, both rounded down"
    )
