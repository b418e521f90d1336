import math
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import pytest

from kiselman import bounds, census, words
from kiselman.bounds import (
    PI_UPPER,
    binomial_lemma_check,
    even_upper_bound,
    even_upper_bound_check,
    km_upper_bound,
    limit_report,
    lower_bound,
    maximal_multiset,
    monotone_sequence_check,
    multinomial,
    multinomial_identity_check,
    odd_exponent_check,
    prefix_upper_bound,
    scaled_log,
)
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


def test_multinomial_identity():
    for k in range(1, 9):
        report = multinomial_identity_check(k)
        assert report.holds
        assert report.lhs == report.rhs
    # k = 2 by hand: multinomial(6; 1,2,2,1) = 180 = C(2,1)C(1,1) * C(6,2)C(4,2)
    assert multinomial_identity_check(2).lhs == 180


def test_binomial_lemma_all_parts():
    for N in range(1, 65):
        for part in (1, 2, 3):
            report = binomial_lemma_check(N, part)
            assert report.holds, (N, part)


def test_binomial_lemma_exact_rational():
    report = binomial_lemma_check(1, 1)
    assert report.lhs == Fraction(4) * PI_UPPER == Fraction(1420, 113)
    assert report.rhs == 16
    report = binomial_lemma_check(2, 3)
    assert report.lhs == 15 * 16 and report.rhs == 27**2


def test_binomial_lemma_validation():
    with pytest.raises(ValueError):
        binomial_lemma_check(0, 1)
    with pytest.raises(ValueError):
        binomial_lemma_check(3, 4)


# (entry point, its last admitted arguments, its refused ones) under the default budget: the
# first refused size, then any size that ran for seconds before the module weighed its integers,
# then a size near 10^6, whose closed-form bit count alone would take over 8 KiB to build
BUDGETED = [
    (lower_bound, (32,), [(33,), (70,), (10**6,)]),
    (km_upper_bound, (27,), [(28,), (40,), (10**6,)]),
    (prefix_upper_bound, (27,), [(28,), (40,), (10**6,)]),
    (multinomial_identity_check, (13,), [(14,), (10**6,)]),
    (binomial_lemma_check, (10666, 2), [(10667, 2), (10**6, 2)]),
    (even_upper_bound, (14,), [(15,), (10**6,)]),
    (even_upper_bound_check, (13,), [(14,), (10**6,)]),
    (odd_exponent_check, (27,), [(29,), (45,), (10**6 + 1,)]),
    (limit_report, ([(28, 1)],), [([(30, 1)],), ([(10**6, 1)],)]),
    (limit_report, ([(27, 1)],), [([(29, 1)],), ([(45, 1)],), ([(10**6 + 1, 1)],)]),
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
    assert PI_UPPER > Fraction(math.pi)


def test_even_upper_bound():
    assert even_upper_bound(1) == 2**12
    assert even_upper_bound(3) == 2**48
    with pytest.raises(ValueError):
        even_upper_bound(0)
    for k in (1, 2, 3):
        assert even_upper_bound_check(k).holds
    # the check names k, as the bound does, not the rank 2k it derives
    for k in (0, -1):
        with pytest.raises(ValueError, match=f"^need k >= 1, got {k}$"):
            even_upper_bound_check(k)


def test_odd_exponent():
    # log2(432)/sqrt(2), the odd limit's bound, printed by the same routine
    assert scaled_log(1, 216) == "6.190640"
    for n in range(1, 16, 2):
        report = odd_exponent_check(n)
        assert report.holds
        assert report.rhs == 432 ** (2 ** ((n - 1) // 2))
        assert isinstance(report.lhs, int)
    with pytest.raises(ValueError):
        odd_exponent_check(4)


def test_monotone_sequence():
    reports = monotone_sequence_check(COUNTS)
    assert len(reports) == 5
    assert all(r.holds for r in reports)
    # (2*2)^2 = 16 <= 2*18 = 36 for the pair (1, 3)
    pair = next(r for r in reports if r.n_or_k == 1)
    assert (pair.lhs, pair.rhs) == (16, 36)
    pair = next(r for r in reports if r.n_or_k == 0)
    assert (pair.lhs, pair.rhs) == (4, 10)


def test_monotone_sequence_missing_pair():
    with pytest.raises(ValueError):
        monotone_sequence_check([(1, 2), (5, 1710)])


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
    for call in (lambda: lower_bound(n), lambda: scaled_log(n, 5), lambda: limit_report([(n, 1)])):
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
    reports = limit_report(COUNTS)
    assert all(r.holds for r in reports)
    evens = [Fraction(scaled_log(n, c)) for n, c in COUNTS if n % 2 == 0]
    odds = [Fraction(scaled_log(n, c)) for n, c in COUNTS if n % 2 == 1]
    assert evens == sorted(evens)
    assert odds == sorted(odds)
    notes = {r.name: r.note for r in reports}
    assert notes["even-scaled-log-below-6"] == "lower estimate for the even limit: 2.169704 <= 6.000000, both rounded down"
    assert notes["odd-scaled-log-below-log2-432-over-sqrt2"] == (
        "lower estimate for the odd limit: 2.075319 <= 6.190640, both rounded down"
    )
