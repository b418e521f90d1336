import math
from fractions import Fraction

import pytest

from kiselman import bounds
from kiselman.bounds import (
    ODD_EXPONENT_CONSTANT,
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
    odd_upper_bound_exponent,
    prefix_upper_bound,
    scaled_log,
)

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


def test_multinomial_identity_guard():
    with pytest.raises(ValueError):
        multinomial_identity_check(9)
    assert multinomial_identity_check(9, allow_large=True).holds


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


def test_binomial_lemma_guard_and_validation():
    with pytest.raises(ValueError):
        binomial_lemma_check(257, 1)
    with pytest.raises(ValueError):
        binomial_lemma_check(3, 4)
    assert binomial_lemma_check(257, 1, allow_large=True).holds


def test_pi_upper_is_upper():
    assert PI_UPPER > Fraction(math.pi)


def test_even_upper_bound():
    assert even_upper_bound(1) == 2**12
    assert even_upper_bound(3) == 2**48
    with pytest.raises(ValueError):
        even_upper_bound(7)
    for k in (1, 2, 3):
        assert even_upper_bound_check(k).holds


def test_even_upper_bound_check_guards_before_the_multinomial(monkeypatch):
    def unguarded(n):
        raise AssertionError(f"prefix_upper_bound({n}) ran before the guard")

    monkeypatch.setattr(bounds, "prefix_upper_bound", unguarded)
    with pytest.raises(ValueError, match="exceeds guard"):
        even_upper_bound_check(7)


def test_odd_exponent():
    assert ODD_EXPONENT_CONSTANT == math.log2(432) / math.sqrt(2)
    assert round(ODD_EXPONENT_CONSTANT, 4) == 6.1906
    assert odd_upper_bound_exponent(1) == ODD_EXPONENT_CONSTANT * math.sqrt(2)
    with pytest.raises(ValueError):
        odd_upper_bound_exponent(4)
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
    assert scaled_log(1, 2).scaled_log == pytest.approx(math.sqrt(2))
    assert scaled_log(2, 5).scaled_log == pytest.approx(1.660964, abs=1e-6)
    assert scaled_log(0, 1).scaled_log == 1.0


def test_limit_report():
    points, reports = limit_report(COUNTS)
    assert [p.n for p in points] == list(range(7))
    assert all(r.holds for r in reports)
    evens = [p.scaled_log for p in points if p.n % 2 == 0]
    odds = [p.scaled_log for p in points if p.n % 2 == 1]
    assert evens == sorted(evens)
    assert odds == sorted(odds)
    names = {r.name for r in reports}
    assert "even-scaled-log-below-6" in names
    assert "odd-scaled-log-below-log2-432-over-sqrt2" in names
