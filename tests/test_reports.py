import json
from fractions import Fraction

import pytest

from kiselman.reports import BoundReport, format_value, reports_to_csv, reports_to_json


def test_format_value():
    assert format_value(12345678901234567890) == "12345678901234567890"
    for value in (True, 1.5, None, "18", Fraction(355, 113), Fraction(4, 1)):
        with pytest.raises(TypeError):
            format_value(value)


def test_json_emission():
    reports = [BoundReport("demo", 3, 2**70, 2**71, True, "big values")]
    parsed = json.loads(reports_to_json(reports))
    assert parsed == [
        {
            "name": "demo",
            "n_or_k": 3,
            "lhs": str(2**70),
            "rhs": str(2**71),
            "holds": True,
            "note": "big values",
        }
    ]


def test_json_roundtrip_is_byte_identical():
    reports = [
        BoundReport("a", 1, 4, 10, True),
        BoundReport("b", 2, 10**40, 1, False, "big"),
    ]
    text = reports_to_json(reports)
    rebuilt = json.dumps(json.loads(text), indent=2) + "\n"
    assert rebuilt == text


def test_csv_emission():
    reports = [
        BoundReport("plain", 1, 4, 10, True),
        BoundReport("noted", 2, 11, 7, False, 'has "quotes", and commas'),
    ]
    lines = reports_to_csv(reports).splitlines()
    assert lines[0] == "name,n_or_k,lhs,rhs,holds,note"
    assert lines[1] == "plain,1,4,10,true,"
    assert lines[2] == 'noted,2,11,7,false,"has ""quotes"", and commas"'


@pytest.mark.parametrize(
    "lhs, rhs, holds",
    [
        (3, 3, True),
        (2, 3, True),
        (4, 3, False),
        (2**70, 2**70, True),
        (2**70 - 1, 2**70, True),
        (2**70 + 1, 2**70, False),
        (Fraction(1, 3), Fraction(1, 3), True),
        (Fraction(1, 3), Fraction(1, 2), True),
        (Fraction(2, 3), Fraction(1, 2), False),
        (Fraction(2**71, 3), 2**70, True),
        (Fraction(2**71 + 3, 2), 2**70, False),
    ],
)
def test_at_most(lhs, rhs, holds):
    report = BoundReport.at_most("cmp", 1, lhs, rhs, "note")
    assert report == BoundReport("cmp", 1, lhs, rhs, holds, "note")
    assert report.holds is holds


@pytest.mark.parametrize(
    "lhs, rhs, holds",
    [
        (5, 5, True),
        (5, 6, False),
        (2**70, 2**70, True),
        (2**70, 2**70 + 1, False),
        (Fraction(4, 2), 2, True),
        (Fraction(1, 3), Fraction(1, 2), False),
    ],
)
def test_equal(lhs, rhs, holds):
    report = BoundReport.equal("eq", 2, lhs, rhs)
    assert report == BoundReport("eq", 2, lhs, rhs, holds)
    assert report.holds is holds


def test_built_reports_emit_as_plain_ones():
    built = [
        BoundReport.at_most("le", 1, 2**70, 2**71, "big"),
        BoundReport.at_most("gt", 2, 4, 3, 'a "quoted", note'),
        BoundReport.equal("eq", 3, 115, 115),
        BoundReport.equal("ne", 4, 1710, 1711, "off by one"),
    ]
    plain = [
        BoundReport("le", 1, 2**70, 2**71, True, "big"),
        BoundReport("gt", 2, 4, 3, False, 'a "quoted", note'),
        BoundReport("eq", 3, 115, 115, True),
        BoundReport("ne", 4, 1710, 1711, False, "off by one"),
    ]
    assert reports_to_json(built) == reports_to_json(plain)
    assert reports_to_csv(built) == reports_to_csv(plain)
    assert reports_to_csv(built).splitlines()[1:] == [
        f'le,1,{2**70},{2**71},true,"big"',
        'gt,2,4,3,false,"a ""quoted"", note"',
        "eq,3,115,115,true,",
        'ne,4,1710,1711,false,"off by one"',
    ]
