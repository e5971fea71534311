import sys

import pytest

from opalg.scalars import ScalarError, as_scalar, parse_scalar, render_scalar, scalar


def test_scalar_normalizes_to_int_when_denominator_one():
    assert scalar(4, 2) == 2
    assert isinstance(scalar(4, 2), int)
    assert scalar(0, 7) == 0
    assert render_scalar(scalar(0, 7)) == "0"


def test_scalar_reduced_form():
    v = scalar(6, 4)
    assert v.numerator == 3
    assert v.denominator == 2
    w = scalar(-6, 4)
    assert w.numerator == -3 and w.denominator == 2


def test_arithmetic_is_exact():
    a = scalar(1, 3)
    b = scalar(1, 6)
    assert a + b == scalar(1, 2)
    assert a - b == scalar(1, 6)
    assert a * b == scalar(1, 18)
    assert a / b == 2


def test_division_by_zero_is_an_error():
    with pytest.raises(ZeroDivisionError):
        scalar(1, 3) / scalar(0)
    with pytest.raises(ZeroDivisionError):
        scalar(1, 0)


@pytest.mark.parametrize("text", ["0", "5", "-7", "1/2", "-3/2", "22/7"])
def test_parse_render_round_trip(text):
    assert render_scalar(parse_scalar(text)) == text


@pytest.mark.parametrize("text", ["2/4", "2/1", "+1", "-0", "1/-2", "1/0", "", "a", "1.5", " 1"])
def test_non_canonical_strings_rejected(text):
    with pytest.raises(ScalarError):
        parse_scalar(text)


def test_as_scalar_coercions():
    from fractions import Fraction

    assert as_scalar(Fraction(4, 2)) == 2
    assert isinstance(as_scalar(Fraction(4, 2)), int)
    assert as_scalar("3/4") == scalar(3, 4)
    assert as_scalar(5) == 5
    with pytest.raises(ScalarError):
        as_scalar(1.5)


def _read_digits(text: str) -> int:
    """The int a decimal text names, read 1000 digits at a time (int() refuses long texts)."""
    sign, digits = (-1, text[1:]) if text.startswith("-") else (1, text)
    value = 0
    for start in range(0, len(digits), 1000):
        chunk = digits[start : start + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return sign * value


@pytest.mark.parametrize("digits", [4300, 4301, 9000, 30001])
def test_render_scalar_writes_any_size_and_leaves_the_limit_alone(digits):
    limit = sys.get_int_max_str_digits()
    for n in (10 ** (digits - 1), -(10**digits) + 1, 7 * 10 ** (digits - 1) + 3):
        text = render_scalar(n)
        assert _read_digits(text) == n and text.lstrip("-")[0] != "0"
        q = scalar(n, 10**digits + 1)
        num, den = render_scalar(q).split("/")
        assert (_read_digits(num), _read_digits(den)) == (q.numerator, q.denominator)
    assert sys.get_int_max_str_digits() == limit


def test_scalar_text_over_the_digit_limit_is_a_scalar_error():
    limit = sys.get_int_max_str_digits()
    assert parse_scalar("9" * limit) == 10**limit - 1
    for text in ("9" * (limit + 1), "1/" + "9" * (limit + 1), "-" + "9" * (limit + 1) + "/2"):
        with pytest.raises(ScalarError, match=f"over the limit of {limit} digits"):
            parse_scalar(text)
