"""Exact rational scalars: the ground field of the workbench.

Scalars are arbitrary-precision rationals in canonical reduced form
(positive denominator, gcd(|p|, q) = 1, zero is 0/1).  Values with
denominator 1 are plain Python ints; everything else is a rational from
gmpy2 (when installed) or fractions.Fraction.  The two are hash- and
equality-compatible, so mixed arithmetic is safe and exact.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from numbers import Rational

try:
    from gmpy2 import mpq as _ratio
except ImportError:  # pragma: no cover - exercised only without gmpy2
    _ratio = Fraction

Scalar = Rational  # ints, Fractions and gmpy2.mpq all qualify

_SCALAR_RE = re.compile(r"-?\d+(/\d+)?\Z")


class ScalarError(ValueError):
    """Malformed or non-canonical scalar text."""


def scalar(numerator, denominator=1) -> Scalar:
    """Exact rational p/q, normalized to int when the reduced q is 1."""
    if isinstance(numerator, int) and isinstance(denominator, int):
        if denominator and not numerator % denominator:
            return numerator // denominator
    value = _ratio(numerator, denominator)
    if value.denominator == 1:
        return int(value)
    return value


def common_denominator(values) -> int:
    """The least d > 0 with d * s an integer for every scalar s in values."""
    return math.lcm(*{s.denominator for s in values})


def as_scalar(value) -> Scalar:
    """Coerce an int / Fraction / mpq / scalar string to canonical form."""
    if isinstance(value, int):
        return value
    if isinstance(value, _ratio):  # already reduced, with a positive denominator
        return value if value.denominator != 1 else int(value)
    if isinstance(value, str):
        return parse_scalar(value)
    if isinstance(value, Rational):
        return scalar(value.numerator, value.denominator)
    raise ScalarError(f"not an exact rational: {value!r}")


def _decimal(n: int) -> str:
    """str(n) for an int of any size.  str() refuses an int of more digits
    than the interpreter's limit (4300 by default), so such an n is written
    as its high and low halves in decimal; the limit stays as it is."""
    try:
        return str(n)
    except ValueError:
        half = n.bit_length() * 3 // 20  # about half its digits: log10(2) > 0.3
        high, low = divmod(abs(n), 10**half)
        return ("-" if n < 0 else "") + _decimal(high) + _decimal(low).zfill(half)


def render_scalar(value: Scalar) -> str:
    """Canonical text form: "p" for integers, "p/q" otherwise, at any size."""
    text = _decimal(value.numerator)
    return text if value.denominator == 1 else f"{text}/{_decimal(value.denominator)}"


def read_int(text: str, what: str) -> int:
    """int(text), or a ScalarError naming `what` if text is not an integer or
    has more digits than the interpreter reads (4300 by default)."""
    try:
        return int(text)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        if len(text) > limit:
            raise ScalarError(f"{what} is {len(text)} characters long, over the limit of {limit} digits") from None
        raise ScalarError(f"{what} is not an integer: {text!r}") from None


def parse_scalar(text: str) -> Scalar:
    """Parse canonical scalar text; reject anything not in reduced form.

    Acceptance rule: the text must equal the canonical rendering of its
    value, so "2/4", "2/1", "+1", "-0" and "1/-2" are all errors.
    """
    if not isinstance(text, str) or not _SCALAR_RE.match(text):
        raise ScalarError(f"malformed scalar string: {text!r}")
    if "/" in text:
        num, den = text.split("/")
        num, den = read_int(num, "scalar numerator"), read_int(den, "scalar denominator")
        if den == 0:
            raise ScalarError(f"zero denominator: {text!r}")
        value = scalar(num, den)
    else:
        value = read_int(text, "scalar")
    if render_scalar(value) != text:
        raise ScalarError(f"scalar not in canonical reduced form: {text!r}")
    return value
