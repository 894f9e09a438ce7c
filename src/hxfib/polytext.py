"""Textual form for polynomials in x with rational coefficients.

Grammar (whitespace ignored):

    polynomial ::= term (("+"|"-") term)*
    term       ::= coeff | [coeff] "x" | [coeff] "x^" int
    coeff      ::= int | int "/" int

Exponents above `MAX_EXPONENT` are rejected, because the coefficients are
stored densely.

The printer emits descending powers with explicit "^" and "p/q"
coefficients, omitting unit coefficients and the exponent 1, so that
print(parse(s)) always parses back to an equal polynomial.  Its signed-term
renderer also writes the `hxfib algebra` listing, with symbols e0, e1, ...
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

from .scalars import Poly


#: Largest exponent `parse_poly` accepts.
MAX_EXPONENT = 1000


class PolyParseError(ValueError):
    """Raised with the offending token when a polynomial fails to parse."""

    def __init__(self, message: str, token: str):
        super().__init__(message)
        self.token = token


_COEFF = r"\d+(?:/\d+)?"  # the coeff rule of the grammar above

_TERM = re.compile(
    rf"""
    (?P<sign>[+-]?)
    (?:
        (?P<coeff>{_COEFF})(?P<var1>x(?:\^(?P<exp1>\d+))?)?
      | (?P<var2>x(?:\^(?P<exp2>\d+))?)
    )
    """,
    re.VERBOSE,
)


def parse_rational(text: str) -> Fraction:
    """A coeff of the grammar above with an optional sign, such as "-3" or
    "1/2"; `ValueError` on any other text or a zero denominator."""
    if re.fullmatch(rf"[+-]?{_COEFF}", text) is None:
        raise ValueError(f"{text!r} is not an integer or p/q")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def parse_poly(text: str) -> Poly:
    """Parse the grammar above into a Poly over the rationals."""
    s = re.sub(r"\s*([+-])\s*", r"\1", text.strip())
    if not s:
        raise PolyParseError("empty polynomial", text.strip() or "<empty>")
    gap = re.search(r"\s+", s)
    if gap:
        rest = s[gap.end() :]
        raise PolyParseError(f"missing operator before {rest[:16]!r}", rest[:8])
    coeffs: dict[int, Fraction] = {}
    pos = 0
    first = True
    while pos < len(s):
        m = _TERM.match(s, pos)
        if not m or m.end() == m.start():
            raise PolyParseError(f"unexpected token at {s[pos : pos + 16]!r}", s[pos : pos + 8])
        if not first and m.group("sign") == "":
            raise PolyParseError(f"missing + or - before {s[pos : pos + 16]!r}", s[pos : pos + 8])
        sign = -1 if m.group("sign") == "-" else 1
        exp_text = m.group("exp1") or m.group("exp2")
        if exp_text is not None:
            exp_text = exp_text.lstrip("0") or "0"
            if len(exp_text) > len(str(MAX_EXPONENT)) or int(exp_text) > MAX_EXPONENT:
                raise PolyParseError(f"exponent above {MAX_EXPONENT}", m.group(0)[:16])
            exp = int(exp_text)
        else:
            exp = 1 if m.group("var1") or m.group("var2") else 0
        try:
            c = parse_rational(m.group("coeff") or "1")
        except ValueError as exc:
            raise PolyParseError(f"bad coefficient: {exc}", m.group("coeff")[:16]) from None
        coeffs[exp] = coeffs.get(exp, Fraction(0)) + sign * c
        pos = m.end()
        first = False
    degree = max(coeffs) if coeffs else 0
    return Poly([coeffs.get(k, Fraction(0)) for k in range(degree + 1)])


def _format_terms(terms) -> str:
    """Render the signed sum of (numerator, denominator, symbol) triples,
    with positive denominators, in the order given: zero terms are left
    out, a unit coefficient is left off a nonempty symbol, and the empty
    sum is "0"."""
    parts = []
    for num, den, symbol in terms:
        if not num:
            continue
        mag = abs(num)
        if den != 1:
            g = gcd(mag, den)
            mag, den = mag // g, den // g
        if den != 1:
            coeff = f"{mag}/{den}"
        else:
            coeff = "" if mag == 1 and symbol else str(mag)
        parts.append(("-" if num < 0 else "+") + coeff + symbol)
    return "".join(parts).removeprefix("+") or "0"


def _power(k: int) -> str:
    return f"x^{k}" if k > 1 else ("x" if k else "")


def format_poly(p: Poly) -> str:
    """Render a rational-coefficient Poly in the grammar above."""
    num, den = p.num, p.den
    return _format_terms((num[k], den, _power(k)) for k in range(len(num) - 1, -1, -1))
