"""Exact arithmetic in Q(t), with the vanishing order at t = 0.

Rational functions regular at the origin are the working model of a
discrete valuation ring whose uniformizer is t; general elements live in
the fraction field Q(t). All arithmetic is exact (arbitrary-precision
`fractions.Fraction` coefficients) and every :class:`RatFunc` is held in
a unique canonical form, coprime numerator/denominator with a monic
denominator, so structural equality coincides with equality of
functions.

Serialized form follows the grammar::

    ratfunc := poly ("/" poly)?
    poly    := ["+"|"-"] term (("+"|"-") term)*
    term    := coeff? "t" ("^" nat)? | coeff
    coeff   := int ("/" nat)?

A "/" directly followed by a digit always belongs to the coefficient in
front of it; the numerator/denominator separator is the unique "/"
followed by something else. Canonical denominators are monic and printed
highest power first, so the separator is always followed by "t".
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

__all__ = [
    "RatFunc",
    "INFINITE",
    "t_power",
    "parse_ratfunc",
    "format_ratfunc",
    "ParseError",
    "DegreeCapExceeded",
]

#: Valuation of the zero function.
INFINITE = math.inf


class ParseError(ValueError):
    """A string does not conform to the rational-function grammar."""


class DegreeCapExceeded(ValueError):
    """An input polynomial exceeds the configured degree cap."""


# ---------------------------------------------------------------------------
# Dense polynomials over Q: tuples of Fractions indexed by the power of t,
# with no trailing zeros. The zero polynomial is the empty tuple.


def _trim(coeffs) -> tuple:
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    return tuple(coeffs[:n])


def _padd(a: tuple, b: tuple) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _trim(out)


def _pneg(a: tuple) -> tuple:
    return tuple(-c for c in a)


def _pmul(a: tuple, b: tuple) -> tuple:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if not ca:
            continue
        for j, cb in enumerate(b):
            if cb:
                out[i + j] += ca * cb
    return _trim(out)


def _pdivmod(a: tuple, b: tuple) -> tuple:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    db, lead = len(b) - 1, b[-1]
    q = [Fraction(0)] * max(0, len(r) - db)
    while len(r) > db:
        if not r[-1]:
            r.pop()
            continue
        k = len(r) - 1 - db
        f = r[-1] / lead
        q[k] = f
        for i in range(db + 1):
            r[k + i] -= f * b[i]
        r.pop()
    return _trim(q), _trim(r)


def _pgcd(a: tuple, b: tuple) -> tuple:
    while b:
        a, b = b, _pdivmod(a, b)[1]
    if not a:
        return ()
    lead = a[-1]
    return tuple(c / lead for c in a)


def _porder(a: tuple) -> int:
    # order of vanishing at t = 0 of a nonzero polynomial
    return next(i for i, c in enumerate(a) if c)


_ONE = (Fraction(1),)


def _as_poly(value) -> tuple:
    if isinstance(value, (tuple, list)):
        return _trim(tuple(c if type(c) is Fraction else Fraction(c)
                           for c in value))
    if isinstance(value, (int, Fraction)):
        c = Fraction(value)
        return (c,) if c else ()
    raise TypeError(f"cannot interpret {value!r} as a polynomial")


class RatFunc:
    """A rational function in t over Q, in canonical form."""

    __slots__ = ("_num", "_den")

    def __init__(self, num=0, den=1):
        n = _as_poly(num)
        d = _ONE if den == 1 else _as_poly(den)
        if not d:
            raise ZeroDivisionError("rational function with zero denominator")
        if not n:
            self._num, self._den = (), _ONE
            return
        if d != _ONE:  # a polynomial is already canonical
            g = _pgcd(n, d)
            if len(g) > 1:
                n = _pdivmod(n, g)[0]
                d = _pdivmod(d, g)[0]
            lead = d[-1]
            if lead != 1:
                n = tuple(c / lead for c in n)
                d = tuple(c / lead for c in d)
        self._num, self._den = n, d

    # -- structure ----------------------------------------------------------

    @property
    def numerator(self) -> tuple:
        return self._num

    @property
    def denominator(self) -> tuple:
        return self._den

    def is_zero(self) -> bool:
        return not self._num

    def __bool__(self) -> bool:
        return bool(self._num)

    def val(self):
        """Order of vanishing at t = 0; INFINITE for the zero function."""
        if not self._num:
            return INFINITE
        return _porder(self._num) - _porder(self._den)

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, (int, Fraction)):
            return RatFunc(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self._den == _ONE and o._den == _ONE:
            return RatFunc(_padd(self._num, o._num))
        num = _padd(_pmul(self._num, o._den), _pmul(o._num, self._den))
        return RatFunc(num, _pmul(self._den, o._den))

    __radd__ = __add__

    def __neg__(self):
        out = RatFunc.__new__(RatFunc)
        out._num, out._den = _pneg(self._num), self._den
        return out

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(_pmul(self._num, o._num), _pmul(self._den, o._den))

    __rmul__ = __mul__

    def inv(self) -> "RatFunc":
        if not self._num:
            raise ZeroDivisionError("inverse of the zero function")
        return RatFunc(self._den, self._num)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inv()

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._num == o._num and self._den == o._den

    def __hash__(self):
        return hash((self._num, self._den))

    def __str__(self) -> str:
        return format_ratfunc(self)

    def __repr__(self) -> str:
        return f"RatFunc({format_ratfunc(self)!r})"


def t_power(k: int) -> RatFunc:
    """t**k for any integer k (negative powers allowed)."""
    if k >= 0:
        return RatFunc((0,) * k + (1,))
    return RatFunc(1, (0,) * (-k) + (1,))


# ---------------------------------------------------------------------------
# Printing and parsing.

_TERM_RE = re.compile(r"(?:(\d+(?:/\d+)?)?(t)(?:\^(\d+))?|(\d+(?:/\d+)?))")


def _format_poly(p: tuple) -> str:
    if not p:
        return "0"
    pieces = []
    for k in range(len(p) - 1, -1, -1):
        c = p[k]
        if not c:
            continue
        mag = -c if c < 0 else c
        if k == 0:
            body = str(mag)
        else:
            tpart = "t" if k == 1 else f"t^{k}"
            body = tpart if mag == 1 else f"{mag}{tpart}"
        pieces.append(("-" if c < 0 else "+", body))
    sign, body = pieces[0]
    out = (sign if sign == "-" else "") + body
    for sign, body in pieces[1:]:
        out += sign + body
    return out


def format_ratfunc(f: RatFunc) -> str:
    num = _format_poly(f.numerator)
    if f.denominator == _ONE:
        return num
    return f"{num}/{_format_poly(f.denominator)}"


def _parse_poly(text: str, max_degree: int | None) -> tuple:
    if not text:
        raise ParseError("empty polynomial")
    coeffs: dict[int, Fraction] = {}
    pos = 0
    first = True
    while pos < len(text):
        sign = 1
        if text[pos] in "+-":
            if text[pos] == "-":
                sign = -1
            pos += 1
        elif not first:
            raise ParseError(f"expected '+' or '-' at position {pos} in {text!r}")
        m = _TERM_RE.match(text, pos)
        if not m or m.end() == pos:
            raise ParseError(f"invalid term at position {pos} in {text!r}")
        coeff_t, has_t, exp_txt, coeff_c = m.groups()
        if has_t:
            coeff = Fraction(coeff_t) if coeff_t else Fraction(1)
            exp = int(exp_txt) if exp_txt else 1
        else:
            coeff = Fraction(coeff_c)
            exp = 0
        if max_degree is not None and exp > max_degree:
            raise DegreeCapExceeded(
                f"polynomial degree {exp} exceeds the cap of {max_degree}"
            )
        coeffs[exp] = coeffs.get(exp, Fraction(0)) + sign * coeff
        pos = m.end()
        first = False
    top = max(coeffs)
    return _trim(tuple(coeffs.get(i, Fraction(0)) for i in range(top + 1)))


def parse_ratfunc(text: str, max_degree: int | None = None) -> RatFunc:
    """Parse the string grammar; inverse of :func:`format_ratfunc`.

    ``max_degree`` bounds the degree of either polynomial; exceeding it
    raises :class:`DegreeCapExceeded`.
    """
    s = "".join(text.split())
    if not s:
        raise ParseError("empty input")
    splits = [
        i for i, ch in enumerate(s)
        if ch == "/" and (i + 1 == len(s) or not s[i + 1].isdigit())
    ]
    if len(splits) > 1:
        raise ParseError(f"multiple '/' separators in {s!r}")
    if splits:
        i = splits[0]
        num, den = _parse_poly(s[:i], max_degree), _parse_poly(s[i + 1:], max_degree)
    else:
        num, den = _parse_poly(s, max_degree), _ONE
    if not den:
        raise ParseError("zero denominator")
    return RatFunc(num, den)
