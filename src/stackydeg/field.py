"""Exact arithmetic in Q(t), with the vanishing order at t = 0.

Rational functions regular at the origin are the working model of a
discrete valuation ring whose uniformizer is t; general elements live in
the fraction field Q(t). All arithmetic is exact and every
:class:`RatFunc` is held in a unique canonical form, coprime
numerator/denominator with a monic denominator, so structural equality
coincides with equality of functions. Coefficients are stored as
Fractions; products and the reduction run over Z, on a rational content
times a primitive integer polynomial, with the gcd from GCDHEU (or a
primitive-PRS fallback) and the canonical form built from its cofactors.

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
# Dense polynomials: coefficients by power of t, no trailing zeros, empty for
# zero; tuples of Fractions when stored, lists of ints in the integer work.


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


def _porder(a: tuple) -> int:
    # order of vanishing at t = 0 of a nonzero polynomial
    return next(i for i, c in enumerate(a) if c)


def _split(p) -> tuple:
    """(g, m, P) with p = (g/m) * P and P primitive over Z."""
    m = math.lcm(*[c.denominator for c in p])
    ints = [c.numerator * (m // c.denominator) for c in p]
    g = math.gcd(*ints)
    return g, m, [c // g for c in ints]


def _zmul(a: list, b: list, scale: int = 1) -> list:
    """scale * a * b over Z."""
    if scale != 1:
        a = [scale * c for c in a]
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b, i):
                out[j] += ca * cb
    return out


def _zquo(f: list, h: list):
    """f / h over Z, or None unless h divides f exactly."""
    dh, lead = len(h) - 1, h[-1]
    r, q = list(f), [0] * (len(f) - dh)
    for k in range(len(q) - 1, -1, -1):
        c, rem = divmod(r[k + dh], lead)
        if rem:
            return None
        q[k] = c
        for i in range(dh):
            r[k + i] -= c * h[i]
    return q if q and not any(r[:dh]) else None


def _zinterp(v: int, x: int) -> list:
    """The polynomial with value v at x, digits in the symmetric range."""
    out = []
    while v:
        c = v % x
        if c > x // 2:
            c -= x
        out.append(c)
        v = (v - c) // x
    return out


def _heu_guesses(f: list, g: list, x: int):
    fx = gx = 0
    for c in reversed(f):
        fx = fx * x + c
    for c in reversed(g):
        gx = gx * x + c
    if fx and gx:
        hx = math.gcd(fx, gx)
        yield _split(_zinterp(hx, x))[2]
        yield _zquo(f, _zinterp(fx // hx, x))
        yield _zquo(g, _zinterp(gx // hx, x))


def _heu_gcd(f: list, g: list):
    """(h, f/h, g/h) with h = gcd(f, g) for primitive f, g over Z, or None
    when the heuristic gives up: GCDHEU (Char, Geddes and Gonnet, J.
    Symbolic Comput. 1989) with the evaluation point, the 6 attempts and
    the growth step of sympy's ``dup_zz_heu_gcd``. Each attempt reads the
    gcd off gcd(f(x), g(x)), then off each cofactor, and keeps the first
    guess that divides both exactly."""
    f_norm, g_norm = max(map(abs, f)), max(map(abs, g))
    b = 2 * min(f_norm, g_norm) + 29
    x = max(min(b, 99 * math.isqrt(b)),
            2 * min(f_norm // abs(f[-1]), g_norm // abs(g[-1])) + 4)
    for _ in range(6):
        for h in _heu_guesses(f, g, x):
            cff = h and _zquo(f, h)
            cfg = cff and _zquo(g, h)
            if cfg:
                return h, cff, cfg
        x = 73794 * x * math.isqrt(math.isqrt(x)) // 27011


def _prs_gcd(f: list, g: list) -> tuple:
    """(h, f/h, g/h) by the primitive remainder sequence over Z (Knuth,
    TAOCP vol. 2, 4.6.1), for primitive f and g."""
    a, b = f, g
    while b:
        r = list(a)
        while len(r) >= len(b):  # r := lead(b) * r - r[-1] * t^k * b
            c, k = r[-1], len(r) - len(b)
            r = [b[-1] * x for x in r]
            for i, y in enumerate(b, k):
                r[i] -= c * y
            r = list(_trim(r))
        a, b = b, _split(r)[2]
    return a, _zquo(f, a), _zquo(g, a)


_ONE = (Fraction(1),)


def _as_poly(value) -> tuple:
    # a trimmed tuple of int and Fraction coefficients. Coefficient tuples
    # are built from lists: tuple() of a generator starts at 10 items and
    # resizes, which moves blocks between CPython's per-size tuple free
    # lists, and those only grow until a full gc clears them
    if isinstance(value, (tuple, list)):
        return _trim(tuple([c if type(c) in (int, Fraction) else Fraction(c)
                            for c in value]))
    if isinstance(value, (int, Fraction)):
        return (value,) if value else ()
    raise TypeError(f"cannot interpret {value!r} as a polynomial")


def _zsplit(f: "RatFunc") -> tuple:
    """(p, q, N, D) with f = (p/q) * N/D, N and D primitive over Z."""
    (gn, mn, n), (gd, md, d) = _split(f._num), _split(f._den)
    return gn * md, mn * gd, n, d


class RatFunc:
    """A rational function in t over Q, in canonical form."""

    __slots__ = ("_num", "_den")

    def __init__(self, num=0, den=1):
        n = _as_poly(num)
        d = _ONE if den == 1 else _as_poly(den)
        if not d:
            raise ZeroDivisionError("rational function with zero denominator")
        if not n or d == _ONE:  # a polynomial is already canonical
            self._num = tuple([c if type(c) is Fraction else Fraction(c) for c in n])
            self._den = _ONE
            return
        (gn, mn, n), (gd, md, d) = _split(n), _split(d)
        k = min(_porder(n), _porder(d))  # gcd(n, d) = t^k * gcd(n/t^k, d/t^k)
        n, d = n[k:], d[k:]
        if any(n[:-1]) and any(d[:-1]):  # else one is a monomial, coprime to the other
            _, n, d = _heu_gcd(n, d) or _prs_gcd(n, d)
        lead = d[-1]  # num/den = (gn md / mn gd) * n/d, n and d coprime
        p, q = gn * md, mn * gd * lead
        self._num = tuple([Fraction(p * c, q) for c in n])
        self._den = tuple([Fraction(c, lead) for c in d])

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
        pa, qa, a, b = _zsplit(self)
        pc, qc, c, d = _zsplit(o)
        # (pa/qa)(a/b) + (pc/qc)(c/d) over the denominator qa*qc*b*d
        num = _padd(_zmul(a, d, pa * qc), _zmul(c, b, pc * qa))
        return RatFunc(num, _zmul(b, d, qa * qc))

    __radd__ = __add__

    def __neg__(self):
        out = RatFunc.__new__(RatFunc)
        out._num, out._den = tuple([-c for c in self._num]), self._den
        return out

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self._num or not o._num:
            return RatFunc(0)
        pa, qa, a, b = _zsplit(self)
        pc, qc, c, d = _zsplit(o)
        return RatFunc(_zmul(a, c, pa * pc), _zmul(b, d, qa * qc))

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
    coeffs: dict[int, int | Fraction] = {}
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
        exp = (int(exp_txt) if exp_txt else 1) if has_t else 0
        if max_degree is not None and exp > max_degree:
            raise DegreeCapExceeded(
                f"polynomial degree {exp} exceeds the cap of {max_degree}"
            )
        a, _, b = (coeff_t or coeff_c or "1").partition("/")
        if b and not int(b):
            raise ParseError(f"zero coefficient denominator in {text!r}")
        coeff = Fraction(int(a), int(b)) if b else int(a)
        coeffs[exp] = coeffs.get(exp, 0) + sign * coeff
        pos = m.end()
        first = False
    top = max(coeffs)
    return _trim(tuple([coeffs.get(i, 0) for i in range(top + 1)]))


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
