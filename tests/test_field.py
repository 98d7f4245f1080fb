import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stackydeg import (
    INFINITE,
    DegreeCapExceeded,
    ParseError,
    RatFunc,
    format_ratfunc,
    parse_ratfunc,
    field,
    smith_normal_form,
    t_power,
)
from oracle import is_regular_at_origin, pmul, reduce_over_q
from support import random_gluing, random_regular_matrix, snf_probe_matrix

rf = parse_ratfunc
T = RatFunc((0, 1))


# -- valuation ---------------------------------------------------------------

def test_val_order_of_vanishing():
    assert rf("t^3/t+1").val() == 3


def test_val_unit():
    assert rf("1").val() == 0


def test_val_pole():
    # numerator t^2 - t^4 factors as t^2(1 - t^2); exponents subtract
    f = rf("t^2-t^4") / rf("t^5")
    assert f.val() == -3


def test_val_zero_is_infinite():
    assert RatFunc(0).val() == INFINITE


# -- arithmetic --------------------------------------------------------------

def test_add_cancels():
    assert T + (-T) == RatFunc(0)


def test_mul_across_pole():
    assert rf("1/t") * t_power(2) == T


def test_inv_reciprocal():
    assert rf("t+1/t").inv() == rf("t/t+1")


def test_inv_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        RatFunc(0).inv()
    with pytest.raises(ZeroDivisionError):
        T / RatFunc(0)


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RatFunc(1, 0)


# -- regularity --------------------------------------------------------------

def test_regular_at_origin():
    assert is_regular_at_origin(rf("1/t+1"))          # 1/(t+1)
    assert not is_regular_at_origin(rf("1/t"))
    assert is_regular_at_origin(RatFunc(0))


# -- parsing and printing ----------------------------------------------------

def test_parse_coefficient_slash_binds_tight():
    assert rf("1/2t^2+1/2") == RatFunc((Fraction(1, 2), 0, Fraction(1, 2)))


def test_parse_rejects_garbage():
    for bad in ["", "t^", "1//2", "t+/2", "x", "t^2/t/t"]:
        with pytest.raises(ParseError):
            parse_ratfunc(bad)


def test_degree_cap():
    parse_ratfunc("t^64", max_degree=64)
    with pytest.raises(DegreeCapExceeded):
        parse_ratfunc("t^65", max_degree=64)


def test_t_power_negative():
    assert t_power(-2) == RatFunc(1) / (T * T)
    assert t_power(0) == RatFunc(1)


def test_format_examples():
    assert str(RatFunc(0)) == "0"
    assert str(-(T * T) + 1) == "-t^2+1"
    assert str(rf("3/4t-2")) == "3/4t-2"
    assert format_ratfunc(T.inv()) == "1/t"


# -- property suite ----------------------------------------------------------

coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=6)
polys = st.lists(coeffs, min_size=0, max_size=5).map(tuple)
nonzero_polys = polys.filter(lambda p: any(p))
ratfuncs = st.builds(RatFunc, polys, nonzero_polys)
nonzero_ratfuncs = st.builds(RatFunc, nonzero_polys, nonzero_polys)


@settings(max_examples=200)
@given(ratfuncs, ratfuncs, ratfuncs)
def test_field_axioms(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f + g == g + f
    assert f * g == g * f


@settings(max_examples=200)
@given(nonzero_ratfuncs)
def test_inverses(f):
    assert f * f.inv() == RatFunc(1)
    assert f + (-f) == RatFunc(0)


@settings(max_examples=200)
@given(ratfuncs, ratfuncs)
def test_valuation_laws(f, g):
    if not f.is_zero() and not g.is_zero():
        assert (f * g).val() == f.val() + g.val()
    s = f + g
    if not s.is_zero():
        assert s.val() >= min(f.val(), g.val())
    if not f.is_zero() and not g.is_zero() and f.val() != g.val():
        assert s.val() == min(f.val(), g.val())


@settings(max_examples=200)
@given(ratfuncs)
def test_canonical_form_unique(f):
    # scaling numerator and denominator by a common factor is invisible
    common = RatFunc((1, 2, 1))  # (1 + t)^2
    g = RatFunc(f.numerator, 1) * common / (RatFunc(f.denominator, 1) * common)
    assert g == f
    assert hash(g) == hash(f)
    # the denominator is monic and shares no factor with the numerator
    assert f.denominator[-1] == 1


@settings(max_examples=200)
@given(ratfuncs)
def test_print_parse_roundtrip(f):
    assert parse_ratfunc(format_ratfunc(f)) == f


# -- the integer reduction against Euclid over Q ------------------------------


def _random_poly(rng, degree, rational):
    coeffs = []
    for _ in range(degree + 1):
        c = Fraction(rng.randint(-30, 30))
        if rational and rng.random() < 0.4:
            c /= rng.randint(1, 12)
        coeffs.append(c)
    if not coeffs[-1]:
        coeffs[-1] = Fraction(rng.choice([-7, -1, 1, 3]))
    return tuple(coeffs)


def reduction_pairs(seed=2110, count=600):
    """(num, den) Fraction tuples that share a factor: non-monic, with
    negative leads, 60-bit contents, t**k factors, constant denominators
    and rational coefficients."""
    rng = random.Random(seed)
    for i in range(count):
        rational = i % 3 == 0
        num = _random_poly(rng, rng.randint(0, 6), rational)
        den = _random_poly(rng, 0 if i % 7 == 0 else rng.randint(0, 6), rational)
        if i % 7:
            shared = _random_poly(rng, rng.randint(1, 6), rational)
            num, den = pmul(num, shared), pmul(den, shared)
        if i % 2:
            num = (Fraction(0),) * rng.randint(0, 4) + num
            den = (Fraction(0),) * rng.randint(0, 4) + den
        if i % 5 == 0:
            cn = rng.getrandbits(60) | 1
            cd = Fraction(rng.getrandbits(60) | 1, rng.getrandbits(60) | 1)
            num, den = tuple(c * cn for c in num), tuple(c * cd for c in den)
        if i % 11 == 0:
            num = (Fraction(0),) * rng.randint(1, 6) + (Fraction(rng.randint(1, 9)),)
        yield num, den


def _canonical(f):
    return f.numerator, f.denominator


def test_reduction_matches_euclid_over_q():
    for num, den in reduction_pairs():
        f = RatFunc(num, den)
        assert _canonical(f) == reduce_over_q(num, den)
        assert all(type(c) is Fraction for c in f.numerator + f.denominator)


def test_reduction_matches_sympy_cancel():
    pytest.importorskip("sympy")
    from sympy.polys.domains import QQ
    from sympy.polys.euclidtools import dup_cancel

    def to_sympy(p):  # dense, highest power first
        return [QQ(c.numerator, c.denominator) for c in reversed(p)]

    def from_sympy(p, lead):
        return tuple(Fraction(int(c.numerator), int(c.denominator)) / lead
                     for c in reversed(p))

    for num, den in reduction_pairs():
        p, q = dup_cancel(to_sympy(num), to_sympy(den), QQ)
        lead = Fraction(int(q[0].numerator), int(q[0].denominator))
        expected = from_sympy(p, lead), from_sympy(q, lead)
        assert _canonical(RatFunc(num, den)) == expected


def test_prs_fallback_gives_the_same_canonical_forms(monkeypatch):
    pairs = list(reduction_pairs(count=300))
    expected = [_canonical(RatFunc(num, den)) for num, den in pairs]
    entries = []
    prs = field._prs_gcd
    monkeypatch.setattr(field, "_heu_gcd", lambda f, g: None)
    monkeypatch.setattr(field, "_prs_gcd", lambda f, g: entries.append(1) or prs(f, g))
    assert [_canonical(RatFunc(num, den)) for num, den in pairs] == expected
    assert len(entries) > 100


def test_heuristic_gcd_never_falls_back_on_the_snf_corpus(monkeypatch):
    # a noise-free witness that the reduction takes the fast path
    entries = []
    prs = field._prs_gcd
    monkeypatch.setattr(field, "_prs_gcd", lambda f, g: entries.append(1) or prs(f, g))
    rng = random.Random(2111)
    for i in range(30):
        smith_normal_form(random_regular_matrix(rng, 2 + i % 2, max_degree=4))
        smith_normal_form(random_gluing(rng, 3))
    smith_normal_form(snf_probe_matrix())
    assert entries == []


@settings(max_examples=60)
@given(polys, nonzero_polys, nonzero_polys)
def test_reduction_property(num, den, shared):
    num, den = pmul(num, shared), pmul(den, shared)
    assert _canonical(RatFunc(num, den)) == reduce_over_q(num, den)
