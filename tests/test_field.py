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
    t_power,
)
from oracle import is_regular_at_origin

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
