from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stackydeg import (
    AnSing,
    BlowupParams,
    ContractionError,
    an_blowup_step,
    contract_singularity,
    mu_action_on_blowup,
    resolve_An,
    twisted_blowup,
)
from oracle import different_degree, is_smooth, pushforward_contains


# -- twisted blow-up -------------------------------------------------------------

def test_blowup_2_3():
    r = twisted_blowup(BlowupParams(2, 3))
    assert r.exceptional_self_intersection == Fraction(-1, 6)
    assert r.ideal_degree_on_exceptional == Fraction(1, 3)
    assert r.stacky_point_order == 3
    assert r.section_twist == -2


def test_blowup_ordinary():
    r = twisted_blowup(BlowupParams(1, 1))
    assert r.exceptional_self_intersection == -1
    assert r.ideal_degree_on_exceptional == 1
    assert r.exceptional_is_schematic
    assert r.section_twist == -1


def test_blowup_5_2():
    r = twisted_blowup(BlowupParams(5, 2))
    assert r.exceptional_self_intersection == Fraction(-1, 10)
    assert r.ideal_degree_on_exceptional == Fraction(1, 2)
    assert r.stacky_point_order == 2
    assert r.section_twist == -5


def test_blowup_params_validated():
    with pytest.raises(ValueError):
        BlowupParams(0, 1)
    with pytest.raises(ValueError):
        BlowupParams(1, 0)


def test_blowup_degree_consistency():
    # d copies of the exceptional degree give the reduced divisor degree 1
    for m in range(1, 7):
        for d in range(1, 7):
            r = twisted_blowup(BlowupParams(m, d))
            assert r.ideal_degree_on_exceptional * d == 1


# -- pushforward containment --------------------------------------------------------

def test_pushforward_nonpositive_power():
    p = BlowupParams(2, 3)
    assert pushforward_contains(p, 0, (0, 0))
    assert pushforward_contains(p, -4, (7, 11))


def test_pushforward_section_generator():
    assert pushforward_contains(BlowupParams(1, 3), 3, (0, 1))


def test_pushforward_insufficient_power():
    assert not pushforward_contains(BlowupParams(1, 3), 3, (2, 0))


def test_pushforward_rejects_negative_exponents():
    with pytest.raises(ValueError):
        pushforward_contains(BlowupParams(1, 1), 1, (-1, 0))


@settings(max_examples=300)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(-3, 8),
       st.integers(0, 20), st.integers(0, 20), st.integers(0, 4), st.integers(0, 4))
def test_pushforward_monotone(m, d, k, a_pi, a_y, da, db):
    p = BlowupParams(m, d)
    if pushforward_contains(p, k, (a_pi, a_y)):
        assert pushforward_contains(p, k, (a_pi + da, a_y + db))
    if k <= 0:
        assert pushforward_contains(p, k, (a_pi, a_y))


# -- cyclic action ---------------------------------------------------------------

def test_mu_action_trivial():
    r = mu_action_on_blowup(1, BlowupParams(2, 3))
    assert r.trivial and r.fixed_point_count is None
    assert r.stabilizer_order_bound == 3


def test_mu_action_fixed_points():
    r = mu_action_on_blowup(2, BlowupParams(1, 2))
    assert r.fixed_point_count == 2
    assert r.faithful_on_exceptional
    assert r.stabilizer_order_bound == 4


def test_mu_action_schematic_exceptional():
    r = mu_action_on_blowup(3, BlowupParams(2, 1))
    assert r.stabilizer_order_bound == 3
    assert r.to_json_dict()["stabilizers_cyclic"]


# -- A-type resolution --------------------------------------------------------------

def test_step_a2_smooths():
    after, count = an_blowup_step(AnSing(2))
    assert is_smooth(after) and count == 1


def test_step_a3():
    after, count = an_blowup_step(AnSing(3))
    assert after.a == 1 and count == 2


def test_step_a6():
    after, count = an_blowup_step(AnSing(6, 5))
    assert after == AnSing(4, 5) and count == 2


def test_step_smooth_rejected():
    with pytest.raises(ValueError):
        an_blowup_step(AnSing(1))


def test_resolve_small():
    assert resolve_An(AnSing(2)) == [(AnSing(2), AnSing(1), 1)]
    assert resolve_An(AnSing(4, 3)) == [(AnSing(4, 3), AnSing(2, 3), 2),
                                        (AnSing(2, 3), AnSing(1, 3), 1)]
    assert resolve_An(AnSing(1)) == []


def test_resolve_counts_match_recursion():
    # count(a) = exceptional_count(a) + count(a - 2)
    counts = {0: 0, 1: 0}
    for a in range(2, 65):
        counts[a] = (2 if a >= 3 else 1) + counts[max(a - 2, 1 if a % 2 else 0)]
    for a in range(1, 65):
        steps = resolve_An(AnSing(a))
        assert sum(count for _, _, count in steps) == a - 1 == counts.get(a, a - 1)
        assert len(steps) == a // 2
        # each step starts where the previous one stopped
        assert [after for _, after, _ in steps[:-1]] == [s for s, _, _ in steps[1:]]


# -- contraction ---------------------------------------------------------------------

def test_contract_basic():
    assert contract_singularity(AnSing(1), AnSing(1), 1) == AnSing(2, 1)


def test_contract_with_order():
    assert contract_singularity(AnSing(1, 2), AnSing(1, 2), 2) == AnSing(4, 2)


def test_contract_mixed_indices():
    assert contract_singularity(AnSing(2, 2), AnSing(3, 2), 2) == AnSing(10, 2)


def test_contract_order_mismatch_rejected():
    with pytest.raises(ContractionError):
        contract_singularity(AnSing(1, 2), AnSing(1, 3), 2)
    with pytest.raises(ContractionError):
        contract_singularity(AnSing(1, 2), AnSing(1, 2), 3)


def test_contract_then_resolve_curve_count():
    for k in (1, 2, 3):
        for m in (1, 2, 3):
            for n in (1, 2, 4):
                merged = contract_singularity(AnSing(m, k), AnSing(n, k), k)
                steps = resolve_An(merged)
                assert sum(count for _, _, count in steps) == k * (m + n) - 1


# -- log-canonical degree --------------------------------------------------------------

def test_different_degree_values():
    assert different_degree(2, 2) == -1
    assert different_degree(1, 1) == -2
    assert different_degree(2, 3) == Fraction(-5, 6)


def test_different_degree_bound():
    for km in range(2, 13):
        for kn in range(2, 13):
            assert different_degree(km, kn) >= -1
