"""Numerical calculus of weighted stacky blow-ups and A-type singularities.

Everything here is a closed formula on small integer data: the
exceptional curve of an (m, d) blow-up, the cyclic-action bookkeeping on
the blown-up surface, the step-by-step resolution of an A-type surface
singularity, and the singularity produced by contracting a rational
curve between two such points.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd

__all__ = [
    "BlowupParams",
    "BlowupResult",
    "MuActionReport",
    "AnSing",
    "ContractionError",
    "twisted_blowup",
    "mu_action_on_blowup",
    "an_blowup_step",
    "resolve_An",
    "contract_singularity",
]


class ContractionError(ValueError):
    """The hypotheses of the contraction formula are not met."""


class BlowupParams(namedtuple("BlowupParams", "m d")):
    """Weight m of the section direction and root order d of the exceptional."""

    __slots__ = ()

    def __new__(cls, m, d):
        if m < 1 or d < 1:
            raise ValueError("blow-up parameters require m >= 1 and d >= 1")
        return super().__new__(cls, m, d)


class BlowupResult(namedtuple("BlowupResult", "exceptional_self_intersection "
                              "ideal_degree_on_exceptional stacky_point_order "
                              "section_twist")):
    __slots__ = ()

    @property
    def exceptional_is_schematic(self) -> bool:
        return self.stacky_point_order == 1

    def to_json_dict(self) -> dict:
        return {
            "exceptional_self_intersection": str(self.exceptional_self_intersection),
            "ideal_degree_on_exceptional": str(self.ideal_degree_on_exceptional),
            "stacky_point_order": self.stacky_point_order,
            "exceptional_is_schematic": self.exceptional_is_schematic,
            "section_twist": self.section_twist,
        }


def twisted_blowup(p: BlowupParams) -> BlowupResult:
    """Numerical data of the (m, d) blow-up of a smooth surface point.

    The exceptional curve has self-intersection -1/(m*d), the ideal of
    the exceptional locus restricts to it with degree 1/d, the curve
    carries one stacky point of order d (none when d = 1), and the ideal
    restricted to the surviving section is a twist by -m.
    """
    return BlowupResult(
        exceptional_self_intersection=Fraction(-1, p.m * p.d),
        ideal_degree_on_exceptional=Fraction(1, p.d),
        stacky_point_order=p.d,
        section_twist=-p.m,
    )


class MuActionReport(namedtuple("MuActionReport", "ell m d trivial "
                                "faithful_on_exceptional fixed_point_count "
                                "stabilizer_order_bound")):
    """How a cyclic action of order ell interacts with an (m, d) blow-up."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {
            "ell": self.ell,
            "m": self.m,
            "d": self.d,
            "trivial": self.trivial,
            "extends": True,
            "faithful_on_exceptional": self.faithful_on_exceptional,
            "fixed_point_count": self.fixed_point_count,
            "stabilizer_order_bound": self.stabilizer_order_bound,
            "stabilizers_cyclic": True,
        }


def mu_action_on_blowup(ell: int, p: BlowupParams) -> MuActionReport:
    """Extend the order-ell scaling action across the blow-up.

    The action always extends. For ell > 1 it is faithful on the
    exceptional curve and fixes exactly two points there (the stacky
    point and the meeting point with the section); every stabilizer of
    the quotient is cyclic of order dividing ell*d.
    """
    if ell < 1:
        raise ValueError("the action order must be a positive integer")
    trivial = ell == 1
    return MuActionReport(
        ell=ell,
        m=p.m,
        d=p.d,
        trivial=trivial,
        faithful_on_exceptional=not trivial,
        fixed_point_count=None if trivial else 2,
        stabilizer_order_bound=ell * p.d,
    )


class AnSing(namedtuple("AnSing", "a mu_order")):
    """The germ xy = z**a with a residual cyclic structure of order mu_order.

    a = 1 is the smooth (transverse) case; mu_order = 1 means schematic.
    """

    __slots__ = ()

    def __new__(cls, a, mu_order=1):
        if a < 1:
            raise ValueError("singularity index a must be >= 1")
        if mu_order < 1:
            raise ValueError("mu_order must be >= 1")
        return super().__new__(cls, a, mu_order)

    def to_json_dict(self) -> dict:
        return {"a": self.a, "mu": self.mu_order}


def an_blowup_step(s: AnSing) -> tuple:
    """Blow up the closed point of xy = z**a once.

    The chart computation drops a by 2 (a result of 0 is normalized to
    the smooth representative a = 1). There are two exceptional curves
    when a >= 3 and a single one for a = 2; the cyclic structure is
    untouched and acts on the two curves in a balanced way.
    """
    if s.a < 2:
        raise ValueError("a smooth point cannot be blown up further")
    count = 2 if s.a >= 3 else 1
    return AnSing(max(s.a - 2, 1), s.mu_order), count


def resolve_An(s: AnSing) -> list:
    """Resolve by repeated point blow-ups: one (before, after, exceptional
    curves) triple per step.

    Starting from xy = z**a this takes floor(a/2) steps and produces
    a - 1 exceptional curves in total.
    """
    steps = []
    while s.a >= 2:
        after, count = an_blowup_step(s)
        steps.append((s, after, count))
        s = after
    return steps


def contract_singularity(p_sing: AnSing, q_sing: AnSing, k: int) -> AnSing:
    """Singularity left by contracting a rational curve between two points.

    The two points must carry the same cyclic order k; writing their
    indices as m and n, the image point is the germ xy = z**(k(m+n))
    with a residual order-k structure.
    """
    if k < 1:
        raise ContractionError("the common stabilizer order must be >= 1")
    if p_sing.mu_order != k or q_sing.mu_order != k:
        raise ContractionError(
            f"stabilizer orders ({p_sing.mu_order}, {q_sing.mu_order}) "
            f"do not both equal {k}"
        )
    return AnSing(k * (p_sing.a + q_sing.a), k)


def theta_smoothing_order(k: int, d: int) -> int:
    """Stabilizer order at the smoothing point of an order-k equivariant
    (m, d) blow-up: d * k / gcd(k, d - 1)."""
    if k < 1 or d < 1:
        raise ValueError("orders must be positive integers")
    return (k // gcd(k, d - 1)) * d
