"""Matrix, germ and curve helpers that only the tests need.

They build test matrices and state the properties the suites check, on
top of the package's public types; the package itself never calls them.
``pushforward_contains`` and ``different_degree`` are paper formulas
that ``test_blowup`` and acceptance tests C4 and C7 check. The
polynomial helpers are the reference reduction of ``RatFunc``:
Euclid's algorithm over Q on Fraction coefficients. The curve helpers
are a reference for ``validate_twisted_map``: a
breadth-first connectivity test, the dualizing degree of each component,
its stability class, and the checks built from them, each in its own
walk over the graph.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from stackydeg import (
    INFINITE,
    BlowupParams,
    Mat,
    RatFunc,
    SingularMatrixError,
    Violation,
    is_torsion_on_component,
    smith_normal_form,
)


def identity(n: int) -> Mat:
    return Mat([[1 if i == j else 0 for j in range(n)] for i in range(n)])


def diagonal(diag) -> Mat:
    diag = list(diag)
    n = len(diag)
    return Mat([[diag[i] if i == j else 0 for j in range(n)] for i in range(n)])


def matmul(first: Mat, *rest: Mat) -> Mat:
    """The product first @ rest[0] @ ..., left to right."""
    out = first
    for other in rest:
        if out.cols != other.rows:
            raise ValueError("matrix dimensions do not match")
        x, y = out.entries, other.entries
        out = Mat([[sum((x[i][k] * y[k][j] for k in range(out.cols)), RatFunc(0))
                    for j in range(other.cols)] for i in range(out.rows)])
    return out


def scale(a: Mat, f) -> Mat:
    return Mat([[f * x for x in row] for row in a.entries])


def valuation_of_det(a: Mat):
    """Valuation of det(a); INFINITE when the determinant vanishes."""
    try:
        snf = smith_normal_form(a, transforms=False)
    except SingularMatrixError:
        return INFINITE
    return sum(snf.diag_valuations) - a.rows * snf.shift


def is_regular_at_origin(f: RatFunc) -> bool:
    return f.val() >= 0


def is_smooth(sing) -> bool:
    """True for the transverse germ xy = z."""
    return sing.a == 1


# -- paper formulas on blow-ups and quotient points ------------------------------


def pushforward_contains(p: BlowupParams, k: int, monomial: tuple) -> bool:
    """Certified containment in the pushforward of the k-th ideal power.

    For k <= 0 the pushforward is the whole structure sheaf, so any
    monomial is contained. For k > 0 this tests membership of
    pi**a_pi * y**a_y in the monomial ideal (pi**(m*k), y**ceil(k/d)),
    which is a lower bound for the true pushforward, not an exact
    membership oracle.
    """
    a_pi, a_y = monomial
    if a_pi < 0 or a_y < 0:
        raise ValueError("monomial exponents must be non-negative")
    if k <= 0:
        return True
    return a_pi >= p.m * k or a_y >= -(-k // p.d)


def different_degree(km: int, kn: int) -> Fraction:
    """Degree of the log-canonical restriction to a curve through two
    cyclic quotient points of orders km and kn: -2 + (1-1/km) + (1-1/kn)."""
    if km < 1 or kn < 1:
        raise ValueError("orders must be positive integers")
    return Fraction(-2) + (1 - Fraction(1, km)) + (1 - Fraction(1, kn))


# -- the reference reduction over Q --------------------------------------------
# Dense polynomials are tuples of Fractions, lowest power first, with no
# trailing zeros.


def _trim(coeffs) -> tuple:
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    return tuple(coeffs[:n])


def pmul(a: tuple, b: tuple) -> tuple:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return _trim(out)


def pdivmod(a: tuple, b: tuple) -> tuple:
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


def pgcd(a: tuple, b: tuple) -> tuple:
    """The monic gcd over Q."""
    while b:
        a, b = b, pdivmod(a, b)[1]
    return tuple(c / a[-1] for c in a)


def reduce_over_q(num, den) -> tuple:
    """(numerator, denominator) of num/den in the canonical form of
    ``RatFunc``: coprime over Q, the denominator monic."""
    n = _trim(tuple(Fraction(c) for c in num))
    d = _trim(tuple(Fraction(c) for c in den))
    if not n:
        return (), (Fraction(1),)
    g = pgcd(n, d)
    n, d = pdivmod(n, g)[0], pdivmod(d, g)[0]
    return tuple(c / d[-1] for c in n), tuple(c / d[-1] for c in d)


# -- the reference twisted-map check -------------------------------------------

STABLE = "STABLE"
DESTABILIZING_P1 = "DESTABILIZING_P1"
VIOLATION = "VIOLATION"


def is_connected(curve) -> bool:
    ids = {c.id for c in curve.components}
    reached = {curve.components[0].id}
    frontier = [curve.components[0].id]
    adjacency = {cid: set() for cid in ids}
    for n in curve.nodes:
        adjacency[n.ends[0]].add(n.ends[1])
        adjacency[n.ends[1]].add(n.ends[0])
    while frontier:
        cur = frontier.pop()
        for nxt in adjacency[cur]:
            if nxt not in reached:
                reached.add(nxt)
                frontier.append(nxt)
    return reached == ids


def omega_degrees(curve) -> dict:
    """Coarse degree of the marked dualizing sheaf on each component:
    2g - 2, plus one per node branch (a self-node counts twice) and one
    per marking."""
    out = {c.id: 2 * c.genus - 2 for c in curve.components}
    for n in curve.nodes:
        for end in n.ends:
            out[end] += 1
    for m in curve.markings:
        out[m.comp] += 1
    return out


def quasi_stability_check(curve) -> dict:
    """Classify each component as STABLE, DESTABILIZING_P1 or VIOLATION
    by the degree of the marked dualizing sheaf on it."""
    out = {}
    omega = omega_degrees(curve)
    for c in curve.components:
        total = omega[c.id]
        if total > 0:
            out[c.id] = STABLE
        elif total == 0 and c.genus == 0:
            out[c.id] = DESTABILIZING_P1
        else:
            out[c.id] = VIOLATION
    return out


def validate_twisted_map(curve, md) -> list:
    """The violations ``stackydeg.validate_twisted_map`` must report, in
    its order: connectivity, then stability and torsion per component,
    then degree denominators per component and factor."""
    violations = []
    if not is_connected(curve):
        violations.append(Violation(
            "cond1-disconnected", None, "the dual graph is not connected"))
    classes = quasi_stability_check(curve)
    for c in curve.components:
        label = classes[c.id]
        if label == VIOLATION:
            violations.append(Violation(
                "cond2-unstable", c.id,
                "component is neither positive for the polarized dualizing "
                "sheaf nor a destabilizing rational curve"))
        elif label == DESTABILIZING_P1 and is_torsion_on_component(md, c.id):
            violations.append(Violation(
                "cond4-torsion-destabilizing", c.id,
                "destabilizing component with zero degree in every factor"))
    bounds = dict.fromkeys(classes, 1)
    for n in curve.nodes:
        for end in n.ends:
            bounds[end] = lcm(bounds[end], n.stab_order)
    for m in curve.markings:
        bounds[m.comp] = lcm(bounds[m.comp], m.gerbe_order)
    for c in curve.components:
        bound = bounds[c.id]
        for k in range(md.n_factors):
            degree = md.degree(k, c.id)
            if bound % degree.denominator:
                violations.append(Violation(
                    "degree-denominator", c.id,
                    f"factor {k}: degree {degree} does not clear the local "
                    f"order bound {bound}"))
    return violations
