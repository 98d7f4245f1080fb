import random

import pytest

from stackydeg import (
    INFINITE,
    Mat,
    NonSquareMatrixError,
    SchemaError,
    SingularMatrixError,
    clear_denominators,
    parse_ratfunc,
    smith_normal_form,
    t_power,
)
from oracle import diagonal, identity, matmul, scale, valuation_of_det
from support import random_gluing, random_regular_matrix, random_unimodular

rf = parse_ratfunc


def mat(rows):
    return Mat([[rf(x) for x in row] for row in rows])


# -- clear_denominators -------------------------------------------------------

def test_clear_most_negative_valuation():
    assert clear_denominators(mat([["1/t^2", "1"], ["t", "1"]])) == 2


def test_clear_identity():
    assert clear_denominators(identity(2)) == 0


def test_clear_ignores_zero_entries():
    assert clear_denominators(mat([["0", "1/t"], ["1", "t"]])) == 1


# -- valuation_of_det ----------------------------------------------------------

def test_valdet_diagonal():
    assert valuation_of_det(diagonal([rf("t^2"), rf("t^5")])) == 7


def test_valdet_identity():
    assert valuation_of_det(identity(3)) == 0


def test_valdet_example():
    # det [[t, t], [t, t^3]] = t^4 - t^2, which vanishes to order 2
    assert valuation_of_det(mat([["t", "t"], ["t", "t^3"]])) == 2


def test_valdet_singular_is_infinite():
    assert valuation_of_det(mat([["t", "t"], ["t", "t"]])) == INFINITE


def test_valdet_non_square_rejected():
    with pytest.raises(NonSquareMatrixError):
        valuation_of_det(mat([["t", "1"]]))


# -- smith_normal_form ---------------------------------------------------------

def test_snf_already_diagonal():
    r = smith_normal_form(diagonal([rf("t^2"), rf("t^5")]))
    assert r.diag_valuations == (2, 5)
    assert r.shift == 0


def test_snf_identity():
    r = smith_normal_form(identity(4))
    assert r.diag_valuations == (0, 0, 0, 0)
    assert r.shift == 0


def test_snf_elimination_example():
    # one elimination step gives diag(t, t^3 - t); val(t^3 - t) = 1, and
    # the sum matches val det = val(t^4 - t^2) = 2
    a = mat([["t", "t"], ["t", "t^3"]])
    r = smith_normal_form(a)
    assert r.diag_valuations == (1, 1)
    assert sum(r.diag_valuations) == valuation_of_det(a)


def test_snf_with_shift():
    a = mat([["1/t^2", "1"], ["1", "t"]])
    r = smith_normal_form(a)
    assert r.shift == 2
    _assert_snf_consistent(a, r)


def test_snf_singular_rejected():
    with pytest.raises(SingularMatrixError):
        smith_normal_form(mat([["t", "t"], ["t", "t"]]))


def test_snf_non_square_rejected():
    with pytest.raises(NonSquareMatrixError):
        smith_normal_form(mat([["t", "1"]]))


def _assert_snf_consistent(a, r):
    n = a.rows
    prod = matmul(r.left, scale(a, t_power(r.shift)), r.right)
    for i in range(n):
        for j in range(n):
            if i == j:
                assert prod.entries[i][j].val() == r.diag_valuations[i]
            else:
                assert prod.entries[i][j].is_zero()
    assert r.left.det().val() == 0
    assert r.right.det().val() == 0
    assert list(r.diag_valuations) == sorted(r.diag_valuations)
    assert sum(r.diag_valuations) == valuation_of_det(scale(a, t_power(r.shift)))


def test_snf_reconstruction_and_stability_random():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.choice([2, 3])
        a = random_regular_matrix(rng, n)
        r = smith_normal_form(a)
        _assert_snf_consistent(a, r)
        u = random_unimodular(rng, n)
        v = random_unimodular(rng, n)
        assert smith_normal_form(matmul(u, a, v)).diag_valuations == r.diag_valuations


def test_snf_determinism():
    rng = random.Random(11)
    a = random_regular_matrix(rng, 3)
    r1 = smith_normal_form(a)
    r2 = smith_normal_form(a)
    assert r1.left == r2.left and r1.right == r2.right
    assert r1.diag_valuations == r2.diag_valuations


# -- serialization -------------------------------------------------------------

def test_matrix_json_roundtrip():
    a = mat([["t", "1/2t^2+1"], ["0", "t+1/t^2"]])
    doc = a.to_json_dict()
    assert Mat.from_json_dict(doc) == a


def test_matrix_json_pointers():
    with pytest.raises(SchemaError) as exc:
        Mat.from_json_dict({"rows": 1, "cols": 1, "entries": [["t^"]]}, "/gluing/n1")
    assert exc.value.pointer == "/gluing/n1/entries/0/0"
    with pytest.raises(SchemaError) as exc:
        Mat.from_json_dict({"rows": 2, "cols": 1, "entries": [["t"]]})
    assert exc.value.pointer == "/entries"


# -- valuation-only elimination (transforms=False) ------------------------------

# 1/(t^2+t) and (t+1)/(2t^3-t) among them
DENOMINATOR_ENTRIES = [rf("1") / rf("t^2+t"), rf("t+1") / rf("2t^3-t"), rf("3"),
                       rf("t^2-1"), rf("1/t"), rf("2t+1") / rf("t+1"), rf("t^3"),
                       rf("0")]


def random_rational_matrix(rng, n):
    """Entries with non-monomial denominators; nonzero determinant."""
    while True:
        a = Mat([[rng.choice(DENOMINATOR_ENTRIES) * rng.randint(1, 3)
                  + rf(rng.choice(["0", "t", "1", "-t^2"]))
                  for _ in range(n)] for _ in range(n)])
        if not a.det().is_zero():
            return a


def differential_corpus():
    rng = random.Random(20261017)
    out = []
    for n in range(1, 6):
        # the full-transform oracle is slow at n = 4, 5
        for _ in range(3 if n <= 3 else 1):
            out.append(random_regular_matrix(rng, n, max_degree=2))
            out.append(random_rational_matrix(rng, n))
            out.append(random_gluing(rng, n))
        # invariants far above the starting precision
        big = diagonal([t_power(rng.choice([0, 2, 17, 40])) for _ in range(n)])
        out.append(matmul(random_unimodular(rng, n), big, random_unimodular(rng, n)))
    return out


def test_truncated_snf_matches_full_transform_and_det():
    # the pipeline's insertion parameters m_k are these valuations
    known = [([["t^3"]], (3,)), ([["t+1"]], (0,)), ([["t", "t"], ["t", "t^3"]], (1, 1))]
    for rows, diag in known:
        assert smith_normal_form(mat(rows), transforms=False).diag_valuations == diag
    for a in [mat(rows) for rows, _ in known] + differential_corpus():
        fast = smith_normal_form(a, transforms=False)
        full = smith_normal_form(a)
        assert fast.left is None and fast.right is None
        assert (fast.shift, fast.diag_valuations) == (full.shift, full.diag_valuations)
        v = a.det().val()
        assert valuation_of_det(a) == v
        assert sum(fast.diag_valuations) - a.rows * fast.shift == v


def test_truncated_snf_reaches_high_invariants():
    rng = random.Random(3)
    for n in (2, 3, 4):
        diag = diagonal([t_power(0)] * (n - 1) + [t_power(40)])
        a = matmul(random_unimodular(rng, n), diag, random_unimodular(rng, n))
        r = smith_normal_form(a, transforms=False)
        assert r.diag_valuations == (0,) * (n - 1) + (40,)
        assert valuation_of_det(a) == 40


def _sympy_orders(a):
    """t-adic orders of the invariant factors of t**shift * a over Q[t]."""
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    t = sympy.symbols("t")

    def poly(coeffs):
        return sum(sympy.Rational(c.numerator, c.denominator) * t**k
                   for k, c in enumerate(coeffs))

    dens = {x.denominator for row in a.entries for x in row}
    common = sympy.Integer(1)
    for q in dens:
        common *= poly(q)
    e = a.entries
    m = sympy.Matrix(a.rows, a.cols, lambda i, j: sympy.cancel(
        poly(e[i][j].numerator) * common / poly(e[i][j].denominator)))
    shift = clear_denominators(a)
    common_order = sum(_first_nonzero(q) for q in dens)
    orders = []
    for f in invariant_factors(m, domain=sympy.QQ[t]):
        coeffs = sympy.Poly(f, t).all_coeffs()[::-1]
        orders.append(_first_nonzero(coeffs) - common_order + shift)
    return tuple(sorted(orders))


def _first_nonzero(coeffs):
    return next(k for k, c in enumerate(coeffs) if c)


def test_truncated_snf_matches_sympy_invariant_factors():
    pytest.importorskip("sympy")
    corpus = [a for a in differential_corpus() if a.rows <= 4]
    for a in corpus[::2]:
        assert smith_normal_form(a, transforms=False).diag_valuations == _sympy_orders(a)


@pytest.mark.parametrize("rows", [
    [["0", "0"], ["0", "0"]],
    [["0"]],
    [["t+1", "2t+2"], ["3", "6"]],
    [["1/t^2+t", "1/2t+1/2/t^3-1/2t"], ["2/t^2+t", "t+1/t^3-1/2t"]],
    [["1", "t", "t^2"], ["t", "1+t", "3"], ["1+t", "1+2t", "t^2+3"]],
    [["t", "t"], ["t", "t"]],
])
def test_truncated_snf_singular_rejected(rows):
    a = mat(rows)
    with pytest.raises(SingularMatrixError):
        smith_normal_form(a, transforms=False)
    assert valuation_of_det(a) == INFINITE
