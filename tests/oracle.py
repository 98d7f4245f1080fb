"""Matrix and germ helpers that only the tests need.

They build test matrices and state the properties the suites check, on
top of the package's public types; the package itself never calls them.
"""

from __future__ import annotations

from stackydeg import INFINITE, Mat, RatFunc, SingularMatrixError, smith_normal_form


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
        out = Mat([[sum((out[i, k] * other[k, j] for k in range(out.cols)), RatFunc(0))
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
