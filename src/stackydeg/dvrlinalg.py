"""Exact matrix algebra over Q(t) and diagonalization over the local ring.

:func:`smith_normal_form` brings a square invertible matrix to diagonal
form using only transformations invertible over the subring of functions
regular at t = 0: row/column swaps and adding a regular multiple of one
row/column to another. The valuations of the resulting diagonal entries
are the orders of the invariant factors and are independent of the
elimination choices; the elimination itself is made deterministic by
always pivoting on an entry of minimal valuation, ties broken by the
smallest (row, column) pair.

When only the valuations are wanted (``transforms=False``, the path the
degeneration engine takes), one elimination runs on the power-series
coefficients of t**shift * a modulo t**N, with plain Fraction
coefficients and no rational-function arithmetic. Smith form commutes
with reduction mod t**N, so every pivot of order < N found there is a
true invariant valuation. N starts at 8 and doubles until all n pivots
are found. Past a proven bound on val(det(t**shift * a)), read off the
entry degrees after clearing each row's denominators, a missing pivot
can only mean det = 0, so the matrix is declared singular exactly then.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import SchemaError, is_int
from .field import INFINITE, RatFunc, _porder, format_ratfunc, parse_ratfunc, t_power

__all__ = [
    "Mat",
    "SnfResult",
    "NonSquareMatrixError",
    "SingularMatrixError",
    "clear_denominators",
    "smith_normal_form",
]


class NonSquareMatrixError(ValueError):
    """An operation that needs a square matrix got a rectangular one."""


class SingularMatrixError(ValueError):
    """An operation that needs an invertible matrix got a singular one."""


def _as_rf(x) -> RatFunc:
    return x if isinstance(x, RatFunc) else RatFunc(x)


class Mat:
    """A dense matrix with RatFunc entries, stored row-major."""

    __slots__ = ("rows", "cols", "_e")

    def __init__(self, entries):
        rows = tuple(tuple(_as_rf(x) for x in row) for row in entries)
        if not rows or not rows[0]:
            raise ValueError("matrix must have at least one row and column")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged matrix rows")
        self.rows = len(rows)
        self.cols = width
        self._e = rows

    @property
    def entries(self) -> tuple:
        return self._e

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return self._e == other._e

    def __repr__(self):
        body = "; ".join(
            ", ".join(format_ratfunc(x) for x in row) for row in self._e
        )
        return f"Mat[{body}]"

    def det(self) -> RatFunc:
        """Exact determinant by fraction-friendly Gaussian elimination."""
        if self.rows != self.cols:
            raise NonSquareMatrixError("determinant of a non-square matrix")
        n = self.rows
        m = [list(row) for row in self._e]
        det = RatFunc(1)
        for i in range(n):
            piv = next((r for r in range(i, n) if not m[r][i].is_zero()), None)
            if piv is None:
                return RatFunc(0)
            if piv != i:
                m[i], m[piv] = m[piv], m[i]
                det = -det
            det = det * m[i][i]
            pinv = m[i][i].inv()
            for r in range(i + 1, n):
                if m[r][i].is_zero():
                    continue
                f = m[r][i] * pinv
                for c in range(i, n):
                    m[r][c] = m[r][c] - f * m[i][c]
        return det

    def inverse(self) -> "Mat":
        if self.rows != self.cols:
            raise NonSquareMatrixError("inverse of a non-square matrix")
        n = self.rows
        m = [list(row) + [RatFunc(1 if i == j else 0) for j in range(n)]
             for i, row in enumerate(self._e)]
        for i in range(n):
            piv = next((r for r in range(i, n) if not m[r][i].is_zero()), None)
            if piv is None:
                raise SingularMatrixError("matrix is singular")
            if piv != i:
                m[i], m[piv] = m[piv], m[i]
            pinv = m[i][i].inv()
            m[i] = [x * pinv for x in m[i]]
            for r in range(n):
                if r == i or m[r][i].is_zero():
                    continue
                f = m[r][i]
                m[r] = [m[r][c] - f * m[i][c] for c in range(2 * n)]
        return Mat([row[n:] for row in m])

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [[format_ratfunc(x) for x in row] for row in self._e],
        }

    @classmethod
    def from_json_dict(cls, obj, pointer: str = "",
                       max_degree: int | None = None) -> "Mat":
        if not isinstance(obj, dict):
            raise SchemaError(pointer, "expected a matrix object")
        for key in ("rows", "cols", "entries"):
            if key not in obj:
                raise SchemaError(pointer, f"missing field {key!r}")
        rows, cols = obj["rows"], obj["cols"]
        if not is_int(rows) or rows < 1:
            raise SchemaError(f"{pointer}/rows", "expected a positive integer")
        if not is_int(cols) or cols < 1:
            raise SchemaError(f"{pointer}/cols", "expected a positive integer")
        entries = obj["entries"]
        if not isinstance(entries, list) or len(entries) != rows:
            raise SchemaError(f"{pointer}/entries", f"expected {rows} rows")
        parsed = []
        for i, row in enumerate(entries):
            if not isinstance(row, list) or len(row) != cols:
                raise SchemaError(f"{pointer}/entries/{i}",
                                  f"expected {cols} entries")
            out = []
            for j, cell in enumerate(row):
                if not isinstance(cell, str):
                    raise SchemaError(f"{pointer}/entries/{i}/{j}",
                                      "expected a rational-function string")
                try:
                    out.append(parse_ratfunc(cell, max_degree=max_degree))
                except ValueError as exc:
                    raise SchemaError(f"{pointer}/entries/{i}/{j}", str(exc))
            parsed.append(out)
        return cls(parsed)


def clear_denominators(a: Mat) -> int:
    """Minimal shift making every entry of t**shift * a regular at 0.

    Zero entries are ignored (their valuation is infinite); a matrix that
    is already regular needs no shift.
    """
    vals = [x.val() for row in a.entries for x in row if not x.is_zero()]
    if not vals:
        return 0
    return max(0, -min(vals))


# ---------------------------------------------------------------------------
# Valuation-only elimination over Q[t]/(t^N). A power series is a list of
# N Fraction coefficients, lowest power first.

_PRECISION_START = 8


def _order(s: list, start: int) -> int:
    """Index of the first nonzero coefficient at or after ``start``."""
    for k in range(start, len(s)):
        if s[k]:
            return k
    return len(s)


def _series_div(num, den, prec: int) -> list:
    """The first ``prec`` coefficients of num/den, where den(0) != 0."""
    out = []
    inv0 = 1 / den[0]
    tail = den[1:]
    for k in range(prec):
        acc = num[k] if k < len(num) else 0
        for j, d in enumerate(tail[:k], 1):
            if d:
                acc -= d * out[k - j]
        out.append(acc * inv0)
    return out


def _truncated_valuations(a: Mat) -> tuple:
    """(diag_valuations, shift) of the local-ring Smith form of a."""
    shift = clear_denominators(a)
    bound = _det_valuation_bound(a, shift)
    prec = min(_PRECISION_START, bound + 1)
    while True:
        diag = _eliminate(a, shift, prec)
        if len(diag) == a.rows:
            return tuple(diag), shift
        if prec > bound:
            raise SingularMatrixError("matrix is singular over the fraction field")
        prec = min(2 * prec, bound + 1)


def _det_valuation_bound(a: Mat, shift: int) -> int:
    """An upper bound on val(det(t**shift * a)) whenever det(a) != 0.

    Row i times the product D_i of its distinct denominators is a
    polynomial row, so det(a) = det(P) / prod D_i with P polynomial, and
    val(det P) <= deg(det P) <= sum over rows of the largest degree in P.
    """
    total = a.rows * shift
    for row in a.entries:
        dens = {x.denominator for x in row if not x.is_zero()}
        if not dens:
            return 0  # a zero row: det(a) = 0, and any bound will do
        dens_deg = sum(len(q) - 1 for q in dens)
        top = max(len(x.numerator) - len(x.denominator) + dens_deg
                  for x in row if not x.is_zero())
        total += top - sum(_porder(q) for q in dens)
    return total


def _eliminate(a: Mat, shift: int, prec: int) -> list:
    """Pivot orders of the Smith form of t**shift * a mod t**prec.

    Stops early, with fewer than n orders, when the remaining submatrix
    vanishes mod t**prec. Row i is dropped once column i below its pivot
    t**v * unit is cleared: the column operations that would clear the
    rest of row i touch no other entry.
    """
    n = a.rows
    b = [[_series(x, shift, prec) for x in row] for row in a.entries]
    diag = []
    low = 0  # no entry of the remaining submatrix has a smaller order
    for i in range(n):
        found = _find_pivot(b, i, low, prec)
        if found is None:
            return diag
        v, r, c = found
        if r != i:
            b[i], b[r] = b[r], b[i]
        if c != i:
            for row in b:
                row[i], row[c] = row[c], row[i]
        pivot_row = b[i]
        unit = pivot_row[i][v:]
        for row in b[i + 1:]:
            y = row[i][v:]
            if any(y):
                f = _series_div(y, unit, prec - v)  # entry / pivot
                for c2 in range(i + 1, n):
                    _sub_product(row[c2], f, pivot_row[c2], v, prec)
        diag.append(v)
        low = v
    return diag


def _series(x: RatFunc, shift: int, prec: int) -> list:
    """Coefficients of t**shift * x below t**prec; that product is regular."""
    out = [0] * prec
    if x.is_zero():
        return out
    p, q = x.numerator, x.denominator
    i, j = _porder(p), _porder(q)
    o = shift + i - j
    if o < prec:
        # denominators are monic, so q is t**j when it has a single term
        if len(q) == j + 1:
            coeffs = p[i:i + prec - o]
        else:
            coeffs = _series_div(p[i:], q[j:], prec - o)
        out[o:o + len(coeffs)] = coeffs
    return out


def _find_pivot(b: list, i: int, low: int, prec: int):
    """(order, row, column) of the first entry of minimal order below t**prec
    in the submatrix from (i, i); None when it vanishes mod t**prec."""
    best = None
    for r in range(i, len(b)):
        row = b[r]
        for c in range(i, len(b)):
            v = _order(row[c], low)
            if v == low:
                return v, r, c
            if v < prec and (best is None or v < best[0]):
                best = (v, r, c)
    return best


def _sub_product(dst: list, f: list, src: list, start: int, prec: int) -> None:
    """dst -= f * src mod t**prec, in place; src vanishes below ``start``."""
    for j in range(start, prec):
        sj = src[j]
        if sj:
            for k, fk in enumerate(f[:prec - j]):
                if fk:
                    dst[j + k] -= fk * sj


class SnfResult(namedtuple("SnfResult", "left diag_valuations right shift")):
    """Diagonalization data: left @ (t**shift * a) @ right is diagonal.

    Both transforms are invertible over the local ring (regular entries,
    determinant of valuation 0) and the i-th diagonal entry of the
    product has valuation ``diag_valuations[i]``; the valuations are
    non-decreasing. ``left`` and ``right`` are None when the transforms
    were not asked for.
    """

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {
            "left": self.left.to_json_dict(),
            "diag_valuations": list(self.diag_valuations),
            "right": self.right.to_json_dict(),
            "shift": self.shift,
        }


def smith_normal_form(a: Mat, transforms: bool = True) -> SnfResult:
    """Diagonalize over the local ring, after clearing denominators.

    Pivots on an entry of minimal valuation in the remaining submatrix
    (ties by smallest (row, column)); clearing a row/column only ever
    adds regular multiples, so the accumulated transforms are invertible
    over the local ring by construction. Because the pivot has minimal
    valuation the cleared submatrix never drops below it, which makes
    the diagonal valuations come out sorted.

    With ``transforms=False`` only ``shift`` and ``diag_valuations`` are
    computed, by the truncated elimination described in the module
    docstring, and ``left`` and ``right`` are None.
    """
    if a.rows != a.cols:
        raise NonSquareMatrixError("smith normal form needs a square matrix")
    if not transforms:
        diag, ell = _truncated_valuations(a)
        return SnfResult(None, diag, None, ell)
    n = a.rows
    ell = clear_denominators(a)
    shift = t_power(ell)
    b = [[shift * x for x in row] for row in a.entries]
    left = [[RatFunc(1 if i == j else 0) for j in range(n)] for i in range(n)]
    # right is kept by columns, so its column operations are row operations
    right = [[RatFunc(1 if i == j else 0) for j in range(n)] for i in range(n)]
    diag = []
    for i in range(n):
        v, r, c = min((b[r][c].val(), r, c) for r in range(i, n) for c in range(i, n))
        if v == INFINITE:
            raise SingularMatrixError("matrix is singular over the fraction field")
        b[i], b[r] = b[r], b[i]
        left[i], left[r] = left[r], left[i]
        for row in b:
            row[i], row[c] = row[c], row[i]
        right[i], right[c] = right[c], right[i]
        pivot_row = b[i]
        pinv = pivot_row[i].inv()
        for r2 in range(i + 1, n):
            if not b[r2][i].is_zero():
                f = b[r2][i] * pinv  # regular: the pivot has minimal valuation
                _sub_row(b[r2], f, pivot_row)
                _sub_row(left[r2], f, left[i])
        # clearing row i of b would touch only row i, which is never read again
        for c2 in range(i + 1, n):
            if not pivot_row[c2].is_zero():
                _sub_row(right[c2], pivot_row[c2] * pinv, right[i])
        diag.append(v)
    if any(diag[i] > diag[i + 1] for i in range(n - 1)):
        raise AssertionError("diagonal valuations came out unsorted")
    return SnfResult(Mat(left), tuple(diag), Mat(zip(*right)), ell)


def _sub_row(row: list, f: RatFunc, pivot_row: list) -> None:
    """row -= f * pivot_row, in place, skipping the zeros of pivot_row."""
    for k, x in enumerate(pivot_row):
        if not x.is_zero():
            row[k] = row[k] - f * x
